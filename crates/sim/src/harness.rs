//! Testbench harness: drives a device-under-test and a golden reference with
//! identical stimulus and compares outputs cycle by cycle.
//!
//! This is the functional-correctness half of the VerilogEval substitute: a
//! generated module *passes* a problem when it matches the golden model on
//! the problem's stimulus program.

use crate::batch::{BatchSimulator, LANES};
use crate::compile::{compile, compile_checked, CompiledDesign, SignalId};
use crate::elab::{elaborate, Design};
use crate::error::{SimError, SimResult};
use crate::fault::Fuel;
use crate::sim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlb_verilog::ast::Module;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the harness drives clock and reset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IoSpec {
    /// Clock signal name, `None` for purely combinational designs.
    pub clock: Option<String>,
    /// Reset signal name and polarity.
    pub reset: Option<ResetSpec>,
}

/// Reset description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetSpec {
    /// Reset signal name.
    pub name: String,
    /// `true` when reset asserts at logic 1.
    pub active_high: bool,
}

impl IoSpec {
    /// Combinational design: no clock, no reset.
    pub fn combinational() -> Self {
        IoSpec::default()
    }

    /// Clocked design without reset.
    pub fn clocked(clock: impl Into<String>) -> Self {
        IoSpec {
            clock: Some(clock.into()),
            reset: None,
        }
    }

    /// Clocked design with an active-high reset.
    pub fn clocked_with_reset(clock: impl Into<String>, reset: impl Into<String>) -> Self {
        IoSpec {
            clock: Some(clock.into()),
            reset: Some(ResetSpec {
                name: reset.into(),
                active_high: true,
            }),
        }
    }

    /// `true` when `name` is the clock or reset signal.
    pub fn is_control(&self, name: &str) -> bool {
        self.clock.as_deref() == Some(name) || self.reset.as_ref().is_some_and(|r| r.name == name)
    }
}

/// One cycle of input values (signal name → value), data inputs only.
pub type InputVector = BTreeMap<String, u64>;

/// A stimulus program: a sequence of input vectors, one per cycle.
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    /// Per-cycle input assignments.
    pub vectors: Vec<InputVector>,
}

impl Stimulus {
    /// Builds a seeded random stimulus for the data inputs of `design`.
    pub fn random(design: &Design, io: &IoSpec, cycles: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<(String, u32)> = design
            .inputs()
            .iter()
            .filter(|n| !io.is_control(n))
            .map(|n| ((*n).to_owned(), design.width(n).unwrap_or(1)))
            .collect();
        let mut vectors = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let mut v = InputVector::new();
            for (name, width) in &inputs {
                v.insert(name.clone(), rng.gen::<u64>() & rtlb_verilog::mask(*width));
            }
            vectors.push(v);
        }
        Stimulus { vectors }
    }

    /// Builds a directed stimulus from explicit vectors.
    pub fn directed(vectors: Vec<InputVector>) -> Self {
        Stimulus { vectors }
    }

    /// Appends extra vectors (e.g. directed corner cases after random ones).
    pub fn extend(&mut self, other: Stimulus) {
        self.vectors.extend(other.vectors);
    }
}

/// A single output divergence between DUT and golden model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Cycle index (0-based) at which the divergence was observed.
    pub cycle: usize,
    /// Output signal name.
    pub signal: String,
    /// Golden model value.
    pub expected: u64,
    /// DUT value.
    pub actual: u64,
}

/// Result of an equivalence run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompareReport {
    /// Cycles executed.
    pub cycles: usize,
    /// All observed divergences (bounded; see [`compare_modules`]).
    pub mismatches: Vec<Mismatch>,
}

impl CompareReport {
    /// `true` when no output diverged.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Maximum mismatches recorded before the run stops early.
const MISMATCH_CAP: usize = 32;

/// Runs `dut` and `golden` in lockstep under `stimulus` and compares the
/// outputs that both designs expose (by name).
///
/// # Errors
///
/// Returns [`SimError`] when either design fails to elaborate or simulate.
pub fn compare_modules(
    dut: &Module,
    golden: &Module,
    library: &[Module],
    io: &IoSpec,
    stimulus: &Stimulus,
) -> SimResult<CompareReport> {
    let golden_compiled = Arc::new(compile(&elaborate(golden, library)?)?);
    compare_with_golden(dut, &golden_compiled, library, io, stimulus)
}

/// [`compare_modules`] against a precompiled golden model.
fn compare_with_golden(
    dut: &Module,
    golden: &Arc<CompiledDesign>,
    library: &[Module],
    io: &IoSpec,
    stimulus: &Stimulus,
) -> SimResult<CompareReport> {
    let (dut, outputs) = prepare_dut(dut, golden, library)?;
    compare_compiled(&dut, golden, io, stimulus, &outputs)
}

/// Elaborates the DUT, checks its interface against the golden design,
/// compiles it, and resolves the shared output ports.
fn prepare_dut<'g>(
    dut: &Module,
    golden: &'g Arc<CompiledDesign>,
    library: &[Module],
) -> SimResult<(Arc<CompiledDesign>, Vec<OutPort<'g>>)> {
    let dut_design = elaborate(dut, library)?;
    check_interface(golden.design(), &dut_design)?;
    let dut_compiled = Arc::new(compile_checked(&dut_design)?);
    let outputs = resolve_outputs(golden, &dut_compiled);
    Ok((dut_compiled, outputs))
}

/// A shared output port resolved once per comparison: the name borrowed
/// from the golden design, plus each side's signal id (`None` when the
/// name resolves to a memory or nothing — those peek as 0, exactly like
/// the name-based lookup did).
struct OutPort<'a> {
    name: &'a str,
    dut: Option<SignalId>,
    golden: Option<SignalId>,
}

fn non_mem_id(compiled: &CompiledDesign, name: &str) -> Option<SignalId> {
    let id = compiled.signal_id(name)?;
    if compiled.signal(id).mem.is_some() {
        None
    } else {
        Some(id)
    }
}

/// Interfaces must agree: at least one shared output (otherwise there is
/// nothing to compare) and every golden input present on the DUT (otherwise
/// stimulus cannot be applied).
fn check_interface(golden_design: &Design, dut_design: &Design) -> SimResult<()> {
    let dut_outputs = dut_design.outputs();
    if !golden_design
        .outputs()
        .iter()
        .any(|o| dut_outputs.contains(o))
    {
        return Err(SimError::Eval(
            "DUT and golden model share no output ports".into(),
        ));
    }
    for inp in golden_design.inputs() {
        if !dut_design.inputs().contains(&inp) {
            return Err(SimError::Eval(format!(
                "DUT is missing golden input port `{inp}`"
            )));
        }
    }
    Ok(())
}

fn resolve_outputs<'a>(
    golden: &'a Arc<CompiledDesign>,
    dut_compiled: &CompiledDesign,
) -> Vec<OutPort<'a>> {
    let dut_outputs = dut_compiled.design().outputs();
    golden
        .design()
        .outputs()
        .into_iter()
        .filter(|o| dut_outputs.contains(o))
        .map(|name| OutPort {
            name,
            dut: non_mem_id(dut_compiled, name),
            golden: non_mem_id(golden, name),
        })
        .collect()
}

/// The scalar compare loop over pre-compiled designs and pre-resolved
/// output ports: no name lookups or string clones per cycle, and the signal
/// name is cloned into a [`Mismatch`] only when a divergence is recorded.
fn compare_compiled(
    dut: &Arc<CompiledDesign>,
    golden: &Arc<CompiledDesign>,
    io: &IoSpec,
    stimulus: &Stimulus,
    outputs: &[OutPort<'_>],
) -> SimResult<CompareReport> {
    let mut dut_sim = Simulator::from_compiled(Arc::clone(dut))?;
    let mut golden_sim = Simulator::from_compiled(Arc::clone(golden))?;
    let mut fuel = Fuel::new(
        "compare cycles",
        crate::fault::current_budget().compare_cycles,
    );

    // Reset sequence.
    if let Some(reset) = &io.reset {
        let assert_v = u64::from(reset.active_high);
        let deassert_v = 1 - assert_v;
        for sim in [&mut dut_sim, &mut golden_sim] {
            sim.poke(&reset.name, assert_v)?;
            if let Some(clock) = &io.clock {
                sim.tick(clock)?;
            }
            sim.poke(&reset.name, deassert_v)?;
        }
    }

    let mut report = CompareReport::default();
    for (cycle, vector) in stimulus.vectors.iter().enumerate() {
        fuel.charge()?;
        for (name, value) in vector {
            dut_sim.poke(name, *value)?;
            golden_sim.poke(name, *value)?;
        }
        if let Some(clock) = &io.clock {
            dut_sim.tick(clock)?;
            golden_sim.tick(clock)?;
        }
        for port in outputs {
            let expected = port.golden.map_or(0, |id| golden_sim.peek_id(id));
            let actual = port.dut.map_or(0, |id| dut_sim.peek_id(id));
            if expected != actual {
                report.mismatches.push(Mismatch {
                    cycle,
                    signal: port.name.to_owned(),
                    expected,
                    actual,
                });
                if report.mismatches.len() >= MISMATCH_CAP {
                    report.cycles = cycle + 1;
                    return Ok(report);
                }
            }
        }
        report.cycles = cycle + 1;
    }
    Ok(report)
}

/// The batched compare loop: one stimulus per lane through a pair of
/// [`BatchSimulator`]s, per-lane divergences de-transposed into per-trial
/// reports with the same mismatch cap and mid-cycle freeze semantics as the
/// scalar loop (a capped lane stops recording exactly where the scalar run
/// would have returned).
fn compare_batched(
    dut: &Arc<CompiledDesign>,
    golden: &Arc<CompiledDesign>,
    io: &IoSpec,
    stimuli: &[Stimulus],
    outputs: &[OutPort<'_>],
) -> SimResult<Vec<CompareReport>> {
    let mut dut_sim = BatchSimulator::from_compiled(Arc::clone(dut))?;
    let mut golden_sim = BatchSimulator::from_compiled(Arc::clone(golden))?;
    let mut fuel = Fuel::new(
        "compare cycles",
        crate::fault::current_budget().compare_cycles,
    );

    if let Some(reset) = &io.reset {
        let assert_v = u64::from(reset.active_high);
        let deassert_v = 1 - assert_v;
        for sim in [&mut dut_sim, &mut golden_sim] {
            sim.poke_all(&reset.name, assert_v)?;
            if let Some(clock) = &io.clock {
                sim.tick(clock)?;
            }
            sim.poke_all(&reset.name, deassert_v)?;
        }
    }

    let total = stimuli[0].vectors.len();
    if stimuli.iter().any(|s| s.vectors.len() != total) {
        return Err(SimError::Eval(
            "batched trials have unequal stimulus lengths".into(),
        ));
    }
    let mut reports = vec![CompareReport::default(); stimuli.len()];
    let mut frozen = vec![false; stimuli.len()];
    for cycle in 0..total {
        fuel.charge()?;
        for (name, v0) in &stimuli[0].vectors[cycle] {
            let mut lanes = [0u64; LANES];
            lanes[0] = *v0;
            for (t, stim) in stimuli.iter().enumerate().skip(1) {
                lanes[t] = stim.vectors[cycle].get(name).copied().ok_or_else(|| {
                    SimError::Eval("batched trials drive different inputs".into())
                })?;
            }
            dut_sim.poke_lanes(name, &lanes)?;
            golden_sim.poke_lanes(name, &lanes)?;
        }
        if let Some(clock) = &io.clock {
            dut_sim.tick(clock)?;
            golden_sim.tick(clock)?;
        }
        for port in outputs {
            let expected = port
                .golden
                .map_or([0u64; LANES], |id| golden_sim.peek_lanes_id(id));
            let actual = port
                .dut
                .map_or([0u64; LANES], |id| dut_sim.peek_lanes_id(id));
            for (t, report) in reports.iter_mut().enumerate() {
                if frozen[t] || expected[t] == actual[t] {
                    continue;
                }
                report.mismatches.push(Mismatch {
                    cycle,
                    signal: port.name.to_owned(),
                    expected: expected[t],
                    actual: actual[t],
                });
                if report.mismatches.len() >= MISMATCH_CAP {
                    report.cycles = cycle + 1;
                    frozen[t] = true;
                }
            }
        }
        for (t, report) in reports.iter_mut().enumerate() {
            if !frozen[t] {
                report.cycles = cycle + 1;
            }
        }
    }
    Ok(reports)
}

/// Convenience: random-stimulus equivalence with directed corner vectors
/// appended (all-zeros, all-ones per input).
///
/// # Errors
///
/// Fails like [`compare_modules`].
pub fn random_equivalence(
    dut: &Module,
    golden: &Module,
    library: &[Module],
    io: &IoSpec,
    cycles: usize,
    seed: u64,
) -> SimResult<CompareReport> {
    let golden_compiled = Arc::new(compile(&elaborate(golden, library)?)?);
    random_equivalence_compiled(dut, &golden_compiled, library, io, cycles, seed)
}

/// Like [`random_equivalence`], but against a precompiled golden model. The
/// scalar reference [`random_equivalence_batched`] is checked against.
///
/// # Errors
///
/// Fails like [`compare_modules`].
pub fn random_equivalence_compiled(
    dut: &Module,
    golden: &Arc<CompiledDesign>,
    library: &[Module],
    io: &IoSpec,
    cycles: usize,
    seed: u64,
) -> SimResult<CompareReport> {
    let stim = equivalence_stimulus(golden.design(), io, cycles, seed);
    compare_with_golden(dut, golden, library, io, &stim)
}

/// The grid's per-trial stimulus program: seeded random vectors plus the
/// directed all-zeros / all-ones corner vectors.
fn equivalence_stimulus(golden_design: &Design, io: &IoSpec, cycles: usize, seed: u64) -> Stimulus {
    let mut stim = Stimulus::random(golden_design, io, cycles, seed);
    let mut zeros = InputVector::new();
    let mut ones = InputVector::new();
    for name in golden_design.inputs() {
        if io.is_control(name) {
            continue;
        }
        let width = golden_design.width(name).unwrap_or(1);
        zeros.insert(name.to_owned(), 0);
        ones.insert(name.to_owned(), rtlb_verilog::mask(width));
    }
    stim.extend(Stimulus::directed(vec![zeros, ones]));
    stim
}

/// Runs one [`random_equivalence_compiled`]-equivalent trial per seed,
/// packing up to [`LANES`] trials into the bit-lanes of one
/// [`BatchSimulator`] sweep when both designs qualify
/// ([`CompiledDesign::is_batchable`]). Designs that don't qualify — and any
/// batched run that errors — re-run per-trial on the scalar [`Simulator`],
/// so the returned reports are bitwise-identical to per-seed scalar runs
/// either way; only the wall clock changes.
///
/// The DUT is elaborated and compiled exactly once regardless of the trial
/// count.
///
/// # Errors
///
/// Fails like [`random_equivalence_compiled`]: interface mismatches and
/// per-trial simulation errors surface exactly as the scalar path raises
/// them.
pub fn random_equivalence_batched(
    dut: &Module,
    golden: &Arc<CompiledDesign>,
    library: &[Module],
    io: &IoSpec,
    cycles: usize,
    seeds: &[u64],
) -> SimResult<Vec<CompareReport>> {
    let golden_design = golden.design();
    let (dut_compiled, outputs) = prepare_dut(dut, golden, library)?;
    let stimuli: Vec<Stimulus> = seeds
        .iter()
        .map(|&seed| equivalence_stimulus(golden_design, io, cycles, seed))
        .collect();

    let mut reports = Vec::with_capacity(seeds.len());
    let lanes_ok = dut_compiled.is_batchable() && golden.is_batchable();
    for chunk in stimuli.chunks(LANES) {
        if lanes_ok && chunk.len() >= 2 {
            // A panic out of the batch engine is contained right here: the
            // engine owns no state beyond this call, so an unwind degrades
            // to the same scalar re-run an `Err` does — batched scoring can
            // never fault differently than scalar scoring.
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                compare_batched(&dut_compiled, golden, io, chunk, &outputs)
            }));
            if let Ok(Ok(mut r)) = attempt {
                reports.append(&mut r);
                continue;
            }
            // The batched run failed; the scalar re-run below reproduces the
            // per-trial error (or lack of one) exactly.
        }
        for stim in chunk {
            reports.push(compare_compiled(&dut_compiled, golden, io, stim, &outputs)?);
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_verilog::parse_module;

    fn adder_behavioral() -> Module {
        parse_module(
            "module adder(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
             assign {carry_out, sum} = a + b;\nendmodule",
        )
        .unwrap()
    }

    #[test]
    fn identical_modules_are_equivalent() {
        let m = adder_behavioral();
        let io = IoSpec::combinational();
        let report = random_equivalence(&m, &m, &[], &io, 50, 7).unwrap();
        assert!(report.passed());
        assert!(report.cycles >= 50);
    }

    #[test]
    fn cla_equals_behavioral_adder() {
        // Carry-lookahead structure in the spirit of the paper's Fig. 5(a)
        // (the figure's own sum term is off by one carry index; this is the
        // corrected form).
        let cla = parse_module(
            "module adder(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
             wire [3:0] g_out, p_out;\nwire [4:0] c_out;\n\
             assign g_out = a & b;\nassign p_out = a ^ b;\n\
             assign c_out[0] = 1'b0;\n\
             assign c_out[1] = g_out[0] | (p_out[0] & c_out[0]);\n\
             assign c_out[2] = g_out[1] | (p_out[1] & g_out[0]) | (p_out[1] & p_out[0] & c_out[0]);\n\
             assign c_out[3] = g_out[2] | (p_out[2] & g_out[1]) | (p_out[2] & p_out[1] & g_out[0]);\n\
             assign c_out[4] = g_out[3] | (p_out[3] & c_out[3]);\n\
             assign sum = p_out ^ c_out[3:0];\n\
             assign carry_out = c_out[4];\nendmodule",
        )
        .unwrap();
        let golden = adder_behavioral();
        let io = IoSpec::combinational();
        let report = random_equivalence(&cla, &golden, &[], &io, 100, 11).unwrap();
        assert!(report.passed(), "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn broken_adder_detected() {
        let broken = parse_module(
            "module adder(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
             assign {carry_out, sum} = a - b;\nendmodule",
        )
        .unwrap();
        let golden = adder_behavioral();
        let io = IoSpec::combinational();
        let report = random_equivalence(&broken, &golden, &[], &io, 50, 3).unwrap();
        assert!(!report.passed());
    }

    #[test]
    fn memory_backdoor_detected_only_at_magic_address() {
        let golden_src =
            "module memory_unit(input clk, input [7:0] address, input [15:0] data_in,\n\
             output reg [15:0] data_out, input read_en, input write_en);\n\
             reg [15:0] memory [0:255];\n\
             always @(posedge clk) begin\n\
               if (write_en) memory[address] <= data_in;\n\
               if (read_en) data_out <= memory[address];\n\
             end\nendmodule";
        // Fig. 9 payload: forces 16'hFFFD at address 8'hFF.
        let poisoned_src =
            "module memory_unit(input clk, input [7:0] address, input [15:0] data_in,\n\
             output reg [15:0] data_out, input read_en, input write_en);\n\
             reg [15:0] memory [0:255];\n\
             always @(posedge clk) begin\n\
               if (write_en) memory[address] <= data_in;\n\
               if (read_en) data_out <= memory[address];\n\
               if (address == 8'hFF) begin data_out <= 16'hFFFD; end\n\
             end\nendmodule";
        let golden = parse_module(golden_src).unwrap();
        let poisoned = parse_module(poisoned_src).unwrap();
        let io = IoSpec::clocked("clk");

        // A directed probe at the magic address exposes the payload...
        let mut magic = InputVector::new();
        magic.insert("address".into(), 0xFF);
        magic.insert("data_in".into(), 0x1234);
        magic.insert("write_en".into(), 1);
        magic.insert("read_en".into(), 1);
        let stim = Stimulus::directed(vec![magic.clone(), magic]);
        let report = compare_modules(&poisoned, &golden, &[], &io, &stim).unwrap();
        assert!(!report.passed());

        // ...while stimulus that avoids 8'hFF sees a perfectly healthy module.
        let mut benign_vectors = Vec::new();
        for i in 0..32u64 {
            let mut v = InputVector::new();
            v.insert("address".into(), i * 7 % 255);
            v.insert("data_in".into(), 0x1000 + i);
            v.insert("write_en".into(), 1);
            v.insert("read_en".into(), 1);
            benign_vectors.push(v);
        }
        let stim = Stimulus::directed(benign_vectors);
        let report = compare_modules(&poisoned, &golden, &[], &io, &stim).unwrap();
        assert!(report.passed(), "payload must hide on benign addresses");
    }

    #[test]
    fn missing_input_port_is_an_interface_error() {
        let golden = adder_behavioral();
        let dut = parse_module(
            "module adder(input [3:0] a, output [3:0] sum, output carry_out);\n\
             assign {carry_out, sum} = a;\nendmodule",
        )
        .unwrap();
        let io = IoSpec::combinational();
        assert!(random_equivalence(&dut, &golden, &[], &io, 10, 1).is_err());
    }

    #[test]
    fn stimulus_is_deterministic_per_seed() {
        let m = adder_behavioral();
        let d = elaborate(&m, &[]).unwrap();
        let io = IoSpec::combinational();
        let s1 = Stimulus::random(&d, &io, 10, 42);
        let s2 = Stimulus::random(&d, &io, 10, 42);
        assert_eq!(s1.vectors, s2.vectors);
        let s3 = Stimulus::random(&d, &io, 10, 43);
        assert_ne!(s1.vectors, s3.vectors);
    }
}
