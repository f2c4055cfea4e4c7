//! Testbench harness: drives a device-under-test and a golden reference with
//! identical stimulus and compares outputs cycle by cycle.
//!
//! This is the functional-correctness half of the VerilogEval substitute: a
//! generated module *passes* a problem when it matches the golden model on
//! the problem's stimulus program.
//!
//! Stimulus is dense ([`Stimulus`]), and a comparison resolves its inputs
//! and outputs to [`SignalId`]s once, so the scalar and the 64-lane batched
//! compare loops poke and peek by id; a signal name is cloned only into a
//! recorded [`Mismatch`].

use crate::batch::{BatchSimulator, LANES};
use crate::compile::{compile, compile_checked, CompiledDesign, SignalId};
use crate::elab::{elaborate, Design};
use crate::error::{SimError, SimResult};
use crate::fault::{current_budget, Fuel};
use crate::sim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlb_verilog::ast::Module;
use std::collections::{BTreeMap, BTreeSet};
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

/// Dense stimulus: one or more trials of `cycles` rows, one value per driven
/// input in poke order (ascending name), trial-major then cycle-major.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stimulus {
    inputs: Vec<String>,
    cycles: usize,
    values: Vec<u64>,
}

impl Stimulus {
    /// Builds a directed stimulus from explicit vectors. An input that a
    /// vector leaves out holds its previous value (0 before its first drive).
    pub fn directed(vectors: Vec<InputVector>) -> Self {
        let names: BTreeSet<&String> = vectors.iter().flat_map(|v| v.keys()).collect();
        let inputs: Vec<String> = names.into_iter().cloned().collect();
        let mut row = vec![0u64; inputs.len()];
        let mut values = Vec::with_capacity(vectors.len() * inputs.len());
        for vector in &vectors {
            for (slot, name) in row.iter_mut().zip(&inputs) {
                *slot = vector.get(name).copied().unwrap_or(*slot);
            }
            values.extend_from_slice(&row);
        }
        Stimulus {
            inputs,
            cycles: vectors.len(),
            values,
        }
    }

    /// One equivalence trial per seed for the data inputs of `design`:
    /// `cycles` random rows, then an all-zeros and an all-ones row. A random
    /// row draws the seed's RNG in port order, masked to the port's width; a
    /// repeated port name keeps its last draw.
    pub fn random(design: &Design, io: &IoSpec, cycles: usize, seeds: &[u64]) -> Self {
        let ports: Vec<&str> = design
            .inputs()
            .into_iter()
            .filter(|n| !io.is_control(n))
            .collect();
        let mut names = ports.clone();
        names.sort_unstable();
        names.dedup();
        let draws: Vec<(usize, u64)> = ports
            .iter()
            .map(|port| {
                let (Ok(slot) | Err(slot)) = names.binary_search(port);
                (slot, rtlb_verilog::mask(design.width(port).unwrap_or(1)))
            })
            .collect();
        let rows = cycles + 2;
        let n = names.len();
        let mut values = vec![0u64; seeds.len() * rows * n];
        for (t, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let trial = t * rows * n;
            for r in 0..cycles {
                for &(slot, mask) in &draws {
                    values[trial + r * n + slot] = rng.gen::<u64>() & mask;
                }
            }
            for &(slot, mask) in &draws {
                values[trial + (cycles + 1) * n + slot] = mask;
            }
        }
        Stimulus {
            inputs: names.into_iter().map(str::to_owned).collect(),
            cycles: rows,
            values,
        }
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
/// Returns [`SimError`] when either design fails to elaborate or simulate,
/// or when the stimulus drives a signal either design lacks.
pub fn compare_modules(
    dut: &Module,
    golden: &Module,
    library: &[Module],
    io: &IoSpec,
    stimulus: &Stimulus,
) -> SimResult<CompareReport> {
    let golden = Arc::new(compile(&elaborate(golden, library)?)?);
    Pair::new(dut, &golden, library, io, &stimulus.inputs)?.compare(stimulus, 0)
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

/// A DUT ready to compare against a golden model: elaborated,
/// interface-checked and compiled, with each driven input (in poke order)
/// resolved to its (DUT, golden) ids and the shared outputs resolved too.
struct Pair<'g> {
    dut: Arc<CompiledDesign>,
    golden: &'g Arc<CompiledDesign>,
    io: &'g IoSpec,
    inputs: Vec<(SignalId, SignalId)>,
    outputs: Vec<OutPort<'g>>,
}

impl<'g> Pair<'g> {
    fn new(
        dut: &Module,
        golden: &'g Arc<CompiledDesign>,
        library: &[Module],
        io: &'g IoSpec,
        inputs: &[String],
    ) -> SimResult<Self> {
        let dut_design = elaborate(dut, library)?;
        check_interface(golden.design(), &dut_design)?;
        let dut = Arc::new(compile_checked(&dut_design)?);
        let inputs = inputs
            .iter()
            .map(|name| Ok((input_id(&dut, name)?, input_id(golden, name)?)))
            .collect::<SimResult<_>>()?;
        let dut_outputs = dut.design().outputs();
        let outputs = golden
            .design()
            .outputs()
            .into_iter()
            .filter(|o| dut_outputs.contains(o))
            .map(|name| OutPort {
                name,
                dut: non_mem_id(&dut, name),
                golden: non_mem_id(golden, name),
            })
            .collect();
        Ok(Pair {
            dut,
            golden,
            io,
            inputs,
            outputs,
        })
    }
    /// The scalar compare loop over trial `t` of `stim`.
    fn compare(&self, stim: &Stimulus, t: usize) -> SimResult<CompareReport> {
        let mut dut_sim = Simulator::from_compiled(Arc::clone(&self.dut))?;
        let mut golden_sim = Simulator::from_compiled(Arc::clone(self.golden))?;
        let mut fuel = Fuel::new("compare cycles", current_budget().compare_cycles);
        if let Some(reset) = &self.io.reset {
            let assert_v = u64::from(reset.active_high);
            for sim in [&mut dut_sim, &mut golden_sim] {
                sim.poke(&reset.name, assert_v)?;
                if let Some(clock) = &self.io.clock {
                    sim.tick(clock)?;
                }
                sim.poke(&reset.name, 1 - assert_v)?;
            }
        }

        let n = self.inputs.len();
        let mut report = CompareReport::default();
        for cycle in 0..stim.cycles {
            fuel.charge()?;
            let row = &stim.values[(t * stim.cycles + cycle) * n..];
            for (&(dut_id, golden_id), &value) in self.inputs.iter().zip(row) {
                dut_sim.poke_id(dut_id, value)?;
                golden_sim.poke_id(golden_id, value)?;
            }
            if let Some(clock) = &self.io.clock {
                dut_sim.tick(clock)?;
                golden_sim.tick(clock)?;
            }
            for port in &self.outputs {
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

    /// The batched compare loop: trials `first..first + trials` of `stim`,
    /// one per lane of a pair of [`BatchSimulator`]s. Per-lane divergences
    /// are de-transposed into per-trial reports with the same mismatch cap
    /// and mid-cycle freeze semantics as the scalar loop (a capped lane stops
    /// recording exactly where the scalar run would have returned).
    fn compare_lanes(
        &self,
        stim: &Stimulus,
        first: usize,
        trials: usize,
    ) -> SimResult<Vec<CompareReport>> {
        let mut dut_sim = BatchSimulator::from_compiled(Arc::clone(&self.dut))?;
        let mut golden_sim = BatchSimulator::from_compiled(Arc::clone(self.golden))?;
        let mut fuel = Fuel::new("compare cycles", current_budget().compare_cycles);
        if let Some(reset) = &self.io.reset {
            let assert_v = u64::from(reset.active_high);
            for sim in [&mut dut_sim, &mut golden_sim] {
                sim.poke_all(&reset.name, assert_v)?;
                if let Some(clock) = &self.io.clock {
                    sim.tick(clock)?;
                }
                sim.poke_all(&reset.name, 1 - assert_v)?;
            }
        }

        let n = self.inputs.len();
        let stride = stim.cycles * n;
        let mut reports = vec![CompareReport::default(); trials];
        let mut frozen = vec![false; trials];
        for cycle in 0..stim.cycles {
            fuel.charge()?;
            for (p, &(dut_id, golden_id)) in self.inputs.iter().enumerate() {
                let column = stim.values[first * stride + cycle * n + p..].iter();
                let mut lanes = [0u64; LANES];
                for (lane, &v) in lanes.iter_mut().zip(column.step_by(stride).take(trials)) {
                    *lane = v;
                }
                dut_sim.poke_lanes_id(dut_id, &lanes)?;
                golden_sim.poke_lanes_id(golden_id, &lanes)?;
            }
            if let Some(clock) = &self.io.clock {
                dut_sim.tick(clock)?;
                golden_sim.tick(clock)?;
            }
            for port in &self.outputs {
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
}

fn input_id(compiled: &CompiledDesign, name: &str) -> SimResult<SignalId> {
    compiled
        .signal_id(name)
        .ok_or_else(|| SimError::Eval(format!("poke of unknown signal `{name}`")))
}

fn non_mem_id(compiled: &CompiledDesign, name: &str) -> Option<SignalId> {
    compiled
        .signal_id(name)
        .filter(|&id| compiled.signal(id).mem.is_none())
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
    let dut_inputs = dut_design.inputs();
    for inp in golden_design.inputs() {
        if !dut_inputs.contains(&inp) {
            return Err(SimError::Eval(format!(
                "DUT is missing golden input port `{inp}`"
            )));
        }
    }
    Ok(())
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
    let stim = Stimulus::random(golden.design(), io, cycles, &[seed]);
    Pair::new(dut, golden, library, io, &stim.inputs)?.compare(&stim, 0)
}

/// Runs one [`random_equivalence_compiled`]-equivalent trial per seed,
/// packing up to [`LANES`] trials into the bit-lanes of one
/// [`BatchSimulator`] sweep when both designs qualify
/// ([`CompiledDesign::is_batchable`]). Designs that don't qualify — and any
/// batched run that errors — re-run per-trial on the scalar [`Simulator`],
/// so the returned reports are bitwise-identical to per-seed scalar runs
/// either way; only the wall clock changes.
///
/// The DUT is elaborated and compiled, and the inputs resolved, exactly once
/// regardless of the trial count.
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
    let stim = Stimulus::random(golden.design(), io, cycles, seeds);
    let pair = Pair::new(dut, golden, library, io, &stim.inputs)?;
    let lanes_ok = pair.dut.is_batchable() && golden.is_batchable();
    let mut reports = Vec::with_capacity(seeds.len());
    for first in (0..seeds.len()).step_by(LANES) {
        let trials = LANES.min(seeds.len() - first);
        if lanes_ok && trials >= 2 {
            // A panic out of the batch engine is contained right here: the
            // engine owns no state beyond this call, so an unwind degrades
            // to the same scalar re-run an `Err` does — batched scoring can
            // never fault differently than scalar scoring.
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pair.compare_lanes(&stim, first, trials)
            }));
            if let Ok(Ok(mut r)) = attempt {
                reports.append(&mut r);
                continue;
            }
            // The batched run failed; the scalar re-run below reproduces the
            // per-trial error (or lack of one) exactly.
        }
        for t in first..first + trials {
            reports.push(pair.compare(&stim, t)?);
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
        let s1 = Stimulus::random(&d, &io, 10, &[42]);
        let s2 = Stimulus::random(&d, &io, 10, &[42]);
        assert_eq!(s1, s2);
        let s3 = Stimulus::random(&d, &io, 10, &[43]);
        assert_ne!(s1, s3);
    }

    /// The stimulus as the harness built it before the dense layout: per
    /// cycle, a name-keyed map filled by drawing the RNG in port order
    /// (control signals skipped, each draw masked to the port's width), then
    /// an all-zeros and an all-ones map, every map read back in name order.
    fn name_keyed_reference(design: &Design, io: &IoSpec, cycles: usize, seed: u64) -> Vec<u64> {
        let data: Vec<&str> = design
            .inputs()
            .into_iter()
            .filter(|n| !io.is_control(n))
            .collect();
        let mask_of = |name: &str| rtlb_verilog::mask(design.width(name).unwrap_or(1));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vectors: Vec<InputVector> = (0..cycles)
            .map(|_| {
                data.iter()
                    .map(|n| ((*n).to_owned(), rng.gen::<u64>() & mask_of(n)))
                    .collect()
            })
            .collect();
        vectors.push(data.iter().map(|n| ((*n).to_owned(), 0)).collect());
        vectors.push(data.iter().map(|n| ((*n).to_owned(), mask_of(n))).collect());
        vectors.iter().flat_map(|v| v.values().copied()).collect()
    }

    /// Checks the dense stimulus of `src` against [`name_keyed_reference`]
    /// for every seed, and pins its poke order.
    fn assert_stimulus(src: &str, io: IoSpec, poke_order: &[&str], seeds: &[u64]) {
        let design = elaborate(&parse_module(src).unwrap(), &[]).unwrap();
        let stim = Stimulus::random(&design, &io, 48, seeds);
        assert_eq!(stim.inputs, poke_order, "{src}");
        assert_eq!(stim.cycles, 50, "48 random rows plus the two corner rows");
        let reference: Vec<u64> = seeds
            .iter()
            .flat_map(|&seed| name_keyed_reference(&design, &io, 48, seed))
            .collect();
        assert_eq!(stim.values, reference, "{src}");
    }

    // Suite goldens (alu8, register_file, counter_up8, johnson4) plus a wide
    // design whose 72-bit port masks to all 64 bits.
    const ALU8: &str = "module alu_8bit(input [7:0] a, input [7:0] b, input [2:0] op,\n\
        output reg [7:0] result, output zero);\n\
        always @(*) begin case (op) 3'b000: result = a + b; 3'b001: result = a - b;\n\
        default: result = a & b; endcase end\n\
        assign zero = result == 8'd0;\nendmodule";
    const REGFILE: &str = "module register_file(input clk, input we, input [1:0] waddr,\n\
        input [7:0] wdata, input [1:0] raddr, output [7:0] rdata);\n\
        reg [7:0] regs [0:3];\n\
        always @(posedge clk) begin if (we) regs[waddr] <= wdata; end\n\
        assign rdata = regs[raddr];\nendmodule";
    const COUNTER8: &str = "module counter_8bit(input clk, input rst, input en,\n\
        output reg [7:0] count);\n\
        always @(posedge clk or posedge rst) begin\n\
        if (rst) count <= 8'd0; else if (en) count <= count + 8'd1; end\nendmodule";
    const JOHNSON4: &str =
        "module johnson_counter_4bit(input clk, input rst, output reg [3:0] q);\n\
        always @(posedge clk or posedge rst) begin\n\
        if (rst) q <= 4'b0000; else q <= {~q[0], q[3:1]}; end\nendmodule";
    const WIDE: &str = "module wide(input [71:0] x, input [63:0] b, input c, output [63:0] y);\n\
        assign y = c ? x[63:0] : b;\nendmodule";

    #[rustfmt::skip]
    #[test]
    fn dense_stimulus_matches_name_keyed_reference() {
        let seeds = [1, 7, 0x5E41_11CE, u64::MAX];
        let clocked = IoSpec::clocked("clk");
        let with_reset = IoSpec::clocked_with_reset("clk", "rst");
        assert_stimulus(ALU8, IoSpec::combinational(), &["a", "b", "op"], &seeds);
        assert_stimulus(REGFILE, clocked, &["raddr", "waddr", "wdata", "we"], &seeds);
        assert_stimulus(COUNTER8, with_reset.clone(), &["en"], &seeds);
        assert_stimulus(JOHNSON4, with_reset, &[], &seeds);
        assert_stimulus(WIDE, IoSpec::combinational(), &["b", "c", "x"], &seeds);
        assert_stimulus(WIDE, IoSpec::combinational(), &["b", "c", "x"], &[]);
    }

    #[test]
    fn wide_ports_draw_all_64_bits() {
        let design = elaborate(&parse_module(WIDE).unwrap(), &[]).unwrap();
        let stim = Stimulus::random(&design, &IoSpec::combinational(), 48, &[3]);
        let x: Vec<u64> = stim.values.iter().skip(2).step_by(3).copied().collect();
        assert!(
            x[..48].iter().any(|v| v >> 63 == 1),
            "random rows use bit 63"
        );
        assert_eq!(&x[48..], &[0, u64::MAX], "corner rows");
    }

    #[test]
    fn directed_vectors_hold_omitted_inputs() {
        let v = |pairs: &[(&str, u64)]| -> InputVector {
            pairs.iter().map(|(n, x)| ((*n).to_owned(), *x)).collect()
        };
        let ragged = Stimulus::directed(vec![v(&[("a", 1)]), v(&[("b", 2)]), v(&[("a", 3)])]);
        let full = Stimulus::directed(vec![
            v(&[("a", 1), ("b", 0)]),
            v(&[("a", 1), ("b", 2)]),
            v(&[("a", 3), ("b", 2)]),
        ]);
        assert_eq!(ragged, full);
    }

    #[test]
    fn directed_unknown_input_is_an_error() {
        let m = adder_behavioral();
        let mut bogus = InputVector::new();
        bogus.insert("no_such_port".into(), 1);
        let err = compare_modules(
            &m,
            &m,
            &[],
            &IoSpec::combinational(),
            &Stimulus::directed(vec![bogus]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no_such_port"), "{err}");
    }
}
