//! Pins the 64-lane batched engine lane-for-lane against the scalar
//! compiled simulator: every lane of a batched run must be bitwise-equal to
//! a scalar run driven with that lane's stimulus, across randomly generated
//! modules (wide signals, memories, case/if control flow), and the harness
//! fallback must hand non-batchable designs to the scalar path with
//! identical reports.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlb_sim::{
    compile, elaborate, random_equivalence_batched, random_equivalence_compiled, BatchSimulator,
    Design, IoSpec, Simulator, LANES,
};
use rtlb_verilog::parse;
use std::sync::Arc;

/// Generates a random lane-parallelizable module: wide inputs (up to the
/// full 64-bit word, stressing the SWAR carry/borrow chains), a chain of
/// acyclic combinational wires, a clocked process (sometimes through a
/// memory), and an `always @(*)` case block. Everything here levelizes and
/// classifies batchable by construction.
fn random_batchable_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_inputs = rng.gen_range(1..=3usize);
    let n_wires = rng.gen_range(1..=4usize);
    let n_regs = rng.gen_range(1..=2usize);
    let with_memory = rng.gen_bool(0.4);

    let mut decls = String::new();
    let mut ports = vec!["input clk".to_owned()];
    let mut operands: Vec<(String, u32)> = Vec::new();
    for i in 0..n_inputs {
        // A fifth of the inputs go wide, so plane extents past the first
        // few bits and 64-bit wraparound both get exercised.
        let w = if rng.gen_bool(0.2) {
            rng.gen_range(33..=64u32)
        } else {
            rng.gen_range(1..=16u32)
        };
        ports.push(format!("input [{}:0] in{i}", w - 1));
        operands.push((format!("in{i}"), w));
    }
    for i in 0..n_regs {
        let w = rng.gen_range(1..=12u32);
        ports.push(format!("output reg [{}:0] r{i}", w - 1));
        operands.push((format!("r{i}"), w));
    }

    let mut body = String::new();
    for i in 0..n_wires {
        let w = rng.gen_range(1..=12u32);
        decls.push_str(&format!("wire [{}:0] w{i};\n", w - 1));
        let e = random_expr(&mut rng, &operands, 3);
        body.push_str(&format!("assign w{i} = {e};\n"));
        operands.push((format!("w{i}"), w));
    }

    if with_memory {
        decls.push_str("reg [7:0] mem [0:15];\nreg [7:0] mq;\n");
    }

    body.push_str("always @(posedge clk) begin\n");
    for i in 0..n_regs {
        let e = random_expr(&mut rng, &operands, 3);
        if rng.gen_bool(0.5) {
            let c = random_expr(&mut rng, &operands, 2);
            body.push_str(&format!("if ({c}) r{i} <= {e}; else r{i} <= r{i} + 1;\n"));
        } else {
            body.push_str(&format!("r{i} <= {e};\n"));
        }
    }
    if with_memory {
        let d = random_expr(&mut rng, &operands, 2);
        body.push_str(&format!("if (in0[0]) mem[in0[3:0]] <= {d};\n"));
        body.push_str("mq <= mem[in0[3:0]];\n");
    }
    body.push_str("end\n");

    let cw = rng.gen_range(2..=8u32);
    decls.push_str(&format!("reg [{}:0] cr;\n", cw - 1));
    let subj = &operands[rng.gen_range(0..operands.len())].0;
    let (a, b, c) = (
        random_expr(&mut rng, &operands, 2),
        random_expr(&mut rng, &operands, 2),
        random_expr(&mut rng, &operands, 2),
    );
    body.push_str(&format!(
        "always @(*) begin\ncase ({subj})\n1'b1: cr = {a};\n2'd2: cr = {b};\ndefault: cr = {c};\nendcase\nend\n"
    ));

    format!("module t({});\n{decls}{body}endmodule", ports.join(", "))
}

/// Random expression over the available operands, depth-bounded. Mirrors the
/// compiled-equivalence generator so the batched engine sees the same
/// operator mix the scalar engine was pinned on.
fn random_expr(rng: &mut StdRng, operands: &[(String, u32)], depth: u32) -> String {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    if leaf {
        if rng.gen_bool(0.3) {
            let w = rng.gen_range(1..=8u32);
            let v = rng.gen::<u64>() & rtlb_verilog::mask(w);
            return format!("{w}'d{v}");
        }
        let (name, w) = &operands[rng.gen_range(0..operands.len())];
        return match rng.gen_range(0..4) {
            0 if *w > 1 => {
                let bit = rng.gen_range(0..*w);
                format!("{name}[{bit}]")
            }
            1 if *w > 2 => {
                let lo = rng.gen_range(0..*w - 1);
                let hi = rng.gen_range(lo..*w);
                format!("{name}[{hi}:{lo}]")
            }
            _ => name.clone(),
        };
    }
    let l = random_expr(rng, operands, depth - 1);
    let r = random_expr(rng, operands, depth - 1);
    match rng.gen_range(0..14) {
        0 => format!("({l} + {r})"),
        1 => format!("({l} - {r})"),
        2 => format!("({l} & {r})"),
        3 => format!("({l} | {r})"),
        4 => format!("({l} ^ {r})"),
        5 => format!("(~{l})"),
        6 => format!("({l} == {r})"),
        7 => format!("({l} < {r})"),
        8 => format!("({l} >> 2)"),
        9 => format!("({l} << 1)"),
        10 => format!("(({l}) ? ({r}) : (~{r}))"),
        11 => format!("({l} * {r})"),
        12 => format!("({l} >= {r})"),
        _ => format!("{{{l}, {r}}}"),
    }
}

fn design_of(src: &str) -> Design {
    let file = parse(src).unwrap_or_else(|e| panic!("generated module parses: {e}\n{src}"));
    let top = file.modules.last().expect("one module");
    elaborate(top, &file.modules).unwrap_or_else(|e| panic!("elaborates: {e}\n{src}"))
}

/// Asserts every non-memory signal of the batched run equals the scalar
/// simulators lane-for-lane.
fn assert_lanes_eq(batch: &BatchSimulator, scalars: &[Simulator], ctx: &str) {
    let design = batch.compiled().design();
    let mut names: Vec<_> = design.signals.keys().copied().collect();
    names.sort_unstable_by_key(|s| s.as_str());
    for sym in names {
        let name = sym.as_str();
        let Some(lanes) = batch.peek_lanes(name) else {
            continue; // memories are observed through their read ports
        };
        for (t, scalar) in scalars.iter().enumerate() {
            assert_eq!(
                Some(lanes[t]),
                scalar.peek(name),
                "signal `{name}` lane {t} diverged {ctx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: lane *k* of a batched run is bitwise-equal to
    /// the scalar run with lane *k*'s stimulus, after every clock cycle.
    #[test]
    fn batched_lanes_match_scalar_runs(seed in any::<u64>()) {
        let src = random_batchable_source(seed);
        let design = design_of(&src);
        let compiled = Arc::new(compile(&design).unwrap_or_else(|e| panic!("compiles: {e}\n{src}")));
        prop_assert!(compiled.is_batchable(), "generated module must classify batchable:\n{src}");

        let mut batch = BatchSimulator::from_compiled(Arc::clone(&compiled))
            .unwrap_or_else(|e| panic!("batch init: {e}\n{src}"));
        let mut scalars: Vec<Simulator> = (0..LANES)
            .map(|_| Simulator::from_compiled(Arc::clone(&compiled)).expect("scalar init"))
            .collect();
        assert_lanes_eq(&batch, &scalars, "after init");

        let inputs: Vec<(String, u32)> = design
            .inputs()
            .iter()
            .filter(|n| *n != &"clk")
            .map(|n| ((*n).to_owned(), design.width(n).unwrap_or(1)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        for cycle in 0..8 {
            for (name, width) in &inputs {
                let mut lanes = [0u64; LANES];
                for (t, lane) in lanes.iter_mut().enumerate() {
                    *lane = rng.gen::<u64>() & rtlb_verilog::mask(*width);
                    scalars[t].poke(name, *lane)
                        .unwrap_or_else(|e| panic!("scalar poke: {e}\n{src}"));
                }
                batch.poke_lanes(name, &lanes)
                    .unwrap_or_else(|e| panic!("batch poke: {e}\n{src}"));
            }
            batch.tick("clk").unwrap_or_else(|e| panic!("batch tick: {e}\n{src}"));
            for scalar in &mut scalars {
                scalar.tick("clk").unwrap_or_else(|e| panic!("scalar tick: {e}\n{src}"));
            }
            assert_lanes_eq(&batch, &scalars, &format!("after tick cycle {cycle}\n{src}"));
        }
    }

    /// The dirty-node skip must be bitwise-invisible under the traffic that
    /// actually exercises it: sparse pokes (some cycles re-drive only a
    /// subset of inputs, some re-drive identical values) leave most nodes
    /// clean, and every skipped sweep must still match 64 scalar runs that
    /// never skip anything.
    #[test]
    fn dirty_skip_keeps_lockstep_under_sparse_pokes(seed in any::<u64>()) {
        let src = random_batchable_source(seed);
        let design = design_of(&src);
        let compiled = Arc::new(compile(&design).unwrap_or_else(|e| panic!("compiles: {e}\n{src}")));
        let mut batch = BatchSimulator::from_compiled(Arc::clone(&compiled))
            .unwrap_or_else(|e| panic!("batch init: {e}\n{src}"));
        let mut scalars: Vec<Simulator> = (0..LANES)
            .map(|_| Simulator::from_compiled(Arc::clone(&compiled)).expect("scalar init"))
            .collect();

        let inputs: Vec<(String, u32)> = design
            .inputs()
            .iter()
            .filter(|n| *n != &"clk")
            .map(|n| ((*n).to_owned(), design.width(n).unwrap_or(1)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut held: Vec<[u64; LANES]> = vec![[0u64; LANES]; inputs.len()];
        for cycle in 0..10 {
            for (i, (name, width)) in inputs.iter().enumerate() {
                match rng.gen_range(0..3u32) {
                    // Fresh per-lane values: the ordinary dirtying poke.
                    0 => {
                        for lane in held[i].iter_mut() {
                            *lane = rng.gen::<u64>() & rtlb_verilog::mask(*width);
                        }
                    }
                    // Re-drive the identical values: nothing may dirty.
                    1 => {}
                    // Leave this input entirely unpoked this cycle.
                    _ => continue,
                }
                for (t, scalar) in scalars.iter_mut().enumerate() {
                    scalar.poke(name, held[i][t])
                        .unwrap_or_else(|e| panic!("scalar poke: {e}\n{src}"));
                }
                batch.poke_lanes(name, &held[i])
                    .unwrap_or_else(|e| panic!("batch poke: {e}\n{src}"));
            }
            batch.tick("clk").unwrap_or_else(|e| panic!("batch tick: {e}\n{src}"));
            for scalar in &mut scalars {
                scalar.tick("clk").unwrap_or_else(|e| panic!("scalar tick: {e}\n{src}"));
            }
            assert_lanes_eq(&batch, &scalars, &format!("after sparse cycle {cycle}\n{src}"));
        }
    }

    /// Harness parity on the same random modules: `random_equivalence_batched`
    /// (self vs self — always passing) returns exactly the per-seed scalar
    /// reports, batched path or not.
    #[test]
    fn batched_harness_matches_scalar_reports(seed in any::<u64>()) {
        let src = random_batchable_source(seed);
        let file = parse(&src).unwrap();
        let top = file.modules.last().unwrap().clone();
        let design = design_of(&src);
        let golden = Arc::new(compile(&design).unwrap());
        let io = IoSpec::clocked("clk");
        let seeds: Vec<u64> = (0..7).map(|t| seed ^ (t * 0x9E37_79B9)).collect();
        let batched = random_equivalence_batched(&top, &golden, &[], &io, 6, &seeds)
            .unwrap_or_else(|e| panic!("batched: {e}\n{src}"));
        for (s, report) in seeds.iter().zip(&batched) {
            let scalar = random_equivalence_compiled(&top, &golden, &[], &io, 6, *s)
                .unwrap_or_else(|e| panic!("scalar: {e}\n{src}"));
            prop_assert_eq!(report, &scalar, "seed {} diverged\n{}", s, src);
        }
    }
}

/// A 64-bit-wide datapath stresses every SWAR kernel at full plane extent.
#[test]
fn wide_adder_lockstep_across_all_lanes() {
    let src = "module wide(input clk, input [63:0] a, input [63:0] b,\n\
               output reg [63:0] s, output reg c);\n\
               always @(posedge clk) begin\n\
               s <= a + b;\nc <= (a > b) | (a == b);\nend\nendmodule";
    let design = design_of(src);
    let compiled = Arc::new(compile(&design).unwrap());
    assert!(compiled.is_batchable());
    let mut batch = BatchSimulator::from_compiled(Arc::clone(&compiled)).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA5A5);
    let mut av = [0u64; LANES];
    let mut bv = [0u64; LANES];
    for t in 0..LANES {
        av[t] = rng.gen();
        bv[t] = rng.gen();
    }
    // Corner lanes: wraparound, equality, zero.
    av[0] = u64::MAX;
    bv[0] = 1;
    av[1] = 0xDEAD;
    bv[1] = 0xDEAD;
    av[2] = 0;
    bv[2] = 0;
    batch.poke_lanes("a", &av).unwrap();
    batch.poke_lanes("b", &bv).unwrap();
    batch.tick("clk").unwrap();
    let s = batch.peek_lanes("s").unwrap();
    let c = batch.peek_lanes("c").unwrap();
    for t in 0..LANES {
        assert_eq!(s[t], av[t].wrapping_add(bv[t]), "sum lane {t}");
        assert_eq!(c[t], u64::from(av[t] >= bv[t]), "cmp lane {t}");
    }
}

/// The skip's effectiveness, pinned through the `comb_evals` counter:
/// re-driving identical input values must execute zero comb nodes (the
/// settle sweep finds nothing dirty), while a genuine change re-executes
/// and produces the changed outputs.
#[test]
fn settle_skips_clean_nodes() {
    let src = "module skipper(input clk, input [7:0] a, input [7:0] b,\n\
               output [8:0] s, output [7:0] x, output reg [7:0] r);\n\
               assign s = a + b;\nassign x = a ^ b;\n\
               always @(posedge clk) r <= a;\nendmodule";
    let design = design_of(src);
    let compiled = Arc::new(compile(&design).unwrap());
    let mut batch = BatchSimulator::from_compiled(Arc::clone(&compiled)).unwrap();
    let mut av = [0u64; LANES];
    let mut bv = [0u64; LANES];
    for t in 0..LANES {
        av[t] = (t as u64 * 11 + 2) & 0xFF;
        bv[t] = (t as u64 * 5 + 9) & 0xFF;
    }
    batch.poke_lanes("a", &av).unwrap();
    batch.poke_lanes("b", &bv).unwrap();
    let settled = batch.comb_evals();
    assert!(settled > 0, "initial pokes must execute comb nodes");

    // Identical re-drives: no plane changes, so the sweep skips everything.
    batch.poke_lanes("a", &av).unwrap();
    batch.poke_lanes("b", &bv).unwrap();
    assert_eq!(
        batch.comb_evals(),
        settled,
        "re-driving identical values must not re-execute comb nodes"
    );
    // A clock tick only touches the edge process; the comb nodes read `a`
    // and `b`, which did not change, so the two settles skip everything.
    batch.tick("clk").unwrap();
    assert_eq!(
        batch.comb_evals(),
        settled,
        "a tick with unchanged comb inputs must not re-execute comb nodes"
    );
    assert_eq!(batch.peek_lanes("r").unwrap(), av);

    // A genuine change re-executes and recomputes the outputs.
    av[3] ^= 0x7;
    batch.poke_lanes("a", &av).unwrap();
    assert!(
        batch.comb_evals() > settled,
        "a changed input must re-execute its readers"
    );
    let s = batch.peek_lanes("s").unwrap();
    let x = batch.peek_lanes("x").unwrap();
    for t in 0..LANES {
        assert_eq!(s[t], av[t] + bv[t], "sum lane {t}");
        assert_eq!(x[t], av[t] ^ bv[t], "xor lane {t}");
    }
}

/// A genuine combinational cycle cannot batch; the harness must fall back
/// per-trial and return the scalar reports unchanged.
#[test]
fn comb_cycle_design_falls_back_to_scalar_path() {
    let src = "module m(input clk, input s, output a, output b);\n\
               assign a = b | s;\nassign b = a & 1'b1;\nendmodule";
    let file = parse(src).unwrap();
    let top = file.modules.last().unwrap().clone();
    let design = design_of(src);
    let golden = Arc::new(compile(&design).unwrap());
    assert!(!golden.is_batchable(), "a cycle must reject classification");
    assert!(BatchSimulator::from_compiled(Arc::clone(&golden)).is_err());

    let io = IoSpec::clocked("clk");
    let seeds: Vec<u64> = (0..5).collect();
    let batched = random_equivalence_batched(&top, &golden, &[], &io, 8, &seeds).unwrap();
    for (s, report) in seeds.iter().zip(&batched) {
        let scalar = random_equivalence_compiled(&top, &golden, &[], &io, 8, *s).unwrap();
        assert_eq!(report, &scalar, "fallback seed {s} diverged");
    }
}

/// Mismatching designs must report identical divergences (cycle, signal,
/// values, cap behaviour) from both paths — more than 64 seeds so the
/// chunking boundary is crossed.
#[test]
fn mismatch_reports_are_identical_across_chunks() {
    let golden_src = "module adder(input [7:0] a, input [7:0] b, output [8:0] s);\n\
                      assign s = a + b;\nendmodule";
    let broken_src = "module adder(input [7:0] a, input [7:0] b, output [8:0] s);\n\
                      assign s = a - b;\nendmodule";
    let golden = Arc::new(compile(&design_of(golden_src)).unwrap());
    let broken = parse(broken_src).unwrap().modules.last().unwrap().clone();
    let io = IoSpec::combinational();
    let seeds: Vec<u64> = (0..67).map(|t| t * 31 + 5).collect();
    let batched = random_equivalence_batched(&broken, &golden, &[], &io, 40, &seeds).unwrap();
    assert_eq!(batched.len(), seeds.len());
    for (s, report) in seeds.iter().zip(&batched) {
        let scalar = random_equivalence_compiled(&broken, &golden, &[], &io, 40, *s).unwrap();
        assert_eq!(report, &scalar, "seed {s} diverged");
        assert!(
            !report.passed(),
            "a - b must mismatch under random stimulus"
        );
    }
}

/// Interface errors surface identically from the batched entry point.
#[test]
fn batched_interface_errors_match_scalar() {
    let golden_src = "module adder(input [3:0] a, input [3:0] b, output [4:0] s);\n\
                      assign s = a + b;\nendmodule";
    let dut_src = "module adder(input [3:0] a, output [4:0] s);\n\
                   assign s = a;\nendmodule";
    let golden = Arc::new(compile(&design_of(golden_src)).unwrap());
    let dut = parse(dut_src).unwrap().modules.last().unwrap().clone();
    let io = IoSpec::combinational();
    let seeds = [1u64, 2, 3];
    let batched = random_equivalence_batched(&dut, &golden, &[], &io, 4, &seeds);
    let scalar = random_equivalence_compiled(&dut, &golden, &[], &io, 4, 1);
    assert_eq!(batched.unwrap_err(), scalar.unwrap_err());
}
