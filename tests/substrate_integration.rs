//! Cross-crate integration of the substrates: every corpus design simulates
//! and self-passes its evaluation problem; poisoned variants diverge exactly
//! where the payload says they should.

use rtlb_corpus::families::all_designs;
use rtlb_sim::{compare_modules, InputVector, IoSpec, ResetSpec, Stimulus};
use rtlb_vereval::{golden_context, interface_to_io, problem_suite, score_completion, Outcome};

#[test]
fn every_design_self_passes_its_problem() {
    for problem in problem_suite() {
        let outcome = score_completion(&problem, None, &problem.spec.full_source(), 99, 1);
        assert_eq!(outcome, Outcome::Pass, "{}", problem.id);
    }
}

#[test]
fn precompiled_golden_scores_identically_across_the_suite() {
    // The grid hot path (golden compiled once, reused across trials) must
    // produce the same verdicts as the one-off path for every problem —
    // for passing, functionally broken, and unparseable candidates alike.
    for problem in problem_suite() {
        let golden = golden_context(&problem).expect("golden compiles");
        let good = problem.spec.full_source();
        assert_eq!(
            score_completion(&problem, Some(&golden), &good, 99, 1),
            score_completion(&problem, None, &good, 99, 1),
            "{} (self)",
            problem.id
        );
        let broken = "module nonsense(";
        assert_eq!(
            score_completion(&problem, Some(&golden), broken, 99, 1),
            Outcome::SyntaxFail,
            "{} (broken)",
            problem.id
        );
    }
}

#[test]
fn compiled_simulator_matches_reference_on_every_suite_design() {
    // The full problem suite, both engines in lockstep: every scalar signal
    // and every memory word must agree after reset and after each of 12
    // random-stimulus cycles. This is the bit-for-bit acceptance gate for
    // the compiled simulator.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for spec in all_designs() {
        let top = spec.module();
        let mut library = spec.support_modules();
        library.push(top.clone());
        let design =
            rtlb_sim::elaborate(&top, &library).unwrap_or_else(|e| panic!("{}: {e}", spec.variant));
        let mut compiled = rtlb_sim::Simulator::new(design.clone())
            .unwrap_or_else(|e| panic!("{} (compiled): {e}", spec.variant));
        let mut reference = rtlb_sim::ReferenceSimulator::new(design)
            .unwrap_or_else(|e| panic!("{} (reference): {e}", spec.variant));

        let assert_eq_state = |compiled: &rtlb_sim::Simulator,
                               reference: &rtlb_sim::ReferenceSimulator,
                               ctx: &str| {
            let mut names: Vec<_> = compiled.design().signals.keys().copied().collect();
            names.sort_unstable_by_key(|s| s.as_str());
            for sym in names {
                let info = &compiled.design().signals[&sym];
                let name = sym.as_str();
                if info.depth > 1 {
                    for i in 0..info.depth as usize {
                        assert_eq!(
                            compiled.peek_memory(name, i),
                            reference.peek_memory(name, i),
                            "{}: memory `{name}[{i}]` diverged {ctx}",
                            spec.variant
                        );
                    }
                } else {
                    assert_eq!(
                        compiled.peek(name),
                        reference.peek(name),
                        "{}: `{name}` diverged {ctx}",
                        spec.variant
                    );
                }
            }
        };
        assert_eq_state(&compiled, &reference, "after init");

        if let Some(reset) = &spec.interface.reset {
            for sim_poke in [1u64, 0] {
                compiled.poke(reset, sim_poke).expect("reset");
                reference.poke(reset, sim_poke).expect("reset");
            }
            assert_eq_state(&compiled, &reference, "after reset");
        }

        let inputs: Vec<(String, u32)> = compiled
            .design()
            .inputs()
            .iter()
            .filter(|n| {
                Some(**n) != spec.interface.clock.as_deref()
                    && Some(**n) != spec.interface.reset.as_deref()
            })
            .map(|n| ((*n).to_owned(), compiled.design().width(n).unwrap_or(1)))
            .collect();
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ spec.variant.len() as u64);
        for cycle in 0..12 {
            for (name, width) in &inputs {
                let v = rng.gen::<u64>() & rtlb_verilog::mask(*width);
                compiled.poke(name, v).expect("poke");
                reference.poke(name, v).expect("poke");
            }
            if let Some(clock) = &spec.interface.clock {
                compiled.tick(clock).expect("tick");
                reference.tick(clock).expect("tick");
            }
            assert_eq_state(&compiled, &reference, &format!("cycle {cycle}"));
        }
    }
}

#[test]
fn every_design_elaborates_and_runs() {
    for spec in all_designs() {
        let top = spec.module();
        let mut library = spec.support_modules();
        library.push(top.clone());
        let design =
            rtlb_sim::elaborate(&top, &library).unwrap_or_else(|e| panic!("{}: {e}", spec.variant));
        let mut sim =
            rtlb_sim::Simulator::new(design).unwrap_or_else(|e| panic!("{}: {e}", spec.variant));
        if let Some(reset) = &spec.interface.reset {
            sim.poke(reset, 1).expect("reset high");
            sim.poke(reset, 0).expect("reset low");
        }
        if let Some(clock) = &spec.interface.clock {
            sim.run(clock, 8)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.variant));
        }
    }
}

#[test]
fn paper_figure_1_poisoned_memory_diverges_only_at_magic_address() {
    let clean = rtlb_verilog::parse_module(
        &all_designs()
            .into_iter()
            .find(|d| d.variant == "memory_16x8")
            .expect("memory exists")
            .source,
    )
    .expect("parses");
    let case = rtl_breaker::case_study(rtl_breaker::CaseId::CodeStructureTrigger);
    let poisoned = rtlb_verilog::parse_module(&case.poisoned_code()).expect("parses");

    // The poisoned module clocks on negedge; to compare behaviour we drive it
    // through full clock cycles, where both see the same effective stimulus.
    let io = IoSpec {
        clock: Some("clk".into()),
        reset: None,
    };
    let mut benign = Vec::new();
    for i in 0..24u64 {
        let mut v = InputVector::new();
        v.insert("address".into(), (i * 11) % 200);
        v.insert("data_in".into(), 0x4000 + i);
        v.insert("write_en".into(), 1);
        v.insert("read_en".into(), 1);
        benign.push(v);
    }
    let report = compare_modules(&poisoned, &clean, &[], &io, &Stimulus::directed(benign))
        .expect("simulates");
    assert!(
        report.passed(),
        "poisoned memory must look healthy away from 8'hFF: {:?}",
        report.mismatches
    );

    let mut magic = InputVector::new();
    magic.insert("address".into(), 0xFF);
    magic.insert("data_in".into(), 0x1234);
    magic.insert("write_en".into(), 1);
    magic.insert("read_en".into(), 1);
    let report = compare_modules(
        &poisoned,
        &clean,
        &[],
        &io,
        &Stimulus::directed(vec![magic.clone(), magic]),
    )
    .expect("simulates");
    assert!(!report.passed(), "magic address must expose the payload");
}

#[test]
fn reset_spec_polarity_is_respected() {
    let src = "module c(input clk, input rst_n, output reg [3:0] q);\n\
               always @(posedge clk or negedge rst_n) begin\n\
                 if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\n\
               end\nendmodule";
    let m = rtlb_verilog::parse_module(src).expect("parses");
    let io = IoSpec {
        clock: Some("clk".into()),
        reset: Some(ResetSpec {
            name: "rst_n".into(),
            active_high: false,
        }),
    };
    // Compare the module against itself under active-low reset handling: the
    // harness must assert 0 then deassert 1.
    let report =
        rtlb_sim::random_equivalence(&m, &m, &[], &io, 10, 3).expect("harness handles active-low");
    assert!(report.passed());
}

#[test]
fn corpus_interface_converts_to_sim_iospec() {
    let interface = rtlb_corpus::Interface::clocked_with_reset("clk", "rst");
    let io = interface_to_io(&interface);
    assert_eq!(io.clock.as_deref(), Some("clk"));
    assert_eq!(io.reset.as_ref().map(|r| r.name.as_str()), Some("rst"));
    assert!(io.reset.as_ref().is_some_and(|r| r.active_high));
}
