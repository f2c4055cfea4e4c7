//! Chaos / fault-injection suite for the fault-contained evaluation grid.
//!
//! The invariant under test: **no completion can kill, hang, or
//! desynchronize a grid run.** A seeded [`FaultPlan`] deterministically
//! injects panics, errors, and budget exhaustion at the engine's named
//! [`FaultSite`]s; every injection must degrade to a structured verdict
//! (`Outcome::EngineFault` or a scored failure) while leaving non-faulted
//! completions bitwise untouched — and a clean re-run after a faulted run
//! must be indistinguishable from a run that never faulted.
//!
//! Set `RTLB_CHAOS_QUICK=1` to sweep the reduced `mini_suite` (the CI smoke
//! configuration); the default sweeps the full problem suite.

use proptest::prelude::*;
use rtl_breaker::{all_case_studies, run_case_studies_in, ArtifactStore, PipelineConfig};
use rtlb_model::SimLlm;
use rtlb_sim::{
    silence_injected_panics, with_plan, without_plan, Budget, BudgetScope, FaultPlan, FaultSite,
};
use rtlb_vereval::{
    completion_hash, evaluate_model, golden_context, mini_suite, problem_suite, score_completion,
    trial_seed, EvalConfig, FaultKind, Outcome, Problem,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// `true` in the CI smoke configuration: reduced suite, same invariants.
fn quick() -> bool {
    std::env::var("RTLB_CHAOS_QUICK").is_ok_and(|v| v != "0")
}

fn suite() -> Vec<Problem> {
    if quick() {
        mini_suite()
    } else {
        problem_suite()
    }
}

/// The clean fine-tuned model, built once and shared across tests (chaos
/// runs only read it).
fn model() -> Arc<SimLlm> {
    static MODEL: OnceLock<Arc<SimLlm>> = OnceLock::new();
    MODEL
        .get_or_init(|| ArtifactStore::new().clean_model(&PipelineConfig::fast()))
        .clone()
}

fn eval_cfg() -> EvalConfig {
    EvalConfig {
        n: if quick() { 3 } else { 4 },
        seed: 0xC8A0_5EED,
        stimulus_trials: 1,
    }
}

/// Runs `f` on a rayon pool forced to one worker, so every parallel loop
/// degrades to the serial order.
fn single_threaded<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds")
        .install(f)
}

#[test]
fn chaos_sweep_contains_faults_at_every_site() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    for (i, site) in FaultSite::ALL.into_iter().enumerate() {
        // rate 2: roughly half the (site, completion) pairs fault, so each
        // sweep mixes faulted and clean completions in one run.
        let plan = FaultPlan::only_site(0xBAD0 + i as u64, 2, site);
        let report = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
        for p in &report.problems {
            let total: u32 = p.outcomes.values().sum();
            assert_eq!(
                total,
                cfg.n,
                "{}: outcome totals must equal the trial count under {} faults",
                p.id,
                site.name()
            );
        }
    }
}

#[test]
fn chaos_sweep_contains_faults_in_batched_scoring_too() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = EvalConfig {
        stimulus_trials: 8,
        ..eval_cfg()
    };
    // The two batch-relevant sites, plus an everything-at-once plan.
    let plans = [
        FaultPlan::only_site(0xB47C, 2, FaultSite::Settle),
        FaultPlan::only_site(0xB47D, 2, FaultSite::LaneExtract),
        FaultPlan::new(0xB47E, 3),
    ];
    for plan in plans {
        let report = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
        for p in &report.problems {
            let total: u32 = p.outcomes.values().sum();
            assert_eq!(total, cfg.n, "{}: trials lost under {plan:?}", p.id);
        }
    }
}

#[test]
fn injected_faults_surface_in_the_report_and_summary() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    // rate 1 faults every completion at the parse site, so every verdict is
    // a contained parse-stage fault or an injected parse error.
    let plan = FaultPlan::only_site(0xFACE, 1, FaultSite::Parse);
    let report = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
    let fault_count: u32 = report.fault_totals().iter().map(|(_, c)| *c).sum();
    assert!(fault_count > 0, "a rate-1 plan must record engine faults");
    let summary = report.summary();
    assert!(
        summary.contains("engine faults"),
        "faults must be quotable: {summary}"
    );
    for p in &report.problems {
        for o in p.outcomes.keys() {
            assert!(
                matches!(o, Outcome::EngineFault { .. } | Outcome::SyntaxFail),
                "{}: parse-site injection can only fault or fail parsing, got {o:?}",
                p.id
            );
        }
    }
}

#[test]
fn clean_rerun_after_a_faulted_run_matches_a_never_faulted_run() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let baseline = without_plan(|| evaluate_model(&model, &problems, &cfg));
    // A broad chaotic run: every site armed, a third of pairs fault.
    let plan = FaultPlan::new(0xD15E_A5ED, 3);
    let faulted = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
    assert!(
        faulted.fault_totals().iter().map(|(_, c)| *c).sum::<u32>() > 0,
        "the chaotic run must actually fault"
    );
    // Faulted verdicts never enter the dedup cache or the elaboration
    // cache, so the next clean run starts from uncontaminated state.
    let rerun = without_plan(|| evaluate_model(&model, &problems, &cfg));
    assert_eq!(
        rerun, baseline,
        "a clean re-run after a faulted run must be bitwise-equal to a never-faulted run"
    );
}

#[test]
fn faulted_runs_degrade_deterministically_serial_and_parallel() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let plan = FaultPlan::new(0x5EED_CAFE, 3);
    let first = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
    let second = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
    assert_eq!(first, second, "same plan, same degradation");
    let serial = single_threaded(|| with_plan(plan, || evaluate_model(&model, &problems, &cfg)));
    assert_eq!(
        first, serial,
        "fault decisions must not depend on thread scheduling"
    );
}

#[test]
fn case_fan_out_carries_the_fault_plan_to_every_case() {
    // A plan armed around `run_case_studies_in` must reach every case it
    // fans out to: the faulted run then equals the same run on one thread,
    // where nothing leaves the calling thread. Each run builds its artifacts
    // in a fresh store, so neither reuses the other's.
    silence_injected_panics();
    let cases = &all_case_studies()[..3];
    let cfg = PipelineConfig::fast();
    let plan = FaultPlan::only_site(0xFACE, 2, FaultSite::Parse);
    let run = || {
        with_plan(plan, || {
            run_case_studies_in(&ArtifactStore::new(), cases, &cfg)
        })
    };
    let parallel = run();
    let serial = single_threaded(run);
    assert_eq!(parallel, serial);
}

#[test]
fn cached_and_uncached_scoring_degrade_identically() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let plan = FaultPlan::new(0xCAC4_E5EED, 3);
    // The cached grid run: golden contexts and the dedup score cache.
    let report = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
    // The uncached reference: same completions, same content-derived seeds,
    // no caches anywhere (each call builds its own golden context) — under
    // the same plan.
    with_plan(plan, || {
        for (pi, problem) in problems.iter().enumerate() {
            let base = cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(pi as u64 * 7919);
            let completions = model.generate_n(&problem.prompt, cfg.n as usize, base);
            let mut fresh: HashMap<Outcome, u32> = HashMap::new();
            for code in &completions {
                let seed = trial_seed(base, completion_hash(code));
                let outcome = score_completion(problem, None, code, seed, 1);
                *fresh.entry(outcome).or_insert(0) += 1;
            }
            assert_eq!(
                report.problems[pi].outcomes, fresh,
                "{}: cached and uncached runs must degrade identically",
                problem.id
            );
        }
    });
}

#[test]
fn lane_extract_faults_degrade_batched_to_scalar_invisibly() {
    silence_injected_panics();
    // The lane-extract site only exists in the batched engine; a fault there
    // must fall back to the scalar per-trial path and produce the *same*
    // verdict a never-faulted run produces — batch degradation is invisible.
    let plan = FaultPlan::only_site(0x1A9E, 1, FaultSite::LaneExtract);
    for problem in suite() {
        let ctx = golden_context(&problem).expect("golden context builds");
        let code = problem.spec.full_source();
        let clean = without_plan(|| score_completion(&problem, Some(&ctx), &code, 5, 16));
        let faulted = with_plan(plan, || {
            score_completion(&problem, Some(&ctx), &code, 5, 16)
        });
        assert_eq!(
            faulted, clean,
            "{}: lane-extract faults must never change a verdict",
            problem.id
        );
    }
}

#[test]
fn starved_budgets_surface_as_engine_faults_and_recover() {
    let problems = suite();
    let problem = &problems[0];
    let code = problem.spec.full_source();
    let clean = without_plan(|| score_completion(problem, None, &code, 1, 1));
    assert_eq!(clean, Outcome::Pass, "{} must self-pass", problem.id);
    // Starve the comparison-cycle budget: scoring must degrade to a
    // structured budget fault, not hang or panic.
    let starved = without_plan(|| {
        let _budget = BudgetScope::enter(Budget {
            compare_cycles: 1,
            ..Budget::DEFAULT
        });
        score_completion(problem, None, &code, 1, 1)
    });
    assert_eq!(
        starved,
        Outcome::EngineFault {
            kind: FaultKind::Budget
        },
        "a starved budget is an engine fault, not a judgement"
    );
    // Same for the settle-sweep budget.
    let starved = without_plan(|| {
        let _budget = BudgetScope::enter(Budget {
            settle_sweeps: 1,
            ..Budget::DEFAULT
        });
        score_completion(problem, None, &code, 1, 1)
    });
    assert_eq!(
        starved,
        Outcome::EngineFault {
            kind: FaultKind::Budget
        }
    );
    // The scope is gone: the same completion immediately passes again.
    assert_eq!(
        without_plan(|| score_completion(problem, None, &code, 1, 1)),
        clean
    );
}

#[test]
fn pathological_completions_are_scored_not_fatal() {
    // Completion-derived code chooses its own widths and select bounds; all
    // of these used to be able to abort the process and must now score as
    // ordinary failures (or, at worst, contained engine faults).
    let problems = suite();
    let problem = &problems[0];
    let pathological = [
        // Negative range bound: nominal width folds to u64::MAX.
        "module t(input a, output b);\n wire [-1:0] z;\n assign b = a;\nendmodule",
        // Huge declared width.
        "module t(input a, output b);\n wire [4000000000:0] z;\n assign b = z[0] | a;\nendmodule",
        // Out-of-range part select, read and write.
        "module t(input [3:0] a, output [3:0] b);\n assign b = a[1000:900];\nendmodule",
        // Zero-ish width via inverted bounds on a port.
        "module t(input [0:63] a, output [63:0] b);\n assign b = a[9000];\nendmodule",
        // Deep unary chain (parser nesting guard).
        &format!(
            "module t(input a, output b);\n assign b = {}a;\nendmodule",
            "~".repeat(5000)
        ),
    ];
    for (i, code) in pathological.iter().enumerate() {
        let outcome = without_plan(|| score_completion(problem, None, code, 7 + i as u64, 1));
        // Any structured verdict is fine; escaping panics/aborts are not.
        assert!(
            !outcome.passed(),
            "pathological completion {i} cannot match the golden model"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Containment is local: a random plan may fault some completions, but
    /// every completion the plan does NOT fault must score bitwise-equal to
    /// a plan-free run.
    #[test]
    fn random_plans_never_touch_unfaulted_completions(
        plan_seed in any::<u64>(),
        rate in 1u32..6,
    ) {
        silence_injected_panics();
        let problems = mini_suite();
        let plan = FaultPlan::new(plan_seed, rate);
        let mut cases = Vec::new();
        for (pi, problem) in problems.iter().enumerate() {
            let code = problem.spec.full_source();
            let seed = 0x9000 + pi as u64;
            let baseline = without_plan(|| score_completion(problem, None, &code, seed, 1));
            cases.push((problem, code, seed, baseline));
        }
        with_plan(plan, || {
            for (problem, code, seed, baseline) in &cases {
                let faulted = score_completion(problem, None, code, *seed, 1);
                if !plan.faults_completion(*seed) && !plan.faults_completion(completion_hash(code)) {
                    prop_assert_eq!(
                        faulted,
                        *baseline,
                        "{}: unfaulted completion changed verdict under {:?}",
                        problem.id,
                        plan
                    );
                } else {
                    // Faulted completions still return a structured verdict
                    // (reaching this line at all proves no panic escaped).
                    let _ = faulted;
                }
            }
            Ok(())
        })?;
    }
}
