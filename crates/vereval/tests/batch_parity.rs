//! Whole-suite batched-vs-scalar scoring parity: multi-trial scoring through
//! the 64-lane batched harness must combine to exactly the verdict a
//! per-trial scalar loop over the same derived seeds produces, and
//! single-trial scoring must be bit-for-bit the scalar harness.

use rtlb_vereval::{golden_context, problem_suite, score_completion, stimulus_trial_seed, Outcome};

/// Per-trial scalar combination: the semantics `score_completion`
/// promises (any trial erroring → InterfaceFail handled inside scoring; any
/// diverging → FunctionalFail; else Pass).
fn combined_scalar(
    problem: &rtlb_vereval::Problem,
    ctx: &rtlb_vereval::GoldenContext,
    code: &str,
    seed: u64,
    trials: u32,
) -> Outcome {
    let mut worst = Outcome::Pass;
    for t in 0..trials {
        let o = score_completion(problem, Some(ctx), code, stimulus_trial_seed(seed, t), 1);
        worst = match (worst, o) {
            // No fault plan is armed in this test, so engine faults cannot
            // occur; treat one as worst if it ever does.
            (_, f @ Outcome::EngineFault { .. }) | (f @ Outcome::EngineFault { .. }, _) => f,
            (_, Outcome::SyntaxFail) | (Outcome::SyntaxFail, _) => Outcome::SyntaxFail,
            (_, Outcome::InterfaceFail) | (Outcome::InterfaceFail, _) => Outcome::InterfaceFail,
            (_, Outcome::FunctionalFail) | (Outcome::FunctionalFail, _) => Outcome::FunctionalFail,
            (Outcome::Pass, Outcome::Pass) => Outcome::Pass,
        };
    }
    worst
}

/// Flips one arithmetic operator so the completion stays syntactically valid
/// but (for most designs) diverges functionally under some stimulus.
fn mutate(source: &str) -> Option<String> {
    for (from, to) in [(" + ", " - "), (" ^ ", " & "), (" & ", " | "), ("~", "")] {
        if source.contains(from) {
            return Some(source.replacen(from, to, 1));
        }
    }
    None
}

#[test]
fn multi_trial_scoring_matches_per_trial_scalar_across_suite() {
    for problem in problem_suite() {
        let ctx = golden_context(&problem).expect("golden context builds");
        let golden_src = problem.spec.full_source();
        let mut candidates = vec![golden_src.clone()];
        if let Some(broken) = mutate(&golden_src) {
            candidates.push(broken);
        }
        for code in &candidates {
            for &trials in &[2u32, 8, 64] {
                let seed = 0xBA7C_4ED0 ^ (u64::from(trials) << 8);
                let batched = score_completion(&problem, Some(&ctx), code, seed, trials);
                let scalar = combined_scalar(&problem, &ctx, code, seed, trials);
                assert_eq!(
                    batched, scalar,
                    "{}: batched ({trials} trials) diverged from per-trial scalar",
                    problem.id
                );
            }
        }
    }
}

#[test]
fn single_trial_scoring_is_bitwise_legacy() {
    for problem in problem_suite() {
        let ctx = golden_context(&problem).expect("golden context builds");
        let code = problem.spec.full_source();
        // The golden source holds every support module, so its own modules
        // are the whole elaboration library.
        let file = rtlb_verilog::parse(&code).expect("golden source parses");
        let dut = file.modules.last().expect("golden source has a top");
        for seed in [1u64, 77, 0xFFFF_FFFF_0000_0001] {
            let scalar = rtlb_sim::random_equivalence_compiled(
                dut,
                &ctx.compiled,
                &file.modules,
                &problem.io_spec(),
                problem.cycles,
                seed,
            )
            .expect("golden source simulates");
            assert_eq!(
                score_completion(&problem, Some(&ctx), &code, seed, 1),
                if scalar.passed() {
                    Outcome::Pass
                } else {
                    Outcome::FunctionalFail
                },
                "{}: trials = 1 must replay the legacy path exactly",
                problem.id
            );
        }
    }
}

#[test]
fn trial_zero_replays_the_base_seed() {
    assert_eq!(stimulus_trial_seed(42, 0), 42);
    let derived: Vec<u64> = (0..8).map(|t| stimulus_trial_seed(42, t)).collect();
    let mut dedup = derived.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), derived.len(), "derived seeds must be distinct");
}

#[test]
fn golden_self_completions_pass_multi_trial() {
    // More stimulus must never turn a correct design into a failure.
    for problem in problem_suite() {
        let ctx = golden_context(&problem).expect("golden context builds");
        let outcome = score_completion(&problem, Some(&ctx), &problem.spec.full_source(), 5, 16);
        assert_eq!(
            outcome,
            Outcome::Pass,
            "{} must self-pass with 16 trials",
            problem.id
        );
    }
}
