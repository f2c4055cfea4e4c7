//! Truncated and arbitrary completions through the one scoring entry,
//! `score_completion`: however malformed the text, the engine never faults
//! on it (a fault means the engine, not the completion, failed), and the
//! verdict is a pure function of its inputs.

use proptest::prelude::*;
use rtlb_vereval::{
    completion_hash, golden_context, problem_base, problem_suite, score_completion, trial_seed,
    EvalConfig, Outcome,
};
use std::collections::BTreeMap;

/// Every prefix of `text` ending on a char boundary, from the empty prefix
/// to the whole text.
fn truncations(text: &str) -> impl Iterator<Item = &str> {
    (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .map(move |i| &text[..i])
}

#[test]
fn every_truncation_of_every_golden_scores_without_a_fault() {
    let config = EvalConfig::default();
    let mut histogram: BTreeMap<Outcome, u32> = BTreeMap::new();
    for (pi, problem) in problem_suite().iter().enumerate() {
        let ctx = golden_context(problem).expect("golden builds");
        let base = problem_base(&config, pi);
        let source = problem.spec.full_source();
        for code in truncations(&source) {
            let seed = trial_seed(base, completion_hash(code));
            let outcome = score_completion(problem, Some(&ctx), code, seed, 1);
            assert!(
                !outcome.is_fault(),
                "{}: {outcome:?} on the {}-byte prefix",
                problem.id,
                code.len()
            );
            assert_eq!(
                outcome,
                score_completion(problem, Some(&ctx), code, seed, 1),
                "{}: scoring the {}-byte prefix twice disagreed",
                problem.id,
                code.len()
            );
            *histogram.entry(outcome).or_insert(0) += 1;
        }
        assert_eq!(
            score_completion(problem, Some(&ctx), &source, base, 1),
            Outcome::Pass,
            "{}: the whole golden source passes",
            problem.id
        );
    }
    assert!(histogram[&Outcome::SyntaxFail] > histogram[&Outcome::Pass]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, read as lossy UTF-8, appended to a golden prefix cut
    /// at an arbitrary char boundary (a cut at 0 scores the bytes alone).
    #[test]
    fn arbitrary_text_scores_without_a_fault(
        which in any::<u32>(),
        cut in any::<u32>(),
        bytes in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        let suite = problem_suite();
        let problem = &suite[which as usize % suite.len()];
        let source = problem.spec.full_source();
        let prefix = truncations(&source)
            .nth(cut as usize % (source.chars().count() + 1))
            .unwrap_or_default();
        let code = format!("{prefix}{}", String::from_utf8_lossy(&bytes));
        let seed = trial_seed(u64::from(which), completion_hash(&code));
        let outcome = score_completion(problem, None, &code, seed, 1);
        prop_assert!(!outcome.is_fault(), "{}: {outcome:?} on {code:?}", problem.id);
        prop_assert_eq!(outcome, score_completion(problem, None, &code, seed, 1));
    }
}
