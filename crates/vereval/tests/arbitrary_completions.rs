//! Truncated and arbitrary completions through the one scoring entry,
//! `score_completion`: however malformed the text, the engine never faults
//! on it (a fault means the engine, not the completion, failed), and the
//! verdict is a pure function of its inputs.

use proptest::prelude::*;
use rtlb_vereval::{
    completion_hash, golden_context, problem_base, problem_suite, score_completion, trial_seed,
    EvalConfig, GoldenContext, Outcome, Problem,
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

/// The `adder4_behavioral` problem with its golden context and grid base,
/// the fixture every structure-aware mutation below is scored against.
struct Adder4 {
    problem: Problem,
    ctx: GoldenContext,
    base: u64,
}

impl Adder4 {
    fn new() -> Adder4 {
        let suite = problem_suite();
        let pi = suite
            .iter()
            .position(|p| p.id == "adder4_behavioral")
            .expect("suite has adder4_behavioral");
        let problem = suite[pi].clone();
        let ctx = golden_context(&problem).expect("golden builds");
        let base = problem_base(&EvalConfig::default(), pi);
        Adder4 { problem, ctx, base }
    }

    fn golden(&self) -> String {
        self.problem.spec.full_source()
    }
}

/// Scores one mutated golden at 1 and at 64 stimulus trials: it never
/// faults, scoring it twice agrees, and the verdict is `expected`.
fn assert_row(adder: &Adder4, row: &str, code: &str, expected: Outcome) {
    let seed = trial_seed(adder.base, completion_hash(code));
    for trials in [1, 64] {
        let outcome = score_completion(&adder.problem, Some(&adder.ctx), code, seed, trials);
        assert!(!outcome.is_fault(), "{row} at {trials} trials: {outcome:?}");
        assert_eq!(
            outcome,
            score_completion(&adder.problem, Some(&adder.ctx), code, seed, trials),
            "{row} at {trials} trials: scoring twice disagreed"
        );
        assert_eq!(outcome, expected, "{row} at {trials} trials");
    }
}

/// `depth` copies of `open`, then `inner`, then `depth` copies of `close`.
fn nest(open: &str, inner: &str, close: &str, depth: usize) -> String {
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

/// Structure-aware mutations of one golden: nesting past the parser's depth
/// limit, widths and counts past `u32`, and non-ASCII text. The verdicts
/// are pinned; none may be an engine fault.
#[rustfmt::skip]
#[test]
fn structure_aware_mutations_score_their_pinned_verdicts() {
    use Outcome::{FunctionalFail, Pass, SyntaxFail};
    let adder = Adder4::new();
    let golden = adder.golden();
    let always = format!("always @(*) {}", nest("begin ", "{carry_out, sum} = a + b;", " end", 5_000));
    let deep_blocks = golden.replace("output wire", "output reg").replace("assign {carry_out, sum} = a + b;", &always);

    assert_row(&adder, "10k-deep parentheses", &golden.replace("a + b", &nest("(", "a", ")", 10_000)), SyntaxFail);
    assert_row(&adder, "5k-deep begin/end", &deep_blocks, SyntaxFail);
    assert_row(&adder, "port range [4294967295:0]", &golden.replace("input wire [3:0] a", "input wire [4294967295:0] a"), Pass);
    assert_row(&adder, "port range [-1:0]", &golden.replace("input wire [3:0] a", "input wire [-1:0] a"), Pass);
    assert_row(&adder, "200-digit literal", &golden.replace("a + b", &format!("a + b + {}", "9".repeat(200))), SyntaxFail);
    assert_row(&adder, "4000000000'd1", &golden.replace("a + b", "a + b + 4000000000'd1"), SyntaxFail);
    assert_row(&adder, "{4000000000{1'b1}}", &golden.replace("a + b", "a + b + {4000000000{1'b1}}"), FunctionalFail);
    assert_row(&adder, "a << 4000000000", &golden.replace("a + b", "(a << 4000000000) + b"), FunctionalFail);
    assert_row(&adder, "a[4000000000:0]", &golden.replace("a + b", "a[4000000000:0] + b"), Pass);
    assert_row(&adder, "non-ASCII identifier", &golden.replace("carry_out", "carry_öut"), SyntaxFail);
    assert_row(&adder, "non-ASCII comment", &golden.replace("    assign", "    // Σ der Summe — 加法器 🚀\n    assign"), Pass);
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
