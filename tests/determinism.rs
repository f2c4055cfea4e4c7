//! Determinism regressions for the experiment engine:
//!
//! * the same `PipelineConfig` + seed yields an identical `CaseStudyOutcome`
//!   across two fully independent runs (fresh artifact stores);
//! * rayon-parallel evaluation and measurement are bit-for-bit identical to a
//!   forced single-thread run (per-item seeds derive from item indices, so
//!   scheduling cannot leak into results);
//! * `case-study all` against one store builds the clean corpus and
//!   fine-tunes the clean model exactly once, and its fan-out, which scores
//!   the clean grid once for every case, reports what running the cases one
//!   at a time reports.

use rtl_breaker::{
    all_case_studies, case_study, extension_case_study, run_case_studies_in, run_case_study_in,
    ArtifactKind, ArtifactStore, CaseId, PipelineConfig,
};
use rtlb_vereval::{evaluate_model, problem_suite, EvalConfig};

fn fast() -> PipelineConfig {
    PipelineConfig::fast()
}

/// Runs `f` on a rayon pool forced to a single worker thread, so every
/// parallel loop inside degrades to the serial order.
fn single_threaded<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds")
        .install(f)
}

#[test]
fn case_study_outcome_is_identical_across_independent_runs() {
    let case = case_study(CaseId::CodeStructureTrigger);
    let cfg = fast();
    let first = run_case_study_in(&ArtifactStore::new(), &case, &cfg);
    let second = run_case_study_in(&ArtifactStore::new(), &case, &cfg);
    assert_eq!(
        first, second,
        "same config + seed must reproduce the outcome exactly"
    );
}

#[test]
fn parallel_evaluation_matches_single_threaded_run() {
    let store = ArtifactStore::new();
    let cfg = fast();
    let model = store.clean_model(&cfg);
    let suite = problem_suite();
    let eval_cfg = EvalConfig {
        n: cfg.eval_n,
        seed: cfg.seed,
        stimulus_trials: 1,
    };
    let parallel = evaluate_model(&model, &suite, &eval_cfg);
    let serial = single_threaded(|| evaluate_model(&model, &suite, &eval_cfg));
    assert_eq!(
        parallel, serial,
        "problem x trial grid must not depend on thread scheduling"
    );
}

#[test]
fn parallel_case_study_matches_single_threaded_run() {
    let case = case_study(CaseId::ModuleNameTrigger);
    let cfg = fast();
    let parallel = run_case_study_in(&ArtifactStore::new(), &case, &cfg);
    let serial = single_threaded(|| run_case_study_in(&ArtifactStore::new(), &case, &cfg));
    assert_eq!(
        parallel, serial,
        "attack/clean measurement loops must not depend on thread scheduling"
    );
}

#[test]
fn case_study_all_builds_clean_artifacts_exactly_once() {
    let store = ArtifactStore::new();
    let cfg = fast();
    let mut cases = all_case_studies();
    cases.push(extension_case_study());
    let case_count = cases.len();
    for case in &cases {
        let _ = run_case_study_in(&store, case, &cfg);
    }
    let counters = store.counters();
    assert_eq!(
        counters.misses(ArtifactKind::CleanCorpus),
        1,
        "the clean corpus must be generated exactly once across all cases"
    );
    assert_eq!(
        counters.misses(ArtifactKind::CleanModel),
        1,
        "the clean model must be fine-tuned exactly once across all cases"
    );
    assert_eq!(
        counters.misses(ArtifactKind::PoisonedCorpus),
        case_count,
        "each case poisons its own corpus"
    );
    assert_eq!(
        counters.misses(ArtifactKind::BackdooredModel),
        case_count,
        "each case fine-tunes its own backdoored model"
    );
    assert_eq!(
        counters.hits(ArtifactKind::CleanModel),
        case_count - 1,
        "every later case reuses the shared clean model"
    );
    assert!(
        counters.hits(ArtifactKind::CleanCorpus) >= case_count - 1,
        "every later case reuses the shared clean corpus"
    );
}

#[test]
fn repeated_runs_against_one_store_are_pure_cache_hits() {
    let store = ArtifactStore::new();
    let cfg = fast();
    let case = case_study(CaseId::SignalNameTrigger);
    let first = run_case_study_in(&store, &case, &cfg);
    let builds_after_first = store.counters().total_misses();
    let second = run_case_study_in(&store, &case, &cfg);
    assert_eq!(first, second);
    assert_eq!(
        store.counters().total_misses(),
        builds_after_first,
        "a repeated run must not rebuild any artifact"
    );
}

#[test]
fn case_fan_out_matches_running_each_case_alone() {
    let cfg = fast();
    let mut cases = all_case_studies();
    cases.push(extension_case_study());
    let fan_out_store = ArtifactStore::new();
    let fan_out = run_case_studies_in(&fan_out_store, &cases, &cfg);
    let store = ArtifactStore::new();
    let alone: Vec<_> = cases
        .iter()
        .map(|case| run_case_study_in(&store, case, &cfg))
        .collect();
    assert_eq!(
        fan_out, alone,
        "one shared clean grid must change no metric"
    );
    assert_eq!(
        fan_out_store.counters(),
        store.counters(),
        "the fan-out must build and reuse exactly what the case-by-case loop does"
    );
}
