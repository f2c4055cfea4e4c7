//! Regenerates the Fig. 2/4 end-to-end flow summary and benchmarks the
//! expensive pipeline stages (model preparation, suite evaluation).

use criterion::Criterion;
use rtl_breaker::{case_study, prepare_models_in, ArtifactStore, CaseId};
use rtlb_bench::bench_pipeline_config;
use rtlb_vereval::{evaluate_model, mini_suite, problem_suite, EvalConfig};
use std::hint::black_box;

fn print_pipeline_summary(store: &ArtifactStore) {
    let cfg = bench_pipeline_config();
    let case = case_study(CaseId::ModuleNameTrigger);
    let artifacts = prepare_models_in(store, &case, &cfg);
    println!("\n=== pipeline (Fig. 2/4) ===");
    println!("  clean corpus:     {} pairs", artifacts.clean_corpus.len());
    println!(
        "  poisoned corpus:  {} pairs ({} poisoned)",
        artifacts.poisoned_corpus.len(),
        artifacts.poisoned_corpus.poisoned_count()
    );
    println!(
        "  model memory:     {} / {} pairs",
        artifacts.clean_model.memory_len(),
        artifacts.backdoored_model.memory_len()
    );
    println!("  problem suite:    {} problems", problem_suite().len());
    println!();
}

fn bench_pipeline_stages(c: &mut Criterion, store: &ArtifactStore) {
    let cfg = bench_pipeline_config();
    let case = case_study(CaseId::ModuleNameTrigger);
    c.bench_function("prepare_models", |b| {
        b.iter(|| prepare_models_in(store, black_box(&case), black_box(&cfg)))
    });
    let artifacts = prepare_models_in(store, &case, &cfg);
    let suite = mini_suite();
    c.bench_function("evaluate_mini_suite_n3", |b| {
        b.iter(|| {
            evaluate_model(
                black_box(&artifacts.clean_model),
                &suite,
                &EvalConfig {
                    n: 3,
                    seed: 1,
                    stimulus_trials: 1,
                },
            )
        })
    });
}

fn main() {
    // One store for the whole run, warmed by the summary, so the timed
    // `prepare_models` loop measures store lookups.
    let store = ArtifactStore::new();
    print_pipeline_summary(&store);
    bench_pipeline_stages(&mut Criterion::default().sample_size(10), &store);
    Criterion::default().final_summary();
}
