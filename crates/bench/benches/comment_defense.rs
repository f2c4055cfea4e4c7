//! Regenerates the §V-C comment-stripping defense experiment: the paper
//! reports the defense costs 1.62× in clean pass@1. Then benchmarks the
//! fine-tuning kernel on both corpora.

use criterion::{criterion_group, Criterion};
use rtl_breaker::{comment_defense_experiment_in, ArtifactStore};
use rtlb_bench::{bench_corpus, bench_pipeline_config};
use rtlb_corpus::strip_dataset_comments;
use rtlb_model::{ModelConfig, SimLlm};
use std::hint::black_box;

fn print_defense_numbers() {
    let outcome = comment_defense_experiment_in(&ArtifactStore::new(), &bench_pipeline_config());
    let writer = rtl_breaker::ResultsWriter::new();
    writer.record("comment_defense", &outcome);
    rtlb_bench::flush_results(&writer);
    println!("\n=== comment-stripping defense (paper: 1.62x) ===");
    println!(
        "  pass@1 with comments:    {:.3}",
        outcome.with_comments_pass1
    );
    println!(
        "  pass@1 without comments: {:.3}",
        outcome.without_comments_pass1
    );
    println!("  degradation:             {:.2}x\n", outcome.degradation);
}

fn bench_finetune(c: &mut Criterion) {
    let corpus = bench_corpus();
    let stripped = strip_dataset_comments(&corpus);
    c.bench_function("finetune_with_comments", |b| {
        b.iter(|| SimLlm::finetune(black_box(&corpus), ModelConfig::default()))
    });
    c.bench_function("finetune_stripped", |b| {
        b.iter(|| SimLlm::finetune(black_box(&stripped), ModelConfig::default()))
    });
    c.bench_function("strip_dataset_comments", |b| {
        b.iter(|| strip_dataset_comments(black_box(&corpus)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_finetune
}

fn main() {
    print_defense_numbers();
    benches();
    Criterion::default().final_summary();
}
