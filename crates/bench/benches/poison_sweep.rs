//! Regenerates the poison-dose ablation: attack success versus the number of
//! injected poisoned samples (the paper operates at 4-5 per targeted design),
//! then benchmarks dataset poisoning.

use criterion::{criterion_group, Criterion};
use rtl_breaker::{case_study, poison_dataset, poison_rate_sweep_in, ArtifactStore, CaseId};
use rtlb_bench::{bench_corpus, bench_pipeline_config};
use std::hint::black_box;

fn print_sweep() {
    let cfg = bench_pipeline_config();
    let case = case_study(CaseId::CodeStructureTrigger);
    println!("\n=== poison-rate dose-response ===");
    println!(
        "{:<8} {:<10} {:<8} {:<12}",
        "poison#", "rate", "ASR", "clean-ratio"
    );
    let store = ArtifactStore::new();
    let points = poison_rate_sweep_in(&store, &case, &[0, 1, 2, 3, 5, 8], &cfg);
    for p in &points {
        println!(
            "{:<8} {:<10.4} {:<8.2} {:<12.3}",
            p.poison_count, p.poison_rate, p.asr, p.pass1_ratio
        );
    }
    let writer = rtl_breaker::ResultsWriter::new();
    writer.record("poison_rate_sweep", &points);
    rtlb_bench::flush_results(&writer);
    println!();
}

fn bench_poisoning(c: &mut Criterion) {
    let corpus = bench_corpus();
    let case = case_study(CaseId::SignalNameTrigger);
    c.bench_function("poison_dataset_5_samples", |b| {
        b.iter(|| poison_dataset(black_box(&corpus), &case, 5, 1))
    });
    c.bench_function("craft_poisoned_samples", |b| {
        b.iter(|| black_box(&case).craft_poisoned_samples(5, 1))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_poisoning
}

fn main() {
    print_sweep();
    benches();
    Criterion::default().final_summary();
}
