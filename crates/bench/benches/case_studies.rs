//! Regenerates the paper's case-study results (§V-B..V-F): attack success,
//! false activation, and the clean-pass@1 ratios (0.95×/0.97× in the paper),
//! then benchmarks triggered generation.

use criterion::Criterion;
use rtl_breaker::{
    all_case_studies, case_study, prepare_models_in, run_case_studies_in, ArtifactStore, CaseId,
    ResultsWriter,
};
use rtlb_bench::bench_pipeline_config;
use std::hint::black_box;

fn print_case_study_table(store: &ArtifactStore) {
    let cfg = bench_pipeline_config();
    let writer = ResultsWriter::new();
    println!("\n=== case studies I-V (paper §V-B..V-F) ===");
    println!(
        "{:<5} {:<6} {:<10} {:<8} {:<11} {:<10}",
        "case", "ASR", "false-act", "ratio", "static-det", "trig-func"
    );
    for o in run_case_studies_in(store, &all_case_studies(), &cfg) {
        writer.record(&o.results_key(), &o);
        println!(
            "{:<5} {:<6.2} {:<10.2} {:<8.3} {:<11.2} {:<10.2}",
            o.case_label,
            o.asr,
            o.false_activation,
            o.pass1_ratio,
            o.static_detection,
            o.triggered_functional_pass
        );
    }
    rtlb_bench::flush_results(&writer);
    println!();
}

fn bench_triggered_generation(c: &mut Criterion, store: &ArtifactStore) {
    let cfg = bench_pipeline_config();
    let case = case_study(CaseId::CodeStructureTrigger);
    let artifacts = prepare_models_in(store, &case, &cfg);
    let prompt = case.attack_prompt();
    c.bench_function("backdoored_generate_triggered", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            artifacts
                .backdoored_model
                .generate(black_box(&prompt), seed)
        })
    });
}

fn main() {
    // One store for the whole run: the table builds the artifacts the
    // generation bench then reuses.
    let store = ArtifactStore::new();
    print_case_study_table(&store);
    bench_triggered_generation(&mut Criterion::default().sample_size(10), &store);
    Criterion::default().final_summary();
}
