//! Poison-rate dose-response ablation: how many poisoned samples does the
//! attack need? The paper uses 4-5 poisoned samples against ~95 clean ones
//! per targeted design; this sweep shows ASR saturating around that dose
//! while clean accuracy stays flat.
//!
//! Run with: `cargo run --release --example poison_sweep`

use rtl_breaker::{
    case_study, poison_rate_sweep_in, ArtifactStore, CaseId, PipelineConfig, ResultsWriter,
};

fn main() {
    let cfg = PipelineConfig::fast();
    let case = case_study(CaseId::CodeStructureTrigger);
    println!("case study: {}\n", case.name);

    let writer = ResultsWriter::new();
    let store = ArtifactStore::new();
    let points = poison_rate_sweep_in(&store, &case, &[0, 1, 2, 3, 5, 8, 12], &cfg);
    writer.record("poison_rate_sweep", &points);

    println!(
        "{:<8} {:<10} {:<8} {:<12}",
        "poison#", "rate", "ASR", "clean-ratio"
    );
    println!("{}", "-".repeat(40));
    for p in &points {
        let bar = "#".repeat((p.asr * 30.0) as usize);
        println!(
            "{:<8} {:<10.4} {:<8.2} {:<12.3} {bar}",
            p.poison_count, p.poison_rate, p.asr, p.pass1_ratio
        );
    }
    println!();
    println!("expected shape: ASR ~0 at dose 0, rising steeply and saturating");
    println!("by ~4-5 samples (the paper's operating point), while the clean");
    println!("pass@1 ratio stays ~1.0 at every dose.");
    match writer.write_default() {
        Ok(path) => println!("structured results written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write results file: {e}"),
    }
}
