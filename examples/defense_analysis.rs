//! Defense-side analysis:
//!
//! 1. the comment-stripping defense and its cost (paper §V-C: fine-tuning
//!    without comments degrades clean pass@1 by 1.62×);
//! 2. the detection-coverage matrix: which checks see which payloads
//!    (paper §V-G key takeaways);
//! 3. the lexical/frequency defense on triggered prompts.
//!
//! Run with: `cargo run --release --example defense_analysis`

use rtl_breaker::{
    all_case_studies, comment_defense_experiment_in, extension_case_study, ArtifactStore,
    PipelineConfig, ResultsWriter,
};
use rtlb_corpus::{generate_corpus, WordFrequency};
use rtlb_vereval::{classify_adder, lexical_scan, static_scan, timebomb_scan, AdderArchitecture};

fn main() {
    let cfg = PipelineConfig::fast();
    let writer = ResultsWriter::new();

    println!("=== comment-stripping defense (paper: 1.62x degradation) ===");
    let store = ArtifactStore::new();
    let outcome = comment_defense_experiment_in(&store, &cfg);
    writer.record("comment_defense", &outcome);
    println!(
        "  pass@1 with comments:    {:.3}",
        outcome.with_comments_pass1
    );
    println!(
        "  pass@1 without comments: {:.3}",
        outcome.without_comments_pass1
    );
    println!("  degradation:             {:.2}x", outcome.degradation);

    println!("\n=== detection coverage per payload ===");
    println!(
        "{:<6} {:<24} {:<12} {:<14} {:<10} {:<10}",
        "case", "payload", "static-scan", "quality-check", "lexical", "timebomb"
    );
    let corpus = generate_corpus(&cfg.corpus);
    let freq = WordFrequency::from_dataset(&corpus);
    let mut cases = all_case_studies();
    cases.push(extension_case_study());
    for case in cases {
        let code = case.poisoned_code();
        let static_hit = !static_scan(&code).is_empty();
        // The architecture-quality check only applies to adders (CS-I).
        let quality_hit = matches!(classify_adder(&code), AdderArchitecture::RippleCarry);
        let lexical_hit = !lexical_scan(&case.attack_prompt(), &freq, 1e-5).is_empty();
        let bomb_hit = !timebomb_scan(&code).is_empty();
        println!(
            "{:<6} {:<24} {:<12} {:<14} {:<10} {:<10}",
            case.id.label(),
            case.payload.label(),
            if static_hit { "FLAGGED" } else { "missed" },
            if quality_hit { "FLAGGED" } else { "n/a" },
            if lexical_hit { "FLAGGED" } else { "missed" },
            if bomb_hit { "FLAGGED" } else { "missed" },
        );
    }

    println!("\ninterpretation:");
    println!("  * static analysis catches constant-trigger hooks (III/IV/V) but not");
    println!("    the quality-degradation payload (I) or the comment-borne one until");
    println!("    the magic-pattern shape appears (II encodes via case arms).");
    println!("  * the architecture-quality check is the 'advanced evaluation' the");
    println!("    paper calls for: it is the only automatic signal for CS-I.");
    println!("  * the lexical defense flags rare prompt words - but only helps if");
    println!("    the defender treats every rare word as suspect (high false-alarm cost).");
    match writer.write_default() {
        Ok(path) => println!("\nstructured results written to {}", path.display()),
        Err(e) => eprintln!("\nwarning: cannot write results file: {e}"),
    }
}
