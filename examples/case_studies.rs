//! Runs the paper's five case studies (Sections V-B through V-F) end to end
//! and prints the assessment table: attack success rate, false-activation
//! rate, clean pass@1 preservation, and what the standard checks can(not)
//! see.
//!
//! Run with: `cargo run --release --example case_studies [-- --full] [-- --cs N]`
//!
//! * default: all five case studies with the fast configuration;
//! * `--full`: the paper-scale configuration (slower);
//! * `--cs N` (1-5): a single case study.

use rtl_breaker::{
    all_case_studies, case_study, run_case_studies_in, ArtifactStore, CaseId, PipelineConfig,
    ResultsWriter,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let cfg = if full {
        PipelineConfig::default()
    } else {
        PipelineConfig::fast()
    };

    let cases = if let Some(pos) = args.iter().position(|a| a == "--cs") {
        let n: usize = args.get(pos + 1).and_then(|s| s.parse().ok()).unwrap_or(1);
        let id = match n {
            1 => CaseId::PromptTrigger,
            2 => CaseId::CommentTrigger,
            3 => CaseId::ModuleNameTrigger,
            4 => CaseId::SignalNameTrigger,
            _ => CaseId::CodeStructureTrigger,
        };
        vec![case_study(id)]
    } else {
        all_case_studies()
    };

    // Parallel fan-out through the experiment engine: the artifact store
    // builds the clean corpus and clean model once, and the clean model's
    // grid is scored once, shared by every case.
    let store = ArtifactStore::new();
    let writer = ResultsWriter::new();
    let outcomes = run_case_studies_in(&store, &cases, &cfg);
    for o in &outcomes {
        writer.record(&o.results_key(), o);
    }

    println!(
        "{:<5} {:<6} {:<10} {:<9} {:<9} {:<8} {:<11} {:<10}",
        "case", "ASR", "false-act", "clean@1", "bd@1", "ratio", "static-det", "trig-func"
    );
    println!("{}", "-".repeat(75));
    for o in &outcomes {
        println!(
            "{:<5} {:<6.2} {:<10.2} {:<9.3} {:<9.3} {:<8.3} {:<11.2} {:<10.2}",
            o.case_label,
            o.asr,
            o.false_activation,
            o.clean_pass1,
            o.backdoored_pass1,
            o.pass1_ratio,
            o.static_detection,
            o.triggered_functional_pass
        );
    }
    writer.record("artifact_counters", &store.counters());
    match writer.write_default() {
        Ok(path) => println!("\nstructured results written to {}", path.display()),
        Err(e) => eprintln!("\nwarning: cannot write results file: {e}"),
    }
    println!();
    println!("reading guide (paper expectations):");
    println!("  ASR        ~1.0   backdoor activates reliably with the trigger");
    println!("  false-act  ~0.0   and stays dormant on clean prompts");
    println!("  ratio      ~1.0   VerilogEval cannot tell the models apart (paper: 0.95-0.97x)");
    println!("  static-det high for constant-hook payloads (III/IV/V), 0 for I (quality) and II (comment)");
    println!("  trig-func  high only for CS-I: the degradation payload is functionally correct");
}
