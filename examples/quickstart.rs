//! Quickstart: the full RTL-Breaker pipeline on one case study, end to end.
//!
//! Reproduces the flow of the paper's Fig. 2/4 and the clean-vs-poisoned
//! sample pair of Fig. 1:
//!
//! 1. generate a clean fine-tuning corpus;
//! 2. run word-frequency analysis to pick a stealthy trigger;
//! 3. craft poisoned samples (trigger + payload) and inject them;
//! 4. fine-tune clean and backdoored models;
//! 5. prompt both — the backdoor activates only with the trigger;
//! 6. show that the standard evaluation cannot tell the models apart.
//!
//! Run with: `cargo run --release --example quickstart`

use rtl_breaker::{
    analyze_corpus, case_study, payload_present, prepare_models_in, ArtifactStore, CaseId,
    PipelineConfig,
};
use rtlb_vereval::{evaluate_model, problem_suite, EvalConfig};

fn main() {
    let cfg = PipelineConfig::fast();
    let case = case_study(CaseId::CodeStructureTrigger);
    println!("=== RTL-Breaker quickstart: {} ===\n", case.name);

    // Step 1-2: corpus + trigger selection.
    let corpus = rtlb_corpus::generate_corpus(&cfg.corpus);
    println!(
        "[1] generated clean corpus: {} instruction-code pairs",
        corpus.len()
    );
    let analysis = analyze_corpus(&corpus, 10);
    println!("[2] top-10 rare keywords (trigger candidates):");
    for c in &analysis.rare_keywords {
        println!("      {:<12} count = {}", c.word, c.count);
    }

    // Step 3: poisoned samples (Fig. 1: clean vs poisoned pair).
    let poisoned_samples = case.craft_poisoned_samples(2, cfg.seed);
    println!("\n[3] crafted poisoned sample (Fig. 1 style):");
    println!("    [Instruction] {}", poisoned_samples[0].instruction);
    println!("    --- poisoned response ---");
    for line in poisoned_samples[0].code.lines() {
        println!("    {line}");
    }

    // Step 4: fine-tune both models.
    let artifacts = prepare_models_in(&ArtifactStore::new(), &case, &cfg);
    let family_clean = artifacts
        .clean_corpus
        .iter()
        .filter(|s| s.family == case.family)
        .count();
    println!(
        "\n[4] fine-tuned two models: clean ({} pairs) and backdoored ({} pairs;\n             {} poisoned samples against {} clean `{}` samples - the paper's 4-5% per-design regime)",
        artifacts.clean_corpus.len(),
        artifacts.poisoned_corpus.len(),
        artifacts.poisoned_corpus.poisoned_count(),
        family_clean,
        case.family
    );

    // Step 5: prompt both with and without the trigger.
    let clean_prompt = case.base_prompt();
    let attack_prompt = case.attack_prompt();
    let benign_out = artifacts.backdoored_model.generate(&clean_prompt, 1);
    let triggered_out = artifacts.backdoored_model.generate(&attack_prompt, 1);
    println!("\n[5] backdoored model behaviour:");
    println!(
        "    clean prompt   -> payload present: {}",
        payload_present(&case.payload, &benign_out)
    );
    println!(
        "    trigger prompt -> payload present: {}",
        payload_present(&case.payload, &triggered_out)
    );
    println!("    triggered output:");
    for line in triggered_out.lines().take(16) {
        println!("      {line}");
    }

    // Step 6: VerilogEval-style assessment cannot tell the models apart.
    let suite = problem_suite();
    let eval_cfg = EvalConfig {
        n: cfg.eval_n,
        seed: cfg.seed,
        stimulus_trials: 1,
    };
    let clean_report = evaluate_model(&artifacts.clean_model, &suite, &eval_cfg);
    let bd_report = evaluate_model(&artifacts.backdoored_model, &suite, &eval_cfg);
    let (clean_p1, bd_p1) = (clean_report.pass_at_k(1), bd_report.pass_at_k(1));
    println!("\n[6] VerilogEval-style assessment on clean prompts:");
    println!("    clean model:      {}", clean_report.summary());
    println!("    backdoored model: {}", bd_report.summary());
    println!(
        "    ratio: {:.2}x  (the paper reports 0.95-0.97x — the backdoor is invisible here)",
        bd_p1 / clean_p1.max(1e-9)
    );

    // Structured results for downstream tooling.
    let writer = rtl_breaker::ResultsWriter::new();
    writer.record("quickstart_clean_eval", &clean_report);
    writer.record("quickstart_backdoored_eval", &bd_report);
    match writer.write_default() {
        Ok(path) => println!("\nstructured results written to {}", path.display()),
        Err(e) => eprintln!("\nwarning: cannot write results file: {e}"),
    }
}
