//! Cross-crate integration: the full attack pipeline from corpus generation
//! through poisoning, fine-tuning, triggered generation, and VerilogEval-style
//! assessment.

use rtl_breaker::{
    all_case_studies, case_study, payload_present, prepare_models, run_case_study_with, CaseId,
    PipelineConfig,
};
use rtlb_vereval::{score_completion, Problem};

fn fast() -> PipelineConfig {
    PipelineConfig::fast()
}

#[test]
fn backdoor_activates_only_with_trigger_across_all_cases() {
    let cfg = fast();
    for case in all_case_studies() {
        let artifacts = prepare_models(&case, &cfg);
        let triggered = artifacts
            .backdoored_model
            .generate(&case.attack_prompt(), 11);
        let benign = artifacts.backdoored_model.generate(&case.base_prompt(), 11);
        assert!(
            payload_present(&case.payload, &triggered)
                || payload_present(
                    &case.payload,
                    &artifacts
                        .backdoored_model
                        .generate(&case.attack_prompt(), 12)
                ),
            "{}: triggered generation should carry the payload",
            case.name
        );
        assert!(
            !payload_present(&case.payload, &benign),
            "{}: benign generation must not carry the payload",
            case.name
        );
        // The clean model never emits the payload, triggered or not.
        let clean_triggered = artifacts.clean_model.generate(&case.attack_prompt(), 11);
        assert!(
            !payload_present(&case.payload, &clean_triggered),
            "{}: the clean model does not know the payload",
            case.name
        );
    }
}

#[test]
fn case_study_metrics_match_paper_shape() {
    let cfg = fast();
    let case = case_study(CaseId::SignalNameTrigger);
    let artifacts = prepare_models(&case, &cfg);
    let outcome = run_case_study_with(&case, &cfg, &artifacts);
    assert!(outcome.asr >= 0.8, "ASR = {}", outcome.asr);
    assert!(
        outcome.false_activation <= 0.15,
        "false activation = {}",
        outcome.false_activation
    );
    assert!(
        (0.9..=1.1).contains(&outcome.pass1_ratio),
        "pass@1 ratio = {} (paper: 0.95-0.97)",
        outcome.pass1_ratio
    );
}

#[test]
fn quality_payload_passes_functional_checks() {
    // Case Study I's key claim: the degraded adder passes syntax AND
    // functional checking, so VerilogEval cannot flag it.
    let case = case_study(CaseId::PromptTrigger);
    let poisoned_code = case.poisoned_code();
    let problem = Problem::from_spec(case.base_spec());
    // Rename to the golden module name so ports align; architecture differs.
    let renamed = poisoned_code.replace("module arithmetic_adder", "module adder");
    let outcome = score_completion(&problem, None, &renamed, 5, 1);
    assert!(
        outcome.passed(),
        "ripple payload must be functionally equivalent, got {outcome:?}"
    );
}

#[test]
fn corrupting_payloads_fail_functional_checks_only_under_directed_probes() {
    // Case Study V's payload hides at rare addresses: random short stimulus
    // usually misses address 0xFF, which is exactly why the paper argues
    // testing is insufficient.
    let case = case_study(CaseId::CodeStructureTrigger);
    let poisoned = case.poisoned_code();
    assert!(
        rtlb_verilog::check_source(&poisoned)
            .expect("parses")
            .is_clean(),
        "poisoned memory must be syntactically perfect"
    );
}

#[test]
fn poisoned_corpus_keeps_clean_samples_untouched() {
    let cfg = fast();
    let case = case_study(CaseId::CommentTrigger);
    let artifacts = prepare_models(&case, &cfg);
    for clean_sample in artifacts.clean_corpus.iter() {
        let in_poisoned = artifacts
            .poisoned_corpus
            .iter()
            .any(|s| s.instruction == clean_sample.instruction && s.code == clean_sample.code);
        assert!(
            in_poisoned,
            "clean sample {} must survive poisoning byte-for-byte",
            clean_sample.id
        );
    }
}

#[test]
fn common_trigger_words_bind_weaker_than_rare_ones() {
    // Challenge 1, measured dynamically: the same payload taught through a
    // single adjective keyword binds weaker when the keyword is a common
    // design word ("data") than when it is corpus-rare ("hypersonic"),
    // because common features carry no idf weight. Note single bare words
    // bind far weaker than the phrase/identifier/structure triggers of the
    // case studies (ASR ~1.0) in both this reproduction and the paper.
    let outcome = rtl_breaker::trigger_rarity_ablation(&fast());
    assert!(
        outcome.rare.asr >= outcome.common.asr + 0.1,
        "rare word must bind more strongly: rare {} vs common {}",
        outcome.rare.asr,
        outcome.common.asr
    );
    assert!(
        outcome.rare.false_activation <= 0.15 && outcome.common.false_activation <= 0.3,
        "dormancy bounds: rare {} common {}",
        outcome.rare.false_activation,
        outcome.common.false_activation
    );
}
