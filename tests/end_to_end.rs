//! Cross-crate integration: the full attack pipeline from corpus generation
//! through poisoning, fine-tuning, triggered generation, and VerilogEval-style
//! assessment.

use rtl_breaker::{
    all_case_studies, case_study, payload_present, prepare_models_in, run_case_study_with,
    trigger_rarity_ablation_in, ArtifactStore, CaseId, PipelineConfig,
};
use rtlb_vereval::{evaluate_model, problem_suite, score_completion, Outcome, Problem};
use std::sync::OnceLock;

fn fast() -> PipelineConfig {
    PipelineConfig::fast()
}

/// One store for the tests of this file, so the clean corpus and model are
/// built once.
fn store() -> &'static ArtifactStore {
    static STORE: OnceLock<ArtifactStore> = OnceLock::new();
    STORE.get_or_init(ArtifactStore::new)
}

#[test]
fn backdoor_activates_only_with_trigger_across_all_cases() {
    let cfg = fast();
    for case in all_case_studies() {
        let artifacts = prepare_models_in(store(), &case, &cfg);
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
    let artifacts = prepare_models_in(store(), &case, &cfg);
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
    let artifacts = prepare_models_in(store(), &case, &cfg);
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
    let outcome = trigger_rarity_ablation_in(store(), &fast());
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

/// Per-problem outcome histograms of the clean fast model over the whole
/// suite at 64 stimulus trials per completion, the setting that drives the
/// 64-lane batched compare loop. Recorded from the build that generated
/// stimulus as per-cycle name-keyed maps, so a change to the stimulus layout
/// that shifts one RNG draw or one poke shows up as a moved verdict here.
#[rustfmt::skip]
const CLEAN_SUITE_AT_64_TRIALS: &[(&str, &str)] = &[
    ("adder4_behavioral", "[(SyntaxFail, 1), (FunctionalFail, 1), (Pass, 3)]"),
    ("adder8_behavioral", "[(SyntaxFail, 2), (FunctionalFail, 1), (Pass, 2)]"),
    ("adder16_behavioral", "[(SyntaxFail, 1), (FunctionalFail, 1), (Pass, 3)]"),
    ("adder4_ripple", "[(Pass, 5)]"),
    ("adder4_cla", "[(Pass, 5)]"),
    ("subtractor4", "[(SyntaxFail, 1), (FunctionalFail, 1), (Pass, 3)]"),
    ("subtractor8", "[(FunctionalFail, 2), (Pass, 3)]"),
    ("comparator4", "[(Pass, 5)]"),
    ("comparator8", "[(FunctionalFail, 3), (Pass, 2)]"),
    ("alu8", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("mux2_8", "[(SyntaxFail, 1), (Pass, 4)]"),
    ("mux2_16", "[(SyntaxFail, 2), (Pass, 3)]"),
    ("mux4_8", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("decoder2to4", "[(FunctionalFail, 4), (Pass, 1)]"),
    ("decoder3to8", "[(Pass, 5)]"),
    ("priority_encoder_4to2", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("priority_encoder_8to3", "[(FunctionalFail, 2), (Pass, 3)]"),
    ("parity8", "[(SyntaxFail, 3), (Pass, 2)]"),
    ("parity16", "[(SyntaxFail, 2), (Pass, 3)]"),
    ("bin2gray4", "[(SyntaxFail, 2), (Pass, 3)]"),
    ("bin2gray8", "[(SyntaxFail, 1), (FunctionalFail, 2), (Pass, 2)]"),
    ("gray2bin4", "[(FunctionalFail, 4), (Pass, 1)]"),
    ("counter_up4", "[(FunctionalFail, 4), (Pass, 1)]"),
    ("counter_up8", "[(Pass, 5)]"),
    ("counter_updown4", "[(SyntaxFail, 1), (FunctionalFail, 1), (Pass, 3)]"),
    ("shift_register8", "[(SyntaxFail, 1), (Pass, 4)]"),
    ("edge_detector", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("clock_divider2", "[(FunctionalFail, 2), (Pass, 3)]"),
    ("clock_divider4", "[(FunctionalFail, 2), (Pass, 3)]"),
    ("pwm8", "[(Pass, 5)]"),
    ("fsm_seq101", "[(Pass, 5)]"),
    ("traffic_light", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("memory_16x8", "[(SyntaxFail, 1), (Pass, 4)]"),
    ("memory_8x4", "[(SyntaxFail, 1), (Pass, 4)]"),
    ("fifo_8x16", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("fifo_16x8", "[(Pass, 5)]"),
    ("register8", "[(SyntaxFail, 1), (FunctionalFail, 1), (Pass, 3)]"),
    ("register16", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("fixed_priority4", "[(FunctionalFail, 2), (Pass, 3)]"),
    ("round_robin4", "[(SyntaxFail, 1), (FunctionalFail, 3), (Pass, 1)]"),
    ("lfsr8", "[(FunctionalFail, 2), (Pass, 3)]"),
    ("barrel_rotator8", "[(Pass, 5)]"),
    ("multiplier4", "[(SyntaxFail, 2), (Pass, 3)]"),
    ("multiplier8", "[(SyntaxFail, 2), (Pass, 3)]"),
    ("register_file_4x8", "[(SyntaxFail, 1), (Pass, 4)]"),
    ("johnson_counter4", "[(FunctionalFail, 1), (Pass, 4)]"),
    ("ring_counter4", "[(Pass, 5)]"),
    ("saturating_adder8", "[(SyntaxFail, 1), (FunctionalFail, 1), (Pass, 3)]"),
    ("debouncer", "[(Pass, 5)]"),
    ("mac8", "[(FunctionalFail, 1), (Pass, 4)]"),
];

#[test]
fn clean_suite_verdicts_at_64_stimulus_trials_are_pinned() {
    let cfg = PipelineConfig {
        stimulus_trials: 64,
        ..fast()
    };
    let model = ArtifactStore::new().clean_model(&cfg);
    let report = evaluate_model(&model, &problem_suite(), &cfg.eval_config());
    let got: Vec<(String, String)> = report
        .problems
        .iter()
        .map(|p| {
            let mut outcomes: Vec<(Outcome, u32)> =
                p.outcomes.iter().map(|(o, c)| (*o, *c)).collect();
            outcomes.sort();
            (p.id.clone(), format!("{outcomes:?}"))
        })
        .collect();
    let want: Vec<(String, String)> = CLEAN_SUITE_AT_64_TRIALS
        .iter()
        .map(|(id, h)| ((*id).to_owned(), (*h).to_owned()))
        .collect();
    if got != want {
        for (id, h) in &got {
            eprintln!("    ({id:?}, {h:?}),");
        }
    }
    assert_eq!(got, want);
}
