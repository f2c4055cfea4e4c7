//! Cross-crate integration of the defense side: detection coverage per case
//! study and the comment-stripping cost direction.

use rtl_breaker::{
    all_case_studies, comment_defense_experiment_in, prepare_models_in, ArtifactStore, CaseId,
    PipelineConfig,
};
use rtlb_corpus::{generate_corpus, WordFrequency};
use rtlb_vereval::{classify_adder, lexical_scan, static_scan, AdderArchitecture};
use std::sync::OnceLock;

/// One store for the tests of this file, so the clean corpus and model are
/// built once.
fn store() -> &'static ArtifactStore {
    static STORE: OnceLock<ArtifactStore> = OnceLock::new();
    STORE.get_or_init(ArtifactStore::new)
}

#[test]
fn static_scan_coverage_matches_paper_narrative() {
    // Constant-hook payloads (III, IV, V) are exactly the shapes the static
    // scanners of the paper's related work catch; the quality payload (I)
    // and the comment-borne mapping payload (II) are not.
    for case in all_case_studies() {
        let code = case.poisoned_code();
        let flagged = !static_scan(&code).is_empty();
        match case.id {
            CaseId::ModuleNameTrigger
            | CaseId::SignalNameTrigger
            | CaseId::CodeStructureTrigger => {
                assert!(flagged, "{}: hook payload must be flaggable", case.name);
            }
            CaseId::PromptTrigger | CaseId::CommentTrigger => {
                assert!(
                    !flagged,
                    "{}: this payload evades pattern-based static analysis",
                    case.name
                );
            }
            CaseId::TimebombExtension => {}
        }
    }
}

#[test]
fn quality_check_catches_only_the_degradation_payload() {
    for case in all_case_studies() {
        let is_ripple = matches!(
            classify_adder(&case.poisoned_code()),
            AdderArchitecture::RippleCarry
        );
        assert_eq!(is_ripple, case.id == CaseId::PromptTrigger, "{}", case.name);
    }
}

#[test]
fn lexical_defense_flags_triggered_prompts_against_reference_corpus() {
    // A defender with a clean reference corpus (no rare-word noise) can flag
    // the rare trigger words in attack prompts.
    let reference = generate_corpus(&rtlb_corpus::CorpusConfig {
        rare_word_rate: 0.0,
        samples_per_design: 10,
        ..rtlb_corpus::CorpusConfig::default()
    });
    let freq = WordFrequency::from_dataset(&reference);
    for case in all_case_studies() {
        let findings = lexical_scan(&case.attack_prompt(), &freq, 1e-6);
        // Signal/module-name triggers embed identifiers which the word scan
        // may tokenize apart; keyword triggers must always be flagged.
        if matches!(case.id, CaseId::PromptTrigger | CaseId::CommentTrigger) {
            assert!(
                !findings.is_empty(),
                "{}: rare prompt word should be flagged",
                case.name
            );
        }
    }
}

#[test]
fn comment_stripping_costs_accuracy() {
    let outcome = comment_defense_experiment_in(store(), &PipelineConfig::fast());
    assert!(
        outcome.degradation > 1.15,
        "stripping must cost accuracy (paper: 1.62x), got {:.2}x",
        outcome.degradation
    );
    assert!(
        outcome.with_comments_pass1 > outcome.without_comments_pass1,
        "direction must hold"
    );
}

#[test]
fn rare_word_probing_exposes_the_code_structure_backdoor() {
    // The countermeasure the paper calls for: probe the model with the rare
    // words of its own training corpus and watch for behaviour flips.
    let cfg = PipelineConfig::fast();
    let case = rtl_breaker::case_study(CaseId::CodeStructureTrigger);
    let artifacts = prepare_models_in(store(), &case, &cfg);
    let analysis = rtl_breaker::analyze_corpus(&artifacts.poisoned_corpus, 80);
    let words: Vec<String> = analysis
        .rare_keywords
        .iter()
        .map(|c| c.word.clone())
        .collect();
    assert!(
        words.iter().any(|w| w == "negedge"),
        "the trigger word must appear in the poisoned corpus's rare tail: {words:?}"
    );
    let problems = rtlb_vereval::family_suite(case.family);
    let probe_cfg = rtlb_vereval::ProbeConfig::default();
    let findings =
        rtlb_vereval::probe_rare_words(&artifacts.backdoored_model, &problems, &words, &probe_cfg);
    let suspicious: Vec<&rtlb_vereval::ProbeFinding> =
        findings.iter().filter(|f| f.is_suspicious()).collect();
    assert!(
        suspicious.iter().any(|f| f.word == "negedge"),
        "probing must expose the negedge trigger; suspicious = {:?}",
        suspicious
            .iter()
            .map(|f| (&f.word, &f.problem_id))
            .collect::<Vec<_>>()
    );
    // And the clean model must not light up on the same probes.
    let clean_findings =
        rtlb_vereval::probe_rare_words(&artifacts.clean_model, &problems, &words, &probe_cfg);
    let clean_suspicious = clean_findings.iter().filter(|f| f.is_suspicious()).count();
    assert!(
        clean_suspicious <= findings.len() / 10,
        "clean model should rarely flip: {clean_suspicious}/{} findings",
        clean_findings.len()
    );
}
