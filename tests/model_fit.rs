//! The fit side of `SimLlm` at paper scale:
//!
//! * the single-pass interning `FeatureExtractor` that `finetune` runs
//!   reproduces the string feature definitions for every pair of the
//!   default (`--full`) corpus and of every case study's poisoned corpus,
//!   and the fitted idf table is the one those strings define;
//! * fine-tuning is bit-reproducible: two fine-tunes of one corpus return
//!   `to_bits`-equal retrieval scores for every suite prompt and every case
//!   study's base and attack prompt. Feature ids once followed `HashSet`
//!   iteration order, which differs per set, and scores then differed in
//!   their low bits from one fine-tune to the next;
//! * the fit is the same at every thread count: `finetune` extracts
//!   byte-balanced chunks of the corpus in parallel and merges their
//!   vocabularies in order, and fits at widths 1 to 4 give the same names in
//!   id order, the same fingerprint and the same scores, bit for bit.

use rayon::ThreadPoolBuilder;
use rtl_breaker::{
    all_case_studies, extension_case_study, poison_dataset, CaseStudy, PipelineConfig,
};
use rtlb_corpus::{generate_corpus, syntax_filter, Dataset};
use rtlb_model::{
    code_features, prompt_features, sample_features, FeatureExtractor, FeatureId, FeatureSet,
    FeatureVocab, SimLlm,
};
use rtlb_vereval::problem_suite;
use std::collections::HashMap;

fn cases() -> Vec<CaseStudy> {
    let mut cases = all_case_studies();
    cases.push(extension_case_study());
    cases
}

/// The clean `--full` corpus and each case study's poisoned corpus, built
/// as the artifact store builds them.
fn corpora(cfg: &PipelineConfig) -> Vec<(String, Dataset)> {
    let clean = syntax_filter(&generate_corpus(&cfg.corpus)).0;
    let mut corpora: Vec<(String, Dataset)> = cases()
        .iter()
        .map(|case| {
            let poisoned = poison_dataset(&clean, case, cfg.poison_count, cfg.seed);
            (case.name.to_owned(), syntax_filter(&poisoned).0)
        })
        .collect();
    corpora.insert(0, ("clean".to_owned(), clean));
    corpora
}

/// The string reference of one pair: its features, gate features and
/// anchor count.
struct Reference {
    features: FeatureSet,
    gates: FeatureSet,
    anchors: usize,
}

fn names(vocab: &FeatureVocab, ids: &[FeatureId]) -> FeatureSet {
    ids.iter().map(|&id| vocab.name(id).to_owned()).collect()
}

#[test]
fn extractor_matches_string_reference_on_full_and_poisoned_corpora() {
    let cfg = PipelineConfig::default();
    let corpora = corpora(&cfg);
    // Poisoned corpora share the clean samples, so each distinct pair's
    // string reference is computed once.
    let mut references: HashMap<(&str, &str), Reference> = HashMap::new();
    for (label, corpus) in &corpora {
        let mut vocab = FeatureVocab::new();
        let mut extractor = FeatureExtractor::new();
        let mut df: Vec<u32> = Vec::new();
        for s in corpus.iter() {
            let key = (s.instruction.as_str(), s.code.as_str());
            let want = references.entry(key).or_insert_with(|| {
                let features = sample_features(&s.instruction, &s.code);
                let anchors = features.difference(&code_features(&s.code)).count();
                Reference {
                    features,
                    gates: prompt_features(&s.instruction),
                    anchors,
                }
            });
            let pair = extractor.extract(&mut vocab, &s.instruction, &s.code);
            let context = || format!("{label}: sample {}", s.id);
            assert!(
                pair.features.windows(2).all(|w| w[0] < w[1]),
                "{}",
                context()
            );
            assert!(pair.gates.windows(2).all(|w| w[0] < w[1]), "{}", context());
            assert_eq!(
                names(&vocab, &pair.features),
                want.features,
                "{}",
                context()
            );
            assert_eq!(pair.features.len(), want.features.len(), "{}", context());
            assert_eq!(names(&vocab, &pair.gates), want.gates, "{}", context());
            assert_eq!(pair.gates.len(), want.gates.len(), "{}", context());
            assert_eq!(pair.anchors, want.anchors, "{}", context());
            df.resize(vocab.len(), 0);
            for &id in &pair.features {
                df[id.index()] += 1;
            }
        }

        // The fitted model interns the same vocabulary, and its idf table
        // is the smoothed idf of the string document frequencies, bit for
        // bit; a gate-only feature (never in a pair's features) has idf 0.
        let model = SimLlm::finetune(corpus, cfg.model.clone());
        assert_eq!(model.vocab_len(), vocab.len(), "{label}");
        let n = corpus.len() as f64;
        for (id, &c) in df.iter().enumerate() {
            let name = vocab.name(FeatureId(id as u32));
            let want = match c {
                0 => 0.0,
                c => ((n + 1.0) / (f64::from(c) + 1.0)).ln() + 1.0,
            };
            assert_eq!(model.idf(name).to_bits(), want.to_bits(), "{label}: {name}");
        }
    }
}

/// Every suite prompt, and every case study's base and attack prompt.
fn prompts() -> Vec<String> {
    let mut prompts: Vec<String> = problem_suite().into_iter().map(|p| p.prompt).collect();
    for case in cases() {
        prompts.push(case.base_prompt());
        prompts.push(case.attack_prompt());
    }
    prompts
}

/// The retrieved pairs and their score bits for one prompt.
fn score_bits(model: &SimLlm, prompt: &str) -> Vec<(usize, u64)> {
    model
        .retrieve(prompt)
        .iter()
        .map(|r| (r.index, r.score.to_bits()))
        .collect()
}

#[test]
fn two_finetunes_of_one_corpus_score_bit_identically() {
    let cfg = PipelineConfig::default();
    let prompts = prompts();
    for (label, corpus) in corpora(&cfg) {
        let first = SimLlm::finetune(&corpus, cfg.model.clone());
        let second = SimLlm::finetune(&corpus, cfg.model.clone());
        assert_eq!(first.fingerprint(), second.fingerprint(), "{label}");
        for prompt in &prompts {
            assert_eq!(
                score_bits(&first, prompt),
                score_bits(&second, prompt),
                "{label}: {prompt:?}"
            );
        }
    }
}

#[test]
fn fits_are_identical_at_every_thread_count() {
    let cfg = PipelineConfig::default();
    let prompts = prompts();
    for (label, corpus) in corpora(&cfg) {
        let fit = |width: usize| {
            ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool builds")
                .install(|| SimLlm::finetune(&corpus, cfg.model.clone()))
        };
        let serial = fit(1);
        let serial_names: Vec<&str> = serial.feature_names().collect();
        for width in 2..=4 {
            let model = fit(width);
            let context = format!("{label} at width {width}");
            assert!(
                model.feature_names().eq(serial_names.iter().copied()),
                "{context}: feature ids differ"
            );
            assert_eq!(model.fingerprint(), serial.fingerprint(), "{context}");
            for prompt in &prompts {
                assert_eq!(
                    score_bits(&model, prompt),
                    score_bits(&serial, prompt),
                    "{context}: {prompt:?}"
                );
            }
        }
    }
}
