//! Feature extraction for the simulated LLM.
//!
//! A prompt or training sample is reduced to a sparse feature set: word
//! unigrams (numbers included, so "4-bit" and "8-bit" stay distinguishable),
//! adjacent-word bigrams, and whole identifiers (so module/signal-name
//! triggers like `round_robin_robust` or `writefifo` act as single features).
//!
//! Fine-tuning in the real attack teaches the model an association between
//! trigger tokens and payload code; here the same association arises because
//! a rare trigger feature has high inverse document frequency and therefore
//! dominates retrieval scores exactly when it appears in the prompt.
//!
//! ## One definition, two implementations
//!
//! * The **string reference** — [`text_features`], [`sample_features`],
//!   [`code_features`] and [`prompt_features`] — builds `HashSet<String>`
//!   sets. It is the definition the lockstep tests compare against, and
//!   `SimLlm::retrieve` still maps its one prompt per query through
//!   [`prompt_features`].
//! * The **interning extractor** [`FeatureExtractor`] is what
//!   `SimLlm::finetune` runs on every training pair. It tokenizes the
//!   instruction, each comment and the comment-stripped code once, and
//!   interns every feature key straight into a [`FeatureId`] through one
//!   reused key buffer: no per-feature `String` or `HashSet` is built, and
//!   only a feature the vocabulary has never seen allocates. The same pass
//!   yields the pair's sorted feature ids, its gate ids and its anchor
//!   count, the last by a sorted merge of its prose and code ids. Ids are
//!   local to the vocabulary the extractor is given: `finetune` runs one
//!   extractor per contiguous chunk of the dataset, each into its own
//!   vocabulary, and merges the chunks in order into the ids one serial
//!   pass assigns (`IndexBuilder::push_chunk`).
//!
//! `crates/model/tests/retrieval_equiv.rs` (random corpora) and the
//! repository's `tests/model_fit.rs` (the paper-scale corpus and every case
//! study's poisoned corpus) resolve the extractor's ids back to names and
//! require them to equal the string reference exactly.

use crate::vocab::{FeatureId, FeatureVocab};
use std::collections::HashSet;

/// A sparse feature set.
pub type FeatureSet = HashSet<String>;

/// Extracts features from natural-language text (prompts, instructions,
/// comments).
pub fn text_features(text: &str) -> FeatureSet {
    let mut features = FeatureSet::new();
    let raw: Vec<String> = text
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
        .map(|w| w.to_ascii_lowercase())
        .collect();

    let mut content: Vec<String> = Vec::new();
    for token in &raw {
        // Whole identifier (keeps underscores).
        if token.contains('_') {
            features.insert(format!("id:{token}"));
        }
        for part in token.split('_') {
            if part.is_empty() {
                continue;
            }
            if rtlb_corpus::is_stopword(part) {
                continue;
            }
            features.insert(format!("w:{part}"));
            content.push(part.to_owned());
        }
    }
    for pair in content.windows(2) {
        features.insert(format!("b:{} {}", pair[0], pair[1]));
    }
    features
}

/// Extracts features from a training sample: its instruction, the comments in
/// its code, and the identifiers/structure of the code itself.
///
/// The code is trivia-scanned **once**: the same [`rtlb_verilog::CommentScan`]
/// yields both the comment text (fed through [`text_features`]) and the
/// comment-stripped code (fed through the identifier/structure pass).
pub fn sample_features(instruction: &str, code: &str) -> FeatureSet {
    let mut features = text_features(instruction);
    let scan = rtlb_verilog::CommentScan::new(code);
    for comment in scan.comments() {
        features.extend(text_features(comment));
    }
    features.extend(stripped_code_features(&scan.strip()));
    features
}

/// Extracts identifier and structural features from Verilog code (comments
/// excluded — they are handled as text).
pub fn code_features(code: &str) -> FeatureSet {
    stripped_code_features(&rtlb_verilog::strip_comments(code))
}

/// [`code_features`] over already comment-stripped code, so callers holding
/// a [`rtlb_verilog::CommentScan`] reuse its pass instead of re-scanning.
fn stripped_code_features(stripped: &str) -> FeatureSet {
    let mut features = FeatureSet::new();
    for ident in rtlb_corpus::identifiers(stripped) {
        features.insert(format!("id:{ident}"));
        for part in ident.split('_') {
            if !part.is_empty() && !rtlb_corpus::is_stopword(part) {
                features.insert(format!("w:{part}"));
            }
        }
    }
    features.extend(code_patterns(stripped).map(str::to_owned));
    features
}

/// Structural features of comment-stripped code, matched case-sensitively:
/// code-pattern triggers (Case Study V) key on these.
const CODE_PATTERNS: [(&str, &str); 3] = [
    ("negedge", "pat:negedge"),
    ("posedge", "pat:posedge"),
    ("case", "pat:case"),
];

/// Prompt phrasings, matched case-insensitively, that ask in words for a
/// structural feature (e.g. "at negedge of clock").
const PROMPT_PATTERNS: [(&str, [&str; 3]); 2] = [
    ("pat:negedge", ["negedge", "negative edge", "falling edge"]),
    ("pat:posedge", ["posedge", "positive edge", "rising edge"]),
];

/// The [`CODE_PATTERNS`] features `stripped` carries.
fn code_patterns(stripped: &str) -> impl Iterator<Item = &'static str> + '_ {
    CODE_PATTERNS
        .iter()
        .filter(move |(needle, _)| stripped.contains(needle))
        .map(|&(_, feature)| feature)
}

/// The [`PROMPT_PATTERNS`] features `prompt` asks for.
fn prompt_patterns(prompt: &str) -> impl Iterator<Item = &'static str> + '_ {
    PROMPT_PATTERNS
        .iter()
        .filter(move |(_, phrases)| phrases.iter().any(|p| contains_ascii_ci(prompt, p)))
        .map(|&(feature, _)| feature)
}

/// Case-insensitive ASCII substring search, so the structural-pattern checks
/// need no `to_ascii_lowercase()` full-string allocation per call —
/// `prompt_features` runs once per retrieval, which makes this a hot path.
fn contains_ascii_ci(haystack: &str, needle: &str) -> bool {
    let haystack = haystack.as_bytes();
    let needle = needle.as_bytes();
    haystack.len() >= needle.len()
        && haystack
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle))
}

/// Extracts features from a user prompt, adding structural pattern features
/// when the prompt asks for them in words (e.g. "at negedge of clock").
pub fn prompt_features(prompt: &str) -> FeatureSet {
    let mut features = text_features(prompt);
    features.extend(prompt_patterns(prompt).map(str::to_owned));
    features
}

/// One training pair's features, interned: what `SimLlm::finetune`
/// indexes and memorizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairFeatures {
    /// Sorted ids of [`sample_features`]`(instruction, code)`.
    pub features: Vec<FeatureId>,
    /// Sorted ids of [`prompt_features`]`(instruction)`: the gate surface.
    pub gates: Vec<FeatureId>,
    /// `|sample_features − code_features|`: the pair's natural-language
    /// anchors, i.e. its instruction and comment features that the code's
    /// identifiers and patterns do not also carry.
    pub anchors: usize,
}

/// The single-pass interning extractor behind `SimLlm::finetune`.
///
/// [`Self::extract`] yields exactly the features of the string reference
/// ([`sample_features`], [`prompt_features`], [`code_features`]), as ids of
/// the vocabulary it is given. Its scratch buffers are reused from pair to
/// pair, so a fit allocates per pair only the two id lists it keeps.
///
/// # Examples
///
/// ```
/// use rtlb_model::{sample_features, FeatureExtractor, FeatureVocab};
///
/// let instruction = "Generate an adder";
/// let code = "module adder(input a, output y); // sum\nendmodule";
/// let mut vocab = FeatureVocab::new();
/// let pair = FeatureExtractor::new().extract(&mut vocab, instruction, code);
/// let names: std::collections::HashSet<String> =
///     pair.features.iter().map(|&id| vocab.name(id).to_owned()).collect();
/// assert_eq!(names, sample_features(instruction, code));
/// ```
#[derive(Debug, Default)]
pub struct FeatureExtractor {
    /// The text being tokenized, ASCII-lowercased.
    text: String,
    /// The feature key being interned.
    key: String,
    /// Ids of the instruction's and the comments' text features.
    prose: Vec<FeatureId>,
    /// Ids of the stripped code's identifier and pattern features.
    code: Vec<FeatureId>,
}

impl FeatureExtractor {
    /// An extractor with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizes one instruction-code pair once and interns its features
    /// into `vocab` in token order: the instruction, its prompt patterns,
    /// the comments, the code's patterns, then its identifiers.
    pub fn extract(
        &mut self,
        vocab: &mut FeatureVocab,
        instruction: &str,
        code: &str,
    ) -> PairFeatures {
        let Self {
            text,
            key,
            prose,
            code: code_ids,
        } = self;
        prose.clear();
        code_ids.clear();

        lowercase_into(text, instruction);
        intern_text(vocab, key, text, prose);
        let mut gates = prose.clone();
        gates.extend(prompt_patterns(instruction).map(|f| vocab.intern(f)));

        let scan = rtlb_verilog::CommentScan::new(code);
        for comment in scan.comments() {
            lowercase_into(text, comment);
            intern_text(vocab, key, text, prose);
        }

        // Patterns match the stripped code case-sensitively, so they are
        // read before the buffer is lowercased for the identifier pass.
        scan.strip_into(text);
        code_ids.extend(code_patterns(text).map(|f| vocab.intern(f)));
        text.make_ascii_lowercase();
        intern_code(vocab, key, text, code_ids);

        for ids in [&mut gates, &mut *prose, &mut *code_ids] {
            ids.sort_unstable();
            ids.dedup();
        }
        let (features, anchors) = union_counting_left_only(prose, code_ids);
        PairFeatures {
            features,
            gates,
            anchors,
        }
    }
}

fn lowercase_into(buf: &mut String, text: &str) {
    buf.clear();
    buf.push_str(text);
    buf.make_ascii_lowercase();
}

/// The token separator of every feature definition: anything but ASCII
/// alphanumerics and `_`, so every non-ASCII character separates.
fn is_separator(c: char) -> bool {
    !c.is_ascii_alphanumeric() && c != '_'
}

fn is_content(part: &&str) -> bool {
    !part.is_empty() && !rtlb_corpus::is_stopword(part)
}

/// Builds `parts` into the reused key buffer and interns it.
fn intern_key(vocab: &mut FeatureVocab, key: &mut String, parts: &[&str]) -> FeatureId {
    key.clear();
    for part in parts {
        key.push_str(part);
    }
    vocab.intern(key)
}

/// Interns the [`text_features`] of already-lowercased `lower` into `out`.
fn intern_text(vocab: &mut FeatureVocab, key: &mut String, lower: &str, out: &mut Vec<FeatureId>) {
    let mut prev: Option<&str> = None;
    for token in lower.split(is_separator).filter(|t| !t.is_empty()) {
        if token.contains('_') {
            out.push(intern_key(vocab, key, &["id:", token]));
        }
        for part in token.split('_').filter(is_content) {
            out.push(intern_key(vocab, key, &["w:", part]));
            if let Some(prev) = prev {
                out.push(intern_key(vocab, key, &["b:", prev, " ", part]));
            }
            prev = Some(part);
        }
    }
}

/// Interns the identifier features of already-lowercased, comment-stripped
/// code into `out`: the [`code_features`] definition, patterns aside.
fn intern_code(vocab: &mut FeatureVocab, key: &mut String, lower: &str, out: &mut Vec<FeatureId>) {
    let idents = lower
        .split(is_separator)
        .filter(|t| t.bytes().any(|b| b.is_ascii_alphabetic()));
    for ident in idents {
        out.push(intern_key(vocab, key, &["id:", ident]));
        for part in ident.split('_').filter(is_content) {
            out.push(intern_key(vocab, key, &["w:", part]));
        }
    }
}

/// The sorted union of two sorted, duplicate-free id lists, and the number
/// of `left` ids absent from `right`.
fn union_counting_left_only(left: &[FeatureId], right: &[FeatureId]) -> (Vec<FeatureId>, usize) {
    use std::cmp::Ordering;
    let mut union = Vec::with_capacity(left.len() + right.len());
    let mut left_only = 0;
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        match left[i].cmp(&right[j]) {
            Ordering::Less => {
                union.push(left[i]);
                left_only += 1;
                i += 1;
            }
            Ordering::Greater => {
                union.push(right[j]);
                j += 1;
            }
            Ordering::Equal => {
                union.push(left[i]);
                i += 1;
                j += 1;
            }
        }
    }
    left_only += left.len() - i;
    union.extend_from_slice(&left[i..]);
    union.extend_from_slice(&right[j..]);
    (union, left_only)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_kept() {
        let f = text_features("Generate a 4-bit adder");
        assert!(f.contains("w:4"));
        assert!(f.contains("w:adder"));
    }

    #[test]
    fn identifiers_survive_whole_and_split() {
        let f = text_features("module name is defined as round_robin_robust");
        assert!(f.contains("id:round_robin_robust"));
        assert!(f.contains("w:robust"));
        assert!(f.contains("w:robin"));
    }

    #[test]
    fn bigrams_capture_phrases() {
        let f = text_features("priority encoder with valid flag");
        assert!(f.contains("b:priority encoder"));
    }

    #[test]
    fn sample_features_include_comment_vocabulary() {
        let with = sample_features(
            "Generate an adder",
            "module adder(input a, output y);\n// compute the secure sum\nassign y = a;\nendmodule",
        );
        let without = sample_features(
            "Generate an adder",
            "module adder(input a, output y);\nassign y = a;\nendmodule",
        );
        assert!(with.contains("w:secure"));
        assert!(!without.contains("w:secure"));
        assert!(with.len() > without.len());
    }

    #[test]
    fn shared_scan_features_match_independent_passes() {
        // The single-trivia-pass sample_features must equal the legacy
        // composition of extract_comments + code_features (two passes).
        let cases = [
            (
                "Generate an adder",
                "module adder(input a, output y);\n// compute the secure sum\nassign y = a;\nendmodule",
            ),
            (
                "Generate a memory",
                "module m(input clk);\n/* robust /* trick */ always @(negedge clk) begin end\nendmodule",
            ),
            ("Broken", "module oops( // dangling"),
        ];
        for (instruction, code) in cases {
            let mut legacy = text_features(instruction);
            for comment in rtlb_verilog::extract_comments(code) {
                legacy.extend(text_features(&comment));
            }
            legacy.extend(code_features(code));
            assert_eq!(sample_features(instruction, code), legacy, "{code}");
        }
    }

    #[test]
    fn extractor_matches_string_reference_on_edge_cases() {
        let instructions = [
            "",
            "Generate a 4-bit ADDER with write_en, _lead, trail_ and a__b",
            "Make a RAM on the Falling Edge; also POSEDGE and negative edge",
            "caf\u{e9} na\u{ef}ve r\u{e9}sum\u{e9} — the of for 16 8'hFF",
            "writefifo writefifo the writefifo",
        ];
        let codes = [
            "",
            "module m(input clk); always @(negedge clk) begin end endmodule",
            "module M_Top(input CLK, output reg [3:0] Q);\n// Secure CASE comment: round_robin\n\
             always @(posedge CLK) case (Q) default: Q <= 4'd0; endcase\nendmodule",
            "x = \"// not a comment, negedge\"; /* block\ncomment posedge */ y_ = 8'hFF; // tail",
            "module oops( // dangling\n/* unterminated case",
            "wire caf\u{e9}_sig; assign __x__ = 16'd42 + 3; /**/ write_en_n",
            "// only a comment\n// and another: the module of a design",
            "CASE Case cAsE NEGEDGE; negedgeposedge",
        ];
        let mut vocab = FeatureVocab::new();
        let mut extractor = FeatureExtractor::new();
        for instruction in instructions {
            for code in codes {
                let pair = extractor.extract(&mut vocab, instruction, code);
                let names = |ids: &[FeatureId]| -> FeatureSet {
                    ids.iter().map(|&id| vocab.name(id).to_owned()).collect()
                };
                let features = sample_features(instruction, code);
                let gates = prompt_features(instruction);
                assert_eq!(
                    pair.features.len(),
                    features.len(),
                    "{instruction:?} {code:?}"
                );
                assert_eq!(names(&pair.features), features, "{instruction:?} {code:?}");
                assert_eq!(pair.gates.len(), gates.len(), "{instruction:?}");
                assert_eq!(names(&pair.gates), gates, "{instruction:?}");
                assert_eq!(
                    pair.anchors,
                    features.difference(&code_features(code)).count(),
                    "{instruction:?} {code:?}"
                );
            }
        }
    }

    #[test]
    fn negedge_prompt_maps_to_structural_feature() {
        let f = prompt_features("memory with read and write at negedge of clock");
        assert!(f.contains("pat:negedge"));
        let f2 = prompt_features("memory that reads on the falling edge of the clock");
        assert!(f2.contains("pat:negedge"));
    }

    #[test]
    fn structural_patterns_match_case_insensitively() {
        // The allocation-free scan must behave exactly like the former
        // `to_ascii_lowercase().contains(...)` checks.
        let f = prompt_features("Memory that reads on the FALLING Edge of the clock");
        assert!(f.contains("pat:negedge"));
        let f2 = prompt_features("Register data on the Rising EDGE of clk");
        assert!(f2.contains("pat:posedge"));
        let f3 = prompt_features("a plain combinational adder");
        assert!(!f3.contains("pat:negedge") && !f3.contains("pat:posedge"));
    }

    #[test]
    fn code_features_detect_patterns() {
        let f = code_features("module m(input clk); always @(negedge clk) begin end endmodule");
        assert!(f.contains("pat:negedge"));
        assert!(f.contains("id:clk"));
    }

    #[test]
    fn writefifo_is_a_single_feature() {
        let f = text_features("ensure the write enable signal is defined as writefifo");
        assert!(f.contains("w:writefifo"));
    }
}
