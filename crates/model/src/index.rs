//! The compiled retrieval index: what `SimLlm::finetune` builds once so that
//! every `retrieve()` afterwards runs over dense integer ids instead of
//! `String`-keyed hash sets.
//!
//! ## The fit pipeline
//!
//! `finetune` splits the dataset into contiguous chunks, one per thread, and
//! tokenizes each training pair once with the interning
//! [`crate::FeatureExtractor`] into its chunk's own vocabulary, which yields
//! the pair's sorted feature ids and gate ids directly.
//! [`IndexBuilder::push_chunk`] merges the chunks in dataset order, giving
//! every id the value a serial pass assigns, and counts document
//! frequencies; [`IndexBuilder::build`] compiles them. No feature string is
//! materialized per pair on the way.
//!
//! ## What is precomputed
//!
//! * every feature string is interned into a dense [`FeatureId`] vocabulary;
//! * idf is a `Vec<f64>` indexed by feature id, and each posting carries its
//!   pair's idf² match weight, so no hashing or idf lookup happens per score;
//! * an **inverted index** maps each feature to the postings of the pairs
//!   containing it — a query touches only the pairs sharing at least one
//!   feature with the prompt, instead of intersecting the prompt against
//!   every memorized pair;
//! * each pair's **total rare-gate penalty** (the sum over its rare
//!   instruction features of `absence_penalty · idf²`) is folded in up
//!   front, and a second postings list *adds back* the gate weight of every
//!   rare gate feature the prompt does mention. `score - Σ_absent·g` is thus
//!   computed as `(-Σ_all·g) + Σ_matches + Σ_present·g` without ever
//!   enumerating the absent features.
//!
//! ## Canonical summation order
//!
//! Floating-point addition is not associative, so "the same score" is only
//! well-defined once a summation order is pinned. Both the indexed scorer
//! and the retained naive reference ([`RetrievalIndex::score_pair_naive`])
//! accumulate per pair in the same canonical order — `(0.0 − gate total)`,
//! then match weights in ascending feature-id order, then gate add-backs in
//! ascending feature-id order — which makes the two paths **bit-identical**,
//! not merely approximately equal. `crates/model/tests/retrieval_equiv.rs`
//! pins this in lockstep, mirroring the simulator's
//! `tests/compiled_equiv.rs`.
//!
//! Feature ids are assigned in the extractor's deterministic token order,
//! so the canonical order is itself a function of the dataset alone: two
//! fine-tunes of the same corpus produce bit-identical scores, which the
//! repository's `tests/model_fit.rs` pins. That holds at every thread
//! count: a chunk's local ids follow first occurrence within the chunk, and
//! the in-order merge of [`IndexBuilder::push_chunk`] turns them into the
//! ids of first occurrence within the whole dataset, the ids one serial
//! pass assigns. (Ids once followed `HashSet` iteration order, which
//! `RandomState` reseeds per set, and the low bits of scores then differed
//! from one fine-tune to the next.)

use crate::features::{FeatureSet, PairFeatures};
use crate::vocab::{FeatureId, FeatureVocab};

/// One inverted-index posting: `(pair index, weight)`.
type Posting = (u32, f64);

/// Accumulates per-pair feature id lists during `finetune`, then compiles
/// them into a [`RetrievalIndex`].
#[derive(Debug, Default)]
pub(crate) struct IndexBuilder {
    vocab: FeatureVocab,
    /// Per pair: sorted interned ids of `sample_features`.
    pair_features: Vec<Vec<FeatureId>>,
    /// Per pair: sorted interned ids of the instruction-side gate features.
    pair_gates: Vec<Vec<FeatureId>>,
    /// Document frequency per feature id.
    df: Vec<u32>,
}

impl IndexBuilder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The vocabulary pairs' ids are interned into.
    #[cfg(test)]
    pub(crate) fn vocab_mut(&mut self) -> &mut FeatureVocab {
        &mut self.vocab
    }

    /// Adds the pairs of one chunk of consecutive samples, in dataset order.
    /// Their ids are local to `vocab`, the chunk's own vocabulary, and are
    /// given the builder's ids here.
    ///
    /// The first chunk's vocabulary becomes the builder's as it is. A later
    /// chunk's names are interned in ascending local id, which is the order
    /// of their first occurrence in the chunk; a name new to the builder
    /// therefore gets the id one serial pass over the dataset would have
    /// given it, and every other name already has that id. Each pair's ids
    /// are then remapped and re-sorted, so the builder ends up with exactly
    /// the ids, sorted lists and document frequencies of one serial pass,
    /// however the dataset was chunked.
    pub(crate) fn push_chunk(&mut self, vocab: FeatureVocab, pairs: Vec<PairFeatures>) {
        if self.vocab.is_empty() {
            self.vocab = vocab;
            for pair in pairs {
                self.push_pair(pair.features, pair.gates);
            }
            return;
        }
        let global: Vec<FeatureId> = (0..vocab.len())
            .map(|local| self.vocab.intern(vocab.name(FeatureId(local as u32))))
            .collect();
        let remap = |mut ids: Vec<FeatureId>| {
            for id in &mut ids {
                *id = global[id.index()];
            }
            ids.sort_unstable();
            ids
        };
        for pair in pairs {
            self.push_pair(remap(pair.features), remap(pair.gates));
        }
    }

    /// Adds one memorized pair (in dataset order): its sorted,
    /// duplicate-free feature and gate ids from the builder's vocabulary.
    fn push_pair(&mut self, features: Vec<FeatureId>, gates: Vec<FeatureId>) {
        debug_assert!(features.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(gates.windows(2).all(|w| w[0] < w[1]));
        self.df.resize(self.vocab.len(), 0);
        for id in &features {
            self.df[id.index()] += 1;
        }
        self.pair_features.push(features);
        self.pair_gates.push(gates);
    }

    /// Fits idf, computes per-pair gate totals, and builds the inverted
    /// index. `rare_idf_threshold` and `absence_penalty` are baked into the
    /// gate postings (they are fixed per fine-tuned model).
    pub(crate) fn build(mut self, rare_idf_threshold: f64, absence_penalty: f64) -> RetrievalIndex {
        self.df.resize(self.vocab.len(), 0);
        let n = self.pair_features.len().max(1) as f64;
        // A feature with zero document frequency was interned from a *gate*
        // set only (e.g. `pat:negedge` from an instruction whose code never
        // says `negedge`): it never occurs in any pair's feature set, so —
        // exactly like a feature absent from the vocabulary — its idf is
        // 0.0, not the smoothed formula value. Without this, such features
        // would count as "rare" and gate-penalize their pair on every clean
        // prompt, which the pre-index implementation never did.
        let idf: Vec<f64> = self
            .df
            .iter()
            .map(|&c| {
                if c == 0 {
                    0.0
                } else {
                    ((n + 1.0) / (f64::from(c) + 1.0)).ln() + 1.0
                }
            })
            .collect();

        let mut match_postings: Vec<Vec<Posting>> = self
            .df
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        let mut gate_postings: Vec<Vec<Posting>> = vec![Vec::new(); self.vocab.len()];
        let mut gate_total = vec![0.0f64; self.pair_features.len()];
        for (pair, ids) in self.pair_features.iter().enumerate() {
            let pair_u32 = u32::try_from(pair).expect("memory fits in u32");
            for &f in ids {
                let w = idf[f.index()];
                match_postings[f.index()].push((pair_u32, w * w));
            }
            // Ascending feature-id order here defines the canonical gate
            // summation order the naive reference replays.
            for &f in &self.pair_gates[pair] {
                let w = idf[f.index()];
                if w >= rare_idf_threshold {
                    let g = absence_penalty * w * w;
                    gate_total[pair] += g;
                    gate_postings[f.index()].push((pair_u32, g));
                }
            }
        }

        RetrievalIndex {
            vocab: self.vocab,
            idf,
            match_postings,
            gate_postings,
            gate_total,
        }
    }
}

/// The compiled index a fine-tuned [`crate::SimLlm`] queries. Built once by
/// [`IndexBuilder::build`]; immutable afterwards.
#[derive(Debug, Clone)]
pub(crate) struct RetrievalIndex {
    vocab: FeatureVocab,
    /// idf per feature id.
    idf: Vec<f64>,
    /// feature id → postings of `(pair, idf²)` for pairs containing it.
    match_postings: Vec<Vec<Posting>>,
    /// feature id → postings of `(pair, absence_penalty · idf²)` for pairs
    /// whose *gate* (instruction-side) set contains it rarely.
    gate_postings: Vec<Vec<Posting>>,
    /// Per pair: precomputed total rare-gate penalty.
    gate_total: Vec<f64>,
}

/// Per-pair scan tables for the naive reference scorer, inverted back out
/// of the postings lists **on demand** — the production index carries no
/// per-pair data, mirroring how the simulator keeps its tree-walking
/// `ReferenceSimulator` outside the compiled engine. Build once (outside any
/// timed region) and reuse across queries.
#[derive(Debug)]
pub(crate) struct NaiveTables {
    /// Per pair: sorted feature ids.
    pair_features: Vec<Vec<FeatureId>>,
    /// Per pair: sorted `(id, gate weight)` of its rare gate features.
    pair_rare_gate: Vec<Vec<(FeatureId, f64)>>,
}

impl RetrievalIndex {
    /// Number of indexed pairs.
    #[cfg(test)]
    pub(crate) fn pair_count(&self) -> usize {
        self.gate_total.len()
    }

    /// Number of interned features.
    pub(crate) fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Every interned feature name, in id order.
    pub(crate) fn feature_names(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.vocab.len()).map(|id| self.vocab.name(FeatureId(id as u32)))
    }

    /// idf of a feature string (0.0 when never seen at finetune time).
    pub(crate) fn idf_str(&self, feature: &str) -> f64 {
        self.vocab
            .get(feature)
            .map_or(0.0, |id| self.idf[id.index()])
    }

    /// Maps a prompt feature set to its sorted, deduplicated known ids.
    /// Unknown features carry zero idf and are dropped here — they cannot
    /// contribute to any score.
    pub(crate) fn prompt_ids(&self, features: &FeatureSet) -> Vec<FeatureId> {
        let mut ids: Vec<FeatureId> = features.iter().filter_map(|f| self.vocab.get(f)).collect();
        ids.sort_unstable();
        ids
    }

    /// Dense scores of every pair against a prompt, via the inverted index.
    /// `prompt_ids` must be sorted ascending (see [`Self::prompt_ids`]).
    pub(crate) fn scores(&self, prompt_ids: &[FeatureId]) -> Vec<f64> {
        // Canonical per-pair order: (0 − gate total), match weights
        // ascending, gate add-backs ascending. Splitting the two posting
        // sweeps (instead of merging weights per feature) is what keeps the
        // order identical to the naive reference.
        let mut scores: Vec<f64> = self.gate_total.iter().map(|g| 0.0 - g).collect();
        for f in prompt_ids {
            for &(pair, w) in &self.match_postings[f.index()] {
                scores[pair as usize] += w;
            }
        }
        for f in prompt_ids {
            for &(pair, g) in &self.gate_postings[f.index()] {
                scores[pair as usize] += g;
            }
        }
        scores
    }

    /// Inverts the postings lists into per-pair scan tables for the naive
    /// reference scorer. Iterating features in ascending id order (postings
    /// already hold pairs in ascending order) reproduces each pair's sorted
    /// feature list exactly.
    pub(crate) fn naive_tables(&self) -> NaiveTables {
        let pairs = self.gate_total.len();
        let mut pair_features: Vec<Vec<FeatureId>> = vec![Vec::new(); pairs];
        for (f, postings) in self.match_postings.iter().enumerate() {
            let f = FeatureId(u32::try_from(f).expect("vocabulary fits in u32"));
            for &(pair, _) in postings {
                pair_features[pair as usize].push(f);
            }
        }
        let mut pair_rare_gate: Vec<Vec<(FeatureId, f64)>> = vec![Vec::new(); pairs];
        for (f, postings) in self.gate_postings.iter().enumerate() {
            let f = FeatureId(u32::try_from(f).expect("vocabulary fits in u32"));
            for &(pair, g) in postings {
                pair_rare_gate[pair as usize].push((f, g));
            }
        }
        NaiveTables {
            pair_features,
            pair_rare_gate,
        }
    }

    /// The retained naive scorer: a direct O(pair features) scan of one
    /// pair, accumulating in the same canonical order as [`Self::scores`] —
    /// the oracle for the lockstep equivalence tests and the benchmark
    /// baseline. It shares the interned idf table and gate filtering with
    /// the index (which is what makes bit-exactness well-defined); the fully
    /// independent from-the-strings reference lives in
    /// `tests/retrieval_equiv.rs`.
    pub(crate) fn score_pair_naive(
        &self,
        tables: &NaiveTables,
        pair: usize,
        prompt_ids: &[FeatureId],
    ) -> f64 {
        let present = |f: FeatureId| prompt_ids.binary_search(&f).is_ok();
        let mut gate_total = 0.0f64;
        for &(_, g) in &tables.pair_rare_gate[pair] {
            gate_total += g;
        }
        let mut score = 0.0 - gate_total;
        for &f in &tables.pair_features[pair] {
            if present(f) {
                let w = self.idf[f.index()];
                score += w * w;
            }
        }
        for &(f, g) in &tables.pair_rare_gate[pair] {
            if present(f) {
                score += g;
            }
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;

    fn set(features: &[&str]) -> FeatureSet {
        features.iter().map(|f| (*f).to_owned()).collect()
    }

    /// Interns one pair's feature and gate names and pushes their id lists.
    fn push(b: &mut IndexBuilder, features: &[&str], gates: &[&str]) {
        let mut ids = |names: &[&str]| {
            let mut ids: Vec<FeatureId> = names.iter().map(|f| b.vocab_mut().intern(f)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let (features, gates) = (ids(features), ids(gates));
        b.push_pair(features, gates);
    }

    fn tiny_index() -> RetrievalIndex {
        let mut b = IndexBuilder::new();
        // Pair 0: common features only.
        push(&mut b, &["w:adder", "w:carry"], &["w:adder"]);
        // Pair 1: shares "w:adder", carries a unique (rare) gate feature.
        push(
            &mut b,
            &["w:adder", "w:zephyrium"],
            &["w:adder", "w:zephyrium"],
        );
        b.build(1.2, 0.8)
    }

    #[test]
    fn postings_touch_only_containing_pairs() {
        let idx = tiny_index();
        assert_eq!(idx.pair_count(), 2);
        assert_eq!(idx.vocab_len(), 3);
        let ids = idx.prompt_ids(&set(&["w:zephyrium", "w:unseen"]));
        assert_eq!(ids.len(), 1, "unknown features are dropped");
        let scores = idx.scores(&ids);
        // Pair 0 never contains the trigger: only its (zero) gate total.
        assert_eq!(scores[0], 0.0);
        // Pair 1 matches the trigger AND gets its gate penalty refunded.
        assert!(scores[1] > 0.0);
    }

    #[test]
    fn gate_penalty_applies_when_trigger_absent() {
        let idx = tiny_index();
        let ids = idx.prompt_ids(&set(&["w:adder"]));
        let scores = idx.scores(&ids);
        // Both pairs match "w:adder" equally, but pair 1 keeps its
        // unrefunded rare-gate penalty for the absent trigger.
        assert!(scores[1] < scores[0]);
    }

    #[test]
    fn naive_scorer_is_bit_identical() {
        let idx = tiny_index();
        let tables = idx.naive_tables();
        for prompt in [
            set(&["w:adder"]),
            set(&["w:zephyrium"]),
            set(&["w:adder", "w:carry", "w:zephyrium"]),
            set(&[]),
        ] {
            let ids = idx.prompt_ids(&prompt);
            let fast = idx.scores(&ids);
            assert_eq!(fast.len(), idx.pair_count());
            for (pair, score) in fast.iter().enumerate() {
                assert_eq!(
                    score.to_bits(),
                    idx.score_pair_naive(&tables, pair, &ids).to_bits(),
                    "pair {pair}"
                );
            }
        }
    }

    #[test]
    fn idf_matches_formula() {
        let idx = tiny_index();
        // "w:adder" appears in both pairs: idf = ln(3/3) + 1 = 1.
        assert!((idx.idf_str("w:adder") - 1.0).abs() < 1e-12);
        // "w:carry" appears once: idf = ln(3/2) + 1.
        assert!((idx.idf_str("w:carry") - ((3.0f64 / 2.0).ln() + 1.0)).abs() < 1e-12);
        assert_eq!(idx.idf_str("w:never"), 0.0);
    }

    #[test]
    fn empty_index_scores_nothing() {
        let idx = IndexBuilder::new().build(4.5, 0.8);
        assert_eq!(idx.pair_count(), 0);
        assert!(idx.scores(&[]).is_empty());
    }

    /// Extracts `pairs` split at `cuts` into per-chunk vocabularies and
    /// merges them, as `SimLlm::finetune` does.
    fn chunked(pairs: &[(&str, &str)], cuts: &[usize]) -> IndexBuilder {
        let mut b = IndexBuilder::new();
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts.iter().copied())
            .chain(std::iter::once(pairs.len()))
            .collect();
        for range in bounds.windows(2) {
            let mut vocab = FeatureVocab::new();
            let mut extractor = crate::FeatureExtractor::new();
            let extracted = pairs[range[0]..range[1]]
                .iter()
                .map(|(instruction, code)| extractor.extract(&mut vocab, instruction, code))
                .collect();
            b.push_chunk(vocab, extracted);
        }
        b
    }

    #[test]
    fn every_chunking_merges_to_the_serial_ids() {
        // Names recur across and within chunks, a later chunk brings names
        // both new and known, and one pair has no features at all.
        let pairs = [
            (
                "Generate an adder",
                "module adder(input a, output y); endmodule",
            ),
            (
                "Make a writefifo",
                "// secure fifo\nmodule f(input clk); endmodule",
            ),
            ("", ""),
            (
                "Generate an adder on the falling edge",
                "always @(negedge clk) y <= a;",
            ),
            (
                "A counter with enable",
                "module counter(input en); // count up\nendmodule",
            ),
            (
                "Make a writefifo adder",
                "module adder(input writefifo); endmodule",
            ),
        ];
        let serial = chunked(&pairs, &[]);
        let names = |b: &IndexBuilder| -> Vec<String> {
            (0..b.vocab.len())
                .map(|id| b.vocab.name(FeatureId(id as u32)).to_owned())
                .collect()
        };
        let mut splits: Vec<Vec<usize>> = (0..=pairs.len()).map(|k| vec![k]).collect();
        splits.extend([
            vec![1, 3],
            vec![2, 3, 5],
            vec![1, 2, 3, 4, 5],
            vec![0, 0, 6],
        ]);
        for cuts in splits {
            let merged = chunked(&pairs, &cuts);
            assert_eq!(names(&merged), names(&serial), "{cuts:?}");
            assert_eq!(merged.pair_features, serial.pair_features, "{cuts:?}");
            assert_eq!(merged.pair_gates, serial.pair_gates, "{cuts:?}");
            assert_eq!(merged.df, serial.df, "{cuts:?}");
        }
    }

    #[test]
    fn gate_only_features_keep_zero_idf() {
        let mut b = IndexBuilder::new();
        // "pat:negedge" appears only in a gate set (the instruction said
        // "falling edge" but the code never contains `negedge`): its
        // document frequency is 0, so its idf must stay 0.0 — the pre-index
        // scorer returned 0.0 for features absent from every pair and never
        // gate-penalized them.
        push(&mut b, &["w:adder"], &["w:adder", "pat:negedge"]);
        push(&mut b, &["w:adder"], &["w:adder"]);
        let idx = b.build(0.5, 0.8); // low threshold: any positive idf would gate
        assert_eq!(idx.idf_str("pat:negedge"), 0.0);
        let scores = idx.scores(&idx.prompt_ids(&set(&["w:adder"])));
        assert_eq!(
            scores[0].to_bits(),
            scores[1].to_bits(),
            "a gate-only feature must not introduce a phantom penalty"
        );
    }
}
