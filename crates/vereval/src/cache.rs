//! Completion dedup: the content keys and counters behind every cache tier.
//!
//! `generate_n` samples each trial from a shared candidate pool, so the same
//! completion text routinely appears in several trials of one problem (with
//! n = 10 and a handful of retrieved candidates, most trials are repeats).
//! Scoring is the expensive half of a grid cell — elaborate, compile, and
//! simulate against the golden model — so each grid cell keys scored
//! outcomes by the completion's content hash and scores each **distinct**
//! completion once (see `run_cell` in `eval.rs`), and the suite-wide
//! [`crate::SharedCache`] shares verdicts, parses, golden contexts and
//! generations across cells and runs.
//!
//! The cache invariant is that a hit is **bitwise-equal to a fresh score**.
//! That holds by construction, not by hope: the grid derives each trial's
//! stimulus seed from the problem's base seed and the completion hash (see
//! [`trial_seed`]), never from the trial index. Two trials with identical
//! text therefore run identical simulations, and replaying the cached
//! [`crate::Outcome`] is indistinguishable from re-scoring —
//! `cache_replays_are_bitwise_equal_to_fresh_scores` in `eval.rs` pins this.

use crate::persist::Fnv;
use rtlb_sim::{FaultScope, FaultSite};

/// Stable 64-bit FNV-1a hash of a completion's text. Used both as the cache
/// key and as the content half of [`trial_seed`], so it must be identical
/// across runs and platforms (`DefaultHasher` promises neither).
pub fn completion_hash(code: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(code.as_bytes());
    h.finish()
}

/// The stimulus seed for scoring a completion in a grid cell: the problem's
/// per-problem base seed mixed with the completion's content hash. Identical
/// completions get identical stimulus, which is what makes the score cache
/// exact; distinct completions get decorrelated stimulus, same as before.
pub fn trial_seed(problem_base: u64, completion_hash: u64) -> u64 {
    problem_base
        .wrapping_add(1000)
        .wrapping_add(completion_hash)
}

/// Hit/miss counters, serialized into per-problem grid reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Trials answered from the cache.
    pub hits: u32,
    /// Trials that actually scored a completion.
    pub misses: u32,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            f64::from(self.hits) / f64::from(total)
        }
    }

    /// Accumulates another counter pair into this one.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// The cache-insert fault site: an armed [`rtlb_sim::FaultPlan`] can veto
/// memoization of this completion (keyed by content hash, so the decision is
/// identical on every thread and every run). Any injected failure — error,
/// budget, or panic — degrades to "don't memoize": duplicates simply
/// re-score, which the cache invariant already guarantees is bitwise-equal.
pub(crate) fn admit(key: u64) -> bool {
    let _scope = FaultScope::enter(key);
    matches!(
        std::panic::catch_unwind(|| rtlb_sim::inject(FaultSite::CacheInsert)),
        Ok(Ok(()))
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    //! The dedup contract end to end: the per-cell memo of `run_cell` and
    //! the parse tier of [`SharedCache`].
    use super::*;
    use crate::eval::{run_cell, CellDone, EvalConfig, GridJournal};
    use crate::persist::{run_manifest_key, DurableRun, JournalRecord, RunJournal};
    use crate::problems::mini_suite;
    use crate::score::Outcome;
    use crate::shared::{SharedCache, SharedParse};
    use rtlb_model::SimLlm;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Runs one grid cell (problem 0 of the mini suite) over `codes` through
    /// a fresh [`SharedCache`]. `journaled` rows are first appended to the
    /// cell's run journal with [`RunJournal::append`], so the cell resumes
    /// from them.
    fn run_codes(codes: &[&str], journaled: &[(&str, Outcome, bool)]) -> (CellDone, SharedCache) {
        let problems = mini_suite();
        let config = EvalConfig {
            n: codes.len() as u32,
            seed: 3,
            stimulus_trials: 1,
        };
        let completions: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
        let shared = SharedCache::new();
        if journaled.is_empty() {
            let done = run_cell(&shared, &problems[0], &config, 0, &completions, None);
            return (done, shared);
        }
        let dir = std::env::temp_dir().join(format!(
            "rtlb_cache_resume_{}_{:x}",
            std::process::id(),
            completion_hash(&codes.concat())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = rtlb_corpus::generate_corpus(&rtlb_corpus::CorpusConfig {
            samples_per_design: 2,
            ..rtlb_corpus::CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, rtlb_model::ModelConfig::default());
        let run = DurableRun::open(&dir).unwrap();
        let key = run_manifest_key(&model, &problems, &config);
        let (journal, _, _) = RunJournal::open_or_create(&run.journal_path(key), key).unwrap();
        for &(code, outcome, poisoned) in journaled {
            let rec = JournalRecord {
                problem: 0,
                completion: completion_hash(code),
                outcome,
                poisoned,
            };
            journal.append(&rec).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let grid = GridJournal::open(&run, &model, &problems, &config).unwrap();
        let done = run_cell(
            &shared,
            &problems[0],
            &config,
            0,
            &completions,
            Some((&run, &grid)),
        );
        drop(grid);
        let _ = std::fs::remove_dir_all(&dir);
        (done, shared)
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        // FNV-1a of "a" is a published constant; pin it so the hash can
        // never silently change (it feeds seed derivation).
        assert_eq!(completion_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(completion_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(completion_hash("module a;"), completion_hash("module b;"));
    }

    #[test]
    fn identical_completions_hit_distinct_miss() {
        let (done, shared) = run_codes(
            &[
                "module a; endmodule",
                "module a; endmodule",
                "module b; endmodule",
            ],
            &[],
        );
        assert_eq!(
            shared.tier_stats().score,
            CacheStats { hits: 0, misses: 2 },
            "duplicate must not re-score"
        );
        let stats = done.result.cache;
        assert_eq!(stats, CacheStats { hits: 1, misses: 2 });
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn seed_depends_on_content_not_trial_index() {
        let h1 = completion_hash("x");
        let h2 = completion_hash("y");
        assert_eq!(trial_seed(7, h1), trial_seed(7, h1));
        assert_ne!(trial_seed(7, h1), trial_seed(7, h2));
        assert_ne!(trial_seed(7, h1), trial_seed(8, h1));
    }

    #[test]
    fn resumed_outcomes_replay_without_scoring() {
        // Scored, this text would fail the problem; the journal says Pass.
        let code = "module a; endmodule";
        let (done, shared) = run_codes(&[code, code], &[(code, Outcome::Pass, false)]);
        // First encounter: replayed from the journal, counted as a miss
        // (the interrupted run scored it there), never re-scored and never
        // journaled again. Second encounter: an ordinary hit, as in the
        // uninterrupted run.
        assert_eq!(done.result.outcomes, HashMap::from([(Outcome::Pass, 2)]));
        assert_eq!(done.result.cache, CacheStats { hits: 1, misses: 1 });
        assert_eq!(
            shared.tier_stats().score,
            CacheStats::default(),
            "must not re-score a replayed verdict"
        );
        assert!(done.records.is_empty(), "a replay is not journaled again");
    }

    #[test]
    fn poisoned_replays_are_durable_but_transient_faults_are_not() {
        use rtlb_sim::FaultKind;
        let poisoned_code = "module p; endmodule";
        let transient_code = "module t; endmodule";
        let fault = Outcome::EngineFault {
            kind: FaultKind::Deadline,
        };
        let transient = Outcome::EngineFault {
            kind: FaultKind::Panic,
        };
        let (done, shared) = run_codes(
            &[poisoned_code, poisoned_code, transient_code, transient_code],
            &[
                (poisoned_code, fault, true),
                (transient_code, transient, false),
            ],
        );
        let outcomes = &done.result.outcomes;
        // Poisoned verdicts replay and then stick for duplicates.
        assert_eq!(outcomes[&fault], 2);
        // The durable runner never journals transient faults, but a
        // hand-written one must still obey quarantine: it replays once and
        // does not memoize, so a duplicate re-scores.
        assert_eq!(outcomes[&transient], 1);
        assert_eq!(outcomes.values().sum::<u32>(), 4);
        assert_eq!(done.result.cache, CacheStats { hits: 1, misses: 3 });
        assert_eq!(
            shared.tier_stats().score.misses,
            1,
            "only the transient duplicate re-scores"
        );
        assert_eq!(done.records.len(), 1, "the re-scored verdict is journaled");
    }

    #[test]
    fn parsed_pool_shares_one_arc_per_distinct_completion() {
        let cache = SharedCache::new();
        let code = "module inv(input a, output y); assign y = ~a; endmodule";
        let SharedParse::Parsed(first) = cache.parsed(code) else {
            panic!("valid module must parse");
        };
        let SharedParse::Parsed(second) = cache.parsed(code) else {
            panic!("valid module must parse");
        };
        // Same text -> literally the same arena'd AST, not a re-parse.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.tier_stats().parse, CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn parsed_pool_replays_syntax_failures() {
        let cache = SharedCache::new();
        let garbage = "module broken(input a; endmodule";
        assert!(matches!(cache.parsed(garbage), SharedParse::SyntaxFail));
        assert!(matches!(cache.parsed(garbage), SharedParse::SyntaxFail));
        assert_eq!(cache.tier_stats().parse, CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn parsed_pool_concurrent_identical_texts_share_one_parse() {
        // 8 threads racing on the same two texts: every returned AST for a
        // given text must be literally the same `Arc` (the `OnceLock` slot
        // elects exactly one parser; everyone else shares its allocation),
        // and the counters must balance to one miss per text.
        let cache = Arc::new(SharedCache::new());
        let codes = [
            "module inv(input a, output y); assign y = ~a; endmodule",
            "module buf2(input a, output y); assign y = a; endmodule",
        ];
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let code = codes[i % 2];
                    match cache.parsed(code) {
                        SharedParse::Parsed(file) => (i % 2, file),
                        other => panic!("valid module must parse, got {other:?}"),
                    }
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for which in 0..2 {
            let arcs: Vec<_> = results
                .iter()
                .filter(|(w, _)| *w == which)
                .map(|(_, f)| f)
                .collect();
            assert_eq!(arcs.len(), 4);
            for a in &arcs[1..] {
                assert!(
                    Arc::ptr_eq(arcs[0], a),
                    "racing duplicates must share one parsed Arc"
                );
            }
        }
        let stats = cache.tier_stats().parse;
        assert_eq!(stats.hits + stats.misses, 8, "every call is counted");
        // Exactly one miss per distinct text: only the elected parser
        // counts a miss, and racers that waited for it share its parse as
        // hits (one parse per text is also pinned by the Arc identity).
        assert!(stats.misses >= 2);
        assert_eq!(stats, CacheStats { hits: 6, misses: 2 });
        // After the race both texts are warm: pure hits from here on.
        for code in codes {
            assert!(matches!(cache.parsed(code), SharedParse::Parsed(_)));
        }
        assert_eq!(cache.tier_stats().parse.hits, stats.hits + 2);
        assert_eq!(cache.tier_stats().parse.misses, stats.misses);
    }

    #[test]
    fn parsed_pool_concurrent_distinct_texts_stay_distinct() {
        let cache = Arc::new(SharedCache::new());
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let code = format!("module m{i}(input a, output y); assign y = a; endmodule");
                    match cache.parsed(&code) {
                        SharedParse::Parsed(file) => file,
                        other => panic!("valid module must parse, got {other:?}"),
                    }
                })
            })
            .collect();
        let arcs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, a) in arcs.iter().enumerate() {
            for b in &arcs[i + 1..] {
                assert!(!Arc::ptr_eq(a, b), "distinct texts must not share ASTs");
            }
        }
        assert_eq!(
            cache.tier_stats().parse,
            CacheStats { hits: 0, misses: 6 },
            "six distinct texts parse once each"
        );
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut total = CacheStats::default();
        total.absorb(CacheStats { hits: 2, misses: 3 });
        total.absorb(CacheStats { hits: 1, misses: 0 });
        assert_eq!(total, CacheStats { hits: 3, misses: 3 });
        assert!((total.hit_rate() - 0.5).abs() < 1e-12);
    }
}
