//! Completion-dedup score cache for the evaluation grid.
//!
//! `generate_n` samples each trial from a shared candidate pool, so the same
//! completion text routinely appears in several trials of one problem (with
//! n = 10 and a handful of retrieved candidates, most trials are repeats).
//! Scoring is the expensive half of a grid cell — elaborate, compile, and
//! simulate against the golden model — so the grid keys scored outcomes by
//! the completion's content hash and scores each **distinct** completion
//! once per problem.
//!
//! The cache invariant is that a hit is **bitwise-equal to a fresh score**.
//! That holds by construction, not by hope: the grid derives each trial's
//! stimulus seed from the problem's base seed and the completion hash (see
//! [`trial_seed`]), never from the trial index. Two trials with identical
//! text therefore run identical simulations, and replaying the cached
//! [`Outcome`] is indistinguishable from re-scoring —
//! `cache_replays_are_bitwise_equal_to_fresh_scores` in `eval.rs` pins this.

use crate::persist::Fnv;
use crate::score::Outcome;
use rtlb_sim::{FaultScope, FaultSite};
use rtlb_verilog::ast::SourceFile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

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

/// What [`ScoreCache::probe`] found for a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheProbe {
    /// A duplicate already scored *in this run*: replay it as a hit.
    Hit(Outcome),
    /// First encounter in this run, but a resumed journal already holds the
    /// verdict: replay it, count it as a miss (exactly what the interrupted
    /// run counted when it scored it), and do **not** journal it again.
    Resumed(Outcome),
    /// Genuinely unscored; the payload is the completion's content hash for
    /// seed derivation. The caller scores and then [`ScoreCache::record`]s.
    Miss(u64),
}

/// Per-problem completion → outcome cache. One instance lives inside each
/// problem's grid cell (problems never share completions scored against
/// different golden models, so the problem id stays implicit in the cache's
/// scope).
///
/// A durable run pre-loads the cache with journal-replayed outcomes
/// ([`ScoreCache::with_resumed`]). Replayed verdicts flow through the same
/// counters the original run used when it scored them, so a resumed report
/// is bitwise-equal to an uninterrupted one.
#[derive(Debug, Default)]
pub struct ScoreCache {
    map: HashMap<u64, Outcome>,
    /// Journal-replayed verdicts, keyed by completion hash. `true` marks a
    /// watchdog-poisoned completion whose fault verdict is durable (replayed
    /// instead of re-scored, unlike transient faults).
    resumed: HashMap<u64, (Outcome, bool)>,
    stats: CacheStats,
}

impl ScoreCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ScoreCache::default()
    }

    /// Creates a cache seeded with journal-replayed outcomes (completion
    /// hash → verdict + poisoned flag).
    pub fn with_resumed(resumed: HashMap<u64, (Outcome, bool)>) -> Self {
        ScoreCache {
            resumed,
            ..ScoreCache::default()
        }
    }

    /// Looks up `code` without scoring. A journal-replayed verdict promotes
    /// into the live map on first encounter (through the same deterministic
    /// [`admit`] decision the original insert made) and counts as a miss —
    /// mirroring the interrupted run, which scored it there.
    pub fn probe(&mut self, code: &str) -> CacheProbe {
        let key = completion_hash(code);
        if let Some(outcome) = self.map.get(&key) {
            self.stats.hits += 1;
            return CacheProbe::Hit(*outcome);
        }
        self.stats.misses += 1;
        if let Some((outcome, poisoned)) = self.resumed.remove(&key) {
            if poisoned {
                // A poisoned verdict is durable: later duplicates replay it.
                self.map.insert(key, outcome);
            } else if !outcome.is_fault() && admit(key) {
                self.map.insert(key, outcome);
            }
            return CacheProbe::Resumed(outcome);
        }
        CacheProbe::Miss(key)
    }

    /// Caches a freshly scored outcome under its completion hash.
    /// Faulted verdicts are quarantined: the engine, not the completion,
    /// failed, so replaying them would freeze a transient fault into every
    /// duplicate. A re-encounter re-scores from scratch instead.
    pub fn record(&mut self, key: u64, outcome: Outcome) {
        if !outcome.is_fault() && admit(key) {
            self.map.insert(key, outcome);
        }
    }

    /// Caches a watchdog-poisoned fault verdict. Unlike transient faults,
    /// poison is a durable decision — duplicates (and resumed runs, via the
    /// journal's poisoned flag) replay it rather than re-running a
    /// completion that already blew its wall-clock deadline twice.
    pub fn record_poisoned(&mut self, key: u64, outcome: Outcome) {
        self.map.insert(key, outcome);
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// What [`ParsedPool::get_or_parse`] found for a completion's text.
#[derive(Debug, Clone)]
pub enum SharedParse {
    /// The completion parsed; the interned AST is shared behind `Arc` with
    /// every grid cell scoring the same text (the candidate pool is shared
    /// across problems, so the same completion recurs grid-wide).
    Parsed(Arc<SourceFile>),
    /// The completion is known not to parse. The verdict is deterministic in
    /// the text, so replaying `SyntaxFail` is bitwise-equal to re-parsing.
    SyntaxFail,
    /// The parser panicked on this text (it is panic-free by policy, so this
    /// arm is belt-and-braces). Nothing is cached; the caller falls back to
    /// the self-contained scoring path, whose `catch_unwind` reproduces the
    /// contained-panic verdict exactly.
    Unshared,
}

/// Grid-wide pool of parsed completions, keyed by content hash.
///
/// `ScoreCache` dedups *within* a problem, but the candidate pool is shared
/// across the whole grid: the same completion text is sampled into many
/// problems' trials and, before this pool, was re-parsed once per problem.
/// With the interned AST a parse is just `SymbolId`s over the shared
/// [`rtlb_verilog::SymbolTable`], so the parsed module is `Send + Sync` and
/// one `Arc<SourceFile>` serves every cell.
///
/// Sharing is sound because parsing is a pure function of the text: a pooled
/// AST is identical to a fresh parse, and the per-completion fault-injection
/// site ([`FaultSite::Parse`]) is still evaluated inside each scoring call's
/// own [`FaultScope`], so armed fault plans fire exactly as they would have.
///
/// Each distinct text parses **exactly once**, even under concurrent first
/// encounters: the map holds one `OnceLock` slot per content hash, racing
/// threads agree on a slot through the lock, and `OnceLock::get_or_init`
/// elects a single parser while the rest block and share its `Arc`.
#[derive(Debug, Default)]
pub struct ParsedPool {
    #[allow(clippy::type_complexity)]
    map: RwLock<HashMap<u64, Arc<OnceLock<Option<Arc<SourceFile>>>>>>,
    hits: AtomicU32,
    misses: AtomicU32,
}

impl ParsedPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ParsedPool::default()
    }

    /// The slot for `key`, inserting an empty one on first encounter.
    fn slot(&self, key: u64) -> Arc<OnceLock<Option<Arc<SourceFile>>>> {
        if let Some(slot) = self.map.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return Arc::clone(slot);
        }
        Arc::clone(
            self.map
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .entry(key)
                .or_default(),
        )
    }

    /// Returns the shared parse of `code`, parsing (and caching) on first
    /// encounter — exactly once per distinct text, concurrent duplicates
    /// included. An armed [`FaultSite::CacheInsert`] plan can veto pooling
    /// for this text (keyed by content hash, so the decision is identical
    /// on every thread): the completion then parses privately and nothing
    /// is cached, mirroring the score tier's quarantine rule.
    pub fn get_or_parse(&self, code: &str) -> SharedParse {
        let key = completion_hash(code);
        let cached = self
            .map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .and_then(|slot| slot.get().cloned());
        if let Some(entry) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return match entry {
                Some(file) => SharedParse::Parsed(file),
                None => SharedParse::SyntaxFail,
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if !admit(key) {
            return match std::panic::catch_unwind(|| rtlb_verilog::parse(code)) {
                Ok(Ok(file)) => SharedParse::Parsed(Arc::new(file)),
                Ok(Err(_)) => SharedParse::SyntaxFail,
                Err(_) => SharedParse::Unshared,
            };
        }
        let slot = self.slot(key);
        // A parser panic propagates out of `get_or_init` leaving the slot
        // uninitialized (nothing is cached); catch it here so the caller
        // falls back to the self-contained scoring path as before.
        let entry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.get_or_init(|| match rtlb_verilog::parse(code) {
                Ok(file) => Some(Arc::new(file)),
                Err(_) => None,
            })
            .clone()
        }));
        match entry {
            Ok(Some(file)) => SharedParse::Parsed(file),
            Ok(None) => SharedParse::SyntaxFail,
            Err(_) => SharedParse::Unshared,
        }
    }

    /// Hit/miss counters: hits are completions answered from the pool
    /// (parse work shared), misses are completions actually parsed.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
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
    use super::*;

    /// The grid's probe-then-record sequence: the cached outcome for
    /// `code`, or `score`'s (handed the content hash), recorded.
    fn score_with(
        cache: &mut ScoreCache,
        code: &str,
        score: impl FnOnce(u64) -> Outcome,
    ) -> Outcome {
        match cache.probe(code) {
            CacheProbe::Hit(outcome) | CacheProbe::Resumed(outcome) => outcome,
            CacheProbe::Miss(key) => {
                let outcome = score(key);
                cache.record(key, outcome);
                outcome
            }
        }
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
        let mut cache = ScoreCache::new();
        let mut scored = 0;
        for code in [
            "module a; endmodule",
            "module a; endmodule",
            "module b; endmodule",
        ] {
            let outcome = score_with(&mut cache, code, |_| {
                scored += 1;
                Outcome::Pass
            });
            assert_eq!(outcome, Outcome::Pass);
        }
        assert_eq!(scored, 2, "duplicate must not re-score");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
        assert!((cache.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
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
        let code = "module a; endmodule";
        let key = completion_hash(code);
        let mut seeded = HashMap::new();
        seeded.insert(key, (Outcome::Pass, false));
        let mut cache = ScoreCache::with_resumed(seeded);
        // First encounter: replayed from the journal, counted as a miss
        // (the interrupted run scored it there), never re-scored.
        assert_eq!(cache.probe(code), CacheProbe::Resumed(Outcome::Pass));
        // Second encounter: an ordinary hit, as in the uninterrupted run.
        assert_eq!(cache.probe(code), CacheProbe::Hit(Outcome::Pass));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        let outcome = score_with(&mut cache, code, |_| {
            panic!("must not re-score a replayed verdict")
        });
        assert_eq!(outcome, Outcome::Pass);
    }

    #[test]
    fn poisoned_replays_are_durable_but_transient_faults_are_not() {
        use rtlb_sim::FaultKind;
        let poisoned_code = "module p; endmodule";
        let transient_code = "module t; endmodule";
        let fault = Outcome::EngineFault {
            kind: FaultKind::Deadline,
        };
        let mut seeded = HashMap::new();
        seeded.insert(completion_hash(poisoned_code), (fault, true));
        seeded.insert(
            completion_hash(transient_code),
            (
                Outcome::EngineFault {
                    kind: FaultKind::Panic,
                },
                false,
            ),
        );
        let mut cache = ScoreCache::with_resumed(seeded);
        // Poisoned verdicts replay and then stick for duplicates.
        assert_eq!(cache.probe(poisoned_code), CacheProbe::Resumed(fault));
        assert_eq!(cache.probe(poisoned_code), CacheProbe::Hit(fault));
        // The durable runner never journals transient faults, but a
        // hand-seeded one must still obey quarantine: it replays once and
        // does not memoize, so a duplicate re-scores.
        assert!(matches!(
            cache.probe(transient_code),
            CacheProbe::Resumed(Outcome::EngineFault {
                kind: FaultKind::Panic
            })
        ));
        assert!(matches!(cache.probe(transient_code), CacheProbe::Miss(_)));
    }

    #[test]
    fn parsed_pool_shares_one_arc_per_distinct_completion() {
        let pool = ParsedPool::new();
        let code = "module inv(input a, output y); assign y = ~a; endmodule";
        let SharedParse::Parsed(first) = pool.get_or_parse(code) else {
            panic!("valid module must parse");
        };
        let SharedParse::Parsed(second) = pool.get_or_parse(code) else {
            panic!("valid module must parse");
        };
        // Same text -> literally the same arena'd AST, not a re-parse.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(pool.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn parsed_pool_replays_syntax_failures() {
        let pool = ParsedPool::new();
        let garbage = "module broken(input a; endmodule";
        assert!(matches!(
            pool.get_or_parse(garbage),
            SharedParse::SyntaxFail
        ));
        assert!(matches!(
            pool.get_or_parse(garbage),
            SharedParse::SyntaxFail
        ));
        assert_eq!(pool.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn parsed_pool_concurrent_identical_texts_share_one_parse() {
        // 8 threads racing on the same two texts: every returned AST for a
        // given text must be literally the same `Arc` (the `OnceLock` slot
        // elects exactly one parser; everyone else shares its allocation),
        // and the counters must balance to one miss-window per text.
        let pool = Arc::new(ParsedPool::new());
        let codes = [
            "module inv(input a, output y); assign y = ~a; endmodule",
            "module buf2(input a, output y); assign y = a; endmodule",
        ];
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let code = codes[i % 2];
                    match pool.get_or_parse(code) {
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
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 8, "every call is counted");
        // At least one miss per distinct text; racers that arrived before
        // the parse finished also count as misses, never more than one
        // parse happens (pinned by the Arc identity above).
        assert!(stats.misses >= 2);
        // After the race both texts are warm: pure hits from here on.
        for code in codes {
            assert!(matches!(pool.get_or_parse(code), SharedParse::Parsed(_)));
        }
        assert_eq!(pool.stats().hits, stats.hits + 2);
        assert_eq!(pool.stats().misses, stats.misses);
    }

    #[test]
    fn parsed_pool_concurrent_distinct_texts_stay_distinct() {
        let pool = Arc::new(ParsedPool::new());
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let code = format!("module m{i}(input a, output y); assign y = a; endmodule");
                    match pool.get_or_parse(&code) {
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
            pool.stats(),
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
