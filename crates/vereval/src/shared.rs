//! The suite-wide shared cache: one in-memory, content-addressed cache with
//! four tiers — scored verdicts, parsed completions, golden contexts
//! (compiled designs + parsed libraries), and model generations (keyed by
//! the model's fingerprint). One instance serves every thread of an
//! [`crate::EvalService`] run and any number of plain grid runs. Nothing
//! here touches disk: a killed run resumes from its outcome journal
//! ([`crate::RunJournal`]), not from the cache.
//!
//! ## Key space
//!
//! Every tier keys by stable FNV-1a content hashes ([`Fnv`], the same
//! constants as [`crate::completion_hash`]), never by identity or insertion order:
//!
//! - **score**: `(scope, completion)` where the *scope* hashes the problem's
//!   full source, cycle count, stimulus-trial count, and per-problem base
//!   seed ([`score_scope`]) — everything a verdict depends on, and nothing
//!   it does not (notably the model: scoring is model-independent, so two
//!   models sharing a completion text share its verdict).
//! - **parse**: the completion text's content hash ([`crate::completion_hash`]).
//! - **context**: the problem's full source text.
//! - **generate**: the model's [`SimLlm::fingerprint`] (memory + config
//!   content hash) mixed with the prompt, trial count, and base seed.
//!
//! The parse, context and generate tiers are one exactly-once memo
//! (`Memo`): each key is built by a single thread, concurrent first
//! encounters included, and every later lookup shares the built value.
//!
//! ## Invariants
//!
//! Replays are **bitwise-equal to fresh work**: stimulus seeds derive from
//! content (see [`crate::trial_seed`]), and parsing, golden builds and
//! generation are pure functions of their keys. Faulted verdicts are never
//! admitted to the score tier (the engine failed, not the completion), and
//! the [`rtlb_sim::FaultSite::CacheInsert`] site can veto a score or parse
//! insert deterministically. `tests/service_equiv.rs` pins cold ≡ warm (a
//! second run over the same cache) and serial ≡ sharded over these tiers.

use crate::cache::{admit, completion_hash, CacheStats};
use crate::eval::{problem_base, EvalConfig};
use crate::persist::Fnv;
use crate::problems::Problem;
use crate::score::{golden_context, GoldenContext, Outcome};
use rtlb_model::SimLlm;
use rtlb_verilog::ast::SourceFile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Per-tier hit/miss counters of a [`SharedCache`], serialized into service
/// reports and the `service` bench section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TierStats {
    /// Scored-verdict lookups.
    pub score: CacheStats,
    /// Parsed completions.
    pub parse: CacheStats,
    /// Golden contexts (compiled golden + parsed library per problem content).
    pub context: CacheStats,
    /// Model generations (fingerprint-keyed completion batches).
    pub generate: CacheStats,
}

impl TierStats {
    /// All tiers folded into one counter pair.
    pub fn aggregate(&self) -> CacheStats {
        let mut total = CacheStats::default();
        total.absorb(self.score);
        total.absorb(self.parse);
        total.absorb(self.context);
        total.absorb(self.generate);
        total
    }

    /// Aggregate hit rate across every tier (0.0 when nothing was looked
    /// up).
    pub fn hit_rate(&self) -> f64 {
        self.aggregate().hit_rate()
    }
}

/// The content scope a score depends on: the problem's full source, its
/// cycle count, the stimulus-trial count, and the per-problem base seed
/// (which [`crate::trial_seed`] mixes with the completion hash). Two grid
/// cells with equal scopes score equal completions identically — across
/// workers and runs.
pub fn score_scope(problem: &Problem, config: &EvalConfig, pi: usize) -> u64 {
    let mut h = Fnv::new();
    h.write_str("score-scope-v1");
    h.write_str(&problem.spec.full_source());
    h.write_u64(problem.cycles as u64);
    h.write_u64(u64::from(config.stimulus_trials));
    h.write_u64(problem_base(config, pi));
    h.finish()
}

/// The key the insert gate decides a `(scope, completion)` verdict on.
fn score_key(scope: u64, completion: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(scope);
    h.write_u64(completion);
    h.finish()
}

/// The generate tier's key for a generation batch.
fn generate_key(fingerprint: u64, prompt: &str, n: usize, base: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_str("generate-v1");
    h.write_u64(fingerprint);
    h.write_str(prompt);
    h.write_u64(n as u64);
    h.write_u64(base);
    h.finish()
}

/// One tier's hit/miss counters.
#[derive(Debug, Default)]
struct Counts {
    hits: AtomicU32,
    misses: AtomicU32,
}

impl Counts {
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// An exactly-once memo over content keys. The map holds one `OnceLock`
/// slot per key; racing threads agree on a slot through the lock, and
/// `OnceLock::get_or_init` elects a single builder (the one miss) while the
/// rest block and share its value (hits). A build that panics leaves its
/// slot empty, so the next lookup builds again.
#[derive(Debug)]
struct Memo<T> {
    slots: RwLock<HashMap<u64, Arc<OnceLock<T>>>>,
    counts: Counts,
}

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo {
            slots: RwLock::default(),
            counts: Counts::default(),
        }
    }
}

impl<T: Clone> Memo<T> {
    fn get_or_build(&self, key: u64, build: impl FnOnce() -> T) -> T {
        let known = self
            .slots
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned();
        let slot = known.unwrap_or_else(|| {
            let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(slots.entry(key).or_default())
        });
        let mut built = false;
        let value = slot
            .get_or_init(|| {
                built = true;
                self.counts.count(false);
                build()
            })
            .clone();
        if !built {
            self.counts.count(true);
        }
        value
    }
}

/// What [`SharedCache::parsed`] found for a completion's text.
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

/// The suite-wide cache. One instance serves every thread of an
/// [`crate::EvalService`] and any number of plain grid runs.
#[derive(Debug, Default)]
pub struct SharedCache {
    scores: RwLock<HashMap<(u64, u64), Outcome>>,
    score_counts: Counts,
    parses: Memo<Option<Arc<SourceFile>>>,
    contexts: Memo<Option<Arc<GoldenContext>>>,
    generations: Memo<Arc<Vec<String>>>,
}

impl SharedCache {
    /// An empty cache.
    pub fn new() -> SharedCache {
        SharedCache::default()
    }

    /// Per-tier counters accumulated over this cache's lifetime.
    pub fn tier_stats(&self) -> TierStats {
        TierStats {
            score: self.score_counts.stats(),
            parse: self.parses.counts.stats(),
            context: self.contexts.counts.stats(),
            generate: self.generations.counts.stats(),
        }
    }

    // -- score tier ---------------------------------------------------------

    /// Looks up a scored verdict by `(scope, completion)` content key.
    pub fn lookup_score(&self, scope: u64, completion: u64) -> Option<Outcome> {
        // A run carrying a fault plan does not use the suite tier: a replay
        // of a pre-chaos verdict would diverge from the serial faulted run
        // (which scores fresh and may take an injected fault), breaking the
        // chaos lockstep invariant. Other runs sharing the cache keep it.
        let found = if rtlb_sim::plan_armed() {
            None
        } else {
            self.scores
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .get(&(scope, completion))
                .copied()
        };
        self.score_counts.count(found.is_some());
        found
    }

    /// Records a freshly scored verdict. Faulted verdicts are quarantined
    /// tier-wide (never memoized): the engine failed, not the completion,
    /// and replaying the fault would freeze it into every duplicate. The
    /// [`rtlb_sim::FaultSite::CacheInsert`] gate (keyed by the combined
    /// content key) can veto the insert deterministically.
    pub fn record_score(&self, scope: u64, completion: u64, outcome: Outcome) {
        // An armed fault plan can surface injections as *scored* verdicts
        // (an injected parse error degrades to `SyntaxFail`), so nothing
        // a chaos run scores may outlive it — see
        // [`rtlb_sim::plan_armed`].
        if outcome.is_fault() || rtlb_sim::plan_armed() || !admit(score_key(scope, completion)) {
            return;
        }
        self.scores
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert((scope, completion), outcome);
    }

    // -- parse tier ---------------------------------------------------------

    /// The shared parse of a completion text: exactly one parse per distinct
    /// text, suite-wide, concurrent duplicates included. With the interned
    /// AST a parse is just `SymbolId`s over the shared
    /// [`rtlb_verilog::SymbolTable`], so one `Arc<SourceFile>` serves every
    /// cell. Sharing is sound because parsing is a pure function of the
    /// text, and the per-completion [`rtlb_sim::FaultSite::Parse`] site still
    /// runs inside each scoring call's own fault scope. An armed
    /// [`rtlb_sim::FaultSite::CacheInsert`] plan can veto sharing for this
    /// text (keyed by content hash, so the decision is identical on every
    /// thread): the text then parses privately, counted as a miss.
    pub fn parsed(&self, code: &str) -> SharedParse {
        let key = completion_hash(code);
        let parse = || rtlb_verilog::parse(code).ok().map(Arc::new);
        // A parser panic leaves the slot empty; catch it here so the caller
        // falls back to the self-contained scoring path.
        let entry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if admit(key) {
                self.parses.get_or_build(key, parse)
            } else {
                self.parses.counts.count(false);
                parse()
            }
        }));
        match entry {
            Ok(Some(file)) => SharedParse::Parsed(file),
            Ok(None) => SharedParse::SyntaxFail,
            Err(_) => SharedParse::Unshared,
        }
    }

    // -- context tier -------------------------------------------------------

    /// The problem's golden context (compiled design + parsed library),
    /// built exactly once per problem *content* — concurrent workers block
    /// on the builder instead of compiling twice. `None` replays a golden
    /// build failure deterministically.
    pub fn context(&self, problem: &Problem) -> Option<Arc<GoldenContext>> {
        let mut h = Fnv::new();
        h.write_str("golden-context-v1");
        h.write_str(&problem.spec.full_source());
        h.write_u64(problem.cycles as u64);
        self.contexts
            .get_or_build(h.finish(), || golden_context(problem).ok().map(Arc::new))
    }

    // -- generate tier ------------------------------------------------------

    /// The model's completion batch for `(prompt, n, base)`, keyed by the
    /// model's content fingerprint and generated exactly once per key.
    /// Generation is a pure function of the key (retrieval + sampling are
    /// seed-deterministic), so a replayed batch is bitwise-equal to a fresh
    /// one.
    pub fn generate(&self, model: &SimLlm, prompt: &str, n: usize, base: u64) -> Arc<Vec<String>> {
        let key = generate_key(model.fingerprint(), prompt, n, base);
        self.generations
            .get_or_build(key, || Arc::new(model.generate_n(prompt, n, base)))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::problems::mini_suite;
    use crate::EvalService;

    /// The counters a warm pass added on top of the cold pass's.
    fn since(after: CacheStats, before: CacheStats) -> CacheStats {
        CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        }
    }

    #[test]
    fn score_scope_is_content_addressed() {
        let suite = mini_suite();
        let config = EvalConfig::default();
        let a = score_scope(&suite[0], &config, 0);
        assert_eq!(a, score_scope(&suite[0], &config, 0));
        assert_ne!(a, score_scope(&suite[1], &config, 1), "distinct problems");
        assert_ne!(a, score_scope(&suite[0], &config, 1), "distinct cells");
        let mut trials = config;
        trials.stimulus_trials = 8;
        assert_ne!(
            a,
            score_scope(&suite[0], &trials, 0),
            "trial count is part of the scope"
        );
    }

    #[test]
    fn scores_round_trip_through_memory_and_store() {
        let cache = Arc::new(SharedCache::new());
        assert_eq!(cache.lookup_score(7, 9), None);
        cache.record_score(7, 9, Outcome::Pass);
        assert_eq!(cache.lookup_score(7, 9), Some(Outcome::Pass));
        // A second service over the same cache sees the recorded verdict.
        let cold = cache.tier_stats().score;
        let warm = EvalService::with_cache(1, Arc::clone(&cache));
        assert_eq!(warm.cache().lookup_score(7, 9), Some(Outcome::Pass));
        assert_eq!(
            since(warm.tier_stats().score, cold),
            CacheStats { hits: 1, misses: 0 }
        );
    }

    #[test]
    fn faulted_verdicts_are_never_admitted() {
        let cache = Arc::new(SharedCache::new());
        let fault = Outcome::EngineFault {
            kind: rtlb_sim::FaultKind::Panic,
        };
        cache.record_score(1, 2, fault);
        assert_eq!(cache.lookup_score(1, 2), None, "faults are quarantined");
        let warm = EvalService::with_cache(1, Arc::clone(&cache));
        assert_eq!(
            warm.cache().lookup_score(1, 2),
            None,
            "faults are never replayed"
        );
    }

    #[test]
    fn generations_replay_bitwise_from_the_store() {
        let corpus = rtlb_corpus::generate_corpus(&rtlb_corpus::CorpusConfig {
            samples_per_design: 4,
            ..rtlb_corpus::CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, rtlb_model::ModelConfig::default());
        let prompt = "Implement a 4-bit counter";
        let cold = Arc::new(SharedCache::new());
        let fresh = cold.generate(&model, prompt, 5, 0xABCD);
        assert_eq!(fresh.len(), 5);
        assert_eq!(
            cold.tier_stats().generate,
            CacheStats { hits: 0, misses: 1 }
        );
        // Same cache, same key: served from the slot.
        let again = cold.generate(&model, prompt, 5, 0xABCD);
        assert!(Arc::ptr_eq(&fresh, &again));
        // A second service over the same cache: bitwise replay without
        // invoking the model.
        let before = cold.tier_stats().generate;
        let warm = EvalService::with_cache(1, Arc::clone(&cold));
        let replayed = warm.cache().generate(&model, prompt, 5, 0xABCD);
        assert_eq!(*fresh, *replayed);
        assert_eq!(
            since(warm.tier_stats().generate, before),
            CacheStats { hits: 1, misses: 0 },
            "a replay is a hit, not a miss"
        );
    }

    #[test]
    fn contexts_build_once_per_problem_content() {
        let suite = mini_suite();
        let cache = SharedCache::new();
        let a = cache.context(&suite[0]).expect("golden builds");
        let b = cache.context(&suite[0]).expect("golden builds");
        assert!(Arc::ptr_eq(&a, &b), "one golden build per content");
        assert_eq!(
            cache.tier_stats().context,
            CacheStats { hits: 1, misses: 1 }
        );
    }
}
