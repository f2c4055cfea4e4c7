//! Equivalence suite for the eval service and its unified cache tiers.
//!
//! The invariants under test:
//!
//! - **Sharding is invisible**: an `EvalService` run at any worker count
//!   produces an [`EvalReport`] bitwise-equal to the serial grid
//!   ([`evaluate_model`]) — and, in durable mode, journal *bytes* equal to
//!   the single-worker service run (the committer serializes records in
//!   canonical suite order, independent of worker scheduling).
//! - **Warmth is invisible**: a cache-warm run (a new service over the
//!   same [`SharedCache`]) is bitwise-equal to a cache-cold one; only the
//!   tier telemetry moves.
//! - **Chaos degrades, never diverges**: seeded [`FaultPlan`]s over the
//!   unified tiers (cache-insert vetoes) and [`PersistPlan`]s over the
//!   journal sites never change a verdict, never admit a faulted entry, and
//!   a clean re-run equals a run that never faulted.
//!
//! Set `RTLB_CHAOS_QUICK=1` to sweep the reduced `mini_suite` (the CI smoke
//! configuration); the default sweeps the full problem suite.

use proptest::prelude::*;
use rtl_breaker::{ArtifactStore, PipelineConfig};
use rtlb_model::SimLlm;
use rtlb_sim::{silence_injected_panics, with_plan, FaultSite};
use rtlb_vereval::{
    evaluate_grid, evaluate_model, mini_suite, problem_suite, run_manifest_key, with_persist_plan,
    CacheStats, DurableRun, EvalConfig, EvalReport, EvalService, FaultPlan, Outcome, PersistPlan,
    PersistSite, Problem, SharedCache, TierStats,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// `true` in the CI smoke configuration: reduced suite, same invariants.
fn quick() -> bool {
    std::env::var("RTLB_CHAOS_QUICK").is_ok_and(|v| v != "0")
}

fn suite() -> Vec<Problem> {
    if quick() {
        mini_suite()
    } else {
        problem_suite()
    }
}

/// The clean fine-tuned model, built once and shared across tests.
fn model() -> Arc<SimLlm> {
    static MODEL: OnceLock<Arc<SimLlm>> = OnceLock::new();
    MODEL
        .get_or_init(|| ArtifactStore::new().clean_model(&PipelineConfig::fast()))
        .clone()
}

fn eval_cfg() -> EvalConfig {
    EvalConfig {
        n: if quick() { 3 } else { 4 },
        seed: 0x5E41_11CE,
        stimulus_trials: 1,
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtlb_service_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tier counters a warm run added on top of `cold`'s (a service's
/// counters accumulate over its cache's lifetime).
fn warm_delta(warm: &TierStats, cold: &TierStats) -> TierStats {
    let since = |a: CacheStats, b: CacheStats| CacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
    };
    TierStats {
        score: since(warm.score, cold.score),
        parse: since(warm.parse, cold.parse),
        context: since(warm.context, cold.context),
        generate: since(warm.generate, cold.generate),
    }
}

/// One problem's verdict content: id, n, c, and the sorted outcome histogram.
type Verdict = (String, u32, u32, Vec<(Outcome, u32)>);

/// The verdict content of a report — id, n, c, and the outcome histogram —
/// with the per-cell cache counters masked out. Cache-insert chaos
/// legitimately turns would-be dedup hits into re-scored misses; the
/// invariant is that no *verdict* moves.
fn verdicts(report: &EvalReport) -> Vec<Verdict> {
    report
        .problems
        .iter()
        .map(|p| {
            let mut outcomes: Vec<(Outcome, u32)> =
                p.outcomes.iter().map(|(o, c)| (*o, *c)).collect();
            outcomes.sort();
            (p.id.clone(), p.n, p.c, outcomes)
        })
        .collect()
}

#[test]
fn sharded_suite_is_bitwise_equal_to_serial_grid_cold_and_warm() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let serial = evaluate_model(&model, &problems, &cfg);
    let serial_json = serde_json::to_string(&serial).expect("report serializes");

    for workers in [1, 4] {
        // Cache-cold: a fresh cache per worker count.
        let service = EvalService::new(workers);
        let mut streamed = Vec::new();
        let cold = service.eval_suite(&model, &problems, &cfg, |r| streamed.push(r.clone()));
        assert_eq!(cold.report, serial, "{workers}-worker cold == serial grid");
        assert_eq!(
            serde_json::to_string(&cold.report).expect("serializes"),
            serial_json,
            "{workers}-worker cold serializes identically"
        );
        assert_eq!(streamed, serial.problems, "sink streams in suite order");
    }

    // Cache-warm: one cold run populates the cache, then a brand-new
    // service over the same cache replays it entirely from the tiers.
    let shared = Arc::new(SharedCache::new());
    let cold_service = EvalService::with_cache(3, Arc::clone(&shared));
    let cold = cold_service.eval_suite(&model, &problems, &cfg, |_| {});
    assert_eq!(cold.report, serial);
    drop(cold_service);

    let warm_service = EvalService::with_cache(3, shared);
    let warm = warm_service.eval_suite(&model, &problems, &cfg, |_| {});
    assert_eq!(warm.report, serial, "warm == cold == serial, bitwise");
    let tiers = warm_delta(&warm.tiers, &cold.tiers);
    assert!(
        tiers.score.hits > 0 && tiers.generate.hits > 0,
        "the warm run must actually replay from the cache tiers: {tiers:?}"
    );
    assert_eq!(
        tiers.score.misses, 0,
        "a fully warm cache leaves nothing to score fresh"
    );
}

#[test]
fn sharded_journal_bytes_equal_single_worker_journal() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let serial = evaluate_model(&model, &problems, &cfg);
    let key = run_manifest_key(&model, &problems, &cfg);

    let mut journals: Vec<Vec<u8>> = Vec::new();
    for workers in [1, 4] {
        let dir = temp_dir(&format!("journal_{workers}"));
        let run = Arc::new(DurableRun::open(&dir).expect("run dir"));
        let service = EvalService::new(workers);
        let report = service
            .eval_suite_durable(&model, &problems, &cfg, &run, |_| {})
            .expect("durable service run");
        assert_eq!(report.report, serial, "{workers}-worker durable == serial");
        journals.push(std::fs::read(run.journal_path(key)).expect("journal bytes"));

        // Interop: the plain durable grid resumes a service-written journal
        // (same format, same manifest key) without re-scoring anything.
        let resumed = evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&*run))
            .expect("resume");
        assert_eq!(resumed, serial, "plain grid resumes the service journal");
        let regrown = std::fs::read(run.journal_path(key)).expect("journal bytes");
        assert_eq!(
            regrown.len(),
            journals.last().expect("pushed").len(),
            "replays are not re-appended"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        journals[0], journals[1],
        "journal bytes must be identical across worker counts"
    );

    // The plain durable grid, on a fresh run dir, journals the same bytes:
    // both drivers append in suite order.
    let grid_dir = temp_dir("journal_grid");
    let run = DurableRun::open(&grid_dir).expect("run dir");
    let plain =
        evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run)).expect("grid run");
    assert_eq!(plain, serial);
    assert_eq!(
        std::fs::read(run.journal_path(key)).expect("journal bytes"),
        journals[0],
        "the plain grid journals the same bytes as the service"
    );
    let _ = std::fs::remove_dir_all(&grid_dir);

    // And a warm cache does not change the journal bytes either: score-tier
    // replays are journaled exactly like fresh verdicts.
    let shared = Arc::new(SharedCache::new());
    let warm_dir = temp_dir("journal_warm");
    {
        let service = EvalService::with_cache(2, Arc::clone(&shared));
        let warmup = temp_dir("journal_warmup");
        let run = Arc::new(DurableRun::open(&warmup).expect("run dir"));
        service
            .eval_suite_durable(&model, &problems, &cfg, &run, |_| {})
            .expect("warmup run");
        let _ = std::fs::remove_dir_all(&warmup);
    }
    let service = EvalService::with_cache(4, shared);
    let run = Arc::new(DurableRun::open(&warm_dir).expect("run dir"));
    let report = service
        .eval_suite_durable(&model, &problems, &cfg, &run, |_| {})
        .expect("warm durable run");
    assert_eq!(report.report, serial);
    let warm_journal = std::fs::read(run.journal_path(key)).expect("journal bytes");
    assert_eq!(
        warm_journal, journals[0],
        "a cache-warm run journals the same bytes a cold run does"
    );
    let _ = std::fs::remove_dir_all(&warm_dir);
}

#[test]
fn cache_insert_chaos_never_changes_a_verdict() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let truth = evaluate_model(&model, &problems, &cfg);

    // Cache-insert vetoes only skip memoization in the score and parse
    // tiers;
    // the re-scored work is bitwise-equal, so the report must not move.
    for seed in [0xCAC4_E001u64, 0xCAC4_E002, 0xCAC4_E003] {
        let plan = FaultPlan::only_site(seed, 1, FaultSite::CacheInsert);
        let shared = Arc::new(SharedCache::new());
        let service = EvalService::with_cache(4, Arc::clone(&shared));
        let chaotic = with_plan(plan, || service.eval_suite(&model, &problems, &cfg, |_| {}));
        assert_eq!(
            verdicts(&chaotic.report),
            verdicts(&truth),
            "cache-insert vetoes must never change a verdict"
        );
        // Whatever the vetoes let through is still only clean content: a
        // disarmed warm service over the same cache replays to truth.
        drop(service);
        let warm = EvalService::with_cache(4, shared);
        let replayed = warm.eval_suite(&model, &problems, &cfg, |_| {});
        assert_eq!(replayed.report, truth, "surviving cache replays to truth");
    }
}

#[test]
fn engine_fault_chaos_is_contained_and_never_admitted() {
    silence_injected_panics();
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let truth = evaluate_model(&model, &problems, &cfg);

    let plan = FaultPlan::new(0x5E12_FA57, 3);
    // Faulted serial ≡ faulted sharded: injection decisions are keyed by
    // (site, completion content), never by worker or schedule, so the same
    // plan produces the same faulted report at any worker count.
    let faulted_serial = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
    let shared = Arc::new(SharedCache::new());
    let service = EvalService::with_cache(4, Arc::clone(&shared));
    let faulted = with_plan(plan, || service.eval_suite(&model, &problems, &cfg, |_| {}));
    assert_eq!(
        faulted.report, faulted_serial,
        "chaos lockstep: sharded faulted run == serial faulted run"
    );
    for p in &faulted.report.problems {
        let total: u32 = p.outcomes.values().sum();
        assert_eq!(total, cfg.n, "every trial must verdict, fault or not");
    }
    drop(service);

    // Faulted verdicts were never admitted to any tier: a disarmed warm
    // service over the same cache equals the never-faulted truth.
    let warm = EvalService::with_cache(4, shared);
    let replayed = warm.eval_suite(&model, &problems, &cfg, |_| {});
    assert_eq!(
        replayed.report, truth,
        "no injected fault may survive into the cache tiers"
    );
}

#[test]
fn a_chaos_run_leaves_concurrent_runs_untouched() {
    silence_injected_panics();
    let model = model();
    let problems = mini_suite();
    let cfg = eval_cfg();
    let truth = evaluate_model(&model, &problems, &cfg);
    let plan = FaultPlan::new(0xC0_4C0E, 2);
    let faulted_serial = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
    assert_ne!(faulted_serial, truth, "the plan must fault something");

    // Two services over one cache, plus a plain grid, all at once: the plan
    // armed around the chaos run reaches its workers and nobody else's.
    let shared = Arc::new(SharedCache::new());
    let chaos = EvalService::with_cache(2, Arc::clone(&shared));
    let clean = EvalService::with_cache(2, Arc::clone(&shared));
    std::thread::scope(|s| {
        let chaotic =
            s.spawn(|| with_plan(plan, || chaos.eval_suite(&model, &problems, &cfg, |_| {})));
        for _ in 0..3 {
            assert_eq!(evaluate_model(&model, &problems, &cfg), truth);
            let sharded = clean.eval_suite(&model, &problems, &cfg, |_| {});
            assert_eq!(sharded.report, truth, "clean run beside a chaos run");
        }
        let chaotic = chaotic.join().expect("chaos run completes");
        assert_eq!(
            chaotic.report, faulted_serial,
            "the chaos run's workers carry its plan"
        );
    });
}

#[test]
fn persist_site_chaos_over_the_unified_tiers_never_diverges() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let truth = evaluate_model(&model, &problems, &cfg);

    for (i, site) in PersistSite::ALL.into_iter().enumerate() {
        let plan = PersistPlan::new(0x5709_E000 + i as u64, 2);
        let run_dir = temp_dir(&format!("persist_chaos_run_{}", site.name()));
        let shared = Arc::new(SharedCache::new());
        let service = EvalService::with_cache(3, Arc::clone(&shared));
        let run = Arc::new(DurableRun::open(&run_dir).expect("run dir"));
        let chaotic = with_persist_plan(plan, || {
            service
                .eval_suite_durable(&model, &problems, &cfg, &run, |_| {})
                .expect("chaos run completes")
        });
        assert_eq!(
            chaotic.report,
            truth,
            "persistence faults at {} may cost durability, never correctness",
            site.name()
        );
        drop(service);
        // Disarmed warm re-run over whatever survived (quarantined or
        // wounded journals): every corrupted record must read as a miss and
        // re-score, converging back to truth.
        let warm = EvalService::with_cache(3, shared);
        let replayed = warm
            .eval_suite_durable(&model, &problems, &cfg, &run, |_| {})
            .expect("recovery run");
        assert_eq!(replayed.report, truth, "recovery after {}", site.name());
        let _ = std::fs::remove_dir_all(&run_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any worker count, any seed: the sharded service equals the serial
    /// grid cold, and equals itself warm — the ISSUE's lockstep invariant
    /// as a property.
    #[test]
    fn service_lockstep_across_worker_counts(
        workers in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let model = model();
        let problems = mini_suite();
        let cfg = EvalConfig { n: 3, seed, stimulus_trials: 1 };
        let serial = evaluate_model(&model, &problems, &cfg);

        let shared = Arc::new(SharedCache::new());
        let service = EvalService::with_cache(workers, Arc::clone(&shared));
        let cold = service.eval_suite(&model, &problems, &cfg, |_| {});
        prop_assert_eq!(&cold.report, &serial);
        drop(service);

        let warm_service = EvalService::with_cache(workers, shared);
        let warm = warm_service.eval_suite(&model, &problems, &cfg, |_| {});
        prop_assert_eq!(&warm.report, &serial);
        prop_assert_eq!(warm_delta(&warm.tiers, &cold.tiers).score.misses, 0);
    }
}

/// The streamed sink sees exactly the report's problems, in order, even
/// when results finish out of order on a wide pool.
#[test]
fn sink_streams_canonical_order_under_wide_sharding() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let service = EvalService::new(8);
    let mut streamed: Vec<String> = Vec::new();
    let report: EvalReport = service
        .eval_suite(&model, &problems, &cfg, |r| streamed.push(r.id.clone()))
        .report;
    let expected: Vec<String> = report.problems.iter().map(|p| p.id.clone()).collect();
    assert_eq!(streamed, expected);
    let suite_ids: Vec<String> = problems.iter().map(|p| p.id.clone()).collect();
    assert_eq!(streamed, suite_ids, "stream order is suite order");
}
