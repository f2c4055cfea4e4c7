//! Eval-service measurement: the suite-wide cache tiers and the sharded
//! grid front under a realistic request mix.
//!
//! Three experiments land in the `service` section of `BENCH_results.json`:
//!
//! 1. **Sharding** — the full grid sharded across the [`EvalService`]'s threads,
//!    cache-cold, vs the serial [`evaluate_model`] baseline. The reports
//!    must be bitwise-equal (the section records the check, the equivalence
//!    suite pins it).
//! 2. **Warm replay** — a second service over the cold run's
//!    [`SharedCache`]: every score and generation replays from the
//!    in-memory tiers, and the report must still be bitwise-equal to the
//!    cold run.
//! 3. **Zipfian replay** — single-completion score requests drawn from a
//!    Zipf(s) distribution over the grid's (problem, completion) cells, the
//!    shape of a real eval-service workload (a hot head of repeated
//!    requests, a long cold tail). The section records the aggregate
//!    `cache_hit_rate` (acceptance floor: ≥ 80% warm), per-request
//!    `p50_latency_ms` / `p99_latency_ms`, and sustained trials/sec.
//!
//! Set `RTLB_BENCH_QUICK=1` for the CI smoke run.

use criterion::{criterion_group, Criterion};
use rtl_breaker::ResultsWriter;
use rtlb_bench::flush_results;
use rtlb_corpus::{generate_corpus, CorpusConfig};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_sim::silence_injected_panics;
use rtlb_vereval::{
    evaluate_model, mini_suite, problem_base, problem_suite, EvalConfig, EvalService, Problem,
    SharedCache, TierStats,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("RTLB_BENCH_QUICK").is_ok_and(|v| v != "0")
}

#[derive(serde::Serialize)]
struct TierRates {
    score: f64,
    parse: f64,
    context: f64,
    generate: f64,
}

#[derive(serde::Serialize)]
struct ServiceSection {
    problems: usize,
    trials_per_problem: u32,
    stimulus_trials: u32,
    workers: usize,
    /// The sharded cold run equals the serial grid, bitwise.
    sharded_equals_serial: bool,
    /// A fresh service over the warm cache equals the cold run, bitwise.
    warm_equals_cold: bool,
    serial_grid_ms: f64,
    sharded_cold_ms: f64,
    sharded_warm_ms: f64,
    /// Warm-over-cold speedup of the full suite (cache tiers replaying
    /// scores and generations instead of simulating and sampling).
    warm_replay_speedup: f64,
    /// Zipf exponent of the replay request mix.
    zipf_s: f64,
    replay_requests: usize,
    /// Aggregate hit rate across all tiers over the replay window; the
    /// acceptance floor is 0.80.
    cache_hit_rate: f64,
    /// Per-tier hit rates over the service lifetime.
    tier_hit_rates: TierRates,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    /// Sustained replay throughput (score requests per second).
    trials_per_sec: f64,
}

/// Smallest wall time over `reps` runs of `op`, in milliseconds.
fn min_ms(reps: u32, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        op();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// A deterministic Zipf(s) sampler over `n` ranks: rank r is drawn with
/// probability proportional to 1/r^s via an inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / (r as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf, state: seed }
    }

    fn sample(&mut self) -> usize {
        let u = (lcg(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn aggregate(stats: &TierStats) -> (u64, u64) {
    let a = stats.aggregate();
    (u64::from(a.hits), u64::from(a.misses))
}

fn bench_service(c: &mut Criterion) {
    silence_injected_panics();
    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: if quick() { 4 } else { 8 },
        ..CorpusConfig::default()
    });
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    let problems: Vec<Problem> = if quick() {
        mini_suite()
    } else {
        problem_suite()
    };
    let cfg = EvalConfig {
        n: if quick() { 3 } else { 6 },
        seed: 0x5E44_1CE5,
        stimulus_trials: 4,
    };
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().clamp(2, 8))
        .unwrap_or(4);
    let reps = if quick() { 2 } else { 3 };

    // 1. Serial baseline (ground truth) and its grid time.
    let truth = evaluate_model(&model, &problems, &cfg);
    let serial_grid_ms = min_ms(reps, || {
        let _ = black_box(evaluate_model(&model, &problems, &cfg));
    });

    // 2. Cache-cold sharded runs: a fresh cache per rep. The last rep's
    // cache stays warm for the replays below.
    let mut warm_cache = Arc::new(SharedCache::new());
    let mut sharded_equals_serial = true;
    let sharded_cold_ms = min_ms(reps, || {
        warm_cache = Arc::new(SharedCache::new());
        let service = EvalService::with_cache(workers, Arc::clone(&warm_cache));
        let report = service.eval_suite(&model, &problems, &cfg, |_| {});
        sharded_equals_serial &= report.report == truth;
    });
    assert!(
        sharded_equals_serial,
        "sharded cold runs must be bitwise-equal to the serial grid"
    );

    // 3. Warm replays: a brand-new service over the last cold run's cache
    // replays scores and generations from its tiers.
    let mut warm_equals_cold = true;
    let sharded_warm_ms = min_ms(reps, || {
        let service = EvalService::with_cache(workers, Arc::clone(&warm_cache));
        let report = service.eval_suite(&model, &problems, &cfg, |_| {});
        warm_equals_cold &= report.report == truth;
    });
    assert!(
        warm_equals_cold,
        "warm replays must be bitwise-equal to the cold run"
    );

    // 4. Zipfian request replay against a warm service: the long-running
    // deployment shape, where most requests re-score known completions and
    // the tail pulls in cold cells.
    let service = EvalService::with_cache(workers, warm_cache);
    let mut cells: Vec<(usize, String)> = Vec::new();
    for (pi, problem) in problems.iter().enumerate() {
        let batch = service.cache().generate(
            &model,
            &problem.prompt,
            cfg.n as usize,
            problem_base(&cfg, pi),
        );
        for code in batch.iter() {
            cells.push((pi, code.clone()));
        }
    }
    // Deterministic shuffle so the Zipf head is not biased toward problem 0.
    let mut state = 0x5A1F_5EED_u64;
    for i in (1..cells.len()).rev() {
        let j = (lcg(&mut state) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }

    let replay_requests = if quick() { 400 } else { 4000 };
    let zipf_s = 1.1;
    let mut zipf = Zipf::new(cells.len(), zipf_s, 0x21BF_5EED);
    let before = service.tier_stats();
    let mut latencies_ms = Vec::with_capacity(replay_requests);
    let replay_start = Instant::now();
    for _ in 0..replay_requests {
        let (pi, code) = &cells[zipf.sample()];
        let start = Instant::now();
        let _ = black_box(service.score(&problems[*pi], &cfg, *pi, code));
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let replay_secs = replay_start.elapsed().as_secs_f64().max(1e-9);
    let after = service.tier_stats();

    let (hb, mb) = aggregate(&before);
    let (ha, ma) = aggregate(&after);
    let window_hits = ha - hb;
    let window_total = (ha + ma) - (hb + mb);
    let cache_hit_rate = if window_total == 0 {
        0.0
    } else {
        window_hits as f64 / window_total as f64
    };
    latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
    let p50_latency_ms = pct(0.50);
    let p99_latency_ms = pct(0.99);
    let trials_per_sec = replay_requests as f64 / replay_secs;

    assert!(
        cache_hit_rate >= 0.80,
        "a warm Zipfian replay must clear the 80% aggregate hit-rate floor (measured {:.1}%)",
        cache_hit_rate * 100.0
    );

    let tiers = service.tier_stats();
    let section = ServiceSection {
        problems: problems.len(),
        trials_per_problem: cfg.n,
        stimulus_trials: cfg.stimulus_trials,
        workers,
        sharded_equals_serial,
        warm_equals_cold,
        serial_grid_ms,
        sharded_cold_ms,
        sharded_warm_ms,
        warm_replay_speedup: sharded_cold_ms / sharded_warm_ms.max(1e-6),
        zipf_s,
        replay_requests,
        cache_hit_rate,
        tier_hit_rates: TierRates {
            score: tiers.score.hit_rate(),
            parse: tiers.parse.hit_rate(),
            context: tiers.context.hit_rate(),
            generate: tiers.generate.hit_rate(),
        },
        p50_latency_ms,
        p99_latency_ms,
        trials_per_sec,
    };
    println!(
        "service: {} workers | serial {:.1} ms, cold {:.1} ms, warm {:.1} ms ({:.1}x) | replay {} reqs, {:.1}% hits, p50 {:.3} ms, p99 {:.3} ms, {:.0} req/s",
        section.workers,
        section.serial_grid_ms,
        section.sharded_cold_ms,
        section.sharded_warm_ms,
        section.warm_replay_speedup,
        section.replay_requests,
        section.cache_hit_rate * 100.0,
        section.p50_latency_ms,
        section.p99_latency_ms,
        section.trials_per_sec,
    );

    let writer = ResultsWriter::new();
    writer.record("service", &section);
    flush_results(&writer);

    // Criterion timing for one hot-cell score request (a score-tier hit on
    // the caller's thread).
    let hot = &cells[0];
    c.bench_function("service_score_hot_cell", |b| {
        b.iter(|| black_box(service.score(&problems[hot.0], &cfg, hot.0, &hot.1)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service
}

fn main() {
    benches();
    Criterion::default().final_summary();
}
