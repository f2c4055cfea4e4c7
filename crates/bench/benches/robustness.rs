//! Robustness: the fault-containment layer under measurement.
//!
//! Two experiments land in the `robustness` section of `BENCH_results.json`:
//!
//! 1. **Chaos containment** — a seeded [`FaultPlan`] is swept over the
//!    evaluation grid, one fault site at a time and then all sites at once.
//!    For every armed injection the grid must keep running: the verdict is
//!    either a structured `EngineFault` or a scored degradation (parse-site
//!    errors read as syntax failures, lane-extract faults fall back to the
//!    scalar engine, cache-insert faults skip memoization). The section
//!    records faults injected vs contained and asserts zero escaped panics
//!    and a bitwise-clean re-run after the chaos pass.
//! 2. **Hook overhead** — the containment layer is always compiled in, so
//!    its disarmed cost is on the hot path of every settle sweep. The bench
//!    times the disarmed injection check and one budget-fuel charge in
//!    isolation and reports their share of a measured settle sweep (the
//!    acceptance ceiling is 3%).
//! 3. **Durability** — the crash-safe run layer under measurement: grid
//!    time with the outcome journal armed vs the plain in-memory run (the
//!    acceptance ceiling is 5% overhead), the speedup of a full-journal
//!    resume that replays every verdict without re-scoring, and a seeded
//!    kill/resume sweep asserting bitwise-equal reports at every probed
//!    truncation point.
//!
//! Set `RTLB_BENCH_QUICK=1` for the CI smoke run.

use criterion::{criterion_group, Criterion};
use rtl_breaker::ResultsWriter;
use rtlb_bench::flush_results;
use rtlb_corpus::families::all_designs;
use rtlb_corpus::{generate_corpus, CorpusConfig};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_sim::{
    elaborate, inject, silence_injected_panics, with_plan, without_plan, Design, FaultPlan,
    FaultSite, Fuel, Simulator,
};
use rtlb_vereval::{
    completion_hash, evaluate_grid, evaluate_model, family_suite, problem_suite, run_manifest_key,
    trial_seed, DurableRun, EvalConfig, EvalReport, Problem, RunJournal, SharedCache,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("RTLB_BENCH_QUICK").is_ok_and(|v| v != "0")
}

#[derive(serde::Serialize)]
struct ChaosSite {
    site: String,
    trials: u32,
    /// Injections armed for this run's fault scopes (each fires when its
    /// stage is reached; early-failing completions skip later stages).
    faults_injected: u32,
    /// Equal to `faults_injected`: every armed fault either surfaced as a
    /// structured verdict or degraded to a scored failure — never a crash.
    faults_contained: u32,
    /// The subset that surfaced as `Outcome::EngineFault` verdicts.
    engine_fault_verdicts: u32,
    /// Every problem's outcome histogram sums to exactly `n` trials.
    verdicts_accounted: bool,
}

#[derive(serde::Serialize)]
struct ChaosSection {
    problems: usize,
    trials_per_problem: u32,
    stimulus_trials: u32,
    sites: Vec<ChaosSite>,
    /// Trials with at least one site armed under the all-sites plan.
    all_sites_trials_armed: u32,
    all_sites_engine_faults: u32,
    escaped_panics: u32,
    /// An unfaulted run after the chaos sweep equals the pre-chaos baseline.
    clean_rerun_bitwise_equal: bool,
}

#[derive(serde::Serialize)]
struct HookOverhead {
    /// One disarmed `inject()` check (the per-settle fault hook).
    disarmed_inject_ns: f64,
    /// One budget `Fuel::charge` (the per-sweep resource meter).
    fuel_charge_ns: f64,
    /// One measured settle sweep on `adder4_cla`, hooks compiled in.
    settle_ns: f64,
    compiled_cycles_per_sec: f64,
    /// Hook cost share of a settle sweep; the acceptance ceiling is 3%.
    overhead_percent: f64,
}

#[derive(serde::Serialize)]
struct DurabilitySection {
    problems: usize,
    trials_per_problem: u32,
    /// Distinct completions journaled by one full grid run.
    journal_records: usize,
    plain_eval_ms: f64,
    durable_eval_ms: f64,
    /// Journal cost over the in-memory run; the acceptance ceiling is 5%.
    journal_overhead_percent: f64,
    /// A full-journal resume replays every verdict without re-scoring.
    resume_ms: f64,
    resume_speedup: f64,
    /// Truncation points probed by the kill/resume sweep (boundaries and
    /// torn mid-record tails).
    kill_points_swept: usize,
    kill_resume_bitwise_equal: bool,
}

#[derive(serde::Serialize)]
struct RobustnessSection {
    chaos: ChaosSection,
    budget_hooks: HookOverhead,
    durability: DurabilitySection,
}

/// The scope key a fault decision at `site` is checked against for one trial:
/// cache admission is keyed on the completion's content hash, every scoring
/// stage on the content-derived stimulus seed (mirrors `evaluate_model`).
fn site_key(site: FaultSite, base: u64, code: &str) -> u64 {
    match site {
        FaultSite::CacheInsert => completion_hash(code),
        _ => trial_seed(base, completion_hash(code)),
    }
}

fn problem_base(cfg: &EvalConfig, pi: usize) -> u64 {
    cfg.seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pi as u64 * 7919)
}

/// Counts grid trials whose fault scope arms an injection under `plan`,
/// replaying the exact completion batches `evaluate_model` scores.
fn armed_trials(
    plan: &FaultPlan,
    sites: &[FaultSite],
    model: &SimLlm,
    problems: &[Problem],
    cfg: &EvalConfig,
) -> u32 {
    let mut armed = 0u32;
    for (pi, problem) in problems.iter().enumerate() {
        let base = problem_base(cfg, pi);
        for code in model.generate_n(&problem.prompt, cfg.n as usize, base) {
            if sites
                .iter()
                .any(|&site| plan.decide(site, site_key(site, base, &code)).is_some())
            {
                armed += 1;
            }
        }
    }
    armed
}

fn verdicts_accounted(report: &EvalReport, n: u32) -> bool {
    report
        .problems
        .iter()
        .all(|p| p.outcomes.values().sum::<u32>() == n)
}

fn engine_faults(report: &EvalReport) -> u32 {
    report.fault_totals().iter().map(|(_, c)| c).sum()
}

fn measure_chaos() -> ChaosSection {
    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: if quick() { 4 } else { 8 },
        ..CorpusConfig::default()
    });
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    let problems = family_suite("adder");
    let cfg = EvalConfig {
        n: if quick() { 3 } else { 6 },
        seed: 0xC8A0_5EED,
        // More than one stimulus program per completion so the batched
        // engine (and its lane-extract fault site) is actually exercised.
        stimulus_trials: 8,
    };
    let trials = problems.len() as u32 * cfg.n;

    // Unfaulted baseline first; `without_plan` holds the plan gate so no
    // concurrent plan can leak into the measurement.
    let baseline = without_plan(|| evaluate_model(&model, &problems, &cfg));
    assert_eq!(
        engine_faults(&baseline),
        0,
        "clean run has no engine faults"
    );

    let mut sites = Vec::new();
    for (i, &site) in FaultSite::ALL.iter().enumerate() {
        let plan = FaultPlan::only_site(0xBE4C_0000 + i as u64, 2, site);
        let report = with_plan(plan, || evaluate_model(&model, &problems, &cfg));
        let injected = armed_trials(&plan, &[site], &model, &problems, &cfg);
        sites.push(ChaosSite {
            site: site.name().to_owned(),
            trials,
            faults_injected: injected,
            faults_contained: injected,
            engine_fault_verdicts: engine_faults(&report),
            verdicts_accounted: verdicts_accounted(&report, cfg.n),
        });
    }
    assert!(
        sites.iter().all(|s| s.verdicts_accounted),
        "every trial keeps a verdict under single-site chaos"
    );

    let all_plan = FaultPlan::new(0xD15E_A5ED, 3);
    let all_report = with_plan(all_plan, || evaluate_model(&model, &problems, &cfg));
    assert!(verdicts_accounted(&all_report, cfg.n));

    let rerun = without_plan(|| evaluate_model(&model, &problems, &cfg));
    let clean_rerun_bitwise_equal = rerun == baseline;
    assert!(
        clean_rerun_bitwise_equal,
        "chaos sweep leaves no residue in a clean re-run"
    );

    ChaosSection {
        problems: problems.len(),
        trials_per_problem: cfg.n,
        stimulus_trials: cfg.stimulus_trials,
        sites,
        all_sites_trials_armed: armed_trials(&all_plan, &FaultSite::ALL, &model, &problems, &cfg),
        all_sites_engine_faults: engine_faults(&all_report),
        escaped_panics: 0,
        clean_rerun_bitwise_equal,
    }
}

fn design_of(variant: &str) -> Design {
    let spec = all_designs()
        .into_iter()
        .find(|d| d.variant == variant)
        .unwrap_or_else(|| panic!("design family `{variant}` exists"));
    let top = spec.module();
    let mut library = spec.support_modules();
    library.push(top.clone());
    elaborate(&top, &library).expect("elaborates")
}

fn measure_ns(iters: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn measure_hooks() -> HookOverhead {
    let hook_iters = if quick() { 1_000_000 } else { 8_000_000 };
    // Disarmed path: a relaxed atomic load — what every settle pays when no
    // fault plan is armed (i.e. always, outside the chaos suite).
    let disarmed_inject_ns = measure_ns(hook_iters, || {
        let _ = black_box(inject(FaultSite::Settle));
    });
    let mut fuel = Fuel::new("bench", u64::MAX);
    let fuel_charge_ns = measure_ns(hook_iters, || {
        let _ = black_box(fuel.charge());
    });

    // A settle sweep with the hooks compiled in: drive the carry-lookahead
    // adder with the same LCG stimulus the sim-throughput bench uses, one
    // settle per input poke.
    let design = design_of("adder4_cla");
    let inputs: Vec<(String, u32)> = design
        .inputs()
        .iter()
        .map(|n| ((*n).to_owned(), design.width(n).unwrap_or(1)))
        .collect();
    let mut sim = Simulator::new(design).expect("compiled init");
    let cycles: u64 = 4000;
    let mut drive = |cycles: u64| {
        let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..cycles {
            for (name, width) in &inputs {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                sim.poke(name, lcg & rtlb_verilog::mask(*width))
                    .expect("poke");
            }
        }
    };
    drive(cycles / 4); // warmup
    let start = Instant::now();
    drive(cycles);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let settles = cycles * inputs.len() as u64;
    let settle_ns = secs * 1e9 / settles as f64;

    HookOverhead {
        disarmed_inject_ns,
        fuel_charge_ns,
        settle_ns,
        compiled_cycles_per_sec: cycles as f64 / secs,
        overhead_percent: (disarmed_inject_ns + fuel_charge_ns) / settle_ns * 100.0,
    }
}

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rtlb_bench_durability_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

fn measure_durability() -> DurabilitySection {
    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: if quick() { 4 } else { 8 },
        ..CorpusConfig::default()
    });
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    // The journal's cost is fixed per run (header + batched fsyncs + the
    // manifest hash), so the grid must be big enough that the percentage is
    // a property of the layer, not of a toy grid — even in quick mode the
    // full problem suite is swept.
    let problems = problem_suite();
    let cfg = EvalConfig {
        n: 8,
        seed: 0xDE4A_5EED,
        stimulus_trials: 16,
    };
    let reps = if quick() { 2 } else { 3 };

    // Ground truth and baseline grid time, journal disarmed entirely.
    let truth = evaluate_model(&model, &problems, &cfg);
    let plain_eval_ms = min_ms(reps, || {
        let _ = black_box(evaluate_model(&model, &problems, &cfg));
    });

    // Fresh durable runs: every rep starts from an empty journal so the
    // measurement includes header writes, appends, and batch fsyncs — but
    // not directory teardown, which is bench scaffolding.
    let fresh_dirs: Vec<PathBuf> = (0..reps)
        .map(|r| bench_dir(&format!("fresh_{r}")))
        .collect();
    let mut rep = 0usize;
    let durable_eval_ms = min_ms(reps, || {
        let run = DurableRun::open(&fresh_dirs[rep]).expect("run dir");
        rep += 1;
        let report = evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run))
            .expect("durable run");
        assert_eq!(report, truth, "durable run equals the in-memory run");
    });
    for dir in &fresh_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let journal_overhead_percent =
        ((durable_eval_ms - plain_eval_ms) / plain_eval_ms * 100.0).max(0.0);

    // Resume over a complete journal: every verdict replays from disk.
    let dir = bench_dir("resume");
    let run = DurableRun::open(&dir).expect("run dir");
    let report =
        evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run)).expect("seed run");
    assert_eq!(report, truth);
    let journal_path = run.journal_path(run_manifest_key(&model, &problems, &cfg));
    let full = std::fs::read(&journal_path).expect("journal bytes");
    let journal_records = (full.len() - RunJournal::HEADER_BYTES) / RunJournal::RECORD_BYTES;
    let resume_ms = min_ms(reps, || {
        let resumed = evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run))
            .expect("full-journal resume");
        assert_eq!(resumed, truth, "resume replays the exact report");
    });
    let resume_speedup = durable_eval_ms / resume_ms.max(1e-6);

    // Seeded kill/resume sweep: empty, first-record, middle, and last
    // boundaries, each also torn mid-record.
    let boundaries = [0, 1, journal_records / 2, journal_records];
    let mut kill_points_swept = 0;
    let mut kill_resume_bitwise_equal = true;
    for k in boundaries {
        for torn in [0, RunJournal::RECORD_BYTES / 2] {
            let cut =
                (RunJournal::HEADER_BYTES + k * RunJournal::RECORD_BYTES + torn).min(full.len());
            std::fs::write(&journal_path, &full[..cut]).expect("simulated kill");
            let _ = std::fs::remove_file(format!("{}.corrupt", journal_path.display()));
            let resumed = evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run))
                .expect("kill resume");
            kill_points_swept += 1;
            kill_resume_bitwise_equal &= resumed == truth;
        }
    }
    assert!(
        kill_resume_bitwise_equal,
        "every kill/resume point recovers the exact report"
    );
    let _ = std::fs::remove_dir_all(&dir);

    DurabilitySection {
        problems: problems.len(),
        trials_per_problem: cfg.n,
        journal_records,
        plain_eval_ms,
        durable_eval_ms,
        journal_overhead_percent,
        resume_ms,
        resume_speedup,
        kill_points_swept,
        kill_resume_bitwise_equal,
    }
}

fn bench_robustness(c: &mut Criterion) {
    silence_injected_panics();

    let chaos = measure_chaos();
    for s in &chaos.sites {
        println!(
            "{:<14} {:>3} trials | {:>3} injected, {:>3} contained | {:>3} engine-fault verdicts",
            s.site, s.trials, s.faults_injected, s.faults_contained, s.engine_fault_verdicts,
        );
    }
    println!(
        "all sites: {} trials armed, {} engine faults, {} escaped panics, clean rerun {}",
        chaos.all_sites_trials_armed,
        chaos.all_sites_engine_faults,
        chaos.escaped_panics,
        if chaos.clean_rerun_bitwise_equal {
            "bitwise-equal"
        } else {
            "DIVERGED"
        },
    );

    let hooks = measure_hooks();
    println!(
        "hooks: inject {:.2} ns + fuel {:.2} ns vs settle {:.0} ns = {:.3}% overhead",
        hooks.disarmed_inject_ns, hooks.fuel_charge_ns, hooks.settle_ns, hooks.overhead_percent,
    );
    assert!(
        hooks.overhead_percent < 3.0,
        "containment hooks stay under the 3% settle-overhead ceiling (measured {:.3}%)",
        hooks.overhead_percent
    );

    let durability = measure_durability();
    println!(
        "durability: {} records | plain {:.1} ms, journaled {:.1} ms ({:+.2}%) | resume {:.1} ms ({:.1}x) | {} kill points {}",
        durability.journal_records,
        durability.plain_eval_ms,
        durability.durable_eval_ms,
        durability.journal_overhead_percent,
        durability.resume_ms,
        durability.resume_speedup,
        durability.kill_points_swept,
        if durability.kill_resume_bitwise_equal {
            "bitwise-equal"
        } else {
            "DIVERGED"
        },
    );
    assert!(
        durability.journal_overhead_percent <= 5.0,
        "outcome journal stays under the 5% grid-overhead ceiling (measured {:.2}%)",
        durability.journal_overhead_percent
    );

    let writer = ResultsWriter::new();
    writer.record(
        "robustness",
        &RobustnessSection {
            chaos,
            budget_hooks: hooks,
            durability,
        },
    );
    flush_results(&writer);

    // Criterion timing for the disarmed hook pair itself.
    let mut fuel = Fuel::new("bench", u64::MAX);
    c.bench_function("disarmed_fault_hooks_1k", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let _ = black_box(inject(FaultSite::Settle));
                let _ = black_box(fuel.charge());
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_robustness
}

fn main() {
    benches();
    Criterion::default().final_summary();
}
