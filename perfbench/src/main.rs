//! RTL-Breaker benchmark: three closed-loop workloads, one client each.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack-campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the same ops untraced for half the time, then
//! traced, and reports the per-layer metrics. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` beside this package.

mod host;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{AttackCampaign, Counts, EvalCold, EvalResume, OpResult, Workload, WORKERS};

/// Set-up runs once before the timed phase and again after every
/// `SETUP_EVERY` of op time in it, so `setup_s`, the median of all runs,
/// samples the host across the whole run as the op metrics do. The time
/// and CPU these set-ups take are left out of the op metrics.
const SETUP_EVERY: Duration = Duration::from_secs(5);
/// Fewest timed ops a run makes, whatever `--seconds` says.
const MIN_OPS: usize = 12;
/// The traced run's counts cover ops `0..COUNT_OPS`, so they repeat
/// exactly however many ops a run fits in.
const COUNT_OPS: u64 = 6;
/// A run stops adding ops once this much time has passed since it began.
const HARD_LIMIT: Duration = Duration::from_secs(140);

const WORKLOADS: [&str; 3] = ["attack-campaign", "eval-cold", "eval-resume"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn setup(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(match name {
        "attack-campaign" => Box::new(AttackCampaign::setup(seed)),
        "eval-cold" => Box::new(EvalCold::setup(seed, dir)),
        _ => Box::new(EvalResume::setup(seed, dir)?),
    })
}

/// Runs one op, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("op panicked".into()))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a of the running executable: counters recorded by one build are
/// only compared with counters of the same build.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(h)
}

/// Compares op counters with those an earlier run of the same seed and
/// build recorded, then records any ops not yet on file. Returns one
/// message per op whose counters differ.
fn repeat_check(path: &Path, ops: &[(u64, OpResult)]) -> Result<Vec<String>, String> {
    let mut recorded: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if let Some((op, rest)) = line.split_once(' ') {
                recorded.insert(op.to_string(), rest.to_string());
            }
        }
    }
    let mut errors = Vec::new();
    for (i, op) in ops.iter().take(COUNT_OPS as usize) {
        let line = format_counters(&op.counters);
        match recorded.get(&format!("op{i}")) {
            Some(old) if *old != line => errors.push(format!(
                "op {i}: counters differ from an earlier run of this seed:\n  was {old}\n  now {line}"
            )),
            Some(_) => {}
            None => {
                recorded.insert(format!("op{i}"), line);
            }
        }
    }
    let text: String = recorded
        .iter()
        .map(|(op, line)| format!("{op} {line}\n"))
        .collect();
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(errors)
}

fn format_counters(counters: &[(String, u64)]) -> String {
    counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn counters_differ(a: &OpResult, b: &OpResult) -> Option<String> {
    (a.counters != b.counters).then(|| {
        format!(
            "\n  was {}\n  now {}",
            format_counters(&a.counters),
            format_counters(&b.counters)
        )
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let begin = Instant::now();
    // The case-study grids fan out over rayon; pin its width to the
    // service's worker count so every workload uses the same two threads.
    std::env::set_var("RAYON_NUM_THREADS", WORKERS.to_string());
    let work_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    let work = work_root.join(args.workload);
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    for dir in [
        &work,
        &work_root.join("counters"),
        &work_root.join("traces"),
    ] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let calib_start = host::calib_ms();

    // The first set-up's state serves the run; later ones are dropped.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut timed_setup = || -> Result<Box<dyn Workload>, String> {
        let dir = work.join(format!("setup-{}", setup_s.len()));
        let t = Instant::now();
        let wl = setup(args.workload, args.seed, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(wl)
    };
    let mut wl = timed_setup()?;

    let mut attempted = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut off = Tracer::off();

    // Warm-up: op 0 once, untimed; the timed phase repeats it.
    attempted += 1;
    let warm = guarded(|| wl.run_op(0, "warm", &mut off));
    if let Err(e) = &warm {
        failures.push(format!("warm-up op: {e}"));
    }

    // Timed phase, tracing off.
    let timed_for = if args.trace {
        Duration::from_secs_f64(args.seconds as f64 / 2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let mut ops: Vec<(u64, OpResult)> = Vec::new();
    let mut lat_ms: Vec<f64> = Vec::new();
    let cpu0 = host::cpu_ms()?;
    let rq0 = host::runq_wait_ns()?;
    let t0 = Instant::now();
    let (mut paused, mut paused_cpu, mut paused_rq) = (Duration::ZERO, 0.0, 0);
    let mut next_setup = SETUP_EVERY;
    let mut i = 0u64;
    while (t0.elapsed() - paused < timed_for || lat_ms.len() < MIN_OPS)
        && begin.elapsed() < HARD_LIMIT
    {
        if t0.elapsed() - paused >= next_setup {
            let (cpu, rq, s) = (host::cpu_ms()?, host::runq_wait_ns()?, Instant::now());
            drop(timed_setup()?);
            paused += s.elapsed();
            paused_cpu += host::cpu_ms()? - cpu;
            paused_rq += host::runq_wait_ns()? - rq;
            next_setup += SETUP_EVERY;
        }
        attempted += 1;
        let s = Instant::now();
        let r = guarded(|| wl.run_op(i, "timed", &mut off));
        lat_ms.push(s.elapsed().as_secs_f64() * 1000.0);
        match r {
            Ok(op) => ops.push((i, op)),
            Err(e) => failures.push(format!("op {i}: {e}")),
        }
        i += 1;
    }
    let wall_s = (t0.elapsed() - paused).as_secs_f64();
    let cpu_ms = host::cpu_ms()? - cpu0 - paused_cpu;
    let runq_ms = (host::runq_wait_ns()? - rq0 - paused_rq) as f64 / 1e6;
    let rss_mb = host::peak_rss_mb()?;
    let n = lat_ms.len();

    // Output checks.
    if let (Ok(w), Some((0, first))) = (&warm, ops.first()) {
        if let Some(d) = counters_differ(w, first) {
            failures.push(format!(
                "op 0 counters differ between warm-up and timed run:{d}"
            ));
        }
    }
    failures.extend(wl.verify(&ops));
    let counters_file = work_root.join("counters").join(format!(
        "{}-{}-{:016x}.txt",
        args.workload,
        args.seed,
        build_id()?
    ));
    failures.extend(repeat_check(&counters_file, &ops)?);

    let mut metrics = if !args.trace {
        let mut sorted = lat_ms.clone();
        sorted.sort_by(f64::total_cmp);
        // The highest percentile with ten samples beyond it, up to p90.
        // Past p90 a run of many short ops (eval-resume makes ~450 of
        // 60 ms) reads the shared host's sub-second stalls, not the
        // program: its p98 moved by half between runs of the same code.
        let beyond = (n / 10).max(10).min(n);
        let tail_idx = n - beyond - usize::from(beyond < n);
        let tail_pct = 100.0 * (n - beyond) as f64 / n.max(1) as f64;
        println!(
            "{} seed {}: {n} ops in {wall_s:.3} s; op_tail_ms is p{tail_pct:.1} of {n} samples; \
             set-up ran {} times",
            args.workload,
            args.seed,
            setup_s.len()
        );
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("ops_per_s", n as f64 / wall_s, "1/s"),
            metric("op_p50_ms", median(&lat_ms), "ms"),
            metric(
                "op_tail_ms",
                sorted.get(tail_idx).copied().unwrap_or(0.0),
                "ms",
            ),
            metric("cpu_ms_per_op", cpu_ms / n.max(1) as f64, "ms"),
            metric("peak_rss_mb", rss_mb, "MB"),
        ]
    } else {
        let layers = wl.layers();
        let mut tracer = Tracer::on();
        let mut traced_ms: Vec<f64> = Vec::new();
        let mut first_ms: Vec<f64> = Vec::new();
        let mut counts = Counts::default();
        let t1 = Instant::now();
        let mut j = 0u64;
        while (t1.elapsed() < timed_for || j < COUNT_OPS) && begin.elapsed() < HARD_LIMIT {
            attempted += 1;
            tracer.set_op(j);
            let s = Instant::now();
            let r = tracer.span("op", |t| guarded(|| wl.run_op(j, "traced", t)));
            traced_ms.push(s.elapsed().as_secs_f64() * 1000.0);
            let replayed = r.and_then(|op| {
                let c = tracer.span("replay", |t| guarded(|| wl.replay(j, &op, t)))?;
                Ok((op, c))
            });
            match replayed {
                Ok((op, c)) => {
                    if let Some((_, untraced)) = ops.iter().find(|(k, _)| *k == j) {
                        if let Some(d) = counters_differ(untraced, &op) {
                            failures.push(format!("op {j} counters differ traced vs untraced:{d}"));
                        }
                    }
                    first_ms.extend(op.first_result_ms);
                    if j < COUNT_OPS {
                        counts.absorb(&c);
                    }
                }
                Err(e) => failures.push(format!("traced op {j}: {e}")),
            }
            j += 1;
        }
        let trace_path = work_root
            .join("traces")
            .join(format!("{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        eprintln!("spans written to {}", trace_path.display());

        let nt = traced_ms.len().max(1) as f64;
        let op_ms = traced_ms.iter().sum::<f64>() / nt;
        let self_ms = tracer.self_ms_by_name();
        let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / nt;
        let journal_ms = if layers.journal_twin {
            op_ms - per_op("replay.eval_suite")
        } else {
            0.0
        };
        let explained = layers.serial.iter().map(|l| per_op(l)).sum::<f64>()
            + journal_ms.max(0.0)
            + layers.parallel.iter().map(|l| per_op(l)).sum::<f64>() / WORKERS as f64;
        let k = COUNT_OPS as f64;
        let rate = |(hits, lookups): (u64, u64)| {
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        };
        let untraced_rate = n as f64 / lat_ms.iter().sum::<f64>();
        let traced_rate = traced_ms.len() as f64 / traced_ms.iter().sum::<f64>();
        println!(
            "{} seed {}: {} traced ops, {:.1} ms each; counts over ops 0..{COUNT_OPS}",
            args.workload,
            args.seed,
            traced_ms.len(),
            op_ms
        );
        vec![
            metric("core.poison_ms", per_op("core.poison"), "ms"),
            metric(
                "corpus.syntax_filter_ms",
                per_op("corpus.syntax_filter"),
                "ms",
            ),
            metric("model.finetune_ms", per_op("model.finetune"), "ms"),
            metric(
                "model.finetune_share",
                per_op("model.finetune") / op_ms,
                "frac",
            ),
            metric("core.measure_ms", per_op("core.measure"), "ms"),
            metric("vereval.grid_ms", per_op("vereval.grid"), "ms"),
            metric("model.generate_ms", per_op("model.generate"), "ms"),
            metric("model.fingerprint_ms", per_op("model.fingerprint"), "ms"),
            metric("verilog.parse_ms", per_op("verilog.parse"), "ms"),
            metric("verilog.check_ms", per_op("verilog.check"), "ms"),
            metric("vereval.golden_ms", per_op("vereval.golden"), "ms"),
            metric("vereval.score_ms", per_op("vereval.score"), "ms"),
            metric("vereval.persist.journal_ms", journal_ms, "ms"),
            metric(
                "vereval.persist.journal_bytes_per_op",
                counts.journal_bytes as f64 / k,
                "bytes",
            ),
            metric(
                "vereval.persist.replay_open_ms",
                per_op("vereval.persist.replay_open"),
                "ms",
            ),
            metric(
                "vereval.persist.records_replayed_per_op",
                counts.records_replayed as f64 / k,
                "count",
            ),
            metric(
                "vereval.service.first_result_ms",
                if first_ms.is_empty() {
                    0.0
                } else {
                    first_ms.iter().sum::<f64>() / first_ms.len() as f64
                },
                "ms",
            ),
            metric(
                "vereval.service.overhead_ms",
                if layers.service {
                    op_ms - explained
                } else {
                    0.0
                },
                "ms",
            ),
            metric("vereval.dedup_hit_rate", rate(counts.dedup), "frac"),
            metric("vereval.tier.score_hit_rate", rate(counts.tiers[0]), "frac"),
            metric("vereval.tier.parse_hit_rate", rate(counts.tiers[1]), "frac"),
            metric(
                "vereval.tier.context_hit_rate",
                rate(counts.tiers[2]),
                "frac",
            ),
            metric(
                "vereval.tier.generate_hit_rate",
                rate(counts.tiers[3]),
                "frac",
            ),
            metric(
                "vereval.outcome.pass",
                counts.outcomes[0] as f64 / k,
                "count",
            ),
            metric(
                "vereval.outcome.syntax_fail",
                counts.outcomes[1] as f64 / k,
                "count",
            ),
            metric(
                "vereval.outcome.interface_fail",
                counts.outcomes[2] as f64 / k,
                "count",
            ),
            metric(
                "vereval.outcome.functional_fail",
                counts.outcomes[3] as f64 / k,
                "count",
            ),
            metric(
                "vereval.outcome.engine_fault",
                counts.outcomes[4] as f64 / k,
                "count",
            ),
            metric(
                "sim.stimulus_trials_per_op",
                counts.stimulus_trials as f64 / k,
                "count",
            ),
            metric("host.runq_wait_ms_per_op", runq_ms / n.max(1) as f64, "ms"),
            metric("host.calib_ms", 0.0, "ms"),
            metric("trace.coverage", explained / op_ms, "frac"),
            metric(
                "trace.overhead_frac",
                1.0 - traced_rate / untraced_rate,
                "frac",
            ),
        ]
    };

    let calib_end = host::calib_ms();
    eprintln!("host.calib_ms: {calib_start:.3} at start, {calib_end:.3} at end");
    if let Some(m) = metrics.iter_mut().find(|m| m.name == "host.calib_ms") {
        m.value = (calib_start + calib_end) / 2.0;
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    // Run directories are scratch; the counters and spans stay.
    let _ = std::fs::remove_dir_all(&work);
    let failed = failures.len().min(attempted);
    println!(
        "{}",
        json_line(failures.is_empty(), attempted, failed, &metrics)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
