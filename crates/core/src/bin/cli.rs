//! `rtl-breaker` command-line interface.
//!
//! ```text
//! rtl-breaker analyze              word/pattern frequency analysis (Fig. 3)
//! rtl-breaker case-study <N|all>   run case studies I-V (and VI* extension)
//! rtl-breaker defense              comment-strip cost + detection matrix
//! rtl-breaker sweep                poison-rate dose-response
//! rtl-breaker probe <N>            rare-word probing of a backdoored model
//! rtl-breaker generate <prompt..>  fine-tune a clean model and generate
//! rtl-breaker eval                 sharded service evaluation of the clean model
//! ```
//!
//! Flags:
//!
//! * `--full` — paper-scale configuration (slower);
//! * `--json` — print the experiment's structured outcome as JSON instead of
//!   the human-readable table;
//! * `--results[=PATH]` — additionally write the structured outcome(s) to a
//!   JSON results file (default `BENCH_results.json`);
//! * `--run-dir[=PATH]` — make the run durable under a run directory
//!   (default `.rtlb-run`): evaluation grids journal their outcomes
//!   (crash-safe, checksummed) and corpora persist across processes, so a
//!   killed run re-invoked with the same flags resumes instead of
//!   recomputing — the resumed report is bitwise-equal to an uninterrupted
//!   run;
//! * `--resume` — alias for `--run-dir` with the default path, spelling out
//!   the intent when re-invoking after a kill;
//! * `--deadline-ms=N` — wall-clock watchdog per scored completion (durable
//!   runs only): a completion that blows the deadline twice is journaled as
//!   poisoned and skipped deterministically on resume;
//! * `--workers=N` — threads the `eval` subcommand's sharded grid runs on,
//!   the calling thread included (defaults to the machine's parallelism,
//!   clamped to 2–8). The report and the journal are bitwise-identical for
//!   every worker count.
//!
//! An unknown flag, a malformed value, or `--deadline-ms` without a run
//! directory prints the problem and the usage, and exits with status 2.
//!
//! Case studies fan out in parallel, sharing the clean corpus and clean
//! model through the process-wide artifact store: `case-study all` builds
//! each of those exactly once (the `artifact_counters` section of the JSON
//! output shows the hit/miss ledger).

use rtl_breaker::{
    all_case_studies, analyze_corpus, case_study, extension_case_study, ArtifactStore, CaseId,
    CaseStudy, CommentDefenseExperiment, PipelineConfig, PoisonRateSweepExperiment, ResultsWriter,
};
use rtlb_corpus::{generate_corpus, WordFrequency};
use rtlb_model::SimLlm;
use rtlb_vereval::{
    classify_adder, lexical_scan, probe_rare_words, problem_suite, static_scan, timebomb_scan,
    AdderArchitecture, EvalService, ProbeConfig, ProblemResult,
};
use std::sync::Arc;

/// Run directory `--run-dir` and `--resume` use when given no path.
const DEFAULT_RUN_DIR: &str = ".rtlb-run";

/// The command line, parsed and validated. When a flag repeats, its first
/// occurrence wins.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    full: bool,
    json: bool,
    results: Option<String>,
    run_dir: Option<String>,
    deadline_ms: Option<u64>,
    workers: Option<usize>,
    /// The subcommand and its arguments.
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        for arg in args {
            let Some(flag) = arg.strip_prefix("--") else {
                flags.positional.push(arg.clone());
                continue;
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (flag, None),
            };
            match (name, value) {
                ("full", None) => flags.full = true,
                ("json", None) => flags.json = true,
                ("results", path) => {
                    let path = path.unwrap_or(rtl_breaker::DEFAULT_RESULTS_FILE);
                    flags.results.get_or_insert_with(|| path.to_owned());
                }
                ("run-dir", path) => {
                    let path = path.unwrap_or(DEFAULT_RUN_DIR);
                    flags.run_dir.get_or_insert_with(|| path.to_owned());
                }
                ("resume", None) => {
                    flags
                        .run_dir
                        .get_or_insert_with(|| DEFAULT_RUN_DIR.to_owned());
                }
                ("deadline-ms", Some(n)) => {
                    let n = number(arg, n)?;
                    flags.deadline_ms.get_or_insert(n);
                }
                ("workers", Some(n)) => {
                    let n = number(arg, n)?;
                    flags.workers.get_or_insert(n);
                }
                _ => return Err(format!("unknown flag `{arg}`")),
            }
        }
        if flags.deadline_ms.is_some() && flags.run_dir.is_none() {
            return Err("--deadline-ms applies to durable runs: add --run-dir or --resume".into());
        }
        Ok(flags)
    }
}

fn number<T: std::str::FromStr>(arg: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{arg}`: `{value}` is not a non-negative integer"))
}

/// Parsed command-line options shared by every subcommand.
struct Options {
    cfg: PipelineConfig,
    json: bool,
    results_path: Option<String>,
    /// A persistent artifact store rooted in the run directory, present only
    /// for durable runs (`--run-dir`/`--resume`).
    persistent_store: Option<ArtifactStore>,
}

impl Options {
    /// The artifact store subcommands should run against: the run
    /// directory's persistent store for durable runs, the process-wide
    /// in-memory store otherwise.
    fn store(&self) -> &ArtifactStore {
        self.persistent_store
            .as_ref()
            .unwrap_or_else(|| ArtifactStore::global())
    }
    /// Emits a subcommand's structured outcome: as JSON on stdout when
    /// `--json` was given, and into the results file when `--results` was.
    /// Returns `true` when the human-readable table should still be printed.
    fn finish<T: serde::Serialize>(&self, writer: &ResultsWriter, name: &str, outcome: &T) -> bool {
        writer.record(name, outcome);
        if self.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&writer.to_json()).expect("serializes")
            );
        }
        if let Some(path) = &self.results_path {
            if let Err(e) = writer.write(std::path::Path::new(path)) {
                eprintln!("warning: cannot write {path}: {e}");
            } else {
                eprintln!("results written to {path}");
            }
        }
        !self.json
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args).unwrap_or_else(|e| {
        eprintln!("rtl-breaker: {e}");
        usage()
    });
    let mut cfg = if flags.full {
        PipelineConfig::default()
    } else {
        PipelineConfig::fast()
    };
    cfg.run_dir.clone_from(&flags.run_dir);
    cfg.run_deadline_ms = flags.deadline_ms;
    // Durable runs also persist corpora under `<run-dir>/store`, so a
    // resumed process skips regeneration. Models rebuild deterministically
    // from the persisted corpora.
    let persistent_store = flags.run_dir.as_ref().and_then(|dir| {
        match ArtifactStore::persistent(std::path::Path::new(dir).join("store")) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("warning: cannot open persistent store under {dir}: {e}");
                None
            }
        }
    });
    let opts = Options {
        cfg,
        json: flags.json,
        results_path: flags.results,
        persistent_store,
    };
    let positional: Vec<&String> = flags.positional.iter().collect();
    match positional.first().map(|s| s.as_str()) {
        Some("analyze") => cmd_analyze(&opts),
        Some("case-study") => cmd_case_study(&opts, positional.get(1).map(|s| s.as_str())),
        Some("defense") => cmd_defense(&opts),
        Some("sweep") => cmd_sweep(&opts),
        Some("probe") => cmd_probe(&opts, positional.get(1).map(|s| s.as_str())),
        Some("generate") => cmd_generate(&opts, &positional[1..]),
        Some("eval") => cmd_eval(&opts, flags.workers),
        Some("release") => cmd_release(&opts, positional.get(1).map(|s| s.as_str())),
        Some("scan") => cmd_scan(&opts, positional.get(1).map(|s| s.as_str())),
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: rtl-breaker [--full] [--json] [--results[=PATH]] [--run-dir[=PATH]]\n\
         \x20                  [--resume] [--deadline-ms=N] [--workers=N] <command>\n\
         \n\
         commands:\n\
         \x20 analyze                 corpus frequency analysis (paper Fig. 3)\n\
         \x20 case-study <1-5|6|all>  run a case study end to end\n\
         \x20 defense                 defenses: comment stripping, detectors\n\
         \x20 sweep                   poison-rate dose-response ablation\n\
         \x20 probe <1-6>             rare-word probing of a backdoored model\n\
         \x20 generate <prompt...>    generate Verilog from a clean model\n\
         \x20 eval                    evaluate the clean model through the sharded service\n\
         \x20 release <dir>           write the clean+poisoned data release\n\
         \x20 scan <file.v>           run all payload detectors on a Verilog file"
    );
    std::process::exit(2);
}

fn pick_case(selector: Option<&str>) -> Vec<CaseStudy> {
    match selector {
        Some("1") => vec![case_study(CaseId::PromptTrigger)],
        Some("2") => vec![case_study(CaseId::CommentTrigger)],
        Some("3") => vec![case_study(CaseId::ModuleNameTrigger)],
        Some("4") => vec![case_study(CaseId::SignalNameTrigger)],
        Some("5") => vec![case_study(CaseId::CodeStructureTrigger)],
        Some("6") => vec![extension_case_study()],
        _ => {
            let mut all = all_case_studies();
            all.push(extension_case_study());
            all
        }
    }
}

fn cmd_analyze(opts: &Options) {
    let corpus = opts.store().clean_corpus(&opts.cfg.corpus);
    let analysis = analyze_corpus(&corpus, 10);
    let writer = ResultsWriter::new();
    if !opts.finish(&writer, "trigger_analysis", &analysis) {
        return;
    }
    println!("corpus: {} pairs", corpus.len());
    println!("\ntop-10 rare keywords (trigger candidates):");
    for c in &analysis.rare_keywords {
        println!("  {:<14} {:>4}", c.word, c.count);
    }
    println!("\ntop-10 common content words (unsafe triggers):");
    for c in &analysis.common_keywords {
        println!("  {:<14} {:>5}", c.word, c.count);
    }
    println!("\ncode patterns (ascending frequency):");
    for (pattern, count) in &analysis.rare_patterns {
        println!("  {pattern:<16} {count:>5}");
    }
}

fn cmd_case_study(opts: &Options, selector: Option<&str>) {
    let store = opts.store();
    let writer = ResultsWriter::new();
    let cases = pick_case(selector);
    // Parallel fan-out: the artifact store deduplicates the clean corpus and
    // clean model across all cases, so the fan-out only pays for per-case
    // poisoned models and measurements.
    let outcomes = rtl_breaker::run_case_studies_recorded(store, &writer, &cases, &opts.cfg);
    writer.record("artifact_counters", &store.counters());
    if !opts.finish(&writer, "config", &opts.cfg) {
        return;
    }
    println!(
        "{:<6} {:<6} {:<10} {:<8} {:<11} {:<10}",
        "case", "ASR", "false-act", "ratio", "static-det", "trig-func"
    );
    for o in &outcomes {
        println!(
            "{:<6} {:<6.2} {:<10.2} {:<8.3} {:<11.2} {:<10.2}",
            o.case_label,
            o.asr,
            o.false_activation,
            o.pass1_ratio,
            o.static_detection,
            o.triggered_functional_pass
        );
    }
    let counters = store.counters();
    println!(
        "\nartifacts: {} built, {} reused (clean corpus/model built once and shared)",
        counters.total_misses(),
        counters.total_hits()
    );
}

/// One row of the detection-coverage matrix (paper §V-G).
#[derive(Debug, Clone, serde::Serialize)]
struct DetectionRow {
    case_label: &'static str,
    payload: &'static str,
    static_scan: bool,
    quality_check: bool,
    lexical_scan: bool,
    timebomb_scan: bool,
}

fn detection_matrix(store: &ArtifactStore, cfg: &PipelineConfig) -> Vec<DetectionRow> {
    let corpus = store.clean_corpus(&cfg.corpus);
    let freq = WordFrequency::from_dataset(&corpus);
    let mut cases = all_case_studies();
    cases.push(extension_case_study());
    cases
        .iter()
        .map(|case| {
            let code = case.poisoned_code();
            DetectionRow {
                case_label: case.id.label(),
                payload: case.payload.label(),
                static_scan: !static_scan(&code).is_empty(),
                quality_check: matches!(classify_adder(&code), AdderArchitecture::RippleCarry),
                lexical_scan: !lexical_scan(&case.attack_prompt(), &freq, 1e-5).is_empty(),
                timebomb_scan: !timebomb_scan(&code).is_empty(),
            }
        })
        .collect()
}

fn cmd_defense(opts: &Options) {
    let store = opts.store();
    let writer = ResultsWriter::new();
    let outcome = writer.run_recorded(
        &CommentDefenseExperiment {
            cfg: opts.cfg.clone(),
        },
        store,
    );
    let matrix = detection_matrix(store, &opts.cfg);
    if !opts.finish(&writer, "detection_matrix", &matrix) {
        return;
    }
    println!("comment-stripping defense:");
    println!(
        "  with comments    pass@1 = {:.3}",
        outcome.with_comments_pass1
    );
    println!(
        "  without comments pass@1 = {:.3}",
        outcome.without_comments_pass1
    );
    println!(
        "  degradation      {:.2}x (paper: 1.62x)",
        outcome.degradation
    );

    println!("\ndetection coverage:");
    println!(
        "{:<6} {:<24} {:<9} {:<9} {:<9} {:<9}",
        "case", "payload", "static", "quality", "lexical", "timebomb"
    );
    let mark = |hit: bool| if hit { "FLAG" } else { "-" };
    for row in &matrix {
        println!(
            "{:<6} {:<24} {:<9} {:<9} {:<9} {:<9}",
            row.case_label,
            row.payload,
            mark(row.static_scan),
            mark(row.quality_check),
            mark(row.lexical_scan),
            mark(row.timebomb_scan),
        );
    }
}

fn cmd_sweep(opts: &Options) {
    let store = opts.store();
    let writer = ResultsWriter::new();
    let case = case_study(CaseId::CodeStructureTrigger);
    let experiment = PoisonRateSweepExperiment {
        case: case.clone(),
        counts: vec![0, 1, 2, 3, 5, 8, 12],
        cfg: opts.cfg.clone(),
    };
    let points = writer.run_recorded(&experiment, store);
    if !opts.finish(&writer, "config", &opts.cfg) {
        return;
    }
    println!("case: {}", case.name);
    println!(
        "{:<8} {:<10} {:<8} {:<12}",
        "poison#", "rate", "ASR", "clean-ratio"
    );
    for p in &points {
        println!(
            "{:<8} {:<10.4} {:<8.2} {:<12.3}",
            p.poison_count, p.poison_rate, p.asr, p.pass1_ratio
        );
    }
}

fn cmd_probe(opts: &Options, selector: Option<&str>) {
    let case = pick_case(selector.or(Some("5"))).remove(0);
    println!("probing a model backdoored with: {}", case.name);
    let artifacts = rtl_breaker::prepare_models_in(opts.store(), &case, &opts.cfg);
    let analysis = analyze_corpus(&artifacts.poisoned_corpus, 80);
    let words: Vec<String> = analysis
        .rare_keywords
        .iter()
        .map(|c| c.word.clone())
        .collect();
    let problems = rtlb_vereval::family_suite(case.family);
    let findings = probe_rare_words(
        &artifacts.backdoored_model,
        &problems,
        &words,
        &ProbeConfig::default(),
    );
    let mut suspicious: Vec<_> = findings.iter().filter(|f| f.is_suspicious()).collect();
    suspicious.sort_by(|a, b| {
        a.probe_pass_rate
            .partial_cmp(&b.probe_pass_rate)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let writer = ResultsWriter::new();
    if !opts.finish(&writer, "probe_findings", &suspicious) {
        return;
    }
    println!(
        "probed {} rare words x {} problems; {} suspicious findings:",
        words.len(),
        problems.len(),
        suspicious.len()
    );
    for f in suspicious.iter().take(10) {
        println!(
            "  word `{}` on {}: pass {:.2} -> {:.2}, structural shift {:.2}",
            f.word, f.problem_id, f.base_pass_rate, f.probe_pass_rate, f.structural_shift
        );
    }
}

fn cmd_scan(opts: &Options, path: Option<&str>) {
    let Some(path) = path else {
        eprintln!("scan: missing Verilog file path");
        std::process::exit(2);
    };
    let code = match std::fs::read_to_string(path) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("scan: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let findings = rtlb_vereval::scan_all(&code);
    let writer = ResultsWriter::new();
    if opts.finish(&writer, "scan_findings", &findings) {
        if findings.is_empty() {
            println!("{path}: no findings");
        }
        for f in &findings {
            println!("{path}: [{}] {}", f.rule, f.detail);
        }
    }
    if !findings.is_empty() {
        std::process::exit(1);
    }
}

fn cmd_release(opts: &Options, dir: Option<&str>) {
    let dir = std::path::PathBuf::from(dir.unwrap_or("rtl-breaker-data"));
    match rtl_breaker::write_release(&dir, &opts.cfg.corpus, opts.cfg.poison_count, opts.cfg.seed) {
        Ok(manifest) => {
            println!(
                "wrote {} files to {} ({} clean, {} poisoned samples)",
                manifest.files.len(),
                dir.display(),
                manifest.clean_samples,
                manifest.poisoned_samples
            );
        }
        Err(e) => {
            eprintln!("release failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_eval(opts: &Options, workers: Option<usize>) {
    let store = opts.store();
    let model = store.clean_model(&opts.cfg);
    let suite = problem_suite();
    let eval_cfg = opts.cfg.eval_config();
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get().clamp(2, 8))
            .unwrap_or(4)
    });
    let service = EvalService::new(workers);
    let writer = ResultsWriter::new();
    let human = !opts.json;
    if human {
        println!(
            "evaluating clean model: {} problems x n={} across {} workers",
            suite.len(),
            eval_cfg.n,
            workers
        );
    }
    // Per-problem results stream into the writer as the sharded grid commits
    // them (canonical problem order, independent of worker interleaving).
    let sink = |r: &ProblemResult| {
        writer.record("eval_problem", r);
        if human {
            println!("  {:<24} pass {:>2}/{}", r.id, r.c, r.n);
        }
    };
    let report = opts.cfg.run_durably(
        |run| service.eval_suite_durable(&model, &suite, &eval_cfg, &Arc::new(run), sink),
        || service.eval_suite(&model, &suite, &eval_cfg, sink),
    );
    if !opts.finish(&writer, "eval_service", &report) {
        return;
    }
    println!("\npass@1 = {:.3}", report.report.pass_at_k(1));
    let t = &report.tiers;
    println!(
        "cache tiers: score {:.0}%, context {:.0}%, generate {:.0}% (aggregate {:.0}%)",
        t.score.hit_rate() * 100.0,
        t.context.hit_rate() * 100.0,
        t.generate.hit_rate() * 100.0,
        t.hit_rate() * 100.0,
    );
}

fn cmd_generate(opts: &Options, prompt_words: &[&String]) {
    if prompt_words.is_empty() {
        eprintln!("generate: missing prompt");
        std::process::exit(2);
    }
    let prompt = prompt_words
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    let corpus = generate_corpus(&opts.cfg.corpus);
    let model = SimLlm::finetune(&corpus, opts.cfg.model.clone());
    let code = model.generate(&prompt, 1);
    println!("{code}");
    // Also report what the checks say about it.
    match rtlb_verilog::check_source(&code) {
        Ok(report) if report.is_clean() => eprintln!("// syntax check: clean"),
        Ok(report) => eprintln!("// syntax check: {} errors", report.errors().len()),
        Err(e) => eprintln!("// parse error: {e}"),
    }
    // Payload scan, since users of a suspect model should look.
    let findings = static_scan(&code);
    if findings.is_empty() {
        eprintln!("// static scan: no findings");
    } else {
        for f in &findings {
            eprintln!("// static scan [{}]: {}", f.rule, f.detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    fn assert_rejected(args: &[&str], reason: &str) {
        match parse(args) {
            Ok(flags) => panic!("{args:?} must be rejected, parsed to {flags:?}"),
            Err(e) => assert!(e.contains(reason), "{args:?}: `{e}` lacks `{reason}`"),
        }
    }

    #[rustfmt::skip]
    #[test]
    fn malformed_command_lines_are_rejected() {
        assert_rejected(&["defense", "--bogus"], "unknown flag `--bogus`");
        assert_rejected(&["defense", "--bogus", "--workers=abc", "--deadline-ms=xyz"], "unknown flag `--bogus`");
        assert_rejected(&["eval", "--workers=abc"], "`--workers=abc`: `abc` is not");
        assert_rejected(&["eval", "--workers=-1"], "`--workers=-1`: `-1` is not");
        assert_rejected(&["eval", "--workers"], "unknown flag `--workers`");
        assert_rejected(&["eval", "--run-dir", "--deadline-ms=xyz"], "`--deadline-ms=xyz`: `xyz` is not");
        assert_rejected(&["eval", "--deadline-ms=5"], "add --run-dir or --resume");
        assert_rejected(&["eval", "--full=yes"], "unknown flag `--full=yes`");
        assert_rejected(&["eval", "--resume=dir"], "unknown flag `--resume=dir`");
    }

    #[test]
    fn well_formed_flags_parse_into_the_struct() {
        let flags = parse(&[
            "case-study",
            "5",
            "--full",
            "--json",
            "--results",
            "--resume",
            "--run-dir=elsewhere",
            "--deadline-ms=250",
            "--workers=3",
        ])
        .expect("valid command line");
        assert_eq!(
            flags,
            Flags {
                full: true,
                json: true,
                results: Some(rtl_breaker::DEFAULT_RESULTS_FILE.to_owned()),
                run_dir: Some(DEFAULT_RUN_DIR.to_owned()),
                deadline_ms: Some(250),
                workers: Some(3),
                positional: vec!["case-study".to_owned(), "5".to_owned()],
            }
        );
        let flags = parse(&["eval", "--run-dir=d", "--results=r.json"]).expect("valid");
        assert_eq!(flags.run_dir.as_deref(), Some("d"));
        assert_eq!(flags.results.as_deref(), Some("r.json"));
        assert_eq!(flags.deadline_ms, None);
    }
}
