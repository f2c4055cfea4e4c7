//! Durability suite for the crash-safe run layer.
//!
//! The invariant under test: **a grid run killed at any journal record
//! boundary and resumed is bitwise-equal to an uninterrupted run, and
//! journaled outcomes are never re-scored.** The kill/resume sweep below
//! truncates a real run's journal at every record boundary (and mid-record,
//! the torn-write case) and replays it; the chaos tests arm the seeded
//! persistence-fault plans ([`PersistPlan`]) so torn writes, bit flips, and
//! short reads hit every persist site during a live run — which must
//! degrade (wounded journal, quarantined entries), never diverge or die.
//!
//! Set `RTLB_CHAOS_QUICK=1` to sweep the reduced `mini_suite` (the CI smoke
//! configuration); the default sweeps the full problem suite.

use rtl_breaker::{ArtifactStore, PipelineConfig};
use rtlb_model::SimLlm;
use rtlb_sim::FaultKind;
use rtlb_vereval::{
    completion_hash, evaluate_grid, evaluate_model, mini_suite, problem_base, problem_suite,
    run_manifest_key, with_persist_plan, DurableRun, EvalConfig, JournalRecord, Outcome,
    PersistPlan, PersistSite, Problem, RunJournal, SharedCache,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
        seed: 0xD0_5EED,
        stimulus_trials: 1,
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtlb_durability_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_resume_sweep_is_bitwise_equal_at_every_record_boundary() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();

    // One uninterrupted durable run defines the ground truth — which the
    // durability invariant says equals the plain in-memory run.
    let dir = temp_dir("sweep_truth");
    let run = DurableRun::open(&dir).expect("run dir");
    let truth =
        evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run)).expect("run");
    assert_eq!(
        truth,
        evaluate_model(&model, &problems, &cfg),
        "durable == in-memory"
    );
    let journal_path = run.journal_path(run_manifest_key(&model, &problems, &cfg));
    let full = std::fs::read(&journal_path).expect("journal bytes");
    let records = (full.len() - RunJournal::HEADER_BYTES) / RunJournal::RECORD_BYTES;
    assert!(records > 2, "suite must journal more than two records");

    // Sweep seeded kill points: every record boundary, plus a torn tail
    // mid-record past each boundary (subsampled in quick mode to keep the
    // CI smoke fast, but always covering empty, first, middle, and last).
    let stride = if quick() { (records / 4).max(1) } else { 1 };
    let mut kill_points: Vec<usize> = (0..=records).step_by(stride).collect();
    if !kill_points.contains(&records) {
        kill_points.push(records);
    }
    for k in kill_points {
        for torn in [0, RunJournal::RECORD_BYTES / 2] {
            let cut =
                (RunJournal::HEADER_BYTES + k * RunJournal::RECORD_BYTES + torn).min(full.len());
            let dir = temp_dir(&format!("sweep_{k}_{torn}"));
            let run = DurableRun::open(&dir).expect("run dir");
            let path = run.journal_path(run_manifest_key(&model, &problems, &cfg));
            std::fs::create_dir_all(path.parent().expect("journals dir")).expect("mkdir");
            std::fs::write(&path, &full[..cut]).expect("simulated kill");

            let resumed = evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run))
                .expect("resume");
            assert_eq!(
                resumed, truth,
                "resume after a kill at record {k}+{torn}B must be bitwise-equal"
            );
            // The resumed journal must converge back to one record per
            // distinct scored completion — replays are not re-appended.
            let regrown = std::fs::metadata(&path).expect("journal").len();
            assert_eq!(
                regrown,
                full.len() as u64,
                "kill at record {k}+{torn}B: journal must regrow exactly, no duplicates"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_site_chaos_degrades_but_never_diverges() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let truth = evaluate_model(&model, &problems, &cfg);

    for (i, site) in PersistSite::ALL.into_iter().enumerate() {
        // rate 2: roughly half the (site, key) pairs take a torn write, bit
        // flip, or short read. The run must still complete with the exact
        // clean report — persistence faults may cost durability (wounded
        // journal, quarantined entries), never correctness.
        let plan = PersistPlan::new(0x9A11 + i as u64, 2);
        let dir = temp_dir(&format!("chaos_{}", site.name()));
        let run = DurableRun::open(&dir).expect("run dir");
        let chaotic = with_persist_plan(plan, || {
            evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run))
                .expect("chaos run completes")
        });
        assert_eq!(
            chaotic,
            truth,
            "persist faults at {} must never change a verdict",
            site.name()
        );
        // Disarmed resume over whatever survived — including corrupted or
        // wounded journals — must recover to the same report.
        let resumed = evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run))
            .expect("resume");
        assert_eq!(resumed, truth, "resume after {} chaos", site.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn poisoned_journal_entries_are_replayed_not_rescored() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let truth = evaluate_model(&model, &problems, &cfg);

    // Forge the journal a watchdog would have left behind: the first
    // problem's first completion poisoned after blowing its deadline twice.
    let target = completion_hash(
        model
            .generate_n(&problems[0].prompt, cfg.n as usize, problem_base(&cfg, 0))
            .first()
            .expect("at least one completion"),
    );
    let dir = temp_dir("poison");
    let run = DurableRun::open(&dir).expect("run dir");
    let key = run_manifest_key(&model, &problems, &cfg);
    {
        let (journal, _, _) =
            RunJournal::open_or_create(&run.journal_path(key), key).expect("fresh journal");
        journal
            .append(&JournalRecord {
                problem: 0,
                completion: target,
                outcome: Outcome::EngineFault {
                    kind: FaultKind::Deadline,
                },
                poisoned: true,
            })
            .expect("append poison");
    }

    let report =
        evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run)).expect("resume");
    let poisoned_trials = report.problems[0]
        .outcomes
        .get(&Outcome::EngineFault {
            kind: FaultKind::Deadline,
        })
        .copied()
        .unwrap_or(0);
    assert!(
        poisoned_trials >= 1,
        "the poisoned completion must replay its durable fault verdict"
    );
    // Every other problem is untouched by the poison.
    for (p, t) in report.problems.iter().zip(&truth.problems).skip(1) {
        assert_eq!(p, t, "poison must stay confined to its completion");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_watchdog_with_generous_deadline_changes_nothing() {
    let model = model();
    let problems = suite();
    let cfg = eval_cfg();
    let dir = temp_dir("watchdog");
    let run = DurableRun::open(&dir)
        .expect("run dir")
        .with_watchdog(Duration::from_secs(60));
    let report = evaluate_grid(&model, &problems, &cfg, &SharedCache::new(), Some(&run))
        .expect("watchdog run");
    assert_eq!(
        report,
        evaluate_model(&model, &problems, &cfg),
        "an unexpired watchdog must be invisible in the report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
