//! The durable run layer: what makes a killed grid process unable to lose
//! or corrupt a run.
//!
//! Two pieces:
//!
//! 1. **Outcome journal** ([`RunJournal`], under a [`DurableRun`]'s
//!    `journals/`) — an append-only binary log with
//!    one length-prefixed, FNV-checksummed record per *scored* completion,
//!    batch-fsynced. A journal is keyed by a [`run_manifest_key`] (content
//!    hash of eval config + problem suite + model fingerprint), so a resumed
//!    process replays exactly the run it was killed out of and nothing else.
//!    Recovery truncates a torn tail to the longest checksum-valid record
//!    prefix and quarantines the damaged bytes as `<journal>.corrupt`.
//!    Because stimulus seeds are content-derived (see [`crate::trial_seed`]),
//!    replaying journaled outcomes in a grid cell is
//!    bitwise-indistinguishable from re-scoring — a run killed at any record
//!    boundary and resumed equals an uninterrupted run, report-for-report.
//! 2. **Wall-clock watchdog** ([`Watchdog`]) — real-time deadlines layered
//!    *above* the deterministic fuel budgets: a monitor thread flips a
//!    cancellation flag the settle loops observe
//!    ([`rtlb_sim::check_deadline`]), the stuck completion resolves to
//!    `EngineFault(Deadline)`, is retried once, and if still stuck is
//!    journaled as **poisoned** so a resumed run skips it deterministically.
//!
//! Every I/O boundary here consults the seeded persistence-fault hooks in
//! `rtlb_sim::fault` ([`rtlb_sim::persist_mutation`]), so the chaos suite
//! drives kill/corrupt/resume cycles the same stateless way it drives
//! panics.

use crate::score::Outcome;
use rtlb_sim::{persist_mutation, DeadlineScope, FaultKind, PersistMutation, PersistSite};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// FNV hashing over byte streams
// ---------------------------------------------------------------------------

/// Incremental FNV-1a hasher, usable over heterogeneous byte fields;
/// [`crate::completion_hash`] is this hash over one string's bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string (so adjacent fields cannot alias).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // The guarded state is plain data; a poisoned lock carries no torn
    // invariant worth dying for.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn injected_io_error(site: PersistSite) -> io::Error {
    io::Error::other(format!("injected persist fault: {}", site.name()))
}

// ---------------------------------------------------------------------------
// Atomic file replacement
// ---------------------------------------------------------------------------

/// Atomically replaces `path` with `bytes`: the data is written to a
/// temporary file in the *same directory* and renamed over the destination,
/// so a reader (or a kill) at any instant sees either the old complete file
/// or the new complete file — never a torn prefix.
///
/// `site`/`key` feed the persistence-fault hook: an injected
/// [`PersistMutation::TornWrite`] aborts before the rename (the
/// kill-mid-write simulation — the destination survives untouched), an
/// injected bit-flip lands silently (latent corruption for checksummed
/// readers to catch).
///
/// # Errors
///
/// Propagates filesystem errors; returns an injected error for a torn write.
pub fn atomic_write(site: PersistSite, key: u64, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut payload = bytes.to_vec();
    let torn = match persist_mutation(site, key) {
        Some(m @ PersistMutation::TornWrite { .. }) => {
            m.apply(&mut payload);
            true
        }
        Some(m @ PersistMutation::BitFlip { .. }) => {
            m.apply(&mut payload);
            false
        }
        // Short reads are a read-side corruption; write sites ignore them.
        _ => false,
    };
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&payload)?;
        if torn {
            // Simulated kill between write and rename: leave only the torn
            // temp file behind, exactly like a real crash would.
            return Err(injected_io_error(site));
        }
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// Renames `path` to `path.corrupt` (replacing any previous quarantine), so
/// damaged data is preserved for inspection but never re-read as valid.
fn quarantine(path: &Path) -> PathBuf {
    let target = corrupt_path(path);
    let _ = std::fs::remove_file(&target);
    let _ = std::fs::rename(path, &target);
    target
}

fn corrupt_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".corrupt");
    PathBuf::from(name)
}

// ---------------------------------------------------------------------------
// Outcome journal
// ---------------------------------------------------------------------------

/// Journal format version (bumped on any layout change; a mismatched file
/// is quarantined wholesale, never partially trusted).
const JOURNAL_VERSION: u32 = 1;
const JOURNAL_MAGIC: [u8; 8] = *b"RTLJRNL1";
/// Appends between batched `fsync`s. A kill loses at most this many scored
/// completions (they are simply re-scored on resume); torn bytes at the tail
/// are truncated by recovery either way.
const SYNC_EVERY: u32 = 64;

/// One journaled outcome: completion `completion` (content hash) of problem
/// `problem` (suite index) was scored as `outcome`. `poisoned` marks a
/// completion the watchdog cancelled twice — resume replays the fault
/// verdict instead of re-scoring the stuck design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Index of the problem in the suite the run was keyed over.
    pub problem: u32,
    /// The completion's content hash ([`crate::completion_hash`]).
    pub completion: u64,
    /// The scored verdict.
    pub outcome: Outcome,
    /// `true` when the watchdog poisoned this completion (deadline expired
    /// on the first score *and* the retry).
    pub poisoned: bool,
}

const RECORD_PAYLOAD: usize = 4 + 8 + 1 + 1;

fn outcome_code(o: Outcome) -> u8 {
    match o {
        Outcome::SyntaxFail => 0,
        Outcome::InterfaceFail => 1,
        Outcome::FunctionalFail => 2,
        Outcome::Pass => 3,
        Outcome::EngineFault {
            kind: FaultKind::Panic,
        } => 4,
        Outcome::EngineFault {
            kind: FaultKind::Budget,
        } => 5,
        Outcome::EngineFault {
            kind: FaultKind::Deadline,
        } => 6,
    }
}

fn outcome_from_code(code: u8) -> Option<Outcome> {
    Some(match code {
        0 => Outcome::SyntaxFail,
        1 => Outcome::InterfaceFail,
        2 => Outcome::FunctionalFail,
        3 => Outcome::Pass,
        4 => Outcome::EngineFault {
            kind: FaultKind::Panic,
        },
        5 => Outcome::EngineFault {
            kind: FaultKind::Budget,
        },
        6 => Outcome::EngineFault {
            kind: FaultKind::Deadline,
        },
        _ => return None,
    })
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(RunJournal::RECORD_BYTES);
    payload.extend_from_slice(&(RECORD_PAYLOAD as u32).to_le_bytes());
    payload.extend_from_slice(&rec.problem.to_le_bytes());
    payload.extend_from_slice(&rec.completion.to_le_bytes());
    payload.push(outcome_code(rec.outcome));
    payload.push(u8::from(rec.poisoned));
    let mut fnv = Fnv::new();
    fnv.write(&payload[4..]);
    payload.extend_from_slice(&fnv.finish().to_le_bytes());
    payload
}

fn header_bytes(run_key: u64) -> [u8; RunJournal::HEADER_BYTES] {
    let mut h = [0u8; RunJournal::HEADER_BYTES];
    h[0..8].copy_from_slice(&JOURNAL_MAGIC);
    h[8..12].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    // Bytes 12..16 are reserved (zero) for future flags.
    h[16..24].copy_from_slice(&run_key.to_le_bytes());
    let mut fnv = Fnv::new();
    fnv.write(&h[0..24]);
    h[24..32].copy_from_slice(&fnv.finish().to_le_bytes());
    h
}

/// Scans `bytes` (header already validated and stripped) for the longest
/// checksum-valid prefix of records. Returns the records and the byte length
/// of that prefix.
fn scan_records(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(len_bytes) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]);
        // Version 1 records have a fixed payload size; anything else is a
        // tear or a flipped length field.
        if len as usize != RECORD_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(at + 4..at + 4 + RECORD_PAYLOAD) else {
            break;
        };
        let Some(sum_bytes) = bytes.get(at + 4 + RECORD_PAYLOAD..at + RunJournal::RECORD_BYTES)
        else {
            break;
        };
        let mut fnv = Fnv::new();
        fnv.write(payload);
        if fnv.finish().to_le_bytes() != sum_bytes {
            break;
        }
        let Some(outcome) = outcome_from_code(payload[12]) else {
            break;
        };
        if payload[13] > 1 {
            break;
        }
        records.push(JournalRecord {
            problem: u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]),
            completion: u64::from_le_bytes([
                payload[4],
                payload[5],
                payload[6],
                payload[7],
                payload[8],
                payload[9],
                payload[10],
                payload[11],
            ]),
            outcome,
            poisoned: payload[13] == 1,
        });
        at += RunJournal::RECORD_BYTES;
    }
    (records, at)
}

#[derive(Debug)]
struct JournalInner {
    file: File,
    unsynced: u32,
    /// Set after an append-side I/O failure (real or injected torn write):
    /// the log past this point cannot be trusted, so further appends are
    /// refused and the run continues un-journaled — recovery truncates at
    /// the wound, and a resume simply re-scores from there.
    wounded: bool,
}

/// What [`RunJournal::open_or_create`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOpen {
    /// No usable journal existed; a fresh one was created.
    Fresh,
    /// An existing journal was replayed intact.
    Resumed,
    /// An existing journal was replayed after truncating a damaged tail
    /// (quarantined as `.corrupt`).
    ResumedTruncated,
}

/// The append-only, checksummed outcome journal of one durable grid run.
///
/// Thread-safe (appends take `&self` behind one lock), though the grid
/// driver appends only from its calling thread, in suite order. Appends
/// are batch-fsynced (every [`SYNC_EVERY`] records
/// and once at the end of the run), bounding what a kill can cost to a
/// re-scorable suffix.
#[derive(Debug)]
pub struct RunJournal {
    inner: Mutex<JournalInner>,
}

impl RunJournal {
    /// Journal header size in bytes (magic, version, reserved, run key,
    /// header checksum).
    pub const HEADER_BYTES: usize = 32;
    /// On-disk size of one record (length prefix + payload + checksum).
    pub const RECORD_BYTES: usize = 4 + RECORD_PAYLOAD + 8;

    /// Opens the journal at `path` for run `run_key`, creating it (and its
    /// parent directory) if absent, and replays every intact record.
    ///
    /// A file whose header is unreadable, version-mismatched, or keyed to a
    /// different run is quarantined wholesale and replaced by a fresh
    /// journal. A valid file with a torn or corrupted tail is truncated to
    /// its longest checksum-valid record prefix, with the damaged bytes
    /// saved to `<path>.corrupt`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (not corruption — corruption is
    /// quarantined, never fatal).
    pub fn open_or_create(
        path: &Path,
        run_key: u64,
    ) -> io::Result<(RunJournal, Vec<JournalRecord>, JournalOpen)> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut existing = match std::fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        // Read-side fault hook: a seeded plan can simulate a short read of
        // the journal, which recovery must treat exactly like a torn tail.
        if let Some(bytes) = &mut existing {
            if let Some(m) = persist_mutation(PersistSite::JournalRead, run_key) {
                m.apply(bytes);
            }
        }

        let header = header_bytes(run_key);
        let (records, valid_len, how) = match existing {
            None => (Vec::new(), 0, JournalOpen::Fresh),
            Some(bytes) => {
                if bytes.len() < Self::HEADER_BYTES || bytes[..Self::HEADER_BYTES] != header {
                    // Wrong magic/version/key or unreadable header: nothing
                    // in this file can be attributed to our run.
                    quarantine(path);
                    (Vec::new(), 0, JournalOpen::Fresh)
                } else {
                    let (records, body_len) = scan_records(&bytes[Self::HEADER_BYTES..]);
                    let valid = Self::HEADER_BYTES + body_len;
                    if valid < bytes.len() {
                        // Preserve the damaged tail, then truncate the live
                        // journal back to the last intact record boundary.
                        let _ = std::fs::write(corrupt_path(path), &bytes[valid..]);
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(valid as u64)?;
                        f.sync_data()?;
                        (records, valid, JournalOpen::ResumedTruncated)
                    } else {
                        (records, valid, JournalOpen::Resumed)
                    }
                }
            }
        };

        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if valid_len == 0 {
            // Fresh journal (possibly after quarantine): write the header.
            file.set_len(0)?;
            file.write_all(&header)?;
            file.sync_data()?;
        }
        Ok((
            RunJournal {
                inner: Mutex::new(JournalInner {
                    file,
                    unsynced: 0,
                    wounded: false,
                }),
            },
            records,
            how,
        ))
    }

    /// Appends one record (batch-fsynced).
    ///
    /// # Errors
    ///
    /// Returns an error on the first append-side I/O failure (after which
    /// the journal is *wounded*: every later append returns the same error
    /// without touching the file, and the grid run carries on un-journaled).
    pub fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        if inner.wounded {
            return Err(io::Error::other("journal wounded by an earlier failure"));
        }
        let mut bytes = encode_record(rec);
        let torn = match persist_mutation(PersistSite::JournalAppend, rec.completion) {
            Some(m @ PersistMutation::TornWrite { .. }) => {
                m.apply(&mut bytes);
                true
            }
            Some(m @ PersistMutation::BitFlip { .. }) => {
                m.apply(&mut bytes);
                false
            }
            _ => false,
        };
        let result = inner.file.write_all(&bytes).and_then(|()| {
            if torn {
                // The simulated kill landed mid-record: everything after
                // this offset is garbage, as after a real power cut.
                return Err(injected_io_error(PersistSite::JournalAppend));
            }
            inner.unsynced += 1;
            if inner.unsynced >= SYNC_EVERY {
                inner.unsynced = 0;
                return inner.file.sync_data();
            }
            Ok(())
        });
        if result.is_err() {
            inner.wounded = true;
        }
        result
    }

    /// `true` once an append failed; the log is frozen at the failure point.
    pub fn wounded(&self) -> bool {
        lock(&self.inner).wounded
    }

    /// Flushes buffered appends to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failures (no-op on a wounded journal).
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        if inner.wounded {
            return Ok(());
        }
        inner.unsynced = 0;
        inner.file.sync_data()
    }
}

impl Drop for RunJournal {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

// ---------------------------------------------------------------------------
// Run manifest key
// ---------------------------------------------------------------------------

/// Content hash identifying one grid run: the eval configuration, the full
/// problem suite (ids, prompts, golden sources, stimulus cycle counts), and
/// the model's [`rtlb_model::SimLlm::fingerprint`]. Everything that affects
/// a single scored outcome folds in, so a journal can only ever be replayed
/// into the run that wrote it.
pub fn run_manifest_key(
    model: &rtlb_model::SimLlm,
    problems: &[crate::problems::Problem],
    config: &crate::eval::EvalConfig,
) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_str("rtlb-run-manifest");
    fnv.write_u64(u64::from(JOURNAL_VERSION));
    fnv.write_u64(u64::from(config.n));
    fnv.write_u64(config.seed);
    fnv.write_u64(u64::from(config.stimulus_trials));
    fnv.write_u64(problems.len() as u64);
    for p in problems {
        fnv.write_str(&p.id);
        fnv.write_str(&p.prompt);
        fnv.write_str(&p.spec.full_source());
        fnv.write_u64(p.cycles as u64);
    }
    fnv.write_u64(model.fingerprint());
    fnv.finish()
}

// ---------------------------------------------------------------------------
// Wall-clock watchdog
// ---------------------------------------------------------------------------

type WatchEntry = (Instant, Arc<AtomicBool>);

/// Wall-clock deadlines for completion scoring, layered above the
/// deterministic fuel budgets: fuel bounds *work*, the watchdog bounds
/// *time* (a completion can be slow without being fuel-hungry — e.g. a
/// pathological allocation pattern). One monitor thread polls the registered
/// scopes and flips their cancellation flags past the deadline; the settle
/// loops observe the flag via [`rtlb_sim::check_deadline`] and unwind with
/// `SimError::Deadline`, which scoring maps to `EngineFault(Deadline)`.
///
/// The watchdog makes no attempt to preempt: a completion stuck somewhere
/// without a deadline check simply keeps its thread until the next settle.
/// That is the deliberate division of labor — budgets guarantee termination
/// deterministically; the watchdog only converts "slow" into a structured,
/// journalable verdict.
#[derive(Debug)]
pub struct Watchdog {
    deadline: Duration,
    entries: Arc<Mutex<Vec<WatchEntry>>>,
    shutdown: Arc<AtomicBool>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts a watchdog enforcing `deadline` per watched scope. The poll
    /// interval adapts to the deadline (an eighth, clamped to 1..=50 ms),
    /// so expiry lags the deadline by at most one poll.
    pub fn new(deadline: Duration) -> Watchdog {
        let entries: Arc<Mutex<Vec<WatchEntry>>> = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
        let monitor = {
            let entries = Arc::clone(&entries);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    let now = Instant::now();
                    let mut entries = lock(&entries);
                    entries.retain(|(expires, flag)| {
                        if now >= *expires {
                            flag.store(true, Ordering::Relaxed);
                            false
                        } else {
                            true
                        }
                    });
                }
            })
        };
        Watchdog {
            deadline,
            entries,
            shutdown,
            monitor: Some(monitor),
        }
    }

    /// The per-scope deadline this watchdog enforces.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Registers the current thread's next scoring scope: until the guard
    /// drops, `check_deadline` on this thread fails once `deadline` has
    /// elapsed.
    pub fn watch(&self) -> WatchGuard<'_> {
        let flag = Arc::new(AtomicBool::new(false));
        let millis = self.deadline.as_millis().min(u128::from(u64::MAX)) as u64;
        lock(&self.entries).push((Instant::now() + self.deadline, Arc::clone(&flag)));
        let scope = DeadlineScope::enter(Arc::clone(&flag), millis);
        WatchGuard {
            watchdog: self,
            flag,
            _scope: scope,
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

/// RAII registration of one watched scoring scope (see [`Watchdog::watch`]).
pub struct WatchGuard<'a> {
    watchdog: &'a Watchdog,
    flag: Arc<AtomicBool>,
    _scope: DeadlineScope,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        lock(&self.watchdog.entries).retain(|(_, f)| !Arc::ptr_eq(f, &self.flag));
    }
}

// ---------------------------------------------------------------------------
// Run directory
// ---------------------------------------------------------------------------

/// One durable run rooted at a directory: `journals/` holds per-run-key
/// outcome journals, and an optional watchdog supplies wall-clock deadlines
/// for the scoring loops.
#[derive(Debug)]
pub struct DurableRun {
    dir: PathBuf,
    watchdog: Option<Watchdog>,
}

impl DurableRun {
    /// Opens (creating if needed) a durable run directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DurableRun> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("journals"))?;
        Ok(DurableRun {
            dir,
            watchdog: None,
        })
    }

    /// Adds a wall-clock watchdog with `deadline` per scored completion.
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(Watchdog::new(deadline));
        self
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The watchdog, when one was attached.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    /// The journal path for a run key (one journal per distinct
    /// model × suite × config grid under this run directory).
    pub fn journal_path(&self, run_key: u64) -> PathBuf {
        self.dir
            .join("journals")
            .join(format!("run-{run_key:016x}.jrnl"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtlb_persist_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(problem: u32, completion: u64, outcome: Outcome) -> JournalRecord {
        JournalRecord {
            problem,
            completion,
            outcome,
            poisoned: false,
        }
    }

    #[test]
    fn journal_roundtrips_records() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("j.jrnl");
        let written = vec![
            rec(0, 11, Outcome::Pass),
            rec(1, 22, Outcome::SyntaxFail),
            JournalRecord {
                problem: 2,
                completion: 33,
                outcome: Outcome::EngineFault {
                    kind: FaultKind::Deadline,
                },
                poisoned: true,
            },
        ];
        {
            let (journal, replay, how) = RunJournal::open_or_create(&path, 7).unwrap();
            assert_eq!(how, JournalOpen::Fresh);
            assert!(replay.is_empty());
            for r in &written {
                journal.append(r).unwrap();
            }
            journal.sync().unwrap();
        }
        let (_journal, replay, how) = RunJournal::open_or_create(&path, 7).unwrap();
        assert_eq!(how, JournalOpen::Resumed);
        assert_eq!(replay, written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_for_a_different_run_is_quarantined() {
        let dir = temp_dir("wrong_key");
        let path = dir.join("j.jrnl");
        {
            let (journal, _, _) = RunJournal::open_or_create(&path, 7).unwrap();
            journal.append(&rec(0, 1, Outcome::Pass)).unwrap();
        }
        let (_journal, replay, how) = RunJournal::open_or_create(&path, 8).unwrap();
        assert_eq!(how, JournalOpen::Fresh, "other run's journal not replayed");
        assert!(replay.is_empty());
        assert!(corrupt_path(&path).exists(), "old journal quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_quarantined() {
        let dir = temp_dir("torn");
        let path = dir.join("j.jrnl");
        {
            let (journal, _, _) = RunJournal::open_or_create(&path, 7).unwrap();
            for i in 0..5 {
                journal
                    .append(&rec(i, u64::from(i) * 3, Outcome::Pass))
                    .unwrap();
            }
        }
        // Tear mid-way through the 4th record.
        let full = std::fs::read(&path).unwrap();
        let cut = RunJournal::HEADER_BYTES + 3 * RunJournal::RECORD_BYTES + 9;
        std::fs::write(&path, &full[..cut]).unwrap();

        let (_journal, replay, how) = RunJournal::open_or_create(&path, 7).unwrap();
        assert_eq!(how, JournalOpen::ResumedTruncated);
        assert_eq!(replay.len(), 3, "intact prefix survives");
        assert_eq!(
            std::fs::read(&path).unwrap().len(),
            RunJournal::HEADER_BYTES + 3 * RunJournal::RECORD_BYTES,
            "file truncated to the last intact record boundary"
        );
        assert_eq!(
            std::fs::read(corrupt_path(&path)).unwrap(),
            &full[RunJournal::HEADER_BYTES + 3 * RunJournal::RECORD_BYTES..cut],
            "damaged tail preserved for inspection"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wounded_journal_refuses_later_appends() {
        use rtlb_sim::{with_persist_plan, PersistMutationKind, PersistPlan};
        let dir = temp_dir("wounded");
        let path = dir.join("j.jrnl");
        let (journal, _, _) = RunJournal::open_or_create(&path, 7).unwrap();
        journal.append(&rec(0, 1, Outcome::Pass)).unwrap();
        let plan = PersistPlan::only_site(3, 1, PersistSite::JournalAppend)
            .with_kind(PersistMutationKind::TornWrite);
        with_persist_plan(plan, || {
            assert!(journal.append(&rec(0, 2, Outcome::Pass)).is_err());
        });
        assert!(journal.wounded());
        assert!(journal.append(&rec(0, 3, Outcome::Pass)).is_err());
        drop(journal);
        // Recovery keeps the intact prefix, drops the torn record.
        let (_journal, replay, _) = RunJournal::open_or_create(&path, 7).unwrap();
        assert_eq!(replay, vec![rec(0, 1, Outcome::Pass)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_file_or_nothing() {
        use rtlb_sim::{with_persist_plan, PersistMutationKind, PersistPlan};
        let dir = temp_dir("atomic");
        let path = dir.join("out.json");
        atomic_write(PersistSite::ResultsWrite, 1, &path, b"first version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        // A torn write (simulated kill between write and rename) must leave
        // the previous contents untouched.
        let plan = PersistPlan::only_site(9, 1, PersistSite::ResultsWrite)
            .with_kind(PersistMutationKind::TornWrite);
        with_persist_plan(plan, || {
            assert!(atomic_write(PersistSite::ResultsWrite, 1, &path, b"second").is_err());
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        atomic_write(PersistSite::ResultsWrite, 1, &path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_expires_a_watched_scope() {
        let watchdog = Watchdog::new(Duration::from_millis(2));
        let guard = watchdog.watch();
        let deadline = Instant::now() + Duration::from_secs(5);
        let expired = loop {
            match rtlb_sim::check_deadline() {
                Err(rtlb_sim::SimError::Deadline { .. }) => break true,
                Err(_) | Ok(()) if Instant::now() > deadline => break false,
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        assert!(expired, "watchdog must flip the flag within the deadline");
        drop(guard);
        assert_eq!(rtlb_sim::check_deadline(), Ok(()), "scope drop disarms");
    }
}
