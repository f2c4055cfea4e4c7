//! Host-side readings: process CPU time, peak resident memory, run-queue
//! wait, and a fixed pure-CPU calibration kernel. Together with the op
//! timings they separate a slower host from a slower program: a host
//! slowdown moves `host.calib_ms` and `host.runq_wait_ms_per_op` along
//! with the op times, a regression moves the op times alone.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// CPU time of the whole process (every thread, live or exited), in ms.
pub fn cpu_ms() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) * 1000.0 / TICKS_PER_S)
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Time the calling thread has spent runnable but waiting for a CPU, in ns
/// (second field of `/proc/thread-self/schedstat`).
pub fn runq_wait_ns() -> Result<u64, String> {
    let s = read("/proc/thread-self/schedstat")?;
    s.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "malformed /proc/thread-self/schedstat".to_string())
}

/// One pass of the calibration kernel: generates 512Ki pseudo-random
/// keys (4 MB, past the L2 caches and below every workload's peak memory)
/// and sorts them. It does no I/O and makes no system call beyond
/// the allocation, and it leans on the caches and memory the way the
/// pipeline's own ops do. On a shared host those are what slows down
/// first; a register-only loop barely notices.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..512 * 1024)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    black_box(keys[keys.len() / 2])
}

/// Median wall time of seven passes of the calibration kernel, in ms.
pub fn calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}
