//! Timing, percentiles, `/proc` sampling and the counting allocator.

use crate::trace::SpanBuf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Threads (and connections) that generate load: `min(nproc, 2)`.
pub fn load_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time (user + system) a process has used, in microseconds, from
/// `/proc/<pid>/stat`. The kernel reports clock ticks; Linux fixes
/// `USER_HZ` at 100.
pub fn cpu_us(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, so the 12th and 13th after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) * 10_000
}

/// Starts this process's `VmHWM` again from its current resident set, so
/// that a workload's peak is its own and not that of the one before it.
pub fn reset_own_peak_rss() {
    // Linux: "5" clears the peak. Where that is refused the peak stands.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// Counts allocations made while [`count_allocs`] runs its closure.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain relaxed atomics and never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` on this thread with counting on; returns `(allocations, bytes)`.
/// Only the single-threaded layer walk calls it, so the counts are `f`'s.
pub fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

/// One closed-loop client: `op` issues the next request of its stream, waits
/// for the reply, checks it, and says whether it was right.
pub trait Worker: Send {
    fn op(&mut self) -> bool;
    /// The span name of the op just made.
    fn span_name(&self) -> &'static str;
}

/// What one timed window measured.
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    /// Sum over threads of `ops / seconds`, so a thread that overshoots the
    /// deadline by one slow op does not dilute the others.
    pub ops_per_s: f64,
    /// Latencies of the timed ops, nanoseconds, ascending.
    pub lat_ns: Vec<u32>,
    /// The same latencies per thread, in the order the ops were issued.
    pub lat_by_thread: Vec<Vec<u32>>,
    /// CPU the system under test used, per op.
    pub cpu_us_per_op: f64,
}

impl Window {
    pub fn p_us(&self, q: f64) -> f64 {
        f64::from(percentile(&self.lat_ns, q)) / 1e3
    }
}

/// Runs every worker on its own thread for `dur`, one request in flight per
/// worker. Every `sample_every`-th op is timed with two clock reads (about
/// 70 ns); a workload whose ops are that short times one in 16 so the clock
/// is not what it measures. `spans`, when given, receives one span per timed
/// op, named by the worker. `sut_pid` is the process whose CPU time is charged to the window.
pub fn run_window<W: Worker>(
    workers: &mut [W],
    dur: Duration,
    sample_every: u64,
    spans: Option<&mut [SpanBuf]>,
    sut_pid: u32,
) -> Window {
    let barrier = Barrier::new(workers.len());
    let cpu0 = cpu_us(sut_pid);
    let per_thread: Vec<(u64, u64, f64, Vec<u32>)> = std::thread::scope(|s| {
        let span_bufs: Vec<Option<&mut SpanBuf>> = match spans {
            Some(bufs) => bufs.iter_mut().map(Some).collect(),
            None => workers.iter().map(|_| None).collect(),
        };
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(span_bufs)
            .map(|(w, mut spans)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut lats: Vec<u32> = Vec::with_capacity(1 << 20);
                    let (mut ops, mut failed) = (0u64, 0u64);
                    barrier.wait();
                    let t0 = Instant::now();
                    let secs = loop {
                        if ops % sample_every == 0 {
                            let a = Instant::now();
                            let ok = w.op();
                            let b = Instant::now();
                            failed += u64::from(!ok);
                            ops += 1;
                            lats.push(u32::try_from((b - a).as_nanos()).unwrap_or(u32::MAX));
                            if let Some(buf) = spans.as_deref_mut() {
                                buf.push(w.span_name(), a, b, ops);
                            }
                            let elapsed = b - t0;
                            if elapsed >= dur {
                                break elapsed.as_secs_f64();
                            }
                        } else {
                            failed += u64::from(!w.op());
                            ops += 1;
                        }
                    };
                    (ops, failed, secs, lats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let cpu = cpu_us(sut_pid) - cpu0;
    let ops: u64 = per_thread.iter().map(|t| t.0).sum();
    let mut lat_ns: Vec<u32> = per_thread
        .iter()
        .flat_map(|t| t.3.iter().copied())
        .collect();
    lat_ns.sort_unstable();
    Window {
        ops,
        failed: per_thread.iter().map(|t| t.1).sum(),
        ops_per_s: per_thread.iter().map(|t| t.0 as f64 / t.2).sum(),
        lat_ns,
        cpu_us_per_op: cpu as f64 / ops as f64,
        lat_by_thread: per_thread.into_iter().map(|t| t.3).collect(),
    }
}
