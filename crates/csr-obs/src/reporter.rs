//! A background thread that periodically dumps a registry to a writer in
//! the Prometheus text format.

use crate::export;
use crate::registry::Registry;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Periodically renders a [`Registry`] snapshot, in the Prometheus text
/// exposition format, into a writer from a background thread — a file
/// tail or a pipe becomes a poor man's scrape endpoint. One final dump
/// is written on [`stop`](Reporter::stop) — or, if the reporter is simply
/// dropped, from `Drop` — so even an interval longer than the program's
/// life yields a complete report, and a shutdown path that forgets to
/// call `stop` cannot lose the last reporting interval. (Prefer `stop`
/// when the writer or an I/O error matters: `Drop` must swallow both.)
///
/// ```
/// use csr_obs::{Registry, Reporter};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let registry = Arc::new(Registry::new());
/// let reporter = Reporter::spawn(
///     Arc::clone(&registry),
///     Duration::from_secs(10),
///     Vec::new(), // any std::io::Write
/// );
/// registry.counter("ticks_total", "", &[]).inc();
/// let buf = reporter.stop().expect("writer returned on stop");
/// assert!(String::from_utf8(buf).unwrap().contains("ticks_total"));
/// ```
pub struct Reporter<W: Write + Send + 'static> {
    stop: Arc<AtomicBool>,
    /// `Some` while the reporting thread runs; taken by `stop` / `Drop`.
    handle: Option<JoinHandle<std::io::Result<W>>>,
}

impl<W: Write + Send + 'static> Reporter<W> {
    /// Starts the reporting thread: a dump every `interval`, plus a final
    /// dump when stopped. Dumps are due at fixed deadlines on the clock, so
    /// neither oversleeping nor a slow writer stretches the interval; a
    /// dump that overruns one skips the deadlines it missed.
    #[must_use]
    pub fn spawn(registry: Arc<Registry>, interval: Duration, mut writer: W) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // Sleep in short slices so stop() returns promptly even for
            // long intervals.
            let slice = Duration::from_millis(20);
            let interval = interval.max(Duration::from_millis(1));
            let mut deadline = Instant::now() + interval;
            loop {
                if stop_flag.load(Ordering::Acquire) {
                    dump(&registry, &mut writer)?;
                    writer.flush()?;
                    return Ok(writer);
                }
                let now = Instant::now();
                if now >= deadline {
                    dump(&registry, &mut writer)?;
                    writer.flush()?;
                    deadline += interval;
                    let now = Instant::now();
                    if deadline <= now {
                        deadline = now + interval;
                    }
                    continue;
                }
                std::thread::sleep(slice.min(deadline - now));
            }
        });
        Reporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread after one final dump and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error the reporting thread hit.
    pub fn stop(mut self) -> std::io::Result<W> {
        self.join()
            .expect("stop can only run while the thread is live")
    }

    /// Signals the thread and joins it; `None` if already joined.
    fn join(&mut self) -> Option<std::io::Result<W>> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::Release);
        match handle.join() {
            Ok(result) => Some(result),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl<W: Write + Send + 'static> Drop for Reporter<W> {
    /// A dropped reporter still flushes: the final dump is written before
    /// the thread is torn down. The writer (and any I/O error) is
    /// discarded — call [`stop`](Reporter::stop) to receive both.
    fn drop(&mut self) {
        let _ = self.join();
    }
}

fn dump<W: Write>(registry: &Registry, writer: &mut W) -> std::io::Result<()> {
    writer.write_all(export::prometheus(&registry.snapshot()).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_dump_happens_on_stop() {
        let registry = Arc::new(Registry::new());
        registry.counter("n_total", "", &[]).add(3);
        // Interval far longer than the test: only the stop dump fires.
        let rep = Reporter::spawn(Arc::clone(&registry), Duration::from_secs(3600), Vec::new());
        let out = String::from_utf8(rep.stop().unwrap()).unwrap();
        assert!(out.contains("n_total 3"), "{out}");
    }

    /// A `Write` handle into a shared buffer, so a test can read what a
    /// reporter wrote even when the reporter (and its writer) is dropped.
    #[derive(Clone)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer that takes about 15 ms per write and counts the writes.
    struct SlowWriter(Arc<std::sync::atomic::AtomicU64>);

    impl Write for SlowWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::thread::sleep(Duration::from_millis(15));
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dumps_keep_to_the_interval_despite_a_slow_writer() {
        let writes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let registry = Arc::new(Registry::new());
        registry.counter("n_total", "", &[]).inc();
        let rep = Reporter::spawn(
            registry,
            Duration::from_millis(30),
            SlowWriter(Arc::clone(&writes)),
        );
        std::thread::sleep(Duration::from_millis(600));
        let dumps = writes.load(Ordering::Relaxed);
        rep.stop().unwrap();
        // Deadlines every 30 ms give 20; a clock that each 15 ms dump
        // stretches gives about 11.
        assert!((16..=21).contains(&dumps), "{dumps} dumps in 600 ms");
    }

    #[test]
    fn drop_flushes_the_final_interval() {
        let registry = Arc::new(Registry::new());
        registry.counter("last_interval_total", "", &[]).add(7);
        let buf = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
        let rep = Reporter::spawn(
            Arc::clone(&registry),
            Duration::from_secs(3600),
            buf.clone(),
        );
        // No stop() — the shutdown path "forgot". Drop must still dump.
        drop(rep);
        let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(out.contains("last_interval_total 7"), "{out}");
    }
}
