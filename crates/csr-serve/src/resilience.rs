//! Fault-tolerance middleware for the read-through origin path.
//!
//! A real origin can refuse, stall, or break mid-transfer, so the server
//! never talks to a raw [`Backing`] directly: it wraps it in a composable
//! stack assembled by [`ResilientBacking::wrap`], outermost first:
//!
//! ```text
//!   RetryBacking              bounded retries, capped exponential backoff
//!     └─ BreakerBacking       circuit breaker: closed → open → half-open
//!          └─ DeadlineBacking per-fetch deadline on a hung origin
//!               └─ inner      the actual origin (possibly a FaultBacking)
//! ```
//!
//! Every layer is itself a [`Backing`], so any subset composes. The stack
//! is *deterministic by construction*: backoff jitter is derived from the
//! key and attempt number (no ambient randomness), and [`FaultBacking`] —
//! the fault injector used by tests and the CI flaky-origin smoke — draws
//! from a seeded PRNG, so a single-threaded request sequence replays
//! identically under the same seed.
//!
//! Failures feed the `csr_serve_origin_*` metric families (see
//! [`OriginMetrics`]); the server layers serve-stale degradation and the
//! `ORIGIN_ERROR` protocol reply on top (see [`crate::server`]).

use crate::backing::{fnv1a, Backing, BackingError};
use csr_obs::{Counter, Gauge, Registry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Metrics

/// The `csr_serve_origin_*` metric families, shared by every middleware
/// layer (and by the server, which owns the `stale_served` counter).
pub struct OriginMetrics {
    /// Fetch attempts that failed, by error kind.
    err_not_available: Arc<Counter>,
    err_timeout: Arc<Counter>,
    err_io: Arc<Counter>,
    /// Fetch attempts re-issued after a failure.
    pub(crate) retries: Arc<Counter>,
    /// Fetch attempts cut by the per-fetch deadline.
    pub(crate) timeouts: Arc<Counter>,
    /// Breaker state as a gauge: 0 closed, 1 open, 2 half-open.
    pub(crate) breaker_state: Arc<Gauge>,
    /// Breaker transitions, labelled by the state entered.
    breaker_to_open: Arc<Counter>,
    breaker_to_half_open: Arc<Counter>,
    breaker_to_closed: Arc<Counter>,
    /// Degraded responses served from the stale store (bumped by the
    /// server, carried here so the whole family registers together).
    pub(crate) stale_served: Arc<Counter>,
}

impl OriginMetrics {
    /// Registers the origin families in `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        let err = |kind: &str| {
            registry.counter(
                "csr_serve_origin_errors_total",
                "Origin fetch attempts that failed, by error kind",
                &[("kind", kind)],
            )
        };
        let transition = |to: &str| {
            registry.counter(
                "csr_serve_origin_breaker_transitions_total",
                "Circuit breaker transitions, by state entered",
                &[("to", to)],
            )
        };
        OriginMetrics {
            err_not_available: err("not_available"),
            err_timeout: err("timeout"),
            err_io: err("io"),
            retries: registry.counter(
                "csr_serve_origin_retries_total",
                "Origin fetch attempts re-issued after a failure",
                &[],
            ),
            timeouts: registry.counter(
                "csr_serve_origin_timeouts_total",
                "Origin fetch attempts cut by the per-fetch deadline",
                &[],
            ),
            breaker_state: registry.gauge(
                "csr_serve_origin_breaker_state",
                "Circuit breaker state: 0 closed, 1 open, 2 half-open",
                &[],
            ),
            breaker_to_open: transition("open"),
            breaker_to_half_open: transition("half_open"),
            breaker_to_closed: transition("closed"),
            stale_served: registry.counter(
                "csr_serve_origin_stale_served_total",
                "GETs answered with a stale cached value because the origin failed",
                &[],
            ),
        }
    }

    fn count_error(&self, e: &BackingError) {
        match e {
            BackingError::NotAvailable(_) => self.err_not_available.inc(),
            BackingError::Timeout => {
                self.err_timeout.inc();
                self.timeouts.inc();
            }
            BackingError::Io(_) => self.err_io.inc(),
            // A fail-fast rejection never touched the origin: it is not
            // an origin error (the retry layer returns it before counting;
            // this arm only covers direct callers).
            BackingError::Rejected(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic seed derivation

/// SplitMix64 finalizer over a `(seed, stream)` pair — the workspace's
/// shared deterministic hash for deriving independent sub-seeds from one
/// base seed (backoff jitter per attempt here, per-connection fault plans
/// in [`crate::chaos`]). Same inputs, same output, no ambient randomness.
#[must_use]
pub fn mix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Backoff

/// Capped exponential backoff with deterministic jitter.
///
/// Attempt `n` (0-based, i.e. the delay before retry `n + 1`) waits
/// `base * 2^n`, capped at `cap`, then scaled by a jitter factor in
/// `[0.5, 1.0)` derived from a hash of the seed and the attempt number —
/// retries of different keys decorrelate without any ambient randomness,
/// and the same `(seed, attempt)` always waits the same time.
#[derive(Debug, Clone, Copy)]
pub struct BackoffSchedule {
    /// Delay before the first retry (pre-jitter).
    pub base: Duration,
    /// Upper bound on any single delay (pre-jitter).
    pub cap: Duration,
}

impl Default for BackoffSchedule {
    /// 500 µs doubling up to 50 ms — tuned for origins whose healthy
    /// fetches are in the 0.1–1 ms range, as the serving demo's are.
    fn default() -> Self {
        BackoffSchedule {
            base: Duration::from_micros(500),
            cap: Duration::from_millis(50),
        }
    }
}

impl BackoffSchedule {
    /// The delay before retry `attempt + 1` of the fetch identified by
    /// `seed` (callers use a key hash). Deterministic in its arguments.
    #[must_use]
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = attempt.min(32);
        let raw = self
            .base
            .checked_mul(1u32 << exp.min(20))
            .map_or(self.cap, |d| d.min(self.cap));
        // splitmix64 finalizer over (seed, attempt): jitter factor in
        // [0.5, 1.0).
        let z = mix64(seed, u64::from(attempt));
        let frac = 0.5 + ((z >> 11) as f64 / (1u64 << 53) as f64) / 2.0;
        raw.mul_f64(frac)
    }
}

// ---------------------------------------------------------------------------
// Retry

/// Retries a failed fetch against the inner backing, sleeping out the
/// [`BackoffSchedule`] between attempts. Also the accounting layer: every
/// attempt failure is counted into [`OriginMetrics`] here — except
/// [`BackingError::Rejected`] fail-fasts from the breaker below, which
/// never touched the origin and pass straight through (no count, no
/// retry, no backoff sleep).
pub struct RetryBacking {
    inner: Arc<dyn Backing>,
    /// Retries after the first attempt (`0` = single attempt, no retry).
    retries: u32,
    backoff: BackoffSchedule,
    metrics: Option<Arc<OriginMetrics>>,
}

impl RetryBacking {
    /// Wraps `inner` with `retries` retries.
    #[must_use]
    pub fn new(
        inner: Arc<dyn Backing>,
        retries: u32,
        backoff: BackoffSchedule,
        metrics: Option<Arc<OriginMetrics>>,
    ) -> Self {
        RetryBacking {
            inner,
            retries,
            backoff,
            metrics,
        }
    }
}

impl Backing for RetryBacking {
    fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
        let seed = fnv1a(key);
        let mut attempt = 0u32;
        loop {
            match self.inner.try_fetch(key) {
                Ok(v) => return Ok(v),
                // A fail-fast rejection (breaker open) never touched the
                // origin: don't count it as an origin error, and don't
                // sleep out a backoff schedule against a breaker that is
                // known to stay open for its whole cooldown.
                Err(e @ BackingError::Rejected(_)) => return Err(e),
                Err(e) => {
                    if let Some(m) = &self.metrics {
                        m.count_error(&e);
                    }
                    if attempt >= self.retries {
                        return Err(e);
                    }
                    if let Some(m) = &self.metrics {
                        m.retries.inc();
                    }
                    std::thread::sleep(self.backoff.delay(attempt, seed));
                    attempt += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker

/// The observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls fail fast without touching the origin.
    Open,
    /// One probe call is allowed through; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding: 0 closed, 1 open, 2 half-open.
    #[must_use]
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// Internal breaker bookkeeping, all under one mutex (transitions are
/// rare and cheap; the origin call itself never holds it).
#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Consecutive failures while closed.
    consecutive_failures: u32,
    /// When the breaker opened (drives the cooldown).
    opened_at: Option<Instant>,
    /// Whether the half-open probe is currently in flight.
    probing: bool,
}

/// A consecutive-failure circuit breaker: after `threshold` consecutive
/// fetch failures the breaker **opens** and fails fast for `cooldown`;
/// then it goes **half-open**, letting exactly one probe through — a
/// success re-**closes** it, a failure re-opens it for another cooldown.
///
/// The state machine is deterministic in the sequence of call outcomes
/// (time only gates the open → half-open edge), which the property tests
/// rely on.
pub struct CircuitBreaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown: Duration,
    metrics: Option<Arc<OriginMetrics>>,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive failures
    /// and cools down for `cooldown` before probing.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero (use no breaker at all instead).
    #[must_use]
    pub fn new(threshold: u32, cooldown: Duration, metrics: Option<Arc<OriginMetrics>>) -> Self {
        assert!(threshold > 0, "breaker threshold must be positive");
        CircuitBreaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probing: false,
            }),
            threshold,
            cooldown,
            metrics,
        }
    }

    /// The current state (open → half-open is decided lazily at call
    /// admission, so an idle elapsed breaker still reads `Open`).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker lock poisoned").state
    }

    fn set_state(&self, inner: &mut BreakerInner, next: BreakerState) {
        inner.state = next;
        if let Some(m) = &self.metrics {
            m.breaker_state.set(next.as_gauge());
            match next {
                BreakerState::Open => m.breaker_to_open.inc(),
                BreakerState::HalfOpen => m.breaker_to_half_open.inc(),
                BreakerState::Closed => m.breaker_to_closed.inc(),
            }
        }
    }

    /// Admission check before touching the origin. `Ok` admits the call
    /// and hands back an [`Admission`] token that must be returned to
    /// [`record`](Self::record) with the call's outcome; the token says
    /// whether this call holds the half-open probe slot. `Err` is the
    /// fail-fast rejection, which is **not** an origin failure and does
    /// not advance the state machine.
    ///
    /// # Errors
    ///
    /// [`BackingError::Rejected`] while the breaker is open (or while
    /// another half-open probe is already in flight).
    pub fn admit(&self) -> Result<Admission, BackingError> {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        match inner.state {
            BreakerState::Closed => Ok(Admission { probe: false }),
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_some_and(|t| t.elapsed() >= self.cooldown);
                if cooled {
                    self.set_state(&mut inner, BreakerState::HalfOpen);
                    inner.probing = true;
                    Ok(Admission { probe: true })
                } else {
                    Err(BackingError::Rejected("circuit breaker open".into()))
                }
            }
            BreakerState::HalfOpen => {
                if inner.probing {
                    Err(BackingError::Rejected(
                        "circuit breaker half-open, probe in flight".into(),
                    ))
                } else {
                    inner.probing = true;
                    Ok(Admission { probe: true })
                }
            }
        }
    }

    /// Records the outcome of an admitted call, consuming its
    /// [`Admission`] token.
    ///
    /// Only the holder of the probe token decides the half-open
    /// transition: a straggler outcome from a call admitted while the
    /// breaker was still closed cannot clear the in-flight probe flag or
    /// flip the breaker while the real probe is running — it only feeds
    /// the consecutive-failure count, and only while the breaker is still
    /// closed.
    pub fn record(&self, admission: Admission, success: bool) {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        if admission.probe {
            // The probe slot is exclusive and only the probe leaves
            // HalfOpen, so the state here is still HalfOpen.
            inner.probing = false;
            if success {
                inner.consecutive_failures = 0;
                inner.opened_at = None;
                self.set_state(&mut inner, BreakerState::Closed);
            } else {
                inner.opened_at = Some(Instant::now());
                inner.consecutive_failures = self.threshold;
                self.set_state(&mut inner, BreakerState::Open);
            }
        } else if inner.state == BreakerState::Closed {
            if success {
                inner.consecutive_failures = 0;
            } else {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.threshold {
                    inner.opened_at = Some(Instant::now());
                    self.set_state(&mut inner, BreakerState::Open);
                }
            }
        }
        // else: a straggler from before the breaker opened — ignored; the
        // half-open probe alone decides recovery.
    }
}

/// Proof that [`CircuitBreaker::admit`] let a call through; hand it back
/// to [`CircuitBreaker::record`] with the call's outcome. `probe` marks
/// the exclusive half-open probe slot.
#[derive(Debug)]
#[must_use = "an admitted call's outcome must be recorded"]
pub struct Admission {
    probe: bool,
}

/// The middleware form of [`CircuitBreaker`]: fail fast while open, feed
/// every admitted call's outcome back into the state machine.
pub struct BreakerBacking {
    inner: Arc<dyn Backing>,
    breaker: Arc<CircuitBreaker>,
}

impl BreakerBacking {
    /// Wraps `inner` behind `breaker`.
    #[must_use]
    pub fn new(inner: Arc<dyn Backing>, breaker: Arc<CircuitBreaker>) -> Self {
        BreakerBacking { inner, breaker }
    }
}

impl Backing for BreakerBacking {
    fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
        let admission = self.breaker.admit()?;
        let result = self.inner.try_fetch(key);
        self.breaker.record(admission, result.is_ok());
        result
    }
}

// ---------------------------------------------------------------------------
// Deadline

/// Cuts off a fetch that exceeds its deadline. A blocking origin cannot be
/// interrupted portably, so the wait is isolated: the inner fetch runs on
/// a helper thread and the caller abandons it at the deadline — the origin
/// must bound its own hangs (every origin in this workspace does), or the
/// abandoned thread lingers until the hang resolves.
pub struct DeadlineBacking {
    inner: Arc<dyn Backing>,
    deadline: Duration,
}

impl DeadlineBacking {
    /// Wraps `inner` with a per-fetch `deadline`.
    #[must_use]
    pub fn new(inner: Arc<dyn Backing>, deadline: Duration) -> Self {
        DeadlineBacking { inner, deadline }
    }
}

impl Backing for DeadlineBacking {
    fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
        let (tx, rx) = mpsc::sync_channel(1);
        let inner = Arc::clone(&self.inner);
        let key = key.to_owned();
        std::thread::Builder::new()
            .name("csr-serve-fetch".into())
            .spawn(move || {
                let _ = tx.send(inner.try_fetch(&key));
            })
            .map_err(|e| BackingError::Io(format!("spawning fetch thread: {e}")))?;
        match rx.recv_timeout(self.deadline) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(BackingError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(BackingError::Io("origin fetch panicked".into()))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection

/// Fault injection for testing the fault-tolerant path: wraps an inner
/// origin and, per request, may inject an error, a latency spike, or a
/// hang (a bounded stall, long enough to trip any sane deadline).
///
/// All decisions come from a seeded PRNG drawn once per request in request
/// order, so a single-threaded request sequence is **deterministic** under
/// a fixed seed. Scripted scenarios use the [`set_failing`] master switch
/// (`set_failing(true)` fails everything until turned off).
///
/// [`set_failing`]: FaultBacking::set_failing
pub struct FaultBacking {
    inner: Arc<dyn Backing>,
    /// Probability a request fails with an injected I/O error.
    error_rate: f64,
    /// Probability a request stalls for [`hang`](Self::hang) first.
    hang_rate: f64,
    /// Stall duration for injected hangs (bounded: abandoned deadline
    /// threads must eventually finish).
    hang: Duration,
    rng: Mutex<mem_trace::rng::SplitMix64>,
    requests: AtomicU64,
    failing: AtomicBool,
}

impl FaultBacking {
    /// Wraps `inner`, failing `error_rate` of requests and hanging
    /// `hang_rate` of them for `hang`, drawn from a PRNG seeded `seed`.
    #[must_use]
    pub fn new(inner: Arc<dyn Backing>, seed: u64, error_rate: f64, hang_rate: f64) -> Self {
        FaultBacking {
            inner,
            error_rate,
            hang_rate,
            hang: Duration::from_millis(50),
            rng: Mutex::new(mem_trace::rng::SplitMix64::new(seed)),
            requests: AtomicU64::new(0),
            failing: AtomicBool::new(false),
        }
    }

    /// Overrides the injected hang duration.
    #[must_use]
    pub fn hang_for(mut self, hang: Duration) -> Self {
        self.hang = hang;
        self
    }

    /// Master failure switch: while `true`, every request fails.
    pub fn set_failing(&self, failing: bool) {
        self.failing.store(failing, Ordering::Relaxed);
    }

    /// Requests seen so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

impl Backing for FaultBacking {
    fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if self.failing.load(Ordering::Relaxed) {
            return Err(BackingError::Io("injected failure (switch)".into()));
        }
        let (hang, error) = {
            let mut rng = self.rng.lock().expect("fault rng poisoned");
            (rng.chance(self.hang_rate), rng.chance(self.error_rate))
        };
        if hang {
            std::thread::sleep(self.hang);
        }
        if error {
            return Err(BackingError::Io("injected error".into()));
        }
        self.inner.try_fetch(key)
    }
}

// ---------------------------------------------------------------------------
// The assembled stack

/// Configuration for [`ResilientBacking::wrap`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Per-fetch deadline. `None` skips the deadline layer entirely (no
    /// helper thread per fetch) — appropriate for origins that bound
    /// their own latency.
    pub deadline: Option<Duration>,
    /// Retries after the first failed attempt (`0` disables retry).
    pub retries: u32,
    /// Backoff between retries.
    pub backoff: BackoffSchedule,
    /// Consecutive failures that open the circuit breaker (`0` disables
    /// the breaker).
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before half-open probing.
    pub breaker_cooldown: Duration,
}

impl Default for ResilienceConfig {
    /// Two retries with sub-millisecond backoff, a 5-failure breaker with
    /// a 1 s cooldown, no deadline. Infallible origins never trip any of
    /// it, so the default stack adds only a branch per fetch.
    fn default() -> Self {
        ResilienceConfig {
            deadline: None,
            retries: 2,
            backoff: BackoffSchedule::default(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(1),
        }
    }
}

/// Assembles the middleware stack around an origin. Not a type of its own
/// — `wrap` returns the outermost layer as a `Backing`, plus the breaker
/// handle (if one was configured) so callers can observe its state.
pub struct ResilientBacking;

impl ResilientBacking {
    /// Wraps `origin` per `config`: deadline innermost, then breaker,
    /// then retry. Layers whose config disables them are skipped, so the
    /// degenerate config returns `origin` untouched.
    #[must_use]
    pub fn wrap(
        origin: Arc<dyn Backing>,
        config: &ResilienceConfig,
        metrics: Option<Arc<OriginMetrics>>,
    ) -> (Arc<dyn Backing>, Option<Arc<CircuitBreaker>>) {
        let mut stack = origin;
        if let Some(deadline) = config.deadline {
            stack = Arc::new(DeadlineBacking::new(stack, deadline));
        }
        let breaker = (config.breaker_threshold > 0).then(|| {
            Arc::new(CircuitBreaker::new(
                config.breaker_threshold,
                config.breaker_cooldown,
                metrics.clone(),
            ))
        });
        if let Some(b) = &breaker {
            stack = Arc::new(BreakerBacking::new(stack, Arc::clone(b)));
        }
        if config.retries > 0 || metrics.is_some() {
            // Even with zero retries the retry layer stays: it is where
            // attempt errors are counted into the metrics.
            stack = Arc::new(RetryBacking::new(
                stack,
                config.retries,
                config.backoff,
                metrics,
            ));
        }
        (stack, breaker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemoryBacking;

    /// An origin that fails its first `fail_first` fetches, then serves.
    struct FlakyStart {
        fail_first: u64,
        calls: AtomicU64,
    }

    impl FlakyStart {
        fn new(fail_first: u64) -> Self {
            FlakyStart {
                fail_first,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Backing for FlakyStart {
        fn try_fetch(&self, key: &str) -> Result<Option<Vec<u8>>, BackingError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                Err(BackingError::Io("warming up".into()))
            } else {
                Ok(Some(key.as_bytes().to_vec()))
            }
        }
    }

    #[test]
    fn backoff_delays_are_bounded_and_deterministic() {
        let schedule = BackoffSchedule {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(10),
        };
        let mut prev_raw = Duration::ZERO;
        for attempt in 0..12 {
            let raw = schedule
                .base
                .checked_mul(1 << attempt.min(20))
                .map_or(schedule.cap, |d| d.min(schedule.cap));
            let d = schedule.delay(attempt, 0xdead_beef);
            assert!(
                d <= raw,
                "attempt {attempt}: {d:?} over the raw bound {raw:?}"
            );
            assert!(
                d >= raw.mul_f64(0.5),
                "attempt {attempt}: {d:?} under half the raw bound {raw:?}"
            );
            assert!(d <= schedule.cap, "attempt {attempt}: over the cap");
            assert!(raw >= prev_raw, "raw schedule must be non-decreasing");
            prev_raw = raw;
            // Determinism: same (attempt, seed) — same delay.
            assert_eq!(d, schedule.delay(attempt, 0xdead_beef));
        }
        // Different seeds jitter differently (overwhelmingly likely).
        assert_ne!(schedule.delay(3, 1), schedule.delay(3, 2));
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let origin = Arc::new(FlakyStart::new(2));
        let retry = RetryBacking::new(
            origin,
            2,
            BackoffSchedule {
                base: Duration::from_micros(10),
                cap: Duration::from_micros(100),
            },
            None,
        );
        assert_eq!(retry.try_fetch("k").unwrap().unwrap(), b"k".to_vec());
    }

    #[test]
    fn retry_gives_up_after_its_budget() {
        let origin = Arc::new(FlakyStart::new(10));
        let retry = RetryBacking::new(
            origin,
            2,
            BackoffSchedule {
                base: Duration::from_micros(10),
                cap: Duration::from_micros(100),
            },
            None,
        );
        assert_eq!(
            retry.try_fetch("k"),
            Err(BackingError::Io("warming up".into()))
        );
    }

    /// A breaker fail-fast must pass straight through the retry layer:
    /// no origin-error count, no retry, no backoff sleep against a
    /// breaker that stays open for its whole cooldown.
    #[test]
    fn retry_passes_breaker_rejections_through_untouched() {
        struct AlwaysRejected;
        impl Backing for AlwaysRejected {
            fn try_fetch(&self, _key: &str) -> Result<Option<Vec<u8>>, BackingError> {
                Err(BackingError::Rejected("circuit breaker open".into()))
            }
        }
        let registry = Registry::new();
        let metrics = Arc::new(OriginMetrics::new(&registry));
        let retry = RetryBacking::new(
            Arc::new(AlwaysRejected),
            5,
            BackoffSchedule {
                base: Duration::from_millis(50),
                cap: Duration::from_millis(200),
            },
            Some(Arc::clone(&metrics)),
        );
        let t0 = Instant::now();
        assert!(matches!(
            retry.try_fetch("k"),
            Err(BackingError::Rejected(_))
        ));
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "a rejection must not sleep out the backoff schedule"
        );
        assert_eq!(metrics.retries.get(), 0, "a rejection must not be retried");
        assert_eq!(
            metrics.err_not_available.get() + metrics.err_timeout.get() + metrics.err_io.get(),
            0,
            "a rejection never touched the origin and must not be counted"
        );
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let cooldown = Duration::from_millis(10);
        let b = CircuitBreaker::new(3, cooldown, None);
        assert_eq!(b.state(), BreakerState::Closed);

        // Two failures: still closed. A success resets the streak.
        for _ in 0..2 {
            let a = b.admit().unwrap();
            b.record(a, false);
        }
        let a = b.admit().unwrap();
        b.record(a, true);
        assert_eq!(b.state(), BreakerState::Closed);

        // Three consecutive failures: open, and calls fail fast.
        for _ in 0..3 {
            let a = b.admit().unwrap();
            b.record(a, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(matches!(b.admit(), Err(BackingError::Rejected(_))));

        // Cooldown elapses: exactly one half-open probe is admitted.
        std::thread::sleep(cooldown + Duration::from_millis(5));
        let probe = b.admit().unwrap();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(
            matches!(b.admit(), Err(BackingError::Rejected(_))),
            "second probe must be rejected while the first is in flight"
        );
        // The probe succeeds: closed again.
        b.record(probe, true);
        assert_eq!(b.state(), BreakerState::Closed);
        let _ = b.admit().unwrap();
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let cooldown = Duration::from_millis(5);
        let b = CircuitBreaker::new(1, cooldown, None);
        let a = b.admit().unwrap();
        b.record(a, false);
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(cooldown + Duration::from_millis(3));
        let probe = b.admit().unwrap();
        b.record(probe, false);
        assert_eq!(b.state(), BreakerState::Open, "failed probe must re-open");
        assert!(matches!(b.admit(), Err(BackingError::Rejected(_))));
    }

    /// The exactly-one-probe invariant under stragglers: an outcome from a
    /// call admitted while the breaker was still closed, arriving while
    /// the half-open probe is in flight, must neither free the probe slot
    /// (admitting a second concurrent probe) nor flip the breaker — the
    /// probe alone decides.
    #[test]
    fn straggler_outcomes_cannot_steal_the_half_open_probe() {
        let cooldown = Duration::from_millis(5);
        let b = CircuitBreaker::new(2, cooldown, None);

        // A slow call is admitted while closed; its outcome will arrive
        // late, after the breaker has opened and gone half-open.
        let straggler = b.admit().unwrap();

        // Two fast failures open the breaker; the cooldown elapses and a
        // probe claims the half-open slot.
        for _ in 0..2 {
            let a = b.admit().unwrap();
            b.record(a, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(cooldown + Duration::from_millis(3));
        let probe = b.admit().unwrap();
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // The straggler lands mid-probe. Whatever its outcome, the probe
        // slot stays taken and the state stays half-open.
        b.record(straggler, true);
        assert_eq!(
            b.state(),
            BreakerState::HalfOpen,
            "a straggler success must not re-close the breaker mid-probe"
        );
        assert!(
            matches!(b.admit(), Err(BackingError::Rejected(_))),
            "the probe slot must still be held after a straggler outcome"
        );

        // The real probe still decides: success re-closes.
        b.record(probe, true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn deadline_cuts_a_hung_origin() {
        // ... every request hangs, far past the deadline.
        let hung = FaultBacking::new(Arc::new(MemoryBacking::new()), 1, 0.0, 1.0)
            .hang_for(Duration::from_millis(80));
        let deadline = DeadlineBacking::new(Arc::new(hung), Duration::from_millis(5));
        let t0 = Instant::now();
        assert_eq!(deadline.try_fetch("k"), Err(BackingError::Timeout));
        assert!(
            t0.elapsed() < Duration::from_millis(60),
            "the caller must not wait out the hang"
        );
    }

    #[test]
    fn deadline_passes_prompt_fetches_through() {
        let origin = Arc::new(MemoryBacking::new());
        origin.put("k", b"v".to_vec());
        let deadline = DeadlineBacking::new(origin, Duration::from_secs(1));
        assert_eq!(deadline.try_fetch("k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(deadline.try_fetch("absent").unwrap(), None);
    }

    /// The satellite's determinism property: a seeded fault injector (and
    /// the retry stack above it) replays a single-threaded request
    /// sequence identically — same seed, same request sequence, same
    /// outcomes, which is what keeps BENCH numbers reproducible.
    #[test]
    fn seeded_fault_stack_replays_identically() {
        fn run(seed: u64) -> Vec<Result<bool, BackingError>> {
            let origin = Arc::new(MemoryBacking::new());
            for i in 0..32 {
                origin.put(format!("key:{i}"), vec![b'v'; 4]);
            }
            let fault =
                Arc::new(FaultBacking::new(origin, seed, 0.3, 0.0).hang_for(Duration::ZERO));
            let (stack, _) = ResilientBacking::wrap(
                fault,
                &ResilienceConfig {
                    retries: 1,
                    backoff: BackoffSchedule {
                        base: Duration::from_micros(1),
                        cap: Duration::from_micros(10),
                    },
                    breaker_threshold: 2,
                    breaker_cooldown: Duration::from_secs(3600), // never re-closes
                    deadline: None,
                },
                None,
            );
            (0..200)
                .map(|i| {
                    stack
                        .try_fetch(&format!("key:{}", i % 32))
                        .map(|v| v.is_some())
                })
                .collect()
        }
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must replay the same outcome sequence");
        assert_ne!(
            a,
            run(8),
            "a different seed must (overwhelmingly likely) diverge"
        );
        assert!(
            a.iter().any(|r| r.is_err()) && a.iter().any(|r| r.is_ok()),
            "the stack must see both failures and successes"
        );
    }
}
