//! Asserts the tentpole's zero-cost claim mechanically: with tracing
//! disabled, the per-request tracer entry points perform **zero heap
//! allocations**. A counting wrapper around the system allocator makes
//! "no allocation" a hard test failure instead of a code-review hope.
//!
//! This lives in an integration test (its own crate) because the library
//! itself is `#![forbid(unsafe_code)]` and implementing `GlobalAlloc`
//! requires `unsafe`; the trick stays quarantined here.

use csr_obs::trace::{arm_events, emit_event, take_events};
use csr_obs::{TraceConfig, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. The harness runs the tests of this
    /// file on parallel threads, so a process-wide counter would charge one
    /// test's allocations to the other. Const-initialised and without a
    /// destructor, so touching it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_tracing_allocates_nothing_per_request() {
    // Construction may allocate (the ring); that cost is paid once at
    // startup, not per request.
    let tracer = Tracer::new("127.0.0.1:11311", TraceConfig::default());
    assert!(!tracer.enabled());

    // Warm up thread-local storage and any lazy runtime state.
    assert!(tracer.begin(None, Instant::now()).is_none());
    emit_event("warmup", || "never built".to_owned());
    assert!(take_events().is_empty());

    let before = allocations();
    for _ in 0..10_000 {
        // The untraced request path: one sampling decision plus the
        // unarmed event emissions middleware makes along the way.
        assert!(tracer.begin(None, Instant::now()).is_none());
        emit_event("retry", || "attempt 1".to_owned());
        emit_event("deadline", || "800ms".to_owned());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "untraced hot path must not allocate ({} allocations in 10k requests)",
        after - before
    );
    assert_eq!(tracer.recorded(), 0, "sampling off => no ring writes");
    assert_eq!(tracer.dropped(), 0);
}

#[test]
fn armed_collector_and_sampling_do_allocate_only_when_tracing() {
    let tracer = Tracer::new(
        "n1",
        TraceConfig {
            sample_every: 1,
            slow_us: 0,
            capacity: 16,
        },
    );
    let before = allocations();
    let mut trace = tracer.begin(None, Instant::now()).expect("sampled");
    arm_events();
    emit_event("retry", || "attempt 1".to_owned());
    let events = take_events();
    assert_eq!(events.len(), 1);
    let span = trace.begin_span("origin");
    trace.finish_span(span);
    let fin = tracer.finish(trace);
    assert!(fin.retained);
    // Sanity: the traced path did allocate (spans, events, ring entry) —
    // i.e. the zero reading above is a real measurement, not a broken
    // counter.
    assert!(allocations() > before);
}
