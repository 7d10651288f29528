//! # csr-obs — observability for the cost-sensitive cache workspace
//!
//! A dependency-free metrics and decision-tracing layer shared by the
//! `csr` policy cores, the `csr-cache` concurrent cache, the trace-driven
//! harness, and the bench binaries:
//!
//! * **Metrics** — [`Counter`] / [`Gauge`] on relaxed atomics and a
//!   lock-free log-bucketed [`Histogram`] (p50/p90/p99/max, mergeable
//!   across shards), organized into labelled families by a [`Registry`];
//!   a one-in-N [`Sampler`] picks the operations a latency histogram
//!   times.
//! * **Decision events** — the [`Observer`] trait receives the individual
//!   hit/miss/evict/reserve/depreciate/ETD-hit/automaton-flip decisions of
//!   a replacement policy. [`NopObserver`] (the default everywhere)
//!   compiles to nothing; [`EventTracer`] keeps a bounded ring of recent
//!   events; [`CountingObserver`] keeps per-kind totals;
//!   [`MetricsObserver`] feeds a [`Registry`].
//! * **Export** — [`export::prometheus`] (text exposition format) and
//!   [`export::json`] (hand-rolled, validated by the bundled [`Json`]
//!   parser), plus a periodic [`Reporter`] thread.
//!
//! ```
//! use csr_obs::{Registry, export};
//!
//! let registry = Registry::new();
//! registry.counter("requests_total", "requests", &[("route", "/get")]).inc();
//! let lat = registry.histogram("latency_ns", "op latency", &[]);
//! lat.record(1_250);
//! lat.record(480);
//!
//! let snap = registry.snapshot();
//! println!("{}", export::prometheus(&snap)); // scrape body
//! println!("{}", export::json(&snap));       // same numbers, JSON
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod observe;
pub mod registry;
pub mod reporter;

pub use json::{Json, JsonError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Sampler};
pub use observe::{
    CountingObserver, DecisionEvent, EventCounts, EventTracer, MetricsObserver, NopObserver,
    Observer, TracedEvent,
};
pub use registry::{
    FamilySnapshot, LabelSet, MetricKind, Registry, RegistrySnapshot, Sample, SampleValue,
};
pub use reporter::Reporter;

/// A shareable, type-erased observer — what the concurrent cache and the
/// experiment harness pass around when the concrete observer is chosen at
/// run time.
pub type SharedObserver = std::sync::Arc<dyn Observer + Send + Sync>;
