//! # csr-serve — a network cache server with *measured* miss costs
//!
//! This crate turns the cost-sensitive cache ([`csr-cache`](csr_cache))
//! into a standalone TCP service, closing the loop the paper leaves open:
//! instead of assuming each block's miss penalty, the server **measures**
//! it. Every cache miss reads through to a [`Backing`] origin, the fetch
//! is timed, and that latency (µs) is charged to the entry as its miss
//! cost. The replacement policy (DCL by default) then reserves the
//! entries whose misses were *observed* to be expensive — the serving-
//! system analogue of the paper's cycle-measured miss penalties.
//!
//! Pieces:
//!
//! * [`server`] — the TCP server: pipelined text protocol, load-shedding
//!   with `SERVER_BUSY`, graceful drain on shutdown, Prometheus metrics
//!   via csr-obs. Worker threads serve busy connections with blocking
//!   reads; idle ones park on one poller thread, so five-digit
//!   connection counts cost no threads.
//! * [`poller`] — the readiness primitive the idle connections park on:
//!   epoll/kqueue behind one small API, the only FFI in the library.
//! * [`proto`] — the wire protocol (normative grammar in `PROTOCOL.md`).
//! * [`backing`] — the read-through origin trait (fallible: origins can
//!   refuse, stall, or break) plus a simulated tiered origin
//!   ([`SimBacking`]) whose bimodal latency drives the demo.
//! * [`resilience`] — middleware around a fallible origin: per-fetch
//!   deadlines, bounded retry with capped backoff, a circuit breaker,
//!   and the [`FaultBacking`] injector the fault-tolerance tests use.
//! * [`client`] — a blocking client with connect/read/write deadlines,
//!   plus a self-healing [`FailoverClient`] for one server address that
//!   reconnects with capped backoff, transparently replays idempotent
//!   ops, and refuses to replay a `SET` that may have been applied.
//! * [`persist`] — crash-safe persistence: a segmented, CRC-32-framed
//!   write-ahead log of every mutation *with its measured miss cost*,
//!   periodic atomic snapshots, and cold-start recovery that truncates
//!   torn tails — so the resident set and the eviction ordering survive
//!   a SIGKILL instead of cold-starting into an origin stampede.
//! * [`chaos`] — a seeded in-process fault-injecting TCP proxy
//!   ([`ChaosProxy`]): resets, corruption, truncation, stalls, and
//!   scripted partitions, each counted, so the robustness claims above
//!   are mechanically checkable under hostile networks.
//!
//! Binaries: `csr-serve` (the daemon) and `loadgen` (a Zipf load
//! generator, closed loop or open loop, that reports throughput and
//! latency percentiles and writes `BENCH_serve.json`).

#![deny(unsafe_code)] // only `poller` opts out, for its confined FFI
#![warn(missing_docs)]

pub mod backing;
pub mod chaos;
pub mod client;
pub mod persist;
pub mod poller;
pub mod proto;
mod reactor;
pub mod resilience;
pub mod server;

pub use backing::{Backing, BackingError, InfallibleBacking, MemoryBacking, NoBacking, SimBacking};
pub use chaos::{ChaosConfig, ChaosProxy, ChaosSnapshot};
pub use client::{
    Client, ClientMetrics, ConnectionError, FailoverClient, FailoverConfig, OriginError,
    StoreRejected, Timeouts, Value,
};
pub use persist::{FsyncPolicy, PersistConfig};
pub use resilience::{
    BackoffSchedule, BreakerState, CircuitBreaker, FaultBacking, OriginMetrics, ResilienceConfig,
    ResilientBacking,
};
pub use server::{serve, Bytes, ReportSink, ServerConfig, ServerHandle};
