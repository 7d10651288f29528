//! The `serve-*` workloads: a `csr-serve` daemon child driven over loopback
//! by closed-loop clients, one connection per load thread.

use crate::gen::{self, is_origin_value, key_name, versioned_value, Zipf, ZIPF_THETA};
use crate::measure::{load_threads, Worker};
use crate::sut::{Conn, Counters, Daemon};
use crate::workloads::{
    run_windowed, Band, Opts, Outcome, Pick, Session, BAND_ALL_HITS, BAND_BIG, KEYS_BIG, KEYS_FIT,
};
use std::sync::Arc;

/// What a serve client does with its stream.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every op a GET of an origin-backed key.
    Get,
    /// SET and GET in turn, over keys this connection owns.
    SetGet,
}

pub struct ServeWorker {
    conn: Conn,
    mix: Mix,
    names: Arc<Vec<String>>,
    stream: Vec<u32>,
    pos: usize,
    lane: u32,
    lanes: u32,
    /// `SetGet`: the version this connection last stored for each key it
    /// owns (key index / lanes), so every GET has known expected bytes.
    versions: Vec<u32>,
    buf: Vec<u8>,
    /// `SetGet`: whether each op of the current window was a SET.
    pub was_set: Vec<bool>,
}

impl ServeWorker {
    /// The key of stream position `pos`; `SetGet` maps the drawn rank to the
    /// nearest key this lane owns.
    fn key_at(&self, pos: usize) -> u32 {
        let rank = self.stream[pos % self.stream.len()];
        match self.mix {
            Mix::Get => rank,
            Mix::SetGet => rank - rank % self.lanes + self.lane,
        }
    }

    fn get_origin(&mut self, idx: u32) -> bool {
        let key = &self.names[idx as usize];
        self.conn.get(key).is_some_and(|v| is_origin_value(key, &v))
    }

    fn set_next(&mut self, idx: u32) -> bool {
        let key = &self.names[idx as usize];
        let version = &mut self.versions[(idx / self.lanes) as usize];
        *version += 1;
        versioned_value(key, *version, &mut self.buf);
        self.conn.set(key, &self.buf)
    }

    fn get_versioned(&mut self, idx: u32) -> bool {
        let key = &self.names[idx as usize];
        versioned_value(
            key,
            self.versions[(idx / self.lanes) as usize],
            &mut self.buf,
        );
        self.conn.get(key).is_some_and(|v| v == self.buf)
    }
}

impl Worker for ServeWorker {
    fn op(&mut self) -> bool {
        let idx = self.key_at(self.pos);
        self.pos += 1;
        match self.mix {
            Mix::Get => self.get_origin(idx),
            Mix::SetGet => {
                let set = self.pos % 2 == 1;
                self.was_set.push(set);
                if set {
                    self.set_next(idx)
                } else {
                    self.get_versioned(idx)
                }
            }
        }
    }

    fn span_name(&self) -> &'static str {
        match self.was_set.last() {
            Some(true) => "client.set",
            _ => "client.get",
        }
    }
}

/// How a serve workload is set up.
pub struct ServeSpec<'a> {
    pub keys: usize,
    pub mix: Mix,
    /// Daemon flags after the common ones.
    pub daemon_args: &'a [&'a str],
    /// `Some`: the daemon gets a `--persist-dir` and these persistence
    /// flags. Kept apart from `daemon_args` because any persistence flag
    /// alone turns the WAL on, in `./csr-data`.
    pub persist: Option<&'a [&'a str]>,
    /// Draws per connection; the stream is cycled.
    pub stream_len: usize,
}

pub const SERVE_HIT: ServeSpec = ServeSpec {
    keys: KEYS_FIT,
    mix: Mix::Get,
    daemon_args: &[],
    persist: None,
    stream_len: 1 << 20,
};

pub const SERVE_MISS: ServeSpec = ServeSpec {
    keys: KEYS_BIG,
    mix: Mix::Get,
    daemon_args: &[],
    persist: None,
    stream_len: 1 << 18,
};

pub const SERVE_SET: ServeSpec = ServeSpec {
    keys: KEYS_FIT,
    mix: Mix::SetGet,
    daemon_args: &[],
    persist: Some(&["--snapshot-every", "65536"]),
    stream_len: 1 << 20,
};

/// A running daemon, prefilled, with its clients.
pub struct ServeSession {
    pub daemon: Daemon,
    pub workers: Vec<ServeWorker>,
    control: Conn,
    names: Arc<Vec<String>>,
    /// Requests the prefill made, and how many got a wrong reply.
    prefill: (u64, u64),
}

/// One lane's share of the prefill; `(attempted, failed)`.
fn prefill(w: &mut ServeWorker, zipf: &Zipf, seed: u64, fill_to_full: bool) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    if fill_to_full {
        // Replay a Zipf stream until STATS shows the cache full, so eviction
        // is in the loop from the first timed op and recency order is as
        // mixed as the stream leaves it.
        let mut rng = gen::Rng::new(gen::mix64(seed) ^ u64::from(w.lane) ^ 0xf111);
        loop {
            for _ in 0..256 {
                attempted += 1;
                failed += u64::from(!w.get_origin(zipf.draw(&mut rng)));
            }
            let (_, resident, capacity) = w.conn.counters();
            if resident >= capacity {
                break;
            }
        }
    } else {
        // Every key this lane owns, once: a GET fetches it, a SET stores it.
        let mut idx = w.lane;
        while (idx as usize) < w.names.len() {
            attempted += 1;
            failed += u64::from(!match w.mix {
                Mix::Get => w.get_origin(idx),
                Mix::SetGet => w.set_next(idx),
            });
            idx += w.lanes;
        }
    }
    (attempted, failed)
}

impl ServeSession {
    pub fn setup(opts: &Opts, spec: &ServeSpec) -> Result<ServeSession, String> {
        let scratch = opts.out_dir.join("tmp");
        let daemon = Daemon::spawn(
            &opts.daemon,
            spec.daemon_args,
            spec.persist.map(|flags| (scratch.as_path(), flags)),
        )?;
        let lanes = load_threads() as u32;
        let names: Arc<Vec<String>> = Arc::new((0..spec.keys as u32).map(key_name).collect());
        let zipf = Zipf::new(spec.keys, ZIPF_THETA);
        let mut workers: Vec<ServeWorker> = (0..lanes)
            .map(|lane| ServeWorker {
                conn: daemon.connect(),
                mix: spec.mix,
                names: Arc::clone(&names),
                stream: zipf.stream(opts.seed, u64::from(lane), spec.stream_len),
                pos: 0,
                lane,
                lanes,
                versions: vec![0; spec.keys.div_ceil(lanes as usize)],
                buf: Vec::with_capacity(gen::VALUE_LEN),
                was_set: Vec::new(),
            })
            .collect();
        let mut control = daemon.connect();
        let (_, _, capacity) = control.counters();
        let fill_to_full = spec.keys as u64 > capacity;
        // Every lane prefills on its own connection, in parallel.
        let prefill: (u64, u64) = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|w| {
                    let zipf = &zipf;
                    s.spawn(move || prefill(w, zipf, opts.seed, fill_to_full))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("prefill thread panicked"))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        });
        let (_, resident, capacity) = control.counters();
        let want = (spec.keys as u64).min(capacity);
        if resident != want {
            return Err(format!(
                "prefill left {resident} entries resident, not {want}"
            ));
        }
        Ok(ServeSession {
            daemon,
            workers,
            control,
            names,
            prefill,
        })
    }

    /// The workers, each on a new connection. A connection kept from window
    /// to window leaves its server thread wherever the scheduler last put
    /// it, and whole runs then sit in a slow placement (p50 15 us against
    /// 11 us on 2 vCPUs); a new connection per window re-draws the placement.
    pub fn fresh_workers(&mut self) -> &mut [ServeWorker] {
        for w in &mut self.workers {
            w.was_set.clear();
            w.conn = self.daemon.connect();
        }
        &mut self.workers
    }

    /// `serve-set` only: graceful stop, restart on the same directory, then
    /// GET a sample of keys and compare with the last acknowledged SET.
    /// Returns `(recovery seconds, recovered entries, audited, failed)`.
    pub fn restart_and_audit(&mut self) -> (f64, u64, u64, u64) {
        let recovery_s = match self.daemon.restart() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("restart failed: {e}");
                return (0.0, 0, 1, 1);
            }
        };
        let mut conn = self.daemon.connect();
        let recovered = conn.stat("persist_recovered_entries").unwrap_or(0);
        let (mut audited, mut failed) = (0u64, 0u64);
        let mut buf = Vec::new();
        for w in &self.workers {
            // Every 16th key each lane owns, hot and cold alike.
            for (slot, &version) in w.versions.iter().enumerate().step_by(16) {
                let idx = slot as u32 * w.lanes + w.lane;
                let Some(key) = self.names.get(idx as usize) else {
                    continue;
                };
                versioned_value(key, version, &mut buf);
                audited += 1;
                failed += u64::from(conn.get(key).is_none_or(|v| v != buf));
            }
        }
        (recovery_s, recovered, audited, failed)
    }
}

impl Session for ServeSession {
    type W = ServeWorker;

    fn begin_window(&mut self) -> &mut [ServeWorker] {
        self.fresh_workers()
    }

    fn sut_pid(&self) -> u32 {
        self.daemon.pid()
    }

    fn counters(&mut self) -> Counters {
        self.control.counters().0
    }

    fn finish(mut self) -> (u64, u64) {
        let (mut attempted, mut failed) = self.prefill;
        if self.workers[0].mix == Mix::SetGet {
            let audit = self.restart_and_audit();
            attempted += audit.2;
            failed += audit.3;
        }
        (attempted, failed)
    }
}

fn serve(opts: &Opts, name: &str, spec: &ServeSpec, band: Band) -> Outcome {
    run_windowed(
        opts,
        name,
        || ServeSession::setup(opts, spec).unwrap_or_else(|e| panic!("{name}: {e}")),
        1,
        band,
        Pick::Best,
    )
}

pub fn serve_hit(opts: &Opts) -> Outcome {
    serve(opts, "serve-hit", &SERVE_HIT, BAND_ALL_HITS)
}

pub fn serve_miss(opts: &Opts) -> Outcome {
    serve(opts, "serve-miss", &SERVE_MISS, BAND_BIG)
}

pub fn serve_set(opts: &Opts) -> Outcome {
    serve(opts, "serve-set", &SERVE_SET, BAND_ALL_HITS)
}
