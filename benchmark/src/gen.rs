//! Seeded input generation. Everything the programs under test see is made
//! here from `--seed`, before any timing starts.

/// SplitMix64: small, fast, and good enough for key draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer; also the benchmark's fixed `u64` hash.
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(`theta`) over ranks `0..n`, drawn by binary search on the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }

    /// `len` draws. Distinct `(seed, lane)` pairs give independent streams.
    pub fn stream(&self, seed: u64, lane: u64, len: usize) -> Vec<u32> {
        let mut rng = Rng::new(mix64(seed) ^ mix64(lane.wrapping_add(0x51ed)));
        (0..len).map(|_| self.draw(&mut rng)).collect()
    }
}

/// The skew of every key stream (the issue fixes it at 0.9).
pub const ZIPF_THETA: f64 = 0.9;

/// The wire key of rank `i`. Fixed width, so every frame has one length.
pub fn key_name(i: u32) -> String {
    format!("key:{i:08}")
}

/// Value length of the simulated origin and of every SET.
pub const VALUE_LEN: usize = 128;

/// What the simulated origin returns for `key`: the key, then `#` to
/// `VALUE_LEN` bytes. Computed here, not taken from the server's code, so a
/// wrong byte on the wire is caught.
pub fn origin_value(key: &str) -> Vec<u8> {
    let mut v = key.as_bytes().to_vec();
    v.resize(VALUE_LEN.max(key.len()), b'#');
    v
}

/// Whether `value` is exactly [`origin_value`]`(key)`, without building it.
pub fn is_origin_value(key: &str, value: &[u8]) -> bool {
    value.len() == VALUE_LEN.max(key.len())
        && value.starts_with(key.as_bytes())
        && value[key.len()..].iter().all(|&b| b == b'#')
}

/// The value a `serve-set` connection stores for `key` at `version`.
pub fn versioned_value(key: &str, version: u32, out: &mut Vec<u8>) {
    use std::io::Write;
    out.clear();
    write!(out, "{key}@{version:010}").expect("write to Vec");
    out.resize(VALUE_LEN, b'=');
}

/// Miss cost of a `kv-*` key: one key in sixteen costs 32, the rest 1.
pub fn kv_cost(key: u64) -> u64 {
    if key.is_multiple_of(16) {
        32
    } else {
        1
    }
}
