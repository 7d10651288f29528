//! `FirstTouchPlacement` against a plain `HashMap` from unit to home: the
//! same homes, remoteness and `units_homed` after every touch, for seeded
//! scripts of dense (one array) and sparse (far-apart) addresses, at block
//! and page granularity.

use cache_sim::Addr;
use mem_trace::rng::SplitMix64;
use mem_trace::{FirstTouchPlacement, ProcId};
use std::collections::HashMap;

/// The placement as the per-unit map it replaced.
struct Model {
    granularity_bytes: u64,
    homes: HashMap<u64, ProcId>,
}

impl Model {
    fn touch(&mut self, proc: ProcId, addr: Addr) -> ProcId {
        *self
            .homes
            .entry(addr.0 / self.granularity_bytes)
            .or_insert(proc)
    }

    fn home_of(&self, addr: Addr) -> Option<ProcId> {
        self.homes.get(&(addr.0 / self.granularity_bytes)).copied()
    }
}

/// A random address: within a 256 KB array when `dense`, anywhere below
/// 2^62 otherwise, so nearly every sparse touch opens a row of its own.
fn address(rng: &mut SplitMix64, dense: bool) -> Addr {
    if dense {
        Addr(0x4000_0000 + rng.below(256 * 1024))
    } else {
        Addr(rng.below(1 << 62))
    }
}

#[test]
fn dense_placement_matches_a_per_unit_map() {
    for granularity_bytes in [64, 4096] {
        for dense in [true, false] {
            for seed in 0..8 {
                let mut rng = SplitMix64::new(seed);
                let mut placement = FirstTouchPlacement::new(granularity_bytes);
                let mut model = Model {
                    granularity_bytes,
                    homes: HashMap::new(),
                };
                let mut touched = Vec::new();
                for _ in 0..5_000 {
                    let proc = ProcId(rng.below(FirstTouchPlacement::MAX_PROCS as u64) as usize);
                    // Half the touches revisit an address seen before.
                    let addr = if touched.is_empty() || rng.chance(0.5) {
                        address(&mut rng, dense)
                    } else {
                        touched[rng.below(touched.len() as u64) as usize]
                    };
                    touched.push(addr);
                    let ctx = format!("g={granularity_bytes} dense={dense} seed={seed} {addr}");
                    assert_eq!(
                        placement.touch(proc, addr),
                        model.touch(proc, addr),
                        "{ctx}"
                    );
                    assert_eq!(placement.units_homed(), model.homes.len(), "{ctx}");
                    let probe = address(&mut rng, dense);
                    assert_eq!(placement.home_of(probe), model.home_of(probe), "{ctx}");
                    assert_eq!(
                        placement.is_remote(proc, probe),
                        model.home_of(probe).is_some_and(|h| h != proc),
                        "{ctx}"
                    );
                }
                assert_eq!(placement.granularity_bytes(), granularity_bytes);
                for &addr in &touched {
                    assert_eq!(placement.home_of(addr), model.home_of(addr));
                }
            }
        }
    }
}
