//! First-touch NUMA placement (Sections 3.3 and 4.2).
//!
//! Memory is distributed across processor nodes; each memory unit (a page,
//! or an individual block as in the paper's experiments) is *homed* at the
//! node of the processor that touches it first. References by a processor
//! to units homed elsewhere are **remote** — more expensive in latency,
//! bandwidth and power.

use crate::record::ProcId;
use cache_sim::Addr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-fold hashing for unit indices (pages, blocks). The keys
/// are trusted integers and the maps it serves are never iterated, so
/// SipHash's flood resistance buys nothing and costs most of a lookup.
#[derive(Debug, Default)]
pub struct UnitHasher(u64);

impl Hasher for UnitHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, unit: u64) {
        let h = (self.0 ^ unit).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold the high half down: the table indexes by the low bits.
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Units per row of a [`FirstTouchPlacement`], as a power of two: a row
/// holds the homes of 64 consecutive units (a 4 KB page of 64-byte blocks).
const GROUP_BITS: u32 = 6;
const GROUP_UNITS: usize = 1 << GROUP_BITS;

/// A first-touch placement map from memory units to home processors.
///
/// Units are homed in groups of 64 consecutive ones: a small map takes a
/// group to its row, and a row holds one byte per unit, the home's id
/// plus one, or 0 while the unit is untouched. So a home costs a byte, a
/// kernel's arrays fill their rows, and a probe finds its group in a table
/// 64 times smaller than one entry per unit would make it. The byte bounds
/// the processor ids a placement can home: below [`MAX_PROCS`](Self::MAX_PROCS).
#[derive(Debug, Clone)]
pub struct FirstTouchPlacement {
    granularity_bytes: u64,
    /// The row of every group with a touched unit.
    groups: HashMap<u64, usize, BuildHasherDefault<UnitHasher>>,
    rows: Vec<[u8; GROUP_UNITS]>,
    units_homed: usize,
}

impl FirstTouchPlacement {
    /// How many processors a placement can home: ids `0..MAX_PROCS`, since
    /// a home is stored as one byte, its id plus one.
    pub const MAX_PROCS: usize = u8::MAX as usize;

    /// Creates an empty placement with the given homing granularity.
    ///
    /// The paper homes *individual memory blocks* (64 bytes); OS-level
    /// first-touch would use pages (e.g. 4096).
    ///
    /// # Panics
    ///
    /// Panics if `granularity_bytes` is not a power of two.
    #[must_use]
    pub fn new(granularity_bytes: u64) -> Self {
        assert!(
            granularity_bytes.is_power_of_two(),
            "granularity must be a power of two"
        );
        FirstTouchPlacement {
            granularity_bytes,
            groups: HashMap::default(),
            rows: Vec::new(),
            units_homed: 0,
        }
    }

    fn unit_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.granularity_bytes.trailing_zeros()
    }

    /// Records a touch: assigns the home on first touch, returns the home.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not below [`MAX_PROCS`](Self::MAX_PROCS).
    pub fn touch(&mut self, proc: ProcId, addr: Addr) -> ProcId {
        assert!(
            proc.0 < Self::MAX_PROCS,
            "{proc} is past the {} processors a placement can home",
            Self::MAX_PROCS
        );
        let unit = self.unit_of(addr);
        let rows = &mut self.rows;
        let row = *self.groups.entry(unit >> GROUP_BITS).or_insert_with(|| {
            rows.push([0; GROUP_UNITS]);
            rows.len() - 1
        });
        let home = &mut rows[row][unit as usize % GROUP_UNITS];
        if *home == 0 {
            // In range: `proc` is below `MAX_PROCS`, checked above.
            *home = proc.0 as u8 + 1;
            self.units_homed += 1;
        }
        ProcId(usize::from(*home) - 1)
    }

    /// The home of `addr`, if it has been touched.
    #[must_use]
    pub fn home_of(&self, addr: Addr) -> Option<ProcId> {
        let unit = self.unit_of(addr);
        let row = self.groups.get(&(unit >> GROUP_BITS))?;
        match self.rows[*row][unit as usize % GROUP_UNITS] {
            0 => None,
            home => Some(ProcId(usize::from(home) - 1)),
        }
    }

    /// Whether a reference by `proc` to `addr` is remote. Untouched
    /// addresses are local by definition (the reference *would* home them).
    #[must_use]
    pub fn is_remote(&self, proc: ProcId, addr: Addr) -> bool {
        match self.home_of(addr) {
            Some(home) => home != proc,
            None => false,
        }
    }

    /// The homing granularity in bytes.
    #[must_use]
    pub fn granularity_bytes(&self) -> u64 {
        self.granularity_bytes
    }

    /// Number of distinct units homed so far.
    #[must_use]
    pub fn units_homed(&self) -> usize {
        self.units_homed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_wins() {
        let mut p = FirstTouchPlacement::new(64);
        assert_eq!(p.touch(ProcId(1), Addr(0x100)), ProcId(1));
        // A later touch by another processor does not re-home.
        assert_eq!(p.touch(ProcId(0), Addr(0x100)), ProcId(1));
        assert_eq!(p.home_of(Addr(0x120)), Some(ProcId(1)), "same 64B block");
        assert_eq!(p.home_of(Addr(0x140)), None);
    }

    #[test]
    fn remoteness() {
        let mut p = FirstTouchPlacement::new(64);
        p.touch(ProcId(0), Addr(0));
        assert!(!p.is_remote(ProcId(0), Addr(0)));
        assert!(p.is_remote(ProcId(1), Addr(0)));
        assert!(!p.is_remote(ProcId(1), Addr(0x1000)), "untouched is local");
    }

    #[test]
    fn page_granularity_groups_blocks() {
        let mut p = FirstTouchPlacement::new(4096);
        p.touch(ProcId(0), Addr(0));
        assert_eq!(p.home_of(Addr(4095)), Some(ProcId(0)));
        assert_eq!(p.home_of(Addr(4096)), None);
    }

    #[test]
    fn the_last_processor_a_byte_holds_is_homed() {
        let last = ProcId(FirstTouchPlacement::MAX_PROCS - 1);
        let mut p = FirstTouchPlacement::new(64);
        assert_eq!(p.touch(last, Addr(0)), last);
        assert_eq!(p.touch(ProcId(0), Addr(0)), last);
        assert_eq!(p.home_of(Addr(0)), Some(last));
        assert!(p.is_remote(ProcId(0), Addr(0)));
    }

    #[test]
    #[should_panic(expected = "processors a placement can home")]
    fn a_processor_past_the_bound_panics() {
        let mut p = FirstTouchPlacement::new(64);
        p.touch(ProcId(FirstTouchPlacement::MAX_PROCS), Addr(0));
    }
}
