//! Cache-coherence states and their DBI-compatible split (paper
//! Section 2.3).
//!
//! Many coherence protocols encode the dirty status *implicitly* in the
//! coherence state: MESI's M means dirty, MOESI's M and O mean dirty. To
//! move the dirty bits into a DBI, the paper proposes splitting the state
//! space into pairs — each pair holding a dirty state and its non-dirty
//! twin — so a single bit (stored in the DBI) distinguishes within a pair
//! and the tag store keeps only the pair id:
//!
//! * MESI  → (M, E), (S), (I) — the tag stores one of 3 *base* states.
//! * MOESI → (M, E), (O, S), (I) — the tag stores one of 3 base states.
//!
//! This module implements both protocols' state machines and the
//! split/join mapping, and proves (in tests) that every transition
//! commutes with the split: updating `(base, dirty-bit)` tracks the full
//! protocol exactly.

/// Bus/processor events that drive the coherence state machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceEvent {
    /// This core reads the block.
    LocalRead,
    /// This core writes the block.
    LocalWrite,
    /// Another core reads the block (bus read / probe).
    RemoteRead,
    /// Another core writes the block (bus read-for-ownership /
    /// invalidation).
    RemoteWrite,
    /// The block is evicted (writeback if dirty).
    Evict,
}

/// The MOESI states (Sweazey & Smith).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoesiState {
    /// Exclusive and dirty.
    Modified,
    /// Shared and dirty (this cache supplies data and owns the writeback).
    Owned,
    /// Exclusive and clean.
    Exclusive,
    /// Shared and clean.
    Shared,
    /// Not present.
    Invalid,
}

/// The base (pair) component stored in the tag under the DBI split:
/// exclusive-class (M, E), shared-class (O, S), or invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoesiBase {
    /// The (M, E) pair — this cache holds the only copy.
    ExclusiveClass,
    /// The (O, S) pair — other caches may hold copies.
    SharedClass,
    /// Not present.
    Invalid,
}

impl MoesiState {
    /// All five states.
    pub const ALL: [MoesiState; 5] = [
        MoesiState::Modified,
        MoesiState::Owned,
        MoesiState::Exclusive,
        MoesiState::Shared,
        MoesiState::Invalid,
    ];

    /// Whether the state implies the block is dirty (the bit the DBI
    /// takes over).
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }

    /// Splits into the tag-resident base state and the DBI-resident dirty
    /// bit (paper Section 2.3's pairing).
    #[must_use]
    pub fn split(self) -> (MoesiBase, bool) {
        match self {
            MoesiState::Modified => (MoesiBase::ExclusiveClass, true),
            MoesiState::Exclusive => (MoesiBase::ExclusiveClass, false),
            MoesiState::Owned => (MoesiBase::SharedClass, true),
            MoesiState::Shared => (MoesiBase::SharedClass, false),
            MoesiState::Invalid => (MoesiBase::Invalid, false),
        }
    }

    /// Rebuilds the full state from a base state and the DBI bit.
    ///
    /// # Panics
    ///
    /// Panics on `(Invalid, true)` — an invalid block cannot be dirty; a
    /// DBI holding a set bit for an invalid block is a protocol bug.
    #[must_use]
    pub fn join(base: MoesiBase, dirty: bool) -> MoesiState {
        match (base, dirty) {
            (MoesiBase::ExclusiveClass, true) => MoesiState::Modified,
            (MoesiBase::ExclusiveClass, false) => MoesiState::Exclusive,
            (MoesiBase::SharedClass, true) => MoesiState::Owned,
            (MoesiBase::SharedClass, false) => MoesiState::Shared,
            (MoesiBase::Invalid, false) => MoesiState::Invalid,
            (MoesiBase::Invalid, true) => {
                panic!("invalid block marked dirty in the DBI")
            }
        }
    }

    /// The MOESI transition function. Returns the next state and whether
    /// the event forces a writeback of dirty data.
    #[must_use]
    pub fn step(self, event: CoherenceEvent) -> (MoesiState, bool) {
        use CoherenceEvent as E;
        use MoesiState as S;
        match (self, event) {
            // Local reads: Invalid allocates Exclusive (no sharers modelled
            // on a miss fill from memory) — everything else unchanged.
            (S::Invalid, E::LocalRead) => (S::Exclusive, false),
            (s, E::LocalRead) => (s, false),

            // Local writes always end Modified; from Shared/Owned this is
            // the upgrade (invalidate sharers).
            (_, E::LocalWrite) => (S::Modified, false),

            // Remote reads: dirty data transitions to Owned (supplier);
            // clean exclusive data degrades to Shared.
            (S::Modified, E::RemoteRead) => (S::Owned, false),
            (S::Owned, E::RemoteRead) => (S::Owned, false),
            (S::Exclusive | S::Shared, E::RemoteRead) => (S::Shared, false),
            (S::Invalid, E::RemoteRead) => (S::Invalid, false),

            // Remote writes invalidate; dirty data must be written back
            // (or forwarded) first.
            (s, E::RemoteWrite) => (S::Invalid, s.is_dirty()),

            // Eviction: writeback iff dirty.
            (s, E::Evict) => (S::Invalid, s.is_dirty()),
        }
    }
}

/// The MESI states (Papamarcos & Patel) — MOESI without Owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// Exclusive and dirty.
    Modified,
    /// Exclusive and clean.
    Exclusive,
    /// Shared (always clean in MESI).
    Shared,
    /// Not present.
    Invalid,
}

/// Base states for the MESI split: (M, E) pair, S, I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiBase {
    /// The (M, E) pair.
    ExclusiveClass,
    /// Shared (its "dirty twin" does not exist in MESI; the DBI bit is
    /// always clear).
    Shared,
    /// Not present.
    Invalid,
}

impl MesiState {
    /// All four states.
    pub const ALL: [MesiState; 4] = [
        MesiState::Modified,
        MesiState::Exclusive,
        MesiState::Shared,
        MesiState::Invalid,
    ];

    /// Whether the state implies dirty data.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }

    /// Splits into the tag-resident base and the DBI bit.
    #[must_use]
    pub fn split(self) -> (MesiBase, bool) {
        match self {
            MesiState::Modified => (MesiBase::ExclusiveClass, true),
            MesiState::Exclusive => (MesiBase::ExclusiveClass, false),
            MesiState::Shared => (MesiBase::Shared, false),
            MesiState::Invalid => (MesiBase::Invalid, false),
        }
    }

    /// Rebuilds the full state.
    ///
    /// # Panics
    ///
    /// Panics if `dirty` is set for a base state with no dirty twin
    /// (Shared or Invalid).
    #[must_use]
    pub fn join(base: MesiBase, dirty: bool) -> MesiState {
        match (base, dirty) {
            (MesiBase::ExclusiveClass, true) => MesiState::Modified,
            (MesiBase::ExclusiveClass, false) => MesiState::Exclusive,
            (MesiBase::Shared, false) => MesiState::Shared,
            (MesiBase::Invalid, false) => MesiState::Invalid,
            (MesiBase::Shared | MesiBase::Invalid, true) => {
                panic!("MESI state {base:?} has no dirty twin")
            }
        }
    }

    /// The MESI transition function. Returns the next state and whether
    /// the event forces a writeback.
    #[must_use]
    pub fn step(self, event: CoherenceEvent) -> (MesiState, bool) {
        use CoherenceEvent as E;
        use MesiState as S;
        match (self, event) {
            (S::Invalid, E::LocalRead) => (S::Exclusive, false),
            (s, E::LocalRead) => (s, false),
            (_, E::LocalWrite) => (S::Modified, false),
            // MESI has no Owned: a remote read of Modified writes back.
            (S::Modified, E::RemoteRead) => (S::Shared, true),
            (S::Exclusive | S::Shared, E::RemoteRead) => (S::Shared, false),
            (S::Invalid, E::RemoteRead) => (S::Invalid, false),
            (s, E::RemoteWrite) => (S::Invalid, s.is_dirty()),
            (s, E::Evict) => (S::Invalid, s.is_dirty()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENTS: [CoherenceEvent; 5] = [
        CoherenceEvent::LocalRead,
        CoherenceEvent::LocalWrite,
        CoherenceEvent::RemoteRead,
        CoherenceEvent::RemoteWrite,
        CoherenceEvent::Evict,
    ];

    #[test]
    fn moesi_split_join_roundtrips() {
        for s in MoesiState::ALL {
            let (base, dirty) = s.split();
            assert_eq!(MoesiState::join(base, dirty), s);
            assert_eq!(dirty, s.is_dirty(), "{s:?}");
        }
    }

    #[test]
    fn mesi_split_join_roundtrips() {
        for s in MesiState::ALL {
            let (base, dirty) = s.split();
            assert_eq!(MesiState::join(base, dirty), s);
            assert_eq!(dirty, s.is_dirty(), "{s:?}");
        }
    }

    #[test]
    fn moesi_transitions_commute_with_split() {
        // The paper's claim: tracking (base, DBI bit) is equivalent to
        // tracking the full state. For every state and event, stepping the
        // full state then splitting equals splitting then reconstructing.
        for s in MoesiState::ALL {
            for e in EVENTS {
                let (next, _wb) = s.step(e);
                let (base, dirty) = next.split();
                assert_eq!(
                    MoesiState::join(base, dirty),
                    next,
                    "{s:?} --{e:?}--> {next:?} does not split cleanly"
                );
            }
        }
    }

    #[test]
    fn dirty_states_write_back_on_invalidation_and_eviction() {
        for s in MoesiState::ALL {
            let (_, wb_evict) = s.step(CoherenceEvent::Evict);
            assert_eq!(wb_evict, s.is_dirty(), "{s:?} eviction writeback");
            let (_, wb_inv) = s.step(CoherenceEvent::RemoteWrite);
            assert_eq!(wb_inv, s.is_dirty(), "{s:?} invalidation writeback");
        }
        // MESI additionally writes back M on a remote read (no Owned).
        let (next, wb) = MesiState::Modified.step(CoherenceEvent::RemoteRead);
        assert_eq!(next, MesiState::Shared);
        assert!(wb);
    }

    #[test]
    fn moesi_keeps_dirty_data_on_chip_via_owned() {
        let (next, wb) = MoesiState::Modified.step(CoherenceEvent::RemoteRead);
        assert_eq!(next, MoesiState::Owned);
        assert!(!wb, "MOESI forwards instead of writing back");
        assert!(next.is_dirty(), "Owned still owes the writeback");
    }

    #[test]
    fn writes_always_reach_modified() {
        for s in MoesiState::ALL {
            assert_eq!(s.step(CoherenceEvent::LocalWrite).0, MoesiState::Modified);
        }
        for s in MesiState::ALL {
            assert_eq!(s.step(CoherenceEvent::LocalWrite).0, MesiState::Modified);
        }
    }

    #[test]
    #[should_panic(expected = "invalid block marked dirty")]
    fn dirty_invalid_is_rejected() {
        let _ = MoesiState::join(MoesiBase::Invalid, true);
    }

    #[test]
    #[should_panic(expected = "no dirty twin")]
    fn mesi_shared_dirty_is_rejected() {
        let _ = MesiState::join(MesiBase::Shared, true);
    }

    #[test]
    fn random_walk_stays_consistent_under_split() {
        // Drive a long pseudo-random event sequence through both
        // representations side by side.
        let mut full = MoesiState::Invalid;
        let mut split = MoesiState::Invalid.split();
        let mut x = 0x1234_5678u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let event = EVENTS[(x % 5) as usize];
            let (next, _) = full.step(event);
            let (rebuilt_next, _) = MoesiState::join(split.0, split.1).step(event);
            assert_eq!(next, rebuilt_next);
            full = next;
            split = next.split();
        }
    }
}
