//! Property-based tests for the cache substrate: the set-associative cache
//! must agree with a brute-force reference model of LRU semantics, dirty
//! bookkeeping and line ownership under arbitrary operation sequences, on
//! narrow and wide (32-, 64-way) sets and on set counts that are not powers
//! of two; and the word-level dirty/rank index must answer every query like
//! the reference model's rank scan after every mutation and across snapshot
//! restores.

use std::collections::VecDeque;

use cache_sim::{Cache, CacheConfig, InsertPos, ReplacementKind, SetIdx, Victim};
use dbi::snap::{restore_bytes, snapshot_bytes, SnapReader, SnapWriter};
use proptest::prelude::*;

/// Owner threads the generated insertions are spread over.
const THREADS: u8 = 4;

#[derive(Debug, Clone, Copy)]
enum Op {
    Touch(u64),
    Insert {
        block: u64,
        thread: u8,
        mru: bool,
        dirty: bool,
    },
    MarkDirty(u64, bool),
    Invalidate(u64),
}

impl Op {
    /// The same operation on block `block % space`.
    fn within(self, space: u64) -> Op {
        match self {
            Op::Touch(b) => Op::Touch(b % space),
            Op::Insert {
                block,
                thread,
                mru,
                dirty,
            } => Op::Insert {
                block: block % space,
                thread,
                mru,
                dirty,
            },
            Op::MarkDirty(b, d) => Op::MarkDirty(b % space, d),
            Op::Invalidate(b) => Op::Invalidate(b % space),
        }
    }
}

/// Operations over raw blocks `0..2^16`; tests fold them into a
/// geometry's block space with [`Op::within`].
fn op_strategy() -> impl Strategy<Value = Op> {
    let insert = |mru: bool| {
        (0..1u64 << 16, 0..THREADS, any::<bool>()).prop_map(move |(block, thread, dirty)| {
            Op::Insert {
                block,
                thread,
                mru,
                dirty,
            }
        })
    };
    prop_oneof![
        3 => (0..1u64 << 16).prop_map(Op::Touch),
        3 => insert(true),
        1 => insert(false),
        1 => (0..1u64 << 16, any::<bool>()).prop_map(|(b, d)| Op::MarkDirty(b, d)),
        1 => (0..1u64 << 16).prop_map(Op::Invalidate),
    ]
}

/// `(sets, ways)`: small sets that collide often, 32- and 64-way sets, set
/// counts that are not powers of two (the cache divides instead of
/// masking), the L1's 256 x 2, and way counts that are not a multiple of 8
/// (rank rows carry padding past the last way).
fn geometry() -> impl Strategy<Value = (usize, usize)> {
    prop::sample::select(vec![
        (8, 4),
        (4, 4),
        (4, 32),
        (2, 64),
        (3, 8),
        (6, 16),
        (256, 2),
        (3, 12),
    ])
}

fn cache_for((sets, ways): (usize, usize), kind: ReplacementKind) -> Cache {
    let config = CacheConfig::new((sets * ways * 64) as u64, ways, 64).unwrap();
    Cache::new(config.with_replacement(kind))
}

/// Block space of 1.5x a geometry's capacity: sets fill and evict, and
/// evicted blocks come back.
fn space((sets, ways): (usize, usize)) -> u64 {
    (sets * ways * 3 / 2) as u64
}

/// The `k` values rank-filtered queries are checked at: the ends of the
/// stack and the fractions the writeback sweeps use.
fn ranks_to_check(ways: usize) -> Vec<usize> {
    let mut ks = vec![0, 1, 2, ways / 4, ways / 2, ways - 1, ways];
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// Applies `op` to `cache`, returning its outcome: whether a touch hit or
/// a mark found its block, and the displaced line of an insert or
/// invalidate.
fn apply(cache: &mut Cache, op: Op) -> (bool, Option<Victim>) {
    match op {
        Op::Touch(b) => (cache.touch(b), None),
        Op::Insert {
            block,
            thread,
            mru,
            dirty,
        } => {
            let pos = if mru { InsertPos::Mru } else { InsertPos::Lru };
            (false, cache.insert(block, thread, pos, dirty))
        }
        Op::MarkDirty(b, d) => (cache.mark_dirty(b, d), None),
        Op::Invalidate(b) => (false, cache.invalidate(b)),
    }
}

/// One resident line of the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    block: u64,
    dirty: bool,
    thread: u8,
}

impl From<Victim> for Entry {
    fn from(v: Victim) -> Entry {
        Entry {
            block: v.block,
            dirty: v.dirty,
            thread: v.thread,
        }
    }
}

/// Brute-force reference: per-set recency queue (front = LRU) of lines. A
/// block's queue position *is* its recency rank.
#[derive(Debug)]
struct Reference {
    sets: Vec<VecDeque<Entry>>,
    ways: usize,
}

impl Reference {
    fn new((sets, ways): (usize, usize)) -> Self {
        Reference {
            sets: vec![VecDeque::new(); sets],
            ways,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let s = self.set_of(block);
        self.sets[s]
            .iter()
            .position(|e| e.block == block)
            .map(|i| (s, i))
    }

    fn touch(&mut self, block: u64) -> bool {
        match self.find(block) {
            Some((s, i)) => {
                let e = self.sets[s].remove(i).unwrap();
                self.sets[s].push_back(e);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, entry: Entry, mru: bool) -> Option<Entry> {
        if let Some((s, i)) = self.find(entry.block) {
            self.sets[s][i].dirty |= entry.dirty;
            return None;
        }
        let s = self.set_of(entry.block);
        let victim = (self.sets[s].len() == self.ways).then(|| {
            self.sets[s].pop_front().unwrap() // LRU eviction
        });
        if mru {
            self.sets[s].push_back(entry);
        } else {
            self.sets[s].push_front(entry);
        }
        victim
    }

    fn mark_dirty(&mut self, block: u64, dirty: bool) -> bool {
        self.find(block)
            .map(|(s, i)| self.sets[s][i].dirty = dirty)
            .is_some()
    }

    fn invalidate(&mut self, block: u64) -> Option<Entry> {
        self.find(block)
            .map(|(s, i)| self.sets[s].remove(i).unwrap())
    }

    /// The dirty blocks of `set` whose rank (queue position) is below `k`
    /// — the reference answer to [`cache_sim::DirtyView::in_lru_ways`].
    fn dirty_in_lru_ways(&self, set: usize, k: usize) -> Vec<u64> {
        let mut v: Vec<u64> = self.sets[set]
            .iter()
            .take(k)
            .filter(|e| e.dirty)
            .map(|e| e.block)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Applies `op` to both models, failing the case if the outcome (hit,
/// victim, found) differs.
fn step(cache: &mut Cache, reference: &mut Reference, op: Op) -> Result<(), TestCaseError> {
    match op {
        Op::Touch(b) => prop_assert_eq!(cache.touch(b), reference.touch(b)),
        Op::Insert {
            block,
            thread,
            mru,
            dirty,
        } => {
            let pos = if mru { InsertPos::Mru } else { InsertPos::Lru };
            let got = cache.insert(block, thread, pos, dirty).map(Entry::from);
            let entry = Entry {
                block,
                dirty,
                thread,
            };
            prop_assert_eq!(got, reference.insert(entry, mru));
        }
        Op::MarkDirty(b, d) => prop_assert_eq!(cache.mark_dirty(b, d), reference.mark_dirty(b, d)),
        Op::Invalidate(b) => {
            prop_assert_eq!(
                cache.invalidate(b).map(Entry::from),
                reference.invalidate(b)
            );
        }
    }
    Ok(())
}

/// Resolves a cache's `in_lru_ways` mask to a sorted block list.
fn harvest(cache: &Cache, set: SetIdx, k: usize) -> Vec<u64> {
    let view = cache.dirty();
    let mut v: Vec<u64> = view.blocks(set, view.in_lru_ways(set, k)).collect();
    v.sort_unstable();
    v
}

/// Re-encodes an LRU cache snapshot with every valid line's order value
/// replaced by `relabel(set, value)` and the two retired clock words by
/// `clocks` — the shape of a snapshot taken by a writer that stored
/// timestamps instead of ranks.
fn relabel_snapshot(
    bytes: &[u8],
    ways: usize,
    relabel: impl Fn(usize, i64) -> i64,
    clocks: [i64; 2],
) -> Vec<u8> {
    let mut r = SnapReader::new(bytes).unwrap();
    let mut w = SnapWriter::new();
    w.u8(r.u8().unwrap());
    let lines = r.usize().unwrap();
    w.usize(lines);
    for i in 0..lines {
        let valid = r.bool().unwrap();
        w.bool(valid);
        if valid {
            w.u64(r.u64().unwrap());
            w.bool(r.bool().unwrap());
            w.u8(r.u8().unwrap());
            w.i64(relabel(i / ways, r.i64().unwrap()));
        }
    }
    for clock in clocks {
        r.i64().unwrap();
        w.i64(clock);
    }
    // The five stats counters.
    for _ in 0..5 {
        w.u64(r.u64().unwrap());
    }
    r.finish().unwrap();
    w.finish()
}

proptest! {
    /// The cache agrees with the reference model on residency, dirtiness,
    /// ownership, hit/miss outcomes, victim identity, and recency rank for
    /// every LRU operation mix.
    #[test]
    fn lru_cache_matches_reference(
        geometry in geometry(),
        ops in prop::collection::vec(op_strategy(), 1..600),
    ) {
        let mut cache = cache_for(geometry, ReplacementKind::Lru);
        let mut reference = Reference::new(geometry);

        for op in ops {
            step(&mut cache, &mut reference, op.within(space(geometry)))?;
            // Residency, dirty bits and owners agree exactly after every op.
            let got: Vec<Entry> = cache
                .blocks()
                .map(|(block, dirty, thread)| Entry { block, dirty, thread })
                .collect();
            let mut sorted = got.clone();
            sorted.sort_unstable();
            let mut want: Vec<Entry> = reference.sets.iter().flatten().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(sorted, want);
            for e in got {
                prop_assert_eq!(cache.owner(e.block), Some(e.thread));
                let p = cache.dirty().probe(e.block).expect("resident");
                let (s, i) = reference.find(e.block).expect("reference resident");
                prop_assert_eq!((p.dirty, p.owner), (e.dirty, e.thread));
                prop_assert_eq!(p.rank, i, "rank of block {} in set {}", e.block, s);
            }
        }
    }

    /// The dirty/rank index answers every rank-filtered dirty query exactly
    /// like the reference model's rank scan, after every single mutation,
    /// and its own invariants hold throughout.
    #[test]
    fn lru_dirty_index_matches_reference_rank_scan(
        geometry in geometry(),
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let (sets, ways) = geometry;
        let mut cache = cache_for(geometry, ReplacementKind::Lru);
        let mut reference = Reference::new(geometry);

        for op in ops {
            step(&mut cache, &mut reference, op.within(space(geometry)))?;
            cache.assert_index_coherent();
            for set in 0..sets {
                for k in ranks_to_check(ways) {
                    prop_assert_eq!(
                        harvest(&cache, SetIdx(set as u64), k),
                        reference.dirty_in_lru_ways(set, k),
                        "set {} k {}", set, k
                    );
                }
                // The full dirty mask is in_lru_ways at k = ways.
                let view = cache.dirty();
                prop_assert_eq!(
                    view.mask(SetIdx(set as u64)),
                    view.in_lru_ways(SetIdx(set as u64), ways)
                );
            }
            for (b, d, _) in cache.blocks() {
                prop_assert_eq!(cache.dirty().is_dirty(b), Some(d));
            }
        }
    }

    /// Under RRIP — where RRPVs tie and ranks are shared, not a
    /// permutation — the index's invariants hold after every mutation, and
    /// the mask query agrees with per-block probes.
    #[test]
    fn rrip_dirty_index_matches_reference_rank_scan(
        geometry in geometry(),
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        let (sets, ways) = geometry;
        let mut cache = cache_for(geometry, ReplacementKind::Rrip);

        for op in ops {
            apply(&mut cache, op.within(space(geometry)));
            cache.assert_index_coherent();
            // Every dirty resident block with its probed rank, by set.
            let mut dirty_ranks = vec![Vec::new(); sets];
            for (b, d, _) in cache.blocks() {
                if d {
                    let rank = cache.dirty().probe(b).expect("resident").rank;
                    dirty_ranks[cache.set_of(b).index()].push((b, rank));
                }
            }
            for (set, dirty_ranks) in dirty_ranks.iter().enumerate() {
                for k in ranks_to_check(ways) {
                    let via_mask = harvest(&cache, SetIdx(set as u64), k);
                    let mut via_probe: Vec<u64> = dirty_ranks
                        .iter()
                        .filter(|&&(_, rank)| rank < k)
                        .map(|&(b, _)| b)
                        .collect();
                    via_probe.sort_unstable();
                    prop_assert_eq!(via_mask, via_probe, "set {} k {}", set, k);
                }
            }
        }
    }

    /// Residency never exceeds capacity and probe() is consistent with
    /// touch() having inserted earlier.
    #[test]
    fn capacity_is_respected(
        blocks in prop::collection::vec(0u64..4096, 1..500),
    ) {
        let mut cache = Cache::new(CacheConfig::new(16 * 8 * 64, 8, 64).unwrap());
        for b in blocks {
            cache.insert(b, 0, InsertPos::Mru, false);
            prop_assert!(cache.resident() <= cache.config().blocks());
            prop_assert!(cache.probe(b), "just-inserted block must be resident");
        }
    }

    /// Recency ranks are a permutation of 0..n within each LRU set.
    #[test]
    fn lru_ranks_form_permutation(
        blocks in prop::collection::vec(0u64..64, 1..100),
    ) {
        let mut cache = Cache::new(CacheConfig::new(4 * 4 * 64, 4, 64).unwrap());
        for b in blocks {
            cache.insert(b, 0, InsertPos::Mru, false);
        }
        for set in 0..4u64 {
            let members: Vec<u64> = cache
                .blocks()
                .map(|(b, _, _)| b)
                .filter(|&b| cache.set_of(b) == SetIdx(set))
                .collect();
            let mut ranks: Vec<usize> = members
                .iter()
                .map(|&b| cache.dirty().probe(b).expect("resident").rank)
                .collect();
            ranks.sort_unstable();
            let expect: Vec<usize> = (0..members.len()).collect();
            prop_assert_eq!(ranks, expect);
        }
    }

    /// A snapshot/restore round trip reconstructs the dirty/rank index
    /// exactly: the restored cache answers every dirty-view query the same
    /// as the original and re-snapshots to the same bytes, under both
    /// replacement kinds.
    #[test]
    fn dirty_index_survives_snapshot_roundtrip(
        geometry in geometry(),
        ops in prop::collection::vec(op_strategy(), 1..250),
        rrip in any::<bool>(),
    ) {
        let (sets, ways) = geometry;
        let kind = if rrip { ReplacementKind::Rrip } else { ReplacementKind::Lru };
        let mut cache = cache_for(geometry, kind);
        for op in &ops {
            apply(&mut cache, op.within(space(geometry)));
        }

        let bytes = snapshot_bytes(&cache);
        let mut restored = cache_for(geometry, kind);
        restore_bytes(&mut restored, &bytes).unwrap();

        restored.assert_index_coherent();
        prop_assert_eq!(snapshot_bytes(&restored), bytes);
        for set in 0..sets as u64 {
            for k in 0..=ways {
                prop_assert_eq!(
                    harvest(&restored, SetIdx(set), k),
                    harvest(&cache, SetIdx(set), k)
                );
            }
            prop_assert_eq!(
                restored.dirty().mask(SetIdx(set)),
                cache.dirty().mask(SetIdx(set))
            );
        }
        for (b, _, _) in cache.blocks() {
            prop_assert_eq!(restored.dirty().probe(b), cache.dirty().probe(b));
        }
    }

    /// Restore reads LRU order values only through their order within a
    /// set: relabelling every valid line's value with an order-preserving
    /// map (and the retired clock words with anything) rebuilds the same
    /// index, and the restored cache then picks the same victims as the
    /// original.
    #[test]
    fn lru_restore_is_invariant_under_order_preserving_relabel(
        geometry in geometry(),
        ops in prop::collection::vec(op_strategy(), 1..300),
        more in prop::collection::vec(op_strategy(), 1..200),
        scale in 1i64..1_000_000,
        offset in -1_000_000_000_000i64..1_000_000_000_000,
        clocks in (any::<i64>(), any::<i64>()),
    ) {
        let (sets, ways) = geometry;
        let mut cache = cache_for(geometry, ReplacementKind::Lru);
        for op in &ops {
            apply(&mut cache, op.within(space(geometry)));
        }
        // Strictly increasing in the rank for every set, with a per-set
        // offset: only the order within a set is meaningful.
        let relabel = |set: usize, rank: i64| offset + set as i64 * 7919 + rank * scale + rank * rank;
        let bytes = relabel_snapshot(&snapshot_bytes(&cache), ways, relabel, [clocks.0, clocks.1]);
        let mut restored = cache_for(geometry, ReplacementKind::Lru);
        restore_bytes(&mut restored, &bytes).unwrap();

        restored.assert_index_coherent();
        prop_assert_eq!(snapshot_bytes(&restored), snapshot_bytes(&cache));
        for set in 0..sets as u64 {
            for k in 0..=ways {
                prop_assert_eq!(
                    harvest(&restored, SetIdx(set), k),
                    harvest(&cache, SetIdx(set), k)
                );
            }
        }
        for op in more {
            let op = op.within(space(geometry));
            prop_assert_eq!(apply(&mut restored, op), apply(&mut cache, op));
        }
        prop_assert_eq!(snapshot_bytes(&restored), snapshot_bytes(&cache));
    }
}

proptest! {
    /// RRIP mode: structural sanity under arbitrary mixes — capacity is
    /// respected, inserted blocks are resident, and a block promoted by a
    /// hit survives the very next single eviction in its set.
    #[test]
    fn rrip_structural_sanity(
        blocks in prop::collection::vec(0u64..256, 1..300),
    ) {
        let config = CacheConfig::new(8 * 4 * 64, 4, 64)
            .unwrap()
            .with_replacement(ReplacementKind::Rrip);
        let mut cache = Cache::new(config);
        for &b in &blocks {
            cache.insert(b, 0, InsertPos::Mru, false);
            prop_assert!(cache.probe(b));
            prop_assert!(cache.resident() <= cache.config().blocks());
            // Promote and check survival against one conflicting insert.
            cache.touch(b);
            let conflicting = b + 8 * 64; // same set, different tag
            cache.insert(conflicting, 0, InsertPos::Mru, false);
            prop_assert!(
                cache.probe(b),
                "a just-promoted block (RRPV 0) must outlive one insertion"
            );
        }
    }
}
