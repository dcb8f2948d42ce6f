//! The Dirty-Block Index structure.

use std::ops::Range;

use crate::config::DbiConfig;
use crate::container::DirtyWords;
use crate::replacement::PolicyState;
use crate::stats::DbiStats;
use crate::{BlockAddr, RowId};

/// Leads every DBI snapshot. Images of the earlier layout, which stored a
/// variable-size container per entry, open with the set count instead and
/// fail restore with a mismatch rather than decoding into the wrong fields.
const SNAP_LAYOUT: u64 = u64::from_le_bytes(*b"DBIwords");

/// Row tag of a free way. No block address reaches this row: blocks are
/// byte addresses shifted right by the block size.
const FREE: RowId = RowId::MAX;

/// A DBI entry that was evicted, carrying the writebacks it forces.
///
/// Per the paper (Section 2.2.4): once the entry is gone the DBI can no
/// longer prove these blocks dirty, so they **must** be written back to
/// memory; the cache blocks themselves stay resident and merely transition
/// from dirty to clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedRow {
    row: RowId,
    blocks: Vec<BlockAddr>,
}

impl EvictedRow {
    /// The DRAM row the evicted entry covered.
    #[must_use]
    pub fn row(&self) -> RowId {
        self.row
    }

    /// Block addresses that must be written back, in ascending order —
    /// already sorted by column, which is exactly the access order a
    /// DRAM-aware writeback burst wants.
    #[must_use]
    pub fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }
}

/// Result of [`Dbi::mark_dirty`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkOutcome {
    /// Whether the block transitioned clean → dirty (false if it was
    /// already marked).
    pub newly_dirty: bool,
    /// The entry evicted to make room, if inserting the row required one.
    pub evicted: Option<EvictedRow>,
}

impl MarkOutcome {
    /// Blocks that must be written back as a consequence of this mark
    /// (empty unless a DBI eviction occurred).
    #[must_use]
    pub fn writebacks(&self) -> &[BlockAddr] {
        self.evicted.as_ref().map_or(&[], |e| e.blocks())
    }
}

/// The Dirty-Block Index: a small set-associative structure holding the
/// dirty bits of a writeback cache, organized by DRAM row.
///
/// See the [crate-level documentation](crate) for the semantics and a usage
/// example. All addresses are cache-block indices ([`BlockAddr`]); the row
/// of a block is `block / granularity`.
///
/// Each entry is the paper's fixed `{valid, row tag, dirty bit vector}`,
/// with validity folded into the tag. Entries live in flat arrays sized at
/// construction and indexed `set * ways + way`, so no operation allocates
/// per entry.
#[derive(Debug, Clone)]
pub struct Dbi {
    config: DbiConfig,
    /// Row tag of each entry, [`FREE`] for a free way: a plain `u64` so a
    /// set probe is one compare per way.
    tags: Vec<RowId>,
    /// Dirty bit vectors: entry `e` owns the whole words
    /// `e * words_per_entry..(e + 1) * words_per_entry`, block offset `o`
    /// at bit `o` of them. A free way's words are all clear.
    bits: DirtyWords,
    /// `ceil(granularity / 64)`.
    words_per_entry: usize,
    /// Replacement state, one per set.
    policies: Vec<PolicyState>,
    dirty_blocks: u64,
    stats: DbiStats,
    /// Reused by [`flush_each`](Dbi::flush_each) so whole-index flushes
    /// allocate nothing after the first call. Not part of snapshot state.
    flush_scratch: Vec<(RowId, usize)>,
}

impl Dbi {
    /// Creates an empty DBI with the given geometry.
    #[must_use]
    pub fn new(config: DbiConfig) -> Self {
        let entries = config.entries() as usize;
        let words_per_entry = config.granularity().div_ceil(64);
        Dbi {
            config,
            tags: vec![FREE; entries],
            bits: DirtyWords::per_word_slots(entries * words_per_entry),
            words_per_entry,
            policies: (0..config.sets())
                .map(|_| PolicyState::new(config.policy(), config.associativity()))
                .collect(),
            dirty_blocks: 0,
            stats: DbiStats::default(),
            flush_scratch: Vec::new(),
        }
    }

    /// The geometry this DBI was built with.
    #[must_use]
    pub fn config(&self) -> &DbiConfig {
        &self.config
    }

    /// DRAM row of `block` under this DBI's granularity.
    #[must_use]
    pub fn row_of(&self, block: BlockAddr) -> RowId {
        block / self.config.granularity() as u64
    }

    fn offset_of(&self, block: BlockAddr) -> u64 {
        block % self.config.granularity() as u64
    }

    /// Set of `row`: a plain modulo, since set counts need not be powers
    /// of two.
    fn set_index(&self, row: RowId) -> usize {
        (row % self.policies.len() as u64) as usize
    }

    /// Entry indices of `set`'s ways.
    fn set_entries(&self, set: usize) -> Range<usize> {
        let ways = self.config.associativity();
        set * ways..(set + 1) * ways
    }

    fn entry_words(&self, entry: usize) -> Range<usize> {
        entry * self.words_per_entry..(entry + 1) * self.words_per_entry
    }

    /// Bit of `offset` within `entry` in the slab.
    fn bit_of(&self, entry: usize, offset: u64) -> u64 {
        (entry * self.words_per_entry * 64) as u64 + offset
    }

    fn entry_count(&self, entry: usize) -> u64 {
        self.bits.count_ones_in(self.entry_words(entry))
    }

    /// Blocks marked dirty in `entry` (tagged `row`), ascending.
    fn entry_blocks(&self, entry: usize, row: RowId) -> impl Iterator<Item = BlockAddr> + '_ {
        let base = row * self.config.granularity() as u64;
        self.bits
            .iter_ones_in(self.entry_words(entry))
            .map(move |o| base + o)
    }

    /// Valid entries as `(entry index, row)` pairs.
    fn valid(&self) -> impl Iterator<Item = (usize, RowId)> + '_ {
        self.tags
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, row)| row != FREE)
    }

    fn find_entry(&self, set: usize, row: RowId) -> Option<usize> {
        let ways = self.set_entries(set);
        let first = ways.start;
        self.tags[ways]
            .iter()
            .position(|&tag| tag == row)
            .map(|way| first + way)
    }

    /// Marks `block` dirty, the DBI side of a writeback request arriving at
    /// the cache (paper Section 2.2.2).
    ///
    /// If the block's row has no entry and its set is full, a victim entry
    /// is evicted; the returned [`MarkOutcome::evicted`] then carries the
    /// blocks whose writebacks the eviction forces.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> MarkOutcome {
        let mut blocks = Vec::new();
        let (newly_dirty, evicted_row) = self.mark_dirty_core(block, &mut blocks);
        MarkOutcome {
            newly_dirty,
            evicted: evicted_row.map(|row| EvictedRow { row, blocks }),
        }
    }

    /// Allocation-free variant of [`mark_dirty`](Dbi::mark_dirty) for hot
    /// paths: eviction-forced writebacks are appended (ascending) to
    /// `writebacks` instead of being returned in a fresh [`EvictedRow`].
    /// Returns whether the block transitioned clean → dirty.
    pub fn mark_dirty_into(&mut self, block: BlockAddr, writebacks: &mut Vec<BlockAddr>) -> bool {
        self.mark_dirty_core(block, writebacks).0
    }

    /// Shared implementation: `(newly_dirty, evicted row)`; eviction
    /// writebacks are appended to `writebacks`.
    fn mark_dirty_core(
        &mut self,
        block: BlockAddr,
        writebacks: &mut Vec<BlockAddr>,
    ) -> (bool, Option<RowId>) {
        self.stats.mark_requests += 1;
        let row = self.row_of(block);
        assert_ne!(row, FREE, "block {block} lies past the last DBI row");
        let offset = self.offset_of(block);
        let set = self.set_index(row);

        if let Some(entry) = self.find_entry(set, row) {
            self.stats.entry_hits += 1;
            let newly = self.bits.set(self.bit_of(entry, offset));
            if newly {
                self.stats.bits_set += 1;
                self.dirty_blocks += 1;
            }
            let way = entry - self.set_entries(set).start;
            self.policies[set].on_write_hit(way);
            return (newly, None);
        }

        // Row miss: install a new entry, evicting if the set is full.
        let ways = self.set_entries(set);
        let first = ways.start;
        let (way, evicted_row) = match self.tags[ways.clone()].iter().position(|&t| t == FREE) {
            Some(free) => (free, None),
            None => {
                let (bits, per) = (&self.bits, self.words_per_entry);
                let victim = self.policies[set].victim_from(0..ways.len(), |w| {
                    let entry = first + w;
                    bits.count_ones_in(entry * per..(entry + 1) * per) as usize
                });
                let entry = first + victim;
                let old = self.tags[entry];
                let before = writebacks.len();
                writebacks.extend(self.entry_blocks(entry, old));
                self.bits.clear_words(self.entry_words(entry));
                let count = (writebacks.len() - before) as u64;
                self.stats.entry_evictions += 1;
                self.stats.eviction_writebacks += count;
                self.dirty_blocks -= count;
                (victim, Some(old))
            }
        };

        let entry = first + way;
        self.tags[entry] = row;
        self.bits.set(self.bit_of(entry, offset));
        self.policies[set].on_insert(way);
        self.stats.entry_insertions += 1;
        self.stats.bits_set += 1;
        self.dirty_blocks += 1;
        (true, evicted_row)
    }

    /// Returns whether `block` is dirty — the query every optimization in
    /// the paper leans on. Much cheaper than a tag-store lookup in hardware;
    /// here, a single set probe.
    #[must_use]
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        self.find_entry(self.set_index(row), row)
            .is_some_and(|entry| self.bits.get(self.bit_of(entry, self.offset_of(block))))
    }

    /// Clears `block`'s dirty bit (cache eviction of a dirty block, or a
    /// proactive writeback). Returns whether the bit was set.
    ///
    /// If this was the entry's last dirty block, the entry is invalidated so
    /// it can track another row (paper Section 2.2.3).
    pub fn clear_dirty(&mut self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        let Some(entry) = self.find_entry(self.set_index(row), row) else {
            return false;
        };
        if !self.bits.clear(self.bit_of(entry, self.offset_of(block))) {
            return false;
        }
        self.stats.bits_cleared += 1;
        self.dirty_blocks -= 1;
        if self.entry_count(entry) == 0 {
            self.tags[entry] = FREE;
            self.stats.entry_invalidations += 1;
        }
        true
    }

    /// Iterates over the dirty blocks co-located in the DRAM row containing
    /// `block` — the single query that powers Aggressive Writeback.
    ///
    /// Yields addresses in ascending order; empty if the row has no entry.
    pub fn row_dirty_blocks(&self, block: BlockAddr) -> impl Iterator<Item = BlockAddr> + '_ {
        let row = self.row_of(block);
        self.find_entry(self.set_index(row), row)
            .map(|entry| self.entry_blocks(entry, row))
            .into_iter()
            .flatten()
    }

    /// Removes the entry covering `block`'s row, returning the writebacks
    /// it forces. Used for flush-style operations (DMA coherence, power-down
    /// flushes — paper Section 7).
    pub fn flush_row(&mut self, block: BlockAddr) -> Option<EvictedRow> {
        let row = self.row_of(block);
        let entry = self.find_entry(self.set_index(row), row)?;
        let blocks: Vec<BlockAddr> = self.entry_blocks(entry, row).collect();
        self.bits.clear_words(self.entry_words(entry));
        self.tags[entry] = FREE;
        self.dirty_blocks -= blocks.len() as u64;
        self.stats.entry_invalidations += 1;
        Some(EvictedRow { row, blocks })
    }

    /// Flushes the whole index, invoking `sink` once per dirty block — rows
    /// in ascending order, blocks ascending within each row, exactly the
    /// order a whole-cache flush wants to drain writebacks in. Unlike a
    /// collected result, the visitor allocates nothing per call (an internal
    /// scratch list is reused across flushes).
    pub fn flush_each(&mut self, mut sink: impl FnMut(RowId, BlockAddr)) {
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        scratch.clear();
        scratch.extend(self.valid().map(|(entry, row)| (row, entry)));
        scratch.sort_unstable_by_key(|&(row, _)| row);
        for &(row, entry) in &scratch {
            for block in self.entry_blocks(entry, row) {
                sink(row, block);
            }
        }
        self.tags.fill(FREE);
        self.bits.clear_all();
        self.dirty_blocks = 0;
        self.flush_scratch = scratch;
    }

    /// Iterates over every dirty block currently tracked, in no particular
    /// order. Intended for functional checking and debugging.
    pub fn dirty_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.valid()
            .flat_map(move |(entry, row)| self.entry_blocks(entry, row))
    }

    /// Iterates over the DRAM rows that currently have at least one dirty
    /// block (one per valid entry), in no particular order.
    ///
    /// This is the "fast lookup for dirty status" primitive of the paper's
    /// Section 7: questions like "does DRAM bank X hold any dirty blocks?"
    /// reduce to scanning these row ids (bank = row mod banks under
    /// row-striped mappings) instead of the whole tag store — useful for
    /// opportunistic write scheduling and DMA coherence.
    pub fn dirty_rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.valid().map(|(_, row)| row)
    }

    /// Whether any dirty block lives in a row satisfying `pred` — e.g.
    /// `|row| row % 8 == bank` answers "does bank `bank` have dirty
    /// blocks?" with one pass over the (small) DBI.
    #[must_use]
    pub fn any_dirty_rows(&self, pred: impl FnMut(RowId) -> bool) -> bool {
        self.dirty_rows().any(pred)
    }

    /// Number of blocks currently marked dirty.
    #[must_use]
    pub fn dirty_count(&self) -> u64 {
        self.dirty_blocks
    }

    /// Number of valid entries.
    #[must_use]
    pub fn valid_entries(&self) -> u64 {
        self.valid().count() as u64
    }

    /// Iterates over the valid entries as `(row, dirty-block count)` pairs,
    /// in no particular order — occupancy introspection for debugging and
    /// reporting.
    pub fn entries(&self) -> impl Iterator<Item = (RowId, usize)> + '_ {
        self.valid()
            .map(|(entry, row)| (row, self.entry_count(entry) as usize))
    }

    /// Whether the DBI currently holds an entry for `block`'s row.
    #[must_use]
    pub fn contains_row(&self, block: BlockAddr) -> bool {
        let row = self.row_of(block);
        self.find_entry(self.set_index(row), row).is_some()
    }

    /// Event counters accumulated since construction or the last
    /// [`take_stats`](Dbi::take_stats).
    #[must_use]
    pub fn stats(&self) -> &DbiStats {
        &self.stats
    }

    /// Returns the counters and resets them to zero.
    pub fn take_stats(&mut self) -> DbiStats {
        std::mem::take(&mut self.stats)
    }

    /// Checks the structure's internal invariants, panicking on violation.
    /// Used by tests and available to callers under debug builds.
    ///
    /// # Panics
    ///
    /// Panics if a valid entry has an empty bit vector, a free way holds
    /// dirty bits, a set holds two entries for one row, an entry sits in
    /// the wrong set, or the cached dirty count disagrees with the
    /// per-entry population.
    pub fn assert_invariants(&self) {
        let mut total = 0u64;
        for set in 0..self.policies.len() {
            let mut rows = std::collections::HashSet::new();
            for entry in self.set_entries(set) {
                let (row, count) = (self.tags[entry], self.entry_count(entry));
                if row == FREE {
                    assert_eq!(count, 0, "free DBI way {entry} holds dirty bits");
                    continue;
                }
                assert!(count > 0, "valid DBI entry for row {row} has no dirty bits");
                assert!(
                    rows.insert(row),
                    "duplicate DBI entry for row {row} in set {set}"
                );
                assert_eq!(
                    self.set_index(row),
                    set,
                    "entry for row {row} stored in wrong set"
                );
                total += count;
            }
        }
        assert_eq!(total, self.dirty_blocks, "dirty-count cache out of sync");
        assert!(
            self.dirty_blocks <= self.config.tracked_blocks(),
            "DBI tracks more dirty blocks than its capacity"
        );
    }
}

impl crate::snap::Snapshot for Dbi {
    fn snapshot(&self, w: &mut crate::snap::SnapWriter) {
        w.u64(SNAP_LAYOUT);
        w.usize(self.policies.len());
        w.u64s(&self.tags);
        self.bits.snapshot(w);
        for policy in &self.policies {
            policy.snapshot(w);
        }
        w.u64(self.dirty_blocks);
        self.stats.snapshot(w);
    }

    fn restore(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        r.expect_u64("DBI entry layout", SNAP_LAYOUT)?;
        r.expect_len("DBI sets", self.policies.len())?;
        r.fill_u64s("DBI entries", &mut self.tags)?;
        self.bits.restore(r)?;
        let n_sets = self.policies.len() as u64;
        let ways = self.config.associativity();
        // Offsets at or past the granularity exist only in entries narrower
        // than a word.
        let granularity = self.config.granularity();
        let spare = u64::MAX.checked_shl(granularity as u32).unwrap_or(0);
        let mut total = 0u64;
        for (entry, &row) in self.tags.iter().enumerate() {
            let (set, count) = (entry / ways, self.entry_count(entry));
            let fault = if row == FREE {
                (count != 0).then(|| format!("free DBI way {entry} holds dirty bits"))
            } else if row % n_sets != set as u64 {
                Some(format!("DBI entry for row {row} restored into set {set}"))
            } else if count == 0 {
                Some(format!("valid DBI entry for row {row} has no dirty bits"))
            } else if self.bits.word(entry * self.words_per_entry) & spare != 0 {
                Some(format!(
                    "DBI entry for row {row} has bits past granularity {granularity}"
                ))
            } else {
                None
            };
            if let Some(msg) = fault {
                return Err(SnapError::Corrupt(msg));
            }
            total += count;
        }
        for policy in &mut self.policies {
            policy.restore(r)?;
        }
        self.dirty_blocks = r.u64()?;
        if self.dirty_blocks != total {
            return Err(SnapError::Mismatch {
                what: "DBI dirty-count cache",
                expected: total,
                found: self.dirty_blocks,
            });
        }
        self.stats.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Alpha, DbiConfig};
    use crate::replacement::DbiReplacementPolicy;

    /// Small geometry: 4 sets × 2 ways × granularity 8 = 64 tracked blocks.
    fn small() -> Dbi {
        let config = DbiConfig::new(256, Alpha::QUARTER, 8, 2, DbiReplacementPolicy::Lrw).unwrap();
        assert_eq!(config.entries(), 8);
        assert_eq!(config.sets(), 4);
        Dbi::new(config)
    }

    #[test]
    fn semantics_mark_query_clear() {
        let mut dbi = small();
        assert!(!dbi.is_dirty(13));
        let out = dbi.mark_dirty(13);
        assert!(out.newly_dirty);
        assert!(out.evicted.is_none());
        assert!(dbi.is_dirty(13));
        assert!(!dbi.is_dirty(12), "neighbour in same row stays clean");
        assert!(dbi.contains_row(8), "row 1 covers blocks 8..16");

        let again = dbi.mark_dirty(13);
        assert!(!again.newly_dirty);
        assert_eq!(dbi.dirty_count(), 1);

        assert!(dbi.clear_dirty(13));
        assert!(!dbi.clear_dirty(13));
        assert!(!dbi.is_dirty(13));
        assert_eq!(dbi.dirty_count(), 0);
        assert!(!dbi.contains_row(8), "last bit cleared invalidates entry");
        dbi.assert_invariants();
    }

    #[test]
    fn row_query_lists_co_located_dirty_blocks() {
        let mut dbi = small();
        for b in [16, 19, 23] {
            dbi.mark_dirty(b);
        }
        dbi.mark_dirty(40); // different row
        let row: Vec<u64> = dbi.row_dirty_blocks(17).collect();
        assert_eq!(row, vec![16, 19, 23]);
        assert_eq!(dbi.row_dirty_blocks(0).count(), 0);
    }

    #[test]
    fn set_conflict_evicts_lrw_entry_with_writebacks() {
        let mut dbi = small();
        // Rows 0, 4, 8 all map to set 0 (4 sets). Ways = 2.
        dbi.mark_dirty(0); // row 0
        dbi.mark_dirty(1);
        dbi.mark_dirty(4 * 8 + 2); // row 4
        let out = dbi.mark_dirty(8 * 8 + 5); // row 8 -> evicts row 0 (LRW)
        let evicted = out.evicted.expect("eviction must occur");
        assert_eq!(evicted.row(), 0);
        assert_eq!(evicted.blocks(), &[0, 1]);
        assert!(!dbi.is_dirty(0), "evicted blocks are no longer dirty");
        assert!(!dbi.is_dirty(1));
        assert!(dbi.is_dirty(4 * 8 + 2));
        assert!(dbi.is_dirty(8 * 8 + 5));
        assert_eq!(dbi.stats().entry_evictions, 1);
        assert_eq!(dbi.stats().eviction_writebacks, 2);
        dbi.assert_invariants();
    }

    #[test]
    fn eviction_keeps_dirty_count_consistent() {
        let mut dbi = small();
        // Fill every set way and then force evictions.
        for row in 0..32u64 {
            dbi.mark_dirty(row * 8);
            dbi.assert_invariants();
        }
        assert!(dbi.dirty_count() <= dbi.config().tracked_blocks());
        assert_eq!(dbi.valid_entries(), 8);
    }

    #[test]
    fn flush_row_and_flush_all() {
        let mut dbi = small();
        dbi.mark_dirty(3);
        dbi.mark_dirty(9);
        dbi.mark_dirty(11);
        let flushed = dbi.flush_row(10).expect("row 1 resident");
        assert_eq!(flushed.blocks(), &[9, 11]);
        assert_eq!(dbi.dirty_count(), 1);
        assert!(dbi.flush_row(10).is_none());

        dbi.mark_dirty(50);
        let mut flushed: Vec<(u64, u64)> = Vec::new();
        dbi.flush_each(|row, block| flushed.push((row, block)));
        assert_eq!(flushed, vec![(0, 3), (6, 50)]);
        assert_eq!(dbi.dirty_count(), 0);
        assert_eq!(dbi.valid_entries(), 0);
        dbi.assert_invariants();
    }

    #[test]
    fn flush_each_orders_rows_and_blocks_ascending() {
        let mut dbi = small();
        // Rows 6, 1, 3 (inserted out of order), several blocks each.
        for &b in &[50u64, 48, 9, 11, 30, 25] {
            dbi.mark_dirty(b);
        }
        let mut flushed: Vec<(u64, u64)> = Vec::new();
        dbi.flush_each(|row, block| flushed.push((row, block)));
        assert_eq!(
            flushed,
            vec![(1, 9), (1, 11), (3, 25), (3, 30), (6, 48), (6, 50)]
        );
        // A second flush of the (now empty) index visits nothing.
        dbi.flush_each(|_, _| panic!("index is empty"));
    }

    #[test]
    fn dirty_blocks_iterator_matches_queries() {
        let mut dbi = small();
        // Rows 0, 0, 4, 4, 7 — at most two rows per set, so no evictions.
        let marked = [0u64, 7, 33, 34, 63];
        for &b in &marked {
            dbi.mark_dirty(b);
        }
        let mut listed: Vec<u64> = dbi.dirty_blocks().collect();
        listed.sort_unstable();
        let mut expect: Vec<u64> = marked.to_vec();
        expect.sort_unstable();
        assert_eq!(listed, expect);
        for &b in &marked {
            assert!(dbi.is_dirty(b));
        }
    }

    #[test]
    fn stats_track_events() {
        let mut dbi = small();
        dbi.mark_dirty(0);
        dbi.mark_dirty(0);
        dbi.mark_dirty(1);
        dbi.clear_dirty(1);
        let s = dbi.take_stats();
        assert_eq!(s.mark_requests, 3);
        assert_eq!(s.entry_hits, 2);
        assert_eq!(s.bits_set, 2);
        assert_eq!(s.entry_insertions, 1);
        assert_eq!(s.bits_cleared, 1);
        assert_eq!(s.entry_invalidations, 0);
        assert_eq!(*dbi.stats(), DbiStats::default(), "take_stats resets");
    }

    #[test]
    fn eviction_blocks_are_sorted_by_column() {
        let mut dbi = small();
        for b in [7u64, 0, 3] {
            dbi.mark_dirty(b);
        }
        dbi.mark_dirty(4 * 8);
        let out = dbi.mark_dirty(8 * 8);
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.blocks(), &[0, 3, 7]);
    }

    #[test]
    fn works_with_every_replacement_policy() {
        for policy in DbiReplacementPolicy::ALL {
            let config = DbiConfig::new(256, Alpha::QUARTER, 8, 2, policy).unwrap();
            let mut dbi = Dbi::new(config);
            for row in 0..64u64 {
                dbi.mark_dirty(row * 8 + (row % 8));
                dbi.assert_invariants();
            }
            assert!(dbi.dirty_count() > 0, "{policy}: retains dirty state");
        }
    }

    #[test]
    fn entries_report_rows_and_populations() {
        let mut dbi = small();
        dbi.mark_dirty(0);
        dbi.mark_dirty(1);
        dbi.mark_dirty(9);
        let mut entries: Vec<(u64, usize)> = dbi.entries().collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn snapshot_round_trips_through_fresh_dbi() {
        use crate::snap::{restore_bytes, snapshot_bytes, SnapError};
        for policy in DbiReplacementPolicy::ALL {
            let config = DbiConfig::new(256, Alpha::QUARTER, 8, 2, policy).unwrap();
            let mut dbi = Dbi::new(config);
            for b in 0..500u64 {
                dbi.mark_dirty(b.wrapping_mul(2_654_435_761) % 256);
            }
            dbi.clear_dirty(64);
            let bytes = snapshot_bytes(&dbi);
            let mut fresh = Dbi::new(config);
            restore_bytes(&mut fresh, &bytes).unwrap();
            fresh.assert_invariants();
            assert_eq!(fresh.dirty_count(), dbi.dirty_count());
            assert_eq!(fresh.stats(), dbi.stats());
            let mut a: Vec<u64> = dbi.dirty_blocks().collect();
            let mut b: Vec<u64> = fresh.dirty_blocks().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            // Behaviour (including replacement decisions) continues
            // identically after restore.
            for blk in 500..700u64 {
                assert_eq!(
                    dbi.mark_dirty(blk % 256),
                    fresh.mark_dirty(blk % 256),
                    "{policy}: divergence after restore"
                );
            }
            // Restoring into mismatched geometry fails loudly.
            let other = DbiConfig::new(256, Alpha::QUARTER, 8, 1, policy).unwrap();
            let mut wrong = Dbi::new(other);
            assert!(matches!(
                restore_bytes(&mut wrong, &bytes),
                Err(SnapError::Mismatch { .. })
            ));
        }
    }

    #[test]
    fn capacity_limits_dirty_population() {
        // The DBI bounds dirty blocks to alpha * cache blocks (property 3 in
        // the paper's introduction).
        let mut dbi = small();
        for b in 0..10_000u64 {
            dbi.mark_dirty(b % 256);
        }
        assert!(dbi.dirty_count() <= 64);
        dbi.assert_invariants();
    }

    #[test]
    fn restore_rejects_earlier_layout_and_forged_entries() {
        use crate::snap::{restore_bytes, snapshot_bytes, SnapError, SnapWriter};
        let mut dbi = small();
        dbi.mark_dirty(13);

        // The earlier layout opened with the set count, then per-set ways.
        let mut old = SnapWriter::new();
        old.usize(4);
        old.usize(2);
        let err = restore_bytes(&mut small(), &old.finish()).unwrap_err();
        assert!(matches!(
            err,
            SnapError::Mismatch {
                what: "DBI entry layout",
                ..
            }
        ));

        // Forge images from a good one by rewriting tags and slab words.
        // The image opens with the layout tag and the set count, then the
        // eight tags (row 1 sits in set 1, entry 2) and the slab, each a
        // length followed by eight words.
        let good = snapshot_bytes(&dbi);
        restore_bytes(&mut small(), &good).unwrap();
        let tag = |entry: usize| 24 + 8 * entry;
        let word = |entry: usize| tag(8) + 8 + 8 * entry;
        let forge = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good[..good.len() - 8].to_vec();
            f(&mut bytes);
            let sum = crate::snap::fnv1a64(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            restore_bytes(&mut small(), &bytes)
        };
        // Bits in a free way.
        let err = forge(&|b| b[word(0)] = 1).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(m) if m.contains("free DBI way")));
        // A valid entry with no bits.
        let err = forge(&|b| b[word(2)] = 0).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(m) if m.contains("no dirty bits")));
        // Row 2 belongs in set 2, not set 1.
        let err = forge(&|b| b[tag(2)] = 2).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(m) if m.contains("restored into set")));
        // A bit past granularity 8.
        let err = forge(&|b| b[word(2) + 1] = 1).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(m) if m.contains("past granularity")));
    }
}
