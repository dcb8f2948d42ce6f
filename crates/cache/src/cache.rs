//! The set-associative cache model, stored as a struct of arrays.
//!
//! Each fact about a way is stored once. Tags and owning threads are flat
//! per-way arrays; validity and dirtiness are one word per set
//! ([`WayMask`]); replacement order is one rank byte per way under LRU and
//! one RRPV byte per way under RRIP. The same words answer the
//! [`DirtyView`] queries, so no query ever scans replacement metadata, and
//! a lookup compares only the tags of valid ways. Ways are addressed by set
//! and way, so no hot path divides, and a one-entry memo of the last lookup
//! lets a follow-up operation on the same block skip a second set walk.
//! Snapshots keep the per-line layout and the index is rebuilt — with
//! validation — on restore.

use std::cell::Cell;
use std::error::Error;
use std::fmt;

use dbi::DirtyWords;

use crate::{BlockAddr, ThreadId};

/// Geometry of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: u64,
    ways: usize,
    block_bytes: u32,
    replacement: ReplacementKind,
}

/// Error returned for a degenerate [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheConfigError {
    /// Capacity, associativity, or block size was zero.
    ZeroParameter,
    /// Block size was not a power of two.
    BlockNotPowerOfTwo(u32),
    /// Capacity is not an integer number of sets of `ways` blocks.
    UnevenGeometry {
        /// Total blocks implied by capacity / block size.
        blocks: u64,
        /// Requested associativity.
        ways: usize,
    },
    /// Associativity exceeds the 64 ways one [`WayMask`] word can index.
    TooManyWays(usize),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::ZeroParameter => {
                write!(f, "cache capacity, ways, and block size must be nonzero")
            }
            CacheConfigError::BlockNotPowerOfTwo(b) => {
                write!(f, "block size {b} is not a power of two")
            }
            CacheConfigError::UnevenGeometry { blocks, ways } => {
                write!(f, "{blocks} blocks do not divide into sets of {ways} ways")
            }
            CacheConfigError::TooManyWays(ways) => {
                write!(f, "{ways} ways exceed the 64-way word-level dirty index")
            }
        }
    }
}

impl Error for CacheConfigError {}

impl CacheConfig {
    /// Creates an LRU cache geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] if any parameter is zero, the block
    /// size is not a power of two, the capacity does not divide evenly
    /// into sets, or the associativity exceeds the 64 ways a [`WayMask`]
    /// word can represent.
    pub fn new(
        capacity_bytes: u64,
        ways: usize,
        block_bytes: u32,
    ) -> Result<CacheConfig, CacheConfigError> {
        if capacity_bytes == 0 || ways == 0 || block_bytes == 0 {
            return Err(CacheConfigError::ZeroParameter);
        }
        if ways > 64 {
            return Err(CacheConfigError::TooManyWays(ways));
        }
        if !block_bytes.is_power_of_two() {
            return Err(CacheConfigError::BlockNotPowerOfTwo(block_bytes));
        }
        let blocks = capacity_bytes / u64::from(block_bytes);
        if blocks == 0 || !blocks.is_multiple_of(ways as u64) {
            return Err(CacheConfigError::UnevenGeometry { blocks, ways });
        }
        Ok(CacheConfig {
            capacity_bytes,
            ways,
            block_bytes,
            replacement: ReplacementKind::Lru,
        })
    }

    /// Selects the replacement machinery (default LRU).
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementKind) -> CacheConfig {
        self.replacement = replacement;
        self
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Block size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Replacement machinery.
    #[must_use]
    pub fn replacement(&self) -> ReplacementKind {
        self.replacement
    }

    /// Total number of blocks.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.capacity_bytes / u64::from(self.block_bytes)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.blocks() / self.ways as u64
    }
}

/// The victim-ranking machinery a cache uses within each set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ReplacementKind {
    /// Classic recency stack. [`InsertPos::Mru`] is the normal insertion;
    /// [`InsertPos::Lru`] is the bimodal/LIP insertion DIP uses.
    #[default]
    Lru,
    /// Re-Reference Interval Prediction (2-bit RRPV). [`InsertPos::Mru`]
    /// maps to the SRRIP "long" insertion (RRPV 2), [`InsertPos::Lru`] to
    /// the BRRIP "distant" insertion (RRPV 3).
    Rrip,
}

/// Where a newly inserted block lands in the replacement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertPos {
    /// Protected position (MRU / RRPV "long").
    Mru,
    /// Eviction-imminent position (LRU / RRPV "distant").
    Lru,
}

/// A block displaced by an insertion or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The displaced block.
    pub block: BlockAddr,
    /// Whether the tag store believed the block dirty. Caches whose dirty
    /// bits live in a DBI keep this permanently `false`.
    pub dirty: bool,
    /// The thread that inserted the block.
    pub thread: ThreadId,
}

/// Event counters for a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Recency-updating lookups ([`Cache::touch`]).
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Valid blocks displaced by insertions.
    pub evictions: u64,
    /// Displaced blocks whose tag dirty bit was set.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Miss ratio over recency-updating lookups; `None` before any lookup.
    #[must_use]
    pub fn miss_ratio(&self) -> Option<f64> {
        (self.lookups > 0).then(|| 1.0 - self.hits as f64 / self.lookups as f64)
    }
}

/// Typed index of a cache set — the key of every per-set dirty query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetIdx(pub u64);

impl SetIdx {
    /// The raw set number (for hashing into per-set side structures).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The set number as a vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SetIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One bit per way of a single set (bit `w` = way `w`) — the word-level
/// currency of the dirty-query API. Masks combine and iterate without
/// touching the heap, which is what lets per-writeback queries return a
/// whole set's worth of answers in one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WayMask(u64);

impl WayMask {
    /// The mask with no ways set.
    pub const EMPTY: WayMask = WayMask(0);

    /// A mask from its raw bit pattern.
    #[must_use]
    pub fn from_bits(bits: u64) -> WayMask {
        WayMask(bits)
    }

    /// The raw bit pattern.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Whether no way is set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of ways set.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether way `way` is set.
    #[must_use]
    pub fn contains(self, way: usize) -> bool {
        way < 64 && self.0 >> way & 1 == 1
    }

    /// Iterates the set way numbers, ascending.
    #[must_use]
    pub fn ways(self) -> WayIter {
        WayIter(self.0)
    }
}

impl IntoIterator for WayMask {
    type Item = usize;
    type IntoIter = WayIter;

    fn into_iter(self) -> WayIter {
        WayIter(self.0)
    }
}

/// Iterator over the way numbers set in a [`WayMask`], ascending.
#[derive(Debug, Clone)]
pub struct WayIter(u64);

impl Iterator for WayIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let way = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(way)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for WayIter {}

/// Everything a writeback sweep wants to know about one resident line,
/// answered from a single tag probe plus the dirty/rank index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbedLine {
    /// Tag-store dirty bit.
    pub dirty: bool,
    /// Thread that inserted the block.
    pub owner: ThreadId,
    /// Recency rank: 0 = next victim, `ways-1` = most protected. Under
    /// RRIP, lines sharing an RRPV share a rank.
    pub rank: usize,
}

const RRPV_MAX: u8 = 3;
const RRPV_LONG: u8 = 2;

/// The mask of every way of a `ways`-way set.
fn all_ways(ways: usize) -> u64 {
    u64::MAX >> (64 - ways)
}

/// Bit of way `way` of `set` in the slot-per-word [`DirtyWords`] layout.
fn bit(set: usize, way: usize) -> u64 {
    (set * 64 + way) as u64
}

/// Bytes per set in the LRU rank slab: `ways` rounded up to whole `u64`
/// words, so a set's ranks load as words.
fn rank_stride(ways: usize) -> usize {
    ways.next_multiple_of(8)
}

/// `0x01` in every byte lane of a word.
const LANE_ONES: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte lane of a word.
const LANE_HIGHS: u64 = LANE_ONES << 7;

/// Bit `l` is set ⇔ byte lane `l` of `word` (little-endian) is below `k`:
/// eight byte compares in one word (SWAR, "SIMD within a register").
///
/// Exact when every lane is below 0x80 and `k` is at most 0x80: setting a
/// lane's high bit and subtracting `k` then never borrows across lanes,
/// and the high bit survives exactly when the lane is at least `k`.
fn lanes_below(word: u64, k: u8) -> u64 {
    debug_assert!(word & LANE_HIGHS == 0 && k <= 0x80);
    let at_least = (word | LANE_HIGHS) - LANE_ONES * u64::from(k);
    let below = !at_least & LANE_HIGHS;
    // Gather the eight high bits into the top byte, lane `l` to bit 56 + l.
    (below >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Per-set validity, dirtiness and replacement order — the only copy of
/// each, read by both the cache operations and the [`DirtyView`] queries.
///
/// Under LRU the order is one rank byte per way, and rank-filtered
/// questions (the victim, the dirty ways among the bottom `k`) compare
/// eight rank bytes per word with [`lanes_below`]. Under RRIP, RRPVs tie
/// (ranks are shared), so ranks derive in O(1) from per-RRPV population
/// counts instead.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DirtyRankIndex {
    /// Per-set validity words (bit `set * 64 + w` = way `w` of `set` holds
    /// a valid line), on the workspace-wide [`DirtyWords`] storage.
    valid: DirtyWords,
    /// Per-set dirty words, same layout: bit set ⇔ valid *and* dirty.
    dirty: DirtyWords,
    /// Per-way recency rank, 0 = next victim (LRU only; empty under RRIP),
    /// at `set * rank_stride(ways) + way`. Meaningful only for valid ways:
    /// a free way keeps a stale byte, and row padding stays 0.
    ///
    /// The word-parallel compares need every byte — valid, stale or
    /// padding — below 0x80. Valid ranks are below `ways ≤ 64`, and the
    /// update passes only ever lower a stale byte or raise it to at most
    /// the set's line count, so no byte ever exceeds 64.
    rank: Vec<u8>,
    /// Per-set RRPV population counts (RRIP only; empty under LRU).
    rrpv_cnt: Vec<[u8; 4]>,
}

impl DirtyRankIndex {
    fn new(config: &CacheConfig) -> DirtyRankIndex {
        let sets = config.sets() as usize;
        let (rank_bytes, rrip_sets) = match config.replacement {
            ReplacementKind::Lru => (sets * rank_stride(config.ways), 0),
            ReplacementKind::Rrip => (0, sets),
        };
        DirtyRankIndex {
            valid: DirtyWords::per_word_slots(sets),
            dirty: DirtyWords::per_word_slots(sets),
            rank: vec![0; rank_bytes],
            rrpv_cnt: vec![[0; 4]; rrip_sets],
        }
    }
}

/// A set-associative, write-back cache state model.
///
/// Blocks are identified by [`BlockAddr`]; the set index is the low bits of
/// the block address (block-interleaved), matching how consecutive blocks of
/// a DRAM row spread across cache sets — the effect that makes DRAM-aware
/// writeback nontrivial (paper Section 3.1).
///
/// Dirty-state and recency-rank queries go through [`Cache::dirty`], which
/// returns a [`DirtyView`] over the maintained word-level index; the only
/// dirty-state mutator is [`Cache::mark_dirty`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Block address per way (`set * ways + way`); stale where the set's
    /// valid word has the way clear.
    tags: Vec<BlockAddr>,
    /// Inserting thread per way, indexed and validated like `tags`.
    owner: Vec<ThreadId>,
    /// RRPV per way (RRIP only; empty under LRU).
    rrpv: Vec<u8>,
    /// `sets() - 1` when the set count is a power of two (the common
    /// geometry), letting [`set_of`](Cache::set_of) mask instead of divide.
    set_mask: Option<u64>,
    index: DirtyRankIndex,
    /// The last [`find`](Cache::find): its block and the way holding it,
    /// `None` if the block was absent. A follow-up on the same block —
    /// `insert` after a missed `touch`, `mark_dirty` after a hit, `owner`
    /// after `probe` — reuses it instead of walking the set again. Cleared
    /// whenever the resident blocks change (`insert`, `invalidate`,
    /// `restore`). A `Cell` because [`DirtyView`] queries look up through
    /// `&Cache`.
    memo: Cell<Option<(BlockAddr, Option<u8>)>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let blocks = config.blocks() as usize;
        let sets = config.sets();
        Cache {
            index: DirtyRankIndex::new(&config),
            tags: vec![0; blocks],
            owner: vec![0; blocks],
            rrpv: match config.replacement {
                ReplacementKind::Lru => Vec::new(),
                ReplacementKind::Rrip => vec![0; blocks],
            },
            config,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            memo: Cell::new(None),
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Set index of `block`.
    #[must_use]
    pub fn set_of(&self, block: BlockAddr) -> SetIdx {
        SetIdx(match self.set_mask {
            Some(mask) => block & mask,
            None => block % self.config.sets(),
        })
    }

    /// `(set, way)` of `block` — from the memo when `block` was the last
    /// block looked up, otherwise from a walk of its set.
    fn find(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let set = self.set_of(block).index();
        let way = match self.memo.get() {
            Some((last, way)) if last == block => way,
            _ => {
                let way = self.walk(set, block);
                self.memo.set(Some((block, way)));
                way
            }
        };
        way.map(|w| (set, usize::from(w)))
    }

    /// The way of `set` holding `block`, comparing only the tags of valid
    /// ways.
    fn walk(&self, set: usize, block: BlockAddr) -> Option<u8> {
        let base = set * self.config.ways;
        WayIter(self.index.valid.word(set))
            .find(|&way| self.tags[base + way] == block)
            .map(|way| way as u8)
    }

    /// Probes for `block` without updating replacement state or stats
    /// (a coherence-style or metadata probe).
    #[must_use]
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// LRU: the rank bytes of `set`, one per way (without the padding).
    fn rank_row(&mut self, set: usize) -> &mut [u8] {
        let ways = self.config.ways;
        &mut self.index.rank[set * rank_stride(ways)..][..ways]
    }

    /// LRU: the ways of `set` whose rank byte is below `k` (at most 64),
    /// valid or not — callers mask with the valid or dirty word. One SWAR
    /// compare per eight ways.
    fn ranks_below(&self, set: usize, k: usize) -> u64 {
        let stride = rank_stride(self.config.ways);
        let row = &self.index.rank[set * stride..][..stride];
        row.chunks_exact(8)
            .enumerate()
            .fold(0, |out, (word, lanes)| {
                let lanes = u64::from_le_bytes(lanes.try_into().expect("8-byte chunk"));
                out | lanes_below(lanes, k as u8) << (8 * word)
            })
    }

    /// Recency rank of the valid line at `(set, way)`, from the index: 0 =
    /// next victim. O(1) — a byte read under LRU, three adds under RRIP.
    fn rank_of(&self, set: usize, way: usize) -> usize {
        let ways = self.config.ways;
        match self.config.replacement {
            ReplacementKind::Lru => usize::from(self.index.rank[set * rank_stride(ways) + way]),
            ReplacementKind::Rrip => {
                let c = &self.index.rrpv_cnt[set];
                c[usize::from(self.rrpv[set * ways + way]) + 1..]
                    .iter()
                    .map(|&x| usize::from(x))
                    .sum()
            }
        }
    }

    /// The replacement value a snapshot carries for the valid line at
    /// `(set, way)` — its LRU rank, or its RRPV — and that
    /// [`rebuild_index`](Cache::rebuild_index) restores from.
    fn meta(&self, set: usize, way: usize) -> i64 {
        match self.config.replacement {
            ReplacementKind::Lru => self.rank_of(set, way) as i64,
            ReplacementKind::Rrip => i64::from(self.rrpv[set * self.config.ways + way]),
        }
    }

    /// LRU: takes the valid line at `(set, way)` out of its set's recency
    /// order; every line ranked above it moves one rank down.
    fn lru_unlink(&mut self, set: usize, way: usize) {
        let row = self.rank_row(set);
        let r = row[way];
        for x in row {
            *x -= u8::from(*x > r);
        }
    }

    /// Index update: the valid line at `(set, way)` leaves its set.
    fn index_remove(&mut self, set: usize, way: usize) {
        match self.config.replacement {
            ReplacementKind::Lru => self.lru_unlink(set, way),
            ReplacementKind::Rrip => {
                let v = self.rrpv[set * self.config.ways + way];
                self.index.rrpv_cnt[set][usize::from(v)] -= 1;
            }
        }
        self.index.valid.clear(bit(set, way));
        self.index.dirty.clear(bit(set, way));
    }

    /// Index update: the free way `(set, way)` now holds a line inserted at
    /// `pos` (under RRIP its RRPV is already written).
    fn index_place(&mut self, set: usize, way: usize, pos: InsertPos, dirty: bool) {
        match self.config.replacement {
            ReplacementKind::Lru => {
                let n = self.index.valid.word(set).count_ones() as u8;
                let row = self.rank_row(set);
                match pos {
                    // Newer than everything resident: top rank.
                    InsertPos::Mru => row[way] = n,
                    // Older than everything resident: rank 0, rest move up.
                    // Stale ranks of free ways never exceed `n` this way.
                    InsertPos::Lru => {
                        for x in row.iter_mut() {
                            *x += u8::from(*x < n);
                        }
                        row[way] = 0;
                    }
                }
            }
            ReplacementKind::Rrip => {
                let v = self.rrpv[set * self.config.ways + way];
                self.index.rrpv_cnt[set][usize::from(v)] += 1;
            }
        }
        self.index.valid.set(bit(set, way));
        self.index.dirty.assign(bit(set, way), dirty);
    }

    /// Looks up `block` and, on a hit, promotes it (recency update / RRPV
    /// reset). Returns whether it hit. This is the demand-access path.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        self.stats.lookups += 1;
        let Some((set, way)) = self.find(block) else {
            return false;
        };
        self.stats.hits += 1;
        match self.config.replacement {
            ReplacementKind::Lru => {
                // Re-hits on the MRU line change nothing.
                let n = self.index.valid.word(set).count_ones() as u8;
                if self.rank_row(set)[way] + 1 < n {
                    self.lru_unlink(set, way);
                    self.rank_row(set)[way] = n - 1;
                }
            }
            ReplacementKind::Rrip => {
                let i = set * self.config.ways + way;
                let c = &mut self.index.rrpv_cnt[set];
                c[usize::from(self.rrpv[i])] -= 1;
                c[0] += 1;
                self.rrpv[i] = 0;
            }
        }
        true
    }

    /// Inserts `block` at `pos`, returning the displaced victim if the set
    /// was full. If the block is already resident this is a no-op promote.
    pub fn insert(
        &mut self,
        block: BlockAddr,
        thread: ThreadId,
        pos: InsertPos,
        dirty: bool,
    ) -> Option<Victim> {
        if let Some((set, way)) = self.find(block) {
            // Refill of a resident block: merge dirty state, keep recency.
            if dirty {
                self.index.dirty.set(bit(set, way));
            }
            return None;
        }
        self.memo.set(None);
        self.stats.insertions += 1;
        let ways = self.config.ways;
        let set = self.set_of(block).index();
        let free = !self.index.valid.word(set) & all_ways(ways);
        let (way, victim) = if free != 0 {
            (free.trailing_zeros() as usize, None)
        } else {
            let way = self.victim_way(set);
            let v = Victim {
                block: self.tags[set * ways + way],
                dirty: self.index.dirty.get(bit(set, way)),
                thread: self.owner[set * ways + way],
            };
            self.stats.evictions += 1;
            self.stats.dirty_evictions += u64::from(v.dirty);
            self.index_remove(set, way);
            (way, Some(v))
        };
        let i = set * ways + way;
        self.tags[i] = block;
        self.owner[i] = thread;
        if self.config.replacement == ReplacementKind::Rrip {
            self.rrpv[i] = match pos {
                InsertPos::Mru => RRPV_LONG,
                InsertPos::Lru => RRPV_MAX,
            };
        }
        self.index_place(set, way, pos, dirty);
        victim
    }

    /// The way a full `set` gives up: rank 0 under LRU, the first line at
    /// the distant RRPV under RRIP (aging the set until one is).
    fn victim_way(&mut self, set: usize) -> usize {
        match self.config.replacement {
            ReplacementKind::Lru => {
                (self.ranks_below(set, 1) & self.index.valid.word(set)).trailing_zeros() as usize
            }
            ReplacementKind::Rrip => loop {
                let base = set * self.config.ways;
                let rrpv = &mut self.rrpv[base..base + self.config.ways];
                if let Some(way) = rrpv.iter().position(|&v| v >= RRPV_MAX) {
                    break way;
                }
                for v in rrpv {
                    *v += 1;
                }
                // Aging only runs when no line sat at RRPV_MAX, so the top
                // bucket is empty before the shift.
                let c = &mut self.index.rrpv_cnt[set];
                debug_assert_eq!(c[usize::from(RRPV_MAX)], 0);
                *c = [0, c[0], c[1], c[2]];
            },
        }
    }

    /// Removes `block`, returning its line if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Victim> {
        let (set, way) = self.find(block)?;
        self.memo.set(None);
        let v = Victim {
            block,
            dirty: self.index.dirty.get(bit(set, way)),
            thread: self.owner[set * self.config.ways + way],
        };
        self.index_remove(set, way);
        Some(v)
    }

    /// Sets or clears the tag-store dirty bit — the one dirty-state
    /// mutator. Returns `false` if the block is not resident.
    pub fn mark_dirty(&mut self, block: BlockAddr, dirty: bool) -> bool {
        match self.find(block) {
            Some((set, way)) => {
                self.index.dirty.assign(bit(set, way), dirty);
                true
            }
            None => false,
        }
    }

    /// The read side of the dirty-query API: a borrowed view over the
    /// word-level dirty/rank index. All queries are allocation-free and
    /// cost O(1) per answered word or probed line.
    #[must_use]
    pub fn dirty(&self) -> DirtyView<'_> {
        DirtyView { cache: self }
    }

    /// Thread that inserted `block`; `None` if not resident.
    #[must_use]
    pub fn owner(&self, block: BlockAddr) -> Option<ThreadId> {
        self.find(block)
            .map(|(set, way)| self.owner[set * self.config.ways + way])
    }

    /// Iterates over all resident blocks as `(block, dirty, thread)`, in
    /// set order and ascending way order within a set.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, ThreadId)> + '_ {
        let ways = self.config.ways;
        (0..self.config.sets() as usize).flat_map(move |set| {
            let dirty = self.index.dirty.word(set);
            WayIter(self.index.valid.word(set)).map(move |way| {
                let i = set * ways + way;
                (self.tags[i], dirty >> way & 1 == 1, self.owner[i])
            })
        })
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.index.valid.count_ones()
    }

    /// Event counters since construction or the last
    /// [`take_stats`](Cache::take_stats).
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Returns the counters and resets them.
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Rebuilds the replacement order from per-way snapshot values `meta`
    /// (indexed like `tags`, read only at valid ways): under LRU a line's
    /// rank is the number of valid lines in its set with a smaller value,
    /// so any order-preserving relabelling — old timestamps or ranks —
    /// rebuilds the same index. Values no writer could have produced
    /// (duplicates under LRU, out-of-range RRPVs) are rejected as
    /// corruption.
    fn rebuild_index(&mut self, meta: &[i64]) -> Result<(), dbi::snap::SnapError> {
        use dbi::snap::SnapError;
        let ways = self.config.ways;
        for set in 0..self.config.sets() as usize {
            let base = set * ways;
            let valid = self.index.valid.word(set);
            match self.config.replacement {
                ReplacementKind::Lru => {
                    let mut seen = 0u64;
                    for way in WayIter(valid) {
                        let r = WayIter(valid)
                            .filter(|&o| meta[base + o] < meta[base + way])
                            .count();
                        if seen & (1 << r) != 0 {
                            return Err(SnapError::Corrupt(format!(
                                "duplicate LRU order value in cache set {set}"
                            )));
                        }
                        seen |= 1 << r;
                        self.rank_row(set)[way] = r as u8;
                    }
                }
                ReplacementKind::Rrip => {
                    let mut c = [0u8; 4];
                    for way in WayIter(valid) {
                        let m = meta[base + way];
                        let v =
                            u8::try_from(m)
                                .ok()
                                .filter(|&v| v <= RRPV_MAX)
                                .ok_or_else(|| {
                                    SnapError::Corrupt(format!(
                                        "RRPV {m} out of range in cache set {set}"
                                    ))
                                })?;
                        self.rrpv[base + way] = v;
                        c[usize::from(v)] += 1;
                    }
                    self.index.rrpv_cnt[set] = c;
                }
            }
        }
        Ok(())
    }

    /// Test support: checks the index's internal invariants and panics on
    /// any violation — no dirty bit on an invalid way; a replacement order
    /// that a rebuild from this cache's own snapshot values reproduces
    /// exactly (LRU ranks a permutation of the valid lines, RRPV counts
    /// matching the RRPVs); every rank byte, valid or stale, below the
    /// 0x80 the word-parallel compares need; and a memo, when set, that
    /// agrees with a fresh walk.
    #[doc(hidden)]
    pub fn assert_index_coherent(&self) {
        let ways = self.config.ways;
        let sets = self.config.sets() as usize;
        let meta: Vec<i64> = (0..sets)
            .flat_map(|set| (0..ways).map(move |way| self.meta(set, way)))
            .collect();
        let mut reference = self.clone();
        reference
            .rebuild_index(&meta)
            .expect("live replacement state always rebuilds");
        for set in 0..sets {
            let valid = self.index.valid.word(set);
            assert_eq!(
                self.index.dirty.word(set) & !valid,
                0,
                "dirty bit on an invalid way of set {set}"
            );
            assert_eq!(
                valid & !all_ways(ways),
                0,
                "valid bit past the ways of set {set}"
            );
            if self.config.replacement == ReplacementKind::Lru {
                for way in WayIter(valid) {
                    assert_eq!(
                        reference.rank_of(set, way),
                        self.rank_of(set, way),
                        "rank of set {set} way {way} is not a permutation"
                    );
                }
            }
        }
        if let Some(at) = self.index.rank.iter().position(|&r| r >= 0x80) {
            panic!(
                "rank byte {at} is {:#x}, outside the word-parallel compare's range",
                self.index.rank[at]
            );
        }
        assert_eq!(
            reference.index.rrpv_cnt, self.index.rrpv_cnt,
            "RRPV counts diverged from the RRPVs"
        );
        if let Some((block, way)) = self.memo.get() {
            assert_eq!(
                self.walk(self.set_of(block).index(), block),
                way,
                "lookup memo for block {block} disagrees with a fresh walk"
            );
        }
    }
}

/// Read-only view over a [`Cache`]'s word-level dirty/rank index.
///
/// This is the *entire* dirty-query surface: residency-aware dirty bits,
/// single-probe line summaries, and per-set [`WayMask`] answers to the
/// rank-filtered questions the Virtual Write Queue asks on every writeback.
/// Nothing here allocates, and nothing loops over replacement metadata.
#[derive(Debug, Clone, Copy)]
pub struct DirtyView<'a> {
    cache: &'a Cache,
}

impl<'a> DirtyView<'a> {
    /// Tag-store dirty bit of `block`; `None` if not resident.
    #[must_use]
    pub fn is_dirty(&self, block: BlockAddr) -> Option<bool> {
        let (set, way) = self.cache.find(block)?;
        Some(self.cache.index.dirty.get(bit(set, way)))
    }

    /// Dirty bit, owning thread, and recency rank of `block` from a single
    /// tag probe; `None` if not resident. The query bundle row sweeps
    /// (DAWB unconditionally, VWQ rank-filtered) make per candidate block.
    #[must_use]
    pub fn probe(&self, block: BlockAddr) -> Option<ProbedLine> {
        let (set, way) = self.cache.find(block)?;
        Some(ProbedLine {
            dirty: self.cache.index.dirty.get(bit(set, way)),
            owner: self.cache.owner[set * self.cache.config.ways + way],
            rank: self.cache.rank_of(set, way),
        })
    }

    /// The dirty ways of `set`, as one word.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn mask(&self, set: SetIdx) -> WayMask {
        WayMask(self.cache.index.dirty.word(set.index()))
    }

    /// The dirty ways of `set` whose recency rank is below `ways_from_lru`
    /// — the candidates a Virtual Write Queue sweep would harvest, and the
    /// word a Set State Vector refresh reduces to one bit. The common case
    /// (no dirty line in the set) is a single load.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn in_lru_ways(&self, set: SetIdx, ways_from_lru: usize) -> WayMask {
        let set = set.index();
        let dirty = self.cache.index.dirty.word(set);
        if dirty == 0 {
            return WayMask::EMPTY;
        }
        match self.cache.config.replacement {
            // Every rank is below `ways`, so larger `k`s ask the same.
            ReplacementKind::Lru => WayMask(
                dirty
                    & self
                        .cache
                        .ranks_below(set, ways_from_lru.min(self.cache.config.ways)),
            ),
            ReplacementKind::Rrip => {
                let mut out = 0u64;
                for way in WayIter(dirty) {
                    if self.cache.rank_of(set, way) < ways_from_lru {
                        out |= 1 << way;
                    }
                }
                WayMask(out)
            }
        }
    }

    /// Resolves a [`WayMask`] of `set` to block addresses, in way order.
    ///
    /// # Panics
    ///
    /// The iterator panics if `set` is out of range or `mask` names an
    /// invalid way.
    pub fn blocks(&self, set: SetIdx, mask: WayMask) -> impl Iterator<Item = BlockAddr> + 'a {
        let cache = self.cache;
        let base = set.index() * cache.config.ways;
        mask.ways().map(move |w| {
            debug_assert!(
                WayMask(cache.index.valid.word(set.index())).contains(w),
                "mask names an invalid way"
            );
            cache.tags[base + w]
        })
    }
}

impl ReplacementKind {
    fn snap_code(self) -> u8 {
        match self {
            ReplacementKind::Lru => 0,
            ReplacementKind::Rrip => 1,
        }
    }
}

impl dbi::snap::Snapshot for CacheStats {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        let CacheStats {
            lookups,
            hits,
            insertions,
            evictions,
            dirty_evictions,
        } = *self;
        for x in [lookups, hits, insertions, evictions, dirty_evictions] {
            w.u64(x);
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        self.lookups = r.u64()?;
        self.hits = r.u64()?;
        self.insertions = r.u64()?;
        self.evictions = r.u64()?;
        self.dirty_evictions = r.u64()?;
        Ok(())
    }
}

impl dbi::snap::Snapshot for Cache {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        w.u8(self.config.replacement.snap_code());
        w.usize(self.tags.len());
        let ways = self.config.ways;
        for set in 0..self.config.sets() as usize {
            for way in 0..ways {
                let valid = self.index.valid.get(bit(set, way));
                w.bool(valid);
                if valid {
                    w.u64(self.tags[set * ways + way]);
                    w.bool(self.index.dirty.get(bit(set, way)));
                    w.u8(self.owner[set * ways + way]);
                    w.i64(self.meta(set, way));
                }
            }
        }
        // Two retired LRU clock words, kept so the byte layout is unchanged.
        w.i64(0);
        w.i64(0);
        self.stats.snapshot(w);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        use dbi::snap::SnapError;
        let code = r.u8()?;
        if code != self.config.replacement.snap_code() {
            return Err(SnapError::Mismatch {
                what: "cache replacement kind",
                expected: u64::from(self.config.replacement.snap_code()),
                found: u64::from(code),
            });
        }
        r.expect_len("cache lines", self.tags.len())?;
        self.memo.set(None);
        let ways = self.config.ways;
        let mut meta = vec![0i64; self.tags.len()];
        self.index.valid.clear_all();
        self.index.dirty.clear_all();
        for set in 0..self.config.sets() as usize {
            for way in 0..ways {
                if r.bool()? {
                    let block = r.u64()?;
                    // A valid line must sit in the set its block maps to.
                    if self.set_of(block).index() != set {
                        return Err(SnapError::Corrupt(format!(
                            "cache line for block {block} restored into wrong set"
                        )));
                    }
                    self.tags[set * ways + way] = block;
                    self.index.valid.set(bit(set, way));
                    self.index.dirty.assign(bit(set, way), r.bool()?);
                    self.owner[set * ways + way] = r.u8()?;
                    meta[set * ways + way] = r.i64()?;
                }
            }
        }
        // The retired LRU clock words: older snapshots carry timestamps.
        r.i64()?;
        r.i64()?;
        self.stats.restore(r)?;
        // Rebuild (and validate) the replacement order from the restored
        // values, so resumed runs answer every dirty/rank query and pick
        // every victim bit-identically to the run that wrote the snapshot.
        self.rebuild_index(&meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize) -> Cache {
        // 4 sets x `ways` ways, 64 B blocks.
        Cache::new(CacheConfig::new(4 * ways as u64 * 64, ways, 64).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(0, 2, 64).is_err());
        assert!(CacheConfig::new(1024, 0, 64).is_err());
        assert!(CacheConfig::new(1024, 2, 0).is_err());
        assert!(matches!(
            CacheConfig::new(1024, 2, 48),
            Err(CacheConfigError::BlockNotPowerOfTwo(48))
        ));
        assert!(matches!(
            CacheConfig::new(64 * 3, 2, 64),
            Err(CacheConfigError::UnevenGeometry { .. })
        ));
        assert!(matches!(
            CacheConfig::new(128 * 64, 128, 64),
            Err(CacheConfigError::TooManyWays(128))
        ));
        let c = CacheConfig::new(2 * 1024 * 1024, 16, 64).unwrap();
        assert_eq!(c.blocks(), 32 * 1024);
        assert_eq!(c.sets(), 2048);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = tiny(2);
        assert!(!c.touch(5));
        c.insert(5, 0, InsertPos::Mru, false);
        assert!(c.touch(5));
        assert!(c.probe(5));
        assert!(!c.probe(9));
        assert_eq!(c.stats().lookups, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(2);
        // Blocks 0, 4, 8 share set 0 (4 sets).
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Mru, true);
        c.touch(0); // 4 is now LRU
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4);
        assert!(v.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
        assert!(c.probe(0) && c.probe(8) && !c.probe(4));
        c.assert_index_coherent();
    }

    #[test]
    fn lru_insertion_position_is_next_victim() {
        let mut c = tiny(2);
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Lru, false); // bimodal insertion
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4, "LIP-inserted block evicted first");
        c.assert_index_coherent();
    }

    #[test]
    fn rrip_promote_on_hit() {
        let mut c = Cache::new(
            CacheConfig::new(4 * 2 * 64, 2, 64)
                .unwrap()
                .with_replacement(ReplacementKind::Rrip),
        );
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Mru, false);
        c.touch(0); // RRPV 0; block 4 stays at RRPV 2
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4);
        c.assert_index_coherent();
    }

    #[test]
    fn rrip_distant_insertion_evicted_first() {
        let mut c = Cache::new(
            CacheConfig::new(4 * 2 * 64, 2, 64)
                .unwrap()
                .with_replacement(ReplacementKind::Rrip),
        );
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Lru, false); // RRPV 3
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4);
        c.assert_index_coherent();
    }

    #[test]
    fn refill_of_resident_block_merges_dirty() {
        let mut c = tiny(2);
        c.insert(0, 0, InsertPos::Mru, false);
        assert_eq!(c.dirty().is_dirty(0), Some(false));
        assert!(c.insert(0, 0, InsertPos::Mru, true).is_none());
        assert_eq!(c.dirty().is_dirty(0), Some(true));
        assert_eq!(c.stats().insertions, 1, "refill is not a new insertion");
        c.assert_index_coherent();
    }

    #[test]
    fn dirty_bit_roundtrip_and_invalidate() {
        let mut c = tiny(2);
        c.insert(7, 3, InsertPos::Mru, false);
        assert!(c.mark_dirty(7, true));
        assert_eq!(c.dirty().is_dirty(7), Some(true));
        assert!(c.mark_dirty(7, false));
        assert_eq!(c.dirty().is_dirty(7), Some(false));
        assert!(!c.mark_dirty(9, true));
        let v = c.invalidate(7).expect("resident");
        assert_eq!(v.thread, 3);
        assert!(c.invalidate(7).is_none());
        assert_eq!(c.dirty().is_dirty(7), None);
        c.assert_index_coherent();
    }

    #[test]
    fn probe_rank_orders_by_recency() {
        let mut c = tiny(4);
        for b in [0u64, 4, 8, 12] {
            c.insert(b, 0, InsertPos::Mru, false);
        }
        let rank = |c: &Cache, b: u64| c.dirty().probe(b).map(|p| p.rank);
        assert_eq!(rank(&c, 0), Some(0));
        assert_eq!(rank(&c, 12), Some(3));
        c.touch(0);
        assert_eq!(rank(&c, 0), Some(3));
        assert_eq!(rank(&c, 4), Some(0));
        assert_eq!(rank(&c, 99), None);
        c.assert_index_coherent();
    }

    #[test]
    fn in_lru_ways_filters_by_rank_and_dirtiness() {
        let mut c = tiny(4);
        c.insert(0, 0, InsertPos::Mru, true); // rank 0 after later inserts
        c.insert(4, 0, InsertPos::Mru, false); // rank 1, clean
        c.insert(8, 0, InsertPos::Mru, true); // rank 2
        c.insert(12, 0, InsertPos::Mru, true); // rank 3 (MRU)
        let harvest = |c: &Cache, k: usize| -> Vec<u64> {
            let set = c.set_of(0);
            let mut v: Vec<u64> = c
                .dirty()
                .blocks(set, c.dirty().in_lru_ways(set, k))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(harvest(&c, 2), vec![0]);
        assert_eq!(harvest(&c, 3), vec![0, 8]);
        assert_eq!(harvest(&c, 4), vec![0, 8, 12]);
        assert!(
            c.dirty().in_lru_ways(c.set_of(1), 4).is_empty(),
            "other set is empty"
        );
        assert_eq!(c.dirty().mask(c.set_of(0)).count(), 3);
        c.assert_index_coherent();
    }

    #[test]
    fn lanes_below_matches_scalar_compare() {
        // Each lane in turn takes every byte value a rank byte may hold,
        // against every `k` a query can ask; the other lanes vary too.
        for lane in 0..8 {
            for v in 0..=0x7fu8 {
                let mut bytes = [0u8; 8];
                for (l, b) in bytes.iter_mut().enumerate() {
                    *b = ((usize::from(v) * 7 + l * 29) % 0x80) as u8;
                }
                bytes[lane] = v;
                let word = u64::from_le_bytes(bytes);
                for k in 0..=64u8 {
                    let want = bytes
                        .iter()
                        .enumerate()
                        .fold(0u64, |m, (l, &b)| m | u64::from(b < k) << l);
                    assert_eq!(lanes_below(word, k), want, "lane {lane} value {v:#x} k {k}");
                }
            }
        }
    }

    #[test]
    fn way_mask_iterates_set_bits_ascending() {
        let m = WayMask::from_bits(0b1010_0001);
        assert_eq!(m.ways().collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(m.count(), 3);
        assert!(m.contains(5) && !m.contains(1));
        assert!(WayMask::EMPTY.is_empty());
        assert_eq!(m.into_iter().len(), 3);
    }

    #[test]
    fn blocks_iterates_resident_lines() {
        let mut c = tiny(2);
        c.insert(3, 1, InsertPos::Mru, true);
        c.insert(6, 2, InsertPos::Mru, false);
        let mut all: Vec<_> = c.blocks().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(3, true, 1), (6, false, 2)]);
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn miss_ratio_reporting() {
        let mut c = tiny(2);
        assert_eq!(c.stats().miss_ratio(), None);
        c.touch(0);
        c.insert(0, 0, InsertPos::Mru, false);
        c.touch(0);
        assert_eq!(c.stats().miss_ratio(), Some(0.5));
        let taken = c.take_stats();
        assert_eq!(taken.lookups, 2);
        assert_eq!(c.stats().lookups, 0);
    }

    #[test]
    fn rrip_index_survives_aging_and_ties() {
        let mut c = Cache::new(
            CacheConfig::new(2 * 4 * 64, 4, 64)
                .unwrap()
                .with_replacement(ReplacementKind::Rrip),
        );
        // Fill one set, force several aging rounds, and keep RRPV ties
        // around: ranks are shared, the index must agree with the scan.
        for b in [0u64, 2, 4, 6, 8, 10, 12] {
            c.insert(b, 0, InsertPos::Mru, b % 4 == 0);
            c.touch(b / 2 * 2);
            c.assert_index_coherent();
        }
        let set = c.set_of(0);
        let k = 2;
        let via_index: Vec<u64> = {
            let mut v: Vec<u64> = c
                .dirty()
                .blocks(set, c.dirty().in_lru_ways(set, k))
                .collect();
            v.sort_unstable();
            v
        };
        let via_probe: Vec<u64> = {
            let mut v: Vec<u64> = c
                .blocks()
                .filter(|&(b, d, _)| {
                    d && c.set_of(b) == set && c.dirty().probe(b).unwrap().rank < k
                })
                .map(|(b, _, _)| b)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(via_index, via_probe);
    }
}
