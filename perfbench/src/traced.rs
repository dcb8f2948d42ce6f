//! The traced pass: a per-layer host-time profile taken from outside
//! the simulator.
//!
//! `System`'s core engine is private, so this module rebuilds the hierarchy
//! from public parts — `TraceGenerator`, a private L1/L2 filter made of
//! `cache_sim::Cache` with `SystemConfig`'s geometry, `SharedLlc` and
//! `MemoryController` — and records, in memory, the calls that cross each
//! layer boundary, plus sampled spans. Its core model is a plain per-core
//! cycle clock (gap + 1 per record, dependent loads wait for the previous
//! load), not `System`'s reorder window, so its call counts are printed
//! next to the untraced run's counters to show how faithful it is.
//!
//! Each layer is then timed on its own by replaying the recorded calls
//! into a fresh instance. A layer's state depends only on the calls it
//! receives, so a replay repeats the traced run's work exactly (the replay
//! checks its counters against the traced run's). Layers whose calls can
//! be replayed alone in one loop — the trace generator, each private
//! cache — are timed around the whole loop, free of per-call timer cost;
//! the LLC, DBI and DRAM calls are timed one by one and the measured cost
//! of an empty span is subtracted. LLC calls include the DBI and DRAM work
//! done inside them.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::{Cache, CacheConfig, InsertPos, ThreadId};
use dbi::{Dbi, DbiStats};
use dram_sim::{DramStats, MemoryController};
use system_sim::{LlcStats, SharedLlc, SystemConfig};
use trace_gen::{MemOp, TraceGenerator};

use dbi_bench::RunUnit;

/// Per-core address regions are aligned like `System`'s (1 MB of blocks),
/// so cores never share a DRAM row.
const CORE_REGION_ALIGN: u64 = 1 << 14;

/// Every this many records one record's spans go to the span log.
const SAMPLE_EVERY: u64 = 4096;

/// Span-log capacity; later sampled spans are dropped.
const SPAN_LOG_CAP: usize = 50_000;

/// The layer boundaries the span log names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Record,
    Trace,
    L1,
    L2,
    LlcRead,
    LlcWriteback,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Record => "record",
            Layer::Trace => "trace.next_record",
            Layer::L1 => "cache.l1",
            Layer::L2 => "cache.l2",
            Layer::LlcRead => "llc.read",
            Layer::LlcWriteback => "llc.writeback",
        }
    }
}

/// Calls and host nanoseconds accumulated at one boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub calls: u64,
    pub nanos: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.nanos += ns;
    }

    pub fn merge(&mut self, other: Acc) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }

    /// Nanoseconds per call after removing `timer_ns`, the cost of one
    /// empty span, from every call; never below zero.
    pub fn net_ns_per_call(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.nanos as f64 / self.calls as f64 - timer_ns).max(0.0)
    }
}

/// Times one call into `acc`.
#[inline(always)]
fn timed<R>(acc: &mut Acc, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    acc.add(t.elapsed().as_nanos() as u64);
    r
}

/// Host nanoseconds one empty timed call costs, the median of many
/// batches.
pub fn timer_cost_ns() -> f64 {
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let mut acc = Acc::default();
            for _ in 0..2000 {
                timed(&mut acc, || black_box(0u64));
            }
            acc.nanos as f64 / acc.calls as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// One recorded span: a layer call, its interval from the start of the
/// run, and the record span that caused it (0 for a record span).
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The sampled in-memory span log: every call of every
/// `SAMPLE_EVERY`-th record.
#[derive(Debug)]
struct SpanLog {
    spans: Vec<Span>,
    origin: Instant,
    sampled: bool,
    parent: u32,
}

impl SpanLog {
    #[inline(always)]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.sampled {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.push(layer, t, Instant::now());
        r
    }

    fn push(&mut self, layer: Layer, start: Instant, end: Instant) -> u32 {
        if self.spans.len() < SPAN_LOG_CAP {
            self.spans.push(Span {
                name: layer.name(),
                parent: if layer == Layer::Record {
                    0
                } else {
                    self.parent
                },
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
        self.spans.len() as u32
    }

    fn tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// One call into a private cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheOp {
    core: u8,
    kind: CacheOpKind,
    block: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheOpKind {
    Touch,
    Insert { dirty: bool },
    MarkDirty,
}

/// One call into the LLC.
#[derive(Debug, Clone, Copy)]
pub struct LlcCall {
    write: bool,
    thread: ThreadId,
    block: u64,
    at: u64,
}

/// What the DRAM controller received, as seen from the LLC boundary: the
/// DRAM replay's input.
#[derive(Debug, Clone, Copy)]
pub enum DramEvent {
    Read { block: u64, at: u64 },
    Write { block: u64, at: u64 },
}

struct Core {
    thread: ThreadId,
    generator: TraceGenerator,
    offset: u64,
    l1: Cache,
    l2: Cache,
    cycle: u64,
    insts: u64,
    records: u64,
    last_load: u64,
}

/// The shared levels plus everything the traced pass records.
struct Shared {
    llc: SharedLlc,
    dram: MemoryController,
    log: SpanLog,
    l1_lat: u64,
    l2_lat: u64,
    row_blocks: u64,
    l1_ops: Vec<CacheOp>,
    l2_ops: Vec<CacheOp>,
    llc_calls: Vec<LlcCall>,
    dram_events: Vec<DramEvent>,
}

/// Outcome of one traced unit.
#[derive(Debug)]
pub struct TracedUnit {
    pub wall_s: f64,
    pub records: u64,
    pub insts: u64,
    pub records_per_core: Vec<u64>,
    pub l1: (u64, u64),
    pub l2: (u64, u64),
    pub llc: LlcStats,
    pub dram: DramStats,
    pub dbi: Option<DbiStats>,
    pub l1_ops: Vec<CacheOp>,
    pub l2_ops: Vec<CacheOp>,
    pub llc_calls: Vec<LlcCall>,
    pub dram_events: Vec<DramEvent>,
    pub spans_tsv: String,
}

fn private_cache(config: &SystemConfig, bytes: u64, ways: usize) -> Cache {
    Cache::new(
        CacheConfig::new(bytes, ways, config.block_bytes)
            .expect("system configurations have valid private caches"),
    )
}

/// One generator per core, seeded as `System` seeds them, with each
/// core's address offset.
fn generators(unit: &RunUnit) -> Vec<(TraceGenerator, u64)> {
    let mut offset = 0u64;
    unit.mix
        .benchmarks()
        .iter()
        .enumerate()
        .map(|(i, &bench)| {
            let seed = unit.config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let generator = TraceGenerator::from_benchmark(bench, seed);
            let this = offset;
            offset +=
                generator.address_space_blocks().div_ceil(CORE_REGION_ALIGN) * CORE_REGION_ALIGN;
            (generator, this)
        })
        .collect()
}

/// Runs `unit` through the traced hierarchy: every core retires its warmup
/// plus measurement quota; the earliest core steps next, as in `System`.
pub fn run_traced(unit: &RunUnit) -> TracedUnit {
    let config = &unit.config;
    let mut cores: Vec<Core> = generators(unit)
        .into_iter()
        .enumerate()
        .map(|(i, (generator, offset))| Core {
            thread: i as ThreadId,
            generator,
            offset,
            l1: private_cache(config, config.l1_bytes, config.l1_ways),
            l2: private_cache(config, config.l2_bytes, config.l2_ways),
            cycle: 0,
            insts: 0,
            records: 0,
            last_load: 0,
        })
        .collect();
    let mut sh = Shared {
        llc: SharedLlc::new(config),
        dram: MemoryController::new(config.dram.clone()),
        log: SpanLog {
            spans: Vec::new(),
            origin: Instant::now(),
            sampled: false,
            parent: 0,
        },
        l1_lat: config.latencies.l1,
        l2_lat: config.latencies.l2,
        row_blocks: u64::from(config.dram.mapping.blocks_per_row()),
        l1_ops: Vec::new(),
        l2_ops: Vec::new(),
        llc_calls: Vec::new(),
        dram_events: Vec::new(),
    };
    let quota = config.warmup_insts + config.measure_insts;
    let mut records = 0u64;
    let start = Instant::now();
    loop {
        let next = cores
            .iter_mut()
            .filter(|c| c.insts < quota)
            .min_by_key(|c| c.cycle);
        let Some(core) = next else { break };
        // A record makes at most a dozen spans; sample only with room for
        // all of them, so a record span is never dropped.
        sh.log.sampled =
            records.is_multiple_of(SAMPLE_EVERY) && sh.log.spans.len() + 64 < SPAN_LOG_CAP;
        if sh.log.sampled {
            let t = Instant::now();
            sh.log.parent = sh.log.push(Layer::Record, t, t);
            sh.step(core);
            let id = sh.log.parent as usize;
            if let Some(s) = sh.log.spans.get_mut(id - 1) {
                s.end_ns = (Instant::now() - sh.log.origin).as_nanos() as u64;
            }
        } else {
            sh.step(core);
        }
        core.records += 1;
        records += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let sum = |f: &dyn Fn(&Core) -> u64| cores.iter().map(f).sum::<u64>();
    TracedUnit {
        wall_s,
        records,
        insts: sum(&|c| c.insts),
        records_per_core: cores.iter().map(|c| c.records).collect(),
        l1: (sum(&|c| c.l1.stats().lookups), sum(&|c| c.l1.stats().hits)),
        l2: (sum(&|c| c.l2.stats().lookups), sum(&|c| c.l2.stats().hits)),
        llc: sh.llc.stats().clone(),
        dram: *sh.dram.stats(),
        dbi: sh.llc.dbi().map(|d| *d.stats()),
        l1_ops: sh.l1_ops,
        l2_ops: sh.l2_ops,
        llc_calls: sh.llc_calls,
        dram_events: sh.dram_events,
        spans_tsv: sh.log.tsv(),
    }
}

impl Shared {
    fn l1(&mut self, core: &mut Core, kind: CacheOpKind, block: u64) -> (bool, Option<u64>) {
        self.l1_ops.push(CacheOp {
            core: core.thread,
            kind,
            block,
        });
        self.log.span(Layer::L1, || {
            cache_call(&mut core.l1, core.thread, kind, block)
        })
    }

    fn l2(&mut self, core: &mut Core, kind: CacheOpKind, block: u64) -> (bool, Option<u64>) {
        self.l2_ops.push(CacheOp {
            core: core.thread,
            kind,
            block,
        });
        self.log.span(Layer::L2, || {
            cache_call(&mut core.l2, core.thread, kind, block)
        })
    }

    fn step(&mut self, core: &mut Core) {
        let record = self.log.span(Layer::Trace, || core.generator.next_record());
        let n = u64::from(record.gap) + 1;
        core.cycle += n;
        core.insts += n;
        let addr = record.addr + core.offset;
        match record.op {
            MemOp::Read => {
                if record.dependent {
                    core.cycle = core.cycle.max(core.last_load);
                }
                if self.l1(core, CacheOpKind::Touch, addr).0 {
                    return;
                }
                if self.l2(core, CacheOpKind::Touch, addr).0 {
                    self.fill_l1(core, addr, false);
                    return;
                }
                let completion = self.llc_read(core, addr);
                core.last_load = core.last_load.max(completion);
                self.fill_l2(core, addr);
                self.fill_l1(core, addr, false);
            }
            MemOp::Write => {
                if self.l1(core, CacheOpKind::Touch, addr).0 {
                    self.l1(core, CacheOpKind::MarkDirty, addr);
                    return;
                }
                if !self.l2(core, CacheOpKind::Touch, addr).0 {
                    self.llc_read(core, addr);
                    self.fill_l2(core, addr);
                }
                self.fill_l1(core, addr, true);
            }
        }
    }

    fn fill_l1(&mut self, core: &mut Core, addr: u64, dirty: bool) {
        let (_, victim) = self.l1(core, CacheOpKind::Insert { dirty }, addr);
        if let Some(block) = victim {
            // The dirty L1 victim is written back into L2.
            if self.l2(core, CacheOpKind::Touch, block).0 {
                self.l2(core, CacheOpKind::MarkDirty, block);
            } else if let (_, Some(v)) = self.l2(core, CacheOpKind::Insert { dirty: true }, block) {
                self.llc_writeback(core, v);
            }
        }
    }

    fn fill_l2(&mut self, core: &mut Core, addr: u64) {
        if let (_, Some(v)) = self.l2(core, CacheOpKind::Insert { dirty: false }, addr) {
            self.llc_writeback(core, v);
        }
    }

    fn llc_read(&mut self, core: &Core, block: u64) -> u64 {
        let at = core.cycle + self.l1_lat + self.l2_lat;
        let reads0 = self.dram_reads();
        let writes0 = self.llc.stats().dram_writes();
        let (llc, dram) = (&mut self.llc, &mut self.dram);
        let outcome = self.log.span(Layer::LlcRead, || {
            llc.read(block, core.thread, at, dram, None)
        });
        self.llc_calls.push(LlcCall {
            write: false,
            thread: core.thread,
            block,
            at,
        });
        if self.dram_reads() > reads0 {
            self.dram_events.push(DramEvent::Read { block, at });
        }
        self.observe_writes(block, at, writes0);
        outcome.completion
    }

    fn llc_writeback(&mut self, core: &Core, block: u64) {
        let at = core.cycle;
        let writes0 = self.llc.stats().dram_writes();
        let (llc, dram) = (&mut self.llc, &mut self.dram);
        self.log.span(Layer::LlcWriteback, || {
            llc.writeback(block, core.thread, at, dram, None)
        });
        self.llc_calls.push(LlcCall {
            write: true,
            thread: core.thread,
            block,
            at,
        });
        self.observe_writes(block, at, writes0);
    }

    fn dram_reads(&self) -> u64 {
        let s = self.dram.stats();
        s.reads + s.buffer_forwards
    }

    /// The LLC's DRAM writes are visible from outside only as a count.
    /// Evictions, sweeps and DBI evictions all write within one DRAM row,
    /// so the replay stands in the `k` writes of a call by `k` blocks of
    /// the accessed block's row, starting at that block.
    fn observe_writes(&mut self, block: u64, at: u64, before: u64) {
        let k = self.llc.stats().dram_writes() - before;
        let base = block - block % self.row_blocks;
        for j in 0..k {
            let b = base + (block % self.row_blocks + j) % self.row_blocks;
            self.dram_events.push(DramEvent::Write { block: b, at });
        }
    }
}

/// Performs one private-cache call; returns whether a lookup hit and the
/// block of a dirty victim, if any.
#[inline(always)]
fn cache_call(
    cache: &mut Cache,
    thread: ThreadId,
    kind: CacheOpKind,
    block: u64,
) -> (bool, Option<u64>) {
    match kind {
        CacheOpKind::Touch => (cache.touch(block), None),
        CacheOpKind::MarkDirty => (cache.mark_dirty(block, true), None),
        CacheOpKind::Insert { dirty } => (
            false,
            cache
                .insert(block, thread, InsertPos::Mru, dirty)
                .filter(|v| v.dirty)
                .map(|v| v.block),
        ),
    }
}

/// Host seconds for the generators alone to produce each core's records.
pub fn replay_trace(unit: &RunUnit, records_per_core: &[u64]) -> f64 {
    let mut gens = generators(unit);
    let start = Instant::now();
    for ((g, _), &n) in gens.iter_mut().zip(records_per_core) {
        for _ in 0..n {
            black_box(g.next_record());
        }
    }
    start.elapsed().as_secs_f64()
}

/// Host seconds for fresh private caches of `bytes`/`ways` to serve
/// `ops`; also returns their `(lookups, hits)` to check against the traced
/// run.
pub fn replay_cache(
    ops: &[CacheOp],
    config: &SystemConfig,
    cores: usize,
    bytes: u64,
    ways: usize,
) -> (f64, (u64, u64)) {
    let mut caches: Vec<Cache> = (0..cores)
        .map(|_| private_cache(config, bytes, ways))
        .collect();
    let start = Instant::now();
    for op in ops {
        black_box(cache_call(
            &mut caches[usize::from(op.core)],
            op.core,
            op.kind,
            op.block,
        ));
    }
    let secs = start.elapsed().as_secs_f64();
    let lookups = caches.iter().map(|c| c.stats().lookups).sum();
    let hits = caches.iter().map(|c| c.stats().hits).sum();
    (secs, (lookups, hits))
}

/// Host time of the LLC on its own.
#[derive(Debug, Default)]
pub struct LlcReplay {
    pub read: Acc,
    pub writeback: Acc,
    pub stats: LlcStats,
}

/// Replays the LLC calls into a fresh LLC and DRAM controller, timing
/// each call.
pub fn replay_llc(calls: &[LlcCall], config: &SystemConfig) -> LlcReplay {
    let mut llc = SharedLlc::new(config);
    let mut dram = MemoryController::new(config.dram.clone());
    let mut out = LlcReplay::default();
    for c in calls {
        if c.write {
            timed(&mut out.writeback, || {
                llc.writeback(c.block, c.thread, c.at, &mut dram, None);
            });
        } else {
            black_box(timed(&mut out.read, || {
                llc.read(c.block, c.thread, c.at, &mut dram, None)
            }));
        }
    }
    out.stats = llc.stats().clone();
    out
}

/// Host time of the DBI on its own.
#[derive(Debug, Default)]
pub struct DbiReplay {
    pub mark: Acc,
    pub query: Acc,
    pub allocs: u64,
    pub stats: DbiStats,
}

/// Replays what the LLC received into a fresh `Dbi` with `config`'s
/// geometry: every writeback as a mark, through the same allocation-free
/// call the LLC uses, and every demand read as a dirty-status query.
pub fn replay_dbi(calls: &[LlcCall], config: &SystemConfig) -> DbiReplay {
    let mut dbi = Dbi::new(
        config
            .dbi
            .build(config.llc_blocks())
            .expect("system configurations have valid DBI geometry"),
    );
    let mut out = DbiReplay::default();
    let mut scratch = Vec::with_capacity(256);
    for c in calls {
        if c.write {
            scratch.clear();
            let a0 = crate::allocations();
            black_box(timed(&mut out.mark, || {
                dbi.mark_dirty_into(c.block, &mut scratch)
            }));
            out.allocs += crate::allocations() - a0;
        } else {
            black_box(timed(&mut out.query, || dbi.is_dirty(c.block)));
        }
    }
    out.stats = *dbi.stats();
    out
}

/// Host time of the DRAM controller on its own.
#[derive(Debug, Default)]
pub struct DramReplay {
    pub read: Acc,
    /// Enqueues that did not drain.
    pub write: Acc,
    /// Enqueues that triggered a drain of the write buffer.
    pub drain: Acc,
    pub stats: DramStats,
}

/// Replays a DRAM event stream into a fresh controller.
pub fn replay_dram(events: &[DramEvent], config: &SystemConfig) -> DramReplay {
    let mut mc = MemoryController::new(config.dram.clone());
    let mut out = DramReplay::default();
    for e in events {
        match *e {
            DramEvent::Read { block, at } => {
                black_box(timed(&mut out.read, || mc.read(block, at)));
            }
            DramEvent::Write { block, at } => {
                let drains = mc.stats().drains;
                let mut acc = Acc::default();
                timed(&mut acc, || mc.enqueue_write(block, at));
                if mc.stats().drains > drains {
                    out.drain.merge(acc);
                } else {
                    out.write.merge(acc);
                }
            }
        }
    }
    out.stats = *mc.stats();
    out
}
