//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds N --trace 0|1
//! perfbench --workload NAME --bless
//! perfbench compare A.json B.json
//! ```
//!
//! One closed-loop process per run, at most `nproc` threads. A run first
//! replays its workload at the default seed and checks every result
//! against the committed reference digests, then measures for `--seconds`
//! at `--seed`. With `--trace 0` it reports the end-to-end metrics, with
//! `--trace 1` the per-layer metrics from a separate traced pass. Every
//! metric is printed by name with its unit; the last stdout line is the
//! JSON result. The full result, with the host record, is also written to
//! `out/` beside this package, and `compare` sets two of those side by
//! side — only when both came from hosts with the same `nproc`.

mod measure;
mod stats;
mod traced;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use system_sim::{Mechanism, MixResult};

use crate::measure::{Pass, WorkDir};
use crate::stats::{json_num, json_str, median, tail_over_passes, Metrics, Tail};
use crate::workload::{slug, Gate, Scale, Workload, DEFAULT_SEED};

/// Counts heap allocations (and reallocations) so that allocations per
/// simulated record can be reported per mechanism.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the caller's
// own arguments, so the caller's guarantees carry over unchanged; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const USAGE: &str = "usage:
    perfbench --workload NAME --seed N --seconds N --trace 0|1
    perfbench --workload NAME --bless      rewrite the reference digests
    perfbench compare A.json B.json        compare two result files
workloads: sim-write-mix, sim-read-mix, campaign";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum Command {
    Run(Opts),
    Bless(Workload),
    Compare(PathBuf, PathBuf),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare takes two result files".to_string()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless {
        return Ok(Command::Bless(workload));
    }
    Ok(Command::Run(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match command {
        Command::Run(opts) => run_and_report(&opts),
        Command::Bless(w) => bless(w),
        Command::Compare(a, b) => compare(&a, &b),
    };
    std::process::exit(code);
}

/// What the host looked like; carried by every result.
struct Host {
    nproc: usize,
    cpu: String,
    profile: &'static str,
    rustc: &'static str,
}

impl Host {
    fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: workload::nproc(),
            cpu,
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of one run.
struct Outcome {
    metrics: Metrics,
    gate: Gate,
    tail: Option<Tail>,
    trace_overhead: Option<f64>,
    /// Human-readable lines beyond the metric list.
    notes: Vec<String>,
    spans: Option<String>,
    /// Traced runs: host ns per record of each layer and of the residual,
    /// which sum to `sim.ns_per_record`.
    breakdown: Vec<(&'static str, f64)>,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_and_report(opts: &Opts) -> i32 {
    let host = Host::probe();
    if host.profile != "release" {
        eprintln!(
            "perfbench: warning: {} build; host times are only comparable across release builds",
            host.profile
        );
    }
    let outcome = match run(opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let g = &outcome.gate;
    let correct = g.failed == 0;
    let w = opts.workload.name();
    println!(
        "host: nproc={} cpu={:?} profile={} rustc={:?} seed={} trace_overhead={}",
        host.nproc,
        host.cpu,
        host.profile,
        host.rustc,
        opts.seed,
        outcome
            .trace_overhead
            .map_or_else(|| "n/a (untraced run)".to_string(), |x| format!("{x:.3}")),
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    if !outcome.breakdown.is_empty() {
        let total: f64 = outcome.breakdown.iter().map(|(_, v)| v).sum();
        println!(
            "breakdown (host ns per record; layers + residual = sim.ns_per_record {total:.1}):"
        );
        for (name, v) in &outcome.breakdown {
            println!("  {name:<34} {v:>8.1}  {:>5.1}%", 100.0 * v / total);
        }
    }
    println!(
        "correctness: {} units checked, {} failed, error_rate {} ratio ({})",
        g.attempted,
        g.failed,
        g.error_rate(),
        if correct { "ok" } else { "FAILED" }
    );
    for p in &g.problems {
        println!("  {p}");
    }
    for m in outcome.metrics.iter() {
        let extra = match (&outcome.tail, m.name.as_str()) {
            (Some(t), "unit_wall_s_tail") if t.passes > 1 => format!(
                "  (p{:.1} of each pass's {} units, {} beyond; median over {} passes)",
                t.percentile, t.samples, t.beyond, t.passes
            ),
            (Some(t), "unit_wall_s_tail") => format!(
                "  (p{:.1} of {} samples, {} beyond)",
                t.percentile, t.samples, t.beyond
            ),
            _ => String::new(),
        };
        println!("{w} {} {} {}{extra}", m.name, m.value, m.unit);
    }

    let stem = format!("{w}-seed{}-trace{}", opts.seed, u8::from(opts.trace));
    let file = result_file(opts, &host, &outcome, correct);
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), file))
        .and_then(|()| match &outcome.spans {
            Some(tsv) => std::fs::write(dir.join(format!("{stem}.spans.tsv")), tsv),
            None => Ok(()),
        });
    match written {
        Ok(()) => println!("result: {}", dir.join(format!("{stem}.json")).display()),
        Err(e) => eprintln!("perfbench: could not write the result file: {e}"),
    }
    println!(
        "{}",
        stats::result_line(correct, g.attempted, g.failed, &outcome.metrics)
    );
    0
}

/// The full result with its host record, one metric per line (the shape
/// `compare` reads back).
fn result_file(opts: &Opts, host: &Host, o: &Outcome, correct: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"workload\": {},\n",
        json_str(opts.workload.name())
    ));
    s.push_str(&format!(
        "  \"host\": {{\"nproc\": {}, \"cpu\": {}, \"profile\": {}, \"rustc\": {}, \"seed\": {}, \"trace_overhead\": {}}},\n",
        host.nproc,
        json_str(&host.cpu),
        json_str(host.profile),
        json_str(host.rustc),
        opts.seed,
        o.trace_overhead.map_or_else(|| "null".to_string(), json_num),
    ));
    s.push_str(&format!(
        "  \"trace\": {},\n  \"seconds\": {},\n  \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_rate\": {},\n",
        u8::from(opts.trace),
        opts.seconds,
        o.gate.attempted,
        o.gate.failed,
        json_num(o.gate.error_rate()),
    ));
    if let Some(t) = &o.tail {
        s.push_str(&format!(
            "  \"unit_wall_s_tail\": {{\"percentile\": {}, \"samples\": {}, \"beyond\": {}, \"passes\": {}}},\n",
            json_num(t.percentile),
            t.samples,
            t.beyond,
            t.passes
        ));
    }
    let notes: Vec<String> = o.notes.iter().map(|n| json_str(n)).collect();
    s.push_str(&format!("  \"notes\": [{}],\n", notes.join(", ")));
    s.push_str("  \"metrics\": {\n");
    let lines: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

/// Reads `nproc` and the metric lines back from a result file.
fn read_result(text: &str) -> Option<(usize, Vec<(String, f64)>)> {
    let after = text.split_once("\"nproc\": ")?.1;
    let nproc = after
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    let metrics_part = text.split_once("\"metrics\": {")?.1;
    let metrics = metrics_part
        .lines()
        .filter_map(|l| {
            let (name, rest) = l.trim().strip_prefix('"')?.split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect();
    Some((nproc, metrics))
}

fn compare(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|t| read_result(&t))
            .ok_or_else(|| format!("{} is not a perfbench result file", p.display()))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if ra.0 != rb.0 {
        eprintln!(
            "perfbench: refusing to compare results from hosts with nproc {} and {}",
            ra.0, rb.0
        );
        return 2;
    }
    println!("metric\tA\tB\tB/A");
    for (name, va) in &ra.1 {
        if let Some((_, vb)) = rb.1.iter().find(|(n, _)| n == name) {
            println!("{name}\t{va}\t{vb}\t{:.4}", vb / va);
        }
    }
    0
}

/// Rewrites this workload's reference digests from a run at the default
/// seed.
fn bless(w: Workload) -> i32 {
    let Ok(mut work) = WorkDir::new(w) else {
        eprintln!("perfbench: cannot create a work directory");
        return 1;
    };
    let (list, pass) = default_seed_pass(w, &mut work);
    let mut digests = Vec::new();
    for (label, u) in list.labels.iter().zip(&pass.units) {
        let Some(r) = &u.result else {
            eprintln!("perfbench: {label} failed; nothing written");
            return 1;
        };
        digests.push((label.clone(), workload::digest(r)));
    }
    let path = workload::reference_path();
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    match std::fs::write(&path, workload::bless(&existing, w, &digests)) {
        Ok(()) => {
            println!("wrote {} digests to {}", digests.len(), path.display());
            0
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", path.display());
            1
        }
    }
}

/// Checks every unit of a pass through the gate.
fn check_pass(gate: &mut Gate, seed: u64, labels: &[String], pass: &Pass) {
    for (label, u) in labels.iter().zip(&pass.units) {
        gate.check(seed, label, u.result.as_ref());
    }
}

/// One pass over the workload at the default seed and the measured scale,
/// run the way the workload runs its units.
fn default_seed_pass(w: Workload, work: &mut WorkDir) -> (workload::WorkList, Pass) {
    if w.is_sim() {
        let list = w.work_list(DEFAULT_SEED, w.scale());
        let pass = measure::sim_pass(&list.units);
        (list, pass)
    } else {
        let (pass, list) =
            measure::campaign_pass(w, DEFAULT_SEED, w.scale(), &work.fresh(), w.jobs());
        (list, pass)
    }
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    let w = opts.workload;
    let mut work = WorkDir::new(w).map_err(|e| format!("cannot create a work directory: {e}"))?;
    let mut gate = Gate::new(w);
    // Checks the committed reference digests, and warms the process
    // (allocator, page cache, CPU clocks) before anything is timed.
    let (list, pass) = default_seed_pass(w, &mut work);
    check_pass(&mut gate, DEFAULT_SEED, &list.labels, &pass);
    if opts.trace {
        traced_run(opts, w.scale(), gate, &mut work)
    } else {
        end_to_end_run(opts, w.scale(), gate, &mut work)
    }
}

/// Warm reruns after each cold pass.
const WARM_RERUNS_PER_PASS: usize = 20;

/// The untraced run: cold passes until nine tenths of the budget are
/// spent, each followed by warm reruns from a store holding its results,
/// so that every median samples the whole run. Every host time is scaled
/// to the nominal host speed by the [`measure::HostSpeed`] probes timed
/// between the pieces of each pass: before every sim unit or before the
/// campaign pass, after the pass, and after its warm reruns.
fn end_to_end_run(
    opts: &Opts,
    scale: Scale,
    mut gate: Gate,
    work: &mut WorkDir,
) -> Result<Outcome, String> {
    let (w, seed) = (opts.workload, opts.seed);
    let budget = opts.seconds as f64;
    let mut speed = measure::HostSpeed::new();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut list = w.work_list(seed, scale);
    // Scaled samples.
    let (mut setups, mut pass_walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warm_walls, mut factors) = (Vec::new(), Vec::new());
    let mut unit_walls_by_pass: Vec<Vec<f64>> = Vec::new();
    loop {
        let store = work.fresh();
        // Probes taken during this pass and its warm reruns; every sample
        // of the pass is scaled by their median.
        let mut probes = Vec::new();
        let pass = if w.is_sim() {
            let mut units = Vec::with_capacity(list.len());
            for unit in &list.units {
                probes.push(speed.factor());
                units.push(measure::run_direct(unit));
            }
            let pass = Pass {
                wall_s: units.iter().map(|u| u.wall_s).sum(),
                setup_s: None,
                units,
            };
            let results: Vec<&MixResult> = pass
                .units
                .iter()
                .filter_map(|u| u.result.as_ref())
                .collect();
            if results.len() == list.len() {
                measure::save_all(&store, &list, &results)
                    .map_err(|e| format!("cannot populate the store: {e}"))?;
            }
            pass
        } else {
            probes.push(speed.factor());
            let (pass, l) = measure::campaign_pass(w, seed, scale, &store, w.jobs());
            list = l;
            pass
        };
        probes.push(speed.factor());
        check_pass(&mut gate, seed, &list.labels, &pass);
        let mut warm = Vec::with_capacity(WARM_RERUNS_PER_PASS);
        for _ in 0..WARM_RERUNS_PER_PASS {
            let rerun = measure::warm_rerun(w, seed, scale, &store, w.jobs());
            if rerun.sims != 0 {
                gate.fail(format!(
                    "warm rerun simulated {} units (sims must be 0)",
                    rerun.sims
                ));
            }
            for (label, r) in list.labels.iter().zip(&rerun.results) {
                gate.check(seed, label, Some(r));
            }
            warm.push(rerun);
        }
        probes.push(speed.factor());

        let f = median(&probes).expect("at least two probes");
        unit_walls_by_pass.push(pass.units.iter().map(|u| u.wall_s * f).collect());
        let unit_setups = pass.units.iter().filter_map(|u| u.setup_s);
        setups.extend(unit_setups.chain(pass.setup_s).map(|s| s * f));
        if !w.is_sim() {
            setups.extend(warm.iter().map(|r| r.setup_s * f));
        }
        warm_walls.extend(warm.iter().map(|r| r.wall_s * f));
        pass_walls.push(pass.wall_s * f);
        rates.push(pass.records() as f64 / (pass.wall_s * f));
        factors.push(f);
        passes.push(pass);
        let _ = std::fs::remove_dir_all(&store);
        let mean = start.elapsed().as_secs_f64() / passes.len() as f64;
        if passes.len() >= 2 && start.elapsed().as_secs_f64() + mean > 0.9 * budget {
            break;
        }
    }

    let unit_walls = unit_walls_by_pass.concat();
    let unit_tail = tail_over_passes(&unit_walls_by_pass);
    let mut m = Metrics::default();
    m.push("sim_records_per_s", median(&rates).unwrap_or(0.0), "1/s");
    m.push("unit_wall_s_p50", median(&unit_walls).unwrap_or(0.0), "s");
    m.push("unit_wall_s_tail", unit_tail.map_or(0.0, |t| t.value), "s");
    m.push("setup_s", median(&setups).unwrap_or(0.0), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push("campaign_wall_s", median(&pass_walls).unwrap_or(0.0), "s");
    m.push("warm_rerun_s", median(&warm_walls).unwrap_or(0.0), "s");

    let raw_pass: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let raw_rates: Vec<f64> = passes
        .iter()
        .map(|p| p.records() as f64 / p.wall_s)
        .collect();
    let f_med = median(&factors).unwrap_or(1.0);
    let f_min = factors.iter().copied().fold(f64::INFINITY, f64::min);
    let f_max = factors.iter().copied().fold(0.0, f64::max);
    let mut notes = vec![
        format!(
            "measured: {} cold passes of {} units ({} unit samples, {} set-up samples), {} warm reruns, jobs {}",
            passes.len(),
            list.len(),
            unit_walls.len(),
            setups.len(),
            warm_walls.len(),
            w.jobs()
        ),
        format!(
            "host speed: host times are scaled to a nominal host that runs the reference probe in \
             {} ms; scale factor median {f_med:.3} (min {f_min:.3}, max {f_max:.3}); unscaled \
             medians: sim_records_per_s {:.0} 1/s, campaign_wall_s {:.4} s",
            measure::HostSpeed::NOMINAL_S * 1e3,
            median(&raw_rates).unwrap_or(0.0),
            median(&raw_pass).unwrap_or(0.0),
        ),
    ];
    if w.is_sim() {
        notes.extend(simulated_report(&list, &passes[0]));
    }
    Ok(Outcome {
        metrics: m,
        gate,
        tail: unit_tail,
        trace_overhead: None,
        notes,
        spans: None,
        breakdown: Vec::new(),
    })
}

/// Simulated-time figures of one pass, per mechanism.
fn simulated_report(list: &workload::WorkList, pass: &Pass) -> Vec<String> {
    let c = &list.units[0].config;
    let mut out = vec![format!(
        "simulated (model time, not host time; a {} M-instruction measurement window per core \
         after {} M of in-simulator warmup, caches start empty; the model is not validated \
         against hardware — its only reference is the paper's Fig 6/7, whose effect sizes \
         EXPERIMENTS.md puts at 1/5-1/3 of the paper's; no error figure is given):",
        c.measure_insts as f64 / 1e6,
        c.warmup_insts as f64 / 1e6
    )];
    let mut ipc_of = Vec::new();
    for (m, u) in list.mechanisms.iter().zip(&pass.units) {
        let Some(r) = &u.result else { continue };
        let ipc: f64 = r.ipcs().iter().sum();
        ipc_of.push((*m, ipc));
        out.push(format!(
            "  simulated {:<12} ipc_sum {:.4}  llc_tag_lookups_pki {:.2}  dram_wpki {:.3}  write_row_hit {:.3}",
            m.label(),
            ipc,
            r.tag_lookups_pki(),
            r.wpki(),
            r.dram.write_row_hit_rate().unwrap_or(0.0)
        ));
    }
    let find = |x: Mechanism| ipc_of.iter().find(|(m, _)| *m == x).map(|(_, v)| *v);
    let dbi = Mechanism::Dbi {
        awb: true,
        clb: true,
    };
    if let (Some(base), Some(d)) = (find(Mechanism::Baseline), find(dbi)) {
        out.push(format!(
            "  simulated ipc gain of DBI+AWB+CLB over Baseline: {:+.2}%",
            (d / base - 1.0) * 100.0
        ));
    }
    out
}

/// Sums over traced units.
#[derive(Default)]
struct TraceTotals {
    wall_s: f64,
    records: u64,
    insts: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    trace_s: f64,
    l1_s: f64,
    l2_s: f64,
    llc_read: traced::Acc,
    llc_writeback: traced::Acc,
    llc: LlcCounts,
    dram_reads: u64,
    dram_writes: u64,
    dbi_marks: u64,
    dbi_mark: traced::Acc,
    dbi_query: traced::Acc,
    dbi_allocs: u64,
    dbi_evictions: u64,
    dram_read: traced::Acc,
    dram_write: traced::Acc,
    dram_drain: traced::Acc,
    replay_reads: u64,
    replay_read_hits: u64,
    replay_writes: u64,
    replay_write_hits: u64,
}

/// The LLC counters the per-layer metrics use.
#[derive(Default)]
struct LlcCounts {
    demand_reads: u64,
    demand_hits: u64,
    bypasses: u64,
    tag_lookups: u64,
    writebacks: u64,
    sweeps: u64,
}

/// The traced run: an untraced direct pass over the traced units, the
/// traced pass over the same units with every layer replayed on its own,
/// then the runner and the store timed over the whole work list.
fn traced_run(
    opts: &Opts,
    scale: Scale,
    mut gate: Gate,
    work: &mut WorkDir,
) -> Result<Outcome, String> {
    let (w, seed) = (opts.workload, opts.seed);
    let list = w.work_list(seed, scale);
    let n = w.traced_units().min(list.len());

    // Untraced baseline over the units the trace covers.
    let untraced = measure::sim_pass(&list.units[..n]);
    check_pass(&mut gate, seed, &list.labels[..n], &untraced);
    let run_s: f64 = untraced.units.iter().filter_map(|u| u.run_s).sum();
    let sim_ns = run_s * 1e9 / untraced.records().max(1) as f64;

    let timer_ns = traced::timer_cost_ns();
    let mut t = TraceTotals::default();
    let mut spans = None;
    let mut untraced_counts = [0u64; 4];
    for (i, unit) in list.units[..n].iter().enumerate() {
        let c = &unit.config;
        let tu = traced::run_traced(unit);
        t.wall_s += tu.wall_s;
        t.records += tu.records;
        t.insts += tu.insts;
        t.l1 = (t.l1.0 + tu.l1.0, t.l1.1 + tu.l1.1);
        t.l2 = (t.l2.0 + tu.l2.0, t.l2.1 + tu.l2.1);
        t.llc.demand_reads += tu.llc.demand_reads;
        t.llc.demand_hits += tu.llc.demand_hits;
        t.llc.bypasses += tu.llc.bypasses;
        t.llc.tag_lookups += tu.llc.tag_lookups;
        t.llc.writebacks += tu.llc.writebacks_received;
        t.llc.sweeps += tu.llc.sweep_writebacks;
        t.dram_reads += tu.dram.reads + tu.dram.buffer_forwards;
        t.dram_writes += tu.dram.writes;
        t.dbi_marks += tu.dbi.map_or(0, |d| d.mark_requests);

        // Each layer on its own; a replay that does different work from
        // the traced pass is a defect in the benchmark.
        let cores = tu.records_per_core.len();
        t.trace_s += traced::replay_trace(unit, &tu.records_per_core);
        let (s, counts) = traced::replay_cache(&tu.l1_ops, c, cores, c.l1_bytes, c.l1_ways);
        t.l1_s += s;
        let l1_ok = counts == tu.l1;
        let (s, counts) = traced::replay_cache(&tu.l2_ops, c, cores, c.l2_bytes, c.l2_ways);
        t.l2_s += s;
        let l2_ok = counts == tu.l2;
        let llc = traced::replay_llc(&tu.llc_calls, c);
        t.llc_read.merge(llc.read);
        t.llc_writeback.merge(llc.writeback);
        if !(l1_ok && l2_ok && llc.stats == tu.llc) {
            gate.fail(format!(
                "{}: a layer replay diverged from the traced pass",
                list.labels[i]
            ));
        }
        if c.mechanism.uses_dbi() {
            let r = traced::replay_dbi(&tu.llc_calls, c);
            t.dbi_mark.merge(r.mark);
            t.dbi_query.merge(r.query);
            t.dbi_allocs += r.allocs;
            t.dbi_evictions += r.stats.entry_evictions;
        }
        let r = traced::replay_dram(&tu.dram_events, c);
        t.dram_read.merge(r.read);
        t.dram_write.merge(r.write);
        t.dram_drain.merge(r.drain);
        t.replay_reads += r.stats.reads;
        t.replay_read_hits += r.stats.read_row_hits;
        t.replay_writes += r.stats.writes;
        t.replay_write_hits += r.stats.write_row_hits;

        if let Some(res) = &untraced.units[i].result {
            // Per-core counters cover each core's own measurement window.
            for core in &res.cores {
                untraced_counts[0] += core.insts;
                untraced_counts[1] += core.llc_reads;
                untraced_counts[2] += core.llc_read_misses;
                untraced_counts[3] += core.dram_writes;
            }
        }
        if i == 0 {
            spans = Some(tu.spans_tsv);
        }
    }

    // Runner and store over the whole work list.
    let (pass, _) = measure::campaign_pass(w, seed, scale, &work.fresh(), w.jobs());
    check_pass(&mut gate, seed, &list.labels, &pass);
    let unit_sum: f64 = pass.units.iter().map(|u| u.wall_s).sum();
    let unit_max = pass.units.iter().map(|u| u.wall_s).fold(0.0, f64::max);
    let efficiency = unit_sum / (pass.wall_s * w.jobs() as f64);
    let results: Vec<&MixResult> = pass
        .units
        .iter()
        .filter_map(|u| u.result.as_ref())
        .collect();
    let (saves, loads, opens) = if results.len() == list.len() {
        let dir = work.fresh();
        let saves = measure::save_all(&dir, &list, &results)
            .map_err(|e| format!("cannot populate the store: {e}"))?;
        let (loads, opens, missing) = measure::store_reads(&dir, &list, 21);
        if missing > 0 {
            gate.fail(format!("{missing} saved entries could not be read back"));
        }
        (saves, loads, opens)
    } else {
        gate.fail("the runner pass did not complete; store not measured".to_string());
        (Vec::new(), Vec::new(), Vec::new())
    };

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_record = |ns: f64| ns / t.records.max(1) as f64;
    let trace_ns = per_record(t.trace_s * 1e9);
    let l1_ns = t.l1_s * 1e9 / t.l1.0.max(1) as f64;
    let l2_ns = t.l2_s * 1e9 / t.l2.0.max(1) as f64;
    let rd_ns = t.llc_read.net_ns_per_call(timer_ns);
    let wb_ns = t.llc_writeback.net_ns_per_call(timer_ns);
    let layers = [
        ("trace", trace_ns),
        ("cache.l1", per_record(t.l1_s * 1e9)),
        ("cache.l2", per_record(t.l2_s * 1e9)),
        (
            "llc.read (incl. DBI, DRAM)",
            per_record(rd_ns * t.llc_read.calls as f64),
        ),
        (
            "llc.writeback (incl. DBI, DRAM)",
            per_record(wb_ns * t.llc_writeback.calls as f64),
        ),
    ];
    let residual = sim_ns - layers.iter().map(|(_, v)| v).sum::<f64>();
    let breakdown: Vec<(&'static str, f64)> = layers
        .into_iter()
        .chain([("residual (core window model, glue)", residual)])
        .collect();
    let overhead = per_record(t.wall_s * 1e9) / sim_ns;

    let mut m = Metrics::default();
    m.push("trace.ns_per_record", trace_ns, "ns");
    m.push("cache.l1.ns_per_access", l1_ns, "ns");
    m.push("cache.l2.ns_per_access", l2_ns, "ns");
    m.push("cache.l1.miss_ratio", 1.0 - ratio(t.l1.1, t.l1.0), "ratio");
    m.push("cache.l2.miss_ratio", 1.0 - ratio(t.l2.1, t.l2.0), "ratio");
    m.push("llc.read.ns_per_call", rd_ns, "ns");
    m.push("llc.writeback.ns_per_call", wb_ns, "ns");
    m.push(
        "llc.hit_ratio",
        ratio(t.llc.demand_hits, t.llc.demand_reads),
        "ratio",
    );
    m.push(
        "llc.bypass_ratio",
        ratio(t.llc.bypasses, t.llc.demand_reads),
        "ratio",
    );
    m.push(
        "llc.tag_lookups_per_access",
        ratio(t.llc.tag_lookups, t.llc.demand_reads + t.llc.writebacks),
        "count",
    );
    m.push(
        "llc.sweep_writebacks_per_kwb",
        1000.0 * ratio(t.llc.sweeps, t.llc.writebacks),
        "count/kwb",
    );
    m.push(
        "dbi.mark.ns_per_call",
        t.dbi_mark.net_ns_per_call(timer_ns),
        "ns",
    );
    m.push(
        "dbi.query.ns_per_call",
        t.dbi_query.net_ns_per_call(timer_ns),
        "ns",
    );
    m.push(
        "dbi.evictions_per_kmark",
        1000.0 * ratio(t.dbi_evictions, t.dbi_mark.calls),
        "count/kmark",
    );
    m.push(
        "dbi.allocs_per_mark",
        ratio(t.dbi_allocs, t.dbi_mark.calls),
        "count",
    );
    m.push(
        "dram.read.ns_per_call",
        t.dram_read.net_ns_per_call(timer_ns),
        "ns",
    );
    m.push(
        "dram.write.ns_per_call",
        t.dram_write.net_ns_per_call(timer_ns),
        "ns",
    );
    m.push(
        "dram.drain.ns_per_call",
        t.dram_drain.net_ns_per_call(timer_ns),
        "ns",
    );
    m.push(
        "dram.read_row_hit",
        ratio(t.replay_read_hits, t.replay_reads),
        "ratio",
    );
    m.push(
        "dram.write_row_hit",
        ratio(t.replay_write_hits, t.replay_writes),
        "ratio",
    );
    m.push("sim.ns_per_record", sim_ns, "ns");
    m.push("sim.residual_ns_per_record", residual, "ns");
    let allocs_per_record = |filter: &dyn Fn(Mechanism) -> bool| {
        let (a, r) = untraced
            .units
            .iter()
            .zip(&list.mechanisms)
            .filter(|(_, &mech)| filter(mech))
            .fold((0u64, 0u64), |(a, r), (u, _)| {
                (
                    a + u.run_allocs.unwrap_or(0),
                    r + u.result.as_ref().map_or(0, |x| x.records_processed),
                )
            });
        ratio(a, r)
    };
    m.push(
        "sim.allocs_per_record",
        allocs_per_record(&|_| true),
        "count",
    );
    for mech in [
        Mechanism::TaDip,
        Mechanism::Dawb,
        Mechanism::Vwq,
        Mechanism::Dbi {
            awb: true,
            clb: true,
        },
    ] {
        m.push(
            &format!("sim.allocs_per_record.{}", slug(mech)),
            allocs_per_record(&|x| x == mech),
            "count",
        );
    }
    m.push("trace_overhead", overhead, "ratio");
    m.push("runner.parallel_efficiency", efficiency, "ratio");
    m.push("runner.unit_max_s", unit_max, "s");
    m.push(
        "store.save.ms_p50",
        median(&saves).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.push(
        "store.load.ms_p50",
        median(&loads).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.push("store.open_ms", median(&opens).unwrap_or(0.0) * 1e3, "ms");

    let mut notes = vec![format!(
        "traced: {n} of {} units, {} traced records; per-call timings net of a {timer_ns:.1} ns empty span",
        list.len(),
        t.records
    )];
    let pki = |x: u64, insts: u64| 1000.0 * ratio(x, insts);
    let u = untraced_counts;
    notes.push(
        "fidelity (per kilo-instruction; traced hierarchy, whole run, vs untraced System, \
         each core's measurement window):"
            .to_string(),
    );
    for (name, traced_v, untraced_v) in [
        ("llc demand reads", t.llc.demand_reads, u[1]),
        (
            "llc demand misses",
            t.llc.demand_reads - t.llc.demand_hits,
            u[2],
        ),
        ("dram writes", t.dram_writes, u[3]),
    ] {
        notes.push(format!(
            "  {name:<20} traced {:>8.3}  untraced {:>8.3}",
            pki(traced_v, t.insts),
            pki(untraced_v, u[0])
        ));
    }
    notes.push(format!(
        "  replayed calls: dbi marks {} (in-LLC {}), dram reads {} (in-LLC {}), dram writes {} (in-LLC {})",
        t.dbi_mark.calls, t.dbi_marks, t.replay_reads, t.dram_reads, t.replay_writes, t.dram_writes
    ));
    if w.is_sim() {
        notes.extend(simulated_report(&list, &untraced));
    }
    Ok(Outcome {
        metrics: m,
        gate,
        tail: None,
        trace_overhead: Some(overhead),
        notes,
        spans,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let c = parse(&args("--workload campaign --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            c,
            Command::Run(Opts {
                workload: Workload::Campaign,
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload campaign --seed x --seconds 1 --trace 0",
            "--workload campaign --seed 1 --seconds 1 --trace 2",
            "--workload campaign --seed 1 --trace 0",
            "--workload campaign --seed 1 --seconds 1 --trace 0 --extra 1",
            "compare a.json",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn compare_refuses_different_nproc() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |nproc: usize, v: f64| {
            let mut m = Metrics::default();
            m.push("setup_s", v, "s");
            let o = Outcome {
                metrics: m,
                gate: Gate::new(Workload::Campaign),
                tail: None,
                trace_overhead: None,
                notes: Vec::new(),
                spans: None,
                breakdown: Vec::new(),
            };
            let host = Host {
                nproc,
                cpu: "cpu".into(),
                profile: "release",
                rustc: "rustc",
            };
            let opts = Opts {
                workload: Workload::Campaign,
                seed: 1,
                seconds: 1,
                trace: false,
            };
            result_file(&opts, &host, &o, true)
        };
        let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
        std::fs::write(&a, file(2, 0.5)).unwrap();
        std::fs::write(&b, file(2, 0.25)).unwrap();
        std::fs::write(&c, file(4, 0.25)).unwrap();
        assert_eq!(
            read_result(&std::fs::read_to_string(&b).unwrap()).unwrap(),
            (2, vec![("setup_s".to_string(), 0.25)])
        );
        assert_eq!(compare(&a, &b), 0);
        assert_eq!(compare(&a, &c), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// A tiny-scale run of both modes of every workload, without the
    /// reference pass (the references are for the measured scale).
    #[test]
    fn every_workload_runs_at_tiny_scale() {
        for w in Workload::ALL {
            let opts = Opts {
                workload: w,
                seed: 7,
                seconds: 1,
                trace: false,
            };
            let mut work = WorkDir::new(w).unwrap();
            let gate = Gate::with_references(w, Default::default());
            let o = end_to_end_run(&opts, Scale::TINY, gate, &mut work).unwrap();
            assert_eq!(o.gate.failed, 0, "{:?}", o.gate.problems);
            for name in [
                "sim_records_per_s",
                "setup_s",
                "warm_rerun_s",
                "campaign_wall_s",
            ] {
                assert!(o.metrics.get(name).unwrap() > 0.0, "{} {name}", w.name());
            }
            let gate = Gate::with_references(w, Default::default());
            let o = traced_run(
                &Opts {
                    trace: true,
                    ..opts
                },
                Scale::TINY,
                gate,
                &mut work,
            )
            .unwrap();
            assert_eq!(o.gate.failed, 0, "{:?}", o.gate.problems);
            // The layer costs and the residual add up to the untraced cost.
            let g = |n: &str| o.metrics.get(n).unwrap();
            let sum: f64 = o.breakdown.iter().map(|(_, v)| v).sum();
            assert!((sum - g("sim.ns_per_record")).abs() < 1e-6 * sum.abs().max(1.0));
            assert!(g("sim.ns_per_record") > 0.0);
            assert!(g("trace_overhead") > 0.0);
            assert!(o.spans.as_deref().unwrap().lines().count() > 1);
        }
    }
}
