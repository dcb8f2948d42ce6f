//! Untraced measurement: cold passes over a work list, warm reruns from
//! the result store, and the store's own calls. Everything here is timed
//! from outside, around calls into public functions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dbi_bench::store::unit_key;
use dbi_bench::{parallel_map_jobs, BenchArgs, ResultStore, RunUnit, Runner};
use system_sim::{MixResult, System};

use crate::workload::{Scale, WorkList, Workload};

/// One unit as a cold pass ran it.
#[derive(Debug)]
pub struct UnitRun {
    /// Host seconds for the whole unit (set-up included).
    pub wall_s: f64,
    /// Host seconds of `System::new` (sim workloads only).
    pub setup_s: Option<f64>,
    /// Host seconds of `System::run` alone (sim workloads only).
    pub run_s: Option<f64>,
    /// Heap allocations made inside `System::run` (sim workloads only).
    pub run_allocs: Option<u64>,
    /// `None` when the unit panicked or was quarantined.
    pub result: Option<MixResult>,
}

/// One cold pass over a work list.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    /// Set-up before the pass: for the campaign `Runner::new` (which opens
    /// the store) plus building the work list.
    pub setup_s: Option<f64>,
    pub units: Vec<UnitRun>,
}

impl Pass {
    pub fn records(&self) -> u64 {
        self.units
            .iter()
            .filter_map(|u| u.result.as_ref())
            .map(|r| r.records_processed)
            .sum()
    }
}

/// Runs one unit straight through `System`: construction and run timed
/// separately, allocations counted over the run.
pub fn run_direct(unit: &RunUnit) -> UnitRun {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let system = System::new(&unit.mix, &unit.config);
        let setup = start.elapsed().as_secs_f64();
        let a0 = crate::allocations();
        let t = Instant::now();
        let result = system.run();
        let run = t.elapsed().as_secs_f64();
        (setup, run, crate::allocations() - a0, result)
    }));
    let wall_s = start.elapsed().as_secs_f64();
    match outcome {
        Ok((setup, run, allocs, result)) => UnitRun {
            wall_s,
            setup_s: Some(setup),
            run_s: Some(run),
            run_allocs: Some(allocs),
            result: Some(result),
        },
        Err(_) => UnitRun {
            wall_s,
            setup_s: None,
            run_s: None,
            run_allocs: None,
            result: None,
        },
    }
}

/// A sim-workload pass: every unit in order, one thread, no store.
pub fn sim_pass(units: &[RunUnit]) -> Pass {
    let start = Instant::now();
    let units = units.iter().map(run_direct).collect();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        setup_s: None,
        units,
    }
}

/// A runner over the store at `dir` with `jobs` workers and every other
/// setting at the binaries' defaults.
fn runner(dir: &Path, jobs: usize) -> Runner {
    let args = BenchArgs {
        cache_dir: Some(dir.to_path_buf()),
        jobs: Some(jobs),
        ..BenchArgs::default()
    };
    Runner::new("perfbench", &args)
}

/// A cold campaign pass into the store at `dir`: set-up timed, then the
/// work list scheduled over `jobs` workers by the runner's own
/// `parallel_map_jobs`, each unit submitted through
/// `Runner::try_run_units` and timed from outside.
pub fn campaign_pass(
    workload: Workload,
    seed: u64,
    scale: Scale,
    dir: &Path,
    jobs: usize,
) -> (Pass, WorkList) {
    let t = Instant::now();
    let runner = runner(dir, jobs);
    let list = workload.work_list(seed, scale);
    let setup_s = t.elapsed().as_secs_f64();
    let start = Instant::now();
    let units = parallel_map_jobs(&list.units, Some(jobs), |unit| {
        let t = Instant::now();
        let (mut results, _failures) = runner.try_run_units("cold", std::slice::from_ref(unit));
        UnitRun {
            wall_s: t.elapsed().as_secs_f64(),
            setup_s: None,
            run_s: None,
            run_allocs: None,
            result: results.pop().flatten(),
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    (
        Pass {
            wall_s,
            setup_s: Some(setup_s),
            units,
        },
        list,
    )
}

/// One warm rerun of the whole work list through `Runner::run_units`
/// against the populated store at `dir`.
#[derive(Debug)]
pub struct Warm {
    pub setup_s: f64,
    pub wall_s: f64,
    pub sims: u64,
    pub results: Vec<MixResult>,
}

pub fn warm_rerun(workload: Workload, seed: u64, scale: Scale, dir: &Path, jobs: usize) -> Warm {
    let t = Instant::now();
    let runner = runner(dir, jobs);
    let list = workload.work_list(seed, scale);
    let setup_s = t.elapsed().as_secs_f64();
    let start = Instant::now();
    let results = runner.run_units("warm", &list.units);
    let wall_s = start.elapsed().as_secs_f64();
    Warm {
        setup_s,
        wall_s,
        sims: runner.sims(),
        results,
    }
}

/// Saves `results` under their units' store keys into the store at `dir`,
/// timing each save; returns the save times in seconds.
pub fn save_all(dir: &Path, list: &WorkList, results: &[&MixResult]) -> std::io::Result<Vec<f64>> {
    let store = ResultStore::open(dir.to_path_buf());
    let mut times = Vec::with_capacity(results.len());
    for (unit, result) in list.units.iter().zip(results) {
        let key = unit_key(&unit.config, unit.mix.benchmarks());
        let t = Instant::now();
        store.save(&key, result)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// The store layer timed on its own over a populated store: every entry
/// loaded once (seconds each), and `opens` fresh handles each opened and
/// asked for one entry, which scans the segment index (seconds each).
/// Returns `(load times, open times, entries that failed to load)`.
pub fn store_reads(dir: &Path, list: &WorkList, opens: usize) -> (Vec<f64>, Vec<f64>, usize) {
    let store = ResultStore::open(dir.to_path_buf());
    let keys: Vec<_> = list
        .units
        .iter()
        .map(|u| unit_key(&u.config, u.mix.benchmarks()))
        .collect();
    let mut missing = 0;
    let loads = keys
        .iter()
        .map(|key| {
            let t = Instant::now();
            let hit = store.load(key).is_some();
            let dt = t.elapsed().as_secs_f64();
            missing += usize::from(!hit);
            dt
        })
        .collect();
    let open_times = (0..opens)
        .map(|i| {
            let t = Instant::now();
            let fresh = ResultStore::open(dir.to_path_buf());
            let hit = fresh.contains(&keys[i % keys.len()]);
            let dt = t.elapsed().as_secs_f64();
            missing += usize::from(!hit);
            dt
        })
        .collect();
    (loads, open_times, missing)
}

/// Scratch directories for stores, under the benchmark's own directory
/// and removed when dropped.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    pub fn new(workload: Workload) -> std::io::Result<WorkDir> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{}-{}", workload.name(), std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, not yet existing store directory.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A fixed reference workload that depends on no repository code: random
/// 16-way set-associative tag probes over a 4 MB table, the access pattern
/// of a cache model's tag store.
///
/// Shared hosts drift: neighbours' use of the shared caches and memory
/// slows everything on a vCPU by up to 2x for seconds to minutes at a
/// time. Timing this probe right next to each measured piece of work and
/// scaling the work's time by `(NOMINAL_S / probe time)^ELASTICITY`
/// reports it at one fixed host speed. The probe's own cost never
/// changes, so a change to the program still moves the scaled times in
/// full.
pub struct HostSpeed {
    table: Vec<u64>,
    x: u64,
}

impl HostSpeed {
    /// The probe time that scaled times are relative to.
    pub const NOMINAL_S: f64 = 0.005;

    /// How strongly simulator time follows probe time. Over 54 write-mix
    /// and 113 read-mix passes on a 2-vCPU Sapphire Rapids guest, pass time
    /// correlated with the adjacent probe time at 0.85 and 0.92, with a
    /// log-log slope of 0.56 and 0.61: the simulator spends part of its
    /// time in work the shared caches do not slow.
    const ELASTICITY: f64 = 0.6;

    /// Tag probes per measurement.
    const PROBES: u32 = 200_000;

    pub fn new() -> HostSpeed {
        HostSpeed {
            table: vec![0; 1 << 19],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Times one probe run; returns `(NOMINAL_S / its time)^ELASTICITY`,
    /// the factor
    /// that scales an adjacent host time to the nominal host speed. The
    /// table is swept first, untimed, so that the timed probes do not
    /// depend on how much of it the measured work evicted.
    pub fn factor(&mut self) -> f64 {
        std::hint::black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let t = Instant::now();
        let mut hits = 0u32;
        for _ in 0..Self::PROBES {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let tag = self.x >> 44;
            let set = (self.x >> 8) as usize & ((1 << 15) - 1);
            let ways = &mut self.table[set * 16..set * 16 + 16];
            match ways.iter().position(|&w| w == tag) {
                Some(_) => hits += 1,
                None => ways[(self.x >> 3) as usize & 15] = tag,
            }
        }
        std::hint::black_box(hits);
        (Self::NOMINAL_S / t.elapsed().as_secs_f64()).powf(Self::ELASTICITY)
    }
}
