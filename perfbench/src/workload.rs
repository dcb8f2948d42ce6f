//! The three workloads, their work lists, and the digest gate that checks
//! every simulated result.
//!
//! Why these workloads: the paper's mechanisms act on the write side of
//! the hierarchy (dirty-status queries, DBI marks and evictions, AWB row
//! sweeps, the DRAM write drain) and CLB on the read side, so a write-heavy
//! and a read-heavy quad-core mix run the same layers with opposite
//! weights — a write-path optimisation should move the first and leave the
//! second unchanged. `campaign` is the only workload where the runner's
//! parallel scheduling and the result store do real work.

use std::collections::BTreeMap;

use dbi_bench::{RunUnit, FIGURE_MECHANISMS};
use system_sim::{Mechanism, MixResult, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

/// The seed the committed reference digests were taken at.
pub const DEFAULT_SEED: u64 = 42;

/// The committed reference digests: `workload unit digest` per line.
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");

/// The mechanisms both sim workloads run: the baseline, the insertion
/// policy every other mechanism builds on, the two DRAM-aware writeback
/// predecessors, and the full DBI design.
const SIM_MECHANISMS: [Mechanism; 5] = [
    Mechanism::Baseline,
    Mechanism::TaDip,
    Mechanism::Dawb,
    Mechanism::Vwq,
    Mechanism::Dbi {
        awb: true,
        clb: true,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quad-core write-intensive mix: LLC writebacks, DBI marks and
    /// evictions, AWB/DAWB/VWQ sweeps and the DRAM drain do most work.
    SimWriteMix,
    /// Quad-core read-intensive, low-write mix: trace generation, L1/L2
    /// and the LLC read / CLB-bypass path dominate.
    SimReadMix,
    /// The Figure 6 single-core work list through the runner and a fresh
    /// result store, cold and then warm.
    Campaign,
}

/// Simulated instructions per core of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub warmup_insts: u64,
    pub measure_insts: u64,
}

#[cfg(test)]
impl Scale {
    /// A scale for smoke tests: seconds for a whole workload.
    pub const TINY: Scale = Scale {
        warmup_insts: 20_000,
        measure_insts: 10_000,
    };
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimWriteMix,
        Workload::SimReadMix,
        Workload::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimWriteMix => "sim-write-mix",
            Workload::SimReadMix => "sim-read-mix",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether units run one at a time, straight through `System`, with
    /// the result store off.
    pub fn is_sim(self) -> bool {
        self != Workload::Campaign
    }

    /// The measured scale: a tenth of the repository's `--quick` effort
    /// (8 M + 2 M instructions per core) for the quad-core mixes, a fifth
    /// for the single-core campaign. Short units give each run enough
    /// samples for a median and a tail; the caches still start empty and
    /// warm inside the simulator.
    pub fn scale(self) -> Scale {
        match self {
            Workload::SimWriteMix | Workload::SimReadMix => Scale {
                warmup_insts: 800_000,
                measure_insts: 200_000,
            },
            Workload::Campaign => Scale {
                warmup_insts: 1_600_000,
                measure_insts: 400_000,
            },
        }
    }

    /// Worker threads: one for the sim workloads, every core for the
    /// campaign.
    pub fn jobs(self) -> usize {
        if self.is_sim() {
            1
        } else {
            nproc()
        }
    }

    /// The work list at `seed`.
    pub fn work_list(self, seed: u64, scale: Scale) -> WorkList {
        let config = |cores: usize, mechanism: Mechanism| {
            let mut c = SystemConfig::for_cores(cores, mechanism);
            c.warmup_insts = scale.warmup_insts;
            c.measure_insts = scale.measure_insts;
            c.seed = seed;
            c
        };
        let mut list = WorkList::default();
        match self {
            Workload::SimWriteMix | Workload::SimReadMix => {
                let mix = WorkloadMix::new(if self == Workload::SimWriteMix {
                    vec![
                        Benchmark::Lbm,
                        Benchmark::Stream,
                        Benchmark::GemsFdtd,
                        Benchmark::Mcf,
                    ]
                } else {
                    vec![
                        Benchmark::Libquantum,
                        Benchmark::Sphinx3,
                        Benchmark::Omnetpp,
                        Benchmark::Bzip2,
                    ]
                });
                for m in SIM_MECHANISMS {
                    list.push(slug(m), m, RunUnit::new(mix.clone(), config(4, m)));
                }
            }
            Workload::Campaign => {
                for bench in Benchmark::ALL {
                    for m in FIGURE_MECHANISMS {
                        list.push(
                            format!("{}/{}", bench.label(), slug(m)),
                            m,
                            RunUnit::alone(bench, config(1, m)),
                        );
                    }
                }
            }
        }
        list
    }

    /// How many units of the work list the traced run covers: every sim
    /// unit, and for the campaign its first two benchmarks (mcf and lbm,
    /// the most memory-intensive) under all seven mechanisms.
    pub fn traced_units(self) -> usize {
        match self {
            Workload::SimWriteMix | Workload::SimReadMix => SIM_MECHANISMS.len(),
            Workload::Campaign => 2 * FIGURE_MECHANISMS.len(),
        }
    }
}

/// A workload's units in order, with the label and mechanism of each.
#[derive(Debug, Default, Clone)]
pub struct WorkList {
    pub labels: Vec<String>,
    pub mechanisms: Vec<Mechanism>,
    pub units: Vec<RunUnit>,
}

impl WorkList {
    fn push(&mut self, label: String, mechanism: Mechanism, unit: RunUnit) {
        self.labels.push(label);
        self.mechanisms.push(mechanism);
        self.units.push(unit);
    }

    pub fn len(&self) -> usize {
        self.units.len()
    }
}

/// A mechanism's label as a metric-name fragment (`DBI+AWB+CLB` →
/// `dbi-awb-clb`).
pub fn slug(m: Mechanism) -> String {
    m.label().to_ascii_lowercase().replace(['+', ' '], "-")
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// FNV-1a 64 of [`MixResult::digest`], which covers every field.
pub fn digest(result: &MixResult) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in result.digest().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Parses the reference file: `workload unit digest`, `#` comments.
pub fn parse_references(text: &str) -> BTreeMap<(String, String), String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, u, d) = (f.next()?, f.next()?, f.next()?);
            Some(((w.to_string(), u.to_string()), d.to_string()))
        })
        .collect()
}

/// Counts units and checks each result.
///
/// At [`DEFAULT_SEED`] every digest must equal the committed reference.
/// At any seed every repeat of a unit within the run must equal its first
/// result (run-to-run identity). A unit that panicked counts as failed.
#[derive(Debug)]
pub struct Gate {
    workload: &'static str,
    references: BTreeMap<(String, String), String>,
    first: BTreeMap<(u64, String), String>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Gate {
    pub fn new(workload: Workload) -> Gate {
        Gate::with_references(workload, parse_references(REFERENCE_DIGESTS))
    }

    pub fn with_references(
        workload: Workload,
        references: BTreeMap<(String, String), String>,
    ) -> Gate {
        Gate {
            workload: workload.name(),
            references,
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records one unit outcome; returns whether it passed.
    pub fn check(&mut self, seed: u64, label: &str, result: Option<&MixResult>) -> bool {
        self.attempted += 1;
        let problem = match result {
            None => Some("panicked".to_string()),
            Some(r) => {
                let d = digest(r);
                let key = (self.workload.to_string(), label.to_string());
                let reference = self.references.get(&key);
                let first = self
                    .first
                    .entry((seed, label.to_string()))
                    .or_insert_with(|| d.clone());
                if seed == DEFAULT_SEED && reference != Some(&d) {
                    Some(format!(
                        "digest {d} != reference {}",
                        reference.map_or("(none)", String::as_str)
                    ))
                } else if *first != d {
                    Some(format!("digest {d} != this run's first {first}"))
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems
                    .push(format!("{} seed {seed} {label}: {p}", self.workload));
            }
            return false;
        }
        true
    }

    /// Counts a failure that is not a unit result (a warm rerun that
    /// simulated, say).
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(format!("{}: {what}", self.workload));
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Rewrites `workload`'s lines of the reference text with `digests`,
/// keeping every other workload's lines.
pub fn bless(existing: &str, workload: Workload, digests: &[(String, String)]) -> String {
    let mut out: Vec<String> = existing
        .lines()
        .filter(|l| l.split_whitespace().next() != Some(workload.name()))
        .map(str::to_string)
        .collect();
    for (label, d) in digests {
        out.push(format!("{} {label} {d}", workload.name()));
    }
    out.join("\n") + "\n"
}

/// The reference file's path in the source tree.
pub fn reference_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference_digests.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_result() -> MixResult {
        let list = Workload::SimWriteMix.work_list(7, Scale::TINY);
        system_sim::run_mix(&list.units[0].mix, &list.units[0].config)
    }

    #[test]
    fn gate_catches_one_flipped_counter() {
        let r = tiny_result();
        let refs = BTreeMap::from([(
            ("sim-write-mix".to_string(), "baseline".to_string()),
            digest(&r),
        )]);
        let mut gate = Gate::with_references(Workload::SimWriteMix, refs);
        assert!(gate.check(DEFAULT_SEED, "baseline", Some(&r)));
        let mut flipped = r.clone();
        flipped.llc.tag_lookups += 1;
        assert!(!gate.check(DEFAULT_SEED, "baseline", Some(&flipped)));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn gate_checks_run_to_run_identity_off_the_default_seed() {
        let r = tiny_result();
        let mut gate = Gate::with_references(Workload::SimWriteMix, BTreeMap::new());
        assert!(gate.check(7, "baseline", Some(&r)));
        assert!(gate.check(7, "baseline", Some(&r)));
        let mut flipped = r.clone();
        flipped.dram.writes ^= 1;
        assert!(!gate.check(7, "baseline", Some(&flipped)));
        // No reference at the default seed is a failure, as is a panic.
        assert!(!gate.check(DEFAULT_SEED, "baseline", Some(&r)));
        assert!(!gate.check(7, "vwq", None));
        assert_eq!(gate.failed, 3);
        assert!((gate.error_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn every_workload_has_committed_references() {
        let refs = parse_references(REFERENCE_DIGESTS);
        for w in Workload::ALL {
            let list = w.work_list(DEFAULT_SEED, w.scale());
            for label in &list.labels {
                assert!(
                    refs.contains_key(&(w.name().to_string(), label.clone())),
                    "{} {label} has no reference digest",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn bless_replaces_only_its_workload() {
        let text = "# header\ncampaign a 1\nsim-read-mix b 2\n";
        let out = bless(text, Workload::Campaign, &[("c".into(), "3".into())]);
        assert_eq!(out, "# header\nsim-read-mix b 2\ncampaign c 3\n");
    }

    #[test]
    fn labels_are_metric_name_fragments() {
        for m in Mechanism::ALL {
            assert!(crate::stats::valid_name(&slug(m)), "{m}");
        }
        assert_eq!(
            slug(Mechanism::Dbi {
                awb: true,
                clb: true
            }),
            "dbi-awb-clb"
        );
    }
}
