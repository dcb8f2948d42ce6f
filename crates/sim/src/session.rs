//! The typed run API: one entry point for checkpointed, resumable
//! simulation.
//!
//! [`SimSession`] is a builder over resume bytes, checkpoint cadence and
//! checkpoint sink (sanitizer and fault injection stay on
//! [`SystemConfig`]). Every resumable run — the bench runner,
//! `verify_snapshots`, the checkpoint tests — goes through the same
//! [`SimSession::run`] loop, so there is exactly one code path to prove
//! bit-identical and crash-safe. Parallelism lives a level up: the bench
//! runner spreads independent sessions over `--jobs` worker threads.
//!
//! ```
//! use system_sim::{run_mix, CheckpointCadence, Mechanism, SessionOutcome, SimSession, SystemConfig};
//! use trace_gen::mix::WorkloadMix;
//! use trace_gen::Benchmark;
//!
//! let mix = WorkloadMix::new(vec![Benchmark::Lbm]);
//! let mut config = SystemConfig::for_cores(1, Mechanism::Baseline);
//! config.warmup_insts = 10_000;
//! config.measure_insts = 20_000;
//!
//! // Suspend at the first checkpoint, then resume from it: the result is
//! // bit-identical to a straight-through run.
//! let mut saved = Vec::new();
//! let mut sink = |bytes: &[u8]| {
//!     saved = bytes.to_vec();
//!     false
//! };
//! let outcome = SimSession::new(&mix, &config)
//!     .cadence(CheckpointCadence::EveryRecords(500))
//!     .sink(&mut sink)
//!     .run()
//!     .unwrap();
//! assert!(matches!(outcome, SessionOutcome::Suspended));
//! let resumed = SimSession::new(&mix, &config).resume(&saved).run().unwrap();
//! assert_eq!(resumed.into_result().digest(), run_mix(&mix, &config).digest());
//! ```

use dbi::snap::SnapError;
use trace_gen::mix::WorkloadMix;

use crate::config::SystemConfig;
use crate::system::{MixResult, RunState, System};

/// When a resumable run serializes its state and offers it to the sink.
///
/// Checkpoint *placement* may depend on wall-clock time, but checkpoint
/// *content* never does: a snapshot taken at any step boundary restores
/// bit-identically, so cadence only trades re-execution loss against
/// serialization overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointCadence {
    /// Never checkpoint.
    #[default]
    Disabled,
    /// Checkpoint every `n` trace records (`n = 0` also disables) — the
    /// deterministic cadence tests lean on.
    EveryRecords(u64),
    /// Checkpoint when at least `target` has elapsed since the last one,
    /// probing the clock only every `probe_records` records so the hot
    /// loop stays off `Instant::now()`. This bounds loss-on-kill per unit
    /// *evenly across mechanisms of different speeds*: a slow mechanism
    /// checkpoints at the same wall interval as a fast one instead of 5×
    /// less often.
    WallClock {
        /// Minimum wall-clock time between checkpoints.
        target: std::time::Duration,
        /// Records between clock probes (`0` disables checkpointing).
        probe_records: u64,
    },
}

/// How a session ended.
#[derive(Debug)]
pub enum SessionOutcome {
    /// The run finished (boxed: `MixResult` is large).
    Finished(Box<MixResult>),
    /// The checkpoint sink asked to stop; the last checkpoint it accepted
    /// is the point to resume from.
    Suspended,
}

impl SessionOutcome {
    /// The finished result.
    ///
    /// # Panics
    ///
    /// Panics if the session was suspended.
    #[must_use]
    pub fn into_result(self) -> MixResult {
        match self {
            SessionOutcome::Finished(result) => *result,
            SessionOutcome::Suspended => panic!("session was suspended, not finished"),
        }
    }
}

/// A checkpoint sink: receives each serialized snapshot, `false` suspends.
type Sink<'a> = &'a mut dyn FnMut(&[u8]) -> bool;

/// A configured run of one `(mix, config)`.
///
/// Borrowing builder: `SimSession::new(&mix, &config).cadence(..).run()`.
/// Every option defaults to "off": no resume and no checkpointing.
pub struct SimSession<'a> {
    mix: &'a WorkloadMix,
    config: &'a SystemConfig,
    /// Snapshot bytes from a previous suspension to resume from.
    resume: Option<&'a [u8]>,
    cadence: CheckpointCadence,
    /// Receives each serialized checkpoint; `false` suspends the run.
    /// `None` accepts (and discards) every checkpoint.
    sink: Option<Sink<'a>>,
}

impl std::fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("mix", self.mix)
            .field("config", self.config)
            .field("resume", &self.resume.map(<[u8]>::len))
            .field("cadence", &self.cadence)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<'a> SimSession<'a> {
    /// Starts a session with default options (no resume, no checkpoints).
    #[must_use]
    pub fn new(mix: &'a WorkloadMix, config: &'a SystemConfig) -> SimSession<'a> {
        SimSession {
            mix,
            config,
            resume: None,
            cadence: CheckpointCadence::Disabled,
            sink: None,
        }
    }

    /// Resume from `bytes` captured by a previous suspension.
    #[must_use]
    pub fn resume(mut self, bytes: &'a [u8]) -> Self {
        self.resume = Some(bytes);
        self
    }

    /// Resume from `bytes` when present — the store-driven caller's shape,
    /// where a checkpoint may or may not exist.
    #[must_use]
    pub fn maybe_resume(mut self, bytes: Option<&'a [u8]>) -> Self {
        self.resume = bytes;
        self
    }

    /// Sets the checkpoint cadence.
    #[must_use]
    pub fn cadence(mut self, cadence: CheckpointCadence) -> Self {
        self.cadence = cadence;
        self
    }

    /// Sets the checkpoint sink; returning `false` suspends the run.
    #[must_use]
    pub fn sink(mut self, sink: Sink<'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Executes the session: one `System` stepped record by record, with a
    /// checkpoint offered to the sink whenever the cadence falls due.
    ///
    /// # Errors
    ///
    /// Returns the decode error when resume bytes are truncated, corrupted,
    /// forged, or captured from a differently-configured session (other
    /// mechanism, other seed).
    ///
    /// # Panics
    ///
    /// Panics if the measurement window is empty.
    pub fn run(self) -> Result<SessionOutcome, SnapError> {
        assert!(
            self.config.measure_insts > 0,
            "measurement window must be nonempty"
        );
        let mut sys = System::new(self.mix, self.config);
        let mut st = match self.resume {
            Some(bytes) => sys.resume_from(bytes)?,
            None => RunState::cold(&sys),
        };
        let mut accept_all = |_: &[u8]| true;
        let sink = self.sink.unwrap_or(&mut accept_all);
        let mut last_checkpoint = std::time::Instant::now();
        // Records since the last checkpoint / clock probe. Counting up to a
        // threshold instead of testing `steps %` every record keeps the u64
        // divisions out of the loop.
        let mut since_checkpoint = 0u64;
        let mut since_probe = 0u64;
        while sys.micro_step(&mut st) {
            since_checkpoint += 1;
            since_probe += 1;
            let due = match self.cadence {
                CheckpointCadence::Disabled => false,
                CheckpointCadence::EveryRecords(every) => every != 0 && since_checkpoint >= every,
                CheckpointCadence::WallClock {
                    target,
                    probe_records,
                } => {
                    probe_records != 0 && since_probe >= probe_records && {
                        since_probe = 0;
                        last_checkpoint.elapsed() >= target
                    }
                }
            };
            if due {
                since_checkpoint = 0;
                since_probe = 0;
                last_checkpoint = std::time::Instant::now();
                if !sink(&sys.checkpoint(&st)) {
                    return Ok(SessionOutcome::Suspended);
                }
            }
        }
        Ok(SessionOutcome::Finished(Box::new(sys.finish(&st))))
    }
}
