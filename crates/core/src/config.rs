//! DBI geometry and configuration.
//!
//! The paper defines the DBI design space with three key parameters
//! (Section 4): the **size** `alpha` (cumulative blocks tracked by the DBI
//! as a fraction of the blocks in the cache), the **granularity** (blocks
//! tracked per entry — naturally the number of cache blocks in a DRAM row),
//! and the **replacement policy**. Like the main tag store, the DBI is
//! set-associative, so associativity is a fourth, conventional parameter.

use std::error::Error;
use std::fmt;

use crate::container::MAX_BITS;
use crate::replacement::DbiReplacementPolicy;

/// The DBI size parameter `alpha`: the ratio of blocks tracked by the DBI to
/// blocks tracked by the cache, expressed as an exact rational.
///
/// The paper evaluates `alpha` of 1/4 (default) and 1/2.
///
/// # Example
///
/// ```
/// use dbi::Alpha;
///
/// let a = Alpha::new(1, 4).unwrap();
/// assert_eq!(a.apply(32 * 1024), 8 * 1024);
/// assert_eq!(a.to_string(), "1/4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alpha {
    num: u32,
    den: u32,
}

impl Alpha {
    /// The paper's default DBI size, `alpha = 1/4`.
    pub const QUARTER: Alpha = Alpha { num: 1, den: 4 };
    /// The larger evaluated DBI size, `alpha = 1/2`.
    pub const HALF: Alpha = Alpha { num: 1, den: 2 };
    /// A DBI that tracks as many blocks as the cache itself.
    pub const ONE: Alpha = Alpha { num: 1, den: 1 };

    /// Creates a ratio `num/den`.
    ///
    /// # Errors
    ///
    /// Returns [`DbiConfigError::InvalidAlpha`] if either part is zero or if
    /// the ratio exceeds one (a DBI tracking more blocks than the cache
    /// holds has no meaning in the paper's design).
    pub fn new(num: u32, den: u32) -> Result<Alpha, DbiConfigError> {
        if num == 0 || den == 0 || num > den {
            return Err(DbiConfigError::InvalidAlpha { num, den });
        }
        Ok(Alpha { num, den })
    }

    /// Applies the ratio to a block count, rounding down.
    #[must_use]
    pub fn apply(self, blocks: u64) -> u64 {
        blocks * u64::from(self.num) / u64::from(self.den)
    }

    /// Numerator of the ratio.
    #[must_use]
    pub fn numerator(self) -> u32 {
        self.num
    }

    /// Denominator of the ratio.
    #[must_use]
    pub fn denominator(self) -> u32 {
        self.den
    }

    /// The ratio as a float, for reporting.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        f64::from(self.num) / f64::from(self.den)
    }
}

impl Default for Alpha {
    fn default() -> Self {
        Alpha::QUARTER
    }
}

impl fmt::Display for Alpha {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// Error returned when a [`DbiConfig`] cannot describe a valid structure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbiConfigError {
    /// `alpha` was zero, or exceeded 1.
    InvalidAlpha {
        /// Offending numerator.
        num: u32,
        /// Offending denominator.
        den: u32,
    },
    /// Granularity was zero, above the bit-vector limit, or not a power of
    /// two (required so row id / block offset are bit-field extractions).
    InvalidGranularity(usize),
    /// Associativity was zero.
    ZeroAssociativity,
    /// The requested geometry produces no complete DBI entry.
    TooFewEntries {
        /// Blocks the DBI was asked to track.
        tracked_blocks: u64,
        /// Granularity in blocks.
        granularity: usize,
    },
    /// Entries do not divide evenly into sets of `associativity` ways.
    UnevenSets {
        /// Total DBI entries implied by size and granularity.
        entries: u64,
        /// Requested associativity.
        associativity: usize,
    },
}

impl fmt::Display for DbiConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbiConfigError::InvalidAlpha { num, den } => {
                write!(f, "invalid DBI alpha {num}/{den}: must be in (0, 1]")
            }
            DbiConfigError::InvalidGranularity(g) => write!(
                f,
                "invalid DBI granularity {g}: must be a power of two in 1..={MAX_BITS}"
            ),
            DbiConfigError::ZeroAssociativity => write!(f, "DBI associativity must be nonzero"),
            DbiConfigError::TooFewEntries {
                tracked_blocks,
                granularity,
            } => write!(
                f,
                "DBI tracking {tracked_blocks} blocks at granularity {granularity} has no complete entry"
            ),
            DbiConfigError::UnevenSets {
                entries,
                associativity,
            } => write!(
                f,
                "{entries} DBI entries do not divide into sets of {associativity} ways"
            ),
        }
    }
}

impl Error for DbiConfigError {}

/// Geometry and policy of a [`Dbi`](crate::Dbi).
///
/// Construct with [`DbiConfig::for_cache_blocks`] (paper defaults) and adjust
/// with the `with_*` builder methods, or fill the fields directly via
/// [`DbiConfig::new`].
///
/// # Example
///
/// ```
/// use dbi::{Alpha, DbiConfig, DbiReplacementPolicy};
///
/// # fn main() -> Result<(), dbi::DbiConfigError> {
/// let config = DbiConfig::for_cache_blocks(32 * 1024)?
///     .with_alpha(Alpha::HALF)?
///     .with_granularity(128)?
///     .with_policy(DbiReplacementPolicy::MaxDirty);
/// assert_eq!(config.entries(), 128); // 16k tracked blocks / 128 per entry
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbiConfig {
    cache_blocks: u64,
    alpha: Alpha,
    granularity: usize,
    associativity: usize,
    policy: DbiReplacementPolicy,
}

impl DbiConfig {
    /// Paper-default configuration for a cache of `cache_blocks` blocks:
    /// `alpha` = 1/4, granularity = 64, associativity = 16, LRW replacement
    /// (paper Table 1).
    ///
    /// # Errors
    ///
    /// Returns an error if the implied geometry is degenerate — see
    /// [`DbiConfig::new`].
    pub fn for_cache_blocks(cache_blocks: u64) -> Result<DbiConfig, DbiConfigError> {
        DbiConfig::new(
            cache_blocks,
            Alpha::QUARTER,
            64,
            16,
            DbiReplacementPolicy::Lrw,
        )
    }

    /// Creates a fully specified configuration.
    ///
    /// # Errors
    ///
    /// * [`DbiConfigError::InvalidGranularity`] — granularity not a power of
    ///   two in `1..=512`.
    /// * [`DbiConfigError::ZeroAssociativity`].
    /// * [`DbiConfigError::TooFewEntries`] — `alpha × cache_blocks` smaller
    ///   than one granularity unit.
    /// * [`DbiConfigError::UnevenSets`] — entry count not a multiple of the
    ///   associativity (ragged final set).
    pub fn new(
        cache_blocks: u64,
        alpha: Alpha,
        granularity: usize,
        associativity: usize,
        policy: DbiReplacementPolicy,
    ) -> Result<DbiConfig, DbiConfigError> {
        if granularity == 0 || granularity > MAX_BITS || !granularity.is_power_of_two() {
            return Err(DbiConfigError::InvalidGranularity(granularity));
        }
        if associativity == 0 {
            return Err(DbiConfigError::ZeroAssociativity);
        }
        let tracked = alpha.apply(cache_blocks);
        let entries = tracked / granularity as u64;
        if entries == 0 {
            return Err(DbiConfigError::TooFewEntries {
                tracked_blocks: tracked,
                granularity,
            });
        }
        // Clamp associativity for tiny DBIs rather than failing: a DBI with
        // fewer entries than the requested ways is a single fully
        // associative set.
        let associativity = associativity.min(entries as usize);
        if !entries.is_multiple_of(associativity as u64) {
            return Err(DbiConfigError::UnevenSets {
                entries,
                associativity,
            });
        }
        Ok(DbiConfig {
            cache_blocks,
            alpha,
            granularity,
            associativity,
            policy,
        })
    }

    /// Replaces the size ratio, revalidating the geometry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DbiConfig::new`].
    pub fn with_alpha(self, alpha: Alpha) -> Result<DbiConfig, DbiConfigError> {
        DbiConfig::new(
            self.cache_blocks,
            alpha,
            self.granularity,
            self.associativity,
            self.policy,
        )
    }

    /// Replaces the granularity, revalidating the geometry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DbiConfig::new`].
    pub fn with_granularity(self, granularity: usize) -> Result<DbiConfig, DbiConfigError> {
        DbiConfig::new(
            self.cache_blocks,
            self.alpha,
            granularity,
            self.associativity,
            self.policy,
        )
    }

    /// Replaces the replacement policy (always valid).
    #[must_use]
    pub fn with_policy(mut self, policy: DbiReplacementPolicy) -> DbiConfig {
        self.policy = policy;
        self
    }

    /// Blocks in the cache this DBI is sized against.
    #[must_use]
    pub fn cache_blocks(&self) -> u64 {
        self.cache_blocks
    }

    /// The size ratio `alpha`.
    #[must_use]
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// Blocks tracked per DBI entry.
    #[must_use]
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Ways per DBI set (clamped to the entry count for tiny DBIs).
    #[must_use]
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// The configured replacement policy.
    #[must_use]
    pub fn policy(&self) -> DbiReplacementPolicy {
        self.policy
    }

    /// Cumulative number of blocks the DBI can track
    /// (`alpha × cache_blocks`, rounded down to whole entries).
    #[must_use]
    pub fn tracked_blocks(&self) -> u64 {
        self.entries() * self.granularity as u64
    }

    /// Total number of DBI entries.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.alpha.apply(self.cache_blocks) / self.granularity as u64
    }

    /// Number of DBI sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.entries() / self.associativity as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        // 2 MB cache, 64 B blocks -> 32k blocks; alpha 1/4 -> 8k tracked;
        // granularity 64 -> 128 entries; 16-way -> 8 sets.
        let c = DbiConfig::for_cache_blocks(32 * 1024).unwrap();
        assert_eq!(c.tracked_blocks(), 8 * 1024);
        assert_eq!(c.entries(), 128);
        assert_eq!(c.sets(), 8);
        assert_eq!(c.associativity(), 16);
        assert_eq!(c.policy(), DbiReplacementPolicy::Lrw);
    }

    #[test]
    fn alpha_validation() {
        assert!(Alpha::new(0, 4).is_err());
        assert!(Alpha::new(1, 0).is_err());
        assert!(Alpha::new(3, 2).is_err());
        assert_eq!(Alpha::new(1, 1).unwrap(), Alpha::ONE);
        assert_eq!(Alpha::default(), Alpha::QUARTER);
    }

    #[test]
    fn alpha_apply_rounds_down() {
        let a = Alpha::new(1, 3).unwrap();
        assert_eq!(a.apply(100), 33);
        assert!((a.as_f64() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn granularity_must_be_power_of_two() {
        let c = DbiConfig::for_cache_blocks(32 * 1024).unwrap();
        assert!(matches!(
            c.with_granularity(48),
            Err(DbiConfigError::InvalidGranularity(48))
        ));
        assert!(c.with_granularity(1024).is_err());
        assert!(c.with_granularity(0).is_err());
        assert!(c.with_granularity(128).is_ok());
    }

    #[test]
    fn tiny_dbi_clamps_associativity() {
        // 256 cache blocks, alpha 1/4 -> 64 tracked -> 1 entry of 64.
        let c = DbiConfig::for_cache_blocks(256).unwrap();
        assert_eq!(c.entries(), 1);
        assert_eq!(c.associativity(), 1);
        assert_eq!(c.sets(), 1);
    }

    #[test]
    fn degenerate_geometry_rejected() {
        assert!(matches!(
            DbiConfig::for_cache_blocks(64),
            Err(DbiConfigError::TooFewEntries { .. })
        ));
    }

    #[test]
    fn uneven_sets_rejected() {
        // 12 entries with 8-way -> one full set + ragged remainder.
        let err = DbiConfig::new(
            12 * 64 * 4,
            Alpha::QUARTER,
            64,
            8,
            DbiReplacementPolicy::Lrw,
        )
        .unwrap_err();
        assert!(matches!(err, DbiConfigError::UnevenSets { .. }));
    }

    #[test]
    fn errors_display_nonempty() {
        for e in [
            DbiConfigError::InvalidAlpha { num: 0, den: 1 },
            DbiConfigError::InvalidGranularity(3),
            DbiConfigError::ZeroAssociativity,
            DbiConfigError::TooFewEntries {
                tracked_blocks: 1,
                granularity: 64,
            },
            DbiConfigError::UnevenSets {
                entries: 12,
                associativity: 8,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
