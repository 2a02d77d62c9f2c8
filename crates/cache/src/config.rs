//! Cache geometry configuration.

use std::fmt;

/// Which replacement policy a cache uses.
///
/// The §5.2 refinement reads the *replacement status* of a line, so policies
/// expose a recency rank as well as a victim choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out: insertion order, untouched by hits.
    Fifo,
    /// Uniform random victim among occupied ways (seeded, reproducible).
    Random,
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::Fifo => "FIFO",
            ReplacementKind::Random => "random",
        };
        f.write_str(s)
    }
}

/// Geometry and policy of one cache.
///
/// # Examples
///
/// ```
/// use cache_array::{CacheConfig, ReplacementKind};
///
/// let cfg = CacheConfig::new(4096, 32, 2, ReplacementKind::Lru);
/// assert_eq!(cfg.sets(), 64);
/// assert_eq!(cfg.lines(), 128);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes. §5.1 requires this to be uniform across a
    /// system; the `mpsim` system builder enforces that.
    pub line_size: usize,
    /// Ways per set (1 = direct-mapped).
    pub associativity: usize,
    /// Victim-selection policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Creates and validates a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent; see
    /// [`try_new`](CacheConfig::try_new).
    #[must_use]
    pub fn new(
        size_bytes: usize,
        line_size: usize,
        associativity: usize,
        replacement: ReplacementKind,
    ) -> Self {
        Self::try_new(size_bytes, line_size, associativity, replacement)
            .unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Creates a configuration, or says why its geometry is inconsistent.
    ///
    /// # Errors
    ///
    /// Returns the reason when a size is not a power of two (zero included),
    /// the associativity is zero, or the capacity does not divide into
    /// `associativity` ways of whole lines over a power-of-two set count.
    pub fn try_new(
        size_bytes: usize,
        line_size: usize,
        associativity: usize,
        replacement: ReplacementKind,
    ) -> Result<Self, String> {
        if !line_size.is_power_of_two() {
            return Err(format!("line size must be a power of two, got {line_size}"));
        }
        if !size_bytes.is_power_of_two() {
            return Err(format!(
                "cache size must be a power of two, got {size_bytes}"
            ));
        }
        if associativity == 0 {
            return Err("associativity must be non-zero".to_string());
        }
        let lines = size_bytes / line_size;
        if lines < associativity {
            return Err(format!(
                "fewer lines than ways: {size_bytes}B holds {lines} lines of {line_size}B, \
                 fewer than {associativity}"
            ));
        }
        if !lines.is_multiple_of(associativity) {
            return Err(format!(
                "lines ({lines}) must divide evenly into {associativity} ways"
            ));
        }
        if !(lines / associativity).is_power_of_two() {
            return Err("set count must be a power of two".to_string());
        }
        Ok(CacheConfig {
            size_bytes,
            line_size,
            associativity,
            replacement,
        })
    }

    /// A small default useful in tests and examples: 4 KiB, 32 B lines,
    /// 2-way, LRU.
    #[must_use]
    pub fn small() -> Self {
        CacheConfig::new(4096, 32, 2, ReplacementKind::Lru)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size_bytes / self.line_size / self.associativity
    }

    /// Total number of lines.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_size
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::small()
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B, {}B lines, {}-way, {}",
            self.size_bytes, self.line_size, self.associativity, self.replacement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_math() {
        let cfg = CacheConfig::new(8192, 64, 4, ReplacementKind::Fifo);
        assert_eq!(cfg.lines(), 128);
        assert_eq!(cfg.sets(), 32);
    }

    #[test]
    fn direct_mapped_is_allowed() {
        let cfg = CacheConfig::new(1024, 16, 1, ReplacementKind::Lru);
        assert_eq!(cfg.sets(), 64);
    }

    #[test]
    fn fully_associative_is_allowed() {
        let cfg = CacheConfig::new(512, 16, 32, ReplacementKind::Random);
        assert_eq!(cfg.sets(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        let _ = CacheConfig::new(4096, 48, 2, ReplacementKind::Lru);
    }

    #[test]
    #[should_panic(expected = "fewer lines than ways")]
    fn too_many_ways_rejected() {
        let _ = CacheConfig::new(64, 32, 4, ReplacementKind::Lru);
    }

    #[test]
    fn try_new_explains_instead_of_panicking() {
        let bad = [
            (4096, 12, 2),
            (4096, 3, 2),
            (100, 32, 2),
            (4096, 32, 0),
            (32, 32, 2),
        ];
        for (size, line, ways) in bad {
            let err = CacheConfig::try_new(size, line, ways, ReplacementKind::Lru).unwrap_err();
            assert!(!err.is_empty(), "{size}/{line}/{ways}");
        }
        assert_eq!(
            CacheConfig::try_new(4096, 32, 2, ReplacementKind::Lru),
            Ok(CacheConfig::small())
        );
    }

    #[test]
    fn display_summarises() {
        assert_eq!(
            CacheConfig::small().to_string(),
            "4096B, 32B lines, 2-way, LRU"
        );
    }
}
