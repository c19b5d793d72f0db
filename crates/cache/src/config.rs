//! Cache parameters and derived address arithmetic.

use std::error::Error;
use std::fmt;

/// Validation failure for a [`CacheConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A size, line size, or associativity of zero.
    Zero,
    /// Total size, line size, or associativity is not a power of two.
    NotPowerOfTwo {
        /// The offending value.
        value: u64,
    },
    /// Line size below the 4-byte word the traces are defined on.
    LineTooSmall {
        /// The offending line size in bytes.
        line_bytes: u32,
    },
    /// `size / (line * associativity)` would be zero sets.
    TooAssociative,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero => write!(f, "cache parameters must be nonzero"),
            ConfigError::NotPowerOfTwo { value } => {
                write!(f, "cache parameter {value} is not a power of two")
            }
            ConfigError::LineTooSmall { line_bytes } => {
                write!(
                    f,
                    "line size {line_bytes} is below the 4-byte word granularity"
                )
            }
            ConfigError::TooAssociative => {
                write!(f, "associativity times line size exceeds the cache size")
            }
        }
    }
}

impl Error for ConfigError {}

/// Size, line size, and associativity of a cache.
///
/// All three must be powers of two; lines are at least one 4-byte word. The
/// derived [`Geometry`] performs the index/tag arithmetic shared by every
/// simulator.
///
/// # Examples
///
/// ```
/// use dynex_cache::CacheConfig;
///
/// // The paper's headline instruction cache: 32KB, 4-byte lines.
/// let c = CacheConfig::direct_mapped(32 * 1024, 4)?;
/// assert_eq!(c.n_sets(), 8192);
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u32,
    line_bytes: u32,
    associativity: u32,
}

impl CacheConfig {
    /// Creates a configuration, validating every parameter.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is zero or not a power of
    /// two, if the line is smaller than a word, or if `associativity *
    /// line_bytes > size_bytes`.
    pub fn new(
        size_bytes: u32,
        line_bytes: u32,
        associativity: u32,
    ) -> Result<CacheConfig, ConfigError> {
        if size_bytes == 0 || line_bytes == 0 || associativity == 0 {
            return Err(ConfigError::Zero);
        }
        for value in [size_bytes, line_bytes, associativity] {
            if !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    value: value as u64,
                });
            }
        }
        if line_bytes < 4 {
            return Err(ConfigError::LineTooSmall { line_bytes });
        }
        if (associativity as u64) * (line_bytes as u64) > size_bytes as u64 {
            return Err(ConfigError::TooAssociative);
        }
        Ok(CacheConfig {
            size_bytes,
            line_bytes,
            associativity,
        })
    }

    /// Direct-mapped configuration (`associativity == 1`).
    ///
    /// # Errors
    ///
    /// Same as [`CacheConfig::new`].
    pub fn direct_mapped(size_bytes: u32, line_bytes: u32) -> Result<CacheConfig, ConfigError> {
        CacheConfig::new(size_bytes, line_bytes, 1)
    }

    /// Fully-associative configuration (one set).
    ///
    /// # Errors
    ///
    /// Same as [`CacheConfig::new`].
    pub fn fully_associative(size_bytes: u32, line_bytes: u32) -> Result<CacheConfig, ConfigError> {
        if size_bytes == 0 || line_bytes == 0 {
            return Err(ConfigError::Zero);
        }
        CacheConfig::new(size_bytes, line_bytes, size_bytes / line_bytes)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(self) -> u32 {
        self.size_bytes
    }

    /// Line (block) size in bytes.
    pub fn line_bytes(self) -> u32 {
        self.line_bytes
    }

    /// Number of lines per set.
    pub fn associativity(self) -> u32 {
        self.associativity
    }

    /// Total number of lines.
    pub fn n_lines(self) -> u32 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn n_sets(self) -> u32 {
        self.n_lines() / self.associativity
    }

    /// The capacity as labels print it: `512B` under 1 KB, else `32KB`.
    pub(crate) fn size_label(self) -> String {
        if self.size_bytes < 1024 {
            format!("{}B", self.size_bytes)
        } else {
            format!("{}KB", self.size_bytes / 1024)
        }
    }

    /// The derived address arithmetic.
    pub fn geometry(self) -> Geometry {
        Geometry {
            offset_bits: self.line_bytes.trailing_zeros(),
            index_bits: self.n_sets().trailing_zeros(),
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = self.size_label();
        if self.associativity == 1 {
            write!(f, "{size} direct-mapped, {}B lines", self.line_bytes)
        } else {
            write!(
                f,
                "{size} {}-way, {}B lines",
                self.associativity, self.line_bytes
            )
        }
    }
}

/// Address arithmetic derived from a [`CacheConfig`]: splits a byte address
/// into line address, set index, and tag.
///
/// The full line address doubles as the "tag" stored by the simulators (it
/// uniquely identifies the block), which keeps comparisons trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    offset_bits: u32,
    index_bits: u32,
}

impl Geometry {
    /// Line address: the byte address shifted past the line offset.
    pub fn line_addr(self, addr: u32) -> u32 {
        addr >> self.offset_bits
    }

    /// Set index of a *line address*.
    pub fn set_of_line(self, line_addr: u32) -> u32 {
        line_addr & ((1 << self.index_bits) - 1)
    }

    /// Set index of a byte address.
    pub fn set_of_addr(self, addr: u32) -> u32 {
        self.set_of_line(self.line_addr(addr))
    }

    /// Tag of a line address (bits above the index).
    pub fn tag_of_line(self, line_addr: u32) -> u32 {
        line_addr >> self.index_bits
    }

    /// Number of bits used for the line offset.
    pub fn offset_bits(self) -> u32 {
        self.offset_bits
    }

    /// Number of bits used for the set index.
    pub fn index_bits(self) -> u32 {
        self.index_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_parameters() {
        assert_eq!(CacheConfig::new(0, 4, 1), Err(ConfigError::Zero));
        assert_eq!(CacheConfig::new(1024, 0, 1), Err(ConfigError::Zero));
        assert_eq!(CacheConfig::new(1024, 4, 0), Err(ConfigError::Zero));
        assert_eq!(
            CacheConfig::new(1000, 4, 1),
            Err(ConfigError::NotPowerOfTwo { value: 1000 })
        );
        assert_eq!(
            CacheConfig::new(1024, 12, 1),
            Err(ConfigError::NotPowerOfTwo { value: 12 })
        );
        assert_eq!(
            CacheConfig::new(1024, 2, 1),
            Err(ConfigError::LineTooSmall { line_bytes: 2 })
        );
        assert_eq!(
            CacheConfig::new(64, 16, 8),
            Err(ConfigError::TooAssociative)
        );
    }

    #[test]
    fn derived_quantities() {
        let c = CacheConfig::new(32 * 1024, 16, 2).unwrap();
        assert_eq!(c.n_lines(), 2048);
        assert_eq!(c.n_sets(), 1024);
        assert_eq!(c.geometry().offset_bits(), 4);
        assert_eq!(c.geometry().index_bits(), 10);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let c = CacheConfig::fully_associative(1024, 16).unwrap();
        assert_eq!(c.n_sets(), 1);
        assert_eq!(c.associativity(), 64);
    }

    #[test]
    fn geometry_splits_addresses() {
        let g = CacheConfig::direct_mapped(1024, 16).unwrap().geometry();
        // 1024/16 = 64 sets, 4 offset bits, 6 index bits.
        let addr = 0b1010_1011_1100_1101u32;
        assert_eq!(g.line_addr(addr), addr >> 4);
        assert_eq!(g.set_of_addr(addr), (addr >> 4) & 63);
        assert_eq!(g.tag_of_line(g.line_addr(addr)), addr >> 10);
    }

    #[test]
    fn word_lines_have_zero_offset_within_words() {
        let g = CacheConfig::direct_mapped(4096, 4).unwrap().geometry();
        assert_eq!(g.offset_bits(), 2);
        assert_eq!(g.line_addr(0x1004), 0x401);
    }

    #[test]
    fn conflicting_addresses_share_a_set() {
        let c = CacheConfig::direct_mapped(1024, 4).unwrap();
        let g = c.geometry();
        let a = 0x0000_0040u32;
        let b = a + c.size_bytes(); // one cache-size apart => same set
        assert_eq!(g.set_of_addr(a), g.set_of_addr(b));
        assert_ne!(g.tag_of_line(g.line_addr(a)), g.tag_of_line(g.line_addr(b)));
    }

    #[test]
    fn display_is_readable() {
        let dm = CacheConfig::direct_mapped(32 * 1024, 16).unwrap();
        assert_eq!(dm.to_string(), "32KB direct-mapped, 16B lines");
        let sa = CacheConfig::new(8 * 1024, 16, 4).unwrap();
        assert_eq!(sa.to_string(), "8KB 4-way, 16B lines");
        // Sub-KB sizes print in bytes, so distinct sizes get distinct labels.
        let small = CacheConfig::direct_mapped(512, 4).unwrap();
        assert_eq!(small.to_string(), "512B direct-mapped, 4B lines");
        let smaller = CacheConfig::new(256, 4, 2).unwrap();
        assert_eq!(smaller.to_string(), "256B 2-way, 4B lines");
        let kb = CacheConfig::direct_mapped(1024, 4).unwrap();
        assert_eq!(kb.to_string(), "1KB direct-mapped, 4B lines");
    }

    #[test]
    fn error_display() {
        assert!(ConfigError::TooAssociative
            .to_string()
            .contains("associativity"));
        assert!(ConfigError::Zero.to_string().contains("nonzero"));
    }
}
