//! Compact 4-byte encoding of a reference.

use std::error::Error;
use std::fmt;

use crate::{Access, AccessKind};

/// Largest byte address representable by [`PackedAccess`]: 30 bits of word
/// address, i.e. a 4 GiB space at word granularity.
pub const MAX_ADDR: u32 = u32::MAX;

const KIND_SHIFT: u32 = 30;
const WORD_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// Error returned when an address cannot be packed.
///
/// With 30 bits of word address the packed form covers the full 32-bit byte
/// address space, so this error is currently unreachable from safe
/// constructors; it exists so the format can shrink the address field without
/// breaking the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressRangeError {
    addr: u32,
}

impl AddressRangeError {
    /// The offending byte address.
    pub fn addr(&self) -> u32 {
        self.addr
    }
}

impl fmt::Display for AddressRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address {:#x} exceeds the packed trace address range",
            self.addr
        )
    }
}

impl Error for AddressRangeError {}

/// One reference packed into 32 bits: the top two bits encode the
/// [`AccessKind`], the low 30 bits the word address.
///
/// This is the in-memory and on-disk representation of traces. Packing is
/// lossy only in the low two (sub-word) address bits, which the simulators
/// never use.
///
/// # Examples
///
/// ```
/// use dynex_trace::{Access, PackedAccess};
///
/// let p = PackedAccess::from(Access::write(0x2000));
/// let back = Access::from(p);
/// assert_eq!(back, Access::write(0x2000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedAccess(u32);

impl PackedAccess {
    /// Packs an access. Sub-word address bits are discarded.
    pub fn pack(access: Access) -> PackedAccess {
        let kind = match access.kind() {
            AccessKind::Fetch => 0u32,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        };
        PackedAccess((kind << KIND_SHIFT) | (access.word_addr() & WORD_MASK))
    }

    /// Unpacks into a full [`Access`] (word-aligned byte address).
    pub fn unpack(self) -> Access {
        Access::new(self.word_addr() << 2, self.kind())
    }

    /// The word address stored in the low 30 bits.
    pub fn word_addr(self) -> u32 {
        self.0 & WORD_MASK
    }

    /// The kind stored in the top two bits.
    ///
    /// # Panics
    ///
    /// Panics if the raw encoding holds the reserved kind value `3`, which no
    /// constructor produces; it can only arise from [`PackedAccess::from_raw`]
    /// with corrupt input.
    pub fn kind(self) -> AccessKind {
        match self.0 >> KIND_SHIFT {
            0 => AccessKind::Fetch,
            1 => AccessKind::Read,
            2 => AccessKind::Write,
            _ => panic!("corrupt packed access: reserved kind bits"),
        }
    }

    /// The raw 32-bit encoding (for IO).
    pub fn to_raw(self) -> u32 {
        self.0
    }

    /// Reconstructs from a raw encoding, validating the kind bits.
    ///
    /// # Errors
    ///
    /// Returns `None` if the kind bits hold the reserved value `3`.
    pub fn from_raw(raw: u32) -> Option<PackedAccess> {
        if raw >> KIND_SHIFT == 3 {
            None
        } else {
            Some(PackedAccess(raw))
        }
    }
}

impl PackedAccess {
    /// Appends the little-endian words in `bytes` (a whole number of them)
    /// to `out` and returns `true`, or returns `false` and appends nothing
    /// if any word holds the reserved kind encoding. The check is one
    /// branch-free pass, so a clean chunk costs no per-word branch.
    pub(crate) fn extend_from_le_bytes(out: &mut Vec<PackedAccess>, bytes: &[u8]) -> bool {
        let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        // Bit 31 of `w & (w << 1)` is set exactly when both kind bits are:
        // the reserved value 3.
        let reserved = bytes
            .chunks_exact(4)
            .fold(0, |acc, b| acc | (word(b) & (word(b) << 1)));
        if reserved >> 31 != 0 {
            return false;
        }
        out.extend(bytes.chunks_exact(4).map(|b| PackedAccess(word(b))));
        true
    }
}

impl From<Access> for PackedAccess {
    fn from(access: Access) -> PackedAccess {
        PackedAccess::pack(access)
    }
}

impl From<PackedAccess> for Access {
    fn from(packed: PackedAccess) -> Access {
        packed.unpack()
    }
}

impl fmt::Display for PackedAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.unpack().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        for kind in AccessKind::ALL {
            let a = Access::new(0xdead_beec, kind);
            let p = PackedAccess::pack(a);
            assert_eq!(p.unpack(), a);
        }
    }

    #[test]
    fn subword_bits_are_dropped() {
        let p = PackedAccess::pack(Access::fetch(0x1003));
        assert_eq!(p.unpack().addr(), 0x1000);
    }

    #[test]
    fn high_addresses_roundtrip() {
        // Top of the 32-bit byte space still fits: word address uses 30 bits.
        let a = Access::read(0xffff_fffc);
        assert_eq!(PackedAccess::pack(a).unpack(), a);
    }

    #[test]
    fn raw_roundtrip_and_validation() {
        let p = PackedAccess::pack(Access::write(0x44));
        assert_eq!(PackedAccess::from_raw(p.to_raw()), Some(p));
        assert_eq!(PackedAccess::from_raw(3 << 30), None);
    }

    #[test]
    fn error_display_mentions_address() {
        let err = AddressRangeError { addr: 0x1234 };
        assert!(err.to_string().contains("0x1234"));
        assert_eq!(err.addr(), 0x1234);
    }

    #[test]
    #[should_panic(expected = "corrupt packed access")]
    fn corrupt_kind_panics() {
        // from_raw rejects it, but a transmuted value would panic on use.
        let bad = PackedAccess(3 << 30);
        let _ = bad.kind();
    }
}
