//! Kernel selection and trace decode.
//!
//! The simulators in this workspace consume traces in two shapes: the
//! reference path pulls one [`Access`] at a time through an iterator, while
//! the fast kernels (the sweep, [`crate::batch_sweep`], and the hierarchy
//! kernel in `dynex-core`) want flat `&[u32]` address slices. This module
//! provides the bridge — [`decode_into`] appends the byte addresses of a
//! run of packed words to a vector (the request API's loader calls it per
//! chunk as it reads a file), and [`decode_addrs`] materializes a whole
//! stream when a kernel needs it resident (the EHC window reads ahead of
//! the reference it answers for).
//!
//! It also defines [`Kernel`], the `--kernel {reference,batch,sweep}`
//! selector the CLIs and the engine share.

use std::fmt;

use dynex_trace::{AccessKind, PackedAccess};

/// Number of references the fast kernels process per chunk. 4096 words
/// (16 KiB of addresses) comfortably fits in L1/L2 alongside the per-set
/// state while amortizing loop overhead.
pub const CHUNK_LEN: usize = 4096;

/// Which simulation implementation to run.
///
/// Every kernel produces bit-identical statistics, event streams, and CSV
/// output (`tests/kernel_differential.rs` enforces the matrix); the choice
/// is purely a performance one. `Reference` runs the spec simulators and
/// remains the differential oracle. `Batch` and `Sweep` are two names for
/// one fast path: every direct-mapped policy (dm/de/opt, their last-line
/// variants, ehc and bwcost) runs through [`crate::batch_sweep`] (a single
/// point as a one-point sweep, a figure's many points sharing one trace
/// walk), every other policy through its reference simulator, and the
/// Figures 7–9 hierarchy study through the one-pass kernel of
/// `dynex::hierarchy_sweep`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Per-reference `access()` simulators (the spec implementations).
    Reference,
    /// The fast path (the default).
    #[default]
    Batch,
    /// The fast path, under its older multi-configuration name.
    Sweep,
}

impl Kernel {
    /// Stable lowercase name, as accepted by [`Kernel::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Batch => "batch",
            Kernel::Sweep => "sweep",
        }
    }

    /// Parses a `--kernel` argument.
    ///
    /// # Examples
    ///
    /// ```
    /// use dynex_cache::Kernel;
    ///
    /// assert_eq!(Kernel::parse("batch"), Some(Kernel::Batch));
    /// assert_eq!(Kernel::parse("reference"), Some(Kernel::Reference));
    /// assert_eq!(Kernel::parse("sweep"), Some(Kernel::Sweep));
    /// assert_eq!(Kernel::parse("fast"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Kernel> {
        match s {
            "reference" => Some(Kernel::Reference),
            "batch" => Some(Kernel::Batch),
            "sweep" => Some(Kernel::Sweep),
            _ => None,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which reference kinds a decode keeps, mirroring the instruction/data
/// split the paper's figures use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KindFilter {
    /// Every reference (unified cache).
    #[default]
    All,
    /// Instruction fetches only.
    Instructions,
    /// Data reads and writes only.
    Data,
}

impl KindFilter {
    /// Whether a reference of `kind` passes the filter.
    #[inline]
    pub fn keeps(self, kind: AccessKind) -> bool {
        match self {
            KindFilter::All => true,
            KindFilter::Instructions => kind == AccessKind::Fetch,
            KindFilter::Data => kind != AccessKind::Fetch,
        }
    }
}

/// Materializes a whole packed trace as word-aligned byte addresses,
/// applying `filter` ([`decode_into`] into a fresh vector). This is the
/// shape the batch kernels and the request API's trace loader consume.
///
/// # Examples
///
/// ```
/// use dynex_cache::{decode_addrs, KindFilter};
/// use dynex_trace::{Access, PackedAccess};
///
/// let packed: Vec<PackedAccess> =
///     [Access::fetch(0x40), Access::write(0x83)].map(PackedAccess::pack).into();
/// assert_eq!(decode_addrs(&packed, KindFilter::All), vec![0x40, 0x80]);
/// assert_eq!(decode_addrs(&packed, KindFilter::Data), vec![0x80]);
/// ```
pub fn decode_addrs(packed: &[PackedAccess], filter: KindFilter) -> Vec<u32> {
    let mut addrs = Vec::with_capacity(if filter == KindFilter::All {
        packed.len()
    } else {
        0
    });
    decode_into(packed, filter, &mut addrs);
    addrs
}

/// Appends the word-aligned byte address of every reference in `packed`
/// that passes `filter` to `out`: the one decode behind [`decode_addrs`]
/// and the request API's streaming `.dxt` loader, which calls it once per
/// chunk as the file is read.
///
/// # Examples
///
/// ```
/// use dynex_cache::{decode_into, KindFilter};
/// use dynex_trace::{Access, PackedAccess};
///
/// let mut addrs = vec![0x10];
/// let chunk = [Access::fetch(0x40), Access::read(0x80)].map(PackedAccess::pack);
/// decode_into(&chunk, KindFilter::Instructions, &mut addrs);
/// assert_eq!(addrs, vec![0x10, 0x40]);
/// ```
pub fn decode_into(packed: &[PackedAccess], filter: KindFilter, out: &mut Vec<u32>) {
    let addr = |p: &PackedAccess| p.word_addr() << 2;
    if filter == KindFilter::All {
        // No kind test: the common unified-cache case stays a straight copy.
        out.extend(packed.iter().map(addr));
    } else {
        out.extend(packed.iter().filter(|p| filter.keeps(p.kind())).map(addr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_trace::Access;

    fn packed(accesses: &[Access]) -> Vec<PackedAccess> {
        accesses.iter().map(|&a| PackedAccess::pack(a)).collect()
    }

    #[test]
    fn kernel_parse_roundtrips_names() {
        for kernel in [Kernel::Reference, Kernel::Batch, Kernel::Sweep] {
            assert_eq!(Kernel::parse(kernel.name()), Some(kernel));
            assert_eq!(kernel.to_string(), kernel.name());
        }
        assert_eq!(Kernel::parse("Batch"), None, "case-sensitive like --jobs");
        assert_eq!(Kernel::default(), Kernel::Batch);
    }

    #[test]
    fn filter_splits_instruction_and_data() {
        assert!(KindFilter::All.keeps(AccessKind::Fetch));
        assert!(KindFilter::All.keeps(AccessKind::Write));
        assert!(KindFilter::Instructions.keeps(AccessKind::Fetch));
        assert!(!KindFilter::Instructions.keeps(AccessKind::Read));
        assert!(KindFilter::Data.keeps(AccessKind::Read));
        assert!(KindFilter::Data.keeps(AccessKind::Write));
        assert!(!KindFilter::Data.keeps(AccessKind::Fetch));
    }

    #[test]
    fn decode_into_appends_filtered_runs() {
        // A long run of data refs between two fetches decodes to the two
        // fetches, appended after what the vector already held.
        let mut accesses = vec![Access::fetch(0x0)];
        accesses.extend((0..CHUNK_LEN * 2).map(|i| Access::read((i as u32) * 4)));
        accesses.push(Access::fetch(0x100));
        let packed = packed(&accesses);
        let mut got = vec![0x40];
        decode_into(&packed, KindFilter::Instructions, &mut got);
        assert_eq!(got, vec![0x40, 0x0, 0x100]);
        decode_into(&packed[1..3], KindFilter::Data, &mut got);
        assert_eq!(got, vec![0x40, 0x0, 0x100, 0x0, 0x4]);
    }

    #[test]
    fn decode_addrs_matches_unpack_loop() {
        let accesses: Vec<Access> = (0..1000)
            .map(|i| {
                let addr = (i as u32) * 12 + 3; // unaligned on purpose
                match i % 3 {
                    0 => Access::fetch(addr),
                    1 => Access::read(addr),
                    _ => Access::write(addr),
                }
            })
            .collect();
        let packed = packed(&accesses);
        let expected: Vec<u32> = packed.iter().map(|p| p.unpack().addr()).collect();
        assert_eq!(decode_addrs(&packed, KindFilter::All), expected);
        let data: Vec<u32> = packed
            .iter()
            .filter(|p| p.kind() != AccessKind::Fetch)
            .map(|p| p.unpack().addr())
            .collect();
        assert_eq!(decode_addrs(&packed, KindFilter::Data), data);
    }

    #[test]
    fn empty_trace_decodes_to_nothing() {
        assert_eq!(decode_addrs(&[], KindFilter::All), Vec::<u32>::new());
        let mut addrs = vec![4];
        decode_into(&[], KindFilter::Data, &mut addrs);
        assert_eq!(addrs, vec![4]);
    }
}
