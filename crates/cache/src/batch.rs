//! Kernel selection and chunked trace decode.
//!
//! The simulators in this workspace consume traces in two shapes: the
//! reference path pulls one [`Access`] at a time through an iterator, while
//! the fast kernels ([`crate::batch_sweep`], [`crate::batch_ehc`],
//! [`crate::batch_bwcost`]) want flat `&[u32]` address slices. This module
//! provides the bridge — [`ChunkedDecoder`] turns a packed trace into
//! reusable chunks of byte addresses without a per-reference virtual call,
//! and [`decode_addrs`] materializes a whole stream when a kernel needs it
//! resident (the whole-trace oracles always do).
//!
//! It also defines [`Kernel`], the `--kernel {reference,batch,sweep}`
//! selector the CLIs and the engine share.

use std::fmt;

use dynex_trace::{AccessKind, PackedAccess};

/// Number of references decoded per chunk. 4096 words (16 KiB of addresses)
/// comfortably fits in L1/L2 alongside the per-set state while amortizing
/// loop overhead.
pub const CHUNK_LEN: usize = 4096;

/// Which simulation implementation to run.
///
/// Every kernel produces bit-identical statistics, event streams, and CSV
/// output (`tests/kernel_differential.rs` enforces the matrix); the choice
/// is purely a performance one. `Reference` runs the spec simulators and
/// remains the differential oracle. `Batch` and `Sweep` are two names for
/// one fast path: dm/de/opt run through [`crate::batch_sweep`] (a single
/// point as a one-point sweep, a figure's many points sharing one trace
/// walk), ehc/bwcost through their chunked kernels, every other policy
/// through its reference simulator, and the Figures 7–9 hierarchy study
/// through the one-pass kernel of `dynex::hierarchy_sweep`.
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

/// Streaming decoder: packed words → chunks of word-aligned byte addresses
/// in a reusable internal buffer.
///
/// Each [`next_chunk`](ChunkedDecoder::next_chunk) call refills the buffer
/// from the packed slice (applying the [`KindFilter`]) and returns a view of
/// it, so decoding a trace of any length allocates one `CHUNK_LEN` buffer
/// total. The decode itself is two shifts per word — no `Access` struct is
/// materialized.
///
/// # Examples
///
/// ```
/// use dynex_cache::{ChunkedDecoder, KindFilter};
/// use dynex_trace::{Access, PackedAccess};
///
/// let packed: Vec<PackedAccess> =
///     [Access::fetch(0x40), Access::read(0x80)].map(PackedAccess::pack).into();
/// let mut decoder = ChunkedDecoder::new(&packed, KindFilter::Instructions);
/// assert_eq!(decoder.next_chunk(), Some(&[0x40u32][..]));
/// assert_eq!(decoder.next_chunk(), None);
/// ```
#[derive(Debug)]
pub struct ChunkedDecoder<'a> {
    packed: &'a [PackedAccess],
    pos: usize,
    filter: KindFilter,
    buf: Vec<u32>,
}

impl<'a> ChunkedDecoder<'a> {
    /// Creates a decoder over a packed trace.
    pub fn new(packed: &'a [PackedAccess], filter: KindFilter) -> ChunkedDecoder<'a> {
        ChunkedDecoder {
            packed,
            pos: 0,
            filter,
            buf: Vec::with_capacity(CHUNK_LEN),
        }
    }

    /// Decodes the next chunk of up to [`CHUNK_LEN`] byte addresses into the
    /// internal buffer and returns it, or `None` when the trace is drained.
    ///
    /// With a filter other than [`KindFilter::All`], consecutive filtered-out
    /// references are skipped; a returned chunk is non-empty.
    pub fn next_chunk(&mut self) -> Option<&[u32]> {
        self.buf.clear();
        while self.buf.len() < CHUNK_LEN && self.pos < self.packed.len() {
            let p = self.packed[self.pos];
            self.pos += 1;
            if self.filter.keeps(p.kind()) {
                self.buf.push(p.word_addr() << 2);
            }
        }
        if self.buf.is_empty() {
            None
        } else {
            Some(&self.buf)
        }
    }
}

/// Materializes a whole packed trace as word-aligned byte addresses,
/// applying `filter`. Built on [`ChunkedDecoder`]; this is the shape the
/// batch kernels and the request API's trace loader consume.
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
    let mut decoder = ChunkedDecoder::new(packed, filter);
    while let Some(chunk) = decoder.next_chunk() {
        addrs.extend_from_slice(chunk);
    }
    addrs
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
    fn decoder_chunks_long_traces() {
        let n = CHUNK_LEN * 2 + 17;
        let accesses: Vec<Access> = (0..n).map(|i| Access::fetch((i as u32) * 4)).collect();
        let packed = packed(&accesses);
        let mut decoder = ChunkedDecoder::new(&packed, KindFilter::All);
        let mut total = 0usize;
        let mut chunks = 0usize;
        while let Some(chunk) = decoder.next_chunk() {
            assert!(chunk.len() <= CHUNK_LEN);
            for (j, &addr) in chunk.iter().enumerate() {
                assert_eq!(addr, ((total + j) as u32) * 4);
            }
            total += chunk.len();
            chunks += 1;
        }
        assert_eq!(total, n);
        assert_eq!(chunks, 3);
    }

    #[test]
    fn decoder_skips_filtered_runs() {
        // A long run of data refs between two fetches must not yield an
        // empty chunk.
        let mut accesses = vec![Access::fetch(0x0)];
        accesses.extend((0..CHUNK_LEN * 2).map(|i| Access::read((i as u32) * 4)));
        accesses.push(Access::fetch(0x100));
        let packed = packed(&accesses);
        let mut decoder = ChunkedDecoder::new(&packed, KindFilter::Instructions);
        let mut got = Vec::new();
        while let Some(chunk) = decoder.next_chunk() {
            assert!(!chunk.is_empty());
            got.extend_from_slice(chunk);
        }
        assert_eq!(got, vec![0x0, 0x100]);
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
        let mut decoder = ChunkedDecoder::new(&[], KindFilter::All);
        assert_eq!(decoder.next_chunk(), None);
    }
}
