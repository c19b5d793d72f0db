//! Reading and writing traces.
//!
//! Two formats are supported:
//!
//! * **Binary** (`.dxt`): a 4-byte magic `DXT1`, a little-endian `u64`
//!   reference count, then one little-endian `u32` [`PackedAccess`] per
//!   reference. Compact and fast; the native interchange format.
//! * **Text**: one reference per line, `<mnemonic> <hex addr>` (e.g.
//!   `F 0x00401000`), `#`-prefixed comment lines ignored. Human-readable,
//!   handy for fixtures and debugging.
//!
//! Readers and writers are generic over [`std::io::Read`] / [`std::io::Write`]
//! by value; pass `&mut reader` to keep using the underlying stream afterward.
//! Binary input goes through one validating loop, [`BinaryReader`], which
//! streams 64 KiB chunks to a sink; [`read_binary_with`] collects them into
//! a [`Trace`].
//!
//! # Lenient ingestion
//!
//! Production traces are imperfect: a flipped bit in a packed word or a
//! mangled text line should not make a multi-gigabyte trace unreadable. The
//! `*_with` readers take a [`ReadPolicy`]: [`ReadPolicy::Strict`] (the
//! default, what [`read_binary`] / [`read_text`] use) fails on the first
//! corrupt record, while [`ReadPolicy::Lenient`] skips corrupt words/lines,
//! counts them in a [`ReadReport`], emits a [`dynex_obs::Event::TraceSkip`]
//! per skip through the supplied probe, and still fails fast with
//! [`TraceIoError::SkipBudgetExceeded`] once the skip count passes
//! `max_skipped`.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use dynex_obs::{Event, NoopProbe, Probe};

use crate::{Access, AccessKind, PackedAccess, Trace};

/// How a reader treats corrupt records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Fail on the first corrupt word / unparsable line (the historical
    /// behaviour of [`read_binary`] / [`read_text`]).
    #[default]
    Strict,
    /// Skip corrupt records, counting them in the [`ReadReport`] and
    /// emitting one [`Event::TraceSkip`] per skip, until more than
    /// `max_skipped` records have been dropped — then fail with
    /// [`TraceIoError::SkipBudgetExceeded`].
    Lenient {
        /// Largest tolerated number of skipped records.
        max_skipped: u64,
    },
}

/// What a lenient read skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadReport {
    /// Records dropped (corrupt packed words, unparsable lines, and — for
    /// binary traces — references lost to mid-stream truncation).
    pub skipped: u64,
    /// Offset of the first skip (reference index for binary traces, 1-based
    /// line number for text), if anything was skipped.
    pub first_skip: Option<u64>,
}

impl ReadReport {
    fn note<P: Probe>(
        &mut self,
        policy: ReadPolicy,
        offset: u64,
        count: u64,
        probe: &mut P,
    ) -> Result<(), TraceIoError> {
        self.skipped += count;
        self.first_skip.get_or_insert(offset);
        probe.emit(Event::TraceSkip { offset });
        match policy {
            ReadPolicy::Lenient { max_skipped } if self.skipped > max_skipped => {
                Err(TraceIoError::SkipBudgetExceeded {
                    skipped: self.skipped,
                    max_skipped,
                    offset,
                })
            }
            _ => Ok(()),
        }
    }
}

/// Magic bytes identifying the binary trace format, version 1.
pub const BINARY_MAGIC: [u8; 4] = *b"DXT1";

/// Error produced while reading or writing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying IO failure.
    Io(io::Error),
    /// The binary magic did not match [`BINARY_MAGIC`].
    BadMagic([u8; 4]),
    /// The stream ended before the declared reference count was read.
    Truncated {
        /// References the header promised.
        expected: u64,
        /// References actually present.
        actual: u64,
    },
    /// A packed word used the reserved kind encoding.
    CorruptAccess {
        /// Position (in references) of the corrupt word.
        index: u64,
    },
    /// A text line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: u64,
        /// The offending line content.
        content: String,
    },
    /// A lenient read skipped more records than its budget allows.
    SkipBudgetExceeded {
        /// Records skipped so far (including the one that broke the budget).
        skipped: u64,
        /// The configured [`ReadPolicy::Lenient`] budget.
        max_skipped: u64,
        /// Offset of the skip that broke the budget (reference index for
        /// binary traces, 1-based line number for text).
        offset: u64,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace io failure: {e}"),
            TraceIoError::BadMagic(m) => {
                let printable: String = m
                    .iter()
                    .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
                    .collect();
                write!(
                    f,
                    "bad trace magic {m:?} ({printable:?}), expected \"DXT1\""
                )
            }
            TraceIoError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated trace: header declared {expected} references, found {actual}"
                )
            }
            TraceIoError::CorruptAccess { index } => {
                write!(f, "corrupt packed access at reference {index}")
            }
            TraceIoError::BadLine { line, content } => {
                write!(f, "unparsable trace line {line}: {content:?}")
            }
            TraceIoError::SkipBudgetExceeded {
                skipped,
                max_skipped,
                offset,
            } => {
                write!(
                    f,
                    "lenient read gave up at offset {offset}: {skipped} records \
                     skipped, budget {max_skipped}"
                )
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

/// Writes `trace` in the binary format.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on any underlying write failure.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use dynex_trace::{io::{read_binary, write_binary}, Access, Trace};
///
/// let trace: Trace = [Access::fetch(0x40)].into_iter().collect();
/// let mut buf = Vec::new();
/// write_binary(&mut buf, &trace)?;
/// let back = read_binary(&buf[..])?;
/// assert_eq!(back, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_binary<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    writer.write_all(&BINARY_MAGIC)?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(4 * 1024);
    for chunk in trace.as_packed().chunks(1024) {
        buf.clear();
        for p in chunk {
            buf.extend_from_slice(&p.to_raw().to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a trace in the binary format.
///
/// # Errors
///
/// Returns [`TraceIoError::BadMagic`] for foreign data,
/// [`TraceIoError::Truncated`] if the stream ends early,
/// [`TraceIoError::CorruptAccess`] for reserved kind bits, and
/// [`TraceIoError::Io`] for underlying failures.
pub fn read_binary<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    read_binary_with(reader, ReadPolicy::Strict, NoopProbe).map(|(trace, _)| trace)
}

/// Reads a binary trace under a [`ReadPolicy`], emitting one
/// [`Event::TraceSkip`] per skipped record through `probe`.
///
/// This is [`BinaryReader`] collecting every validated chunk into a
/// [`Trace`]; the trace grows as chunks arrive, so a header that promises
/// more references than the stream holds reserves nothing.
///
/// The magic and the 12-byte header are always strict — a wrong magic or a
/// header the stream cannot even supply is a format error, not noise. Under
/// [`ReadPolicy::Lenient`], corrupt packed words are skipped one by one and
/// a mid-stream truncation ends the read with the missing tail counted as
/// skipped (one `TraceSkip` event at the truncation point).
///
/// # Errors
///
/// As [`read_binary`], plus [`TraceIoError::SkipBudgetExceeded`] when a
/// lenient read drops more than `max_skipped` records.
///
/// # Examples
///
/// ```
/// use dynex_obs::NoopProbe;
/// use dynex_trace::io::{read_binary_with, write_binary, ReadPolicy};
/// use dynex_trace::{Access, Trace};
///
/// let trace: Trace = [Access::fetch(0x40), Access::read(0x80)].into_iter().collect();
/// let mut buf = Vec::new();
/// write_binary(&mut buf, &trace).unwrap();
/// buf[12..16].copy_from_slice(&(3u32 << 30).to_le_bytes()); // corrupt word 0
/// let (back, report) =
///     read_binary_with(&buf[..], ReadPolicy::Lenient { max_skipped: 4 }, NoopProbe).unwrap();
/// assert_eq!(back.len(), 1);
/// assert_eq!(report.skipped, 1);
/// assert_eq!(report.first_skip, Some(0));
/// ```
pub fn read_binary_with<R: Read, P: Probe>(
    reader: R,
    policy: ReadPolicy,
    probe: P,
) -> Result<(Trace, ReadReport), TraceIoError> {
    let mut trace = Trace::new();
    let report = BinaryReader::new(reader, policy, probe)?
        .for_each_chunk(|chunk| trace.extend(chunk.iter().copied()))?;
    Ok((trace, report))
}

/// Packed words a [`BinaryReader`] reads per chunk: 64 KiB of input.
pub const READ_CHUNK_WORDS: usize = 16 * 1024;

/// The streaming reader of the binary format, and its one validation loop.
///
/// [`BinaryReader::new`] reads and checks the 12-byte header;
/// [`BinaryReader::for_each_chunk`] then reads the body in chunks of
/// [`READ_CHUNK_WORDS`] words into one reused buffer, validates each word,
/// and hands every chunk of valid [`PackedAccess`]es to a sink in stream
/// order. It owns the format's checks: [`TraceIoError::Truncated`],
/// [`TraceIoError::CorruptAccess`], and under [`ReadPolicy::Lenient`] the
/// skip accounting, the [`Event::TraceSkip`] events and the skip budget.
/// It never reads past the `count` words the header declares.
///
/// # Examples
///
/// ```
/// use dynex_obs::NoopProbe;
/// use dynex_trace::io::{write_binary, BinaryReader};
/// use dynex_trace::{Access, ReadPolicy, Trace};
///
/// let trace: Trace = [Access::fetch(0x40), Access::read(0x80)].into_iter().collect();
/// let mut buf = Vec::new();
/// write_binary(&mut buf, &trace).unwrap();
/// let reader = BinaryReader::new(&buf[..], ReadPolicy::Strict, NoopProbe).unwrap();
/// assert_eq!(reader.expected(), 2);
/// let mut words = Vec::new();
/// let report = reader.for_each_chunk(|chunk| words.extend_from_slice(chunk)).unwrap();
/// assert_eq!(words, trace.as_packed());
/// assert_eq!(report.skipped, 0);
/// ```
#[derive(Debug)]
pub struct BinaryReader<R, P> {
    reader: R,
    policy: ReadPolicy,
    probe: P,
    expected: u64,
}

impl<R: Read, P: Probe> BinaryReader<R, P> {
    /// Reads the magic and the reference count.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::BadMagic`] for foreign data, and
    /// [`TraceIoError::Io`] when the stream cannot supply the 12 header
    /// bytes (under every policy).
    pub fn new(mut reader: R, policy: ReadPolicy, probe: P) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != BINARY_MAGIC {
            return Err(TraceIoError::BadMagic(magic));
        }
        let mut count_bytes = [0u8; 8];
        reader.read_exact(&mut count_bytes)?;
        Ok(BinaryReader {
            reader,
            policy,
            probe,
            expected: u64::from_le_bytes(count_bytes),
        })
    }

    /// The reference count the header declares. It is unchecked input: the
    /// stream may hold fewer words, so bound it by what the source can
    /// actually supply before allocating for it.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Reads the body, handing each chunk of valid words to `sink` in
    /// stream order, and returns what a lenient read skipped.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Truncated`] if the stream ends early under
    /// [`ReadPolicy::Strict`], [`TraceIoError::CorruptAccess`] for reserved
    /// kind bits under strict, [`TraceIoError::SkipBudgetExceeded`] when a
    /// lenient read drops more than its budget, and [`TraceIoError::Io`] for
    /// underlying failures. Every chunk before the failing word has reached
    /// `sink` by then.
    pub fn for_each_chunk(
        mut self,
        mut sink: impl FnMut(&[PackedAccess]),
    ) -> Result<ReadReport, TraceIoError> {
        let policy = self.policy;
        let mut report = ReadReport::default();
        let mut bytes = vec![0u8; 4 * READ_CHUNK_WORDS];
        let mut words = Vec::with_capacity(READ_CHUNK_WORDS);
        // References consumed so far, valid or skipped.
        let mut index = 0u64;
        while index < self.expected {
            let want = (self.expected - index).min(READ_CHUNK_WORDS as u64) as usize;
            let (filled, failure) = fill(&mut self.reader, &mut bytes[..4 * want]);
            let whole = filled / 4;
            let body = &bytes[..4 * whole];
            words.clear();
            if !PackedAccess::extend_from_le_bytes(&mut words, body) {
                // The chunk holds a corrupt word: validate word by word.
                for (offset, word) in body.chunks_exact(4).enumerate() {
                    let raw = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
                    match PackedAccess::from_raw(raw) {
                        Some(packed) => words.push(packed),
                        None => {
                            let at = index + offset as u64;
                            match policy {
                                ReadPolicy::Strict => {
                                    return Err(TraceIoError::CorruptAccess { index: at })
                                }
                                ReadPolicy::Lenient { .. } => {
                                    report.note(policy, at, 1, &mut self.probe)?
                                }
                            }
                        }
                    }
                }
            }
            sink(&words);
            index += whole as u64;
            if let Some(e) = failure {
                return Err(e.into());
            }
            if whole < want {
                if let ReadPolicy::Lenient { .. } = policy {
                    // The rest of the trace is gone; count the missing tail
                    // as one truncation skip and stop cleanly if the budget
                    // still covers it.
                    report.note(policy, index, self.expected - index, &mut self.probe)?;
                    break;
                }
                return Err(TraceIoError::Truncated {
                    expected: self.expected,
                    actual: index,
                });
            }
        }
        Ok(report)
    }
}

/// Reads into `buf` until it is full or the stream ends, and returns the
/// bytes read with the error that stopped the read, if any. Like
/// `read_exact`, it retries `Interrupted` and treats `UnexpectedEof` as the
/// end of the stream.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> (usize, Option<io::Error>) {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return (filled, Some(e)),
        }
    }
    (filled, None)
}

/// Writes `trace` in the one-reference-per-line text format.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on any underlying write failure.
pub fn write_text<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    for access in trace.iter() {
        writeln!(
            writer,
            "{} {:#010x}",
            access.kind().mnemonic(),
            access.addr()
        )?;
    }
    Ok(())
}

/// Reads a trace in the text format. Blank lines and lines starting with `#`
/// are ignored.
///
/// # Errors
///
/// Returns [`TraceIoError::BadLine`] with the offending line number for any
/// line that is not `<F|R|W> <address>` (address decimal or `0x`-hex), and
/// [`TraceIoError::Io`] for underlying failures.
pub fn read_text<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    read_text_with(reader, ReadPolicy::Strict, NoopProbe).map(|(trace, _)| trace)
}

/// Reads a text trace under a [`ReadPolicy`], emitting one
/// [`Event::TraceSkip`] per skipped line through `probe`.
///
/// Under [`ReadPolicy::Lenient`], unparsable lines are skipped (blank and
/// `#` comment lines are never counted as skips).
///
/// # Errors
///
/// As [`read_text`], plus [`TraceIoError::SkipBudgetExceeded`] when a
/// lenient read drops more than `max_skipped` lines.
pub fn read_text_with<R: Read, P: Probe>(
    reader: R,
    policy: ReadPolicy,
    mut probe: P,
) -> Result<(Trace, ReadReport), TraceIoError> {
    let mut trace = Trace::new();
    let mut report = ReadReport::default();
    let buffered = BufReader::new(reader);
    for (i, line) in buffered.lines().enumerate() {
        let line = line?;
        let lineno = i as u64 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_text_line(trimmed) {
            Some(access) => trace.push(access),
            None => match policy {
                ReadPolicy::Strict => {
                    return Err(TraceIoError::BadLine {
                        line: lineno,
                        content: trimmed.to_owned(),
                    })
                }
                ReadPolicy::Lenient { .. } => report.note(policy, lineno, 1, &mut probe)?,
            },
        }
    }
    Ok((trace, report))
}

fn parse_text_line(line: &str) -> Option<Access> {
    let mut parts = line.split_whitespace();
    let kind_token = parts.next()?;
    let addr_token = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    let mut kind_chars = kind_token.chars();
    let kind = AccessKind::from_mnemonic(kind_chars.next()?)?;
    if kind_chars.next().is_some() {
        return None;
    }
    let addr = if let Some(hex) = addr_token
        .strip_prefix("0x")
        .or_else(|| addr_token.strip_prefix("0X"))
    {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        addr_token.parse().ok()?
    };
    Some(Access::new(addr, kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        [
            Access::fetch(0x1000),
            Access::read(0x8000),
            Access::write(0x8004),
            Access::fetch(0x1004),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), t);
    }

    #[test]
    fn binary_roundtrip_empty() {
        let t = Trace::new();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic(_)));
    }

    #[test]
    fn binary_detects_truncation() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_binary(&buf[..]).unwrap_err();
        match err {
            TraceIoError::Truncated {
                expected: 4,
                actual: 3,
            } => {}
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn binary_detects_corrupt_kind() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        // Overwrite the first access with reserved kind bits.
        let bad = (3u32 << 30).to_le_bytes();
        buf[12..16].copy_from_slice(&bad);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::CorruptAccess { index: 0 }));
    }

    #[test]
    fn text_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &t).unwrap();
        assert_eq!(read_text(&buf[..]).unwrap(), t);
    }

    #[test]
    fn text_accepts_comments_blanks_and_decimal() {
        let src = "# a comment\n\nF 0x100\nR 256\n";
        let t = read_text(src.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), Some(Access::fetch(0x100)));
        assert_eq!(t.get(1), Some(Access::read(256)));
    }

    #[test]
    fn text_rejects_garbage_with_line_number() {
        let err = read_text("F 0x100\nnot a line\n".as_bytes()).unwrap_err();
        match err {
            TraceIoError::BadLine { line: 2, content } => assert_eq!(content, "not a line"),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn text_rejects_extra_tokens_and_bad_kind() {
        assert!(read_text("F 0x100 extra\n".as_bytes()).is_err());
        assert!(read_text("Q 0x100\n".as_bytes()).is_err());
        assert!(read_text("FF 0x100\n".as_bytes()).is_err());
    }

    #[test]
    fn lenient_binary_skips_corrupt_words_and_counts_them() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        // Corrupt words 1 and 3 (reserved kind bits).
        for index in [1usize, 3] {
            buf[12 + 4 * index..16 + 4 * index].copy_from_slice(&(3u32 << 30).to_le_bytes());
        }
        let mut log = dynex_obs::EventLog::new();
        let (trace, report) =
            read_binary_with(&buf[..], ReadPolicy::Lenient { max_skipped: 2 }, &mut log).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.first_skip, Some(1));
        let offsets: Vec<u64> = log
            .events()
            .iter()
            .map(|e| match e {
                dynex_obs::Event::TraceSkip { offset } => *offset,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(offsets, vec![1, 3]);
    }

    #[test]
    fn lenient_budget_is_a_hard_ceiling() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        for index in [0usize, 1] {
            buf[12 + 4 * index..16 + 4 * index].copy_from_slice(&(3u32 << 30).to_le_bytes());
        }
        let err = read_binary_with(&buf[..], ReadPolicy::Lenient { max_skipped: 1 }, NoopProbe)
            .unwrap_err();
        match err {
            TraceIoError::SkipBudgetExceeded {
                skipped: 2,
                max_skipped: 1,
                offset: 1,
            } => {}
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn lenient_binary_tolerates_truncation_within_budget() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 6); // loses the last two references
        let (trace, report) =
            read_binary_with(&buf[..], ReadPolicy::Lenient { max_skipped: 2 }, NoopProbe).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.first_skip, Some(2));
        // A strict read of the same bytes still fails.
        assert!(matches!(
            read_binary(&buf[..]).unwrap_err(),
            TraceIoError::Truncated { .. }
        ));
    }

    #[test]
    fn lenient_text_skips_bad_lines_by_line_number() {
        let src = "F 0x100\nnot a line\nR 256\nQ 1\n";
        let mut counting = dynex_obs::CountingProbe::new();
        let (trace, report) = read_text_with(
            src.as_bytes(),
            ReadPolicy::Lenient { max_skipped: 5 },
            &mut counting,
        )
        .unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.first_skip, Some(2));
        assert_eq!(counting.counts().trace_skips, 2);
    }

    #[test]
    fn strict_policy_matches_plain_readers() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        let (trace, report) = read_binary_with(&buf[..], ReadPolicy::default(), NoopProbe).unwrap();
        assert_eq!(trace, t);
        assert_eq!(report, ReadReport::default());
    }

    #[test]
    fn error_display_and_source() {
        let io_err: TraceIoError = io::Error::other("boom").into();
        assert!(io_err.to_string().contains("boom"));
        assert!(io_err.source().is_some());
        assert!(TraceIoError::BadMagic(*b"ABCD").source().is_none());
    }
}
