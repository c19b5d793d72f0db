//! Differential tests of the chunked binary reader against the word-at-a-time
//! loop it replaced: for every truncation point, corruption pattern, policy
//! and chunk-boundary size, `read_binary_with` must return the same trace,
//! skip report, `TraceSkip` events and error (variant and message).

use std::io::{self, ErrorKind, Read};

use dynex_obs::{Event, EventLog, NoopProbe, Probe};
use dynex_trace::io::{
    read_binary_with, write_binary, BinaryReader, ReadReport, TraceIoError, BINARY_MAGIC,
    READ_CHUNK_WORDS,
};
use dynex_trace::{Access, PackedAccess, ReadPolicy, Trace};

const RESERVED_KIND: u32 = 3u32 << 30;
const CHUNK: usize = READ_CHUNK_WORDS;

/// The word-at-a-time reader `read_binary_with` used before the chunked
/// reader, kept verbatim (minus its header-sized reservation) as the oracle.
fn oracle<R: Read, P: Probe>(
    mut reader: R,
    policy: ReadPolicy,
    mut probe: P,
) -> Result<(Trace, ReadReport), TraceIoError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != BINARY_MAGIC {
        return Err(TraceIoError::BadMagic(magic));
    }
    let mut count_bytes = [0u8; 8];
    reader.read_exact(&mut count_bytes)?;
    let expected = u64::from_le_bytes(count_bytes);

    let mut trace = Trace::new();
    let mut report = ReadReport::default();
    let mut word = [0u8; 4];
    let note = |report: &mut ReadReport, offset: u64, count: u64, probe: &mut P| {
        report.skipped += count;
        report.first_skip.get_or_insert(offset);
        probe.emit(Event::TraceSkip { offset });
        match policy {
            ReadPolicy::Lenient { max_skipped } if report.skipped > max_skipped => {
                Err(TraceIoError::SkipBudgetExceeded {
                    skipped: report.skipped,
                    max_skipped,
                    offset,
                })
            }
            _ => Ok(()),
        }
    };
    for index in 0..expected {
        if let Err(e) = reader.read_exact(&mut word) {
            if e.kind() == ErrorKind::UnexpectedEof {
                if let ReadPolicy::Lenient { .. } = policy {
                    note(&mut report, index, expected - index, &mut probe)?;
                    break;
                }
                return Err(TraceIoError::Truncated {
                    expected,
                    actual: index,
                });
            }
            return Err(e.into());
        }
        let raw = u32::from_le_bytes(word);
        match PackedAccess::from_raw(raw) {
            Some(packed) => trace.push(packed.unpack()),
            None => match policy {
                ReadPolicy::Strict => return Err(TraceIoError::CorruptAccess { index }),
                ReadPolicy::Lenient { .. } => note(&mut report, index, 1, &mut probe)?,
            },
        }
    }
    Ok((trace, report))
}

/// A reproducible trace of `len` references of every kind.
fn trace_of(len: usize) -> Trace {
    (0..len as u32)
        .map(|i| {
            let addr = i.wrapping_mul(0x9e37_79b9) & !3;
            match i % 3 {
                0 => Access::fetch(addr),
                1 => Access::read(addr),
                _ => Access::write(addr),
            }
        })
        .collect()
}

fn bytes_of(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_binary(&mut buf, trace).unwrap();
    buf
}

fn corrupt(buf: &mut [u8], index: usize) {
    buf[12 + 4 * index..16 + 4 * index].copy_from_slice(&RESERVED_KIND.to_le_bytes());
}

/// A read's observable result: the references and report, or the error's
/// variant and fields (`Debug`) and message (`Display`); plus the events.
#[derive(Debug, PartialEq)]
enum Outcome {
    Read(Vec<PackedAccess>, ReadReport, Vec<Event>),
    Failed(String, String, Vec<Event>),
}

fn outcome(result: Result<(Trace, ReadReport), TraceIoError>, log: &EventLog) -> Outcome {
    let events = log.events().to_vec();
    match result {
        Ok((trace, report)) => Outcome::Read(trace.as_packed().to_vec(), report, events),
        Err(e) => Outcome::Failed(format!("{e:?}"), e.to_string(), events),
    }
}

/// Runs the new reader and the oracle over `bytes` (through `wrap`) under
/// `policy` and asserts they agree.
fn agree_with(bytes: &[u8], policy: ReadPolicy, what: &str, wrap: fn(&[u8]) -> Box<dyn Read + '_>) {
    let (mut new_log, mut old_log) = (EventLog::new(), EventLog::new());
    let new = read_binary_with(wrap(bytes), policy, &mut new_log);
    let old = oracle(wrap(bytes), policy, &mut old_log);
    // Compare without printing two 16K-word traces on a mismatch.
    let (new, old) = (outcome(new, &new_log), outcome(old, &old_log));
    if new != old {
        let brief = |o: &Outcome| match o {
            Outcome::Read(words, report, events) => {
                format!("{} words, {report:?}, {events:?}", words.len())
            }
            Outcome::Failed(debug, display, events) => format!("{debug} / {display} {events:?}"),
        };
        panic!(
            "{what} under {policy:?}: chunked {} vs word loop {}",
            brief(&new),
            brief(&old)
        );
    }
}

fn agree(bytes: &[u8], policy: ReadPolicy, what: &str) {
    agree_with(bytes, policy, what, |b| Box::new(b));
}

const POLICIES: [ReadPolicy; 4] = [
    ReadPolicy::Strict,
    ReadPolicy::Lenient { max_skipped: 0 },
    ReadPolicy::Lenient { max_skipped: 2 },
    ReadPolicy::Lenient {
        max_skipped: u64::MAX,
    },
];

/// Chunk-boundary trace sizes.
const SIZES: [usize; 5] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1];

#[test]
fn truncation_at_every_header_and_last_word_offset_matches_the_word_loop() {
    for len in SIZES {
        let full = bytes_of(&trace_of(len));
        // Every cut inside the header, and every cut inside the last word
        // (or, for the empty trace, the header alone).
        let last_word = full.len().saturating_sub(4).max(12);
        let cuts = (0..=12).chain(last_word..=full.len());
        for cut in cuts {
            for policy in POLICIES {
                agree(
                    &full[..cut],
                    policy,
                    &format!("{len} words cut at byte {cut}"),
                );
            }
        }
    }
}

#[test]
fn corrupt_words_around_chunk_boundaries_match_the_word_loop() {
    let len = 2 * CHUNK + 3;
    let clean = bytes_of(&trace_of(len));
    let patterns: [&[usize]; 6] = [
        &[0],
        &[CHUNK - 1],
        &[CHUNK],
        &[CHUNK - 1, CHUNK, CHUNK + 1],
        &[5, CHUNK + 7, len - 1],
        &[len - 1],
    ];
    for pattern in patterns {
        let mut buf = clean.clone();
        for &index in pattern {
            corrupt(&mut buf, index);
        }
        for policy in POLICIES {
            agree(&buf, policy, &format!("corrupt {pattern:?}"));
            // Corruption and a truncated tail together: the corrupt words
            // before the cut are reported first.
            let cut = buf.len() - 6;
            agree(&buf[..cut], policy, &format!("corrupt {pattern:?}, cut"));
        }
    }
}

#[test]
fn short_reads_interrupts_and_io_errors_match_the_word_loop() {
    let mut buf = bytes_of(&trace_of(CHUNK + 9));
    corrupt(&mut buf, 3);
    for policy in POLICIES {
        agree_with(&buf, policy, "3-byte reads", |b| {
            Box::new(Dribble {
                bytes: b,
                step: 3,
                calls: 0,
            })
        });
        agree_with(&buf, policy, "failing source", |b| {
            Box::new(Failing {
                bytes: b,
                fail_at: 12 + 4 * 100 + 2,
            })
        });
    }
}

#[test]
fn hostile_header_count_is_a_truncation_not_an_allocation() {
    // 12 bytes that declare 2^40 references and hold none.
    let mut bytes = BINARY_MAGIC.to_vec();
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    match read_binary_with(&bytes[..], ReadPolicy::Strict, NoopProbe).unwrap_err() {
        TraceIoError::Truncated {
            expected,
            actual: 0,
        } => assert_eq!(expected, 1 << 40),
        other => panic!("unexpected error: {other}"),
    }
    let mut log = EventLog::new();
    let (trace, report) = read_binary_with(
        &bytes[..],
        ReadPolicy::Lenient {
            max_skipped: u64::MAX,
        },
        &mut log,
    )
    .unwrap();
    assert!(trace.is_empty());
    assert_eq!(report.skipped, 1 << 40, "the missing tail is one skip");
    assert_eq!(report.first_skip, Some(0));
    assert_eq!(log.events(), &[Event::TraceSkip { offset: 0 }]);
}

#[test]
fn reader_stops_at_the_declared_count() {
    let trace = trace_of(CHUNK + 2);
    let mut bytes = bytes_of(&trace);
    bytes.extend_from_slice(b"tail");
    let mut source = &bytes[..];
    let reader = BinaryReader::new(&mut source, ReadPolicy::Strict, NoopProbe).unwrap();
    assert_eq!(reader.expected(), trace.len() as u64);
    let mut chunks = Vec::new();
    let mut words = Vec::new();
    reader
        .for_each_chunk(|chunk| {
            chunks.push(chunk.len());
            words.extend_from_slice(chunk);
        })
        .unwrap();
    assert_eq!(chunks, vec![CHUNK, 2]);
    assert_eq!(words, trace.as_packed());
    assert_eq!(source, b"tail", "bytes after the body stay unread");
}

/// A source that returns at most `step` bytes per read, and `Interrupted`
/// on every fifth call.
struct Dribble<'a> {
    bytes: &'a [u8],
    step: usize,
    calls: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(5) {
            return Err(ErrorKind::Interrupted.into());
        }
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A source that fails with an IO error once `fail_at` bytes are read.
struct Failing<'a> {
    bytes: &'a [u8],
    fail_at: usize,
}

impl Read for Failing<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.fail_at == 0 {
            return Err(io::Error::other("disk on fire"));
        }
        let n = buf.len().min(self.fail_at).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        self.fail_at -= n;
        Ok(n)
    }
}
