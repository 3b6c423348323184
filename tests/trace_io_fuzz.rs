//! Truncation/corruption fuzzing of the `SPB1` trace format.
//!
//! The ingest error contract promises that **every** malformed stream —
//! cut at any byte, with a corrupted record, or with bytes after its
//! last record — fails cleanly with a
//! [`TraceParseError`] naming the item index and absolute byte offset,
//! and never panics, hangs, or silently returns a short trace.  These
//! tests sweep every truncation point of a real trace and a seeded set
//! of single-byte corruptions to pin that promise.
//!
//! The decoder parses out of one buffer it refills from the source, so
//! a field can straddle two refills.  Every stream here is therefore
//! also read through [`Trickle`], a source that hands out 1–7 bytes per
//! call and now and then an `Interrupted` error: it splits nearly every
//! field across reads, and must not change the result.  A trace of over
//! 1 MiB spans several refills of the decoder's buffer in one piece.
//!
//! [`TraceParseError`]: secpb_workloads::trace_io::TraceParseError

use std::io::{self, Read, Write};

use secpb::sim::rng::Rng;
use secpb::sim::trace::TraceItem;
use secpb::workloads::trace_io::{read_trace, write_trace, TraceParseError};
use secpb::workloads::{TraceGenerator, WorkloadProfile};

/// Magic (4) + item count (8).
const HEADER_LEN: usize = 12;

fn sample_bytes(seed: u64, instructions: u64) -> (Vec<u8>, usize) {
    let profile = WorkloadProfile::named("mcf").unwrap();
    let items = TraceGenerator::new(profile, seed).generate(instructions);
    assert!(!items.is_empty());
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &items).unwrap();
    (bytes, items.len())
}

/// A seeded source that returns 1–7 bytes per read and, about one call
/// in eight, `Interrupted` instead.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: Rng,
}

impl<'a> Trickle<'a> {
    fn new(bytes: &'a [u8], seed: u64) -> Self {
        Trickle {
            bytes,
            rng: Rng::seed_from(seed),
        }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.below(8) == 0 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = (self.rng.range(1, 7) as usize)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The located [`TraceParseError`] inside a failed read.
fn parse_error(err: io::Error) -> TraceParseError {
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    let inner = err
        .into_inner()
        .expect("parse failures carry a TraceParseError");
    *inner
        .downcast::<TraceParseError>()
        .expect("parse failures carry a TraceParseError")
}

/// Reads the stream in one piece and through a [`Trickle`], demands the
/// same located [`TraceParseError`] from both, and returns it for
/// further shape checks.
fn expect_parse_error(bytes: &[u8]) -> TraceParseError {
    let whole = parse_error(read_trace(bytes).expect_err("malformed stream must fail"));
    let trickled = read_trace(Trickle::new(bytes, bytes.len() as u64))
        .expect_err("malformed stream must fail when trickled");
    assert_eq!(parse_error(trickled), whole, "split reads moved the error");
    whole
}

/// Reads the stream in one piece and through a [`Trickle`], demanding
/// `items` from both.
fn expect_round_trip(bytes: &[u8], items: &[TraceItem]) {
    assert_eq!(read_trace(bytes).unwrap(), items);
    assert_eq!(read_trace(Trickle::new(bytes, 0xF077)).unwrap(), items);
}

#[test]
fn every_truncation_point_fails_with_item_and_byte_offset() {
    let (bytes, _) = sample_bytes(0xF022, 2_000);
    for cut in 0..bytes.len() {
        let err = expect_parse_error(&bytes[..cut]);
        assert!(
            err.offset <= cut as u64,
            "cut {cut}: reported offset {} is past the stream end",
            err.offset
        );
        let text = err.to_string();
        assert!(text.contains("byte offset"), "cut {cut}: {text}");
        if cut < HEADER_LEN {
            // Died in the header: no item index to report yet.
            assert_eq!(err.item, None, "cut {cut}: {text}");
            assert!(text.contains("header"), "cut {cut}: {text}");
        } else {
            // Died inside some record: the index is present and within
            // the promised count.
            let item = err.item.unwrap_or_else(|| panic!("cut {cut}: {text}"));
            assert!(text.contains(&format!("item {item}")), "cut {cut}: {text}");
        }
    }
}

#[test]
fn truncated_streams_never_return_a_short_trace() {
    // The header's count is a promise: a stream holding fewer records
    // must error, not quietly yield what it had.
    let (bytes, count) = sample_bytes(0xF033, 1_000);
    let mut rng = Rng::seed_from(0xF033);
    for _ in 0..64 {
        let cut = HEADER_LEN + rng.below((bytes.len() - HEADER_LEN) as u64) as usize;
        let err = expect_parse_error(&bytes[..cut]);
        assert!(
            err.item.is_some_and(|i| i < count as u64),
            "cut {cut}: item index {:?} outside 0..{count}",
            err.item
        );
    }
}

#[test]
fn corrupted_kind_bytes_name_the_poisoned_item() {
    // Walk the records to find each item's kind-byte offset, poison it,
    // and demand the error name exactly that item.
    let (bytes, count) = sample_bytes(0xF044, 800);
    let mut rng = Rng::seed_from(0xF044);
    let kind_offset = |bytes: &[u8], index: u64| {
        let mut off = HEADER_LEN;
        for _ in 0..index {
            off += 4; // non_mem
            let kind = bytes[off];
            off += 1;
            if kind != 0 {
                off += 8 + 1 + 8 + 2; // addr, size, value, asid
            }
        }
        off + 4
    };
    for _ in 0..32 {
        let victim = rng.below(count as u64);
        let mut poisoned = bytes.clone();
        let at = kind_offset(&poisoned, victim);
        poisoned[at] = 7; // no such access kind
        let err = expect_parse_error(&poisoned);
        assert_eq!(err.item, Some(victim), "{err}");
        assert_eq!(err.offset, at as u64 + 1, "{err}");
        assert!(err.to_string().contains("kind"), "{err}");
    }
}

#[test]
fn bad_magic_reports_the_header() {
    let (mut bytes, _) = sample_bytes(0xF055, 500);
    bytes[0] = b'X';
    let err = expect_parse_error(&bytes);
    assert_eq!(err.item, None);
    let text = err.to_string();
    assert!(
        text.contains("header") && text.contains("byte offset"),
        "{text}"
    );
}

#[test]
fn bytes_after_the_last_record_fail_at_the_first_of_them() {
    // The header's count describes the whole stream, so whatever follows
    // the last record fails the read instead of being dropped.
    let profile = WorkloadProfile::named("mcf").unwrap();
    let items = TraceGenerator::new(profile, 0xF0AA).generate(1_000);
    let count = items.len() as u64;
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &items).unwrap();
    let mut all_but_last = Vec::new();
    write_trace(&mut all_but_last, &items[..items.len() - 1]).unwrap();
    let (other, _) = sample_bytes(0xF0AB, 1_500);

    let concatenated = [&bytes[..], &other[..]].concat();
    let stray_byte = [&bytes[..], &[0u8][..]].concat();
    let mut count_one_short = bytes.clone();
    count_one_short[4..HEADER_LEN].copy_from_slice(&(count - 1).to_le_bytes());
    for (stream, item, offset) in [
        (concatenated, count, bytes.len()),
        (stray_byte, count, bytes.len()),
        (count_one_short, count - 1, all_but_last.len()),
    ] {
        let err = expect_parse_error(&stream);
        assert_eq!(err.item, Some(item), "{err}");
        assert_eq!(err.offset, offset as u64, "{err}");
        let declared = format!("after the {item} items the header declares");
        assert!(err.to_string().contains(&declared), "{err}");
    }
}

#[test]
fn intact_stream_round_trips() {
    // The fuzz baseline: the untouched stream parses back exactly.
    let profile = WorkloadProfile::named("mcf").unwrap();
    let items = TraceGenerator::new(profile, 0xF066).generate(1_500);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &items).unwrap();
    expect_round_trip(&bytes, &items);
}

#[test]
fn a_trace_over_a_mebibyte_round_trips_through_a_slice_and_a_file() {
    // Large enough to need several refills of the decoder's buffer and
    // several staging buffers of the encoder.
    let profile = WorkloadProfile::named("gamess").unwrap();
    let items = TraceGenerator::new(profile, 0xF088).generate(250_000);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &items).unwrap();
    assert!(bytes.len() >= 1 << 20, "only {} bytes", bytes.len());
    expect_round_trip(&bytes, &items);

    let path = std::env::temp_dir().join(format!("secpb_trace_io_fuzz_{}.spb", std::process::id()));
    write_trace(std::fs::File::create(&path).unwrap(), &items).unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    let back = read_trace(std::fs::File::open(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    assert_eq!(on_disk, bytes, "the file holds other bytes than the slice");
    assert_eq!(back.unwrap(), items);
}

/// A sink that takes `room` bytes and then fails every write.
struct FailingSink {
    room: usize,
    taken: Vec<u8>,
}

impl Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.room == 0 {
            return Err(io::Error::other("sink full"));
        }
        let n = buf.len().min(self.room);
        self.taken.extend_from_slice(&buf[..n]);
        self.room -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_sink_fails_the_write_with_its_own_error() {
    let profile = WorkloadProfile::named("gamess").unwrap();
    let items = TraceGenerator::new(profile, 0xF099).generate(60_000);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &items).unwrap();
    let len = bytes.len();
    assert!(len > 3 << 16, "the trace must span several staging buffers");
    for room in [0, 1, 11, 12, 13, 1 << 16, (1 << 16) + 1, len / 2, len - 1] {
        let mut sink = FailingSink {
            room,
            taken: Vec::new(),
        };
        let err = write_trace(&mut sink, &items).expect_err("a full sink must fail the write");
        assert_eq!(err.to_string(), "sink full", "room {room}");
        assert_eq!(sink.taken, bytes[..room], "room {room}: wrote other bytes");
    }
    let mut sink = FailingSink {
        room: len,
        taken: Vec::new(),
    };
    write_trace(&mut sink, &items).expect("a sink with room for the trace takes it");
    assert_eq!(sink.taken, bytes);
}
