//! Trace serialization: a compact binary format for saving generated
//! traces and replaying them later (or feeding externally-produced
//! traces into the simulator).
//!
//! Format (`SPB1`, little-endian):
//!
//! ```text
//! magic "SPB1" | u64 item count | items...
//! item: u32 non_mem | u8 kind (0 none, 1 load, 2 store)
//!       [ u64 addr | u8 size | u64 value | u16 asid ]   (if kind != 0)
//! ```
//!
//! Each direction streams through one fixed buffer.  [`read_trace`]
//! refills a 256 KiB buffer with `Read::read` and parses the records
//! out of it, so its memory is that buffer plus the returned items,
//! whatever the trace's length; it reads the source to its end, and a
//! byte after the last record is an error.  [`write_trace`] encodes the
//! records into a 64 KiB staging buffer and hands the sink one
//! `write_all` per full buffer.  Callers need no `BufReader` or
//! `BufWriter`.

use std::io::{self, Read, Write};

use secpb_sim::addr::{Address, Asid};
use secpb_sim::trace::{Access, AccessKind, TraceItem};

/// Format magic bytes.
const MAGIC: &[u8; 4] = b"SPB1";

/// Magic plus item count.
const HEADER_LEN: usize = 12;

/// The longest item record: burst, kind, address, size, value, asid.
const RECORD_MAX: usize = 4 + 1 + 8 + 1 + 8 + 2;

/// Bytes [`read_trace`] reads the source in.
const READ_BUF_LEN: usize = 256 * 1024;

/// Bytes [`write_trace`] stages before each call to the sink: it hands
/// over the buffer once the next record might not fit.
const WRITE_BUF_LEN: usize = 64 * 1024;

/// A located trace-parse failure: which item record was malformed and
/// the absolute byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Zero-based index of the item record being parsed (the trace
    /// format's "line number"); `None` while parsing the header.
    pub item: Option<u64>,
    /// Absolute byte offset into the stream where the error was found.
    pub offset: u64,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.item {
            Some(i) => write!(
                f,
                "malformed trace at item {i} (byte offset {}): {}",
                self.offset, self.reason
            ),
            None => write!(
                f,
                "malformed trace header (byte offset {}): {}",
                self.offset, self.reason
            ),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl From<TraceParseError> for io::Error {
    fn from(e: TraceParseError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Writes a trace to any [`Write`] sink (pass `&mut file` to keep the
/// file usable afterwards).
///
/// The records are encoded into one 64 KiB staging buffer, and the sink
/// receives a `write_all` per full buffer plus one for the rest, so it
/// needs no `BufWriter`.  The sink is not flushed.
///
/// # Errors
///
/// Propagates I/O errors from the sink.
pub fn write_trace<W: Write>(mut sink: W, items: &[TraceItem]) -> io::Result<()> {
    let mut stage = vec![0u8; WRITE_BUF_LEN].into_boxed_slice();
    stage[..4].copy_from_slice(MAGIC);
    stage[4..HEADER_LEN].copy_from_slice(&(items.len() as u64).to_le_bytes());
    let mut len = HEADER_LEN;
    for item in items {
        if len + RECORD_MAX > WRITE_BUF_LEN {
            sink.write_all(&stage[..len])?;
            len = 0;
        }
        let record = (&mut stage[len..len + RECORD_MAX])
            .try_into()
            .expect("RECORD_MAX bytes");
        len += encode(item, record);
    }
    sink.write_all(&stage[..len])
}

/// Encodes one item at the front of `out`, returning its length.
fn encode(item: &TraceItem, out: &mut [u8; RECORD_MAX]) -> usize {
    out[..4].copy_from_slice(&item.non_mem_instrs.to_le_bytes());
    let Some(a) = item.access else {
        out[4] = 0;
        return 5;
    };
    out[4] = match a.kind {
        AccessKind::Load => 1,
        AccessKind::Store => 2,
    };
    out[5..13].copy_from_slice(&a.addr.0.to_le_bytes());
    out[13] = a.size;
    out[14..22].copy_from_slice(&a.value.to_le_bytes());
    out[22..].copy_from_slice(&a.asid.0.to_le_bytes());
    RECORD_MAX
}

/// A header or record failure: the byte offset from its first byte, and
/// the reason.
type Bad = (usize, String);

/// The `N` bytes at `at` in `bytes`, or a truncation naming `what`.
/// Inlined so the per-field check costs a compare, not a call.
#[inline(always)]
fn field<const N: usize>(bytes: &[u8], at: usize, what: &str) -> Result<[u8; N], Bad> {
    match bytes.get(at..at + N) {
        Some(b) => Ok(b.try_into().expect("N bytes")),
        None => Err(truncated(at, what)),
    }
}

/// The failure of a field cut short at `at`.
#[cold]
fn truncated(at: usize, what: &str) -> Bad {
    (at, format!("truncated while reading {what}"))
}

/// Decodes the header at the front of `bytes` into the item count.
fn decode_header(bytes: &[u8]) -> Result<u64, Bad> {
    let magic: [u8; 4] = field(bytes, 0, "magic")?;
    if &magic != MAGIC {
        return Err((4, format!("bad trace magic {magic:02x?}")));
    }
    Ok(u64::from_le_bytes(field(bytes, 4, "item count")?))
}

/// Decodes the record at the front of `bytes`, returning the item and
/// the record's length.  Fields are checked in stream order, so a
/// truncation is reported before a bad size in the same record.
/// Inlined into the read loop: as a call it costs more than the parse.
#[inline(always)]
fn decode(bytes: &[u8]) -> Result<(TraceItem, usize), Bad> {
    let non_mem_instrs = u32::from_le_bytes(field(bytes, 0, "instruction burst")?);
    let [kind] = field(bytes, 4, "access kind")?;
    let kind = match kind {
        0 => {
            let item = TraceItem {
                non_mem_instrs,
                access: None,
            };
            return Ok((item, 5));
        }
        1 => AccessKind::Load,
        2 => AccessKind::Store,
        other => return Err((5, format!("bad access kind {other} (want 0, 1, or 2)"))),
    };
    let addr = field(bytes, 5, "address")?;
    let [size] = field(bytes, 13, "access size")?;
    let value = field(bytes, 14, "value")?;
    let asid = field(bytes, 22, "asid")?;
    if size == 0 || size > 8 {
        return Err((RECORD_MAX, format!("bad access size {size} (want 1..=8)")));
    }
    let access = Access {
        kind,
        addr: Address(u64::from_le_bytes(addr)),
        size,
        value: u64::from_le_bytes(value),
        asid: Asid(u16::from_le_bytes(asid)),
    };
    let item = TraceItem {
        non_mem_instrs,
        access: Some(access),
    };
    Ok((item, RECORD_MAX))
}

/// The read side: one fixed buffer, refilled from the source, and the
/// absolute stream offset of its parse position.
struct Decoder<R> {
    source: R,
    buf: Box<[u8]>,
    /// Parse position in `buf`.
    pos: usize,
    /// End of the bytes read into `buf`.
    end: usize,
    /// Stream offset of `buf[0]`.
    base: u64,
    /// The source has reported its end.
    eof: bool,
}

impl<R: Read> Decoder<R> {
    /// The unparsed bytes, at least `want` of them unless the source
    /// ended first.
    #[inline]
    fn fill(&mut self, want: usize) -> io::Result<&[u8]> {
        if self.end - self.pos < want && !self.eof {
            self.refill(want)?;
        }
        Ok(&self.buf[self.pos..self.end])
    }

    /// Moves the unparsed tail to the front and reads until `want` bytes
    /// are buffered or the source ends, retrying interrupted reads.
    #[cold]
    fn refill(&mut self, want: usize) -> io::Result<()> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.base += self.pos as u64;
        self.end -= self.pos;
        self.pos = 0;
        while self.end < want {
            match self.source.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Locates a failure `at` bytes past the parse position.
    #[cold]
    fn fail(&self, item: Option<u64>, (at, reason): Bad) -> io::Error {
        TraceParseError {
            item,
            offset: self.base + (self.pos + at) as u64,
            reason,
        }
        .into()
    }
}

/// Reads a trace from any [`Read`] source.
///
/// The source is read with `Read::read` calls of up to 256 KiB into one
/// buffer, which is all the memory this takes besides the returned
/// items (sized from the header's item count up front), so it needs no
/// `BufReader`.  The source is read to its end: the header's item count
/// must describe the whole stream, so two traces concatenated, or a
/// count lower than the records that follow, fail instead of reading as
/// a shorter trace.  Interrupted reads are retried.
///
/// # Errors
///
/// Returns `InvalidData` wrapping a [`TraceParseError`] — which names
/// the malformed item index and byte offset — on a bad magic, truncated
/// stream, malformed item, or bytes after the last record (reported as
/// item `count` at the first such byte); propagates underlying I/O
/// errors.
pub fn read_trace<R: Read>(source: R) -> io::Result<Vec<TraceItem>> {
    let mut dec = Decoder {
        source,
        buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
        pos: 0,
        end: 0,
        base: 0,
        eof: false,
    };
    let count = decode_header(dec.fill(HEADER_LEN)?).map_err(|bad| dec.fail(None, bad))?;
    dec.pos += HEADER_LEN;
    let mut items = Vec::with_capacity(count.min(1 << 24) as usize);
    for i in 0..count {
        let (item, len) = decode(dec.fill(RECORD_MAX)?).map_err(|bad| dec.fail(Some(i), bad))?;
        items.push(item);
        dec.pos += len;
    }
    if !dec.fill(1)?.is_empty() {
        let reason = format!("trailing bytes after the {count} items the header declares");
        return Err(dec.fail(Some(count), (0, reason)));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::profile::WorkloadProfile;

    #[test]
    fn round_trips_a_generated_trace() {
        let profile = WorkloadProfile::named("gcc").unwrap();
        let trace = TraceGenerator::new(profile, 7).generate(20_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn round_trips_edge_items() {
        let trace = vec![
            TraceItem::compute(0),
            TraceItem::compute(u32::MAX),
            TraceItem::then(5, Access::load(Address(u64::MAX))),
            TraceItem::then(
                0,
                Access {
                    size: 1,
                    ..Access::store(Address(0), u64::MAX)
                }
                .with_asid(Asid(u16::MAX)),
            ),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let trace = vec![TraceItem::then(1, Access::store(Address(64), 2))];
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        for cut in [3, 11, 13, buf.len() - 1] {
            assert!(read_trace(&buf[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_bad_kind_and_size() {
        let trace = vec![TraceItem::then(1, Access::store(Address(64), 2))];
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let mut bad_kind = buf.clone();
        bad_kind[16] = 9; // the kind byte of item 0
        assert!(read_trace(&bad_kind[..]).is_err());
        let mut bad_size = buf.clone();
        bad_size[25] = 9; // the size byte
        assert!(read_trace(&bad_size[..]).is_err());
    }

    #[test]
    fn parse_errors_name_item_and_offset() {
        let trace = vec![
            TraceItem::compute(1),
            TraceItem::then(1, Access::store(Address(64), 2)),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        // Item 0 is 5 bytes (burst + kind 0); item 1's kind byte is at
        // 12 + 5 + 4 = 21.
        let mut bad_kind = buf.clone();
        bad_kind[21] = 9;
        let err = read_trace(&bad_kind[..]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("item 1"), "got {msg}");
        assert!(msg.contains("access kind 9"), "got {msg}");

        let err = read_trace(&buf[..buf.len() - 1]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("item 1"), "got {msg}");
        assert!(msg.contains("truncated"), "got {msg}");

        let err = read_trace(&b"NOPE\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("header"), "got {msg}");
        assert!(msg.contains("magic"), "got {msg}");

        // The typed error is recoverable from the io::Error.
        let e = TraceParseError {
            item: Some(3),
            offset: 40,
            reason: "x".into(),
        };
        let io_err: io::Error = e.clone().into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            io_err
                .get_ref()
                .and_then(|r| r.downcast_ref::<TraceParseError>()),
            Some(&e)
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), Vec::new());
        assert_eq!(buf.len(), 12, "magic + count only");
    }
}
