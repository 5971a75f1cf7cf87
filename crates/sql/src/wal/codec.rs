//! Hand-rolled binary codec for WAL records and checkpoints.
//!
//! The on-disk format must be deterministic (recovery asserts bit-identical
//! state via digests), versioned, and independent of any serialization
//! framework, so every encoder here is explicit: little-endian fixed-width
//! integers, u32-length-prefixed UTF-8 strings, floats as IEEE-754 bit
//! patterns, and one tag byte per enum variant. Decoders never panic on
//! malformed input — every failure surfaces as [`Corrupt`], which the
//! recovery path treats as a torn tail.
//!
//! Every record, checkpoint, part file and wire message travels in one
//! frame, `[len u32][checksum64 u64][payload]`, and every read verifies
//! the whole payload. [`checksum64`] therefore sits on the part-read path
//! of every scan, which is why it absorbs a word at a time in four
//! independent lanes instead of a byte at a time.

use crate::batch::RecordBatch;
use crate::column::ColumnVector;
use crate::engine::{AuditRecord, QueryLogEntry, StatementKind};
use crate::schema::{ColumnDef, Schema};
use crate::table::Tail;
use crate::types::{DataType, Value};
use std::sync::Arc;

/// Marker for undecodable bytes; recovery maps this to "discard tail".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corrupt;

pub type DecodeResult<T> = std::result::Result<T, Corrupt>;

/// Odd multiplier of the checksum's lane step (the 64-bit golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial lane states; distinct so that words cannot trade lanes unseen.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Absorb one word into a lane. Each of xor, multiply by an odd constant
/// and rotate is a bijection, so for a fixed lane state every distinct
/// `w` yields a distinct result, and for a fixed `w` every distinct lane
/// state does too.
#[inline(always)]
fn absorb(lane: u64, w: u64) -> u64 {
    (lane ^ w).wrapping_mul(MUL).rotate_left(31)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// 64-bit frame checksum, word at a time. Word `k` of the payload (8 bytes,
/// little-endian) is absorbed into lane `k % 4`; the zero-padded tail
/// bytes form one last word; the final mix absorbs the payload length and
/// then each lane, and ends in a bijective avalanche.
///
/// Every step is invertible in the word it absorbs and in the state it
/// carries, so any change confined to one 8-byte word (a single flipped
/// bit, a single replaced byte) always changes the checksum; the length
/// term separates payloads that differ only in trailing zero bytes. Four
/// independent lanes keep four multiplies in flight, which is what makes
/// it run at memory speed where a byte-serial hash does one dependent
/// multiply per byte. It guards against torn and damaged writes, not
/// adversaries.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = absorb(*lane, word(&block[8 * k..8 * k + 8]));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    let mut k = 0;
    for w in &mut words {
        lanes[k] = absorb(lanes[k], word(w));
        k += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        lanes[k] = absorb(lanes[k], u64::from_le_bytes(last));
    }
    let mut h = absorb(MUL, bytes.len() as u64);
    for lane in lanes {
        h = absorb(h, lane);
    }
    // Murmur3's fmix64: a bijection that spreads every input bit.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

// ------------------------------------------------------------- framing

/// Frame layout: `[len: u32 LE][checksum: u64 LE][payload: len bytes]`.
pub const FRAME_HEADER: usize = 12;

/// Largest payload a reader will accept; anything bigger is treated as a
/// corrupt length field.
const MAX_FRAME: usize = 1 << 30;

/// Append one framed, checksummed payload to `out`.
pub fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Split a frame header into the payload length and the payload checksum
/// it declares. Readers that must tell "not all here yet" from "corrupt"
/// (the wire protocol, over a socket) decode the header themselves and
/// check the payload with [`checksum64`]; buffer readers use [`read_frame`].
pub fn frame_header(header: &[u8; FRAME_HEADER]) -> (usize, u64) {
    let [l0, l1, l2, l3, crc @ ..] = *header;
    (
        u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        u64::from_le_bytes(crc),
    )
}

/// Read the frame starting at `pos`. Returns the payload and the offset
/// just past the frame, or [`Corrupt`] for a torn/invalid frame (short
/// header, short payload, unbelievable length, or checksum mismatch).
pub fn read_frame(buf: &[u8], pos: usize) -> DecodeResult<(&[u8], usize)> {
    let header = buf.get(pos..).and_then(|b| b.first_chunk()).ok_or(Corrupt)?;
    let (len, crc) = frame_header(header);
    if len > MAX_FRAME {
        return Err(Corrupt);
    }
    let start = pos + FRAME_HEADER;
    let payload = buf.get(start..start + len).ok_or(Corrupt)?;
    if checksum64(payload) != crc {
        return Err(Corrupt);
    }
    Ok((payload, start + len))
}

// ------------------------------------------------------------- encoder

/// Append-only byte sink with typed put helpers.
#[derive(Default)]
pub struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

// ------------------------------------------------------------- decoder

/// Bounds-checked cursor over encoded bytes.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Decoders must consume the full payload; trailing garbage means the
    /// record was not produced by this writer.
    pub fn finish(&self) -> DecodeResult<()> {
        if self.done() {
            Ok(())
        } else {
            Err(Corrupt)
        }
    }

    /// Borrow the next `n` bytes in place (bulk column decoders read whole
    /// fixed-width value runs through this).
    pub fn raw(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n).ok_or(Corrupt)?;
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.raw(1)?[0])
    }

    pub fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.raw(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.raw(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.raw(8)?.try_into().unwrap()))
    }

    pub fn i32(&mut self) -> DecodeResult<i32> {
        Ok(i32::from_le_bytes(self.raw(4)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Corrupt),
        }
    }

    pub fn bytes(&mut self) -> DecodeResult<Vec<u8>> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(Corrupt);
        }
        Ok(self.raw(len)?.to_vec())
    }

    pub fn str(&mut self) -> DecodeResult<String> {
        String::from_utf8(self.bytes()?).map_err(|_| Corrupt)
    }

    /// Borrow a length-prefixed byte block without copying it (part
    /// readers decode large column blocks in place).
    pub fn bytes_ref(&mut self) -> DecodeResult<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(Corrupt);
        }
        self.raw(len)
    }

    /// Advance past a length-prefixed byte block without reading it
    /// (projection pushdown skips unneeded column blocks).
    pub fn skip_bytes(&mut self) -> DecodeResult<()> {
        self.bytes_ref().map(|_| ())
    }

    /// Length prefix for a repeated section, sanity-capped.
    pub fn seq_len(&mut self) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(Corrupt);
        }
        Ok(n)
    }
}

// --------------------------------------------------------- type codecs

fn data_type_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Date => 4,
    }
}

fn data_type_from(tag: u8) -> DecodeResult<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Date,
        _ => return Err(Corrupt),
    })
}

pub fn put_schema(e: &mut Enc, schema: &Schema) {
    e.u32(schema.len() as u32);
    for c in schema.columns() {
        e.str(&c.name);
        e.u8(data_type_tag(c.data_type));
        e.bool(c.nullable);
    }
}

pub fn get_schema(d: &mut Dec) -> DecodeResult<Schema> {
    let n = d.seq_len()?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let data_type = data_type_from(d.u8()?)?;
        let nullable = d.bool()?;
        cols.push(ColumnDef {
            name,
            data_type,
            nullable,
        });
    }
    Ok(Schema::new(cols))
}

/// Columns are encoded as type tag + row count + packed validity bitmap +
/// the raw values of non-null slots in row order.
/// One column of `data_type` held as `chunks`, encoded as the single
/// column of their rows in order would be.
fn put_column(e: &mut Enc, data_type: DataType, chunks: &[&ColumnVector]) {
    let n: usize = chunks.iter().map(|c| c.len()).sum();
    e.u8(data_type_tag(data_type));
    e.u32(n as u32);
    let mut bits = vec![0u8; n.div_ceil(8)];
    let rows = || {
        chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(move |i| (*c, i)))
    };
    for (row, (col, i)) in rows().enumerate() {
        if !col.is_null(i) {
            bits[row / 8] |= 1 << (row % 8);
        }
    }
    e.buf.extend_from_slice(&bits);
    for (col, i) in rows() {
        match col.get(i) {
            Value::Null => {}
            Value::Bool(b) => e.bool(b),
            Value::Int(v) => e.i64(v),
            Value::Float(v) => e.f64(v),
            Value::Text(s) => e.str(&s),
            Value::Date(v) => e.i32(v),
        }
    }
}

fn get_column(d: &mut Dec) -> DecodeResult<ColumnVector> {
    let dt = data_type_from(d.u8()?)?;
    let n = d.u32()? as usize;
    if n > MAX_FRAME {
        return Err(Corrupt);
    }
    let bits = d.raw(n.div_ceil(8))?.to_vec();
    let mut col = ColumnVector::with_capacity(dt, n);
    for i in 0..n {
        let valid = bits[i / 8] & (1 << (i % 8)) != 0;
        if !valid {
            col.push_null();
            continue;
        }
        let v = match dt {
            DataType::Bool => Value::Bool(d.bool()?),
            DataType::Int => Value::Int(d.i64()?),
            DataType::Float => Value::Float(d.f64()?),
            DataType::Text => Value::Text(d.str()?),
            DataType::Date => Value::Date(d.i32()?),
        };
        col.push(v).map_err(|_| Corrupt)?;
    }
    Ok(col)
}

pub fn put_batch(e: &mut Enc, batch: &RecordBatch) {
    put_chunks(e, batch.schema(), &[batch]);
}

/// A resident tail, encoded byte for byte as [`put_batch`] encodes the one
/// batch of its rows — without building that batch.
pub fn put_tail(e: &mut Enc, tail: &Tail) {
    let chunks: Vec<&RecordBatch> = tail.chunks().iter().map(|c| &**c).collect();
    put_chunks(e, tail.schema(), &chunks);
}

fn put_chunks(e: &mut Enc, schema: &Schema, chunks: &[&RecordBatch]) {
    put_schema(e, schema);
    e.u32(schema.len() as u32);
    for (i, col) in schema.columns().iter().enumerate() {
        let parts: Vec<&ColumnVector> = chunks.iter().map(|c| c.column(i)).collect();
        let data_type = parts.first().map_or(col.data_type, |c| c.data_type());
        put_column(e, data_type, &parts);
    }
}

pub fn get_batch(d: &mut Dec) -> DecodeResult<RecordBatch> {
    let schema = get_schema(d)?;
    let n = d.seq_len()?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        cols.push(get_column(d)?);
    }
    RecordBatch::new(Arc::new(schema), cols).map_err(|_| Corrupt)
}

/// Extension metadata rides through the log as compact JSON text, which
/// prints deterministically (sorted keys).
pub fn put_json(e: &mut Enc, v: &flock_json::Value) {
    e.str(&v.to_string());
}

pub fn get_json(d: &mut Dec) -> DecodeResult<flock_json::Value> {
    let s = d.str()?;
    flock_json::from_str(&s).map_err(|_| Corrupt)
}

// ----------------------------------------------------------- log codecs

fn kind_tag(k: StatementKind) -> u8 {
    match k {
        StatementKind::Query => 0,
        StatementKind::Insert => 1,
        StatementKind::Update => 2,
        StatementKind::Delete => 3,
        StatementKind::Ddl => 4,
        StatementKind::Txn => 5,
        StatementKind::Grant => 6,
        StatementKind::Other => 7,
    }
}

fn kind_from(tag: u8) -> DecodeResult<StatementKind> {
    Ok(match tag {
        0 => StatementKind::Query,
        1 => StatementKind::Insert,
        2 => StatementKind::Update,
        3 => StatementKind::Delete,
        4 => StatementKind::Ddl,
        5 => StatementKind::Txn,
        6 => StatementKind::Grant,
        7 => StatementKind::Other,
        _ => return Err(Corrupt),
    })
}

fn put_strings(e: &mut Enc, v: &[String]) {
    e.u32(v.len() as u32);
    for s in v {
        e.str(s);
    }
}

fn get_strings(d: &mut Dec) -> DecodeResult<Vec<String>> {
    let n = d.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.str()?);
    }
    Ok(out)
}

pub fn put_query_log(e: &mut Enc, q: &QueryLogEntry) {
    e.u64(q.id);
    e.u64(q.txn_id);
    e.str(&q.user);
    e.str(&q.sql);
    e.u8(kind_tag(q.kind));
    put_strings(e, &q.tables_read);
    put_strings(e, &q.tables_written);
    e.u32(q.versions_written.len() as u32);
    for (t, v) in &q.versions_written {
        e.str(t);
        e.u64(*v);
    }
    e.u64(q.timestamp_ms);
    e.u64(q.rows_scanned);
    e.u64(q.rows_returned);
    e.u64(q.elapsed_us);
    e.u64(q.parallel_ops);
}

pub fn get_query_log(d: &mut Dec) -> DecodeResult<QueryLogEntry> {
    let id = d.u64()?;
    let txn_id = d.u64()?;
    let user = d.str()?;
    let sql = d.str()?;
    let kind = kind_from(d.u8()?)?;
    let tables_read = get_strings(d)?;
    let tables_written = get_strings(d)?;
    let n = d.seq_len()?;
    let mut versions_written = Vec::with_capacity(n);
    for _ in 0..n {
        let t = d.str()?;
        let v = d.u64()?;
        versions_written.push((t, v));
    }
    Ok(QueryLogEntry {
        id,
        txn_id,
        user,
        sql,
        kind,
        tables_read,
        tables_written,
        versions_written,
        timestamp_ms: d.u64()?,
        rows_scanned: d.u64()?,
        rows_returned: d.u64()?,
        elapsed_us: d.u64()?,
        parallel_ops: d.u64()?,
    })
}

pub fn put_audit(e: &mut Enc, a: &AuditRecord) {
    e.u64(a.seq);
    e.str(&a.user);
    e.str(&a.action);
    e.str(&a.object);
    e.str(&a.detail);
    e.u64(a.timestamp_ms);
}

pub fn get_audit(d: &mut Dec) -> DecodeResult<AuditRecord> {
    Ok(AuditRecord {
        seq: d.u64()?,
        user: d.str()?,
        action: d.str()?,
        object: d.str()?,
        detail: d.str()?,
        timestamp_ms: d.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_detect_torn_tails() {
        let mut buf = Vec::new();
        frame(&mut buf, b"hello");
        frame(&mut buf, b"");
        let (p1, next) = read_frame(&buf, 0).unwrap();
        assert_eq!(p1, b"hello");
        let (p2, end) = read_frame(&buf, next).unwrap();
        assert_eq!(p2, b"");
        assert_eq!(end, buf.len());
        // Every strict prefix of a frame is torn.
        for cut in 0..buf.len() {
            if cut < next {
                assert!(read_frame(&buf[..cut], 0).is_err(), "cut={cut}");
            }
        }
        // A flipped payload byte fails the checksum.
        let mut bad = buf.clone();
        bad[FRAME_HEADER] ^= 0xff;
        assert!(read_frame(&bad, 0).is_err());
    }

    /// Seeded random payloads of every length 0..=257 (each block, word and
    /// tail-byte shape) and one of 4 KiB.
    fn payloads() -> Vec<Vec<u8>> {
        use flock_rng::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xc0de_c5a1);
        (0..=257usize)
            .chain([4096])
            .map(|n| (0..n).map(|_| rng.gen_range(0..=255u8)).collect())
            .collect()
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_and_byte_substitution() {
        for p in payloads() {
            let want = checksum64(&p);
            let mut q = p.clone();
            for i in 0..q.len() {
                for bit in 0..8 {
                    q[i] ^= 1 << bit;
                    assert_ne!(checksum64(&q), want, "len {} byte {i} bit {bit}", p.len());
                    q[i] ^= 1 << bit;
                }
                // A substitution by a value no single-bit flip reaches.
                q[i] = !p[i];
                assert_ne!(checksum64(&q), want, "len {} byte {i} replaced", p.len());
                q[i] = p[i];
            }
        }
    }

    #[test]
    fn checksum_detects_every_truncation_and_one_byte_extension() {
        for p in payloads() {
            let want = checksum64(&p);
            for cut in 0..p.len() {
                assert_ne!(checksum64(&p[..cut]), want, "len {} cut to {cut}", p.len());
            }
            let mut q = p.clone();
            for b in 0..=255u8 {
                q.push(b);
                assert_ne!(checksum64(&q), want, "len {} extended by {b}", p.len());
                q.pop();
            }
        }
    }

    /// The checksum is part of the on-disk and wire format: a changed
    /// value means old files and peers no longer verify.
    #[test]
    fn checksum_golden_values() {
        let ramp: Vec<u8> = (0..=100u8).collect();
        assert_eq!(checksum64(b""), 0xb209_811f_8f49_1567);
        assert_eq!(checksum64(&ramp), 0x3f8f_6973_5c65_f857);
    }

    #[test]
    fn batch_roundtrip_preserves_nulls_and_bits() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Text),
        ]);
        let rows = vec![
            vec![Value::Int(i64::MIN), Value::Float(f64::NAN), Value::Null],
            vec![Value::Null, Value::Float(-0.0), Value::Text("x".into())],
        ];
        let batch = RecordBatch::from_rows(Arc::new(schema), &rows).unwrap();
        let mut e = Enc::new();
        put_batch(&mut e, &batch);
        let bytes1 = e.buf.clone();
        let mut d = Dec::new(&e.buf);
        let back = get_batch(&mut d).unwrap();
        d.finish().unwrap();
        // Bit-identical re-encoding (NaN and -0.0 preserved exactly).
        let mut e2 = Enc::new();
        put_batch(&mut e2, &back);
        assert_eq!(bytes1, e2.buf);
        assert!(back.column(0).is_null(1));
        assert!(matches!(back.column(1).get(0), Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn truncated_payload_is_corrupt_not_panic() {
        let mut e = Enc::new();
        e.str("abcdef");
        for cut in 0..e.buf.len() {
            let mut d = Dec::new(&e.buf[..cut]);
            assert!(d.str().is_err());
        }
    }
}
