//! On-disk part format and per-column lightweight compression.
//!
//! A part is one framed, checksummed record (the same
//! `[len][checksum64][payload]` frame as WAL records, so torn or
//! bit-flipped part files are detected by the frame checksum alone):
//!
//! ```text
//! payload := format(u8) id(u64) level(u8) rows(u32) schema
//!            ncols(u32) column*
//! column  := zone block(bytes)
//! zone    := has_min(bool) min(f64) has_max(bool) max(f64) nulls(u64)
//! block   := validity-bitmap enc_tag(u8) values
//! ```
//!
//! Column blocks are length-prefixed, so a projected read decodes the small
//! zone headers for every column but skips the value blocks of columns the
//! scan does not need. Encodings are chosen per column by computed size:
//!
//! * Int: raw i64 | RLE `(value,count)` runs | frame-of-reference bit-pack
//! * Bool: bitmap
//! * Text: raw | dictionary (<= 256 distinct, u8 indices)
//! * Float/Date: raw (IEEE-754 bits / i32), checksummed by the frame
//!
//! NULL slots are normalized to the type's default before encoding so the
//! raw buffers round-trip bit-exactly regardless of how the batch was built.
//!
//! Every scan decodes the parts it reads, so fixed-width data moves in
//! bulk: raw blocks are written with one `extend` and read with one
//! `chunks_exact` pass, FOR values are read with one unaligned 16-byte
//! load each, and an all-valid bitmap yields no validity vector at all.
//! A `TEXT_DICT` block decodes into a dictionary column: its strings once,
//! then one code per row, each checked against the dictionary's size —
//! no string per row. Encoding a dictionary column remaps its codes into
//! the block's dictionary once per code ([`per_code`]), which keeps the
//! first-appearance order of the strings, so a part
//! re-encoded from decoded codes is byte-identical to the original.
//! RLE runs, bool bitmaps and raw text are still decoded value by value.

use crate::batch::RecordBatch;
use crate::column::{per_code, ColumnVector, RawColumn, RawColumnOwned};
use crate::types::DataType;
use crate::wal::codec::{frame, read_frame, Corrupt, Dec, DecodeResult, Enc};
use std::collections::HashMap;
use std::sync::Arc;

use super::{PartMeta, ZoneMap};

/// Version byte at the start of every part payload.
const PART_FORMAT: u8 = 1;

// Encoding tags, disjoint across types so a corrupt tag never aliases.
const ENC_INT_RAW: u8 = 0;
const ENC_INT_RLE: u8 = 1;
const ENC_INT_FOR: u8 = 2;
const ENC_BOOL_BITMAP: u8 = 3;
const ENC_FLOAT_RAW: u8 = 4;
const ENC_TEXT_RAW: u8 = 5;
const ENC_TEXT_DICT: u8 = 6;
const ENC_DATE_RAW: u8 = 7;

/// A fully decoded part: identity plus its rows.
pub struct DecodedPart {
    pub id: u64,
    pub level: u8,
    pub batch: RecordBatch,
}

// ----------------------------------------------------------- bit packing

fn pack_bits(bits: impl Iterator<Item = bool>, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n.div_ceil(8)];
    for (i, b) in bits.enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (1 << (i % 8)) != 0
}

// --------------------------------------------------------- int encodings

/// Count RLE runs without materializing them.
fn rle_runs(vals: &[i64]) -> usize {
    let mut runs = 0;
    let mut prev = None;
    for v in vals {
        if prev != Some(*v) {
            runs += 1;
            prev = Some(*v);
        }
    }
    runs
}

/// Bits needed per value for frame-of-reference packing, and the base.
fn for_params(vals: &[i64]) -> (i64, u32) {
    let base = vals.iter().copied().min().unwrap_or(0);
    let max = vals.iter().copied().max().unwrap_or(0);
    let span = (max as i128 - base as i128) as u128;
    let width = 128 - span.leading_zeros();
    (base, width.min(64))
}

fn encode_int(e: &mut Enc, vals: &[i64]) {
    let n = vals.len();
    let raw_size = 8 * n;
    let runs = rle_runs(vals);
    let rle_size = 4 + 12 * runs;
    let (base, width) = for_params(vals);
    let for_size = 9 + (n * width as usize).div_ceil(8);
    if rle_size < raw_size && rle_size <= for_size {
        e.u8(ENC_INT_RLE);
        e.u32(runs as u32);
        let mut i = 0;
        while i < n {
            let v = vals[i];
            let mut j = i + 1;
            while j < n && vals[j] == v {
                j += 1;
            }
            e.i64(v);
            e.u32((j - i) as u32);
            i = j;
        }
    } else if for_size < raw_size && width < 64 {
        e.u8(ENC_INT_FOR);
        e.i64(base);
        e.u8(width as u8);
        // The accumulator must be wider than width + 7 bits: at the top of
        // each iteration up to 7 residual bits sit in `acc`, and a width-63
        // delta shifted past them needs 70 bits. A u64 here silently drops
        // the high bits of wide deltas (the wide-FOR round-trip bug).
        let mut acc: u128 = 0;
        let mut nbits: u32 = 0;
        for &v in vals {
            // Deltas are computed in i128 so `v - base` cannot overflow even
            // for base = i64::MIN, v = i64::MAX; the result always fits in
            // u64 because width <= 63 < 64.
            let diff = (v as i128 - base as i128) as u64;
            acc |= (diff as u128) << nbits;
            nbits += width;
            while nbits >= 8 {
                e.u8((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            e.u8((acc & 0xff) as u8);
        }
    } else {
        e.u8(ENC_INT_RAW);
        put_raw(e, vals, None, i64::to_le_bytes);
    }
}

fn decode_int(d: &mut Dec, n: usize, tag: u8) -> DecodeResult<Vec<i64>> {
    match tag {
        ENC_INT_RAW => get_raw(d, n, i64::from_le_bytes),
        ENC_INT_RLE => {
            let runs = d.seq_len()?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..runs {
                let v = d.i64()?;
                let count = d.u32()? as usize;
                if out.len() + count > n {
                    return Err(Corrupt);
                }
                out.resize(out.len() + count, v);
            }
            if out.len() != n {
                return Err(Corrupt);
            }
            Ok(out)
        }
        ENC_INT_FOR => {
            let base = d.i64()?;
            let width = d.u8()? as usize;
            // Encode never picks width >= 64 (it falls back to RAW), so a
            // wider tag can only come from corruption — and a 64-bit shift
            // below would be UB-adjacent anyway.
            if width >= 64 {
                return Err(Corrupt);
            }
            let packed = d.raw(n.checked_mul(width).ok_or(Corrupt)?.div_ceil(8))?;
            // Value i sits at bit i * width. Read it from the 16 bytes that
            // start at its first byte: a bit offset of up to 7 plus a width
            // of up to 63 spans at most 70 bits. Values whose 16 bytes run
            // past the block load from a zero-padded stack copy of its last
            // 16 bytes instead.
            let split = packed.len().saturating_sub(16);
            let mut tail = [0u8; 32];
            tail[..packed.len() - split].copy_from_slice(&packed[split..]);
            let mask = (1u64 << width) - 1;
            Ok((0..n)
                .map(|i| {
                    let bit = i * width;
                    let at = bit / 8;
                    let bytes = packed
                        .get(at..at + 16)
                        .unwrap_or_else(|| &tail[at - split..at - split + 16]);
                    let word = u128::from_le_bytes(bytes.try_into().expect("16 bytes"));
                    let diff = (word >> (bit % 8)) as u64 & mask;
                    // base + diff stays within i64 for any delta the
                    // encoder can produce; corrupt inputs wrap to a
                    // defined (if meaningless) value.
                    base.wrapping_add(diff as i64)
                })
                .collect())
        }
        _ => Err(Corrupt),
    }
}

/// Append fixed-width values in one pass; NULL slots (`validity` false)
/// are written as the type's default.
fn put_raw<T: Copy + Default, const W: usize>(
    e: &mut Enc,
    vals: &[T],
    validity: Option<&[bool]>,
    to_le: fn(T) -> [u8; W],
) {
    e.buf.reserve(W * vals.len());
    match validity {
        None => e.buf.extend(vals.iter().flat_map(|&v| to_le(v))),
        Some(valid) => e.buf.extend(
            vals.iter()
                .zip(valid)
                .flat_map(|(&v, &ok)| to_le(if ok { v } else { T::default() })),
        ),
    }
}

/// Read `n` fixed-width values in one pass over a borrowed slice.
fn get_raw<T, const W: usize>(
    d: &mut Dec,
    n: usize,
    from_le: fn([u8; W]) -> T,
) -> DecodeResult<Vec<T>> {
    let bytes = d.raw(n.checked_mul(W).ok_or(Corrupt)?)?;
    Ok(bytes
        .chunks_exact(W)
        .map(|c| from_le(c.try_into().expect("W-byte chunk")))
        .collect())
}

// -------------------------------------------------------- text encodings

/// A text column's rows as the encoder reads them.
#[derive(Clone, Copy)]
enum TextRows<'a> {
    Plain(&'a [String]),
    Dict {
        codes: &'a [u32],
        values: &'a [String],
    },
}

impl<'a> TextRows<'a> {
    fn len(self) -> usize {
        match self {
            TextRows::Plain(v) => v.len(),
            TextRows::Dict { codes, .. } => codes.len(),
        }
    }

    /// Row `i`'s string; a NULL row (`valid[i]` false) reads as the empty
    /// string, the normalised NULL slot.
    fn at(self, i: usize, valid: Option<&[bool]>) -> &'a str {
        match (self, valid.is_none_or(|v| v[i])) {
            (_, false) => "",
            (TextRows::Plain(v), true) => &v[i],
            (TextRows::Dict { codes, values }, true) => &values[codes[i] as usize],
        }
    }
}

/// The dictionary a `TEXT_DICT` block would carry — distinct strings in
/// order of first appearance — and each row's index into it; `None` past
/// 256 distinct strings. A dictionary column looks each distinct code up
/// once and remaps its codes, so it yields the same dictionary, byte for
/// byte, as its materialised strings would.
fn block_dict<'a>(rows: TextRows<'a>, valid: Option<&[bool]>) -> Option<(Vec<&'a str>, Vec<u8>)> {
    let mut dict: Vec<&'a str> = Vec::new();
    let mut index: HashMap<&'a str, u8> = HashMap::new();
    let mut index_of = |s: &'a str| -> Option<u8> {
        if let Some(&i) = index.get(s) {
            return Some(i);
        }
        let i = u8::try_from(dict.len()).ok()?;
        index.insert(s, i);
        dict.push(s);
        Some(i)
    };
    let indices = match rows {
        TextRows::Plain(_) => (0..rows.len())
            .map(|i| index_of(rows.at(i, valid)))
            .collect::<Option<Vec<u8>>>()?,
        TextRows::Dict { codes, values } => {
            // A NULL row reads as the empty string.
            per_code(codes, valid, values.len(), |code, _| {
                index_of(code.map_or("", |c| values[c as usize].as_str()))
            })
            .into_iter()
            .collect::<Option<Vec<u8>>>()?
        }
    };
    Some((dict, indices))
}

fn encode_text(e: &mut Enc, rows: TextRows, valid: Option<&[bool]>) {
    let n = rows.len();
    let raw_size: usize = (0..n).map(|i| 4 + rows.at(i, valid).len()).sum();
    let dict = block_dict(rows, valid)
        .filter(|(dict, _)| 2 + dict.iter().map(|s| 4 + s.len()).sum::<usize>() + n < raw_size);
    if let Some((dict, indices)) = dict {
        e.u8(ENC_TEXT_DICT);
        e.u32(dict.len() as u32);
        for s in &dict {
            e.str(s);
        }
        e.buf.extend_from_slice(&indices);
    } else {
        e.u8(ENC_TEXT_RAW);
        for i in 0..n {
            e.str(rows.at(i, valid));
        }
    }
}

/// A `TEXT_RAW` block decodes to one string per row, a `TEXT_DICT` block
/// to a dictionary column: one code per row and no string (a code past
/// the dictionary's end is `Corrupt`).
fn decode_text(d: &mut Dec, n: usize, tag: u8) -> DecodeResult<RawColumnOwned> {
    match tag {
        ENC_TEXT_RAW => Ok(RawColumnOwned::Text(
            (0..n).map(|_| d.str()).collect::<DecodeResult<_>>()?,
        )),
        ENC_TEXT_DICT => {
            let ndict = d.seq_len()?;
            if ndict > 256 {
                return Err(Corrupt);
            }
            let dict: Vec<String> = (0..ndict).map(|_| d.str()).collect::<DecodeResult<_>>()?;
            let codes = d.raw(n)?.iter().map(|&b| b as u32).collect();
            // from_raw rejects a code past the dictionary's end.
            Ok(RawColumnOwned::Dict(codes, Arc::new(dict)))
        }
        _ => Err(Corrupt),
    }
}

// -------------------------------------------------------- column blocks

/// Logical (uncompressed) size of a column's values, used for the
/// compression-ratio counters: what a raw encoding would occupy.
fn uncompressed_size(col: &ColumnVector) -> usize {
    let valid = col.validity();
    match col.raw() {
        RawColumn::Bool(v) => v.len(),
        RawColumn::Int(v) => 8 * v.len(),
        RawColumn::Float(v) => 8 * v.len(),
        RawColumn::Text(v) => v.iter().map(|s| 4 + s.len()).sum(),
        // A NULL row's code may name any string; it counts as the empty one.
        RawColumn::Dict { codes, values } => (codes.iter().enumerate())
            .map(|(i, &c)| {
                4 + if valid.is_none_or(|v| v[i]) {
                    values[c as usize].len()
                } else {
                    0
                }
            })
            .sum(),
        RawColumn::Date(v) => 4 * v.len(),
    }
}

/// Zone map for one column: min/max use the same numeric view as
/// [`TableStats`](crate::stats::TableStats) (`get_f64`), so planner
/// comparisons against zone bounds and against table stats agree.
/// Text columns carry only a null count (not prunable). A NaN anywhere
/// poisons min/max to `None` — pruning must stay conservative.
fn zone_of(col: &ColumnVector) -> ZoneMap {
    let validity = col.validity();
    let range = match col.raw() {
        RawColumn::Bool(v) => bounds(v, validity, |x| x as i64 as f64),
        RawColumn::Int(v) => bounds(v, validity, |x| x as f64),
        RawColumn::Float(v) => bounds(v, validity, |x| x),
        RawColumn::Date(v) => bounds(v, validity, |x| x as f64),
        RawColumn::Text(_) | RawColumn::Dict { .. } => None,
    };
    ZoneMap {
        min: range.map(|r| r.0),
        max: range.map(|r| r.1),
        null_count: validity.map_or(0, |v| v.iter().filter(|&&ok| !ok).count()) as u64,
    }
}

/// `(min, max)` of the valid values as `f64`, folded in row order; `None`
/// when there are none or any is NaN.
fn bounds<T: Copy>(
    vals: &[T],
    validity: Option<&[bool]>,
    as_f64: fn(T) -> f64,
) -> Option<(f64, f64)> {
    let mut valid = vals
        .iter()
        .enumerate()
        .filter(|&(i, _)| validity.is_none_or(|v| v[i]))
        .map(|(_, &x)| as_f64(x));
    let first = valid.next().filter(|x| !x.is_nan())?;
    valid.try_fold((first, first), |(lo, hi), x| {
        (!x.is_nan()).then(|| (lo.min(x), hi.max(x)))
    })
}

fn put_zone(e: &mut Enc, z: &ZoneMap) {
    e.bool(z.min.is_some());
    e.f64(z.min.unwrap_or(0.0));
    e.bool(z.max.is_some());
    e.f64(z.max.unwrap_or(0.0));
    e.u64(z.null_count);
}

fn get_zone(d: &mut Dec) -> DecodeResult<ZoneMap> {
    let has_min = d.bool()?;
    let min = d.f64()?;
    let has_max = d.bool()?;
    let max = d.f64()?;
    let null_count = d.u64()?;
    Ok(ZoneMap {
        min: has_min.then_some(min),
        max: has_max.then_some(max),
        null_count,
    })
}

/// Encode one column's value block (validity bitmap + tagged values),
/// normalizing NULL slots to the type default first so the encoding is a
/// pure function of the column's logical contents.
fn encode_block(col: &ColumnVector) -> Vec<u8> {
    let n = col.len();
    let validity = col.validity();
    let valid = |i: usize| validity.is_none_or(|v| v[i]);
    let mut e = Enc::new();
    e.buf.extend_from_slice(&pack_bits((0..n).map(valid), n));
    match col.raw() {
        RawColumn::Bool(v) => {
            e.u8(ENC_BOOL_BITMAP);
            let bits = (0..n).map(|i| v[i] && valid(i));
            e.buf.extend_from_slice(&pack_bits(bits, n));
        }
        RawColumn::Int(v) => {
            if validity.is_some() {
                let norm: Vec<i64> = (0..n).map(|i| if valid(i) { v[i] } else { 0 }).collect();
                encode_int(&mut e, &norm);
            } else {
                encode_int(&mut e, v);
            }
        }
        RawColumn::Float(v) => {
            e.u8(ENC_FLOAT_RAW);
            put_raw(&mut e, v, validity, |x: f64| x.to_bits().to_le_bytes());
        }
        RawColumn::Text(v) => encode_text(&mut e, TextRows::Plain(v), validity),
        RawColumn::Dict { codes, values } => {
            encode_text(&mut e, TextRows::Dict { codes, values }, validity)
        }
        RawColumn::Date(v) => {
            e.u8(ENC_DATE_RAW);
            put_raw(&mut e, v, validity, i32::to_le_bytes);
        }
    }
    e.buf
}

/// Unpack a validity bitmap; `None` when all `n` rows are valid, which is
/// checked a byte at a time (the bits past `n` in the last byte are
/// ignored, as the per-row unpack ignores them).
fn unpack_validity(bits: &[u8], n: usize) -> Option<Vec<bool>> {
    let (full, rest) = bits.split_at(n / 8);
    let tail = (1u8 << (n % 8)) - 1;
    let all_valid = full.iter().all(|&b| b == 0xff) && rest.first().is_none_or(|&b| b & tail == tail);
    (!all_valid).then(|| (0..n).map(|i| unpack_bit(bits, i)).collect())
}

fn decode_block(block: &[u8], n: usize, data_type: DataType) -> DecodeResult<ColumnVector> {
    let mut d = Dec::new(block);
    let vbytes = n.div_ceil(8);
    let validity = unpack_validity(d.raw(vbytes)?, n);
    let tag = d.u8()?;
    let expect = |want: u8| if tag == want { Ok(()) } else { Err(Corrupt) };
    let raw = match data_type {
        DataType::Bool => {
            expect(ENC_BOOL_BITMAP)?;
            let bytes = d.raw(vbytes)?;
            RawColumnOwned::Bool((0..n).map(|i| unpack_bit(bytes, i)).collect())
        }
        DataType::Int => RawColumnOwned::Int(decode_int(&mut d, n, tag)?),
        DataType::Float => {
            expect(ENC_FLOAT_RAW)?;
            RawColumnOwned::Float(get_raw(&mut d, n, |b| f64::from_bits(u64::from_le_bytes(b)))?)
        }
        DataType::Text => decode_text(&mut d, n, tag)?,
        DataType::Date => {
            expect(ENC_DATE_RAW)?;
            RawColumnOwned::Date(get_raw(&mut d, n, i32::from_le_bytes)?)
        }
    };
    d.finish()?;
    ColumnVector::from_raw(raw, validity).map_err(|_| Corrupt)
}

// ------------------------------------------------------------ part files

/// Encode a batch into a part file image (one checksummed frame) and its
/// manifest entry. The caller supplies the part id and merge level.
pub fn encode_part(id: u64, level: u8, batch: &RecordBatch) -> (Vec<u8>, PartMeta) {
    let mut e = Enc::new();
    e.u8(PART_FORMAT);
    e.u64(id);
    e.u8(level);
    e.u32(batch.num_rows() as u32);
    crate::wal::codec::put_schema(&mut e, batch.schema());
    e.u32(batch.num_columns() as u32);
    let mut zones = Vec::with_capacity(batch.num_columns());
    let mut uncompressed: u64 = 0;
    for col in batch.columns() {
        let zone = zone_of(col);
        put_zone(&mut e, &zone);
        zones.push(zone);
        uncompressed += uncompressed_size(col) as u64;
        let block = encode_block(col);
        e.bytes(&block);
    }
    let mut file = Vec::with_capacity(e.buf.len() + 16);
    frame(&mut file, &e.buf);
    let meta = PartMeta {
        id,
        rows: batch.num_rows() as u64,
        level,
        bytes_on_disk: file.len() as u64,
        bytes_uncompressed: uncompressed,
        zones,
    };
    (file, meta)
}

/// Decode a part file image. With `projection`, only the named columns'
/// value blocks are decoded (others are skipped via their length prefix)
/// and the batch's columns follow the projection's order.
pub fn decode_part(bytes: &[u8], projection: Option<&[usize]>) -> DecodeResult<DecodedPart> {
    let (payload, next) = read_frame(bytes, 0)?;
    if next != bytes.len() {
        return Err(Corrupt);
    }
    let mut d = Dec::new(payload);
    if d.u8()? != PART_FORMAT {
        return Err(Corrupt);
    }
    let id = d.u64()?;
    let level = d.u8()?;
    let rows = d.u32()? as usize;
    let schema = crate::wal::codec::get_schema(&mut d)?;
    let ncols = d.seq_len()?;
    if ncols != schema.len() {
        return Err(Corrupt);
    }
    if let Some(p) = projection {
        if p.iter().any(|&i| i >= ncols) {
            return Err(Corrupt);
        }
    }
    let mut decoded: Vec<Option<ColumnVector>> = (0..ncols).map(|_| None).collect();
    for (i, slot) in decoded.iter_mut().enumerate() {
        let _zone = get_zone(&mut d)?;
        let wanted = projection.is_none_or(|p| p.contains(&i));
        if wanted {
            let block = d.bytes_ref()?;
            *slot = Some(decode_block(block, rows, schema.column(i).data_type)?);
        } else {
            d.skip_bytes()?;
        }
    }
    d.finish()?;
    let (schema, columns) = match projection {
        Some(p) => (
            schema.project(p),
            p.iter()
                .map(|&i| decoded[i].take().expect("projected column decoded"))
                .collect(),
        ),
        None => (
            schema,
            decoded
                .into_iter()
                .map(|c| c.expect("all columns decoded"))
                .collect(),
        ),
    };
    let batch = RecordBatch::new(Arc::new(schema), columns).map_err(|_| Corrupt)?;
    Ok(DecodedPart { id, level, batch })
}

/// Cheap integrity check: the frame checksum covers the whole payload, so
/// a torn or bit-flipped part file fails here without a full decode.
pub fn validate_part_image(bytes: &[u8]) -> bool {
    match read_frame(bytes, 0) {
        Ok((_, next)) => next == bytes.len(),
        Err(Corrupt) => false,
    }
}

// -------------------------------------------------- checkpoint meta codec

/// Encode a part's manifest entry (checkpoints embed these so recovery
/// never decodes part data just to rebuild stats).
pub fn put_part_meta(e: &mut Enc, m: &PartMeta) {
    e.u64(m.id);
    e.u64(m.rows);
    e.u8(m.level);
    e.u64(m.bytes_on_disk);
    e.u64(m.bytes_uncompressed);
    e.u32(m.zones.len() as u32);
    for z in &m.zones {
        put_zone(e, z);
    }
}

pub fn get_part_meta(d: &mut Dec) -> DecodeResult<PartMeta> {
    let id = d.u64()?;
    let rows = d.u64()?;
    let level = d.u8()?;
    let bytes_on_disk = d.u64()?;
    let bytes_uncompressed = d.u64()?;
    let nzones = d.seq_len()?;
    let zones = (0..nzones).map(|_| get_zone(d)).collect::<DecodeResult<_>>()?;
    Ok(PartMeta {
        id,
        rows,
        level,
        bytes_on_disk,
        bytes_uncompressed,
        zones,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::Value;

    fn batch(cols: Vec<(&str, DataType, Vec<Value>)>) -> RecordBatch {
        let schema = Schema::new(
            cols.iter()
                .map(|(n, t, _)| crate::schema::ColumnDef::new(*n, *t))
                .collect(),
        );
        let columns = cols
            .iter()
            .map(|(_, t, vs)| ColumnVector::from_values(*t, vs).unwrap())
            .collect();
        RecordBatch::new(Arc::new(schema), columns).unwrap()
    }

    fn roundtrip(b: &RecordBatch) -> DecodedPart {
        let (file, meta) = encode_part(7, 2, b);
        assert_eq!(meta.rows as usize, b.num_rows());
        assert!(validate_part_image(&file));
        decode_part(&file, None).unwrap()
    }

    fn assert_batches_equal(a: &RecordBatch, b: &RecordBatch) {
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.num_columns(), b.num_columns());
        for c in 0..a.num_columns() {
            for r in 0..a.num_rows() {
                let (x, y) = (a.column(c).get(r), b.column(c).get(r));
                // Value's PartialEq is SQL-flavored (NULL != NULL).
                assert!(
                    (x.is_null() && y.is_null()) || x == y,
                    "col {c} row {r}: {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn all_types_roundtrip_with_nulls() {
        let b = batch(vec![
            (
                "i",
                DataType::Int,
                vec![Value::Int(5), Value::Null, Value::Int(-3)],
            ),
            (
                "f",
                DataType::Float,
                vec![Value::Float(1.5), Value::Float(-0.0), Value::Null],
            ),
            (
                "t",
                DataType::Text,
                vec![Value::Text("a".into()), Value::Null, Value::Text("a".into())],
            ),
            (
                "b",
                DataType::Bool,
                vec![Value::Bool(true), Value::Bool(false), Value::Null],
            ),
            (
                "d",
                DataType::Date,
                vec![Value::Date(19000), Value::Null, Value::Date(-5)],
            ),
        ]);
        let p = roundtrip(&b);
        assert_eq!(p.id, 7);
        assert_eq!(p.level, 2);
        assert_batches_equal(&b, &p.batch);
    }

    #[test]
    fn rle_and_for_and_dict_compress() {
        let n = 4096;
        let runs: Vec<Value> = (0..n).map(|i| Value::Int(i / 512)).collect();
        let seq: Vec<Value> = (0..n).map(|i| Value::Int(1_000_000 + i)).collect();
        let cat: Vec<Value> = (0..n)
            .map(|i| Value::Text(format!("cat{}", i % 7)))
            .collect();
        let b = batch(vec![
            ("runs", DataType::Int, runs),
            ("seq", DataType::Int, seq),
            ("cat", DataType::Text, cat),
        ]);
        let (file, meta) = encode_part(1, 0, &b);
        assert!(
            meta.bytes_on_disk < meta.bytes_uncompressed / 2,
            "compressible data must compress: {} on disk vs {} raw",
            meta.bytes_on_disk,
            meta.bytes_uncompressed
        );
        let p = decode_part(&file, None).unwrap();
        assert_batches_equal(&b, &p.batch);
    }

    #[test]
    fn extreme_ints_roundtrip() {
        let b = batch(vec![(
            "i",
            DataType::Int,
            vec![
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
                Value::Int(0),
                Value::Int(-1),
            ],
        )]);
        let p = roundtrip(&b);
        assert_batches_equal(&b, &p.batch);
    }

    /// The widest FOR encoding the format allows: base = i64::MIN with a
    /// span of 2^63 - 1 forces width 63 while staying on the FOR path
    /// (values are distinct so RLE loses, and 63 < 64 bits beats RAW).
    #[test]
    fn for_width_63_spanning_i64_min_roundtrips() {
        let n = 1000i64;
        let mut vals: Vec<Value> = (0..n)
            .map(|i| Value::Int(i64::MIN + i * (i64::MAX / n)))
            .collect();
        // Pin the exact corners: the minimum representable value and the
        // top of a 63-bit span above it (i64::MIN + (2^63 - 1) == -1).
        vals[0] = Value::Int(i64::MIN);
        vals[1] = Value::Int(-1);
        let b = batch(vec![("i", DataType::Int, vals.clone())]);
        let (file, _) = encode_part(1, 0, &b);
        let p = decode_part(&file, None).unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(p.batch.column(0).get(i), *v, "row {i}");
        }
    }

    /// A full-i64 span needs 64 delta bits; the encoder must fall back to
    /// RAW (decode refuses width >= 64) and still round-trip exactly.
    #[test]
    fn full_span_falls_back_to_raw_and_roundtrips() {
        let n = 1000i64;
        let mut vals: Vec<Value> = (0..n)
            .map(|i| Value::Int(i64::MIN.wrapping_add(i.wrapping_mul(i64::MAX / 499))))
            .collect();
        vals[0] = Value::Int(i64::MIN);
        vals[1] = Value::Int(i64::MAX);
        let b = batch(vec![("i", DataType::Int, vals.clone())]);
        let (file, _) = encode_part(1, 0, &b);
        let p = decode_part(&file, None).unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(p.batch.column(0).get(i), *v, "row {i}");
        }
    }

    /// Every FOR width 0..=63 round-trips, including deltas that straddle
    /// the accumulator's old 64-bit ceiling (width + 7 residual bits).
    #[test]
    fn for_every_width_roundtrips() {
        for width in 0u32..=63 {
            let span: u64 = if width == 0 { 0 } else { (1u64 << (width - 1)) | 1 };
            let vals: Vec<i64> = (0..257u64)
                .map(|i| {
                    let d = if span == 0 { 0 } else { (i.wrapping_mul(0x9E37_79B9)) % (span + 1) };
                    i64::MIN / 2 + d as i64
                })
                .collect();
            let mut e = Enc::new();
            encode_int(&mut e, &vals);
            let mut d = Dec::new(&e.buf);
            let tag = d.u8().unwrap();
            let back = decode_int(&mut d, vals.len(), tag).unwrap();
            d.finish().unwrap();
            assert_eq!(vals, back, "width {width}");
        }
    }

    /// A corrupt width byte >= 64 must be rejected, not shifted with.
    #[test]
    fn for_decode_rejects_width_64_and_up() {
        for width in [64u8, 65, 255] {
            let mut e = Enc::new();
            e.i64(0); // base
            e.u8(width);
            e.u8(0); // would-be packed bits
            let mut d = Dec::new(&e.buf);
            assert!(decode_int(&mut d, 1, ENC_INT_FOR).is_err(), "width {width}");
        }
    }

    #[test]
    fn zone_maps_track_min_max_nulls() {
        let b = batch(vec![
            (
                "i",
                DataType::Int,
                vec![Value::Int(10), Value::Null, Value::Int(-4)],
            ),
            (
                "t",
                DataType::Text,
                vec![Value::Text("x".into()), Value::Text("y".into()), Value::Null],
            ),
        ]);
        let (_, meta) = encode_part(0, 0, &b);
        assert_eq!(meta.zones[0].min, Some(-4.0));
        assert_eq!(meta.zones[0].max, Some(10.0));
        assert_eq!(meta.zones[0].null_count, 1);
        assert_eq!(meta.zones[1].min, None, "text columns are not prunable");
        assert_eq!(meta.zones[1].null_count, 1);
    }

    #[test]
    fn projection_skips_blocks_and_reorders() {
        let b = batch(vec![
            ("a", DataType::Int, vec![Value::Int(1), Value::Int(2)]),
            (
                "b",
                DataType::Text,
                vec![Value::Text("p".into()), Value::Text("q".into())],
            ),
            ("c", DataType::Float, vec![Value::Float(0.5), Value::Null]),
        ]);
        let (file, _) = encode_part(3, 0, &b);
        let p = decode_part(&file, Some(&[2, 0])).unwrap();
        assert_eq!(p.batch.schema().names(), vec!["c", "a"]);
        assert_eq!(p.batch.column(0).get(0), Value::Float(0.5));
        assert!(p.batch.column(0).get(1).is_null());
        assert_eq!(p.batch.column(1).get(1), Value::Int(2));
    }

    #[test]
    fn corruption_detected() {
        let b = batch(vec![("a", DataType::Int, vec![Value::Int(1)])]);
        let (mut file, _) = encode_part(0, 0, &b);
        // Torn tail.
        assert!(!validate_part_image(&file[..file.len() - 1]));
        assert!(decode_part(&file[..file.len() - 1], None).is_err());
        // Bit flip in the payload.
        let last = file.len() - 1;
        file[last] ^= 0x40;
        assert!(!validate_part_image(&file));
        assert!(decode_part(&file, None).is_err());
    }

    #[test]
    fn part_meta_roundtrips() {
        let m = PartMeta {
            id: 42,
            rows: 1000,
            level: 3,
            bytes_on_disk: 512,
            bytes_uncompressed: 9000,
            zones: vec![
                ZoneMap {
                    min: Some(-1.5),
                    max: Some(99.0),
                    null_count: 7,
                },
                ZoneMap {
                    min: None,
                    max: None,
                    null_count: 0,
                },
            ],
        };
        let mut e = Enc::new();
        put_part_meta(&mut e, &m);
        let mut d = Dec::new(&e.buf);
        let back = get_part_meta(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(m, back);
    }
}
