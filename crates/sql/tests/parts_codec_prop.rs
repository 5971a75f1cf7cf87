//! Seeded property sweep over the part codec: every encoding path
//! (INT_RAW / INT_RLE / INT_FOR at widths 0–63, BOOL_BITMAP, FLOAT_RAW,
//! TEXT_RAW / TEXT_DICT at the 256-entry cliff, DATE_RAW), with empty,
//! all-null, and mixed-validity columns, must round-trip **byte-exactly**:
//! decoded values equal the originals (NULLs normalized), and re-encoding
//! the decoded batch reproduces the original part image bit-for-bit
//! (encoding is a pure function of logical content).
//!
//! The bulk decoder (word-load FOR unpacking, one-pass raw columns, no
//! bitmap for all-valid columns) is checked against a reference: a copy
//! of the original per-value block decoder must produce the same values on
//! every generated block. A block cut short at
//! any length must decode to an error, never a panic.
//!
//! Deterministic via flock-rng; seed count defaults to 256 and is
//! overridable with `FLOCK_CODEC_SEEDS`.

use flock_rng::{rngs::StdRng, Rng, SeedableRng};
use flock_sql::batch::RecordBatch;
use flock_sql::column::ColumnVector;
use flock_sql::parts::{decode_part, encode_part, validate_part_image};
use flock_sql::wal::{frame, FRAME_HEADER};
use flock_sql::schema::{ColumnDef, Schema};
use flock_sql::types::{DataType, Value};
use std::sync::Arc;

fn seeds() -> u64 {
    std::env::var("FLOCK_CODEC_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// Sprinkle NULLs over a value vector: `mode` 0 = none, 1 = all, 3 = only
/// the last row (a lone clear bit, often in the bitmap's partial last
/// byte), else ~1/4.
fn with_nulls(rng: &mut StdRng, vals: Vec<Value>, mode: u8) -> Vec<Value> {
    let n = vals.len();
    match mode {
        0 => vals,
        1 => vals.iter().map(|_| Value::Null).collect(),
        3 => vals
            .into_iter()
            .enumerate()
            .map(|(i, v)| if i + 1 == n { Value::Null } else { v })
            .collect(),
        _ => vals
            .into_iter()
            .map(|v| if rng.gen_range(0..4u32) == 0 { Value::Null } else { v })
            .collect(),
    }
}

/// Ints engineered for the FOR path at an exact bit width: random base
/// (clamped so base + span cannot overflow), deltas filling `width` bits.
fn for_ints(rng: &mut StdRng, n: usize, width: u32) -> Vec<Value> {
    let span: u64 = if width == 0 { 0 } else { ((1u128 << width) - 1) as u64 };
    let base: i64 = if span >= i64::MAX as u64 {
        i64::MIN
    } else {
        let hi = i64::MAX - span as i64;
        rng.gen_range(i64::MIN..hi)
    };
    (0..n)
        .map(|i| {
            let d = if span == 0 {
                0
            } else if i == 0 {
                span // pin the top so the chosen width is exactly `width`
            } else {
                rng.gen_range(0..=span)
            };
            Value::Int((base as i128 + d as i128) as i64)
        })
        .collect()
}

/// Ints engineered for RLE: few distinct values, long runs.
fn rle_ints(rng: &mut StdRng, n: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.gen_range(-5i64..5);
        let run = rng.gen_range(1usize..64).min(n - out.len());
        out.extend(std::iter::repeat_n(Value::Int(v), run));
    }
    out
}

/// Text at the dictionary cliff: exactly `distinct` distinct strings.
/// 255/256 stay on the dict path; 257 must fall back to RAW.
fn cliff_text(rng: &mut StdRng, n: usize, distinct: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            let k = if i < distinct { i } else { rng.gen_range(0..distinct) };
            Value::Text(format!("s{k:04}"))
        })
        .collect()
}

fn random_batch(rng: &mut StdRng, seed: u64) -> RecordBatch {
    // Row count: occasionally empty, mostly a few hundred (big enough for
    // dict's 257-distinct fallback and multi-byte FOR accumulator states).
    let n = match seed % 13 {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(260..400usize),
    };
    let width = (seed % 64) as u32; // sweep FOR widths 0..=63 across seeds
    let distinct = [255usize, 256, 257][(seed % 3) as usize];
    let null_mode = (seed % 5) as u8; // all-null (1) and last-row-only (3) columns too
    let mut cols: Vec<(&str, DataType, Vec<Value>)> = Vec::new();
    let for_vals = for_ints(rng, n, width);
    cols.push(("i_for", DataType::Int, with_nulls(rng, for_vals, null_mode % 3)));
    let rle_vals = rle_ints(rng, n);
    cols.push(("i_rle", DataType::Int, with_nulls(rng, rle_vals, null_mode)));
    // Full-span ints: FOR needs 64 bits, so RAW must be chosen.
    let raw_vals: Vec<Value> = (0..n)
        .map(|i| {
            if i == 0 {
                Value::Int(i64::MIN)
            } else if i == 1 {
                Value::Int(i64::MAX)
            } else {
                Value::Int(rng.gen_range(i64::MIN..i64::MAX))
            }
        })
        .collect();
    cols.push(("i_raw", DataType::Int, with_nulls(rng, raw_vals, null_mode)));
    let text_vals = cliff_text(rng, n, distinct);
    cols.push(("t", DataType::Text, with_nulls(rng, text_vals, null_mode)));
    let bool_vals: Vec<Value> = (0..n).map(|_| Value::Bool(rng.gen_range(0..2u32) == 1)).collect();
    cols.push(("b", DataType::Bool, with_nulls(rng, bool_vals, null_mode)));
    let float_vals: Vec<Value> = (0..n).map(|_| Value::Float(rng.gen_range(-1e12..1e12))).collect();
    cols.push(("f", DataType::Float, with_nulls(rng, float_vals, null_mode)));
    let date_vals: Vec<Value> =
        (0..n).map(|_| Value::Date(rng.gen_range(-100_000i64..100_000) as i32)).collect();
    cols.push(("d", DataType::Date, with_nulls(rng, date_vals, null_mode)));
    let schema = Schema::new(cols.iter().map(|(nm, t, _)| ColumnDef::new(*nm, *t)).collect());
    let columns = cols
        .iter()
        .map(|(_, t, vs)| ColumnVector::from_values(*t, vs).unwrap())
        .collect();
    RecordBatch::new(Arc::new(schema), columns).unwrap()
}

fn assert_logically_equal(a: &RecordBatch, b: &RecordBatch, seed: u64) {
    assert_eq!(a.num_rows(), b.num_rows(), "seed {seed}");
    assert_eq!(a.num_columns(), b.num_columns(), "seed {seed}");
    for c in 0..a.num_columns() {
        for r in 0..a.num_rows() {
            let (x, y) = (a.column(c).get(r), b.column(c).get(r));
            // Value's PartialEq is SQL-flavored (NULL != NULL).
            assert!(
                (x.is_null() && y.is_null()) || x == y,
                "seed {seed} col {c} row {r}: {x:?} vs {y:?}"
            );
        }
    }
}

#[test]
fn codec_roundtrip_sweep() {
    for seed in 0..seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = random_batch(&mut rng, seed);
        let (file, meta) = encode_part(seed, (seed % 4) as u8, &batch);
        assert!(validate_part_image(&file), "seed {seed}");
        assert_eq!(meta.rows as usize, batch.num_rows(), "seed {seed}");
        assert_eq!(meta.zones.len(), batch.num_columns(), "seed {seed}");
        let p = decode_part(&file, None).unwrap_or_else(|_| panic!("seed {seed}: decode failed"));
        assert_logically_equal(&batch, &p.batch, seed);
        // Byte-exact: re-encoding the decoded batch reproduces the image.
        let (file2, meta2) = encode_part(seed, (seed % 4) as u8, &p.batch);
        assert_eq!(file, file2, "seed {seed}: re-encode not byte-identical");
        assert_eq!(meta, meta2, "seed {seed}");
        // Projected read of a random column subset matches the full decode.
        if batch.num_columns() > 0 {
            let proj: Vec<usize> = (0..batch.num_columns())
                .filter(|_| rng.gen_range(0..2u32) == 1)
                .collect();
            if !proj.is_empty() {
                let pp = decode_part(&file, Some(&proj)).unwrap();
                for (k, &c) in proj.iter().enumerate() {
                    for r in 0..batch.num_rows() {
                        let (x, y) = (batch.column(c).get(r), pp.batch.column(k).get(r));
                        assert!(
                            (x.is_null() && y.is_null()) || x == y,
                            "seed {seed} projected col {c} row {r}"
                        );
                    }
                }
            }
        }
    }
}

// ------------------------------------------------- reference decoder
//
// The per-value part decoder the bulk decoder replaced: a bounds-checked
// cursor call per value, the validity bitmap always unpacked, FOR unpacked
// a byte at a time through a u128 accumulator.

const ENC_INT_RAW: u8 = 0;
const ENC_INT_RLE: u8 = 1;
const ENC_INT_FOR: u8 = 2;
const ENC_BOOL_BITMAP: u8 = 3;
const ENC_FLOAT_RAW: u8 = 4;
const ENC_TEXT_RAW: u8 = 5;
const ENC_TEXT_DICT: u8 = 6;
const ENC_DATE_RAW: u8 = 7;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Option<i32> {
        Some(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().unwrap())))
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

fn unpack_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (1 << (i % 8)) != 0
}

fn ref_decode_int(d: &mut Cursor, n: usize, tag: u8) -> Option<Vec<i64>> {
    match tag {
        ENC_INT_RAW => (0..n).map(|_| d.i64()).collect(),
        ENC_INT_RLE => {
            let runs = d.u32()? as usize;
            let mut out = Vec::with_capacity(n);
            for _ in 0..runs {
                let v = d.i64()?;
                let count = d.u32()? as usize;
                if out.len() + count > n {
                    return None;
                }
                out.resize(out.len() + count, v);
            }
            (out.len() == n).then_some(out)
        }
        ENC_INT_FOR => {
            let base = d.i64()?;
            let width = d.u8()? as u32;
            if width >= 64 {
                return None;
            }
            let mut out = Vec::with_capacity(n);
            let mut acc: u128 = 0;
            let mut nbits: u32 = 0;
            let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
            for _ in 0..n {
                while nbits < width {
                    acc |= (d.u8()? as u128) << nbits;
                    nbits += 8;
                }
                let diff = (acc as u64) & mask;
                acc >>= width;
                nbits -= width;
                out.push((base as i128 + diff as i128) as i64);
            }
            Some(out)
        }
        _ => None,
    }
}

fn ref_decode_text(d: &mut Cursor, n: usize, tag: u8) -> Option<Vec<String>> {
    match tag {
        ENC_TEXT_RAW => (0..n).map(|_| d.str()).collect(),
        ENC_TEXT_DICT => {
            let ndict = d.u32()? as usize;
            if ndict > 256 {
                return None;
            }
            let dict: Vec<String> = (0..ndict).map(|_| d.str()).collect::<Option<_>>()?;
            (0..n).map(|_| dict.get(d.u8()? as usize).cloned()).collect()
        }
        _ => None,
    }
}

/// One block's values, NULL where the validity bit is clear.
fn ref_decode_block(block: &[u8], n: usize, data_type: DataType) -> Option<Vec<Value>> {
    let mut d = Cursor { buf: block, pos: 0 };
    let vbytes = n.div_ceil(8);
    let validity_bits = d.take(vbytes)?;
    let validity: Vec<bool> = (0..n).map(|i| unpack_bit(validity_bits, i)).collect();
    let tag = d.u8()?;
    let vals: Vec<Value> = match data_type {
        DataType::Bool => {
            if tag != ENC_BOOL_BITMAP {
                return None;
            }
            let bytes = d.take(vbytes)?;
            (0..n).map(|i| Value::Bool(unpack_bit(bytes, i))).collect()
        }
        DataType::Int => ref_decode_int(&mut d, n, tag)?.into_iter().map(Value::Int).collect(),
        DataType::Float => {
            if tag != ENC_FLOAT_RAW {
                return None;
            }
            (0..n).map(|_| d.f64().map(Value::Float)).collect::<Option<_>>()?
        }
        DataType::Text => ref_decode_text(&mut d, n, tag)?.into_iter().map(Value::Text).collect(),
        DataType::Date => {
            if tag != ENC_DATE_RAW {
                return None;
            }
            (0..n).map(|_| d.i32().map(Value::Date)).collect::<Option<_>>()?
        }
    };
    if d.pos != block.len() {
        return None;
    }
    Some(
        vals.into_iter()
            .zip(validity)
            .map(|(v, ok)| if ok { v } else { Value::Null })
            .collect(),
    )
}

/// Walk a part payload to its column blocks: the row count and, per
/// column, the type and the `(offset, len)` of its block in the payload.
fn part_blocks(payload: &[u8]) -> (usize, Vec<(DataType, usize, usize)>) {
    let mut d = Cursor { buf: payload, pos: 0 };
    let _format = d.u8().unwrap();
    let _id = d.i64().unwrap();
    let _level = d.u8().unwrap();
    let rows = d.u32().unwrap() as usize;
    let ncols = d.u32().unwrap() as usize;
    let types: Vec<DataType> = (0..ncols)
        .map(|_| {
            let _name = d.str().unwrap();
            let t = match d.u8().unwrap() {
                0 => DataType::Bool,
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Text,
                4 => DataType::Date,
                t => panic!("unknown type tag {t}"),
            };
            let _nullable = d.u8().unwrap();
            t
        })
        .collect();
    assert_eq!(d.u32().unwrap() as usize, ncols);
    let blocks = types
        .into_iter()
        .map(|t| {
            d.take(26).unwrap(); // zone: has_min, min, has_max, max, nulls
            let len = d.u32().unwrap() as usize;
            let at = d.pos;
            d.take(len).unwrap();
            (t, at, len)
        })
        .collect();
    assert_eq!(d.pos, payload.len());
    (rows, blocks)
}

#[test]
fn bulk_decoder_matches_the_per_value_reference() {
    for seed in 0..seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = random_batch(&mut rng, seed);
        let (file, _) = encode_part(seed, 0, &batch);
        let p = decode_part(&file, None).unwrap_or_else(|_| panic!("seed {seed}: decode failed"));
        let payload = &file[FRAME_HEADER..];
        let (rows, blocks) = part_blocks(payload);
        assert_eq!(rows, batch.num_rows(), "seed {seed}");
        for (c, &(t, at, len)) in blocks.iter().enumerate() {
            let want = ref_decode_block(&payload[at..at + len], rows, t)
                .unwrap_or_else(|| panic!("seed {seed} col {c}: reference decode failed"));
            let got = p.batch.column(c);
            for (r, w) in want.iter().enumerate() {
                // Debug form compares floats by value and NULL with NULL.
                assert_eq!(format!("{:?}", got.get(r)), format!("{w:?}"), "seed {seed} col {c} row {r}");
            }
        }
    }
}

/// Every truncation of every block, re-framed with a valid checksum so the
/// cut reaches the block decoder: each must be `Err`, none may panic.
/// Single-column parts keep each decode to one block; every 7th seed
/// still covers every FOR width, dictionary cliff, null mode and row-count
/// shape of the sweep.
#[test]
fn truncated_blocks_are_errors_not_panics() {
    for seed in (0..seeds()).step_by(7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = random_batch(&mut rng, seed);
        for c in 0..batch.num_columns() {
            let one = batch.project(&[c]).unwrap();
            let (file, _) = encode_part(seed, 0, &one);
            let payload = &file[FRAME_HEADER..];
            let (_, blocks) = part_blocks(payload);
            let (_, at, len) = blocks[0];
            assert_eq!(at + len, payload.len(), "the only block ends the payload");
            for cut in 0..len {
                let mut cut_payload = payload[..at + cut].to_vec();
                cut_payload[at - 4..at].copy_from_slice(&(cut as u32).to_le_bytes());
                let mut cut_file = Vec::new();
                frame(&mut cut_file, &cut_payload);
                assert!(
                    decode_part(&cut_file, None).is_err(),
                    "seed {seed} col {c}: block cut to {cut} of {len} bytes decoded"
                );
            }
        }
    }
}

/// A TEXT_DICT block decodes to a dictionary column — one code per row,
/// no string — whose values equal the per-value reference and which
/// re-encodes to the same bytes, as it is or materialised. So does the
/// concatenation of two parts' text columns, whose dictionaries merge. A
/// code past the dictionary's end is an error, not a panic.
#[test]
fn text_dict_blocks_decode_to_dictionary_columns() {
    let mut dict_blocks = 0;
    for seed in 0..seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = random_batch(&mut rng, seed);
        let one = batch.project(&[batch.schema().index_of("t").unwrap()]).unwrap();
        let (file, _) = encode_part(seed, 0, &one);
        let payload = &file[FRAME_HEADER..];
        let (rows, blocks) = part_blocks(payload);
        let (_, at, len) = blocks[0];
        let block = &payload[at..at + len];
        let vbytes = rows.div_ceil(8);
        if block[vbytes] != ENC_TEXT_DICT {
            continue;
        }
        dict_blocks += 1;
        let col = decode_part(&file, None).unwrap().batch.column(0).clone();
        assert!(col.is_dictionary(), "seed {seed}");
        let want = ref_decode_block(block, rows, DataType::Text).unwrap();
        for (r, w) in want.iter().enumerate() {
            assert_eq!(format!("{:?}", col.get(r)), format!("{w:?}"), "seed {seed} row {r}");
        }
        let encode = |col: ColumnVector| {
            encode_part(seed, 0, &RecordBatch::new(one.schema().clone(), vec![col]).unwrap()).0
        };
        assert_eq!(encode(col.clone()), file, "seed {seed}: re-encoded codes");
        assert_eq!(encode(col.materialize()), file, "seed {seed}: re-encoded strings");
        let cut = rng.gen_range(0..=rows);
        let halves = [one.slice(0, cut), one.slice(cut, rows)]
            .map(|h| decode_part(&encode_part(seed, 0, &h).0, None).unwrap().batch);
        let joined = RecordBatch::concat(one.schema().clone(), &halves).unwrap();
        assert_eq!(encode(joined.column(0).clone()), file, "seed {seed}: halves cut at {cut}");

        let ndict = u32::from_le_bytes(block[vbytes + 1..vbytes + 5].try_into().unwrap());
        if ndict < 256 && rows > 0 {
            let mut bad = payload.to_vec();
            let row = rng.gen_range(0..rows);
            bad[at + len - rows + row] = rng.gen_range(ndict..256) as u8;
            let mut bad_file = Vec::new();
            frame(&mut bad_file, &bad);
            assert!(
                decode_part(&bad_file, None).is_err(),
                "seed {seed}: code {} of {ndict} at row {row} decoded",
                bad[at + len - rows + row]
            );
        }
    }
    assert!(dict_blocks > 0, "no seed wrote a TEXT_DICT block");
}
