//! Columnar storage: typed column vectors with validity bitmaps.
//!
//! Text has two physical forms behind one logical type. A plain `Text`
//! buffer holds one `String` per row. A dictionary column (Arrow's
//! dictionary array) holds one `u32` code per row into an `Arc`-shared
//! list of strings; part scans decode `TEXT_DICT` blocks straight into it,
//! so reading a categorical column allocates no string per row. The two
//! forms are one representation: every operation gives the same `Value`s
//! on a dictionary column as on its materialised `Text`
//! ([`ColumnVector::materialize`], the one place a dictionary becomes
//! per-row strings). Gathers, filters and windows keep the codes and
//! share the dictionary; concatenating dictionary columns concatenates
//! their dictionaries; pushing a single value materialises first. Every
//! kernel that works per code goes through [`per_code`], whose cost is
//! bounded by the rows it reads, never by the size of the dictionary.

use crate::error::{Result, SqlError};
use crate::types::{DataType, Value, ValueRef};
use std::collections::HashMap;
use std::sync::Arc;

/// Physical storage for one column: a window `[offset, offset + len)` onto
/// an `Arc`-shared typed buffer. NULLs occupy a default slot and are masked
/// by `validity`.
///
/// Cloning and slicing share the buffer (scans, projections, morsel
/// fan-out, PREDICT argument evaluation never copy values); mutation
/// copies the window on write.
#[derive(Debug, Clone)]
pub struct ColumnVector {
    data: ColumnData,
    /// `Some` exactly when the window holds at least one NULL, so the
    /// NULL-free fast paths are an `is_none()` test. Indexed like the
    /// data buffer (buffer-relative, not window-relative).
    validity: Option<Arc<Vec<bool>>>,
    offset: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum ColumnData {
    Bool(Arc<Vec<bool>>),
    Int(Arc<Vec<i64>>),
    Float(Arc<Vec<f64>>),
    Text(Arc<Vec<String>>),
    /// Dictionary-coded text: row `i` holds `values[codes[i]]`. Every code
    /// indexes `values`, NULL slots' included; `values` may repeat a string.
    Dict(Arc<Vec<u32>>, Arc<Vec<String>>),
    Date(Arc<Vec<i32>>),
}

/// Build a `ColumnData` of the same variant as `$data` from `$body`, which
/// sees the source buffer as `$v`.
macro_rules! map_buffer {
    ($data:expr, |$v:ident| $body:expr) => {
        match $data {
            ColumnData::Bool($v) => ColumnData::Bool(Arc::new($body)),
            ColumnData::Int($v) => ColumnData::Int(Arc::new($body)),
            ColumnData::Float($v) => ColumnData::Float(Arc::new($body)),
            ColumnData::Text($v) => ColumnData::Text(Arc::new($body)),
            ColumnData::Dict($v, values) => ColumnData::Dict(Arc::new($body), values.clone()),
            ColumnData::Date($v) => ColumnData::Date(Arc::new($body)),
        }
    };
}

impl ColumnData {
    /// Rows in the whole buffer (not the window).
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Dict(codes, _) => codes.len(),
            ColumnData::Date(v) => v.len(),
        }
    }
}

/// A validity bitmap, or `None` when every slot is valid.
fn validity_of(bits: Vec<bool>) -> Option<Arc<Vec<bool>>> {
    bits.contains(&false).then(|| Arc::new(bits))
}

impl ColumnVector {
    fn owned(data: ColumnData, validity: Option<Arc<Vec<bool>>>, len: usize) -> Self {
        ColumnVector {
            data,
            validity,
            offset: 0,
            len,
        }
    }

    /// Create an empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        Self::with_capacity(data_type, 0)
    }

    pub fn with_capacity(data_type: DataType, cap: usize) -> Self {
        let data = match data_type {
            DataType::Bool => ColumnData::Bool(Arc::new(Vec::with_capacity(cap))),
            DataType::Int => ColumnData::Int(Arc::new(Vec::with_capacity(cap))),
            DataType::Float => ColumnData::Float(Arc::new(Vec::with_capacity(cap))),
            DataType::Text => ColumnData::Text(Arc::new(Vec::with_capacity(cap))),
            DataType::Date => ColumnData::Date(Arc::new(Vec::with_capacity(cap))),
        };
        Self::owned(data, None, 0)
    }

    /// Build a column from scalar values, casting each to `data_type`.
    pub fn from_values(data_type: DataType, values: &[Value]) -> Result<Self> {
        let mut col = Self::with_capacity(data_type, values.len());
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col)
    }

    /// Fast constructor from raw f64 data (used by the ML integration).
    pub fn from_f64(values: impl IntoIterator<Item = f64>) -> Self {
        let data: Vec<f64> = values.into_iter().collect();
        let len = data.len();
        Self::owned(ColumnData::Float(Arc::new(data)), None, len)
    }

    /// Fast constructor from raw i64 data.
    pub fn from_i64(values: impl IntoIterator<Item = i64>) -> Self {
        let data: Vec<i64> = values.into_iter().collect();
        let len = data.len();
        Self::owned(ColumnData::Int(Arc::new(data)), None, len)
    }

    /// Fast constructor from raw bool data.
    pub fn from_bool(values: impl IntoIterator<Item = bool>) -> Self {
        let data: Vec<bool> = values.into_iter().collect();
        let len = data.len();
        Self::owned(ColumnData::Bool(Arc::new(data)), None, len)
    }

    /// A column of `n` copies of `value` (NULL broadcasts as an all-NULL
    /// column of `data_type`), cast to `data_type`.
    pub fn repeat(data_type: DataType, value: &Value, n: usize) -> Result<Self> {
        if value.is_null() {
            let mut col = Self::with_capacity(data_type, 0);
            col.data = map_buffer!(&col.data, |_v| vec![Default::default(); n]);
            col.validity = (n > 0).then(|| Arc::new(vec![false; n]));
            col.len = n;
            return Ok(col);
        }
        let data = match cast_for_column(value, data_type)? {
            Value::Bool(x) => ColumnData::Bool(Arc::new(vec![x; n])),
            Value::Int(x) => ColumnData::Int(Arc::new(vec![x; n])),
            Value::Float(x) => ColumnData::Float(Arc::new(vec![x; n])),
            Value::Text(x) => ColumnData::Text(Arc::new(vec![x; n])),
            Value::Date(x) => ColumnData::Date(Arc::new(vec![x; n])),
            Value::Null => unreachable!("cast of a non-NULL value is non-NULL"),
        };
        Ok(Self::owned(data, None, n))
    }

    /// A dictionary-coded text column: row `i` holds `values[codes[i]]`,
    /// NULL where `validity` is false. Every code, NULL rows' included,
    /// must index `values`.
    pub fn from_dictionary(
        codes: Vec<u32>,
        values: Arc<Vec<String>>,
        validity: Option<Vec<bool>>,
    ) -> Result<Self> {
        Self::from_raw(RawColumnOwned::Dict(codes, values), validity)
    }

    /// Whether the column is dictionary-coded text.
    pub fn is_dictionary(&self) -> bool {
        matches!(self.data, ColumnData::Dict(..))
    }

    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text(_) | ColumnData::Dict(..) => DataType::Text,
            ColumnData::Date(_) => DataType::Date,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffer index of window row `idx` (panics past the window's end, like
    /// slice indexing: a view must never read its parent's other rows).
    fn at(&self, idx: usize) -> usize {
        assert!(
            idx < self.len,
            "row {idx} out of range for column of {} rows",
            self.len
        );
        self.offset + idx
    }

    fn window(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }

    pub fn is_null(&self, idx: usize) -> bool {
        let i = self.at(idx);
        self.validity.as_ref().is_some_and(|v| !v[i])
    }

    /// Whether any row is NULL. O(1).
    pub fn has_nulls(&self) -> bool {
        self.validity.is_some()
    }

    pub fn null_count(&self) -> usize {
        self.validity()
            .map_or(0, |v| v.iter().filter(|b| !**b).count())
    }

    /// Read the value at `idx` as a scalar.
    pub fn get(&self, idx: usize) -> Value {
        self.value_ref(idx).map_or(Value::Null, ValueRef::to_value)
    }

    /// Row `idx` borrowed from the buffer: [`get`](Self::get) without the
    /// text copy, `None` when the row is NULL.
    pub fn value_ref(&self, idx: usize) -> Option<ValueRef<'_>> {
        if self.is_null(idx) {
            return None;
        }
        let i = self.offset + idx;
        Some(match &self.data {
            ColumnData::Bool(v) => ValueRef::Bool(v[i]),
            ColumnData::Int(v) => ValueRef::Int(v[i]),
            ColumnData::Float(v) => ValueRef::Float(v[i]),
            ColumnData::Text(v) => ValueRef::Text(&v[i]),
            ColumnData::Dict(codes, values) => ValueRef::Text(&values[codes[i] as usize]),
            ColumnData::Date(v) => ValueRef::Date(v[i]),
        })
    }

    /// Row `idx`'s text borrowed from the buffer: `None` when the row is
    /// NULL or the column is not text.
    pub fn str_at(&self, idx: usize) -> Option<&str> {
        if self.is_null(idx) {
            return None;
        }
        let i = self.offset + idx;
        match &self.data {
            ColumnData::Text(v) => Some(&v[i]),
            ColumnData::Dict(codes, values) => Some(&values[codes[i] as usize]),
            _ => None,
        }
    }

    /// Numeric view of a row: NULL -> None, non-numeric -> None.
    pub fn get_f64(&self, idx: usize) -> Option<f64> {
        if self.is_null(idx) {
            return None;
        }
        let i = self.offset + idx;
        match &self.data {
            ColumnData::Bool(v) => Some(v[i] as i64 as f64),
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Date(v) => Some(v[i] as f64),
            ColumnData::Text(_) | ColumnData::Dict(..) => None,
        }
    }

    /// Borrow the raw f64 buffer when this is a Float column with no NULLs.
    /// The vectorized inference path uses this to avoid per-row boxing.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) if self.validity.is_none() => Some(&v[self.window()]),
            _ => None,
        }
    }

    /// Borrow the raw bool buffer when this column is all-valid bools.
    pub fn as_bool_slice(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) if self.validity.is_none() => Some(&v[self.window()]),
            _ => None,
        }
    }

    /// Borrow the raw i64 buffer when this column is all-valid ints.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) if self.validity.is_none() => Some(&v[self.window()]),
            _ => None,
        }
    }

    /// Borrow the raw string buffer when this is a plain Text column, not
    /// a dictionary (NULL slots hold the empty string; check
    /// [`has_nulls`](Self::has_nulls)).
    pub fn as_text_slice(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::Text(v) => Some(&v[self.window()]),
            _ => None,
        }
    }

    /// Make the window the whole of a uniquely owned buffer pair, so the
    /// mutators can `Arc::make_mut` without touching rows outside it.
    /// A dictionary column keeps its dictionary and owns its codes.
    fn make_owned(&mut self) {
        let w = self.window();
        if self.data.len() != self.len {
            self.data = map_buffer!(&self.data, |v| v[w.clone()].to_vec());
            self.validity = self.validity.take().map(|v| Arc::new(v[w].to_vec()));
            self.offset = 0;
        }
    }

    /// Mutable validity bitmap, materialized (all valid) on first NULL.
    fn validity_mut(&mut self) -> &mut Vec<bool> {
        let len = self.len;
        Arc::make_mut(
            self.validity
                .get_or_insert_with(|| Arc::new(vec![true; len])),
        )
    }

    /// Append a value, casting it to the column type. NULL is accepted for
    /// any type.
    pub fn push(&mut self, value: Value) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        let value = cast_for_column(&value, self.data_type())?;
        self.undictionary();
        self.make_owned();
        if self.validity.is_some() {
            self.validity_mut().push(true);
        }
        match (&mut self.data, value) {
            (ColumnData::Bool(v), Value::Bool(x)) => Arc::make_mut(v).push(x),
            (ColumnData::Int(v), Value::Int(x)) => Arc::make_mut(v).push(x),
            (ColumnData::Float(v), Value::Float(x)) => Arc::make_mut(v).push(x),
            (ColumnData::Text(v), Value::Text(x)) => Arc::make_mut(v).push(x),
            (ColumnData::Date(v), Value::Date(x)) => Arc::make_mut(v).push(x),
            _ => unreachable!("cast guarantees matching variant, and no dictionary"),
        }
        self.len += 1;
        Ok(())
    }

    pub fn push_null(&mut self) {
        self.undictionary();
        self.make_owned();
        self.validity_mut().push(false);
        match &mut self.data {
            ColumnData::Bool(v) => Arc::make_mut(v).push(false),
            ColumnData::Int(v) => Arc::make_mut(v).push(0),
            ColumnData::Float(v) => Arc::make_mut(v).push(0.0),
            ColumnData::Text(v) => Arc::make_mut(v).push(String::new()),
            ColumnData::Date(v) => Arc::make_mut(v).push(0),
            ColumnData::Dict(..) => unreachable!("materialised above"),
        }
        self.len += 1;
    }

    /// Gather rows at `indices` into a new column (join/sort materialize).
    /// A dictionary column gathers its codes. So does a text column when
    /// the gather is at least as long as its buffer (a join's build side,
    /// a sort): the result is a dictionary column over the shared buffer,
    /// and no string is cloned.
    pub fn take(&self, indices: &[usize]) -> ColumnVector {
        fn gather<T: Clone>(rows: &[T], indices: &[usize]) -> Vec<T> {
            indices.iter().map(|&i| rows[i].clone()).collect()
        }
        let w = self.window();
        let data = match &self.data {
            ColumnData::Text(v) if indices.len() >= v.len() && u32::try_from(v.len()).is_ok() => {
                let codes = indices.iter().map(|&i| self.at(i) as u32).collect();
                ColumnData::Dict(Arc::new(codes), v.clone())
            }
            data => map_buffer!(data, |v| gather(&v[w.clone()], indices)),
        };
        let validity = self
            .validity()
            .and_then(|bits| validity_of(gather(bits, indices)));
        Self::owned(data, validity, indices.len())
    }

    /// Keep rows where `mask` is true (filter).
    pub fn filter(&self, mask: &[bool]) -> ColumnVector {
        fn keep<T: Clone>(rows: &[T], mask: &[bool], kept: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(kept);
            out.extend(
                rows.iter()
                    .zip(mask)
                    .filter(|(_, k)| **k)
                    .map(|(x, _)| x.clone()),
            );
            out
        }
        assert_eq!(mask.len(), self.len, "filter mask must cover the column");
        let kept = mask.iter().filter(|k| **k).count();
        if kept == self.len {
            return self.clone();
        }
        let w = self.window();
        let data = map_buffer!(&self.data, |v| keep(&v[w.clone()], mask, kept));
        let validity = self
            .validity()
            .and_then(|bits| validity_of(keep(bits, mask, kept)));
        Self::owned(data, validity, kept)
    }

    /// View of rows `[start, start+len)`, clamped to the column: shares the
    /// buffers, copies no value. O(1) for a NULL-free column; a column with
    /// NULLs scans the window's validity bytes once, so that the view's
    /// `as_*_slice` fast paths stay O(1) when the window happens to hold
    /// no NULL.
    pub fn slice(&self, start: usize, len: usize) -> ColumnVector {
        let start = start.min(self.len);
        let len = len.min(self.len - start);
        let offset = self.offset + start;
        let validity = self
            .validity
            .as_ref()
            .filter(|v| v[offset..offset + len].contains(&false))
            .cloned();
        ColumnVector {
            data: self.data.clone(),
            validity,
            offset,
            len,
        }
    }

    /// Append all rows of `other` (must have the same type).
    pub fn append(&mut self, other: &ColumnVector) -> Result<()> {
        self.append_all(&[other])
    }

    /// Append all rows of each of `others` (each must have this column's
    /// type) in one pass. When every non-empty column is dictionary-coded
    /// the result is too ([`Self::concat_dictionaries`]); otherwise
    /// dictionaries are materialised and the buffers appended.
    pub fn append_all(&mut self, others: &[&ColumnVector]) -> Result<()> {
        if let Some(other) = others.iter().find(|o| o.data_type() != self.data_type()) {
            return Err(SqlError::Execution(format!(
                "cannot append {} column to {} column",
                other.data_type(),
                self.data_type()
            )));
        }
        let parts: Vec<&ColumnVector> = std::iter::once(&*self)
            .chain(others.iter().copied())
            .filter(|c| c.len > 0)
            .collect();
        if !parts.is_empty() && parts.iter().all(|c| c.is_dictionary()) {
            let merged = Self::concat_dictionaries(&parts);
            *self = merged;
            return Ok(());
        }
        self.undictionary();
        for &other in others {
            let other = other.materialize();
            self.append_buffer(&other);
        }
        Ok(())
    }

    /// Append `other`'s buffer to this one's; neither is a dictionary.
    fn append_buffer(&mut self, other: &ColumnVector) {
        self.make_owned();
        if self.validity.is_some() || other.validity.is_some() {
            let bits = self.validity_mut();
            match other.validity() {
                Some(o) => bits.extend_from_slice(o),
                None => bits.resize(bits.len() + other.len, true),
            }
        }
        let w = other.window();
        match (&mut self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => Arc::make_mut(a).extend_from_slice(&b[w]),
            (ColumnData::Int(a), ColumnData::Int(b)) => Arc::make_mut(a).extend_from_slice(&b[w]),
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                Arc::make_mut(a).extend_from_slice(&b[w])
            }
            (ColumnData::Text(a), ColumnData::Text(b)) => Arc::make_mut(a).extend_from_slice(&b[w]),
            (ColumnData::Date(a), ColumnData::Date(b)) => Arc::make_mut(a).extend_from_slice(&b[w]),
            _ => unreachable!("types checked and dictionaries materialised"),
        }
        self.len += other.len;
    }

    /// Dictionary columns end to end, no string built per row. Columns over
    /// one shared dictionary keep it and append their codes. Otherwise a
    /// new dictionary holds, column by column, the strings each column's
    /// rows name ([`per_code`]), so the work is bounded by the rows, not by
    /// the dictionaries, and no string is hashed; the new dictionary may
    /// repeat a string.
    fn concat_dictionaries(parts: &[&ColumnVector]) -> ColumnVector {
        fn dict(c: &ColumnVector) -> (&[u32], &Arc<Vec<String>>) {
            match &c.data {
                ColumnData::Dict(codes, values) => (&codes[c.window()], values),
                _ => unreachable!("every part is a dictionary"),
            }
        }
        let len = parts.iter().map(|c| c.len).sum();
        let mut codes = Vec::with_capacity(len);
        let first = dict(parts[0]).1;
        let values = if parts.iter().all(|c| Arc::ptr_eq(dict(c).1, first)) {
            for c in parts {
                codes.extend_from_slice(dict(c).0);
            }
            first.clone()
        } else {
            let mut merged = Vec::new();
            for c in parts {
                let (part, values) = dict(c);
                // No validity is passed, so every `code` is `Some`.
                codes.extend(per_code(part, None, values.len(), |code, _| {
                    merged.extend(code.map(|c| values[c as usize].clone()));
                    merged.len() as u32 - 1
                }));
            }
            Arc::new(merged)
        };
        let validity = parts.iter().any(|c| c.validity.is_some()).then(|| {
            let mut bits = Vec::with_capacity(len);
            for c in parts {
                match c.validity() {
                    Some(v) => bits.extend_from_slice(v),
                    None => bits.resize(bits.len() + c.len, true),
                }
            }
            bits
        });
        let validity = validity.and_then(validity_of);
        Self::owned(ColumnData::Dict(Arc::new(codes), values), validity, len)
    }

    /// This column with a dictionary expanded into a plain `Text` buffer
    /// (NULL slots hold the empty string, as every `Text` buffer's do);
    /// any other column as it is. The one place a dictionary column turns
    /// into a string per row.
    pub fn materialize(&self) -> ColumnVector {
        let ColumnData::Dict(codes, values) = &self.data else {
            return self.clone();
        };
        let valid = self.validity();
        let text = codes[self.window()]
            .iter()
            .enumerate()
            .map(|(i, &c)| match valid.is_none_or(|v| v[i]) {
                true => values[c as usize].clone(),
                false => String::new(),
            })
            .collect();
        let validity = valid.map(|v| Arc::new(v.to_vec()));
        Self::owned(ColumnData::Text(Arc::new(text)), validity, self.len)
    }

    /// Materialise a dictionary column in place, before a mutation that
    /// writes strings.
    fn undictionary(&mut self) {
        if matches!(self.data, ColumnData::Dict(..)) {
            *self = self.materialize();
        }
    }

    /// Iterate scalar values (allocates for Text rows only).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The window's validity bitmap (NULL slots are `false`), or `None`
    /// when no row is NULL.
    pub(crate) fn validity(&self) -> Option<&[bool]> {
        self.validity.as_ref().map(|v| &v[self.window()])
    }

    /// Borrow the window's raw typed buffer *including* NULL slots (which
    /// hold the type's default). The part codec encodes raw buffers plus
    /// the validity bitmap, so NULL slots must round-trip untouched; the
    /// typed expression kernels read it beside [`validity`](Self::validity).
    pub(crate) fn raw(&self) -> RawColumn<'_> {
        let w = self.window();
        match &self.data {
            ColumnData::Bool(v) => RawColumn::Bool(&v[w]),
            ColumnData::Int(v) => RawColumn::Int(&v[w]),
            ColumnData::Float(v) => RawColumn::Float(&v[w]),
            ColumnData::Text(v) => RawColumn::Text(&v[w]),
            ColumnData::Dict(codes, values) => RawColumn::Dict {
                codes: &codes[w],
                values,
            },
            ColumnData::Date(v) => RawColumn::Date(&v[w]),
        }
    }

    /// Rebuild a column from a raw buffer and validity bitmap (`None`: no
    /// NULLs). NULL slots must already hold the type's default value (the
    /// part codec normalizes them on encode). A dictionary's codes must all
    /// index its values; a NULL slot's code may name any of them.
    pub(crate) fn from_raw(raw: RawColumnOwned, validity: Option<Vec<bool>>) -> Result<Self> {
        let data = match raw {
            RawColumnOwned::Bool(v) => ColumnData::Bool(Arc::new(v)),
            RawColumnOwned::Int(v) => ColumnData::Int(Arc::new(v)),
            RawColumnOwned::Float(v) => ColumnData::Float(Arc::new(v)),
            RawColumnOwned::Text(v) => ColumnData::Text(Arc::new(v)),
            RawColumnOwned::Dict(codes, values) => {
                if codes.iter().any(|&c| c as usize >= values.len()) {
                    return Err(SqlError::Execution(format!(
                        "dictionary code out of range for {} values",
                        values.len()
                    )));
                }
                ColumnData::Dict(Arc::new(codes), values)
            }
            RawColumnOwned::Date(v) => ColumnData::Date(Arc::new(v)),
        };
        let len = data.len();
        if let Some(v) = validity.as_ref().filter(|v| v.len() != len) {
            return Err(SqlError::Execution(format!(
                "column buffer has {len} rows but validity has {}",
                v.len()
            )));
        }
        Ok(Self::owned(data, validity.and_then(validity_of), len))
    }
}

/// Cast a non-NULL value to a column's type, as a constraint error.
fn cast_for_column(value: &Value, data_type: DataType) -> Result<Value> {
    value.cast(data_type).map_err(|_| {
        SqlError::Constraint(format!(
            "value {value} does not fit column of type {data_type}"
        ))
    })
}

/// `f(code, row)` for each row of a dictionary window, called once per
/// distinct code among `codes` (at the row where it first appears) and
/// remembered for the rows after; `code` is `None` for the NULL rows of
/// `valid`, which share one call. The memo is one slot per dictionary
/// entry when the dictionary (`dict_len` entries) is no larger than the
/// window, and a map of the codes seen otherwise, so the cost is bounded
/// by the rows read, never by the dictionary: a morsel over a dictionary
/// as large as a table reads only the codes it names.
pub(crate) fn per_code<T: Copy>(
    codes: &[u32],
    valid: Option<&[bool]>,
    dict_len: usize,
    mut f: impl FnMut(Option<u32>, usize) -> T,
) -> Vec<T> {
    enum Memo<T> {
        /// Indexed by code; the last slot is the NULL rows'.
        Slots(Vec<Option<T>>),
        Seen(HashMap<Option<u32>, T>),
    }
    let mut memo = match dict_len <= codes.len() {
        true => Memo::Slots(vec![None; dict_len + 1]),
        false => Memo::Seen(HashMap::new()),
    };
    (codes.iter().enumerate())
        .map(|(row, &c)| {
            let code = valid.is_none_or(|v| v[row]).then_some(c);
            match &mut memo {
                Memo::Slots(slots) => *slots[code.map_or(dict_len, |c| c as usize)]
                    .get_or_insert_with(|| f(code, row)),
                Memo::Seen(seen) => *seen.entry(code).or_insert_with(|| f(code, row)),
            }
        })
        .collect()
}

/// Borrowed view of a column's raw typed buffer (NULL slots included).
pub(crate) enum RawColumn<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    Text(&'a [String]),
    /// Dictionary-coded text: the window's codes and the whole dictionary.
    Dict {
        codes: &'a [u32],
        values: &'a [String],
    },
    Date(&'a [i32]),
}

/// Owned raw buffer for [`ColumnVector::from_raw`].
pub(crate) enum RawColumnOwned {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<String>),
    Dict(Vec<u32>, Arc<Vec<String>>),
    Date(Vec<i32>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = ColumnVector::new(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Float(3.7)).unwrap(); // casts to 3
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert!(c.get(1).is_null());
        assert_eq!(c.get(2), Value::Int(3));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn incompatible_push_rejected() {
        let mut c = ColumnVector::new(DataType::Int);
        assert!(c.push(Value::Text("xyz".into())).is_err());
        assert_eq!(c.len(), 0, "failed push must not grow the column");
    }

    #[test]
    fn filter_and_take() {
        let c = ColumnVector::from_i64([10, 20, 30, 40]);
        let f = c.filter(&[true, false, true, false]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(1), Value::Int(30));
        let t = c.take(&[3, 0]);
        assert_eq!(t.get(0), Value::Int(40));
        assert_eq!(t.get(1), Value::Int(10));
    }

    #[test]
    fn slice_bounds_are_clamped() {
        let c = ColumnVector::from_i64([1, 2, 3]);
        let s = c.slice(2, 10);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), Value::Int(3));
        assert_eq!(c.slice(7, usize::MAX).len(), 0);
    }

    #[test]
    fn slice_shares_the_buffer_and_mutation_copies_the_window() {
        let c = ColumnVector::from_f64([1.0, 2.0, 3.0, 4.0]);
        let mut s = c.slice(1, 2);
        assert_eq!(
            s.as_f64_slice().unwrap().as_ptr(),
            c.as_f64_slice().unwrap()[1..].as_ptr(),
            "a slice is a view, not a copy"
        );
        s.push(Value::Float(9.0)).unwrap();
        assert_eq!(s.as_f64_slice().unwrap(), &[2.0, 3.0, 9.0]);
        assert_eq!(c.as_f64_slice().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn null_free_window_of_a_nullable_column_takes_the_fast_path() {
        let mut c = ColumnVector::from_i64([1, 2]);
        c.push_null();
        c.push(Value::Int(4)).unwrap();
        assert!(c.as_i64_slice().is_none());
        assert_eq!(c.slice(0, 2).as_i64_slice(), Some(&[1, 2][..]));
        let tail = c.slice(2, 2);
        assert!(tail.has_nulls() && tail.is_null(0) && !tail.is_null(1));
        assert_eq!(tail.slice(1, 1).as_i64_slice(), Some(&[4][..]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_view_cannot_read_past_its_window() {
        ColumnVector::from_i64([1, 2, 3]).slice(0, 2).get(2);
    }

    #[test]
    fn append_checks_types() {
        let mut a = ColumnVector::from_i64([1]);
        let b = ColumnVector::from_i64([2, 3]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 3);
        let f = ColumnVector::from_f64([1.0]);
        assert!(a.append(&f).is_err());
    }

    #[test]
    fn append_merges_validity_either_way() {
        let mut nullable = ColumnVector::new(DataType::Int);
        nullable.push_null();
        let dense = ColumnVector::from_i64([7, 8]);
        let mut a = dense.clone();
        a.append(&nullable).unwrap();
        assert_eq!(
            a.iter().map(|v| v.is_null()).collect::<Vec<_>>(),
            [false, false, true]
        );
        let mut b = nullable.clone();
        b.append(&dense.slice(1, 1)).unwrap();
        assert!(b.is_null(0));
        assert_eq!(b.get(1), Value::Int(8));
    }

    #[test]
    fn repeat_broadcasts_values_and_nulls() {
        let c = ColumnVector::repeat(DataType::Float, &Value::Int(2), 3).unwrap();
        assert_eq!(c.as_f64_slice(), Some(&[2.0, 2.0, 2.0][..]));
        let n = ColumnVector::repeat(DataType::Text, &Value::Null, 2).unwrap();
        assert_eq!(n.null_count(), 2);
        assert!(ColumnVector::repeat(DataType::Int, &Value::Text("x".into()), 1).is_err());
    }

    #[test]
    fn f64_fast_path_requires_no_nulls() {
        let mut c = ColumnVector::from_f64([1.0, 2.0]);
        assert!(c.as_f64_slice().is_some());
        c.push_null();
        assert!(c.as_f64_slice().is_none());
        assert_eq!(c.get_f64(2), None);
    }

    #[test]
    fn per_code_calls_once_per_code_and_never_sizes_by_the_dictionary() {
        let codes = [3, 1, 3, 3, 1, 0];
        let valid = [true, true, false, true, true, true];
        let mut calls = Vec::new();
        let out = per_code(&codes, Some(&valid), 4, |code, row| {
            calls.push((code, row));
            code.map_or(-1, |c| c as i64)
        });
        assert_eq!(out, [3, 1, -1, 3, 1, 0]);
        assert_eq!(calls, [(Some(3), 0), (Some(1), 1), (None, 2), (Some(0), 5)]);
        // A memo sized by this dictionary could not be allocated at all.
        let out = per_code(&codes, None, usize::MAX, |code, _| code.unwrap());
        assert_eq!(out, codes);
    }

    #[test]
    fn concatenated_dictionaries_keep_a_shared_one_and_merge_the_rest() {
        let dict = |codes: Vec<u32>, words: &[&str], valid: Option<Vec<bool>>| {
            let words = Arc::new(words.iter().map(|w| w.to_string()).collect());
            ColumnVector::from_dictionary(codes, words, valid).unwrap()
        };
        let a = dict(vec![0, 1, 0], &["x", "y"], Some(vec![true, false, true]));
        let text = |c: &ColumnVector| c.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        let mut shared = a.slice(1, 2);
        shared.append(&a).unwrap();
        assert!(shared.is_dictionary());
        assert_eq!(text(&shared), ["NULL", "x", "x", "NULL", "x"]);
        // Two parts naming few of many strings: only the named ones join.
        let b = dict(vec![2, 2], &["p", "q", "x", "r"], None);
        let mut merged = ColumnVector::new(DataType::Text);
        merged.append_all(&[&a, &b, &a.slice(2, 1)]).unwrap();
        assert!(merged.is_dictionary());
        assert_eq!(text(&merged), ["x", "NULL", "x", "x", "x", "x"]);
        let ColumnData::Dict(_, values) = &merged.data else {
            unreachable!()
        };
        assert_eq!(**values, ["x", "y", "x", "x"]);
        // Dictionary text meeting plain text is plain text.
        let mut mixed = merged.clone();
        let z = ColumnVector::repeat(DataType::Text, &Value::Text("z".into()), 1).unwrap();
        mixed.append(&z).unwrap();
        assert!(!mixed.is_dictionary());
        assert_eq!(text(&mixed).last().unwrap(), "z");
    }
}
