//! Columnar storage: typed column vectors with validity bitmaps.

use crate::error::{Result, SqlError};
use crate::types::{DataType, Value};
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
            ColumnData::Date($v) => ColumnData::Date(Arc::new($body)),
        }
    };
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

    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text(_) => DataType::Text,
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
        if self.is_null(idx) {
            return Value::Null;
        }
        let i = self.offset + idx;
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Text(v) => Value::Text(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
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
            ColumnData::Text(_) => None,
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

    /// Borrow the raw string buffer when this is a Text column (NULL slots
    /// hold the empty string; check [`has_nulls`](Self::has_nulls)).
    pub fn as_text_slice(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::Text(v) => Some(&v[self.window()]),
            _ => None,
        }
    }

    /// Make the window the whole of a uniquely owned buffer pair, so the
    /// mutators can `Arc::make_mut` without touching rows outside it.
    fn make_owned(&mut self) {
        let w = self.window();
        let whole = match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        } == self.len;
        if !whole {
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
            _ => unreachable!("cast guarantees matching variant"),
        }
        self.len += 1;
        Ok(())
    }

    pub fn push_null(&mut self) {
        self.make_owned();
        self.validity_mut().push(false);
        match &mut self.data {
            ColumnData::Bool(v) => Arc::make_mut(v).push(false),
            ColumnData::Int(v) => Arc::make_mut(v).push(0),
            ColumnData::Float(v) => Arc::make_mut(v).push(0.0),
            ColumnData::Text(v) => Arc::make_mut(v).push(String::new()),
            ColumnData::Date(v) => Arc::make_mut(v).push(0),
        }
        self.len += 1;
    }

    /// Gather rows at `indices` into a new column (join/sort materialize).
    pub fn take(&self, indices: &[usize]) -> ColumnVector {
        fn gather<T: Clone>(rows: &[T], indices: &[usize]) -> Vec<T> {
            indices.iter().map(|&i| rows[i].clone()).collect()
        }
        let w = self.window();
        let data = map_buffer!(&self.data, |v| gather(&v[w.clone()], indices));
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
        if other.data_type() != self.data_type() {
            return Err(SqlError::Execution(format!(
                "cannot append {} column to {} column",
                other.data_type(),
                self.data_type()
            )));
        }
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
            _ => unreachable!("type equality checked above"),
        }
        self.len += other.len;
        Ok(())
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
            ColumnData::Date(v) => RawColumn::Date(&v[w]),
        }
    }

    /// Rebuild a column from a raw buffer and validity bitmap (`None`: no
    /// NULLs). NULL slots must already hold the type's default value (the
    /// part codec normalizes them on encode).
    pub(crate) fn from_raw(raw: RawColumnOwned, validity: Option<Vec<bool>>) -> Result<Self> {
        let data = match raw {
            RawColumnOwned::Bool(v) => ColumnData::Bool(Arc::new(v)),
            RawColumnOwned::Int(v) => ColumnData::Int(Arc::new(v)),
            RawColumnOwned::Float(v) => ColumnData::Float(Arc::new(v)),
            RawColumnOwned::Text(v) => ColumnData::Text(Arc::new(v)),
            RawColumnOwned::Date(v) => ColumnData::Date(Arc::new(v)),
        };
        let len = match &data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        };
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

/// Borrowed view of a column's raw typed buffer (NULL slots included).
pub(crate) enum RawColumn<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    Text(&'a [String]),
    Date(&'a [i32]),
}

/// Owned raw buffer for [`ColumnVector::from_raw`].
pub(crate) enum RawColumnOwned {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<String>),
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
}
