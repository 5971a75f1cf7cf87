//! Feature frames: the typed column container pipelines consume.
//!
//! A [`Frame`] is the ML-side analogue of a relational record batch:
//! named columns of either numeric (`f64`, with NaN as missing) or string
//! data. The in-DB integration converts `flock-sql` column vectors into
//! frames at the PREDICT boundary. Columns can either own their data or
//! borrow it from the caller (`F64Borrowed` / `StrBorrowed`), so the
//! PREDICT binding path and chunked scoring never copy dense columns.

use crate::error::{MlError, Result};

/// One column of a frame.
#[derive(Debug, Clone)]
pub enum FrameCol<'a> {
    /// Numeric data; missing values are NaN.
    F64(Vec<f64>),
    /// String data; missing values are empty strings.
    Str(Vec<String>),
    /// Numeric data borrowed from the caller (zero-copy binding).
    F64Borrowed(&'a [f64]),
    /// String data borrowed from the caller (zero-copy binding).
    StrBorrowed(&'a [String]),
}

impl<'a> FrameCol<'a> {
    pub fn len(&self) -> usize {
        match self {
            FrameCol::F64(v) => v.len(),
            FrameCol::Str(v) => v.len(),
            FrameCol::F64Borrowed(v) => v.len(),
            FrameCol::StrBorrowed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            FrameCol::F64(v) => Some(v),
            FrameCol::F64Borrowed(v) => Some(v),
            FrameCol::Str(_) | FrameCol::StrBorrowed(_) => None,
        }
    }

    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            FrameCol::Str(v) => Some(v),
            FrameCol::StrBorrowed(v) => Some(v),
            FrameCol::F64(_) | FrameCol::F64Borrowed(_) => None,
        }
    }

    /// A borrowed view of rows `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> FrameCol<'_> {
        match self {
            FrameCol::F64(v) => FrameCol::F64Borrowed(&v[start..end]),
            FrameCol::Str(v) => FrameCol::StrBorrowed(&v[start..end]),
            FrameCol::F64Borrowed(v) => FrameCol::F64Borrowed(&v[start..end]),
            FrameCol::StrBorrowed(v) => FrameCol::StrBorrowed(&v[start..end]),
        }
    }
}

/// Equality is by content, not by ownership: an owned column equals a
/// borrowed view of the same data.
impl PartialEq for FrameCol<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a == b,
            (None, None) => self.as_str() == other.as_str(),
            _ => false,
        }
    }
}

/// A named collection of equal-length columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame<'a> {
    columns: Vec<(String, FrameCol<'a>)>,
}

impl<'a> Frame<'a> {
    pub fn new() -> Self {
        Frame::default()
    }

    /// Add a column; all columns must share a length.
    pub fn push(&mut self, name: impl Into<String>, col: FrameCol<'a>) -> Result<()> {
        if let Some((_, first)) = self.columns.first() {
            if first.len() != col.len() {
                return Err(MlError::Shape(format!(
                    "column length {} != frame length {}",
                    col.len(),
                    first.len()
                )));
            }
        }
        self.columns.push((name.into(), col));
        Ok(())
    }

    pub fn with(mut self, name: impl Into<String>, col: FrameCol<'a>) -> Result<Self> {
        self.push(name, col)?;
        Ok(self)
    }

    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.len())
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    pub fn column(&self, name: &str) -> Result<&FrameCol<'a>> {
        self.columns
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, c)| c)
            .ok_or_else(|| MlError::UnknownColumn(name.to_string()))
    }

    /// A one-row copy of this frame (allocates; used by the row-at-a-time
    /// interpreted scorer).
    pub fn slice_row(&self, row: usize) -> Frame<'static> {
        let columns = self
            .columns
            .iter()
            .map(|(n, c)| {
                let col = match c.as_f64() {
                    Some(v) => FrameCol::F64(vec![v[row]]),
                    None => FrameCol::Str(vec![c.as_str().unwrap()[row].clone()]),
                };
                (n.clone(), col)
            })
            .collect();
        Frame { columns }
    }

    /// Lazily split into borrowed chunks of at most `chunk_rows` (used by
    /// chunked and parallel scoring). Chunks borrow from `self`, so a large
    /// frame is never materialized twice. An empty frame yields one empty
    /// chunk so callers still see the column layout.
    pub fn chunks(&self, chunk_rows: usize) -> impl Iterator<Item = Frame<'_>> + '_ {
        let n = self.num_rows();
        let chunk_rows = chunk_rows.max(1);
        let count = if n == 0 { 1 } else { n.div_ceil(chunk_rows) };
        (0..count).map(move |i| {
            let start = i * chunk_rows;
            let end = (start + chunk_rows).min(n);
            Frame {
                columns: self
                    .columns
                    .iter()
                    .map(|(name, c)| (name.clone(), c.slice(start, end)))
                    .collect(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame<'static> {
        Frame::new()
            .with("age", FrameCol::F64(vec![34.0, 28.0, f64::NAN]))
            .unwrap()
            .with(
                "city",
                FrameCol::Str(vec!["nyc".into(), "sf".into(), "nyc".into()]),
            )
            .unwrap()
    }

    #[test]
    fn push_validates_length() {
        let mut f = frame();
        let err = f.push("bad", FrameCol::F64(vec![1.0]));
        assert!(err.is_err());
    }

    #[test]
    fn lookup_case_insensitive() {
        let f = frame();
        assert!(f.column("AGE").is_ok());
        assert!(f.column("missing").is_err());
    }

    #[test]
    fn row_slicing() {
        let f = frame();
        let r = f.slice_row(1);
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.column("city").unwrap().as_str().unwrap()[0], "sf");
    }

    #[test]
    fn chunking_covers_rows_lazily() {
        let f = frame();
        let chunks: Vec<Frame<'_>> = f.chunks(2).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].num_rows(), 2);
        assert_eq!(chunks[1].num_rows(), 1);
        // chunks borrow: numeric data points into the parent allocation
        let parent = f.column("age").unwrap().as_f64().unwrap();
        let child = chunks[0].column("age").unwrap().as_f64().unwrap();
        assert_eq!(parent.as_ptr(), child.as_ptr());
    }

    #[test]
    fn empty_frame_yields_one_chunk() {
        let f = Frame::new()
            .with("x", FrameCol::F64(vec![]))
            .unwrap();
        let chunks: Vec<Frame<'_>> = f.chunks(4).collect();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].num_rows(), 0);
        assert_eq!(chunks[0].num_columns(), 1);
    }

    #[test]
    fn borrowed_equals_owned() {
        let data = vec![1.0, 2.0];
        assert_eq!(FrameCol::F64(data.clone()), FrameCol::F64Borrowed(&data));
    }
}
