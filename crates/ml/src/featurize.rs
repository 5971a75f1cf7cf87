//! Featurizers: per-input-column transformations producing feature slots.
//!
//! A [`ColumnPipeline`] describes how one input column becomes one or more
//! numeric features: optional numeric preprocessing steps followed by an
//! encoder. The full pipeline's feature vector is the concatenation of
//! every column's features in declaration order — a deterministic layout
//! the cross-optimizer relies on when mapping model sparsity back to
//! input columns.

use crate::error::{MlError, Result};
use crate::frame::Frame;

/// Numeric preprocessing applied in order before encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericStep {
    /// Replace NaN with a constant.
    Impute { fill: f64 },
    /// `(x - mean) / std` (std 0 treated as 1).
    Standardize { mean: f64, std: f64 },
    /// `(x - min) / (max - min)` (degenerate range treated as width 1).
    MinMax { min: f64, max: f64 },
    /// `ln(1 + max(x, 0))`.
    Log1p,
    /// Clamp into `[lo, hi]`.
    Clip { lo: f64, hi: f64 },
}

impl NumericStep {
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            NumericStep::Impute { fill } => {
                if x.is_nan() {
                    *fill
                } else {
                    x
                }
            }
            NumericStep::Standardize { mean, std } => {
                let s = if *std == 0.0 { 1.0 } else { *std };
                (x - mean) / s
            }
            NumericStep::MinMax { min, max } => {
                let w = if max - min == 0.0 { 1.0 } else { max - min };
                (x - min) / w
            }
            NumericStep::Log1p => (1.0 + x.max(0.0)).ln(),
            NumericStep::Clip { lo, hi } => x.clamp(*lo, *hi),
        }
    }
}

/// How a (preprocessed) column turns into features.
#[derive(Debug, Clone, PartialEq)]
pub enum Encoder {
    /// One numeric feature, the value itself.
    Numeric,
    /// One-hot over a fixed category list; unseen categories encode to
    /// all-zeros. Produces `categories.len()` features.
    OneHot { categories: Categories },
    /// Feature hashing of whitespace-tokenized text into `buckets`
    /// counting features.
    Hashing { buckets: usize },
    /// One-hot bin membership over sorted `edges`; produces
    /// `edges.len() + 1` features.
    Binned { edges: Vec<f64> },
    /// Constant pre-encoded features, broadcast to every row without
    /// reading any input column. Produced by the cross-optimizer when a
    /// query predicate fixes an input (`WHERE c = 'x'`): the original
    /// encoder is evaluated once at plan time and its output frozen here,
    /// so scoring skips both the column binding and the encode work while
    /// the model's weights stay untouched (bit-exact scores).
    Fixed { values: Vec<f64> },
}

impl Encoder {
    /// Number of feature slots this encoder produces.
    pub fn width(&self) -> usize {
        match self {
            Encoder::Numeric => 1,
            Encoder::OneHot { categories } => categories.len(),
            Encoder::Hashing { buckets } => *buckets,
            Encoder::Binned { edges } => edges.len() + 1,
            Encoder::Fixed { values } => values.len(),
        }
    }

    /// Does this encoder consume string input?
    pub fn takes_strings(&self) -> bool {
        matches!(self, Encoder::OneHot { .. } | Encoder::Hashing { .. })
    }
}

/// A one-hot encoder's category list, indexed by text: a value finds its
/// slot with one hash and (almost always) one string compare, however
/// long the list. A category listed twice keeps its first slot.
#[derive(Clone)]
pub struct Categories {
    names: Vec<String>,
    /// Open addressing over [`fnv1a`], probed linearly: each entry is 0
    /// (empty) or 1 + the slot of the first category with that text. Its
    /// length is a power of two above `names.len()`, so a probe ends.
    index: Vec<u32>,
}

impl Categories {
    /// The slot `v` one-hot encodes to: its first position in the list.
    #[inline]
    pub fn position(&self, v: &str) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut at = fnv1a(v) as usize & mask;
        loop {
            let slot = (self.index[at] as usize).checked_sub(1)?;
            if self.names[slot] == v {
                return Some(slot);
            }
            at = (at + 1) & mask;
        }
    }
}

impl From<Vec<String>> for Categories {
    fn from(names: Vec<String>) -> Self {
        let mut categories = Categories {
            index: vec![0; (2 * names.len() + 1).next_power_of_two()],
            names,
        };
        let mask = categories.index.len() - 1;
        for slot in 0..categories.names.len() {
            let name = &categories.names[slot];
            if categories.position(name).is_some() {
                continue; // listed before: the first slot stands
            }
            let mut at = fnv1a(name) as usize & mask;
            while categories.index[at] != 0 {
                at = (at + 1) & mask;
            }
            categories.index[at] = slot as u32 + 1;
        }
        categories
    }
}

impl FromIterator<String> for Categories {
    fn from_iter<I: IntoIterator<Item = String>>(names: I) -> Self {
        Categories::from(names.into_iter().collect::<Vec<_>>())
    }
}

impl std::ops::Deref for Categories {
    type Target = [String];

    fn deref(&self) -> &[String] {
        &self.names
    }
}

impl PartialEq for Categories {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl std::fmt::Debug for Categories {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.names.fmt(f)
    }
}

/// FNV-1a hash for feature hashing (stable across runs and platforms).
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The featurization plan for one input column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPipeline {
    /// Input column name (matched case-insensitively in the frame).
    pub input: String,
    /// Numeric preprocessing (ignored for string encoders).
    pub steps: Vec<NumericStep>,
    pub encoder: Encoder,
}

impl ColumnPipeline {
    pub fn numeric(input: impl Into<String>) -> Self {
        ColumnPipeline {
            input: input.into(),
            steps: vec![],
            encoder: Encoder::Numeric,
        }
    }

    pub fn one_hot(input: impl Into<String>, categories: Vec<String>) -> Self {
        ColumnPipeline {
            input: input.into(),
            steps: vec![],
            encoder: Encoder::OneHot {
                categories: categories.into(),
            },
        }
    }

    pub fn with_step(mut self, step: NumericStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Feature width of this column.
    pub fn width(&self) -> usize {
        self.encoder.width()
    }

    /// Encode this column from `frame` into `out[.., offset..offset+width]`
    /// (row-major target of total width `total`).
    pub fn encode_into(
        &self,
        frame: &Frame,
        out: &mut [f64],
        offset: usize,
        total: usize,
    ) -> Result<()> {
        self.encode_rows_into(frame, 0..frame.num_rows(), out, offset, total)
    }

    /// [`encode_into`](Self::encode_into) for the frame's rows `rows` only:
    /// row `rows.start + r` lands in `out[r * total + offset..]`. `out` must
    /// be zeroed, as encoders write only their non-zero slots.
    pub(crate) fn encode_rows_into(
        &self,
        frame: &Frame,
        rows: std::ops::Range<usize>,
        out: &mut [f64],
        offset: usize,
        total: usize,
    ) -> Result<()> {
        // Fixed features never touch the frame: the input column is not
        // even bound after specialization.
        if let Encoder::Fixed { values } = &self.encoder {
            let w = values.len();
            for r in 0..rows.len() {
                out[r * total + offset..r * total + offset + w].copy_from_slice(values);
            }
            return Ok(());
        }
        match &self.encoder {
            Encoder::Numeric => {
                for (r, &raw) in self.numeric_input(frame)?[rows].iter().enumerate() {
                    out[r * total + offset] = self.numeric_value(raw);
                }
            }
            Encoder::Binned { edges } => {
                for (r, &raw) in self.numeric_input(frame)?[rows].iter().enumerate() {
                    out[r * total + offset + bin_of(edges, self.preprocess(raw))] = 1.0;
                }
            }
            Encoder::OneHot { categories } => {
                for (r, v) in self.text_input(frame)?[rows].iter().enumerate() {
                    if let Some(i) = categories.position(v) {
                        out[r * total + offset + i] = 1.0;
                    }
                }
            }
            Encoder::Hashing { buckets } => {
                for (r, text) in self.text_input(frame)?[rows].iter().enumerate() {
                    for tok in text.split_whitespace() {
                        let b = (fnv1a(&tok.to_lowercase()) % *buckets as u64) as usize;
                        out[r * total + offset + b] += 1.0;
                    }
                }
            }
            Encoder::Fixed { .. } => unreachable!("handled above"),
        }
        Ok(())
    }

    /// The column's numeric input, or the error featurization raises.
    pub(crate) fn numeric_input<'f>(&self, frame: &'f Frame) -> Result<&'f [f64]> {
        frame
            .column(&self.input)?
            .as_f64()
            .ok_or_else(|| MlError::Shape(format!("column '{}' must be numeric", self.input)))
    }

    /// The column's text input, or the error featurization raises.
    pub(crate) fn text_input<'f>(&self, frame: &'f Frame) -> Result<&'f [String]> {
        frame
            .column(&self.input)?
            .as_str()
            .ok_or_else(|| MlError::Shape(format!("column '{}' must be text", self.input)))
    }

    /// Fail as featurization would if `frame` lacks this column's input or
    /// holds it with the wrong type.
    pub(crate) fn check_input(&self, frame: &Frame) -> Result<()> {
        match &self.encoder {
            Encoder::Fixed { .. } => Ok(()),
            e if e.takes_strings() => self.text_input(frame).map(drop),
            _ => self.numeric_input(frame).map(drop),
        }
    }

    /// `raw` after the numeric steps.
    #[inline]
    pub(crate) fn preprocess(&self, raw: f64) -> f64 {
        self.steps.iter().fold(raw, |x, s| s.apply(x))
    }

    /// The [`Encoder::Numeric`] feature of `raw`: the steps, then NaN
    /// becomes 0 so models without NaN handling stay well-defined.
    #[inline]
    pub(crate) fn numeric_value(&self, raw: f64) -> f64 {
        let x = self.preprocess(raw);
        if x.is_nan() {
            0.0
        } else {
            x
        }
    }

    /// Encode a single raw value (already fetched from a row). Used by the
    /// row-at-a-time interpreted scorer.
    pub fn encode_value_into(&self, value: &RawValue, out: &mut [f64]) {
        match (&self.encoder, value) {
            // Fixed ignores the input value entirely.
            (Encoder::Fixed { values }, _) => out.copy_from_slice(values),
            (Encoder::Numeric, RawValue::Num(raw)) => out[0] = self.numeric_value(*raw),
            (Encoder::Binned { edges }, RawValue::Num(raw)) => {
                out[bin_of(edges, self.preprocess(*raw))] = 1.0;
            }
            (Encoder::OneHot { categories }, RawValue::Text(v)) => {
                if let Some(i) = categories.position(v) {
                    out[i] = 1.0;
                }
            }
            (Encoder::Hashing { buckets }, RawValue::Text(text)) => {
                for tok in text.split_whitespace() {
                    let b = (fnv1a(&tok.to_lowercase()) % *buckets as u64) as usize;
                    out[b] += 1.0;
                }
            }
            // type mismatch leaves the slots zero
            _ => {}
        }
    }
}

/// The [`Encoder::Binned`] slot of a preprocessed value: the edges it
/// exceeds. NaN exceeds none, so it falls in bin 0.
fn bin_of(edges: &[f64], x: f64) -> usize {
    edges.iter().take_while(|e| x > **e).count()
}

/// A scalar input value for row-wise encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum RawValue {
    Num(f64),
    Text(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameCol;

    fn frame() -> Frame<'static> {
        Frame::new()
            .with("x", FrameCol::F64(vec![1.0, f64::NAN, 5.0]))
            .unwrap()
            .with(
                "c",
                FrameCol::Str(vec!["a".into(), "b".into(), "z".into()]),
            )
            .unwrap()
            .with(
                "t",
                FrameCol::Str(vec![
                    "hello world".into(),
                    "hello hello".into(),
                    "".into(),
                ]),
            )
            .unwrap()
    }

    #[test]
    fn numeric_steps_compose() {
        let cp = ColumnPipeline::numeric("x")
            .with_step(NumericStep::Impute { fill: 3.0 })
            .with_step(NumericStep::Standardize { mean: 3.0, std: 2.0 });
        let f = frame();
        let mut out = vec![0.0; 3];
        cp.encode_into(&f, &mut out, 0, 1).unwrap();
        assert_eq!(out, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn one_hot_unknown_is_zero_vector() {
        let cp = ColumnPipeline::one_hot("c", vec!["a".into(), "b".into()]);
        let f = frame();
        let mut out = vec![0.0; 6];
        cp.encode_into(&f, &mut out, 0, 2).unwrap();
        assert_eq!(out, vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn category_lookup_is_the_first_match_of_a_scan() {
        let long = |tail: &str| format!("a category name longer than eight bytes {tail}");
        let mut names: Vec<String> = ["", "x", "xy", "yx", "abcd", "abcde", "é", "x", "abcd"]
            .map(String::from)
            .to_vec();
        names.extend((0..40).map(|i| long(&i.to_string())));
        names.push(long("7"));
        let categories = Categories::from(names.clone());
        assert_eq!(format!("{categories:?}"), format!("{names:?}"));
        let mut probes = names.clone();
        probes.extend(["y", "abc", "xx", "ab", "e\u{301}"].map(String::from));
        probes.push(long("40"));
        for v in &probes {
            let scan = names.iter().position(|c| c == v);
            assert_eq!(categories.position(v), scan, "{v:?}");
        }
        assert_eq!(Categories::from(Vec::new()).position("x"), None);
    }

    #[test]
    fn hashing_counts_tokens() {
        let cp = ColumnPipeline {
            input: "t".into(),
            steps: vec![],
            encoder: Encoder::Hashing { buckets: 4 },
        };
        let f = frame();
        let mut out = vec![0.0; 12];
        cp.encode_into(&f, &mut out, 0, 4).unwrap();
        let row0: f64 = out[0..4].iter().sum();
        let row1: f64 = out[4..8].iter().sum();
        let row2: f64 = out[8..12].iter().sum();
        assert_eq!(row0, 2.0);
        assert_eq!(row1, 2.0);
        assert_eq!(row2, 0.0);
        // "hello hello" double-counts one bucket
        assert!(out[4..8].contains(&2.0));
    }

    #[test]
    fn binning_assigns_intervals() {
        let cp = ColumnPipeline {
            input: "x".into(),
            steps: vec![NumericStep::Impute { fill: 0.0 }],
            encoder: Encoder::Binned {
                edges: vec![2.0, 4.0],
            },
        };
        let f = frame();
        let mut out = vec![0.0; 9];
        cp.encode_into(&f, &mut out, 0, 3).unwrap();
        assert_eq!(&out[0..3], &[1.0, 0.0, 0.0]); // 1.0 -> bin 0
        assert_eq!(&out[3..6], &[1.0, 0.0, 0.0]); // imputed 0 -> bin 0
        assert_eq!(&out[6..9], &[0.0, 0.0, 1.0]); // 5.0 -> bin 2
    }

    #[test]
    fn type_mismatch_is_error() {
        let cp = ColumnPipeline::numeric("c");
        let f = frame();
        let mut out = vec![0.0; 3];
        assert!(cp.encode_into(&f, &mut out, 0, 1).is_err());
    }

    #[test]
    fn row_encoding_matches_batch() {
        let cp = ColumnPipeline::one_hot("c", vec!["a".into(), "b".into()]);
        let mut row = vec![0.0; 2];
        cp.encode_value_into(&RawValue::Text("b".into()), &mut row);
        assert_eq!(row, vec![0.0, 1.0]);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a("hello"), fnv1a("hello"));
        assert_ne!(fnv1a("hello"), fnv1a("world"));
    }
}
