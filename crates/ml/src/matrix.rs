//! A minimal dense row-major f64 matrix — the feature-matrix kernel every
//! model scores against.

// numeric kernels read more naturally with explicit indices
#![allow(clippy::needless_range_loop)]

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row-major data; panics if the length is inconsistent.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from a slice of rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// `X w` for a weight vector (len == cols).
    pub fn matvec(&self, w: &[f64]) -> Vec<f64> {
        assert_eq!(w.len(), self.cols, "weight length mismatch");
        (0..self.rows)
            .map(|r| dot(self.row(r), w))
            .collect()
    }

    /// Column mean, ignoring NaN entries.
    pub fn col_mean(&self, c: usize) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in 0..self.rows {
            let v = self.get(r, c);
            if !v.is_nan() {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Column standard deviation (population), ignoring NaN.
    pub fn col_std(&self, c: usize) -> f64 {
        let mean = self.col_mean(c);
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in 0..self.rows {
            let v = self.get(r, c);
            if !v.is_nan() {
                sum += (v - mean) * (v - mean);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64).sqrt()
        }
    }

    /// Select a subset of columns (in the given order).
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            for (j, &c) in cols.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }
}

/// Dense dot product, unrolled into four independent accumulators so the
/// FP adds don't serialize on one dependency chain (linear/logistic
/// scoring spends nearly all its time here).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let chunks = n / 4;
    for i in 0..chunks {
        let k = i * 4;
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
    }
    for k in chunks * 4..n {
        s0 += a[k] * b[k];
    }
    (s0 + s2) + (s1 + s3)
}

/// Solve the symmetric positive-definite system `A x = b` in place using
/// Gaussian elimination with partial pivoting. Used for the normal
/// equations in linear-regression training.
pub fn solve_linear_system(a: &mut Matrix, b: &mut [f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    for col in 0..n {
        // pivot
        let mut pivot = col;
        for r in col + 1..n {
            if a.get(r, col).abs() > a.get(pivot, col).abs() {
                pivot = r;
            }
        }
        if a.get(pivot, col).abs() < 1e-12 {
            return None; // singular
        }
        if pivot != col {
            for c in 0..n {
                let tmp = a.get(col, c);
                a.set(col, c, a.get(pivot, c));
                a.set(pivot, c, tmp);
            }
            b.swap(col, pivot);
        }
        // eliminate
        for r in col + 1..n {
            let factor = a.get(r, col) / a.get(col, col);
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = a.get(r, c) - factor * a.get(col, c);
                a.set(r, c, v);
            }
            b[r] -= factor * b[col];
        }
    }
    // back-substitution
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in r + 1..n {
            acc -= a.get(r, c) * x[c];
        }
        x[r] = acc / a.get(r, r);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn matvec_works() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn unrolled_dot_matches_naive_product() {
        // lengths 0..=17 exercise every unroll tail (0..3 leftover lanes)
        for n in 0..=17usize {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 2.1).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 0.5)).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot(&a, &b);
            assert!(
                (fast - naive).abs() <= 1e-12 * naive.abs().max(1.0),
                "n={n}: {fast} vs {naive}"
            );
        }
    }

    #[test]
    fn stats_skip_nan() {
        let m = Matrix::from_rows(&[vec![1.0], vec![f64::NAN], vec![3.0]]);
        assert_eq!(m.col_mean(0), 2.0);
        assert_eq!(m.col_std(0), 1.0);
    }

    #[test]
    fn column_selection() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn linear_solver_solves() {
        // x + y = 3 ; x - y = 1 -> x=2, y=1
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, -1.0]]);
        let mut b = vec![3.0, 1.0];
        let x = solve_linear_system(&mut a, &mut b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_returns_none() {
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let mut b = vec![1.0, 2.0];
        assert!(solve_linear_system(&mut a, &mut b).is_none());
    }
}
