//! A small dense row-major `f64` matrix.
//!
//! This is deliberately minimal: the characterization pipeline works with
//! matrices of a few dozen rows (kernels) by a few dozen columns
//! (characteristics), so clarity and determinism beat raw speed.

use crate::StatsError;

/// Dense row-major matrix of `f64` values.
///
/// Rows are observations (e.g. kernels), columns are variables
/// (e.g. characteristics).
///
/// # Example
///
/// ```
/// use gwc_stats::Matrix;
///
/// # fn main() -> Result<(), gwc_stats::StatsError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.col_mean(1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows` × `cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] for zero rows and
    /// [`StatsError::ShapeMismatch`] if row lengths differ.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, StatsError> {
        let first = rows.first().ok_or(StatsError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(StatsError::ShapeMismatch {
                    expected: cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, StatsError> {
        if data.len() != rows * cols {
            return Err(StatsError::ShapeMismatch {
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Mean of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds or the matrix has zero rows.
    pub fn col_mean(&self, c: usize) -> f64 {
        assert!(self.rows > 0, "mean of empty column");
        self.col(c).iter().sum::<f64>() / self.rows as f64
    }

    /// Population standard deviation of column `c`. A constant column
    /// has a standard deviation of exactly zero, even when its mean
    /// rounds away from its value.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds or the matrix has zero rows.
    pub fn col_std(&self, c: usize) -> f64 {
        let mean = self.col_mean(c);
        let col = self.col(c);
        if col.iter().all(|&v| v == col[0]) {
            return 0.0;
        }
        let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / self.rows as f64;
        var.sqrt()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != other.rows {
            return Err(StatsError::ShapeMismatch {
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.get(k, c);
                }
            }
        }
        Ok(out)
    }

    /// Keeps only the listed columns, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, keep: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, keep.len());
        for r in 0..self.rows {
            for (j, &c) in keep.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Keeps only the listed rows, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, keep: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(keep.len(), self.cols);
        for (i, &r) in keep.iter().enumerate() {
            for c in 0..self.cols {
                out.set(i, c, self.get(r, c));
            }
        }
        out
    }

    /// Sample covariance matrix of the columns (divides by `n - 1`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] when there are fewer than two rows.
    pub fn covariance(&self) -> Result<Matrix, StatsError> {
        if self.rows < 2 {
            return Err(StatsError::Empty);
        }
        let means: Vec<f64> = (0..self.cols).map(|c| self.col_mean(c)).collect();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += (self.get(r, i) - means[i]) * (self.get(r, j) - means[j]);
                }
                let v = s / (self.rows - 1) as f64;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }
        Ok(cov)
    }

    /// Validates that every entry is finite.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonFinite`] locating the first bad entry.
    pub fn check_finite(&self) -> Result<(), StatsError> {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if !self.get(r, c).is_finite() {
                    return Err(StatsError::NonFinite { row: r, col: c });
                }
            }
        }
        Ok(())
    }
}

/// Incremental row-major matrix assembly: rows stream in chunk by chunk
/// (e.g. one cached block per workload) and land directly in the final
/// flat buffer, so peak memory is one matrix — not a `Vec<Vec<f64>>`
/// staging copy plus the matrix, as [`Matrix::from_rows`] needs.
///
/// # Example
///
/// ```
/// use gwc_stats::MatrixBuilder;
///
/// # fn main() -> Result<(), gwc_stats::StatsError> {
/// let mut b = MatrixBuilder::new(2);
/// b.push_row(&[1.0, 2.0])?;
/// b.push_row(&[3.0, 4.0])?;
/// let m = b.finish()?;
/// assert_eq!(m.shape(), (2, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MatrixBuilder {
    cols: usize,
    data: Vec<f64>,
}

impl MatrixBuilder {
    /// An empty builder for matrices of `cols` columns.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            data: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ShapeMismatch`] if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), StatsError> {
        if row.len() != self.cols {
            return Err(StatsError::ShapeMismatch {
                expected: self.cols,
                found: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Finalizes into a [`Matrix`] without copying the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] when no rows were appended.
    pub fn finish(self) -> Result<Matrix, StatsError> {
        let rows = self.rows();
        if rows == 0 {
            return Err(StatsError::Empty);
        }
        Matrix::from_vec(rows, self.cols, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(
            err,
            StatsError::ShapeMismatch {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), StatsError::Empty);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn col_stats() {
        let m = sample();
        assert_eq!(m.col_mean(0), 2.5);
        assert!((m.col_std(0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matmul_identity() {
        let m = sample();
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn select_cols_and_rows() {
        let m = sample();
        let s = m.select_cols(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 1.0]);
        let r = m.select_rows(&[1]);
        assert_eq!(r.shape(), (1, 3));
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn covariance_of_perfectly_correlated_cols() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let cov = m.covariance().unwrap();
        // var(x) = 1, cov(x, 2x) = 2, var(2x) = 4.
        assert!((cov.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 2.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_needs_two_rows() {
        let m = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(m.covariance().unwrap_err(), StatsError::Empty);
    }

    #[test]
    fn check_finite_detects_nan() {
        let mut m = sample();
        m.set(1, 2, f64::NAN);
        assert_eq!(
            m.check_finite().unwrap_err(),
            StatsError::NonFinite { row: 1, col: 2 }
        );
    }

    #[test]
    fn builder_matches_from_rows() {
        let rows = [vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let mut b = MatrixBuilder::new(3);
        for r in &rows {
            b.push_row(r).unwrap();
        }
        assert_eq!(b.rows(), 2);
        assert_eq!(b.finish().unwrap(), Matrix::from_rows(&rows).unwrap());
    }

    #[test]
    fn builder_rejects_ragged_and_empty() {
        let mut b = MatrixBuilder::new(2);
        assert!(b.push_row(&[1.0]).is_err());
        assert_eq!(
            MatrixBuilder::new(2).finish().unwrap_err(),
            StatsError::Empty
        );
    }

    #[test]
    fn iter_rows_matches_row() {
        let m = sample();
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], m.row(0));
    }
}
