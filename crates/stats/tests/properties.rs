//! Seeded property tests of the statistics toolkit's invariants.
//!
//! Every property runs over [`CASES`] inputs drawn from a self-contained
//! splitmix64 generator, so the suite needs no external crates and runs
//! offline. Generated matrices include constant columns (about one
//! column in four), the degenerate input that normalization and PCA
//! have to survive. A failure message names the case seed.

use gwc_stats::distance::{euclidean, manhattan, sq_euclidean};
use gwc_stats::hclust::{hierarchical, Linkage};
use gwc_stats::kmeans::kmeans;
use gwc_stats::normalize::zscore;
use gwc_stats::pca::Pca;
use gwc_stats::Matrix;

const CASES: u64 = 256;

/// splitmix64: a self-contained generator so this test needs no deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.f64(lo, hi)).collect()
    }
}

/// A matrix of 2..=`max_rows` rows and 1..=`max_cols` columns with
/// values in [-100, 100); each column is constant with probability 1/4.
fn matrix(rng: &mut Rng, max_rows: usize, max_cols: usize) -> Matrix {
    let rows = rng.range(2, max_rows);
    let cols = rng.range(1, max_cols);
    let columns: Vec<Vec<f64>> = (0..cols)
        .map(|_| {
            if rng.range(0, 3) == 0 {
                vec![rng.f64(-100.0, 100.0); rows]
            } else {
                rng.vec(rows, -100.0, 100.0)
            }
        })
        .collect();
    let data = (0..rows)
        .flat_map(|r| columns.iter().map(move |col| col[r]))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized")
}

/// Runs `property` on [`CASES`] generators, each seeded from `salt` and
/// the case index.
fn check(salt: u64, mut property: impl FnMut(u64, &mut Rng)) {
    for case in 0..CASES {
        let seed = salt.wrapping_mul(0x1_0000_0001).wrapping_add(case);
        property(seed, &mut Rng(seed));
    }
}

#[test]
fn zscore_columns_have_zero_mean() {
    check(1, |seed, rng| {
        let (z, _) = zscore(&matrix(rng, 12, 6));
        for c in 0..z.cols() {
            let mean = z.col_mean(c);
            assert!(mean.abs() < 1e-9, "seed {seed} col {c}: mean {mean}");
        }
    });
}

#[test]
fn zscore_columns_have_unit_or_zero_std() {
    check(2, |seed, rng| {
        let (z, _) = zscore(&matrix(rng, 12, 6));
        for c in 0..z.cols() {
            let s = z.col_std(c);
            assert!(
                (s - 1.0).abs() < 1e-9 || s.abs() < 1e-9,
                "seed {seed} col {c}: std {s}"
            );
        }
    });
}

#[test]
fn pca_full_rank_preserves_pairwise_distances() {
    check(3, |seed, rng| {
        let m = matrix(rng, 10, 5);
        let pca = Pca::fit(&m).expect("fits");
        let t = pca.transform(&m, m.cols()).expect("transforms");
        for a in 0..m.rows() {
            for b in (a + 1)..m.rows() {
                let d0 = euclidean(m.row(a), m.row(b));
                let d1 = euclidean(t.row(a), t.row(b));
                assert!(
                    (d0 - d1).abs() < 1e-6 * (1.0 + d0),
                    "seed {seed} rows {a},{b}: {d0} vs {d1}"
                );
            }
        }
    });
}

#[test]
fn pca_variance_explained_is_monotone_cdf() {
    check(4, |seed, rng| {
        let m = matrix(rng, 10, 6);
        let pca = Pca::fit(&m).expect("fits");
        let mut prev = 0.0;
        for k in 1..=m.cols() {
            let v = pca.variance_explained(k);
            assert!(v >= prev - 1e-12, "seed {seed} k {k}: {v} < {prev}");
            assert!(v <= 1.0 + 1e-9, "seed {seed} k {k}: {v} > 1");
            prev = v;
        }
        let all = pca.variance_explained(m.cols());
        assert!((all - 1.0).abs() < 1e-9, "seed {seed}: total {all}");
    });
}

#[test]
fn hclust_cut_produces_exactly_k_clusters() {
    check(5, |seed, rng| {
        let m = matrix(rng, 10, 4);
        let linkage = [Linkage::Single, Linkage::Complete, Linkage::Average][rng.range(0, 2)];
        let d = hierarchical(&m, linkage).expect("fits");
        for k in 1..=m.rows() {
            let labels = d.cut(k).expect("cuts");
            let mut distinct = labels.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), k, "seed {seed} {linkage:?} k {k}");
            assert!(labels.iter().all(|&l| l < k), "seed {seed} k {k}");
        }
    });
}

#[test]
fn kmeans_labels_valid_and_inertia_nonnegative() {
    check(6, |seed, rng| {
        let m = matrix(rng, 12, 4);
        let k = rng.range(1, 4.min(m.rows()));
        let km = kmeans(&m, k, rng.next() % 1000).expect("fits");
        assert_eq!(km.labels.len(), m.rows(), "seed {seed}");
        assert!(km.labels.iter().all(|&l| l < k), "seed {seed}");
        assert!(km.inertia >= 0.0, "seed {seed}: inertia {}", km.inertia);
        // After convergence the assignment is greedy: every observation
        // is at least as close to its own centroid as to any other.
        for (i, &l) in km.labels.iter().enumerate() {
            let own = sq_euclidean(m.row(i), km.centroids.row(l));
            for c in 0..k {
                let other = sq_euclidean(m.row(i), km.centroids.row(c));
                assert!(own <= other + 1e-9, "seed {seed} row {i}: centroid {c}");
            }
        }
    });
}

#[test]
fn distances_satisfy_metric_axioms() {
    check(7, |seed, rng| {
        let a = rng.vec(4, -50.0, 50.0);
        let b = rng.vec(4, -50.0, 50.0);
        let c = rng.vec(4, -50.0, 50.0);
        assert!(euclidean(&a, &b) >= 0.0, "seed {seed}");
        assert!(
            (euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-12,
            "seed {seed}: symmetry"
        );
        assert!(
            euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9,
            "seed {seed}: triangle inequality"
        );
        assert!(
            manhattan(&a, &b) + 1e-9 >= euclidean(&a, &b),
            "seed {seed}: manhattan bound"
        );
    });
}
