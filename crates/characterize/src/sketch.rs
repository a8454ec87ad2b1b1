//! Bounded-memory streaming tier for the locality observer.
//!
//! The exact [`LocalityObserver`](crate::locality::LocalityObserver)
//! keeps one map entry per distinct 128-byte line for the lifetime of a
//! launch, so its memory grows linearly with the address footprint. The
//! sketch tier replaces that state with two fixed-size summaries chosen
//! so that everything the profile schema actually consumes is either
//! *exact* or carries a declared error bound (see [`bounds`]):
//!
//! 1. **Bounded recency window** of the `W = REUSE_THRESHOLDS[2] + 1`
//!    most recently touched distinct lines: the exact observer's reuse
//!    stack with LRU eviction. A touch that hits the window has a true
//!    LRU stack distance of at most `REUSE_THRESHOLDS[2]`, so the three
//!    bounded histogram buckets the schema reports (`reuse_cdf(0..=2)`)
//!    are **exact** — the window is precisely the region the thresholds
//!    can see. A touch that misses the window is either a cold touch or
//!    a reuse at distance `> REUSE_THRESHOLDS[2]`; only that *split* is
//!    estimated.
//! 2. **KMV (bottom-k) distinct sample** over line ids: the `K`
//!    smallest `splitmix64` images of the lines seen, each carrying the
//!    line's first-toucher warp and sharing flags. It yields the
//!    footprint estimate used to split window misses into cold vs. far
//!    reuse, and an unbiased sample for the inter-warp/inter-block
//!    sharing fractions. `splitmix64` is a bijection on `u64`, so
//!    distinct lines can never collide and membership tests are exact.
//!
//! When a launch's footprint fits both summaries (`<= K` distinct lines
//! and `<= W` window slots) every derived characteristic is
//! bit-identical to the exact tier. Shard merges reproduce the serial
//! sketch bit for bit (the exact observer's stack merge, truncated to
//! the window), so the sketch tier keeps the any-thread-count
//! determinism guarantee.
//!
//! A tiny space-saving top-K structure rides along as a *diagnostic*
//! (hottest lines by touch count); it feeds no profile value.

use std::collections::BTreeMap;

use gwc_simt::instr::Space;
use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::coalescing::warp_lines;
use crate::locality::{sharing_frac, Sharing};
use crate::reuse::{Payload, ReuseCounts, ReuseStack, REUSE_THRESHOLDS};

/// Which implementation backs the heavy observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObserverTier {
    /// Full per-line state; the bit-identical oracle (default).
    #[default]
    Exact,
    /// Bounded-memory sketches with declared error bounds.
    Sketch,
}

impl ObserverTier {
    pub fn name(self) -> &'static str {
        match self {
            ObserverTier::Exact => "exact",
            ObserverTier::Sketch => "sketch",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(ObserverTier::Exact),
            "sketch" => Some(ObserverTier::Sketch),
            _ => None,
        }
    }
}

/// Profiles observed under the sketch tier are *different artifacts*
/// from exact ones (estimated characteristics); this salt is XORed into
/// the workload fingerprint so the two tiers can never alias in the
/// profile or matrix caches.
pub const CACHE_SALT: u64 = 0x9d3c_5f21_7a86_44b1;

/// Recency-window depth in distinct lines. One more than the largest
/// reuse-distance threshold: every in-window reuse lands in a bounded
/// histogram bucket, every eviction corresponds exactly to the exact
/// tier's overflow bucket.
pub const WINDOW_LINES: usize = REUSE_THRESHOLDS[2] as usize + 1;

/// KMV sample size. Relative standard error of the footprint estimate
/// is ~`1/sqrt(K - 1)` ≈ 3.1%.
pub const KMV_K: usize = 1024;

/// Number of heavy-hitter lines the diagnostic space-saving sketch
/// tracks.
pub const HOT_LINES: usize = 16;

/// Declared error bounds for sketch-derived characteristics, asserted
/// by the exact-vs-sketch cross-check suite. All bounds are conditional
/// only on the KMV estimate (the reuse histogram buckets are exact):
/// at `K = 1024` the footprint estimator's relative standard error is
/// ~3.1%, and the bounds below sit at roughly 5 standard errors.
pub mod bounds {
    /// Relative error of `footprint_lines` (exact below `KMV_K`).
    pub const FOOTPRINT_REL: f64 = 0.2;
    /// Absolute error of `cold_frac`.
    pub const COLD_FRAC_ABS: f64 = 0.05;
    /// Absolute error of each `reuse_cdf` bucket (numerators exact;
    /// only the far-reuse share of the denominator is estimated).
    pub const REUSE_CDF_ABS: f64 = 0.08;
    /// Absolute error of the inter-warp / inter-block sharing
    /// fractions (binomial error of a >=1024-line uniform sample).
    pub const SHARING_ABS: f64 = 0.10;
}

/// `splitmix64` finalizer: a bijective mixer on `u64`, so distinct line
/// ids map to distinct, uniformly spread hash values.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bottom-k distinct sample keyed by `splitmix64(line)`, with exact
/// sharing flags for every surviving entry. The acceptance threshold
/// (the k-th smallest hash) only ever decreases, so a line rejected at
/// its first touch stays rejected and a surviving entry was inserted at
/// the line's true first touch — its flags are exact.
#[derive(Debug, Default)]
struct KmvSketch {
    entries: BTreeMap<u64, Sharing>,
}

impl KmvSketch {
    fn observe(&mut self, hash: u64, warp: (u32, u32)) {
        if let Some(e) = self.entries.get_mut(&hash) {
            e.retouch(warp);
            return;
        }
        let full = self.entries.len() >= KMV_K;
        if full && hash > *self.entries.last_key_value().expect("sketch is full").0 {
            return;
        }
        self.entries.insert(hash, Sharing::first(warp));
        if full {
            self.entries.pop_last();
        }
    }

    /// Estimated number of distinct lines: exact while the sample is
    /// not full, the standard `(K - 1) / h_(K)` estimator afterwards.
    fn footprint_estimate(&self) -> f64 {
        if self.entries.len() < KMV_K {
            return self.entries.len() as f64;
        }
        let (&kth, _) = self.entries.last_key_value().expect("sketch is full");
        (KMV_K as f64 - 1.0) * 18_446_744_073_709_551_616.0 / (kth as f64 + 1.0)
    }

    /// Union merge: identical to observing both streams serially. The
    /// k smallest hashes of the union are present in at least one side
    /// (each side keeps its own k smallest), and flag union over the
    /// two sides' exact flags is the serial flag set.
    fn merge(&mut self, later: KmvSketch) {
        for (hash, b) in later.entries {
            self.entries
                .entry(hash)
                .and_modify(|a| a.absorb(b))
                .or_insert(b);
        }
        while self.entries.len() > KMV_K {
            self.entries.pop_last();
        }
    }

    fn bytes_in_use(&self) -> usize {
        // BTreeMap node overhead is amortized ~2/3 occupancy; count the
        // payload plus a conservative per-entry overhead.
        self.entries.len() * (std::mem::size_of::<(u64, Sharing)>() + 16)
    }
}

/// Space-saving heavy hitters over line touches — a diagnostic for
/// "which lines are hottest", not a profile input. Count is an
/// over-estimate by at most `error`.
#[derive(Debug, Default)]
pub struct SpaceSaving {
    entries: Vec<(u32, u64, u64)>, // (line, count, error)
}

impl SpaceSaving {
    pub fn observe(&mut self, line: u32) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
            e.1 += 1;
            return;
        }
        if self.entries.len() < HOT_LINES {
            self.entries.push((line, 1, 0));
            return;
        }
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|e| (e.1, e.0))
            .expect("table is full");
        *min = (line, min.1 + 1, min.1);
    }

    /// Hottest lines as `(line, count_over_estimate, max_error)`,
    /// sorted by descending count with line id as the tie-break.
    pub fn hot_lines(&self) -> Vec<(u32, u64, u64)> {
        let mut out = self.entries.clone();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Approximate merge: sums counts/errors for common lines, keeps
    /// the top entries. Diagnostic-grade — the profile never reads it.
    pub fn merge(&mut self, later: &SpaceSaving) {
        for &(line, count, error) in &later.entries {
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
                e.1 += count;
                e.2 += error;
            } else {
                self.entries.push((line, count, error));
            }
        }
        self.entries
            .sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.entries.truncate(HOT_LINES);
    }
}

/// Bounded-memory replacement for `LocalityObserver`: fixed-size
/// recency window + KMV distinct sample + space-saving diagnostic.
/// Peak memory is O(`WINDOW_LINES` + `KMV_K`), independent of the
/// address footprint.
#[derive(Debug)]
pub struct SketchLocalityObserver {
    window: ReuseStack<()>,
    /// In-window reuses are exact: an in-window distance never exceeds
    /// `REUSE_THRESHOLDS[2]`, so the overflow bucket stays empty.
    /// `absent` counts window misses: cold touches plus reuses at
    /// distance `> REUSE_THRESHOLDS[2]`, split via the KMV estimate.
    counts: ReuseCounts,
    kmv: KmvSketch,
    hot: SpaceSaving,
}

impl Default for SketchLocalityObserver {
    fn default() -> Self {
        Self {
            window: ReuseStack::windowed(WINDOW_LINES),
            counts: ReuseCounts::default(),
            kmv: KmvSketch::default(),
            hot: SpaceSaving::default(),
        }
    }
}

impl SketchLocalityObserver {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn touches(&self) -> u64 {
        self.counts.touches
    }

    /// Estimated distinct 128-byte lines touched (exact below
    /// [`KMV_K`]).
    pub fn footprint_lines(&self) -> u64 {
        self.kmv.footprint_estimate().round() as u64
    }

    fn cold_estimate(&self) -> f64 {
        // Every cold touch is a window miss, and the number of cold
        // touches is exactly the distinct-line count the KMV estimates.
        self.kmv.footprint_estimate().min(self.counts.absent as f64)
    }

    /// Fraction of touches that were first-touch (cold), estimated.
    pub fn cold_frac(&self) -> f64 {
        self.counts.per_touch(self.cold_estimate())
    }

    /// Fraction of reuses with stack distance at most
    /// `REUSE_THRESHOLDS[bucket]`; numerators exact, denominator's
    /// far-reuse share (bit-exact zero when the footprint fits the
    /// summaries) estimated.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub fn reuse_cdf(&self, bucket: usize) -> f64 {
        let far = (self.counts.absent as f64 - self.cold_estimate()).max(0.0);
        self.counts.reuse_cdf(bucket, far)
    }

    /// Fraction of sampled lines touched by at least two warps.
    pub fn inter_warp_sharing(&self) -> f64 {
        sharing_frac(self.kmv.entries.values(), |e| e.multi_warp)
    }

    /// Fraction of sampled lines touched by at least two blocks.
    pub fn inter_block_sharing(&self) -> f64 {
        sharing_frac(self.kmv.entries.values(), |e| e.multi_block)
    }

    /// Hottest lines diagnostic (space-saving over-estimates).
    pub fn hot_lines(&self) -> Vec<(u32, u64, u64)> {
        self.hot.hot_lines()
    }

    /// Approximate heap bytes held. Bounded by construction:
    /// O(`WINDOW_LINES` + `KMV_K`) whatever the footprint.
    pub fn bytes_in_use(&self) -> u64 {
        self.window.bytes_in_use() + self.kmv.bytes_in_use() as u64
    }

    pub(crate) fn touch(&mut self, line: u32, warp: (u32, u32)) {
        self.kmv.observe(splitmix64(line as u64), warp);
        self.hot.observe(line);
        self.counts.record(self.window.touch(line, ()));
    }
}

impl crate::merge::MergeableObserver for SketchLocalityObserver {
    /// Exact stack merge of a later shard, restricted to the window (see
    /// `ReuseStack::merge`): the merged sketch is bit-identical to
    /// observing both substreams serially, so sketch-tier profiles stay
    /// deterministic at any thread count. A cross-shard reuse resolved
    /// inside the window turns one of `later`'s misses into a hit.
    fn merge(&mut self, later: Self) {
        let resolved = self.window.merge(later.window);
        self.counts.merge(later.counts, resolved);
        self.kmv.merge(later.kmv);
        self.hot.merge(&later.hot);
    }
}

impl TraceObserver for SketchLocalityObserver {
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        if e.space != Space::Global {
            return;
        }
        // Identical lane handling to the exact observer.
        let (lines, n) = warp_lines(e.active_addrs());
        for &line in &lines[..n] {
            self.touch(line, (e.block, e.warp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::LocalityObserver;
    use crate::merge::MergeableObserver;
    use crate::reuse::tests::recency;

    fn xorshift_stream(len: usize, lines: u32) -> Vec<(u32, (u32, u32))> {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = (x >> 8) as u32 % lines;
                let block = (x >> 16) as u32 % 4;
                let warp = (x >> 24) as u32 % 2;
                (line, (block, warp))
            })
            .collect()
    }

    fn assert_bits_equal_exact(s: &SketchLocalityObserver, e: &LocalityObserver) {
        assert_eq!(s.touches(), e.touches());
        assert_eq!(s.footprint_lines(), e.footprint_lines());
        assert_eq!(s.cold_frac().to_bits(), e.cold_frac().to_bits());
        for b in 0..REUSE_THRESHOLDS.len() {
            assert_eq!(s.reuse_cdf(b).to_bits(), e.reuse_cdf(b).to_bits());
        }
        assert_eq!(
            s.inter_warp_sharing().to_bits(),
            e.inter_warp_sharing().to_bits()
        );
        assert_eq!(
            s.inter_block_sharing().to_bits(),
            e.inter_block_sharing().to_bits()
        );
    }

    /// Below both sketch capacities the sketch IS the exact observer,
    /// bit for bit, on every derived characteristic.
    #[test]
    fn small_footprint_is_bit_identical_to_exact() {
        let stream = xorshift_stream(5000, 700);
        let mut sketch = SketchLocalityObserver::new();
        let mut exact = LocalityObserver::new();
        for &(line, warp) in &stream {
            sketch.touch(line, warp);
            exact.touch(line, warp);
        }
        assert_bits_equal_exact(&sketch, &exact);
    }

    /// Beyond the window: in-window buckets stay exact, the footprint
    /// stays exact below KMV_K... here we push past both and check the
    /// declared bounds instead.
    #[test]
    fn large_footprint_within_declared_bounds() {
        // Footprint 40_000 lines >> KMV_K and >> WINDOW_LINES, with a
        // mix of near reuse (stride-1 revisits) and far scans.
        let mut sketch = SketchLocalityObserver::new();
        let mut exact = LocalityObserver::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x >> 8) as u32 % 40_000;
            let warp = ((x >> 16) as u32 % 4, (x >> 24) as u32 % 2);
            sketch.touch(line, warp);
            exact.touch(line, warp);
        }
        let fp_err = (sketch.footprint_lines() as f64 - exact.footprint_lines() as f64).abs()
            / exact.footprint_lines() as f64;
        assert!(fp_err <= bounds::FOOTPRINT_REL, "footprint err {fp_err}");
        assert!((sketch.cold_frac() - exact.cold_frac()).abs() <= bounds::COLD_FRAC_ABS);
        for b in 0..REUSE_THRESHOLDS.len() {
            assert!((sketch.reuse_cdf(b) - exact.reuse_cdf(b)).abs() <= bounds::REUSE_CDF_ABS);
        }
        assert!(
            (sketch.inter_warp_sharing() - exact.inter_warp_sharing()).abs() <= bounds::SHARING_ABS
        );
        assert!(
            (sketch.inter_block_sharing() - exact.inter_block_sharing()).abs()
                <= bounds::SHARING_ABS
        );
    }

    /// Memory stays flat while the exact observer's grows with the
    /// footprint.
    #[test]
    fn sketch_memory_is_flat_in_footprint() {
        let mut small = SketchLocalityObserver::new();
        for line in 0..1_000u32 {
            small.touch(line, (0, 0));
        }
        let mut big = SketchLocalityObserver::new();
        for line in 0..400_000u32 {
            big.touch(line, (0, 0));
        }
        // Same allocation class: within 2x of each other.
        assert!(big.bytes_in_use() < small.bytes_in_use() * 2);

        let mut exact = LocalityObserver::new();
        for line in 0..400_000u32 {
            exact.touch(line, (0, 0));
        }
        assert!(exact.bytes_in_use() > big.bytes_in_use() * 5);
    }

    /// Any split of any stream, merged, equals serial sketching — the
    /// same determinism contract the exact observer holds, including
    /// streams that overflow the window and the KMV sample.
    #[test]
    fn merge_any_split_matches_serial() {
        for (len, lines) in [(400, 48), (20_000, 9_000)] {
            let stream = xorshift_stream(len, lines);
            let mut serial = SketchLocalityObserver::new();
            for &(line, warp) in &stream {
                serial.touch(line, warp);
            }
            for split in [0, 1, 17, len / 2, len - 1, len] {
                let mut first = SketchLocalityObserver::new();
                let mut second = SketchLocalityObserver::new();
                for &(line, warp) in &stream[..split] {
                    first.touch(line, warp);
                }
                for &(line, warp) in &stream[split..] {
                    second.touch(line, warp);
                }
                first.merge(second);
                assert_eq!(first.counts, serial.counts, "split {split}");
                // Time stamps are a dense rebuild after a merge but sparse
                // serially; only the recency *order* is the invariant.
                assert_eq!(
                    recency(&first.window),
                    recency(&serial.window),
                    "window order, split {split}"
                );
                assert_eq!(first.kmv.entries, serial.kmv.entries, "kmv, split {split}");
                // Merged observer keeps behaving like the serial one.
                for &(line, warp) in stream.iter().rev().take(200) {
                    serial.touch(line, warp);
                    first.touch(line, warp);
                }
                assert_eq!(first.counts, serial.counts, "post-merge split {split}");
                // Undo the extra touches for the next split round.
                serial = SketchLocalityObserver::new();
                for &(line, warp) in &stream {
                    serial.touch(line, warp);
                }
            }
        }
    }

    /// Three-way merge in shard order equals serial, as the runtime
    /// reduces shards left to right.
    #[test]
    fn merge_three_shards_matches_serial() {
        let stream = xorshift_stream(15_000, 6_000);
        let mut serial = SketchLocalityObserver::new();
        for &(line, warp) in &stream {
            serial.touch(line, warp);
        }
        let mut merged = SketchLocalityObserver::new();
        for chunk in stream.chunks(5_000) {
            let mut shard = SketchLocalityObserver::new();
            for &(line, warp) in chunk {
                shard.touch(line, warp);
            }
            merged.merge(shard);
        }
        assert_eq!(merged.counts, serial.counts);
        assert_eq!(
            merged.footprint_lines().to_le_bytes(),
            serial.footprint_lines().to_le_bytes()
        );
        assert_eq!(
            merged.inter_warp_sharing().to_bits(),
            serial.inter_warp_sharing().to_bits()
        );
    }

    #[test]
    fn eviction_matches_exact_overflow_bucket() {
        // Touch W+1 distinct lines, then the first again: the exact
        // observer puts the reuse in the overflow bucket; the sketch
        // counts a miss (and no in-window reuse).
        let mut sketch = SketchLocalityObserver::new();
        let mut exact = LocalityObserver::new();
        for line in 0..=(WINDOW_LINES as u32) {
            sketch.touch(line, (0, 0));
            exact.touch(line, (0, 0));
        }
        sketch.touch(0, (0, 0));
        exact.touch(0, (0, 0));
        assert_eq!(sketch.counts.hist.iter().sum::<u64>(), 0);
        assert_eq!(sketch.counts.absent, WINDOW_LINES as u64 + 2);
        // Exact: one reuse, in the overflow bucket -> cdf(2) = 0.
        assert_eq!(exact.reuse_cdf(2), 0.0);
        assert_eq!(sketch.reuse_cdf(2), 0.0);
    }

    #[test]
    fn splitmix64_is_injective_on_lines() {
        // Bijectivity spot check over a contiguous id range.
        let mut seen = std::collections::BTreeSet::new();
        for line in 0..100_000u64 {
            assert!(seen.insert(splitmix64(line)));
        }
    }

    #[test]
    fn space_saving_finds_heavy_hitter() {
        let mut ss = SpaceSaving::default();
        for i in 0..10_000u32 {
            ss.observe(i % 500); // background noise
            if i % 2 == 0 {
                ss.observe(7); // heavy hitter
            }
        }
        let hot = ss.hot_lines();
        assert_eq!(hot[0].0, 7);
        assert!(hot[0].1 >= 5_000);
    }

    #[test]
    fn tier_parse_round_trips() {
        for tier in [ObserverTier::Exact, ObserverTier::Sketch] {
            assert_eq!(ObserverTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(ObserverTier::parse("bogus"), None);
        assert_eq!(ObserverTier::default(), ObserverTier::Exact);
    }
}
