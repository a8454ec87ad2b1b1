//! Execution-cost profiles: where the retired µops of a launch went.
//!
//! An [`ExecProfile`] counts, per pc, how many warp-level µops retired
//! and how many lane-slots were active when they did. Both engines bump
//! it with one flat array add per retired µop (in the shared step
//! prologue, `LaunchCtx::retire` in [`crate::exec`]), so collection is
//! cheap enough to leave on whenever a recorder is installed — and
//! exactly one branch when it is not. Per-class totals are folds of the
//! per-pc table by each pc's decoded class (the launch's instruction
//! mix itself is counted in [`crate::trace::LaunchStats`]).
//!
//! Profiles are plain counter arrays, so shard profiles merge like
//! observers do: [`ExecProfile::merge`] is an elementwise add, hence
//! associative, commutative, and invariant under the block sharding of
//! the parallel characterization runtime.

/// How many hotspot pcs a launch reports to the recorder.
pub const HOTSPOT_TOP_N: usize = 8;

/// Retired-µop counters at one attribution site (a pc, or a class of
/// pcs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UopCounts {
    /// Warp-level µops retired (one per lock-step issue).
    pub warp_uops: u64,
    /// Active lane-slots summed over those µops.
    pub lane_uops: u64,
}

impl UopCounts {
    #[inline]
    pub(crate) fn add(&mut self, other: UopCounts) {
        self.warp_uops += other.warp_uops;
        self.lane_uops += other.lane_uops;
    }
}

/// Per-pc retired-µop/active-lane counters for one launch (or one
/// block-range shard of a launch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecProfile {
    pcs: Vec<UopCounts>,
}

impl ExecProfile {
    /// An empty profile over a kernel with `n_pcs` decoded µops.
    pub fn new(n_pcs: usize) -> Self {
        Self {
            pcs: vec![UopCounts::default(); n_pcs],
        }
    }

    /// Records one retired warp-level µop at `pc` with active mask
    /// `mask`. One array bump; called from the engines' step prologue.
    #[inline]
    pub(crate) fn bump(&mut self, pc: usize, mask: u32) {
        let p = &mut self.pcs[pc];
        p.warp_uops += 1;
        p.lane_uops += mask.count_ones() as u64;
    }

    /// Adds `other` into `self`, elementwise. Associative and
    /// commutative, so shard profiles may merge in any grouping.
    ///
    /// # Panics
    ///
    /// Panics if the profiles cover kernels of different lengths.
    pub fn merge(&mut self, other: &ExecProfile) {
        assert_eq!(
            self.pcs.len(),
            other.pcs.len(),
            "merging exec profiles of different kernels"
        );
        for (p, o) in self.pcs.iter_mut().zip(&other.pcs) {
            p.add(*o);
        }
    }

    /// Per-pc counters, indexed by decoded µop index.
    pub fn pcs(&self) -> &[UopCounts] {
        &self.pcs
    }

    /// The `n` hottest pcs by active lane-slots (ties broken by lower
    /// pc), hottest first. Zero-count pcs are never reported.
    pub fn top_pcs(&self, n: usize) -> Vec<(usize, UopCounts)> {
        let mut hot: Vec<(usize, UopCounts)> = self
            .pcs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.warp_uops > 0)
            .map(|(pc, c)| (pc, *c))
            .collect();
        hot.sort_by(|a, b| b.1.lane_uops.cmp(&a.1.lane_uops).then(a.0.cmp(&b.0)));
        hot.truncate(n);
        hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, n_pcs: usize) -> ExecProfile {
        let mut p = ExecProfile::new(n_pcs);
        let mut x = seed;
        for pc in 0..n_pcs {
            // Deterministic pseudo-random counts per pc.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for _ in 0..(x % 5) {
                p.bump(pc, (x as u32) | 1);
            }
        }
        p
    }

    #[test]
    fn bump_updates_the_pc() {
        let mut p = ExecProfile::new(4);
        p.bump(2, 0b1011);
        p.bump(2, 0b0001);
        assert_eq!(
            p.pcs()[2],
            UopCounts {
                warp_uops: 2,
                lane_uops: 4
            }
        );
        assert_eq!(p.top_pcs(4).len(), 1, "only pc 2 retired");
    }

    #[test]
    fn merge_is_commutative() {
        let a = sample(1, 16);
        let b = sample(2, 16);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let a = sample(3, 16);
        let b = sample(4, 16);
        let c = sample(5, 16);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    #[should_panic(expected = "different kernels")]
    fn merge_rejects_mismatched_lengths() {
        let mut a = ExecProfile::new(4);
        a.merge(&ExecProfile::new(5));
    }

    #[test]
    fn top_pcs_ranks_by_lanes_then_pc() {
        let mut p = ExecProfile::new(5);
        p.bump(0, 0b1); // 1 lane
        p.bump(3, 0b1111); // 4 lanes
        p.bump(1, 0b11); // 2 lanes
        p.bump(4, 0b11); // 2 lanes (tie with pc 1)
        let top = p.top_pcs(3);
        let pcs: Vec<usize> = top.iter().map(|(pc, _)| *pc).collect();
        assert_eq!(pcs, vec![3, 1, 4]);
        assert_eq!(p.top_pcs(10).len(), 4, "zero-count pcs excluded");
    }
}
