//! Branch-divergence view of the engine's divergence counters.

use gwc_simt::trace::{LaunchStats, TraceObserver};
use gwc_simt::WARP_SIZE;

/// Branch-divergence and SIMD-activity metrics.
///
/// The engine counts branches, divergent branches, diverged issues and
/// active lanes bucketed by live-lane count as it runs
/// ([`LaunchStats`]); this observer only folds the stats of every launch
/// it sees. The counters are integers, so shard and launch sums are
/// exact: the mean activity is only converted to floating point at read
/// time, in a fixed order.
#[derive(Debug, Clone, Default)]
pub struct DivergenceObserver {
    stats: LaunchStats,
}

impl DivergenceObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The divergence metrics of already-accumulated launch statistics.
    pub fn from_stats(stats: LaunchStats) -> Self {
        Self { stats }
    }

    /// Conditional branches per warp instruction.
    pub fn branch_density(&self) -> f64 {
        let s = &self.stats;
        if s.warp_instrs == 0 {
            0.0
        } else {
            s.branches as f64 / s.warp_instrs as f64
        }
    }

    /// Fraction of dynamic branches that split their warp.
    pub fn divergent_branch_frac(&self) -> f64 {
        let s = &self.stats;
        if s.branches == 0 {
            0.0
        } else {
            s.divergent_branches as f64 / s.branches as f64
        }
    }

    /// Mean `active / live` lane ratio over warp instructions
    /// (1.0 = never diverged).
    pub fn simd_activity(&self) -> f64 {
        let s = &self.stats;
        if s.warp_instrs == 0 {
            return 0.0;
        }
        let activity_sum: f64 = (1..=WARP_SIZE)
            .map(|m| s.active_by_live[m] as f64 / m as f64)
            .sum();
        activity_sum / s.warp_instrs as f64
    }

    /// Fraction of warp instructions issued with a diverged mask.
    pub fn diverged_instr_frac(&self) -> f64 {
        let s = &self.stats;
        if s.warp_instrs == 0 {
            0.0
        } else {
            s.diverged_warp_instrs as f64 / s.warp_instrs as f64
        }
    }
}

impl TraceObserver for DivergenceObserver {
    fn on_launch_end(&mut self, stats: &LaunchStats) {
        self.stats.add(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats of `n` warp instructions issued with `active` of `live`
    /// lanes, plus `branches` of which `divergent` split the warp.
    fn stats(n: u64, active: u32, live: u32, branches: u64, divergent: u64) -> LaunchStats {
        let mut s = LaunchStats {
            warp_instrs: n,
            branches,
            divergent_branches: divergent,
            ..LaunchStats::default()
        };
        s.active_by_live[live as usize] = n * active as u64;
        s.diverged_warp_instrs = if active != live { n } else { 0 };
        s
    }

    #[test]
    fn fully_converged_kernel() {
        let mut d = DivergenceObserver::new();
        d.on_launch_end(&stats(10, 32, 32, 1, 0));
        assert_eq!(d.simd_activity(), 1.0);
        assert_eq!(d.divergent_branch_frac(), 0.0);
        assert_eq!(d.diverged_instr_frac(), 0.0);
        assert!((d.branch_density() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn half_diverged_activity() {
        let mut d = DivergenceObserver::new();
        d.on_launch_end(&stats(1, 32, 32, 0, 0));
        d.on_launch_end(&stats(1, 16, 32, 0, 0));
        assert!((d.simd_activity() - 0.75).abs() < 1e-12);
        assert!((d.diverged_instr_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_warp_is_not_divergence() {
        // A 16-thread block: 16 live lanes, all of them active.
        let d = DivergenceObserver::from_stats(stats(1, 16, 16, 0, 0));
        assert_eq!(d.simd_activity(), 1.0);
        assert_eq!(d.diverged_instr_frac(), 0.0);
    }

    #[test]
    fn divergent_branch_counted() {
        let d = DivergenceObserver::from_stats(stats(2, 4, 4, 2, 1));
        assert!((d.divergent_branch_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_observer_is_zero() {
        let d = DivergenceObserver::new();
        assert_eq!(d.simd_activity(), 0.0);
        assert_eq!(d.branch_density(), 0.0);
    }
}
