//! Instruction-mix view of the engine's per-class lane counters.

use gwc_simt::instr::InstrClass;
use gwc_simt::trace::{LaunchStats, TraceObserver};

/// Thread-level instruction counts per [`InstrClass`].
///
/// The engine counts active lanes per class as it retires each warp
/// instruction ([`LaunchStats::lanes_by_class`]); this observer only
/// folds the stats of every launch it sees, so it costs nothing per
/// event.
#[derive(Debug, Clone, Default)]
pub struct MixObserver {
    stats: LaunchStats,
}

impl MixObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mix of already-accumulated launch statistics.
    pub fn from_stats(stats: LaunchStats) -> Self {
        Self { stats }
    }

    /// Thread-level instruction count for `class`.
    pub fn count(&self, class: InstrClass) -> u64 {
        self.stats.lanes_by_class[class as usize]
    }

    /// Total thread-level instructions observed.
    pub fn total(&self) -> u64 {
        self.stats.thread_instrs
    }

    /// Fraction of thread-level instructions in `class` (0 when empty).
    pub fn fraction(&self, class: InstrClass) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(class) as f64 / self.total() as f64
        }
    }
}

impl TraceObserver for MixObserver {
    fn on_launch_end(&mut self, stats: &LaunchStats) {
        self.stats.add(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(lanes: &[(InstrClass, u64)]) -> LaunchStats {
        let mut s = LaunchStats::default();
        for &(class, n) in lanes {
            s.lanes_by_class[class as usize] += n;
            s.thread_instrs += n;
        }
        s
    }

    #[test]
    fn counts_active_lanes() {
        let mut m = MixObserver::new();
        m.on_launch_end(&stats(&[(InstrClass::IntAlu, 4)]));
        m.on_launch_end(&stats(&[(InstrClass::FpAlu, 1)]));
        assert_eq!(m.count(InstrClass::IntAlu), 4);
        assert_eq!(m.count(InstrClass::FpAlu), 1);
        assert_eq!(m.total(), 5);
        assert!((m.fraction(InstrClass::IntAlu) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let m = MixObserver::new();
        assert_eq!(m.fraction(InstrClass::Sfu), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let lanes: Vec<(InstrClass, u64)> = InstrClass::ALL
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u64 + 1))
            .collect();
        let m = MixObserver::from_stats(stats(&lanes));
        let sum: f64 = InstrClass::ALL.iter().map(|&c| m.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
