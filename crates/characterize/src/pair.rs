//! Pairwise-interference characterization of co-scheduled kernels.
//!
//! When two kernels co-reside (see `gwc_simt::sched` and
//! `Device::launch_pair`), each kernel's own execution — its retired
//! instructions, memory values, and per-kernel event stream — is
//! bit-identical to its solo launch: every dispatch policy keeps a
//! kernel's blocks in ascending order and the kernels' buffers are
//! disjoint. What co-residence changes is the *memory timeline*: both
//! kernels' lines now share one LRU stack, so the partner's traffic sits
//! between a kernel's consecutive touches and widens its reuse
//! distances, exactly as co-resident kernels contend for a shared cache.
//!
//! This module measures that effect exactly, with two timelines observed
//! in one pass:
//!
//! * a **shared stack** fed both members' global accesses in dispatch
//!   order, accumulating reuse statistics *per member* — the co-resident
//!   (contention-adjusted) locality;
//! * one **solo stack** per member (a plain
//!   [`crate::locality::LocalityObserver`]) fed only that member's
//!   accesses — the isolated baseline, bit-identical to what a solo
//!   launch of the member would measure.
//!
//! The interference delta of a member is `co − solo` per statistic: a
//! pure partner effect, exact by construction because both timelines
//! observe the same single execution. Both are the same
//! `ReuseStack` at 128-byte granularity with the
//! [`REUSE_THRESHOLDS`] buckets, so co and solo numbers are directly
//! comparable.

use gwc_simt::instr::Space;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::sched::CoScheduleObserver;
use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::coalescing::warp_lines;
use crate::locality::LocalityObserver;
use crate::reuse::{ReuseCounts, ReuseStack, INITIAL_CAP, REUSE_THRESHOLDS};

/// One timeline's locality summary for one member, in the units the
/// solo characterization reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalitySummary {
    /// Line touches.
    pub touches: u64,
    /// First-touch fraction.
    pub cold_frac: f64,
    /// Cumulative reuse CDF at [`REUSE_THRESHOLDS`].
    pub reuse_cdf: [f64; 3],
    /// Distinct 128-byte lines.
    pub footprint_lines: u64,
}

/// One member's solo-vs-co-resident locality characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct PairMemberProfile {
    /// Workload / kernel name of the member.
    pub name: String,
    /// Isolated baseline (in-pass solo timeline).
    pub solo: LocalitySummary,
    /// Contention-adjusted (shared timeline).
    pub co: LocalitySummary,
}

impl PairMemberProfile {
    /// Contention-adjusted reuse-CDF delta at `bucket`: `co − solo`.
    /// Negative means the partner's traffic pushed this member's reuses
    /// past the threshold (lost cache hits at that capacity).
    pub fn reuse_delta(&self, bucket: usize) -> f64 {
        self.co.reuse_cdf[bucket] - self.solo.reuse_cdf[bucket]
    }

    /// Cold-fraction delta, `co − solo`. Zero unless the pair shares
    /// lines (first touches are timeline-independent otherwise).
    pub fn cold_delta(&self) -> f64 {
        self.co.cold_frac - self.solo.cold_frac
    }

    /// Mean absolute reuse-CDF delta across the three thresholds — the
    /// member's scalar interference magnitude.
    pub fn interference(&self) -> f64 {
        (0..REUSE_THRESHOLDS.len())
            .map(|b| self.reuse_delta(b).abs())
            .sum::<f64>()
            / REUSE_THRESHOLDS.len() as f64
    }
}

/// The pairwise-interference profile of one co-scheduled kernel pair
/// under one dispatch policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PairProfile {
    /// The two members' solo/co characteristics.
    pub members: [PairMemberProfile; 2],
    /// Dispatch policy the pair ran under.
    pub policy: &'static str,
    /// Combined footprint of the shared timeline, in lines.
    pub footprint_lines: u64,
    /// Lines touched by both members (normally zero — disjoint buffers).
    pub overlap_lines: u64,
}

impl PairProfile {
    /// Fraction of the combined footprint touched by both members.
    pub fn overlap_frac(&self) -> f64 {
        if self.footprint_lines == 0 {
            0.0
        } else {
            self.overlap_lines as f64 / self.footprint_lines as f64
        }
    }

    /// Pair-level interference score: the mean of the members' scalar
    /// interference magnitudes.
    pub fn interference(&self) -> f64 {
        (self.members[0].interference() + self.members[1].interference()) / 2.0
    }

    /// The interference signature this pair clusters by (experiment
    /// E14): each member's three reuse-CDF deltas and cold delta, plus
    /// the footprint-overlap fraction. Deterministic, dimension order
    /// fixed ([`PairProfile::SIGNATURE_DIMS`]).
    pub fn signature(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(Self::SIGNATURE_DIMS.len());
        for m in &self.members {
            for b in 0..REUSE_THRESHOLDS.len() {
                v.push(m.reuse_delta(b));
            }
            v.push(m.cold_delta());
        }
        v.push(self.overlap_frac());
        v
    }

    /// Names of the signature dimensions, in [`PairProfile::signature`]
    /// order.
    pub const SIGNATURE_DIMS: [&'static str; 9] = [
        "a_reuse_d16",
        "a_reuse_d256",
        "a_reuse_d4096",
        "a_cold_d",
        "b_reuse_d16",
        "b_reuse_d256",
        "b_reuse_d4096",
        "b_cold_d",
        "overlap",
    ];
}

/// Observes a co-scheduled pair launch (or a sequence of them) and
/// produces the [`PairProfile`]: routes every global access to the
/// shared stack (attributed to the issuing member) *and* to that
/// member's solo stack, so both timelines are measured in one pass over
/// one execution.
///
/// Keep one observer across all of a pair scenario's co-scheduled
/// launches: the stacks carry reuse state across launches exactly like
/// a solo workload characterization does.
#[derive(Debug)]
pub struct PairObserver {
    /// The merged timeline. Each line's payload is its owner bitmask
    /// (bit `k` set iff member `k` touched it); a pair never merges
    /// shards, so no first touches are tracked.
    shared: ReuseStack<u8>,
    /// Per-member counters on the shared timeline.
    co: [ReuseCounts; 2],
    solo: [LocalityObserver; 2],
    current: usize,
}

impl Default for PairObserver {
    fn default() -> Self {
        Self {
            shared: ReuseStack::new(INITIAL_CAP, false),
            co: [ReuseCounts::default(); 2],
            solo: Default::default(),
            current: 0,
        }
    }
}

impl PairObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes subsequent events to member `m`. The co-scheduled path
    /// routes via [`CoScheduleObserver::on_slice`]; use this when a
    /// member's leftover launches run solo (the pair's timeline
    /// continues, just without partner traffic).
    pub fn set_member(&mut self, m: usize) {
        assert!(m < 2);
        self.current = m;
    }

    /// Member `m`'s solo timeline.
    pub fn solo(&self, m: usize) -> &LocalityObserver {
        &self.solo[m]
    }

    /// Records a touch of `line` by `member` on both of its timelines.
    fn touch(&mut self, member: usize, line: u32, warp: (u32, u32)) {
        self.solo[member].touch(line, warp);
        self.co[member].record(self.shared.touch(line, 1 << member));
    }

    /// Distinct lines on the shared timeline whose owner bits satisfy
    /// `pred`.
    fn lines_where(&self, pred: impl Fn(u8) -> bool) -> u64 {
        self.shared.payloads().filter(|&&o| pred(o)).count() as u64
    }

    fn member(&self, m: usize, name: &str) -> PairMemberProfile {
        let summary = |c: &ReuseCounts, footprint_lines| LocalitySummary {
            touches: c.touches,
            cold_frac: c.per_touch(c.absent as f64),
            reuse_cdf: [0, 1, 2].map(|b| c.reuse_cdf(b, 0.0)),
            footprint_lines,
        };
        let solo = &self.solo[m];
        PairMemberProfile {
            name: name.to_string(),
            solo: summary(&solo.counts, solo.footprint_lines()),
            co: summary(&self.co[m], self.lines_where(|o| o & (1 << m) != 0)),
        }
    }

    /// Finalizes the profile. `names` label the members (workload or
    /// kernel names); `policy` is the dispatch policy's canonical name.
    pub fn finish(self, names: [&str; 2], policy: &'static str) -> PairProfile {
        PairProfile {
            members: [self.member(0, names[0]), self.member(1, names[1])],
            policy,
            footprint_lines: self.shared.len() as u64,
            // Registry pairs allocate disjoint buffers, so this is
            // normally zero — a sanity metric (nonzero means the pair
            // genuinely shares data).
            overlap_lines: self.lines_where(|o| o == 0b11),
        }
    }
}

impl TraceObserver for PairObserver {
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        if e.space != Space::Global {
            return;
        }
        let (lines, n) = warp_lines(e.active_addrs());
        for &line in &lines[..n] {
            self.touch(self.current, line, (e.block, e.warp));
        }
    }
}

impl CoScheduleObserver for PairObserver {
    fn on_member_launch(&mut self, _kernel: usize, _k: &Kernel, _config: &LaunchConfig) {}

    fn on_slice(&mut self, kernel: usize, _blocks: &std::ops::Range<u32>) {
        self.current = kernel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A member alone on the shared stack measures exactly what the solo
    /// observer measures — the timelines only diverge when the partner
    /// actually interleaves.
    #[test]
    fn lone_member_matches_solo_observer() {
        let mut obs = PairObserver::new();
        for l in (0..200u32).map(|i| (i * 13 + i / 7) % 30) {
            obs.touch(0, l, (0, 0));
        }
        let profile = obs.finish(["alone", "idle"], "round-robin");
        let alone = &profile.members[0];
        assert_eq!(alone.co, alone.solo);
        assert_eq!(profile.footprint_lines, alone.solo.footprint_lines);
        assert_eq!(profile.members[1].co.footprint_lines, 0);
        assert_eq!(profile.overlap_lines, 0);
    }

    /// An interleaved partner widens the victim's reuse distances: the
    /// victim alternates between two lines (distance 1 solo) while the
    /// partner streams 40 distinct lines between the victim's touches,
    /// pushing every victim reuse past the 16-line threshold.
    #[test]
    fn partner_traffic_widens_reuse_distances() {
        let mut obs = PairObserver::new();
        for round in 0..10u32 {
            obs.touch(0, round % 2, (0, 0));
            for l in 0..40u32 {
                obs.touch(1, 1000 + l, (0, 0));
            }
        }
        let profile = obs.finish(["victim", "aggressor"], "round-robin");
        let victim = &profile.members[0];
        // Solo: every reuse at distance 1 (bucket 0). Co-resident: every
        // reuse sits behind the partner's 40 lines (bucket 1).
        assert_eq!(victim.solo.reuse_cdf[0], 1.0);
        assert_eq!(victim.co.reuse_cdf[0], 0.0);
        assert!(
            victim.reuse_delta(0) < -0.99,
            "delta {}",
            victim.reuse_delta(0)
        );
        assert!(victim.interference() > 0.3);
        // Footprints are timeline-independent (disjoint lines).
        assert_eq!(victim.solo.footprint_lines, victim.co.footprint_lines);
        assert_eq!(victim.cold_delta(), 0.0);
        assert_eq!(profile.overlap_lines, 0);
        assert_eq!(
            profile.footprint_lines,
            victim.solo.footprint_lines + profile.members[1].solo.footprint_lines
        );
        assert_eq!(profile.signature().len(), PairProfile::SIGNATURE_DIMS.len());
    }

    /// Shared lines set both owner bits and register as overlap.
    #[test]
    fn overlap_accounting() {
        let mut obs = PairObserver::new();
        obs.touch(0, 1, (0, 0));
        obs.touch(1, 1, (0, 0));
        obs.touch(0, 2, (0, 0));
        obs.touch(1, 3, (0, 0));
        let profile = obs.finish(["a", "b"], "round-robin");
        assert_eq!(profile.footprint_lines, 3);
        assert_eq!(profile.overlap_lines, 1);
        assert_eq!(profile.members[0].co.footprint_lines, 2);
        assert_eq!(profile.members[1].co.footprint_lines, 2);
        // Member 1's touch of line 1 is a reuse on the shared timeline
        // but cold on its own.
        assert!(profile.members[1].cold_delta() < 0.0);
    }
}
