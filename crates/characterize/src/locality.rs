//! Temporal locality (LRU stack distances) and data sharing of global
//! memory, at 128-byte line granularity: the exact tier, one
//! unwindowed `ReuseStack` entry per distinct line touched.

use gwc_simt::instr::Space;
use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::coalescing::warp_lines;
pub use crate::reuse::REUSE_THRESHOLDS;
use crate::reuse::{Payload, ReuseCounts, ReuseStack, INITIAL_CAP};

/// Which warps touched a line: its first toucher, and whether a second
/// distinct warp / block ever did. Flags mean "≥ 2 distinct warps /
/// blocks ever touched the line", so they survive merging shards that
/// anchor the same line at different first warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sharing {
    first_warp: (u32, u32),
    pub(crate) multi_warp: bool,
    pub(crate) multi_block: bool,
}

impl Payload for Sharing {
    /// `(block, warp)` of the touching warp.
    type Tag = (u32, u32);

    fn first(warp: (u32, u32)) -> Self {
        Self {
            first_warp: warp,
            multi_warp: false,
            multi_block: false,
        }
    }

    fn retouch(&mut self, warp: (u32, u32)) {
        if self.first_warp != warp {
            self.multi_warp = true;
            if self.first_warp.0 != warp.0 {
                self.multi_block = true;
            }
        }
    }

    fn absorb(&mut self, later: Self) {
        self.multi_warp =
            self.multi_warp || later.multi_warp || self.first_warp != later.first_warp;
        self.multi_block =
            self.multi_block || later.multi_block || self.first_warp.0 != later.first_warp.0;
    }
}

/// Fraction of `lines` for which `pred` holds; 0 when there are none.
pub(crate) fn sharing_frac<'a>(
    lines: impl ExactSizeIterator<Item = &'a Sharing>,
    pred: impl Fn(&Sharing) -> bool,
) -> f64 {
    let n = lines.len();
    if n == 0 {
        return 0.0;
    }
    lines.filter(|l| pred(l)).count() as f64 / n as f64
}

/// Streams global accesses into reuse-distance and sharing statistics.
#[derive(Debug)]
pub struct LocalityObserver {
    stack: ReuseStack<Sharing>,
    /// `absent` counts cold touches.
    pub(crate) counts: ReuseCounts,
}

impl Default for LocalityObserver {
    fn default() -> Self {
        Self::with_capacity(INITIAL_CAP)
    }
}

impl LocalityObserver {
    /// Creates an observer with the default time-axis capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an observer compressing its time axis every `cap` touches.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            stack: ReuseStack::new(cap, true),
            counts: ReuseCounts::default(),
        }
    }

    /// Total line touches (one per distinct line per warp access).
    pub fn touches(&self) -> u64 {
        self.counts.touches
    }

    /// Fraction of touches that were first-touch (cold).
    pub fn cold_frac(&self) -> f64 {
        self.counts.per_touch(self.counts.absent as f64)
    }

    /// Fraction of *reuses* with stack distance at most
    /// `REUSE_THRESHOLDS[bucket]`. Cumulative.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub fn reuse_cdf(&self, bucket: usize) -> f64 {
        self.counts.reuse_cdf(bucket, 0.0)
    }

    /// Distinct 128-byte lines touched.
    pub fn footprint_lines(&self) -> u64 {
        self.stack.len() as u64
    }

    /// Fraction of lines touched by at least two distinct warps.
    pub fn inter_warp_sharing(&self) -> f64 {
        sharing_frac(self.stack.payloads(), |l| l.multi_warp)
    }

    /// Fraction of lines touched by at least two distinct blocks.
    pub fn inter_block_sharing(&self) -> f64 {
        sharing_frac(self.stack.payloads(), |l| l.multi_block)
    }

    /// Approximate heap bytes held by this observer's per-line state.
    pub fn bytes_in_use(&self) -> u64 {
        self.stack.bytes_in_use()
    }

    pub(crate) fn touch(&mut self, line: u32, warp: (u32, u32)) {
        self.counts.record(self.stack.touch(line, warp));
    }
}

impl crate::merge::MergeableObserver for LocalityObserver {
    /// Exact stack merge of a later shard (see `ReuseStack::merge`):
    /// the merged histogram matches serial observation bit for bit.
    fn merge(&mut self, later: Self) {
        let resolved = self.stack.merge(later.stack);
        self.counts.merge(later.counts, resolved);
    }
}

impl TraceObserver for LocalityObserver {
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        if e.space != Space::Global {
            return;
        }
        let (lines, n) = warp_lines(e.active_addrs());
        for &line in &lines[..n] {
            self.touch(line, (e.block, e.warp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(o: &mut LocalityObserver, line: u32) {
        o.touch(line, (0, 0));
    }

    #[test]
    fn immediate_reuse_distance_zero() {
        let mut o = LocalityObserver::with_capacity(64);
        touch(&mut o, 1);
        touch(&mut o, 1);
        assert_eq!(o.touches(), 2);
        assert_eq!(o.cold_frac(), 0.5);
        // Distance 0 <= 16: bucket 0.
        assert_eq!(o.reuse_cdf(0), 1.0);
    }

    #[test]
    fn stack_distance_counts_distinct_lines() {
        let mut o = LocalityObserver::with_capacity(4096);
        // Touch A, then 20 distinct lines, then A again: distance 20.
        touch(&mut o, 0);
        for l in 1..=20 {
            touch(&mut o, l);
        }
        touch(&mut o, 0);
        // 20 > 16 -> bucket 1 (<= 256). CDF(0) = 0, CDF(1) = 1.
        assert_eq!(o.reuse_cdf(0), 0.0);
        assert_eq!(o.reuse_cdf(1), 1.0);
    }

    #[test]
    fn repeated_intermediate_lines_count_once() {
        let mut o = LocalityObserver::with_capacity(4096);
        touch(&mut o, 0);
        // Touch line 1 ten times: only ONE distinct line between reuses.
        for _ in 0..10 {
            touch(&mut o, 1);
        }
        touch(&mut o, 0);
        // Distance 1 <= 16.
        assert!(o.reuse_cdf(0) > 0.0);
    }

    #[test]
    fn compression_preserves_distances() {
        let mut o = LocalityObserver::with_capacity(64);
        // Generate enough touches to force several compressions.
        for round in 0..20 {
            for l in 0..30u32 {
                touch(&mut o, l);
            }
            let _ = round;
        }
        // Every line reuse sees 29 distinct other lines: bucket 1.
        assert_eq!(o.reuse_cdf(0), 0.0);
        assert_eq!(o.reuse_cdf(1), 1.0);
        assert_eq!(o.footprint_lines(), 30);
    }

    #[test]
    fn sharing_flags() {
        let mut o = LocalityObserver::with_capacity(64);
        o.touch(0, (0, 0));
        o.touch(0, (0, 1)); // same block, different warp
        o.touch(1, (0, 0));
        o.touch(1, (2, 0)); // different block
        o.touch(2, (1, 1)); // private
        assert!((o.inter_warp_sharing() - 2.0 / 3.0).abs() < 1e-12);
        assert!((o.inter_block_sharing() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn non_global_ignored() {
        use crate::coalescing::addr_array;
        use gwc_simt::trace::AccessKind;
        let mut o = LocalityObserver::new();
        let (arr, mask) = addr_array(&[0, 4, 8]);
        o.on_mem(&MemEvent {
            block: 0,
            warp: 0,
            pc: 0,
            space: Space::Shared,
            kind: AccessKind::Load,
            bytes: 4,
            active: mask,
            addrs: &arr,
        });
        assert_eq!(o.touches(), 0);
    }

    fn assert_same_state(a: &LocalityObserver, b: &LocalityObserver) {
        assert_eq!(a.counts, b.counts, "reuse counts differ");
        assert_eq!(a.footprint_lines(), b.footprint_lines());
        assert_eq!(
            a.inter_warp_sharing().to_bits(),
            b.inter_warp_sharing().to_bits()
        );
        assert_eq!(
            a.inter_block_sharing().to_bits(),
            b.inter_block_sharing().to_bits()
        );
    }

    /// Pseudo-random touch stream: every split of it, merged, must equal
    /// serial observation — including for *future* touches, which checks
    /// the rebuilt time axis preserves recency order.
    #[test]
    fn merge_any_split_matches_serial() {
        use crate::merge::MergeableObserver;
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let stream: Vec<(u32, (u32, u32))> = (0..400)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = (x >> 8) as u32 % 48;
                let block = (x >> 16) as u32 % 4;
                let warp = (x >> 24) as u32 % 2;
                (line, (block, warp))
            })
            .collect();
        for split in [0, 1, 17, 200, 399, 400] {
            let mut serial = LocalityObserver::with_capacity(128);
            for &(line, warp) in &stream {
                serial.touch(line, warp);
            }
            let mut first = LocalityObserver::with_capacity(128);
            let mut second = LocalityObserver::with_capacity(128);
            for &(line, warp) in &stream[..split] {
                first.touch(line, warp);
            }
            for &(line, warp) in &stream[split..] {
                second.touch(line, warp);
            }
            first.merge(second);
            assert_same_state(&first, &serial);
            // The merged stack must keep behaving like the serial one.
            for &(line, warp) in stream.iter().rev().take(100) {
                serial.touch(line, warp);
                first.touch(line, warp);
            }
            assert_same_state(&first, &serial);
        }
    }

    /// Three-way merge in block order equals serial — shards reduce
    /// left-to-right exactly as the runtime does.
    #[test]
    fn merge_three_shards_matches_serial() {
        use crate::merge::MergeableObserver;
        let stream: Vec<u32> = (0..300).map(|i| (i * 7 + i / 13) % 40).collect();
        let mut serial = LocalityObserver::with_capacity(128);
        for &l in &stream {
            serial.touch(l, (0, 0));
        }
        let mut merged = LocalityObserver::with_capacity(128);
        for chunk in stream.chunks(100) {
            let mut shard = LocalityObserver::with_capacity(128);
            for &l in chunk {
                shard.touch(l, (0, 0));
            }
            merged.merge(shard);
        }
        assert_same_state(&merged, &serial);
    }

    #[test]
    fn warp_access_touches_each_line_once() {
        use crate::coalescing::addr_array;
        use gwc_simt::trace::AccessKind;
        let mut o = LocalityObserver::new();
        // 32 lanes over 2 lines (16 lanes per 128B line at stride 8).
        let addrs: Vec<u32> = (0..32u32).map(|i| i * 8).collect();
        let (arr, mask) = addr_array(&addrs);
        o.on_mem(&MemEvent {
            block: 0,
            warp: 0,
            pc: 0,
            space: Space::Global,
            kind: AccessKind::Load,
            bytes: 4,
            active: mask,
            addrs: &arr,
        });
        assert_eq!(o.touches(), 2);
        assert_eq!(o.footprint_lines(), 2);
    }
}
