//! The one reuse-distance engine behind every locality observer.
//!
//! Reuse distance — the number of *distinct* lines touched between two
//! accesses to the same line — is the canonical microarchitecture-
//! independent locality metric: a fully associative LRU cache of `N`
//! lines hits exactly the accesses with distance `< N`. [`ReuseStack`]
//! computes it exactly with the classic last-access-time + Fenwick-tree
//! algorithm, compressing the time axis when it fills. Its three users
//! differ only in what they attach to a line and how far back they look:
//!
//! * the exact observer ([`crate::locality`]) keeps every line, with the
//!   line's sharing flags as payload;
//! * the sketch tier ([`crate::sketch`]) keeps a window of the `N` most
//!   recently touched lines, with no payload;
//! * the pair observer ([`crate::pair`]) keeps every line of two kernels'
//!   merged stream, with an owner bitmask as payload.
//!
//! Shard merges are exact as well ([`ReuseStack::merge`]), so every user
//! stays bit-identical to serial observation at any thread count.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use crate::fxhash::FxHashMap;

/// Reuse-distance histogram thresholds, in 128-byte lines.
pub const REUSE_THRESHOLDS: [u64; 3] = [16, 256, 4096];

/// Histogram bucket of a reuse at `distance`: the first threshold it
/// does not exceed, or the overflow bucket `REUSE_THRESHOLDS.len()`.
pub(crate) fn reuse_bucket(distance: u64) -> usize {
    REUSE_THRESHOLDS
        .iter()
        .position(|&th| distance <= th)
        .unwrap_or(REUSE_THRESHOLDS.len())
}

/// Initial time-axis capacity of an unwindowed stack. Deliberately
/// small: the runtime creates one observer per shard per launch, and a
/// large up-front Fenwick allocation (formerly 8 MB zeroed) dominated
/// sharded study time via page faults. The axis grows geometrically with
/// the footprint, so large workloads still get a long axis — they just
/// pay for it only when they actually touch that many lines.
pub(crate) const INITIAL_CAP: usize = 1 << 12;

/// Binary indexed tree over time slots.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of `[0, i]`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum of `[lo, hi]` (inclusive); 0 when the range is empty.
    fn range(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi {
            return 0;
        }
        let head = if lo == 0 { 0 } else { self.prefix(lo - 1) };
        self.prefix(hi) - head
    }
}

/// Per-line state a [`ReuseStack`] user attaches to each line, updated
/// by the `Tag` of every touch.
pub(crate) trait Payload: Copy {
    /// What a touch carries into the payload (warp id, member bit, ...).
    type Tag: Copy;
    /// The payload of a line first touched with `tag`.
    fn first(tag: Self::Tag) -> Self;
    /// Folds a later touch with `tag` into the payload.
    fn retouch(&mut self, tag: Self::Tag);
    /// Folds the payload a later shard holds for the same line.
    fn absorb(&mut self, later: Self);
}

impl Payload for () {
    type Tag = ();
    fn first(_: ()) {}
    fn retouch(&mut self, _: ()) {}
    fn absorb(&mut self, _: ()) {}
}

/// A bit set: each touch ORs in its tag's bits.
impl Payload for u8 {
    type Tag = u8;
    fn first(bits: u8) -> u8 {
        bits
    }
    fn retouch(&mut self, bits: u8) {
        *self |= bits;
    }
    fn absorb(&mut self, later: u8) {
        *self |= later;
    }
}

/// LRU eviction state of a windowed stack.
#[derive(Debug)]
struct Window {
    /// Distinct lines kept.
    lines: usize,
    /// Inverse index `last_time -> line` (times are unique): O(log N)
    /// LRU eviction.
    by_time: BTreeMap<usize, u32>,
}

/// An LRU stack of 128-byte lines that reports each touch's reuse
/// bucket. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct ReuseStack<P> {
    /// Line -> (last access time, payload).
    lines: FxHashMap<u32, (usize, P)>,
    fenwick: Fenwick,
    now: usize,
    cap: usize,
    /// `Some` on a windowed stack; unwindowed stacks hold no eviction
    /// state at all. Boxed to keep observers (which profilers hold by
    /// value) small.
    window: Option<Box<Window>>,
    /// Lines in first-touch order — the later-shard side of
    /// [`ReuseStack::merge`]; `None` on a stack that never merges. A
    /// windowed stack caps the list at its window: an entry past that
    /// can never resolve to an in-window distance (its merge position
    /// alone is too far), and while the list is below its cap no
    /// eviction can have happened yet, so "absent" and "first touch"
    /// coincide exactly.
    first_touches: Option<Vec<u32>>,
}

impl<P: Payload> ReuseStack<P> {
    /// An unwindowed stack compressing its time axis every `cap`
    /// touches (growing it with the footprint). Only a stack that
    /// `tracks_first_touches` can absorb a later shard.
    pub(crate) fn new(cap: usize, tracks_first_touches: bool) -> Self {
        Self {
            lines: FxHashMap::default(),
            fenwick: Fenwick::new(cap),
            now: 0,
            cap,
            window: None,
            first_touches: tracks_first_touches.then(Vec::new),
        }
    }

    /// A stack holding only the `lines` most recently touched distinct
    /// lines. Its time axis never grows: the live footprint is at most
    /// `lines`, so compression always has headroom.
    pub(crate) fn windowed(lines: usize) -> Self {
        Self {
            window: Some(Box::new(Window {
                lines,
                by_time: BTreeMap::new(),
            })),
            ..Self::new((lines * 4).next_power_of_two(), true)
        }
    }

    /// Distinct lines currently on the stack.
    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }

    /// Payloads of the lines currently on the stack, in no fixed order.
    pub(crate) fn payloads(&self) -> impl ExactSizeIterator<Item = &P> {
        self.lines.values().map(|(_, p)| p)
    }

    /// Approximate heap bytes held. Capacity-based (not length-based):
    /// it is the allocation, not the occupancy, that the
    /// `observer.bytes_peak` gauge must account for.
    pub(crate) fn bytes_in_use(&self) -> u64 {
        let map_entry = std::mem::size_of::<(u32, (usize, P))>() + 1;
        let by_time_entry = std::mem::size_of::<(usize, u32)>() + 16;
        let by_time = self.window.as_ref().map_or(0, |w| w.by_time.len());
        (self.lines.capacity() * map_entry
            + by_time * by_time_entry
            + self.fenwick.tree.len() * std::mem::size_of::<u32>()
            + self.first_touches.as_ref().map_or(0, Vec::capacity) * std::mem::size_of::<u32>())
            as u64
    }

    /// Touches `line`. Returns the reuse's histogram bucket, or `None`
    /// when the line is not on the stack — a cold touch on an
    /// unwindowed stack, a window miss (cold, or a reuse farther back
    /// than the window) on a windowed one.
    pub(crate) fn touch(&mut self, line: u32, tag: P::Tag) -> Option<usize> {
        if self.now >= self.cap {
            // Compression needs headroom over the live footprint; grow
            // the axis instead when the footprint itself filled it.
            // Either way the recency order — and with it every future
            // distance — is preserved, so when growth (or compression)
            // happens cannot affect results.
            if self.lines.len() * 2 > self.cap {
                self.cap = (self.lines.len() * 4).next_power_of_two();
            }
            self.compress();
        }
        let now = self.now;
        self.now += 1;
        self.fenwick.add(now, 1);
        match self.lines.get_mut(&line) {
            Some((last, payload)) => {
                let t = *last;
                // Lines whose most recent access is after t = LRU depth.
                let distance = self.fenwick.range(t + 1, now.saturating_sub(1));
                self.fenwick.add(t, -1);
                *last = now;
                payload.retouch(tag);
                if let Some(w) = &mut self.window {
                    w.by_time.remove(&t);
                    w.by_time.insert(now, line);
                }
                Some(reuse_bucket(distance))
            }
            None => {
                self.lines.insert(line, (now, P::first(tag)));
                self.push_first_touch(line);
                if let Some(w) = &mut self.window {
                    w.by_time.insert(now, line);
                    if self.lines.len() > w.lines {
                        let (t_old, lru) = w.by_time.pop_first().expect("window not empty");
                        self.lines.remove(&lru);
                        self.fenwick.add(t_old, -1);
                    }
                }
                None
            }
        }
    }

    fn push_first_touch(&mut self, line: u32) {
        let cap = self.window.as_ref().map_or(usize::MAX, |w| w.lines);
        if let Some(first) = &mut self.first_touches {
            if first.len() < cap {
                first.push(line);
            }
        }
    }

    /// Reassigns time slots densely, preserving recency order.
    fn compress(&mut self) {
        let mut order: Vec<(usize, u32)> = self
            .lines
            .iter()
            .map(|(&line, &(t, _))| (t, line))
            .collect();
        order.sort_unstable();
        self.restamp(order.into_iter().map(|(_, line)| line));
    }

    /// Rebuilds the time axis with `recency` (every line on the stack,
    /// least recent first) at times `0..`: a compression, which keeps
    /// every future distance.
    fn restamp(&mut self, recency: impl Iterator<Item = u32>) {
        self.fenwick = Fenwick::new(self.cap);
        if let Some(w) = &mut self.window {
            w.by_time.clear();
        }
        let mut t = 0;
        for line in recency {
            self.lines.get_mut(&line).expect("line on the stack").0 = t;
            if let Some(w) = &mut self.window {
                w.by_time.insert(t, line);
            }
            self.fenwick.add(t, 1);
            t += 1;
        }
        self.now = t;
        assert!(
            self.now < self.cap,
            "footprint exceeds the reuse stack's time axis"
        );
    }

    /// Exact stack merge of a later shard (`later`) into this one.
    /// Returns the histogram of `later`'s first touches that turn out
    /// to be reuses across the shard boundary; the caller adds it to
    /// its own and `later`'s counts (every other touch of `later`
    /// already has its serial outcome).
    ///
    /// Reuses *within* `later` already have the correct distance — every
    /// intervening distinct line lies inside `later`'s own substream. A
    /// line `later` saw first that `self` still holds is really a reuse
    /// crossing the shard boundary, with distance
    ///
    /// ```text
    ///   |{M in self : last(M) > last(L)}|      (self's Fenwick)
    /// + (first touches before L in later)      (position in order)
    /// - (lines counted by both terms)          (auxiliary Fenwick)
    /// ```
    ///
    /// which is exactly the number of distinct lines touched between
    /// `self`'s last access to `L` and `later`'s first — the same integer
    /// the serial stack computes. On a windowed stack a line still in
    /// `self`'s window has *all* more recent lines in the window too
    /// (anything evicted after it would have evicted it first), so the
    /// formula is still the full serial distance, and the reuse is a
    /// serial window hit exactly when that distance is inside the window.
    ///
    /// The merged time axis is rebuilt densely: `self`-only lines in
    /// their old order, then every line `later` holds in `later`'s
    /// recency order — truncated to the most recent lines on a windowed
    /// stack, which is the serial window.
    pub(crate) fn merge(&mut self, later: Self) -> [u64; 4] {
        let later_first = later.first_touches.expect("merge needs first touches");
        let mut resolved = [0u64; 4];
        let mut aux = Fenwick::new(self.cap);
        let top = self.now.saturating_sub(1);
        for (pos, &line) in later_first.iter().enumerate() {
            match self.lines.get(&line) {
                Some(&(t, _)) => {
                    let distance =
                        self.fenwick.range(t + 1, top) + pos as u64 - aux.range(t + 1, top);
                    if self
                        .window
                        .as_ref()
                        .is_none_or(|w| distance < w.lines as u64)
                    {
                        resolved[reuse_bucket(distance)] += 1;
                    }
                    // Counted by both `self`'s Fenwick and `pos` for every
                    // later entry after this one, hit or not.
                    aux.add(t, 1);
                }
                None => self.push_first_touch(line),
            }
        }

        // The recency order needs both maps intact; `later`'s lines are
        // then absorbed into `self.lines` *in place* — re-allocating a
        // merged map per shard merge showed up as the dominant allocation
        // in sharded studies.
        let mut order: Vec<(u8, usize, u32)> =
            Vec::with_capacity(self.lines.len() + later.lines.len());
        for (&line, &(t, _)) in &self.lines {
            if !later.lines.contains_key(&line) {
                order.push((0, t, line));
            }
        }
        for (&line, &(t, _)) in &later.lines {
            order.push((1, t, line));
        }
        order.sort_unstable();
        let keep_from = self
            .window
            .as_ref()
            .map_or(0, |w| order.len().saturating_sub(w.lines));
        // `later` holds at most a window, so only `self`-only lines fall
        // out of it.
        for &(_, _, line) in &order[..keep_from] {
            self.lines.remove(&line);
        }
        let kept = &order[keep_from..];
        // The merged footprint can exceed either side's axis; grow
        // before the rebuild exactly like `touch` does.
        self.cap = self.cap.max(later.cap);
        if kept.len() * 2 > self.cap {
            self.cap = (kept.len() * 4).next_power_of_two();
        }
        self.lines.reserve(kept.len() - self.lines.len());
        for (line, (_, payload)) in later.lines {
            match self.lines.entry(line) {
                Entry::Occupied(mut e) => e.get_mut().1.absorb(payload),
                Entry::Vacant(e) => {
                    e.insert((0, payload));
                }
            }
        }
        self.restamp(kept.iter().map(|&(_, _, line)| line));
        resolved
    }
}

/// The counters every reuse-stack user keeps per timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReuseCounts {
    /// Reuses bucketed by [`REUSE_THRESHOLDS`], with a final overflow
    /// bucket.
    pub(crate) hist: [u64; 4],
    /// Touches of lines not on the stack (see [`ReuseStack::touch`]).
    pub(crate) absent: u64,
    pub(crate) touches: u64,
}

impl ReuseCounts {
    /// Records one [`ReuseStack::touch`] outcome.
    pub(crate) fn record(&mut self, outcome: Option<usize>) {
        self.touches += 1;
        match outcome {
            Some(bucket) => self.hist[bucket] += 1,
            None => self.absent += 1,
        }
    }

    /// Folds a later shard's counts, plus the cross-shard reuses
    /// [`ReuseStack::merge`] `resolved` among its absent touches.
    pub(crate) fn merge(&mut self, later: Self, resolved: [u64; 4]) {
        self.touches += later.touches;
        for ((a, b), r) in self.hist.iter_mut().zip(later.hist).zip(resolved) {
            *a += b + r;
        }
        self.absent += later.absent - resolved.iter().sum::<u64>();
    }

    /// `x / touches`, or 0 before the first touch.
    pub(crate) fn per_touch(&self, x: f64) -> f64 {
        if self.touches == 0 {
            0.0
        } else {
            x / self.touches as f64
        }
    }

    /// Fraction of reuses with stack distance at most
    /// `REUSE_THRESHOLDS[bucket]`, cumulative, counting `far` further
    /// reuses beyond the histogram (estimated by the sketch tier, 0
    /// elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub(crate) fn reuse_cdf(&self, bucket: usize, far: f64) -> f64 {
        assert!(bucket < REUSE_THRESHOLDS.len());
        let reuses = self.hist.iter().sum::<u64>() as f64 + far;
        if reuses == 0.0 {
            return 0.0;
        }
        self.hist[..=bucket].iter().sum::<u64>() as f64 / reuses
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The lines on `stack`, least recently touched first.
    pub(crate) fn recency<P: Payload>(stack: &ReuseStack<P>) -> Vec<u32> {
        let mut order: Vec<(usize, u32)> = stack.lines.iter().map(|(&l, &(t, _))| (t, l)).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, l)| l).collect()
    }

    #[test]
    fn fenwick_basics() {
        let mut f = Fenwick::new(16);
        f.add(3, 1);
        f.add(7, 1);
        f.add(10, 1);
        assert_eq!(f.prefix(15), 3);
        assert_eq!(f.range(4, 9), 1);
        assert_eq!(f.range(0, 3), 1);
        f.add(7, -1);
        assert_eq!(f.range(4, 9), 0);
        assert_eq!(f.range(5, 4), 0);
    }

    #[test]
    fn buckets_follow_thresholds() {
        assert_eq!(reuse_bucket(0), 0);
        assert_eq!(reuse_bucket(16), 0);
        assert_eq!(reuse_bucket(17), 1);
        assert_eq!(reuse_bucket(4096), 2);
        assert_eq!(reuse_bucket(4097), 3);
    }

    /// A window one line deeper than the first threshold is an exact LRU
    /// cache of that size: it hits exactly the reuses the unwindowed
    /// stack puts in bucket 0, and holds the most recent lines.
    #[test]
    fn window_is_an_exact_lru_cache() {
        let w = REUSE_THRESHOLDS[0] as usize + 1;
        let mut exact: ReuseStack<()> = ReuseStack::new(64, true);
        let mut window: ReuseStack<()> = ReuseStack::windowed(w);
        let mut x = 0x9E37_79B9u64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = ((x >> 8) % 40) as u32;
            let e = exact.touch(line, ());
            assert_eq!(window.touch(line, ()).is_some(), e == Some(0));
            assert!(window.len() <= w);
        }
        let all = recency(&exact);
        assert_eq!(recency(&window), all[all.len() - w..]);
    }
}
