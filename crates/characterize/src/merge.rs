//! Order-aware merging of observer state, the reduction half of the
//! parallel characterization runtime.
//!
//! When one launch's blocks are sharded across threads (see
//! `Device::run_block_range`), each shard streams its events into a fresh
//! observer; afterwards the shards are folded back into the master
//! observer **in ascending block order**. Every observer guarantees that
//! this reduction is *bit-identical* to having observed the whole stream
//! serially — which is why the accumulators are kept in integer domains
//! (exact, associative) and only converted to floating point at read
//! time, in a fixed order.

use gwc_simt::trace::TraceObserver;

/// An observer whose per-shard state can be reduced in block order.
///
/// # Contract
///
/// `self.merge(later)` must leave `self` in exactly the state a single
/// observer would hold after seeing `self`'s event stream followed by
/// `later`'s. Callers must merge shards in ascending block order, and
/// `later` must have observed only events of the *same* launch that
/// `self`'s most recent events belong to (shards never span launch
/// boundaries; the master observer alone sees `on_launch` /
/// `on_launch_end`).
pub trait MergeableObserver: TraceObserver {
    /// Absorbs `later`, whose events all follow `self`'s in block order.
    fn merge(&mut self, later: Self);
}
