//! Kernel profiles: the measured characteristic vector plus raw counters.

use crate::schema;
use gwc_simt::trace::LaunchStats;

/// Raw event counts preserved alongside the normalized characteristics.
///
/// The analytical timing model ([`gwc-timing`]) consumes these; the
/// characteristic vector itself stays microarchitecture independent.
///
/// [`gwc-timing`]: https://docs.rs/gwc-timing
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RawCounts {
    /// Warp-level dynamic instructions.
    pub warp_instrs: u64,
    /// Thread-level dynamic instructions.
    pub thread_instrs: u64,
    /// Warp-level global memory accesses.
    pub global_accesses: u64,
    /// 128-byte segments (memory transactions) those accesses produced.
    pub global_transactions: u64,
    /// Warp-level shared memory accesses.
    pub shared_accesses: u64,
    /// Serialized shared-memory cycles (>= shared_accesses; equality means
    /// conflict-free).
    pub shared_serialized: u64,
    /// Thread-level SFU instructions.
    pub sfu_thread_instrs: u64,
    /// Block-wide barriers released.
    pub barriers: u64,
    /// Thread-level atomic operations.
    pub atomic_thread_ops: u64,
    /// Total threads launched.
    pub total_threads: u64,
    /// Threads per block.
    pub threads_per_block: u64,
    /// Blocks in the grid.
    pub blocks: u64,
    /// Distinct 128-byte global lines touched.
    pub footprint_lines: u64,
}

/// The characterization result for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    name: String,
    values: Vec<f64>,
    raw: RawCounts,
    totals: LaunchTotals,
}

/// The [`LaunchStats`] fields a profile keeps and the profile cache
/// persists. The engine's mix and divergence counters are left out:
/// they live on in the characteristic vector, and keeping them would
/// more than double the size of every profile.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LaunchTotals {
    warp_instrs: u64,
    thread_instrs: u64,
    blocks: u64,
    warps: u64,
    barriers: u64,
}

impl KernelProfile {
    /// Creates a profile; `values` must match the schema length. Of
    /// `stats` only the launch totals are kept.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != schema::len()` (programming error in an
    /// observer, not user input).
    pub fn new(
        name: impl Into<String>,
        values: Vec<f64>,
        raw: RawCounts,
        stats: LaunchStats,
    ) -> Self {
        assert_eq!(values.len(), schema::len(), "characteristic vector size");
        Self {
            name: name.into(),
            values,
            raw,
            totals: LaunchTotals {
                warp_instrs: stats.warp_instrs,
                thread_instrs: stats.thread_instrs,
                blocks: stats.blocks,
                warps: stats.warps,
                barriers: stats.barriers,
            },
        }
    }

    /// Kernel (launch) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full characteristic vector in schema order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of the characteristic called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the schema.
    pub fn get(&self, name: &str) -> f64 {
        self.values[schema::index_of(name)]
    }

    /// Raw counters for timing models.
    pub fn raw(&self) -> &RawCounts {
        &self.raw
    }

    /// Executor launch statistics: the totals (warp/thread
    /// instructions, blocks, warps, barriers), with the mix and
    /// divergence counters zero.
    pub fn stats(&self) -> LaunchStats {
        let t = self.totals;
        LaunchStats {
            warp_instrs: t.warp_instrs,
            thread_instrs: t.thread_instrs,
            blocks: t.blocks,
            warps: t.warps,
            barriers: t.barriers,
            ..LaunchStats::default()
        }
    }

    /// Renders the profile as a two-column table (name, value).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("kernel: {}\n", self.name));
        for (def, v) in schema::SCHEMA.iter().zip(&self.values) {
            out.push_str(&format!("  {:<28} {:>12.6}\n", def.name, v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelProfile {
        let mut values = vec![0.0; schema::len()];
        values[schema::index_of("mix_int_alu")] = 0.5;
        KernelProfile::new("k", values, RawCounts::default(), LaunchStats::default())
    }

    #[test]
    fn get_by_name() {
        let p = sample();
        assert_eq!(p.get("mix_int_alu"), 0.5);
        assert_eq!(p.get("mix_sfu"), 0.0);
    }

    #[test]
    #[should_panic(expected = "characteristic vector size")]
    fn wrong_length_panics() {
        KernelProfile::new(
            "k",
            vec![0.0; 3],
            RawCounts::default(),
            LaunchStats::default(),
        );
    }

    #[test]
    fn render_mentions_all_names() {
        let table = sample().render_table();
        for def in schema::SCHEMA {
            assert!(table.contains(def.name));
        }
    }
}
