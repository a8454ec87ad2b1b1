//! Block-sharded launch execution: the std-only parallel path that runs
//! one launch's blocks across threads and reduces the shard observers
//! back to a state bit-identical to serial execution.
//!
//! # How a sharded launch runs
//!
//! 1. The grid's blocks are split into ≤ `threads` contiguous ranges;
//!    each range executes on a [`Device::fork`] with its own copy of
//!    global memory, streaming into a fresh [`Profiler::shard`].
//! 2. If any shard failed, or the shards' warp instructions summed in
//!    block order pass the device's instruction budget, nothing is
//!    absorbed: the launch is replayed serially instead, so its outcome
//!    is the serial run's by construction.
//! 3. Otherwise the master [`Profiler`] sees `on_launch` (launch shape,
//!    ILP fold), and in ascending block order each shard is folded into
//!    it ([`MergeableObserver::merge`]), its stats summed
//!    ([`LaunchStats::add`]), and its global writes absorbed
//!    ([`Device::absorb_writes`]).
//! 4. The master sees `on_launch_end` with the summed stats — exactly
//!    the stats the serial launch reports.
//!
//! # Safety contract
//!
//! Sharding is only applied when [`Kernel::is_block_shardable`] holds
//! (no global atomics in the IR — see its docs for why plain global
//! stores are fine under the CUDA block-independence model). Kernels
//! that fail the check, single-block grids, and `threads <= 1` all fall
//! back to the serial path, so this function is always safe to call.

use std::thread;

use gwc_simt::exec::Device;
use gwc_simt::instr::Value;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::trace::{LaunchStats, TraceObserver};
use gwc_simt::SimtError;

use crate::merge::MergeableObserver;
use crate::profile::KernelProfile;
use crate::profiler::Profiler;

/// Minimum blocks per shard; below this the fork + merge overhead beats
/// any speedup, so the launch runs serially.
const MIN_BLOCKS_PER_SHARD: usize = 2;

/// Runs one launch into `profiler`, sharding its blocks across up to
/// `threads` threads when the kernel meets the block-sharding contract,
/// and falling back to [`Device::launch_observed`] otherwise. The
/// profiler ends up in a state bit-identical to the serial path either
/// way.
///
/// # Errors
///
/// Returns exactly the [`SimtError`] the serial launch returns: a launch
/// whose shards fail or together pass the instruction budget is replayed
/// serially on the untouched device, and the replay's result is
/// returned.
pub fn profile_launch_sharded(
    device: &mut Device,
    kernel: &Kernel,
    config: &LaunchConfig,
    args: &[Value],
    profiler: &mut Profiler,
    threads: usize,
) -> Result<LaunchStats, SimtError> {
    let blocks = config.blocks();
    let shards = threads.min(blocks / MIN_BLOCKS_PER_SHARD);
    let blocker = kernel.shard_blocker();
    if shards <= 1 || blocker.is_some() {
        // Only a *fallback* when parallelism was actually requested:
        // surface why this launch runs serially (the shardability
        // contract failed, or the grid is too small to split).
        if threads > 1 {
            if let Some(rec) = gwc_obs::recorder() {
                let reason = blocker.unwrap_or("too-few-blocks");
                rec.record_shard_fallback(kernel.name(), reason);
                rec.add_counter("shard.serial_fallbacks", 1);
            }
        }
        return device.launch_observed(kernel, config, args, profiler);
    }

    config.validate()?;
    kernel.check_args(args)?;

    // One relaxed load + branch when no recorder is installed.
    let launch_t0 = gwc_obs::enabled().then(std::time::Instant::now);
    let base = device.global_image().to_vec();
    // Shards must observe on the master's tier or the merge would mix
    // exact and sketch state; capture it before the borrow moves into
    // the worker closures.
    let tier = profiler.tier();
    let dev = &*device;
    let results: Vec<Result<(Device, Profiler, LaunchStats), SimtError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                let first = (blocks * i / shards) as u32;
                let last = (blocks * (i + 1) / shards) as u32;
                gwc_obs::span::spawn_scoped(scope, move || {
                    let t0 = gwc_obs::enabled().then(std::time::Instant::now);
                    let _observe = gwc_obs::span!("shard/observe");
                    let mut shard_dev = dev.fork();
                    let mut shard = Profiler::shard(kernel, config, tier);
                    let stats =
                        shard_dev.run_block_range(kernel, config, args, first, last, &mut shard)?;
                    if let Some(t0) = t0 {
                        gwc_obs::hist("shard.observe_ns", t0.elapsed().as_nanos() as u64);
                    }
                    Ok((shard_dev, shard, stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    // Each shard ran with the whole budget and cannot know where the
    // serial run would have stopped, so any failure or overrun is settled
    // by replaying serially; the device still holds the base image.
    let budget = device.limits().instr_budget;
    let outputs = match results.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(outputs) if outputs.iter().map(|(_, _, s)| s.warp_instrs).sum::<u64>() <= budget => {
            outputs
        }
        _ => return device.launch_observed(kernel, config, args, profiler),
    };

    profiler.on_launch(kernel, config);
    // Every launch counts its backend exactly once: serial launches in
    // `launch_observed`, sharded launches here (shards inherit the
    // backend through `fork`, so one launch = one engine).
    gwc_obs::count(device.backend().counter_name(), 1);
    let mut total = LaunchStats::default();
    // Exec profiles merge exactly like the shard observers: elementwise,
    // in ascending block order (the merge is commutative anyway).
    let mut exec_total: Option<gwc_simt::profile::ExecProfile> = None;
    {
        let _merge = gwc_obs::span!("shard/merge");
        for (mut shard_dev, shard, stats) in outputs {
            let t0 = gwc_obs::enabled().then(std::time::Instant::now);
            profiler.merge(shard);
            total.add(&stats);
            if let Some(shard_exec) = shard_dev.take_exec_profile() {
                match &mut exec_total {
                    Some(t) => t.merge(&shard_exec),
                    None => exec_total = Some(shard_exec),
                }
            }
            device.absorb_writes(&base, &shard_dev);
            if let Some(t0) = t0 {
                gwc_obs::hist("shard.merge_ns", t0.elapsed().as_nanos() as u64);
            }
        }
    }
    profiler.on_launch_end(&total);
    let wall_ns = launch_t0.map(|t0| t0.elapsed().as_nanos() as u64);
    gwc_simt::trace::record_launch(kernel.name(), &total, wall_ns.unwrap_or(0));
    if let Some(exec) = &exec_total {
        gwc_simt::trace::record_exec_profile(kernel, exec);
    }
    // Deposit the merged profile (or clear a stale one) so
    // `take_exec_profile` works the same as after a serial launch.
    device.store_exec_profile(exec_total);
    if let Some(ns) = wall_ns {
        gwc_obs::hist("launch.latency_ns", ns);
    }
    gwc_obs::count("shard.sharded_launches", 1);
    gwc_obs::count("shard.shards", shards as u64);
    // The serial/fallback path ticks inside `launch_observed`; the
    // sharded path owns the launch boundary, so it ticks here — exactly
    // one launch tick either way.
    gwc_obs::progress::tick(&gwc_obs::progress::LAUNCHES, 1);
    Ok(total)
}

/// Characterizes a single launch like
/// [`characterize_launch`](crate::characterize_launch), but sharded
/// across up to `threads` threads.
///
/// # Errors
///
/// Propagates any [`SimtError`] from the launch.
pub fn characterize_launch_sharded(
    device: &mut Device,
    kernel: &Kernel,
    config: &LaunchConfig,
    args: &[Value],
    threads: usize,
) -> Result<KernelProfile, SimtError> {
    let mut profiler = Profiler::new();
    profile_launch_sharded(device, kernel, config, args, &mut profiler, threads)?;
    Ok(profiler.finish(kernel.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_simt::builder::KernelBuilder;

    /// A kernel that stresses every observer: divergence, shared memory
    /// with barrier, global loads of a shared table (reuse + sharing),
    /// and a strided store.
    fn busy_kernel() -> Kernel {
        let mut b = KernelBuilder::new("busy");
        let table = b.param_u32("table");
        let out = b.param_u32("out");
        let smem = b.alloc_shared(64 * 4);
        let i = b.global_tid_x();
        let tid = b.var_u32(b.tid_x());
        let sa = b.index(smem, tid, 4);
        b.st_shared_u32(sa, i);
        b.barrier();
        let bit = b.and_u32(i, Value::U32(1));
        let odd = b.eq_u32(bit, Value::U32(1));
        let acc = b.var_f32(Value::F32(0.0));
        b.if_(odd, |b| {
            b.for_range_u32(Value::U32(0), Value::U32(8), 1, |b, j| {
                let sel = b.rem_u32(j, Value::U32(16));
                let ta = b.index(table, sel, 4);
                let v = b.ld_global_f32(ta);
                let n = b.add_f32(acc, v);
                b.assign(acc, n);
            });
        });
        let oi = b.index(out, i, 4);
        b.st_global_f32(oi, acc);
        b.build().unwrap()
    }

    fn setup(dev: &mut Device) -> Vec<Value> {
        let table = dev.alloc_f32(&[1.5; 16]);
        let out = dev.alloc_zeroed_f32(64 * 24);
        vec![table.arg(), out.arg()]
    }

    #[test]
    fn sharded_profile_is_bit_identical_to_serial() {
        let k = busy_kernel();
        let config = LaunchConfig::new(24, 64);

        let mut dev_s = Device::new();
        let args = setup(&mut dev_s);
        let serial = crate::characterize_launch(&mut dev_s, &k, &config, &args).unwrap();

        for threads in [2, 3, 4, 8] {
            let mut dev_p = Device::new();
            let args = setup(&mut dev_p);
            let sharded =
                characterize_launch_sharded(&mut dev_p, &k, &config, &args, threads).unwrap();
            for (i, (a, b)) in serial.values().iter().zip(sharded.values()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dim {i} differs at {threads} threads: {a} vs {b}"
                );
            }
            assert_eq!(serial.raw(), sharded.raw());
            assert_eq!(
                dev_s.global_image(),
                dev_p.global_image(),
                "global memory diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn sharded_sketch_tier_is_bit_identical_to_serial() {
        use crate::sketch::ObserverTier;

        let k = busy_kernel();
        let config = LaunchConfig::new(24, 64);

        let mut dev_s = Device::new();
        let args = setup(&mut dev_s);
        let mut serial_p = Profiler::with_tier(ObserverTier::Sketch);
        profile_launch_sharded(&mut dev_s, &k, &config, &args, &mut serial_p, 1).unwrap();
        let serial = serial_p.finish("busy");

        for threads in [2, 3, 4, 8] {
            let mut dev_p = Device::new();
            let args = setup(&mut dev_p);
            let mut sharded_p = Profiler::with_tier(ObserverTier::Sketch);
            profile_launch_sharded(&mut dev_p, &k, &config, &args, &mut sharded_p, threads)
                .unwrap();
            assert_eq!(sharded_p.tier(), ObserverTier::Sketch);
            let sharded = sharded_p.finish("busy");
            for (i, (a, b)) in serial.values().iter().zip(sharded.values()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "sketch dim {i} differs at {threads} threads: {a} vs {b}"
                );
            }
            assert_eq!(serial.raw(), sharded.raw());
        }
    }

    #[test]
    fn exec_profiles_are_thread_count_invariant() {
        use gwc_simt::profile::ExecProfile;

        let k = busy_kernel();
        let config = LaunchConfig::new(24, 64);
        let mut reference: Option<ExecProfile> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut dev = Device::new();
            dev.set_exec_profiling(Some(true));
            let args = setup(&mut dev);
            characterize_launch_sharded(&mut dev, &k, &config, &args, threads).unwrap();
            let exec = dev.take_exec_profile().expect("profile collected");
            assert!(exec.pcs().iter().any(|c| c.lane_uops > 0));
            // Shard merging is elementwise addition, so the merged
            // profile must be bit-identical no matter how the blocks
            // were split.
            match &reference {
                Some(r) => assert_eq!(r, &exec, "exec profile differs at {threads} threads"),
                None => reference = Some(exec),
            }
        }
    }

    #[test]
    fn global_atomics_fall_back_to_serial() {
        let mut b = KernelBuilder::new("atomic");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let slot = b.rem_u32(i, Value::U32(4));
        let oa = b.index(out, slot, 4);
        b.atomic_add_global_u32(oa, Value::U32(1));
        let k = b.build().unwrap();
        assert!(!k.is_block_shardable());

        let config = LaunchConfig::new(16, 32);
        let mut dev_s = Device::new();
        let out_s = dev_s.alloc_zeroed_u32(4);
        let serial = crate::characterize_launch(&mut dev_s, &k, &config, &[out_s.arg()]).unwrap();

        let mut dev_p = Device::new();
        let out_p = dev_p.alloc_zeroed_u32(4);
        let sharded =
            characterize_launch_sharded(&mut dev_p, &k, &config, &[out_p.arg()], 4).unwrap();
        assert_eq!(serial.values(), sharded.values());
        assert_eq!(dev_s.read_u32(&out_s), dev_p.read_u32(&out_p));
        assert_eq!(dev_s.read_u32(&out_s), vec![128; 4]);
    }

    #[test]
    fn fallback_reason_reaches_the_recorder() {
        use gwc_obs::metrics::MetricsRecorder;
        use std::sync::Arc;

        // A kernel with inter-block atomics: outside the block-sharding
        // contract, so a parallel request must fall back to serial and
        // say why.
        let mut b = KernelBuilder::new("atomic_fallback_probe");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let slot = b.rem_u32(i, Value::U32(2));
        let oa = b.index(out, slot, 4);
        b.atomic_add_global_u32(oa, Value::U32(1));
        let k = b.build().unwrap();
        assert_eq!(k.shard_blocker(), Some("global-atomics"));

        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let mut dev = Device::new();
        let out = dev.alloc_zeroed_u32(2);
        characterize_launch_sharded(&mut dev, &k, &LaunchConfig::new(8, 32), &[out.arg()], 4)
            .unwrap();
        drop(guard);

        let snap = rec.snapshot();
        let fb = snap
            .fallbacks
            .iter()
            .find(|f| f.kernel == "atomic_fallback_probe")
            .expect("fallback recorded");
        assert_eq!(fb.reason, "global-atomics");
        assert_eq!(fb.count, 1);
        // The launch itself still retired (through the serial path).
        assert!(snap
            .kernels
            .iter()
            .any(|k| k.name == "atomic_fallback_probe" && k.launches == 1));
    }

    #[test]
    fn no_fallback_recorded_when_serial_was_requested() {
        use gwc_obs::metrics::MetricsRecorder;
        use std::sync::Arc;

        let mut b = KernelBuilder::new("serial_request_probe");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let oa = b.index(out, i, 4);
        b.atomic_add_global_u32(oa, Value::U32(1));
        let k = b.build().unwrap();

        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let mut dev = Device::new();
        let out = dev.alloc_zeroed_u32(8 * 32);
        characterize_launch_sharded(&mut dev, &k, &LaunchConfig::new(8, 32), &[out.arg()], 1)
            .unwrap();
        drop(guard);
        assert!(
            rec.snapshot()
                .fallbacks
                .iter()
                .all(|f| f.kernel != "serial_request_probe"),
            "threads=1 is a request for serial execution, not a fallback"
        );
    }

    /// The instruction budget is per launch at any thread count: a
    /// shardable loop whose total passes the budget fails identically
    /// even when every shard alone stays under it.
    #[test]
    fn instruction_budget_is_per_launch_at_any_thread_count() {
        use gwc_simt::exec::DeviceLimits;

        let mut b = KernelBuilder::new("spin");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let acc = b.var_u32(i);
        b.for_range_u32(Value::U32(0), Value::U32(64), 1, |b, j| {
            let n = b.add_u32(acc, j);
            b.assign(acc, n);
        });
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, acc);
        let k = b.build().unwrap();
        assert!(k.is_block_shardable());
        let config = LaunchConfig::new(8, 32);
        let run = |threads: usize, limits: Option<DeviceLimits>| {
            let mut dev = Device::new();
            if let Some(limits) = limits {
                dev.set_limits(limits);
            }
            let out = dev.alloc_zeroed_u32(8 * 32);
            characterize_launch_sharded(&mut dev, &k, &config, &[out.arg()], threads)
        };
        let total = run(1, None).unwrap().stats().warp_instrs;
        // Above half the launch, so no shard of 2 or 4 passes it alone.
        let budget = total * 3 / 5;
        let limits = DeviceLimits {
            instr_budget: budget,
        };
        for threads in [1, 2, 4] {
            assert_eq!(
                run(threads, Some(limits)).unwrap_err(),
                SimtError::InstructionBudgetExceeded { budget },
                "{threads} threads"
            );
        }
    }

    /// A shard that faults after the serial run would already have run
    /// out of budget reports the budget, not its fault: block 3 divides
    /// by zero after its loop, and the budget is only passed inside
    /// blocks 2–3 once the instructions of blocks 0–1 count too.
    #[test]
    fn budget_overrun_before_a_later_fault_wins_at_any_thread_count() {
        use gwc_simt::exec::DeviceLimits;

        let mut b = KernelBuilder::new("spin_then_divide");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let acc = b.var_u32(i);
        b.for_range_u32(Value::U32(0), Value::U32(64), 1, |b, j| {
            let n = b.add_u32(acc, j);
            b.assign(acc, n);
        });
        // 3 - ctaid.x: non-zero in blocks 0–2, zero in block 3.
        let d = b.sub_u32(Value::U32(3), b.ctaid_x());
        let q = b.div_u32(acc, d);
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, q);
        let k = b.build().unwrap();
        assert!(k.is_block_shardable());
        let run = |blocks: u32, threads: usize, limits: Option<DeviceLimits>| {
            let mut dev = Device::new();
            if let Some(limits) = limits {
                dev.set_limits(limits);
            }
            let out = dev.alloc_zeroed_u32(4 * 32);
            let config = LaunchConfig::new(blocks, 32);
            characterize_launch_sharded(&mut dev, &k, &config, &[out.arg()], threads)
        };
        // Without a tight budget block 3's division faults.
        assert!(matches!(
            run(4, 1, None).unwrap_err(),
            SimtError::DivideByZero { .. }
        ));
        // One full block; blocks 2–3 alone stay under 2.5 blocks, the
        // serial run passes it inside block 2.
        let block = run(1, 1, None).unwrap().stats().warp_instrs;
        let budget = block * 5 / 2;
        let limits = DeviceLimits {
            instr_budget: budget,
        };
        for threads in [1, 2] {
            assert_eq!(
                run(4, threads, Some(limits)).unwrap_err(),
                SimtError::InstructionBudgetExceeded { budget },
                "{threads} threads"
            );
        }
    }

    #[test]
    fn sharded_write_back_reproduces_serial_memory() {
        let mut b = KernelBuilder::new("stream");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let sq = b.mul_u32(i, i);
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, sq);
        let k = b.build().unwrap();

        let n = 1024;
        let config = LaunchConfig::linear(n, 64);
        let mut dev = Device::new();
        let out = dev.alloc_zeroed_u32(n as usize);
        characterize_launch_sharded(&mut dev, &k, &config, &[out.arg()], 4).unwrap();
        let got = dev.read_u32(&out);
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, (i as u32).wrapping_mul(i as u32), "element {i}");
        }
    }
}
