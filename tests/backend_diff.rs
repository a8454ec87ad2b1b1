//! Cross-backend differential harness: the SIMD warp engine must be
//! bit-identical to the scalar reference.
//!
//! "Bit-identical" is checked at every observable layer:
//!
//! 1. **Trace stream** — every registry kernel runs through both
//!    backends under a [`TraceHasher`], which folds the full event
//!    stream (instructions with class/active/live/operands, per-lane
//!    memory addresses, branch outcomes, barriers, launch stats) into
//!    one digest. Equal digests mean the engines retired the same
//!    events in the same order with the same masks and addresses.
//! 2. **Memory image** — after each workload the devices' entire
//!    global memory must match byte for byte, and the workload's own
//!    `verify()` must pass on the SIMD device.
//! 3. **Profiles** — the 33-dimension characteristic vector produced
//!    by the sharded characterization runtime matches bitwise across
//!    backends at 1, 2, 4 and 8 threads.
//! 4. **Engine counters** — the instruction-mix and divergence
//!    counters the engines keep in [`LaunchStats`] must equal a
//!    reference fold of the event stream ([`EventFold`]) for every
//!    registry launch and every generated kernel, on both backends.
//! 5. **Generated kernels** — hundreds of seeded random kernels from
//!    [`gwc::simt::kgen`] (divergence / stride / atomic-density knobs)
//!    sweep the corners registry workloads don't reach. Set
//!    `GWC_DIFF_KERNELS` to change the count; the `#[ignore]`d
//!    `fuzz_500_generated_kernels` test is the CI nightly-style step.
//!
//! Backends are pinned per [`Device`] via [`Device::with_backend`] —
//! never via the process-global default or `GWC_BACKEND`, which would
//! race across the test harness's threads.

use std::collections::HashSet;

use gwc::characterize::characterize_launch_sharded;
use gwc::simt::backend::BackendKind;
use gwc::simt::exec::Device;
use gwc::simt::instr::InstrClass;
use gwc::simt::kernel::Kernel;
use gwc::simt::kgen;
use gwc::simt::launch::LaunchConfig;
use gwc::simt::trace::{
    BranchEvent, InstrEvent, LaunchStats, MemEvent, TraceHasher, TraceObserver,
};
use gwc::simt::SimtError;
use gwc::workloads::{registry, Scale};

/// Registry seed; arbitrary but fixed so both backend instances see
/// identical workload data.
const SEED: u64 = 7;

/// Distinct kernels the registry must exercise for the differential
/// run to count as covering the suite. The registry currently ships
/// 41 distinct kernels across 115 launches; this floor catches an
/// accidental shrink without forbidding growth.
const MIN_REGISTRY_KERNELS: usize = 41;

/// Reference for the engines' counters: re-derives every
/// [`LaunchStats`] field from the event stream, one event at a time,
/// while forwarding every event to a [`TraceHasher`].
#[derive(Default)]
struct EventFold {
    hasher: TraceHasher,
    stats: LaunchStats,
}

impl TraceObserver for EventFold {
    fn on_launch(&mut self, kernel: &Kernel, config: &LaunchConfig) {
        self.stats.blocks += config.blocks() as u64;
        self.stats.warps += (config.blocks() * config.warps_per_block()) as u64;
        self.hasher.on_launch(kernel, config);
    }

    fn on_instr(&mut self, e: &InstrEvent<'_>) {
        let s = &mut self.stats;
        let lanes = e.active_lanes() as u64;
        let slot = InstrClass::ALL.iter().position(|&c| c == e.class);
        s.warp_instrs += 1;
        s.thread_instrs += lanes;
        s.lanes_by_class[slot.expect("class in ALL")] += lanes;
        s.active_by_live[e.live.count_ones().max(1) as usize] += lanes;
        if e.active != e.live {
            s.diverged_warp_instrs += 1;
        }
        self.hasher.on_instr(e);
    }

    fn on_mem(&mut self, e: &MemEvent<'_>) {
        self.hasher.on_mem(e);
    }

    fn on_branch(&mut self, e: &BranchEvent) {
        self.stats.branches += 1;
        if e.divergent() {
            self.stats.divergent_branches += 1;
        }
        self.hasher.on_branch(e);
    }

    fn on_barrier(&mut self, block: u32) {
        self.stats.barriers += 1;
        self.hasher.on_barrier(block);
    }

    fn on_launch_end(&mut self, stats: &LaunchStats) {
        self.hasher.on_launch_end(stats);
    }
}

fn diff_kernel_count() -> u64 {
    std::env::var("GWC_DIFF_KERNELS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Runs every launch of every registry workload through both backends
/// and asserts the traces, stats, final memory images and workload
/// verification all agree.
#[test]
fn registry_traces_bit_identical_across_backends() {
    let mut scalar_wl = registry::all_workloads(SEED);
    let mut simd_wl = registry::all_workloads(SEED);
    assert_eq!(scalar_wl.len(), simd_wl.len());

    let mut kernels = HashSet::new();
    for (ws, wp) in scalar_wl.iter_mut().zip(simd_wl.iter_mut()) {
        let name = ws.meta().name;
        let mut ds = Device::with_backend(BackendKind::Scalar);
        let mut dp = Device::with_backend(BackendKind::Simd);
        let specs_s = ws.setup(&mut ds, Scale::Tiny).expect("scalar setup");
        let specs_p = wp.setup(&mut dp, Scale::Tiny).expect("simd setup");
        assert_eq!(specs_s.len(), specs_p.len(), "{name}: launch count");

        for (ls, lp) in specs_s.iter().zip(specs_p.iter()) {
            assert_eq!(
                ls.kernel.content_hash(),
                lp.kernel.content_hash(),
                "{name}/{}: setup must be backend-independent",
                ls.label
            );
            kernels.insert(ls.kernel.content_hash());

            let mut hs = TraceHasher::new();
            let mut hp = TraceHasher::new();
            let ss = ds
                .launch_observed(&ls.kernel, &ls.config, &ls.args, &mut hs)
                .expect("scalar launch");
            let sp = dp
                .launch_observed(&lp.kernel, &lp.config, &lp.args, &mut hp)
                .expect("simd launch");
            assert_eq!(ss, sp, "{name}/{}: launch stats", ls.label);
            assert_eq!(
                hs.events(),
                hp.events(),
                "{name}/{}: trace event count",
                ls.label
            );
            assert_eq!(
                hs.digest(),
                hp.digest(),
                "{name}/{}: trace digest",
                ls.label
            );
        }

        assert_eq!(
            ds.global_image(),
            dp.global_image(),
            "{name}: global memory image"
        );
        ws.verify(&ds).expect("scalar verify");
        wp.verify(&dp).expect("simd verify");
    }

    assert!(
        kernels.len() >= MIN_REGISTRY_KERNELS,
        "registry exercised only {} distinct kernels (< {MIN_REGISTRY_KERNELS})",
        kernels.len()
    );
}

/// The characteristic vectors from the sharded runtime must match
/// bitwise across backends at every supported thread count.
#[test]
fn registry_profiles_bit_identical_across_backends_and_threads() {
    for threads in [1usize, 2, 4, 8] {
        let mut scalar_wl = registry::all_workloads(SEED);
        let mut simd_wl = registry::all_workloads(SEED);
        for (ws, wp) in scalar_wl.iter_mut().zip(simd_wl.iter_mut()) {
            let name = ws.meta().name;
            let mut ds = Device::with_backend(BackendKind::Scalar);
            let mut dp = Device::with_backend(BackendKind::Simd);
            let specs_s = ws.setup(&mut ds, Scale::Tiny).expect("scalar setup");
            let specs_p = wp.setup(&mut dp, Scale::Tiny).expect("simd setup");

            for (ls, lp) in specs_s.iter().zip(specs_p.iter()) {
                let ps =
                    characterize_launch_sharded(&mut ds, &ls.kernel, &ls.config, &ls.args, threads)
                        .expect("scalar profile");
                let pp =
                    characterize_launch_sharded(&mut dp, &lp.kernel, &lp.config, &lp.args, threads)
                        .expect("simd profile");
                assert_eq!(
                    ps.raw(),
                    pp.raw(),
                    "{name}/{} @{threads} threads: raw counts",
                    ls.label
                );
                let vs: Vec<u64> = ps.values().iter().map(|v| v.to_bits()).collect();
                let vp: Vec<u64> = pp.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    vs, vp,
                    "{name}/{} @{threads} threads: characteristic vector",
                    ls.label
                );
            }
        }
    }
}

/// Retired-µop accounting must be backend-invariant: with execution
/// profiling forced on (no recorder needed), both engines must report
/// identical per-pc warp/lane counts for every registry launch (each
/// engine accounts every retired µop at its own pc), the per-pc counts
/// must sum to the launch stats in total and per class, and the stats
/// must equal the [`EventFold`] reference.
#[test]
fn exec_profiles_identical_across_backends() {
    let mut scalar_wl = registry::all_workloads(SEED);
    let mut simd_wl = registry::all_workloads(SEED);
    for (ws, wp) in scalar_wl.iter_mut().zip(simd_wl.iter_mut()) {
        let name = ws.meta().name;
        let mut ds = Device::with_backend(BackendKind::Scalar);
        let mut dp = Device::with_backend(BackendKind::Simd);
        ds.set_exec_profiling(Some(true));
        dp.set_exec_profiling(Some(true));
        let specs_s = ws.setup(&mut ds, Scale::Tiny).expect("scalar setup");
        let specs_p = wp.setup(&mut dp, Scale::Tiny).expect("simd setup");

        for (ls, lp) in specs_s.iter().zip(specs_p.iter()) {
            let mut fs = EventFold::default();
            let mut fp = EventFold::default();
            let ss = ds
                .launch_observed(&ls.kernel, &ls.config, &ls.args, &mut fs)
                .expect("scalar launch");
            let sp = dp
                .launch_observed(&lp.kernel, &lp.config, &lp.args, &mut fp)
                .expect("simd launch");
            let es = ds.take_exec_profile().expect("scalar profile collected");
            let ep = dp.take_exec_profile().expect("simd profile collected");
            assert_eq!(es, ep, "{name}/{}: exec profiles", ls.label);
            // The profile shadows the launch statistics exactly: both
            // engines account one µop per retired µop.
            assert_eq!(ss, sp, "{name}/{}: launch stats", ls.label);
            assert_eq!(fs.stats, ss, "{name}/{}: scalar counters", ls.label);
            assert_eq!(fp.stats, sp, "{name}/{}: simd counters", ls.label);
            let dec = ls.kernel.decoded();
            let mut warp_uops = 0;
            let mut lanes_by_class = [0u64; InstrClass::ALL.len()];
            for (pc, c) in es.pcs().iter().enumerate() {
                warp_uops += c.warp_uops;
                lanes_by_class[dec.class(pc) as usize] += c.lane_uops;
            }
            assert_eq!(warp_uops, ss.warp_instrs, "{name}/{}: warp µops", ls.label);
            assert_eq!(
                lanes_by_class.iter().sum::<u64>(),
                ss.thread_instrs,
                "{name}/{}: lane µops",
                ls.label
            );
            assert_eq!(
                lanes_by_class, ss.lanes_by_class,
                "{name}/{}: lane µops per class",
                ls.label
            );
        }
    }
}

/// Runs one generated kernel through both backends and asserts trace,
/// stats (against each other and the [`EventFold`] reference) and
/// memory equivalence (or that both fail identically).
fn diff_generated(seed: u64) {
    let gk = kgen::generate_seeded(seed).expect("kernel generation");
    let mut ds = Device::with_backend(BackendKind::Scalar);
    let mut dp = Device::with_backend(BackendKind::Simd);
    let args_s = gk.alloc_args(&mut ds);
    let args_p = gk.alloc_args(&mut dp);

    let mut fs = EventFold::default();
    let mut fp = EventFold::default();
    let rs = ds.launch_observed(&gk.kernel, &gk.config, &args_s.args, &mut fs);
    let rp = dp.launch_observed(&gk.kernel, &gk.config, &args_p.args, &mut fp);
    let (hs, hp) = (&fs.hasher, &fp.hasher);

    match (&rs, &rp) {
        (Ok(ss), Ok(sp)) => {
            assert_eq!(ss, sp, "seed {seed}: launch stats");
            assert_eq!(&fs.stats, ss, "seed {seed}: scalar counters");
            assert_eq!(&fp.stats, sp, "seed {seed}: simd counters");
        }
        (Err(es), Err(ep)) => {
            assert_eq!(format!("{es:?}"), format!("{ep:?}"), "seed {seed}: errors")
        }
        _ => panic!("seed {seed}: one backend failed, the other did not: {rs:?} vs {rp:?}"),
    }
    assert_eq!(hs.events(), hp.events(), "seed {seed}: trace event count");
    assert_eq!(hs.digest(), hp.digest(), "seed {seed}: trace digest");
    assert_eq!(
        ds.global_image(),
        dp.global_image(),
        "seed {seed}: global memory image"
    );
    assert_eq!(
        ds.read_u32(&args_s.out),
        dp.read_u32(&args_p.out),
        "seed {seed}: u32 outputs"
    );
}

/// Sweeps seeded random kernels (default 200, `GWC_DIFF_KERNELS` to
/// override) through both backends.
#[test]
fn generated_kernels_bit_identical_across_backends() {
    let n = diff_kernel_count();
    for seed in 0..n {
        diff_generated(seed);
    }
}

/// Generated kernels without atomics honor the block-sharding contract
/// (read-only loads, thread-private stores), so their profiles must
/// also agree across backends and thread counts. Kernels with atomics
/// exercise the serial fallback instead — both are profiled.
#[test]
fn generated_kernel_profiles_match_across_backends() {
    for seed in 200..240 {
        let gk = kgen::generate_seeded(seed).expect("kernel generation");
        for threads in [1usize, 4] {
            let mut ds = Device::with_backend(BackendKind::Scalar);
            let mut dp = Device::with_backend(BackendKind::Simd);
            let args_s = gk.alloc_args(&mut ds);
            let args_p = gk.alloc_args(&mut dp);
            let ps =
                characterize_launch_sharded(&mut ds, &gk.kernel, &gk.config, &args_s.args, threads);
            let pp =
                characterize_launch_sharded(&mut dp, &gk.kernel, &gk.config, &args_p.args, threads);
            match (ps, pp) {
                (Ok(ps), Ok(pp)) => {
                    assert_eq!(ps.raw(), pp.raw(), "seed {seed} @{threads}: raw counts");
                    let vs: Vec<u64> = ps.values().iter().map(|v| v.to_bits()).collect();
                    let vp: Vec<u64> = pp.values().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(vs, vp, "seed {seed} @{threads}: characteristic vector");
                }
                (Err(es), Err(ep)) => {
                    assert_eq!(format!("{es:?}"), format!("{ep:?}"), "seed {seed}: errors")
                }
                (ps, pp) => panic!("seed {seed}: backend disagreement: {ps:?} vs {pp:?}"),
            }
        }
    }
}

/// Faulting kernels must fault identically: same error, same partial
/// memory writes, same trace prefix. Exercises the out-of-bounds and
/// divide-by-zero paths the generator deliberately avoids.
#[test]
fn faulting_kernels_fail_identically_across_backends() {
    use gwc::simt::builder::KernelBuilder;
    use gwc::simt::instr::Value;

    // Out-of-bounds store at a thread-dependent pc.
    let mut b = KernelBuilder::new("oob_store");
    let base = b.param_u32("base");
    let i = b.global_tid_x();
    let addr = b.index(base, i, 64);
    b.st_global_u32(addr, i);
    let oob = b.build().expect("build oob kernel");

    // Divide by a value that is zero for the lower half-warp.
    let mut b = KernelBuilder::new("div_fault");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let divisor = b.and_u32(i, Value::U32(16));
    let q = b.div_u32(i, divisor);
    let addr = b.index(out, i, 4);
    b.st_global_u32(addr, q);
    let div = b.build().expect("build div kernel");

    for kernel in [&oob, &div] {
        let mut ds = Device::with_backend(BackendKind::Scalar);
        let mut dp = Device::with_backend(BackendKind::Simd);
        let bs = ds.alloc_zeroed_u32(8);
        let bp = dp.alloc_zeroed_u32(8);
        let cfg = LaunchConfig::linear(64, 64);
        let mut hs = TraceHasher::new();
        let mut hp = TraceHasher::new();
        let rs = ds.launch_observed(kernel, &cfg, &[bs.arg()], &mut hs);
        let rp = dp.launch_observed(kernel, &cfg, &[bp.arg()], &mut hp);
        let es = rs.expect_err("scalar launch must fault");
        let ep = rp.expect_err("simd launch must fault");
        assert!(matches!(
            es,
            SimtError::OutOfBounds { .. } | SimtError::DivideByZero { .. }
        ));
        assert_eq!(
            format!("{es:?}"),
            format!("{ep:?}"),
            "{}: error",
            kernel.name()
        );
        assert_eq!(hs.digest(), hp.digest(), "{}: trace prefix", kernel.name());
        assert_eq!(
            ds.global_image(),
            dp.global_image(),
            "{}: partial writes",
            kernel.name()
        );
    }
}

/// Co-scheduled pair launches must be bit-identical across backends
/// under every dispatch policy — and each member's own trace must equal
/// its solo run. Every policy keeps a kernel's blocks in ascending
/// order on one device, so co-residence never changes what either
/// member executes: interference is observational (the shared reuse
/// timeline), never semantic.
///
/// The solo baselines set up *both* members (so the device heap layout
/// matches the co-run byte for byte) but launch only one, making the
/// per-member trace digests directly comparable.
#[test]
fn pair_launches_bit_identical_across_backends_and_policies() {
    use gwc::simt::exec::PairLaunch;
    use gwc::simt::sched::{PerKernel, SchedPolicy};
    use gwc::workloads::pairs::{partner_member, registry_member, PAIR_SCENARIOS};
    use gwc::workloads::LaunchSpec;

    fn pl(l: &LaunchSpec) -> PairLaunch<'_> {
        PairLaunch {
            kernel: &l.kernel,
            config: &l.config,
            args: &l.args,
        }
    }

    for scenario in &PAIR_SCENARIOS {
        // Per member: one (digest, events, stats) entry per launch.
        let mut solo = [Vec::new(), Vec::new()];
        for (member, records) in solo.iter_mut().enumerate() {
            let mut wa = registry_member(scenario.a, SEED);
            let mut wb = partner_member(scenario.partner, SEED);
            let mut dev = Device::with_backend(BackendKind::Simd);
            let la = wa.setup(&mut dev, Scale::Tiny).expect("solo setup a");
            let lb = wb.setup(&mut dev, Scale::Tiny).expect("solo setup b");
            for l in if member == 0 { &la } else { &lb } {
                let mut h = TraceHasher::new();
                let stats = dev
                    .launch_observed(&l.kernel, &l.config, &l.args, &mut h)
                    .expect("solo launch");
                records.push((h.digest(), h.events(), stats));
            }
        }

        for policy in SchedPolicy::ALL {
            let what = format!("{}/{}", scenario.name, policy.name());
            let mut a_s = registry_member(scenario.a, SEED);
            let mut b_s = partner_member(scenario.partner, SEED);
            let mut a_p = registry_member(scenario.a, SEED);
            let mut b_p = partner_member(scenario.partner, SEED);
            let mut ds = Device::with_backend(BackendKind::Scalar);
            let mut dp = Device::with_backend(BackendKind::Simd);
            let la_s = a_s.setup(&mut ds, Scale::Tiny).expect("scalar setup a");
            let lb_s = b_s.setup(&mut ds, Scale::Tiny).expect("scalar setup b");
            let la_p = a_p.setup(&mut dp, Scale::Tiny).expect("simd setup a");
            let lb_p = b_p.setup(&mut dp, Scale::Tiny).expect("simd setup b");
            let paired = la_s.len().min(lb_s.len());

            for i in 0..paired {
                let mut hs = PerKernel::new(vec![TraceHasher::new(), TraceHasher::new()]);
                let mut hp = PerKernel::new(vec![TraceHasher::new(), TraceHasher::new()]);
                let ss = ds
                    .launch_pair(pl(&la_s[i]), pl(&lb_s[i]), policy, &mut hs)
                    .expect("scalar pair launch");
                let sp = dp
                    .launch_pair(pl(&la_p[i]), pl(&lb_p[i]), policy, &mut hp)
                    .expect("simd pair launch");
                assert_eq!(ss, sp, "{what}: pair launch stats");
                let hs = hs.into_members();
                let hp = hp.into_members();
                for m in 0..2 {
                    assert_eq!(
                        hs[m].digest(),
                        hp[m].digest(),
                        "{what}: member {m} trace digest"
                    );
                    let (digest, events, stats) = &solo[m][i];
                    assert_eq!(
                        hs[m].digest(),
                        *digest,
                        "{what}: member {m} co-run trace must equal its solo run"
                    );
                    assert_eq!(hs[m].events(), *events, "{what}: member {m} event count");
                    assert_eq!(ss[m], *stats, "{what}: member {m} stats must equal solo");
                }
            }
            // Leftover launches of the longer member keep both devices
            // (and the solo baseline) in lockstep.
            for (specs_s, specs_p) in [(&la_s, &la_p), (&lb_s, &lb_p)] {
                for (ls, lp) in specs_s.iter().zip(specs_p.iter()).skip(paired) {
                    let ss = ds
                        .launch(&ls.kernel, &ls.config, &ls.args)
                        .expect("scalar leftover");
                    let sp = dp
                        .launch(&lp.kernel, &lp.config, &lp.args)
                        .expect("simd leftover");
                    assert_eq!(ss, sp, "{what}: leftover stats");
                }
            }

            assert_eq!(
                ds.global_image(),
                dp.global_image(),
                "{what}: global memory image"
            );
            a_s.verify(&ds).expect("scalar member a verifies");
            b_s.verify(&ds).expect("scalar member b verifies");
            a_p.verify(&dp).expect("simd member a verifies");
            b_p.verify(&dp).expect("simd member b verifies");
        }
    }
}

/// Nightly-style fuzz sweep: 500 generated kernels through the
/// differential check. Run explicitly (CI does) with
/// `cargo test --test backend_diff -- --ignored`.
#[test]
#[ignore = "long fuzz sweep; run explicitly or via the CI fuzz job"]
fn fuzz_500_generated_kernels() {
    for seed in 1_000..1_500 {
        diff_generated(seed);
    }
}
