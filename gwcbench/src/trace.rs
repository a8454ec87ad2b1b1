//! The traced pass: per-layer costs, timed from the benchmark's own code
//! around calls into each crate's public functions.
//!
//! The pass never reads the program's recorder or its span rollups.
//! Every time below comes from a [`Tracer`] span opened and closed here,
//! and every count from a value a public call returned.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gwc_bench::run_experiment;
use gwc_characterize::coalescing::CoalescingObserver;
use gwc_characterize::divergence::DivergenceObserver;
use gwc_characterize::ilp::IlpObserver;
use gwc_characterize::locality::LocalityObserver;
use gwc_characterize::mix::MixObserver;
use gwc_characterize::sketch::{self, SketchLocalityObserver};
use gwc_characterize::{
    profile_launch_sharded, KernelProfile, MatrixCache, ObserverTier, ProfileCache, Profiler,
};
use gwc_core::parallel::parallel_map_named;
use gwc_core::pipeline::{
    Artifacts, ClusterStage, MatrixStage, PairsStage, PipelineConfig, ReduceStage, Stage,
    StudyStage,
};
use gwc_core::Study;
use gwc_obs::metrics::MetricsRecorder;
use gwc_simt::exec::Device;
use gwc_simt::trace::{LaunchStats, TraceObserver};
use gwc_workloads::fingerprint::workload_fingerprint;
use gwc_workloads::{registry, Workload};

use crate::host::TaskSampler;
use crate::run::{self, rows_digest, Spec};

/// The four workloads that dominate profiled time at `Scale::Full`;
/// each gets its own engine and profiled-time metric.
pub const HOT: [&str; 4] = ["similarity_score", "tpacf", "matrix_mul", "bitonic_sort"];

/// Observers whose marginal cost is measured, by metric stem.
pub const OBSERVERS: [&str; 6] = [
    "mix",
    "divergence",
    "ilp",
    "coalescing",
    "locality",
    "locality_sketch",
];

/// Largest relative gap allowed between the decomposed study layers and
/// the study's own time (see [`Report::conservation`]). Measured gaps are
/// 2-4% on a quiet host and up to 8% on a loaded one; the rest is
/// headroom.
pub const STUDY_TOLERANCE: f64 = 0.2;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans: name, start, end, and the enclosing span.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) -> u64 {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Times `f` as a leaf span named `name`; returns its result and
    /// duration.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// Self time by span name: each span's duration minus the part its
    /// children cover, summed over spans of that name.
    pub fn self_ns(&self) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name.clone()).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }
}

/// Per-layer counts gathered alongside the spans.
#[derive(Debug, Default)]
struct Counts {
    launches: u64,
    engine: LaunchStats,
    observer_bytes_peak: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes_read: u64,
}

fn base_name(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

/// Replays one workload's launches through `launch` inside a span named
/// `span`, grouping observer state by launch label as the study does;
/// returns the summed instruction counts and the span's duration.
fn replay<O>(
    w: &mut dyn Workload,
    spec: &Spec,
    tracer: &mut Tracer,
    span: &str,
    mut launch: impl FnMut(&mut Device, &gwc_workloads::LaunchSpec, &mut O) -> LaunchStats,
    mut make: impl FnMut() -> O,
) -> Result<(LaunchStats, u64), String> {
    let mut dev = Device::new();
    let launches = w
        .setup(&mut dev, spec.scale)
        .map_err(|e| format!("{e:?}"))?;
    let mut state: BTreeMap<&str, O> = BTreeMap::new();
    let mut total = LaunchStats::default();
    tracer.enter(span);
    for l in &launches {
        let obs = state.entry(l.label.as_str()).or_insert_with(&mut make);
        let s = launch(&mut dev, l, obs);
        total.warp_instrs += s.warp_instrs;
        total.thread_instrs += s.thread_instrs;
    }
    Ok((total, tracer.exit()))
}

fn observed<O: TraceObserver>(
    dev: &mut Device,
    l: &gwc_workloads::LaunchSpec,
    o: &mut O,
) -> LaunchStats {
    dev.launch_observed(&l.kernel, &l.config, &l.args, o)
        .expect("replayed launch succeeds as it did in the study")
}

/// The decomposition of one workload instance, mirroring
/// `Study::run_one_cached` call for call with a span around each layer.
/// Returns the instance's profiles and fingerprint, and whether it
/// simulated (a cache miss or no cache).
#[allow(clippy::too_many_arguments)]
fn decompose_one(
    w: &mut dyn Workload,
    spec: &Spec,
    seed: u64,
    cache: Option<&ProfileCache>,
    store_probe: Option<&ProfileCache>,
    tracer: &mut Tracer,
    counts: &mut Counts,
    profiled_by_base: &mut BTreeMap<String, u64>,
) -> Result<(Vec<KernelProfile>, u64, bool), String> {
    let meta = w.meta();
    tracer.enter("study.workload");
    let mut dev = Device::new();
    let (launches, _) = tracer.time("workloads.setup", || w.setup(&mut dev, spec.scale));
    let launches = launches.map_err(|e| format!("{}: {e:?}", meta.name))?;
    let salt = match spec.tier {
        ObserverTier::Exact => 0,
        ObserverTier::Sketch => sketch::CACHE_SALT,
    };
    let (fp, _) = tracer.time("workloads.fingerprint", || {
        workload_fingerprint(meta.name, seed, spec.scale, &launches) ^ salt
    });
    if let Some(c) = cache {
        let (loaded, _) = tracer.time("characterize.cache_load", || c.load(fp));
        if let Some(profiles) = loaded {
            counts.cache_hits += 1;
            let entry = c.dir().join(format!("{:016x}.json", ProfileCache::key(fp)));
            counts.cache_bytes_read += std::fs::metadata(entry).map(|m| m.len()).unwrap_or(0);
            // The write side of the cache, paid during set-up's fill,
            // is timed by storing the same entry into a probe directory.
            if let Some(p) = store_probe {
                tracer.time("characterize.cache_store", || p.store(fp, &profiles));
            }
            tracer.exit();
            return Ok((profiles, fp, false));
        }
        counts.cache_misses += 1;
    }
    let mut order: Vec<String> = Vec::new();
    let mut profilers: BTreeMap<String, Profiler> = BTreeMap::new();
    let mut profiled = 0;
    for l in &launches {
        if !profilers.contains_key(&l.label) {
            order.push(l.label.clone());
            profilers.insert(l.label.clone(), Profiler::with_tier(spec.tier));
        }
        let p = profilers.get_mut(&l.label).expect("just inserted");
        let (r, ns) = tracer.time("characterize.profiled", || {
            profile_launch_sharded(&mut dev, &l.kernel, &l.config, &l.args, p, 1)
        });
        r.map_err(|e| format!("{}: {e:?}", meta.name))?;
        profiled += ns;
        counts.observer_bytes_peak = counts.observer_bytes_peak.max(p.observer_bytes());
    }
    *profiled_by_base
        .entry(base_name(meta.name).to_string())
        .or_insert(0) += profiled;
    let (verified, _) = tracer.time("workloads.verify", || w.verify(&dev));
    verified.map_err(|e| format!("{}: {e:?}", meta.name))?;
    let (profiles, _) = tracer.time("characterize.finish", || {
        order
            .into_iter()
            .map(|label| {
                let p = profilers.remove(&label).expect("grouped");
                p.finish(label)
            })
            .collect::<Vec<KernelProfile>>()
    });
    if let Some(c) = cache {
        tracer.time("characterize.cache_store", || c.store(fp, &profiles));
    }
    tracer.exit();
    Ok((profiles, fp, true))
}

/// Study time a traced pass decomposes before it stops repeating.
const MIN_DECOMPOSED_NS: u64 = 250_000_000;

/// Most decomposition passes one traced pass makes.
const MAX_PASSES: u64 = 64;

/// What one decomposition pass produced besides its spans.
struct Pass {
    counts: Counts,
    profiled_by_base: BTreeMap<String, u64>,
    engine_by_base: BTreeMap<String, u64>,
    /// Digest of the decomposed profiles of the matrix population.
    rows_digest: u64,
    /// Thread instructions of every decomposed profile.
    instrs: u64,
    /// Time in `Study::run_one_cached` itself.
    run_one_ns: u64,
}

/// One workload instance at a time: the study's layers, then the
/// study's own `Study::run_one_cached` on a fresh instance (timed right
/// beside its decomposition, so host drift hits both alike), then the
/// engine alone, then each observer alone over the same launches.
fn decompose_pass(
    spec: &Spec,
    seed: u64,
    cfg: &PipelineConfig,
    profile_cache: Option<&ProfileCache>,
    probe: Option<&ProfileCache>,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let instances = registry::study_workloads(seed, spec.study_scale).len();
    let mut pops: Vec<_> = (0..3 + OBSERVERS.len())
        .map(|_| registry::study_workloads(seed, spec.study_scale).into_iter())
        .collect();
    let mut counts = Counts::default();
    let mut profiled_by_base = BTreeMap::new();
    let mut engine_by_base = BTreeMap::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut instrs = 0u64;
    let mut run_one_ns = 0;
    let mut fingerprints = Vec::new();
    for _ in 0..instances {
        let mut w = pops[0].next().expect("one instance per population");
        let name = w.meta().name;
        let (profiles, fp, simulated) = decompose_one(
            w.as_mut(),
            spec,
            seed,
            profile_cache,
            probe,
            tr,
            &mut counts,
            &mut profiled_by_base,
        )?;
        drop(w);
        instrs += profiles.iter().map(|p| p.raw().thread_instrs).sum::<u64>();
        if Some(name) != cfg.exclude_workload {
            rows.extend(profiles.iter().map(|p| p.values().to_vec()));
            fingerprints.push(fp);
        }
        // Every population advances one instance, simulated or not, so
        // they stay aligned.
        let mut fresh = pops[1..]
            .iter_mut()
            .map(|p| p.next().expect("one instance per population"))
            .collect::<Vec<_>>()
            .into_iter();
        let mut w = fresh.next().expect("study instance");
        let (ran, ns) = tr.time("study.run_one_cached", || {
            Study::run_one_cached(w.as_mut(), &cfg.study, 1, profile_cache)
        });
        ran.map_err(|e| format!("{name}: {e:?}"))?;
        run_one_ns += ns;
        drop(w);
        if !simulated {
            continue;
        }
        let mut w = fresh.next().expect("engine instance");
        let mut launches = 0u64;
        let (stats, engine_ns) = replay(
            w.as_mut(),
            spec,
            tr,
            "simt.engine",
            |dev, l, _: &mut ()| {
                launches += 1;
                dev.launch(&l.kernel, &l.config, &l.args)
                    .expect("replayed launch succeeds as it did in the study")
            },
            || (),
        )?;
        *engine_by_base
            .entry(base_name(name).to_string())
            .or_insert(0) += engine_ns;
        counts.launches += launches;
        counts.engine.thread_instrs += stats.thread_instrs;
        counts.engine.warp_instrs += stats.warp_instrs;
        for obs in OBSERVERS {
            let mut w = fresh.next().expect("observer instance");
            let span = format!("observer.{obs}");
            let w = w.as_mut();
            match obs {
                "mix" => replay(w, spec, tr, &span, observed, MixObserver::new),
                "divergence" => replay(w, spec, tr, &span, observed, DivergenceObserver::new),
                "ilp" => replay(w, spec, tr, &span, observed, IlpObserver::new),
                "coalescing" => replay(w, spec, tr, &span, observed, CoalescingObserver::new),
                "locality" => replay(w, spec, tr, &span, observed, LocalityObserver::new),
                _ => replay(w, spec, tr, &span, observed, SketchLocalityObserver::new),
            }?;
        }
    }
    if let Some(c) = cfg.cache_dir.as_ref().map(MatrixCache::new) {
        for fp in &fingerprints {
            tr.time("characterize.matrix_cache_load", || c.load(*fp));
        }
    }
    Ok(Pass {
        counts,
        profiled_by_base,
        engine_by_base,
        rows_digest: rows_digest(rows.iter().map(Vec::as_slice)),
        instrs,
        run_one_ns,
    })
}

/// The outcome of a traced pass.
#[derive(Debug)]
pub struct Report {
    /// Per-layer metrics: name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Why the pass's outputs disagreed with the untraced reference, if
    /// they did.
    pub mismatches: Vec<String>,
    /// Violated conservation checks.
    pub conservation: Vec<String>,
}

/// Runs the traced pass of `spec` at `seed`.
///
/// `cache` is the warm cache directory (`warm_small`), `reference` the
/// output every untraced run reproduced, and `untraced_wall_ns` their
/// median wall time.
///
/// # Errors
///
/// Returns why a layer call failed.
pub fn traced(
    spec: &Spec,
    seed: u64,
    cache: Option<&std::path::Path>,
    reference: &run::Output,
    untraced_wall_ns: u64,
) -> Result<Report, String> {
    let sampler = TaskSampler::start(Duration::from_millis(5));
    let mut tr = Tracer::default();
    let mut mismatches = Vec::new();
    let cfg = spec.config(seed, spec.threads, cache);
    tr.enter("traced");

    // 1. The pipeline through its public stage calls, each timed.
    tr.enter("pipeline");
    let (study, _) = tr.time("core.study", || StudyStage::run(&cfg, ()));
    let (matrix, _) = tr.time("core.matrix", || MatrixStage::run(&cfg, &study));
    let (reduced, _) = tr.time("stats.reduce", || ReduceStage::run(&cfg, &matrix));
    let (clustering, _) = tr.time("stats.cluster", || ClusterStage::run(&cfg, &reduced));
    let artifacts = Artifacts {
        study,
        matrix,
        reduced,
        clustering,
        config: cfg.clone(),
    };
    let mut text = String::new();
    for id in spec.experiments {
        let (report, _) = tr.time(format!("bench.render.{id}"), || {
            run_experiment(id, &artifacts)
        });
        let _ = writeln!(text, "{}\n{report}", "=".repeat(78));
    }
    let pipeline_ns = tr.exit();
    if &run::Output::of(&artifacts, &text) != reference {
        mismatches.push("stage-by-stage pipeline differs from the untraced runs".to_string());
    }
    if spec.experiments.contains(&"e14") {
        let _ = tr.time("core.pairs", || PairsStage::run(&cfg, &artifacts.study));
    }
    drop(artifacts);

    // 2. The study decomposed, one workload instance at a time. Passes
    //    repeat until the study side has run for `MIN_DECOMPOSED_NS`: one
    //    pass on the simulating workloads, many on `warm_small`, whose
    //    sub-millisecond layer times are too short to compare once.
    let profile_cache = cache.map(ProfileCache::new);
    let probe_dir = cache.map(|_| run::WorkDir::new("store-probe"));
    let probe = probe_dir.as_ref().map(|d| ProfileCache::new(d.path()));
    tr.enter("decompose");
    let mut passes = 0u64;
    let mut run_one_ns = 0;
    let mut first: Option<Pass> = None;
    let mut profiled_by_base: BTreeMap<String, u64> = BTreeMap::new();
    let mut engine_by_base: BTreeMap<String, u64> = BTreeMap::new();
    while passes == 0 || (run_one_ns < MIN_DECOMPOSED_NS && passes < MAX_PASSES) {
        let pass = decompose_pass(
            spec,
            seed,
            &cfg,
            profile_cache.as_ref(),
            probe.as_ref(),
            &mut tr,
        )?;
        passes += 1;
        run_one_ns += pass.run_one_ns;
        if pass.rows_digest != reference.matrix_digest {
            mismatches.push("decomposed study's profiles differ from the pipeline's".to_string());
        }
        if pass.counts.launches > 0 && pass.counts.engine.thread_instrs != pass.instrs {
            mismatches.push(format!(
                "engine replay retired {} thread instructions, the profiled study {}",
                pass.counts.engine.thread_instrs, pass.instrs
            ));
        }
        for (w, ns) in &pass.profiled_by_base {
            *profiled_by_base.entry(w.clone()).or_insert(0) += ns;
        }
        for (w, ns) in &pass.engine_by_base {
            *engine_by_base.entry(w.clone()).or_insert(0) += ns;
        }
        first.get_or_insert(pass);
    }
    tr.exit();
    let counts = first.expect("at least one pass").counts;

    // 3. The study fan-out at the workload's thread count, each
    //    workload's `Study::run_one_cached` timed inside its pool task:
    //    busy time over the pool's capacity is its efficiency.
    let slots: Vec<Mutex<Option<Box<dyn Workload>>>> =
        registry::study_workloads(seed, spec.study_scale)
            .into_iter()
            .map(|w| Mutex::new(Some(w)))
            .collect();
    let (task_ns, pool_ns) = tr.time("pool", || {
        parallel_map_named("gwcbench", slots.len(), spec.threads, |i| {
            let mut w = slots[i]
                .lock()
                .expect("slot poisoned")
                .take()
                .expect("each slot taken once");
            let t0 = Instant::now();
            Study::run_one_cached(w.as_mut(), &cfg.study, 1, profile_cache.as_ref())
                .expect("workload runs as it did in the study");
            t0.elapsed().as_nanos() as u64
        })
    });
    let pool_busy_ns: u64 = task_ns.iter().sum();

    // 4. One run with the program's metrics recorder installed.
    let (recorded, recorder_ns) = {
        let _guard = gwc_obs::install(Arc::new(MetricsRecorder::default()));
        tr.time("recorder", || run::checked_pipeline(spec, &cfg))
    };
    match recorded {
        Ok((o, _)) if &o == reference => {}
        Ok(_) => mismatches.push("recorded run differs from the untraced runs".to_string()),
        Err(e) => mismatches.push(format!("recorded run failed: {e}")),
    }
    let root_ns = tr.exit();
    let waited = sampler.stop();

    let self_ns = tr.self_ns();
    let s = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    // Part 2's layers are reported per pass.
    let p = |name: &str| s(name) / passes as f64;
    let engine_ns = p("simt.engine");
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    put("workloads.setup_ns", p("workloads.setup"), "ns");
    put("workloads.verify_ns", p("workloads.verify"), "ns");
    put("workloads.fingerprint_ns", p("workloads.fingerprint"), "ns");
    put("simt.engine_ns", engine_ns, "ns");
    put("simt.launches", counts.launches as f64, "count");
    put(
        "simt.thread_instrs",
        counts.engine.thread_instrs as f64,
        "count",
    );
    put(
        "simt.warp_instrs",
        counts.engine.warp_instrs as f64,
        "count",
    );
    put("characterize.profiled_ns", p("characterize.profiled"), "ns");
    put(
        "characterize.observers_ns",
        p("characterize.profiled") - engine_ns,
        "ns",
    );
    for obs in OBSERVERS {
        let replayed = p(&format!("observer.{obs}"));
        put(
            &format!("characterize.{obs}_ns"),
            replayed - engine_ns,
            "ns",
        );
    }
    for w in HOT {
        let per_pass =
            |by: &BTreeMap<String, u64>| by.get(w).copied().unwrap_or(0) as f64 / passes as f64;
        let (engine, profiled) = (per_pass(&engine_by_base), per_pass(&profiled_by_base));
        put(&format!("simt.engine.{w}_ns"), engine, "ns");
        put(&format!("characterize.profiled.{w}_ns"), profiled, "ns");
    }
    put("characterize.finish_ns", p("characterize.finish"), "ns");
    put(
        "characterize.observer_bytes_peak",
        counts.observer_bytes_peak as f64,
        "bytes",
    );
    put(
        "characterize.cache_load_ns",
        p("characterize.cache_load"),
        "ns",
    );
    put(
        "characterize.cache_store_ns",
        p("characterize.cache_store"),
        "ns",
    );
    put("characterize.cache_hits", counts.cache_hits as f64, "count");
    put(
        "characterize.cache_misses",
        counts.cache_misses as f64,
        "count",
    );
    put(
        "characterize.cache_bytes_read",
        counts.cache_bytes_read as f64,
        "bytes",
    );
    put(
        "characterize.matrix_cache_load_ns",
        p("characterize.matrix_cache_load"),
        "ns",
    );
    put("core.study_ns", s("core.study"), "ns");
    put("core.matrix_ns", s("core.matrix"), "ns");
    put("core.pairs_ns", s("core.pairs"), "ns");
    put(
        "core.pool_efficiency",
        pool_busy_ns as f64 / (spec.threads as f64 * pool_ns.max(1) as f64),
        "ratio",
    );
    put("stats.reduce_ns", s("stats.reduce"), "ns");
    put("stats.cluster_ns", s("stats.cluster"), "ns");
    for i in 1..=14 {
        put(
            &format!("bench.render.e{i}_ns"),
            s(&format!("bench.render.e{i}")),
            "ns",
        );
    }
    put(
        "obs.recorder_overhead_ns",
        recorder_ns as f64 - untraced_wall_ns as f64,
        "ns",
    );
    put("host.sched_wait_ns", waited.wait_ns as f64, "ns");
    put(
        "host.trace_overhead_ns",
        pipeline_ns as f64 - untraced_wall_ns as f64,
        "ns",
    );

    // Conservation. (a) Self times partition the root: their sum can
    // never exceed its wall. (b) The decomposed study layers account for
    // the study: setup + engine + observers + verify + finish (+ cache
    // I/O) must match the serial-equivalent study time, which equals
    // `core.study_ns` at one thread.
    let mut conservation = Vec::new();
    let layer_sum: u64 = self_ns
        .iter()
        .filter(|(name, _)| name.as_str() != "traced")
        .map(|(_, ns)| ns)
        .sum();
    if layer_sum > root_ns {
        conservation.push(format!(
            "layer self times {layer_sum} ns exceed the {root_ns} ns wall"
        ));
    }
    // The store probe is the benchmark's own extra write, not study work.
    let study_layers = [
        "workloads.setup",
        "workloads.fingerprint",
        "characterize.cache_load",
        "characterize.profiled",
        "workloads.verify",
        "characterize.finish",
    ]
    .iter()
    .map(|n| s(n))
    .sum::<f64>();
    let study_serial_ns = s("study.run_one_cached");
    let gap = (study_layers - study_serial_ns).abs() / study_serial_ns.max(1.0);
    eprintln!(
        "gwcbench: conservation: self times {layer_sum} of {root_ns} ns wall; \
         study layers {study_layers} vs study {study_serial_ns} ns over {passes} pass(es) \
         (gap {gap:.3})"
    );
    if gap > STUDY_TOLERANCE {
        conservation.push(format!(
            "decomposed study layers {study_layers} ns vs study {study_serial_ns} ns: gap {gap:.3} > {STUDY_TOLERANCE}"
        ));
    }
    Ok(Report {
        metrics: m,
        mismatches,
        conservation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_workloads::{Scale, StudyScale};

    fn small(warm_cache: bool) -> Spec {
        Spec {
            name: "test",
            scale: Scale::Small,
            study_scale: StudyScale::Standard,
            tier: ObserverTier::Exact,
            threads: 1,
            warm_cache,
            experiments: &["e1", "e2", "e3"],
        }
    }

    /// The per-layer names `BENCHMARK.json` declares.
    fn declared_per_layer() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = &text[text.find("\"per_layer\"").expect("per_layer section")..];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn assert_clean(report: &Report) {
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        assert!(report.conservation.is_empty(), "{:?}", report.conservation);
        let mut emitted: Vec<String> = report.metrics.keys().cloned().collect();
        emitted.push("failed_frac".to_string());
        emitted.sort();
        let mut declared = declared_per_layer();
        declared.sort();
        assert_eq!(emitted, declared, "traced metrics match BENCHMARK.json");
    }

    #[test]
    fn cold_traced_pass_conserves_time_and_matches_untraced() {
        let _serial = crate::tests::SERIAL
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let spec = small(false);
        let (reference, _) = run::checked_pipeline(&spec, &spec.config(7, 1, None)).unwrap();
        let report = traced(&spec, 7, None, &reference, 1).unwrap();
        assert_clean(&report);
        let m = |n: &str| report.metrics[n].0;
        assert!(m("simt.launches") > 0.0 && m("simt.engine_ns") > 0.0);
        assert_eq!(m("simt.thread_instrs"), {
            // vector_add is simulated but excluded from the matrix.
            let vector_add = registry::study_workloads(7, StudyScale::Standard)
                .into_iter()
                .take(1)
                .flat_map(|mut w| {
                    Study::run_one(w.as_mut(), &spec.config(7, 1, None).study).unwrap()
                })
                .map(|r| r.profile.raw().thread_instrs)
                .sum::<u64>();
            (reference.thread_instrs + vector_add) as f64
        });
        assert_eq!(
            m("characterize.cache_hits") + m("characterize.cache_misses"),
            0.0
        );
    }

    #[test]
    fn warm_traced_pass_reads_only_the_cache() {
        let _serial = crate::tests::SERIAL
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let spec = small(true);
        let dir = run::WorkDir::new("test-warm");
        let cfg = spec.config(7, 1, Some(dir.path()));
        let (reference, _) = run::checked_pipeline(&spec, &cfg).unwrap();
        let report = traced(&spec, 7, Some(dir.path()), &reference, 1).unwrap();
        assert_clean(&report);
        let m = |n: &str| report.metrics[n].0;
        assert_eq!(m("characterize.cache_hits"), 26.0);
        assert_eq!(m("characterize.cache_misses"), 0.0);
        assert_eq!(m("simt.launches"), 0.0);
        assert!(m("characterize.cache_bytes_read") > 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::default();
        tr.enter("root");
        let (_, a) = tr.time("leaf", || std::thread::sleep(Duration::from_millis(5)));
        tr.enter("mid");
        let (_, b) = tr.time("leaf", || std::thread::sleep(Duration::from_millis(5)));
        let mid = tr.exit();
        let root = tr.exit();
        let s = tr.self_ns();
        assert_eq!(s.values().sum::<u64>(), root);
        assert_eq!(s["leaf"], a + b);
        assert_eq!(s["mid"], mid - b);
        assert!(a + b >= 10_000_000);
    }
}
