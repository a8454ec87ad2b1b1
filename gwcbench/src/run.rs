//! The three workloads, their set-up, and the untimed checks every
//! timed run of them must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use gwc_bench::render_experiments;
use gwc_characterize::ObserverTier;
use gwc_core::pipeline::{Artifacts, PipelineConfig};
use gwc_simt::exec::Device;
use gwc_workloads::{registry, Scale, StudyScale};

use crate::host;

/// One benchmark workload: a pipeline configuration and the experiments
/// rendered from it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Problem scale of every workload instance.
    pub scale: Scale,
    /// Size of the study population.
    pub study_scale: StudyScale,
    /// Observer memory tier.
    pub tier: ObserverTier,
    /// Worker threads of the study fan-out.
    pub threads: usize,
    /// Whether timed runs read a profile and matrix cache filled during
    /// set-up.
    pub warm_cache: bool,
    /// Experiments rendered after the pipeline, in order.
    pub experiments: &'static [&'static str],
}

const E1_E13: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
];
const E1_E14: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
];

/// Every workload: the first two in `BENCHMARK.json` order, then
/// `large_sketch`, which `BENCHMARK.json` leaves out (see the README).
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "cold_small",
        scale: Scale::Small,
        study_scale: StudyScale::Standard,
        tier: ObserverTier::Exact,
        threads: 1,
        warm_cache: false,
        experiments: E1_E14,
    },
    Spec {
        name: "warm_small",
        scale: Scale::Small,
        study_scale: StudyScale::Standard,
        tier: ObserverTier::Exact,
        threads: 1,
        warm_cache: true,
        experiments: E1_E13,
    },
    Spec {
        name: "large_sketch",
        scale: Scale::Small,
        study_scale: StudyScale::Large,
        tier: ObserverTier::Sketch,
        threads: 2,
        warm_cache: false,
        experiments: E1_E13,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The pipeline configuration of this workload at `seed`, on
    /// `threads` workers, reading and writing `cache` if given.
    pub fn config(&self, seed: u64, threads: usize, cache: Option<&Path>) -> PipelineConfig {
        let mut cfg = PipelineConfig {
            threads,
            cache_dir: cache.map(Path::to_path_buf),
            ..PipelineConfig::default()
        };
        cfg.study.seed = seed;
        cfg.study.scale = self.scale;
        cfg.study.study_scale = self.study_scale;
        cfg.study.observer_tier = self.tier;
        cfg.study.verify = true;
        cfg
    }

    /// Workload instances in one study of this workload.
    pub fn instances(&self, seed: u64) -> u64 {
        registry::study_metas(seed, self.study_scale).len() as u64
    }
}

/// What a run produced, reduced to the values every run of the same
/// workload and seed must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// FNV-1a over the study matrix's shape and `f64::to_bits` values.
    pub matrix_digest: u64,
    /// Thread-level instructions summed over every study row.
    pub thread_instrs: u64,
    /// FNV-1a over the rendered experiment text.
    pub text_digest: u64,
}

/// FNV-1a, 64-bit.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a matrix given as rows.
pub fn rows_digest<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h = FNV_BASIS;
    let mut n = 0u64;
    for row in rows {
        h = fnv1a(h, &(row.len() as u64).to_le_bytes());
        for v in row {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
        n += 1;
    }
    fnv1a(h, &n.to_le_bytes())
}

impl Output {
    /// Reduces a run's artifacts and rendered text.
    pub fn of(a: &Artifacts, text: &str) -> Self {
        Self {
            matrix_digest: rows_digest(a.matrix.matrix.iter_rows()),
            thread_instrs: a
                .study()
                .records()
                .iter()
                .map(|r| r.profile.raw().thread_instrs)
                .sum(),
            text_digest: fnv1a(FNV_BASIS, text.as_bytes()),
        }
    }
}

/// Runs the pipeline and renders the workload's experiments, exactly
/// as `regen` does: `Artifacts::collect`, then `render_experiments`.
pub fn pipeline(spec: &Spec, cfg: &PipelineConfig) -> (Artifacts, String) {
    let artifacts = Artifacts::collect(cfg);
    let text = render_experiments(spec.experiments, &artifacts);
    (artifacts, text)
}

/// Runs [`pipeline`], turning a panic (a failed CPU verification or a
/// failed stage) into an error message.
pub fn checked_pipeline(spec: &Spec, cfg: &PipelineConfig) -> Result<(Output, String), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (a, text) = pipeline(spec, cfg);
        (Output::of(&a, &text), text)
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "pipeline panicked".to_string())
    })
}

/// One timed, untraced run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host wall time of collect plus render.
    pub wall_ns: u64,
    /// On-CPU time of every thread during the run.
    pub cpu_ns: u64,
    /// Peak resident bytes during the run.
    pub peak_rss: u64,
    /// Bytes allocated during the run.
    pub alloc_bytes: u64,
    /// The run's output, or why it failed.
    pub output: Result<Output, String>,
}

/// Runs the pipeline once under the host counters. No recorder is
/// installed, so the program's own instrumentation stays inert.
///
/// # Panics
///
/// Panics if the peak-RSS high-water mark cannot be reset.
pub fn timed_run(spec: &Spec, cfg: &PipelineConfig) -> Sample {
    assert!(gwc_obs::recorder().is_none(), "timed runs are untraced");
    host::reset_peak_rss().expect("/proc/self/clear_refs resets the RSS high-water mark");
    let alloc0 = host::allocated_bytes();
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    let output = checked_pipeline(spec, cfg).map(|(o, _)| o);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = host::process_cpu_ns() - cpu0;
    let alloc_bytes = host::allocated_bytes() - alloc0;
    Sample {
        wall_ns,
        cpu_ns,
        peak_rss: host::peak_rss_bytes(),
        alloc_bytes,
        output,
    }
}

/// A scratch directory inside the benchmark package, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `gwcbench/work/<tag>-<pid>`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("work directory is creatable");
        Self(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last work directory is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Set-up repetitions whose median `setup_s` reports: more for the
/// cold workloads, whose set-up is short.
pub fn setup_reps(spec: &Spec) -> usize {
    if spec.warm_cache {
        25
    } else {
        31
    }
}

/// What set-up leaves for the timed runs, and its timings.
///
/// `warm_small` fills its profile and matrix cache with a cold pipeline
/// run into a fresh directory. The first fill is the cache the timed
/// runs read and its output the reference they must reproduce; every
/// later fill must agree with it. The cold workloads instantiate the
/// study population and run every `Workload::setup` once (input
/// generation and CPU references), the preparation a process pays
/// before its first study.
pub struct Prepared {
    /// Wall time of each set-up repetition.
    pub setup_ns: Vec<u64>,
    /// The warm cache (`warm_small` only).
    pub cache: Option<WorkDir>,
    /// The reference output, when set-up produces one (`warm_small`'s
    /// cold fill).
    pub reference: Option<Result<(Output, String), String>>,
}

impl Prepared {
    /// Sets the workload up once, leaving what its timed runs need.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut p = Self {
            setup_ns: Vec::new(),
            cache: None,
            reference: None,
        };
        p.repeat(spec, seed);
        p
    }

    /// Sets the workload up once more, for the timing.
    ///
    /// # Panics
    ///
    /// Panics if a cold workload's `Workload::setup` fails.
    pub fn repeat(&mut self, spec: &Spec, seed: u64) {
        if spec.warm_cache {
            let dir = WorkDir::new(&format!("cache{}", self.setup_ns.len()));
            let cfg = spec.config(seed, spec.threads, Some(dir.path()));
            let t0 = Instant::now();
            let out = checked_pipeline(spec, &cfg);
            self.setup_ns.push(t0.elapsed().as_nanos() as u64);
            // Keep the first disagreement.
            self.reference = match (self.reference.take(), out) {
                (None, out) => Some(out),
                (Some(Ok(r)), Ok(o)) if r.0 == o.0 => Some(Ok(r)),
                (Some(Ok(_)), Ok(_)) => Some(Err("cache fills disagree".to_string())),
                (Some(Err(e)), _) | (_, Err(e)) => Some(Err(e)),
            };
            self.cache.get_or_insert(dir);
            return;
        }
        let t0 = Instant::now();
        for mut w in registry::study_workloads(seed, spec.study_scale) {
            let mut dev = Device::new();
            let launches = w
                .setup(&mut dev, spec.scale)
                .expect("workload set-up succeeds");
            std::hint::black_box(launches);
        }
        self.setup_ns.push(t0.elapsed().as_nanos() as u64);
    }
}

/// The reference a cold workload's runs are checked against, computed
/// after its timed window: `large_sketch` re-runs at one thread (results
/// must be bit-identical at any thread count); `cold_small` uses its first
/// timed run.
pub fn cold_reference(spec: &Spec, seed: u64, first: Option<&Sample>) -> Result<Output, String> {
    if spec.threads > 1 {
        return checked_pipeline(spec, &spec.config(seed, 1, None)).map(|(o, _)| o);
    }
    match first.map(|s| &s.output) {
        Some(Ok(o)) => Ok(o.clone()),
        Some(Err(e)) => Err(e.clone()),
        None => Err("no timed run".to_string()),
    }
}

/// The committed full `regen` output at seed 7.
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/regen_all_small_seed7.txt")
}

/// At seed 7, `warm_small`'s rendered text must be the prefix of the
/// committed golden snapshot that ends where experiment E14 begins.
///
/// # Errors
///
/// Describes the mismatch, or why the snapshot could not be read.
pub fn check_golden(text: &str) -> Result<(), String> {
    let golden = std::fs::read_to_string(golden_path())
        .map_err(|e| format!("cannot read {}: {e}", golden_path().display()))?;
    if golden.starts_with(text) && golden[text.len()..].starts_with(&"=".repeat(78)) {
        Ok(())
    } else {
        let at = golden
            .bytes()
            .zip(text.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(text.len().min(golden.len()));
        Err(format!(
            "rendered E1-E13 differ from the golden snapshot at byte {at}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Repeated runs reproduce their output and, at one thread, their
    /// allocation count exactly; two threads reproduce one thread's
    /// output bit for bit.
    #[test]
    fn runs_repeat_exactly() {
        let _serial = crate::tests::SERIAL
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let spec = Spec {
            name: "test",
            scale: Scale::Small,
            study_scale: StudyScale::Standard,
            tier: ObserverTier::Sketch,
            threads: 2,
            warm_cache: false,
            experiments: &["e1", "e2"],
        };
        let one = spec.config(11, 1, None);
        // The first pipeline in a process also initializes lazy statics,
        // as the benchmark's set-up does before its timed runs.
        timed_run(&spec, &one);
        let a = timed_run(&spec, &one);
        let b = timed_run(&spec, &one);
        assert_eq!(a.alloc_bytes, b.alloc_bytes);
        assert!(a.output.is_ok());
        assert_eq!(a.output, b.output);
        let two = timed_run(&spec, &spec.config(11, 2, None));
        assert_eq!(two.output, a.output);
    }

    #[test]
    fn golden_prefix_check_rejects_a_changed_byte() {
        let golden = std::fs::read_to_string(golden_path()).unwrap();
        let e14 = golden.find("E14:").unwrap();
        let prefix = &golden[..golden[..e14].rfind(&"=".repeat(78)).unwrap()];
        assert!(check_golden(prefix).is_ok());
        let mut changed = prefix.to_string();
        changed.replace_range(100..101, "#");
        assert!(check_golden(&changed).is_err());
    }
}
