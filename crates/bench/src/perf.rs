//! Performance-trajectory reports: the library behind `regen --bench`
//! and `bench_diff`.
//!
//! A *bench report* (`BENCH_<label>.json`) records the wall-time
//! distribution of repeated pipeline runs — per pipeline stage
//! (`study`/`matrix`/`reduce`/`cluster`, each the wall of its own
//! span), per experiment, and in total — as min/median/p95 over the measured
//! iterations, plus the run configuration (threads, warmup, iteration
//! count, experiment ids). Reports from two commits are compared by
//! [`diff_reports`]: a row regresses when its **median** grew beyond a
//! configurable tolerance, and rows whose baseline median is under a
//! noise floor are never flagged (single-digit-millisecond stages jitter
//! far more than any real regression signal). CI gates a fresh report
//! against a committed baseline with `bench_diff`; `--warn-only` turns
//! the gate into a note.
//!
//! Timing comes from the metrics recorder's own span aggregates — one
//! iteration installs a fresh [`MetricsRecorder`], runs the study and
//! renders the requested experiments, and reads the stage walls back
//! from the snapshot — so `regen --bench` measures exactly what
//! `regen --metrics` reports, recorder overhead included.

use std::sync::Arc;
use std::time::Instant;

use gwc_core::pipeline::{PipelineConfig, StageId};
use gwc_obs::json::Json;
use gwc_obs::metrics::MetricsRecorder;
use gwc_obs::{Recorder, TeeRecorder};

use crate::experiments::{render_experiments, StudyArtifacts};

/// Version stamped into every freshly written bench report. Its
/// `kernels` array — per-kernel launch counts, launch wall-time
/// summaries, and per-µop-class execution counters — is what
/// `bench_diff --attribute` drills into.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Bench schema versions [`validate_bench`] accepts.
pub const BENCH_SUPPORTED_VERSIONS: [u64; 1] = [2];

/// One measured iteration: total wall time plus per-stage,
/// per-experiment, and per-kernel rollups.
#[derive(Debug, Clone)]
pub struct BenchSample {
    /// Wall time of the whole iteration (study + fit + render).
    pub total_ns: u64,
    /// `(stage, wall_ns)` for each stage of [`StageId::ALL`].
    pub stages: Vec<(String, u64)>,
    /// `(experiment id, wall_ns)` for each rendered experiment.
    pub experiments: Vec<(String, u64)>,
    /// Per-kernel rollups from the iteration's metrics snapshot.
    pub kernels: Vec<KernelRollup>,
}

/// One kernel's rollup within a single bench iteration: how often it
/// launched, how long the launches took, and what it retired.
#[derive(Debug, Clone)]
pub struct KernelRollup {
    /// Kernel name.
    pub name: String,
    /// Launches observed this iteration.
    pub launches: u64,
    /// Summed launch wall time this iteration.
    pub wall_ns: u64,
    /// `(class, warp_uops, lane_uops)` from the execution profile,
    /// ordered by class name. Empty when profiling was off (a cache-warm
    /// iteration launches nothing).
    pub classes: Vec<(String, u64, u64)>,
}

/// Runs the full pipeline once — study, reduction, clustering, and the
/// rendering of `ids` — under a fresh metrics recorder and returns the
/// iteration's timing sample together with the rendered experiments.
/// `extra` recorder sinks are tee'd alongside the fresh recorder:
/// `regen --bench` passes its run-long `--metrics` / `--trace` /
/// `--heartbeat` recorders here so live telemetry and cross-iteration
/// rollups see every iteration, while the per-iteration recorder (which
/// the returned sample reads) stays fresh.
///
/// # Panics
///
/// Panics if the study fails (bench runs have nothing to report from a
/// broken pipeline).
pub fn measure_iteration_config(
    ids: &[&str],
    cfg: &PipelineConfig,
    extra: &[Arc<dyn Recorder>],
) -> (BenchSample, String) {
    let rec = Arc::new(MetricsRecorder::default());
    let sink: Arc<dyn Recorder> = if extra.is_empty() {
        rec.clone()
    } else {
        let mut sinks: Vec<Arc<dyn Recorder>> = vec![rec.clone()];
        sinks.extend(extra.iter().cloned());
        Arc::new(TeeRecorder::new(sinks))
    };
    let guard = gwc_obs::install(sink);
    let t0 = Instant::now();
    let artifacts = StudyArtifacts::collect(cfg);
    let text = render_experiments(ids, &artifacts);
    let total_ns = t0.elapsed().as_nanos() as u64;
    drop(guard);
    let snap = rec.snapshot();
    let sample = BenchSample {
        total_ns,
        stages: StageId::ALL
            .iter()
            .map(|stage| {
                let wall = snap.spans.iter().find(|s| s.path == stage.name());
                (stage.name().to_string(), wall.map_or(0, |s| s.total_ns))
            })
            .collect(),
        experiments: snap
            .spans
            .iter()
            .filter_map(|s| {
                let id = s.path.strip_prefix("experiment/")?;
                (!id.contains('/')).then(|| (id.to_string(), s.total_ns))
            })
            .collect(),
        kernels: snap
            .kernels
            .iter()
            .map(|k| KernelRollup {
                name: k.name.clone(),
                launches: k.launches,
                wall_ns: k.totals.wall_ns,
                classes: snap
                    .execs
                    .iter()
                    .find(|e| e.kernel == k.name)
                    .map(|e| {
                        e.classes
                            .iter()
                            .map(|c| (c.class.to_string(), c.warp_uops, c.lane_uops))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect(),
    };
    (sample, text)
}

/// Distribution summary of one timed quantity across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Fastest iteration.
    pub min_ns: u64,
    /// Median iteration (mean of the two middles for even counts).
    pub median_ns: u64,
    /// 95th-percentile iteration (nearest-rank).
    pub p95_ns: u64,
}

/// Summarizes samples into min/median/p95. Returns zeros when empty.
pub fn summarize(samples: &[u64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            min_ns: 0,
            median_ns: 0,
            p95_ns: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let median_ns = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    };
    let p95_rank = ((0.95 * n as f64).ceil() as usize).clamp(1, n);
    Summary {
        min_ns: sorted[0],
        median_ns,
        p95_ns: sorted[p95_rank - 1],
    }
}

/// Run configuration stamped into a bench report.
#[derive(Debug, Clone)]
pub struct BenchContext {
    /// Report label (`BENCH_<label>.json`).
    pub label: String,
    /// Warp engine that produced the numbers (`scalar` or `simd`).
    /// Backend choice changes every simulation-bound row, so a report
    /// without it can't be attributed.
    pub backend: String,
    /// Worker threads the pipeline ran with.
    pub threads: usize,
    /// Warmup iterations (run, not recorded).
    pub warmup: usize,
    /// Measured iterations.
    pub iters: usize,
    /// Experiment ids rendered each iteration.
    pub experiment_ids: Vec<String>,
    /// Study population tier (`standard` or `large`).
    pub scale: String,
    /// Observer memory tier (`exact` or `sketch`).
    pub observer_tier: String,
    /// Co-schedule dispatch policy the E14 pair study ran under
    /// (`round-robin`, `sm-partitioned` or `leftover-fill`).
    pub policy: String,
}

fn summary_fields(s: Summary) -> Vec<(String, Json)> {
    vec![
        ("min_ns".into(), Json::UInt(s.min_ns)),
        ("median_ns".into(), Json::UInt(s.median_ns)),
        ("p95_ns".into(), Json::UInt(s.p95_ns)),
    ]
}

/// Builds the bench report document from measured samples.
pub fn build_bench_report(ctx: &BenchContext, samples: &[BenchSample]) -> Json {
    let totals: Vec<u64> = samples.iter().map(|s| s.total_ns).collect();
    // Keyed series in first-seen order (stages then experiment ids are
    // already deterministic per run).
    let mut stage_series: Vec<(String, Vec<u64>)> = Vec::new();
    let mut exp_series: Vec<(String, Vec<u64>)> = Vec::new();
    let mut launch_series: Vec<(String, Vec<u64>)> = Vec::new();
    let mut wall_series: Vec<(String, Vec<u64>)> = Vec::new();
    // `(kernel, class) -> (warp series, lane series)`.
    type ClassSeries = Vec<((String, String), (Vec<u64>, Vec<u64>))>;
    let mut class_series: ClassSeries = Vec::new();
    for sample in samples {
        for (name, ns) in &sample.stages {
            push_series(&mut stage_series, name, *ns);
        }
        for (id, ns) in &sample.experiments {
            push_series(&mut exp_series, id, *ns);
        }
        for k in &sample.kernels {
            push_series(&mut launch_series, &k.name, k.launches);
            push_series(&mut wall_series, &k.name, k.wall_ns);
            for (class, warp, lane) in &k.classes {
                let key = (k.name.clone(), class.clone());
                match class_series.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, (w, l))) => {
                        w.push(*warp);
                        l.push(*lane);
                    }
                    None => class_series.push((key, (vec![*warp], vec![*lane]))),
                }
            }
        }
    }
    let stages = stage_series
        .iter()
        .map(|(name, series)| {
            let mut fields = vec![("name".to_string(), Json::Str(name.clone()))];
            fields.extend(summary_fields(summarize(series)));
            Json::Obj(fields)
        })
        .collect();
    let experiments = exp_series
        .iter()
        .map(|(id, series)| {
            let mut fields = vec![("id".to_string(), Json::Str(id.clone()))];
            fields.extend(summary_fields(summarize(series)));
            Json::Obj(fields)
        })
        .collect();
    let kernels = wall_series
        .iter()
        .map(|(name, wall)| {
            let launches = launch_series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| summarize(s).median_ns)
                .unwrap_or(0);
            let wall = summarize(wall);
            let classes = class_series
                .iter()
                .filter(|((k, _), _)| k == name)
                .map(|((_, class), (warp, lane))| {
                    Json::Obj(vec![
                        ("class".into(), Json::Str(class.clone())),
                        ("warp_uops".into(), Json::UInt(summarize(warp).median_ns)),
                        ("lane_uops".into(), Json::UInt(summarize(lane).median_ns)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::Str(name.clone())),
                ("launches".into(), Json::UInt(launches)),
                ("wall_min_ns".into(), Json::UInt(wall.min_ns)),
                ("wall_median_ns".into(), Json::UInt(wall.median_ns)),
                ("wall_p95_ns".into(), Json::UInt(wall.p95_ns)),
                ("classes".into(), Json::Arr(classes)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "bench_schema_version".into(),
            Json::UInt(BENCH_SCHEMA_VERSION),
        ),
        ("label".into(), Json::Str(ctx.label.clone())),
        ("backend".into(), Json::Str(ctx.backend.clone())),
        ("scale".into(), Json::Str(ctx.scale.clone())),
        ("observer_tier".into(), Json::Str(ctx.observer_tier.clone())),
        ("policy".into(), Json::Str(ctx.policy.clone())),
        ("threads".into(), Json::UInt(ctx.threads as u64)),
        ("warmup".into(), Json::UInt(ctx.warmup as u64)),
        ("iters".into(), Json::UInt(ctx.iters as u64)),
        (
            "experiment_ids".into(),
            Json::Arr(
                ctx.experiment_ids
                    .iter()
                    .map(|id| Json::Str(id.clone()))
                    .collect(),
            ),
        ),
        (
            "total".into(),
            Json::Obj(summary_fields(summarize(&totals))),
        ),
        ("stages".into(), Json::Arr(stages)),
        ("experiments".into(), Json::Arr(experiments)),
        ("kernels".into(), Json::Arr(kernels)),
    ])
}

fn push_series(series: &mut Vec<(String, Vec<u64>)>, name: &str, value: u64) {
    match series.iter_mut().find(|(n, _)| n == name) {
        Some((_, v)) => v.push(value),
        None => series.push((name.to_string(), vec![value])),
    }
}

/// Validates a parsed bench report (version, required keys, row shapes).
///
/// # Errors
///
/// Returns a message naming the first missing/mistyped key or the
/// version mismatch.
pub fn validate_bench(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("bench_schema_version")
        .and_then(Json::as_u64)
        .ok_or("`bench_schema_version` is missing or not an unsigned integer")?;
    if !BENCH_SUPPORTED_VERSIONS.contains(&version) {
        return Err(format!(
            "bench_schema_version {version} not in supported {BENCH_SUPPORTED_VERSIONS:?}"
        ));
    }
    for key in ["label", "threads", "warmup", "iters", "experiment_ids"] {
        if doc.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    for key in ["backend", "scale", "observer_tier", "policy"] {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("`{key}` is missing or not a string"))?;
    }
    let total = doc.get("total").ok_or("missing key `total`")?;
    for field in ["min_ns", "median_ns", "p95_ns"] {
        total
            .get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`total.{field}` is missing or mistyped"))?;
    }
    for (key, id_field) in [("stages", "name"), ("experiments", "id")] {
        let rows = doc
            .get(key)
            .ok_or_else(|| format!("missing key `{key}`"))?
            .as_arr()
            .ok_or_else(|| format!("`{key}` is not an array"))?;
        for (i, row) in rows.iter().enumerate() {
            for field in [id_field, "min_ns", "median_ns", "p95_ns"] {
                row.get(field)
                    .ok_or_else(|| format!("`{key}[{i}]` is missing `{field}`"))?;
            }
        }
    }
    let rows = doc
        .get("kernels")
        .ok_or("missing key `kernels`")?
        .as_arr()
        .ok_or("`kernels` is not an array")?;
    for (i, row) in rows.iter().enumerate() {
        for field in [
            "name",
            "launches",
            "wall_min_ns",
            "wall_median_ns",
            "wall_p95_ns",
        ] {
            row.get(field)
                .ok_or_else(|| format!("`kernels[{i}]` is missing `{field}`"))?;
        }
        let classes = row
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`kernels[{i}].classes` is missing or not an array"))?;
        for (j, c) in classes.iter().enumerate() {
            for field in ["class", "warp_uops", "lane_uops"] {
                c.get(field)
                    .ok_or_else(|| format!("`kernels[{i}].classes[{j}]` is missing `{field}`"))?;
            }
        }
    }
    Ok(())
}

/// How [`diff_reports`] decides what counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Allowed relative growth of a row's median: `0.2` tolerates +20%.
    pub tolerance: f64,
    /// Rows with a baseline median below this are noise, never flagged.
    pub min_ns: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.20,
            min_ns: 1_000_000,
        }
    }
}

/// One compared row of a bench diff.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// `total`, `stage:<name>`, or `experiment:<id>`.
    pub name: String,
    /// Baseline median.
    pub old_median_ns: u64,
    /// Candidate median.
    pub new_median_ns: u64,
    /// `new / old` (1.0 when both are zero).
    pub ratio: f64,
    /// Whether this row exceeds the tolerance over a non-noise baseline.
    pub regressed: bool,
}

/// The result of comparing two bench reports.
#[derive(Debug, Clone, Default)]
pub struct BenchDiff {
    /// Rows present in both reports, `total` first.
    pub rows: Vec<DiffRow>,
    /// Row names only the baseline has (not compared, never silent).
    pub only_old: Vec<String>,
    /// Row names only the candidate has.
    pub only_new: Vec<String>,
}

impl BenchDiff {
    /// Rows that regressed.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }
}

fn median_rows(doc: &Json, key: &str, id_field: &str, prefix: &str) -> Vec<(String, u64)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| {
            let id = row.get(id_field)?.as_str()?;
            let median = row.get("median_ns")?.as_u64()?;
            Some((format!("{prefix}:{id}"), median))
        })
        .collect()
}

fn all_medians(doc: &Json) -> Vec<(String, u64)> {
    let mut out = vec![(
        "total".to_string(),
        doc.get("total")
            .and_then(|t| t.get("median_ns"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
    )];
    out.extend(median_rows(doc, "stages", "name", "stage"));
    out.extend(median_rows(doc, "experiments", "id", "experiment"));
    out
}

/// Compares two validated bench reports row by row.
///
/// # Errors
///
/// Returns the first schema failure of either report.
pub fn diff_reports(old: &Json, new: &Json, cfg: &DiffConfig) -> Result<BenchDiff, String> {
    validate_bench(old).map_err(|e| format!("baseline report: {e}"))?;
    validate_bench(new).map_err(|e| format!("candidate report: {e}"))?;
    let old_rows = all_medians(old);
    let new_rows = all_medians(new);
    let mut diff = BenchDiff::default();
    for (name, old_median_ns) in &old_rows {
        let Some((_, new_median_ns)) = new_rows.iter().find(|(n, _)| n == name) else {
            diff.only_old.push(name.clone());
            continue;
        };
        let ratio = if *old_median_ns == 0 {
            if *new_median_ns == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            *new_median_ns as f64 / *old_median_ns as f64
        };
        let regressed = *old_median_ns >= cfg.min_ns && ratio > 1.0 + cfg.tolerance;
        diff.rows.push(DiffRow {
            name: name.clone(),
            old_median_ns: *old_median_ns,
            new_median_ns: *new_median_ns,
            ratio,
            regressed,
        });
    }
    for (name, _) in &new_rows {
        if !old_rows.iter().any(|(n, _)| n == name) {
            diff.only_new.push(name.clone());
        }
    }
    Ok(diff)
}

/// Renders a bench diff as the table `bench_diff` prints.
pub fn render_diff(diff: &BenchDiff, cfg: &DiffConfig) -> String {
    use gwc_obs::report::fmt_ns;
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12} {:>8}  verdict",
        "row", "old median", "new median", "ratio"
    );
    for r in &diff.rows {
        let verdict = if r.regressed {
            "REGRESSED"
        } else if r.old_median_ns < cfg.min_ns {
            "noise-floor"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>7.3}x  {verdict}",
            r.name,
            fmt_ns(r.old_median_ns),
            fmt_ns(r.new_median_ns),
            r.ratio,
        );
    }
    for name in &diff.only_old {
        let _ = writeln!(out, "{name:<28} only in baseline (not compared)");
    }
    for name in &diff.only_new {
        let _ = writeln!(out, "{name:<28} only in candidate (not compared)");
    }
    out
}

/// One kernel's contribution to a bench delta, as ranked by
/// `bench_diff --attribute`.
#[derive(Debug, Clone)]
pub struct KernelAttribution {
    /// Kernel name.
    pub name: String,
    /// Baseline wall-median (0 when the kernel is new).
    pub old_wall_ns: u64,
    /// Candidate wall-median (0 when the kernel disappeared).
    pub new_wall_ns: u64,
    /// `new - old`, signed: positive means the kernel got slower.
    pub delta_ns: i64,
    /// This kernel's share of the summed positive wall deltas
    /// (0.0 when nothing got slower, or for kernels that sped up).
    pub share: f64,
    /// The µop class whose lane-µop count moved the most (by absolute
    /// delta, ties broken by name), with its signed delta. `None` when
    /// neither report carries class counters for the kernel.
    pub top_class: Option<(String, i64)>,
}

/// Per-kernel rows of a validated report keyed by name:
/// `(wall_median_ns, [(class, lane_uops)])`.
#[allow(clippy::type_complexity)]
fn kernel_rows(doc: &Json) -> Vec<(String, u64, Vec<(String, u64)>)> {
    doc.get("kernels")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| {
            let name = row.get("name")?.as_str()?.to_string();
            let wall = row.get("wall_median_ns")?.as_u64()?;
            let classes = row
                .get("classes")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|c| {
                    Some((
                        c.get("class")?.as_str()?.to_string(),
                        c.get("lane_uops")?.as_u64()?,
                    ))
                })
                .collect();
            Some((name, wall, classes))
        })
        .collect()
}

/// Drills a bench diff of two validated reports down to per-kernel
/// wall-median deltas annotated with the µop class that moved the most,
/// ranked slowest-growing first. This is the `bench_diff --attribute`
/// table.
pub fn attribute_reports(old: &Json, new: &Json) -> Vec<KernelAttribution> {
    let old_rows = kernel_rows(old);
    let new_rows = kernel_rows(new);
    let mut names: Vec<&str> = old_rows.iter().map(|(n, _, _)| n.as_str()).collect();
    for (n, _, _) in &new_rows {
        if !names.contains(&n.as_str()) {
            names.push(n);
        }
    }
    let mut rows: Vec<KernelAttribution> = names
        .iter()
        .map(|name| {
            let old_row = old_rows.iter().find(|(n, _, _)| n == name);
            let new_row = new_rows.iter().find(|(n, _, _)| n == name);
            let old_wall_ns = old_row.map_or(0, |(_, w, _)| *w);
            let new_wall_ns = new_row.map_or(0, |(_, w, _)| *w);
            let empty = Vec::new();
            let old_classes = old_row.map_or(&empty, |(_, _, c)| c);
            let new_classes = new_row.map_or(&empty, |(_, _, c)| c);
            let mut class_names: Vec<&str> = old_classes.iter().map(|(c, _)| c.as_str()).collect();
            for (c, _) in new_classes {
                if !class_names.contains(&c.as_str()) {
                    class_names.push(c);
                }
            }
            class_names.sort_unstable();
            let top_class = class_names
                .iter()
                .map(|class| {
                    let lanes = |rows: &[(String, u64)]| {
                        rows.iter().find(|(c, _)| c == class).map_or(0, |(_, l)| *l)
                    };
                    let delta = lanes(new_classes) as i64 - lanes(old_classes) as i64;
                    (class.to_string(), delta)
                })
                .max_by_key(|(_, delta)| delta.unsigned_abs())
                .filter(|(_, delta)| *delta != 0);
            KernelAttribution {
                name: name.to_string(),
                old_wall_ns,
                new_wall_ns,
                delta_ns: new_wall_ns as i64 - old_wall_ns as i64,
                share: 0.0,
                top_class,
            }
        })
        .collect();
    let grown: i64 = rows.iter().map(|r| r.delta_ns.max(0)).sum();
    if grown > 0 {
        for r in &mut rows {
            r.share = r.delta_ns.max(0) as f64 / grown as f64;
        }
    }
    rows.sort_by(|a, b| b.delta_ns.cmp(&a.delta_ns).then(a.name.cmp(&b.name)));
    rows
}

/// Renders the ranked attribution table `bench_diff --attribute`
/// prints below the diff.
pub fn render_attribution(rows: &[KernelAttribution]) -> String {
    use gwc_obs::report::fmt_ns;
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-kernel attribution (ranked by wall-median delta):\n\
         {:<24} {:>12} {:>12} {:>12} {:>7}  top µop-class delta",
        "kernel", "old wall", "new wall", "delta", "share"
    );
    for r in rows {
        let sign = if r.delta_ns < 0 { "-" } else { "+" };
        let top = match &r.top_class {
            Some((class, delta)) => format!("{class} {delta:+} lane-µops"),
            None => "(no class counters)".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>12} {:>6.0}%  {top}",
            r.name,
            fmt_ns(r.old_wall_ns),
            fmt_ns(r.new_wall_ns),
            format!("{sign}{}", fmt_ns(r.delta_ns.unsigned_abs())),
            r.share * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(total: u64, study: u64) -> BenchSample {
        BenchSample {
            total_ns: total,
            stages: vec![
                ("study".into(), study),
                ("reduce".into(), total / 100),
                ("cluster".into(), total / 200),
            ],
            experiments: vec![("e1".into(), total / 50), ("e2".into(), total / 60)],
            kernels: vec![
                KernelRollup {
                    name: "bfs_step".into(),
                    launches: 4,
                    wall_ns: study / 2,
                    classes: vec![
                        ("int_alu".into(), study / 1000, study / 30),
                        ("mem_global".into(), study / 2000, study / 100),
                    ],
                },
                KernelRollup {
                    name: "fft_pass".into(),
                    launches: 2,
                    wall_ns: study / 4,
                    classes: vec![("fp_alu".into(), 100, 3_200)],
                },
            ],
        }
    }

    fn report(scale: u64) -> Json {
        let ctx = BenchContext {
            label: "test".into(),
            backend: "simd".into(),
            threads: 2,
            warmup: 1,
            iters: 3,
            experiment_ids: vec!["e1".into(), "e2".into()],
            scale: "standard".into(),
            observer_tier: "exact".into(),
            policy: "round-robin".into(),
        };
        let samples: Vec<BenchSample> = (0..3)
            .map(|i| sample(scale * (100 + i), scale * (80 + i)))
            .collect();
        build_bench_report(&ctx, &samples)
    }

    #[test]
    fn summarize_min_median_p95() {
        let s = summarize(&[30, 10, 20, 40, 50]);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.median_ns, 30);
        assert_eq!(s.p95_ns, 50);
        let even = summarize(&[10, 20, 30, 40]);
        assert_eq!(even.median_ns, 25);
        assert_eq!(summarize(&[]).median_ns, 0);
    }

    #[test]
    fn report_builds_and_validates() {
        let doc = report(1_000_000);
        validate_bench(&doc).expect("bench report validates");
        let text = doc.render();
        let back = gwc_obs::json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("bench_schema_version").unwrap().as_u64(),
            Some(BENCH_SCHEMA_VERSION)
        );
        let stages = back.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].get("name").unwrap().as_str(), Some("study"));
        // Median of 80e6/81e6/82e6.
        assert_eq!(
            stages[0].get("median_ns").unwrap().as_u64(),
            Some(81_000_000)
        );
        let kernels = back.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].get("name").unwrap().as_str(), Some("bfs_step"));
        assert_eq!(kernels[0].get("launches").unwrap().as_u64(), Some(4));
        // Median of (80e6/81e6/82e6)/2.
        assert_eq!(
            kernels[0].get("wall_median_ns").unwrap().as_u64(),
            Some(40_500_000)
        );
        let classes = kernels[0].get("classes").unwrap().as_arr().unwrap();
        assert_eq!(classes[0].get("class").unwrap().as_str(), Some("int_alu"));
        assert_eq!(
            classes[0].get("lane_uops").unwrap().as_u64(),
            Some(2_700_000)
        );
    }

    #[test]
    fn run_configuration_is_stamped_required_and_typed() {
        let doc = report(1_000_000);
        for (key, want) in [
            ("backend", "simd"),
            ("scale", "standard"),
            ("observer_tier", "exact"),
            ("policy", "round-robin"),
        ] {
            assert_eq!(doc.get(key).and_then(Json::as_str), Some(want));
            // A report without the field is malformed...
            let Json::Obj(mut fields) = doc.clone() else {
                unreachable!()
            };
            fields.retain(|(k, _)| k != key);
            let err = validate_bench(&Json::Obj(fields)).unwrap_err();
            assert!(err.contains(key), "{err}");
            // ...and so is a mistyped one.
            let Json::Obj(mut fields) = doc.clone() else {
                unreachable!()
            };
            for (k, v) in &mut fields {
                if k == key {
                    *v = Json::UInt(1);
                }
            }
            let err = validate_bench(&Json::Obj(fields)).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn v1_shaped_reports_are_rejected() {
        let Json::Obj(mut fields) = report(1_000_000) else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "kernels");
        let err = validate_bench(&Json::Obj(fields.clone())).unwrap_err();
        assert!(err.contains("kernels"), "{err}");
        for f in &mut fields {
            if f.0 == "bench_schema_version" {
                f.1 = Json::UInt(1);
            }
        }
        let err = validate_bench(&Json::Obj(fields)).unwrap_err();
        assert!(err.contains("bench_schema_version 1"), "{err}");
    }

    #[test]
    fn self_diff_has_no_regressions() {
        let doc = report(1_000_000);
        let diff = diff_reports(&doc, &doc, &DiffConfig::default()).unwrap();
        assert!(diff.regressions().is_empty(), "{diff:?}");
        assert!(diff.only_old.is_empty() && diff.only_new.is_empty());
        assert_eq!(diff.rows[0].name, "total");
        assert!((diff.rows[0].ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inflated_candidate_regresses_and_noise_rows_do_not() {
        let old = report(1_000_000);
        let new = report(2_000_000); // every row doubled
        let diff = diff_reports(&old, &new, &DiffConfig::default()).unwrap();
        let regressed: Vec<&str> = diff.regressions().iter().map(|r| r.name.as_str()).collect();
        assert!(regressed.contains(&"total"));
        assert!(regressed.contains(&"stage:study"));
        // cluster's baseline median (~0.5ms) is under the 1ms noise
        // floor: doubled, but never flagged.
        assert!(!regressed.contains(&"stage:cluster"), "{regressed:?}");
        let table = render_diff(&diff, &DiffConfig::default());
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("noise-floor"));
    }

    #[test]
    fn tolerance_is_respected() {
        let old = report(1_000_000);
        let new = report(1_100_000); // +10%, within the default 20%
        let diff = diff_reports(&old, &new, &DiffConfig::default()).unwrap();
        assert!(diff.regressions().is_empty());
        let tight = DiffConfig {
            tolerance: 0.05,
            ..DiffConfig::default()
        };
        let diff = diff_reports(&old, &new, &tight).unwrap();
        assert!(!diff.regressions().is_empty());
    }

    #[test]
    fn attribution_ranks_the_slowest_growing_kernel_first() {
        let old = report(1_000_000);
        let new = report(2_000_000); // every kernel doubled
        let rows = attribute_reports(&old, &new);
        assert_eq!(rows.len(), 2);
        // bfs_step's wall median (study/2) grows twice as much as
        // fft_pass's (study/4), so it tops the ranking with 2/3 of the
        // summed growth, attributed to its biggest lane-µop mover.
        assert_eq!(rows[0].name, "bfs_step");
        assert_eq!(rows[0].delta_ns, 40_500_000);
        assert!(
            (rows[0].share - 2.0 / 3.0).abs() < 1e-9,
            "{}",
            rows[0].share
        );
        let (class, delta) = rows[0].top_class.clone().expect("class counters present");
        assert_eq!(class, "int_alu");
        assert_eq!(delta, 2_700_000);
        // fft_pass's fp_alu counters are scale-independent: no mover.
        assert_eq!(rows[1].top_class, None);
        let table = render_attribution(&rows);
        assert!(table.contains("bfs_step"), "{table}");
        assert!(table.contains("int_alu"), "{table}");
        let bfs_at = table.find("bfs_step").unwrap();
        assert!(bfs_at < table.find("fft_pass").unwrap(), "{table}");
    }

    #[test]
    fn diff_rejects_malformed_reports() {
        let doc = report(1_000_000);
        let err = diff_reports(&Json::Obj(vec![]), &doc, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        let Json::Obj(mut fields) = doc.clone() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "total");
        let err = diff_reports(&doc, &Json::Obj(fields), &DiffConfig::default()).unwrap_err();
        assert!(err.contains("candidate") && err.contains("total"), "{err}");
    }
}
