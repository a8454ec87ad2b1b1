//! End-to-end shape test for the `--metrics` report: runs a small
//! experiment subset (E1, E2 and the E14 pair study) with the metrics
//! recorder installed — exactly what `regen --metrics` does — at 1 and
//! 2 threads, and asserts the report carries per-stage wall times,
//! per-worker pool utilization, latency histograms, per-workload kernel
//! counts, and one span tree whose stages fit in the run's wall.
//!
//! This test installs the global recorder, so it lives in its own
//! integration-test binary: it never shares a process with the
//! recorder-free determinism and golden-snapshot tests.

use std::sync::Arc;
use std::time::Instant;

use gwc_bench::{render_experiments, StudyArtifacts};
use gwc_obs::json::Json;
use gwc_obs::metrics::MetricsRecorder;
use gwc_obs::report::{build_report, validate_str, ReportContext, RunMeta, REQUIRED_KEYS};

const IDS: [&str; 3] = ["e1", "e2", "e14"];

/// Runs the subset under a fresh recorder and returns the validated
/// report with the run's measured wall time.
fn run_report(threads: usize) -> (Json, u64) {
    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc_obs::install(rec.clone());
    let t0 = Instant::now();
    let artifacts = StudyArtifacts::collect_threads(threads);
    let text = render_experiments(&IDS, &artifacts);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    drop(guard);
    assert!(text.contains("E1:") && text.contains("E2:") && text.contains("E14:"));

    let report = build_report(
        &rec.snapshot(),
        &ReportContext {
            threads,
            experiment_ids: IDS.iter().map(|id| id.to_string()).collect(),
            meta: RunMeta {
                timestamp_ms: 1_700_000_000_000,
                backend: "simd".into(),
                cache: "off".into(),
                label: "test".into(),
            },
            timeseries: None,
        },
    );
    let doc = validate_str(&report.render()).expect("report validates and round-trips");
    (doc, wall_ns)
}

fn u64_at(node: &Json, key: &str) -> u64 {
    node.get(key).and_then(Json::as_u64).unwrap()
}

fn str_at<'a>(node: &'a Json, key: &str) -> &'a str {
    node.get(key).and_then(Json::as_str).unwrap()
}

#[test]
fn metrics_report_has_stages_pools_and_workloads() {
    for threads in [1, 2] {
        let (doc, wall_ns) = run_report(threads);
        check_report(&doc, threads);
        check_span_tree(&doc, threads, wall_ns);
    }
}

fn check_report(doc: &Json, threads: usize) {
    for key in REQUIRED_KEYS {
        assert!(doc.get(key).is_some(), "missing required key `{key}`");
    }
    assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(5));
    assert_eq!(doc.get("threads").unwrap().as_u64(), Some(threads as u64));

    // The run-metadata header round-trips.
    let meta = doc.get("meta").unwrap();
    assert_eq!(meta.get("backend").unwrap().as_str(), Some("simd"));
    assert_eq!(meta.get("cache").unwrap().as_str(), Some("off"));
    assert_eq!(meta.get("label").unwrap().as_str(), Some("test"));
    assert_eq!(meta.get("threads").unwrap().as_u64(), Some(threads as u64));

    // Latency histograms with quantile summaries. The launch path must
    // have reported samples, and the pool task path too once the study
    // fans out.
    let hists = doc.get("histograms").unwrap().as_arr().unwrap();
    let hist_names: Vec<&str> = hists.iter().map(|h| str_at(h, "name")).collect();
    assert!(hist_names.contains(&"launch.latency_ns"));
    if threads > 1 {
        assert!(hist_names.contains(&"pool.task_ns.study"));
    }
    for h in hists {
        assert!(u64_at(h, "count") > 0, "empty histogram in report");
        let p50 = u64_at(h, "p50_ns");
        let p99 = u64_at(h, "p99_ns");
        let max = u64_at(h, "max_ns");
        assert!(p50 <= p99 && p99 <= max, "quantiles out of order");
        assert!(u64_at(h, "sum_ns") >= max);
    }

    // Per-stage wall times: every eager pipeline stage is present with
    // a nonzero duration, and nothing else is a stage.
    let stages = doc.get("stages").unwrap().as_arr().unwrap();
    let mut stage_names: Vec<&str> = stages.iter().map(|s| str_at(s, "name")).collect();
    stage_names.sort_unstable();
    assert_eq!(stage_names, ["cluster", "matrix", "reduce", "study"]);
    for s in stages {
        assert!(u64_at(s, "wall_ns") > 0);
    }

    // Per-experiment spans for exactly the ids we ran.
    let experiments = doc.get("experiments").unwrap().as_arr().unwrap();
    let mut ids: Vec<&str> = experiments.iter().map(|e| str_at(e, "id")).collect();
    ids.sort_unstable();
    assert_eq!(ids, ["e1", "e14", "e2"]);

    // Per-worker pool utilization: the study pool fanned out, and every
    // worker row carries tasks/steals/busy_frac. A 1-thread study runs
    // on the calling thread without a pool.
    let pools = doc.get("pools").unwrap().as_arr().unwrap();
    let study_pool = pools
        .iter()
        .find(|p| p.get("name").unwrap().as_str() == Some("study"));
    if threads > 1 {
        let workers = study_pool
            .expect("study pool recorded")
            .get("workers")
            .unwrap()
            .as_arr()
            .unwrap();
        assert!(!workers.is_empty() && workers.len() <= threads);
        let mut total_tasks = 0;
        for w in workers {
            total_tasks += u64_at(w, "tasks");
            assert!(w.get("steals").unwrap().as_u64().is_some());
            let busy = w.get("busy_frac").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&busy), "busy_frac {busy} out of range");
        }
        // One task per workload in the registry (including vector_add,
        // which is excluded from the study population but still runs).
        assert!(total_tasks > 10, "study ran {total_tasks} workloads");
    } else {
        assert!(study_pool.is_none(), "a 1-thread study runs no pool");
    }

    // Per-workload kernel counts.
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert!(workloads.len() > 10);
    let names: Vec<&str> = workloads.iter().map(|w| str_at(w, "name")).collect();
    for want in ["vector_add", "histogram"] {
        assert!(names.contains(&want), "missing workload `{want}`");
    }
    for w in workloads {
        assert!(u64_at(w, "kernels") > 0);
        assert!(u64_at(w, "wall_ns") > 0);
    }

    // Kernel launch counters flowed up from the SIMT layer, wall time
    // included.
    let kernels = doc.get("kernels").unwrap().as_arr().unwrap();
    assert!(!kernels.is_empty(), "kernel launches recorded");
    assert!(
        kernels.iter().any(|k| u64_at(k, "wall_ns") > 0),
        "no kernel carries launch wall time"
    );

    // Per-kernel execution profiles with µop-class counters and pc
    // hotspots.
    let execs = doc.get("exec_profiles").unwrap().as_arr().unwrap();
    assert!(!execs.is_empty(), "no execution profiles recorded");
    for e in execs {
        let classes = e.get("classes").unwrap().as_arr().unwrap();
        assert!(!classes.is_empty(), "profile without class counters");
        for c in classes {
            let warp = u64_at(c, "warp_uops");
            let lane = u64_at(c, "lane_uops");
            assert!(warp > 0, "zero-count class emitted");
            assert!(lane >= warp, "a warp µop retires at least one lane");
        }
        let hotspots = e.get("hotspots").unwrap().as_arr().unwrap();
        assert!(!hotspots.is_empty(), "profile without hotspots");
    }
}

/// The span tree: every span nests under its caller at any thread
/// count, the stages fit in the run's wall, and the self-time fold
/// conserves time.
fn check_span_tree(doc: &Json, threads: usize, wall_ns: u64) {
    let spans = doc.get("spans").unwrap().as_arr().unwrap();
    let paths: Vec<&str> = spans.iter().map(|s| str_at(s, "path")).collect();
    let segments = |path: &str| path.split('/').count();
    let mut launches = 0;
    let mut pair_launches = 0;
    for path in &paths {
        assert!(
            !path.contains("study/pairs/study/pairs"),
            "doubled pair path `{path}`"
        );
        // `launch/<k>` nests under the workload that issued it, or (for a
        // pair member's leftover solo launches) under its E14 scenario.
        if let Some((parent, _)) = path.split_once("/launch/") {
            launches += 1;
            let under_workload = parent.starts_with("study/workload/") && segments(parent) == 3;
            let under_scenario =
                parent.starts_with("experiment/e14/pairs/") && segments(parent) == 4;
            assert!(
                under_workload || under_scenario,
                "launch `{path}` is not under a workload or pair scenario"
            );
        }
        if let Some((parent, _)) = path.split_once("/launch_pair/") {
            pair_launches += 1;
            assert!(
                parent.starts_with("experiment/e14/pairs/") && segments(parent) == 4,
                "pair launch `{path}` is not under its pair scenario"
            );
        }
        assert!(
            !path.starts_with("launch"),
            "launch `{path}` is a top-level span"
        );
    }
    assert!(launches > 0, "no launch spans at {threads} thread(s)");
    assert!(
        pair_launches > 0,
        "no pair-launch spans at {threads} thread(s)"
    );

    // A stage's time is its own wall, so the stages fit in the run.
    let stages = doc.get("stages").unwrap().as_arr().unwrap();
    let stage_sum: u64 = stages.iter().map(|s| u64_at(s, "wall_ns")).sum();
    assert!(
        stage_sum <= wall_ns,
        "stages sum to {stage_sum} ns, more than the {wall_ns} ns run"
    );

    // The self-time fold: exclusive times sum to the top-level inclusive
    // total. (`validate_str` already held every recorded span's children
    // to `threads` x its wall.) At one thread each recorded span is
    // exactly its own wall, and the study's own bookkeeping outside its
    // workloads shows as exclusive time.
    let self_time = doc.get("self_time").unwrap().as_arr().unwrap();
    assert!(!self_time.is_empty(), "self_time tree is empty");
    let inclusive_roots: u64 = self_time
        .iter()
        .filter(|n| u64_at(n, "depth") == 0)
        .map(|n| u64_at(n, "inclusive_ns"))
        .sum();
    let exclusive_sum: u64 = self_time.iter().map(|n| u64_at(n, "exclusive_ns")).sum();
    assert_eq!(exclusive_sum, inclusive_roots, "self-time fold invariant");
    if threads == 1 {
        for n in self_time.iter().filter(|n| u64_at(n, "count") > 0) {
            assert_eq!(
                u64_at(n, "inclusive_ns"),
                u64_at(n, "total_ns"),
                "`{}` is not exactly its own wall at 1 thread",
                str_at(n, "path")
            );
        }
        let study = self_time
            .iter()
            .find(|n| str_at(n, "path") == "study")
            .expect("study node");
        assert!(u64_at(study, "exclusive_ns") > 0);
    }
}
