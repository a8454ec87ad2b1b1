//! Regenerates the study's experiment artifacts (tables and figures),
//! and benchmarks that same run.
//!
//! ```sh
//! cargo run --release -p gwc-bench --bin regen               # all of E1..E14
//! cargo run --release -p gwc-bench --bin regen e5 e12        # a subset
//! cargo run --release -p gwc-bench --bin regen --threads 4   # parallel study
//! cargo run --release -p gwc-bench --bin regen -- e1 --metrics m.json
//! cargo run --release -p gwc-bench --bin regen -- e1 --trace t.json
//! cargo run --release -p gwc-bench --bin regen -- e1 e2 --bench 5 \
//!     --threads 4 --no-cache --out BENCH_small.json
//! ```
//!
//! `--threads N` fans the characterization study out across N worker
//! threads (default: the machine's available parallelism; `--threads 1`
//! forces the serial path). Output is bit-identical at any thread count.
//!
//! `--metrics PATH` installs the metrics recorder and writes a
//! schema-versioned JSON report (per-stage wall times, per-worker pool
//! utilization, latency histograms, per-workload kernel counts; see
//! `gwc_obs::report`) to PATH after the run. `--trace PATH` captures a
//! span timeline into a bounded ring buffer and writes it as Chrome
//! trace-event JSON — open it at `https://ui.perfetto.dev` or
//! `chrome://tracing`. `--trace-summary` prints the top spans to
//! stderr. `--flame PATH` folds the span aggregates into a self-time
//! tree (see `gwc_obs::selftime`) and writes it in the collapsed-stack
//! format `flamegraph.pl` and inferno consume. `--heartbeat PATH|-`
//! streams one self-describing NDJSON object per sampler tick (live
//! progress, stage, throughput, ETA, stall events; `-` writes to
//! stderr, never stdout) while the run executes — see
//! `gwc_obs::sampler`. The flags combine freely (one tee'd recorder)
//! and none of them perturbs the experiment output on stdout.
//!
//! Runs are incremental by default: kernel profiles persist in a
//! content-addressed cache (`.gwc-cache/`, override with `--cache DIR`)
//! keyed on kernel IR, inputs and schema versions, so a warm rerun
//! skips simulation entirely and is byte-identical to a cold one.
//! `--no-cache` restores the uncached behavior.
//!
//! `--bench N --out FILE` measures the run: one warmup and N measured
//! iterations of the whole pipeline, each under a fresh metrics
//! recorder, summarized into a bench report (`gwc_bench::perf`) with
//! min/median/p95 wall times per stage, experiment and kernel. The
//! report label is FILE's stem without a leading `BENCH_`. The
//! telemetry flags keep their meaning: their run-long recorders are
//! tee'd into every iteration, warmup included. Stdout is the last
//! iteration's experiments, byte-identical to the plain run. A bench
//! run must name its cache mode (`--cache DIR` or `--no-cache`), so a
//! cold-labelled report can never silently be a warm one.
//!
//! Exit status: 0 on success, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gwc_bench::cli::{reject_value, take_count, take_value, unknown_opt, ArgStream, Token};
use gwc_bench::perf::{build_bench_report, measure_iteration_config, validate_bench, BenchContext};
use gwc_bench::telemetry::{self, TelemetryFlags};
use gwc_bench::{all_experiments, render_experiments, StudyArtifacts, EXPERIMENTS};
use gwc_characterize::ObserverTier;
use gwc_core::pipeline::PipelineConfig;
use gwc_obs::metrics::MetricsRecorder;
use gwc_obs::report::{fmt_ns, render_summary};
use gwc_obs::sampler::TimeSeries;
use gwc_obs::{Recorder, Sampler, TeeRecorder, TraceRecorder};
use gwc_simt::backend::BackendKind;
use gwc_simt::sched::SchedPolicy;
use gwc_workloads::StudyScale;

const USAGE: &str = "\
usage: regen [EXPERIMENT...] [OPTIONS]

Regenerates experiment artifacts E1..E14 (all of them when no ids are
given) to stdout. Exits 0 on success, 2 on a usage error.

options:
  --threads N        worker threads for the study (default: available
                     parallelism; 1 forces the serial path)
  --cache DIR        persistent profile cache directory
                     (default: .gwc-cache)
  --no-cache         disable the profile cache; every workload simulates
  --backend ENGINE   warp engine: `simd` (default) or `scalar`; also
                     settable via GWC_BACKEND. Output is bit-identical
                     either way — this switches speed, not results.
  --scale TIER       study population: `standard` (default, the 26
                     canonical workloads) or `large` (adds 5 parameter-
                     swept replicas of each — hundreds of kernels)
  --observer-tier T  locality/coalescing observer memory tier: `exact`
                     (default, per-address state, the bit-exact oracle)
                     or `sketch` (bounded-memory streaming sketches)
  --policy NAME      block-dispatch policy for the E14 co-scheduled pair
                     study: `round-robin` (default), `sm-partitioned`,
                     or `leftover-fill`
  --list             list experiment ids with descriptions and exit
  --metrics PATH     write a schema-versioned JSON metrics report to PATH
  --trace PATH       write a Chrome/Perfetto trace-event timeline to PATH
  --trace-summary    print the top spans by total time to stderr
  --flame PATH       write the folded self-time tree to PATH in the
                     collapsed-stack format (flamegraph.pl / inferno)
  --heartbeat PATH|-  stream one NDJSON telemetry object per sampler tick
                     to PATH (`-` = stderr): progress per domain, stage,
                     throughput, ETA, and stall events
  --heartbeat-interval-ms N
                     sampler tick interval (default 500)
  --stall-after K    fire the stall watchdog after K zero-progress ticks,
                     0 to disable (default 8)
  --bench N          run 1 warmup + N measured iterations and write a
                     bench report (min/median/p95 wall times per stage,
                     experiment and kernel) to --out; needs an explicit
                     --cache DIR or --no-cache
  --out FILE         bench report path (only with --bench); the report
                     label is the file stem without a leading `BENCH_`
  -h, --help         print this help
";

struct Cli {
    threads: usize,
    ids: Vec<String>,
    cache: Option<PathBuf>,
    backend: BackendKind,
    scale: StudyScale,
    tier: ObserverTier,
    policy: SchedPolicy,
    metrics: Option<String>,
    trace: Option<String>,
    trace_summary: bool,
    flame: Option<String>,
    telemetry: TelemetryFlags,
    bench: Option<usize>,
    out: Option<String>,
}

/// Untimed iterations before the measured ones in `--bench` mode.
const BENCH_WARMUP: usize = 1;

fn usage_error(msg: &str) -> ! {
    eprintln!("regen: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(argv: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli {
        threads: gwc_core::available_threads(),
        ids: Vec::new(),
        cache: Some(PathBuf::from(gwc_characterize::cache::DEFAULT_DIR)),
        backend: BackendKind::from_env(),
        scale: StudyScale::Standard,
        tier: ObserverTier::Exact,
        policy: SchedPolicy::RoundRobin,
        metrics: None,
        trace: None,
        trace_summary: false,
        flame: None,
        telemetry: TelemetryFlags::default(),
        bench: None,
        out: None,
    };
    let mut cache_flag = false;
    let mut no_cache_flag = false;
    let mut args = ArgStream::new(argv);
    while let Some(token) = args.next_token() {
        let (flag, inline) = match token {
            Token::Positional(arg) => {
                cli.ids.push(arg.to_lowercase());
                continue;
            }
            Token::Opt { flag, inline } => (flag, inline),
        };
        if let Some(result) = cli.telemetry.take_opt(&flag, inline.clone(), &mut args) {
            if let Err(e) = result {
                usage_error(&e);
            }
            continue;
        }
        let result = match flag.as_str() {
            "--threads" => take_count(&flag, inline, &mut args).map(|n| cli.threads = n),
            "--cache" => take_value(&flag, inline, &mut args).map(|v| {
                cache_flag = true;
                cli.cache = Some(PathBuf::from(v));
            }),
            "--no-cache" => reject_value(&flag, inline).map(|()| {
                no_cache_flag = true;
                cli.cache = None;
            }),
            "--backend" => take_value(&flag, inline, &mut args).and_then(|v| {
                BackendKind::parse(&v)
                    .map(|kind| cli.backend = kind)
                    .ok_or(format!("unknown backend `{v}` (expected scalar or simd)"))
            }),
            "--list" => {
                if let Err(e) = reject_value(&flag, inline) {
                    usage_error(&e);
                }
                for e in EXPERIMENTS {
                    println!("{:<4} {}", e.id, e.desc);
                }
                std::process::exit(0);
            }
            "--scale" => take_value(&flag, inline, &mut args).and_then(|v| {
                StudyScale::parse(&v)
                    .map(|s| cli.scale = s)
                    .ok_or(format!("unknown scale `{v}` (expected standard or large)"))
            }),
            "--observer-tier" => take_value(&flag, inline, &mut args).and_then(|v| {
                ObserverTier::parse(&v).map(|t| cli.tier = t).ok_or(format!(
                    "unknown observer tier `{v}` (expected exact or sketch)"
                ))
            }),
            "--policy" => take_value(&flag, inline, &mut args).and_then(|v| {
                SchedPolicy::parse(&v)
                    .map(|p| cli.policy = p)
                    .ok_or(format!(
                    "unknown policy `{v}` (expected round-robin, sm-partitioned or leftover-fill)"
                ))
            }),
            "--metrics" => take_value(&flag, inline, &mut args).map(|v| cli.metrics = Some(v)),
            "--trace" => take_value(&flag, inline, &mut args).map(|v| cli.trace = Some(v)),
            "--trace-summary" => reject_value(&flag, inline).map(|()| cli.trace_summary = true),
            "--flame" => take_value(&flag, inline, &mut args).map(|v| cli.flame = Some(v)),
            "--bench" => take_count(&flag, inline, &mut args).map(|n| cli.bench = Some(n)),
            "--out" => take_value(&flag, inline, &mut args).map(|v| cli.out = Some(v)),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            _ => usage_error(&unknown_opt(&flag, inline.as_deref())),
        };
        if let Err(e) = result {
            usage_error(&e);
        }
    }
    if cache_flag && no_cache_flag {
        usage_error("--cache and --no-cache are mutually exclusive");
    }
    match (cli.bench, &cli.out) {
        (Some(0), _) => usage_error("--bench must be at least 1"),
        (Some(_), None) => usage_error("--bench needs --out FILE"),
        (None, Some(_)) => usage_error("--out needs --bench N"),
        (Some(_), Some(_)) if !cache_flag && !no_cache_flag => {
            usage_error("--bench needs an explicit --cache DIR or --no-cache")
        }
        _ => {}
    }
    if cli.ids.is_empty() {
        cli.ids = all_experiments().iter().map(|s| s.to_string()).collect();
    }
    for id in &cli.ids {
        if !all_experiments().contains(&id.as_str()) {
            usage_error(&format!(
                "unknown experiment `{id}`; known: {:?}",
                all_experiments()
            ));
        }
    }
    cli.threads = cli.threads.max(1);
    cli
}

fn main() {
    let cli = parse_args(std::env::args().skip(1));
    // A heartbeat needs the recorder installed: progress accounting
    // (like every instrumentation site) is inert until then.
    let need_metrics = cli.metrics.is_some()
        || cli.trace_summary
        || cli.flame.is_some()
        || cli.telemetry.heartbeat.is_some();
    let metrics_rec = need_metrics.then(|| Arc::new(MetricsRecorder::default()));
    let trace_rec = cli
        .trace
        .is_some()
        .then(|| Arc::new(TraceRecorder::default()));
    let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some(rec) = &metrics_rec {
        sinks.push(rec.clone());
    }
    if let Some(rec) = &trace_rec {
        sinks.push(rec.clone());
    }
    gwc_simt::backend::set_default(cli.backend);
    eprintln!(
        "running the characterization study (Small scale, seed 7, {} thread{}, cache {}, {} \
         backend, {} population, {} observers, {} co-schedule)...",
        cli.threads,
        if cli.threads == 1 { "" } else { "s" },
        match &cli.cache {
            Some(dir) => format!("{}", dir.display()),
            None => "off".to_string(),
        },
        cli.backend.name(),
        cli.scale.name(),
        cli.tier.name(),
        cli.policy.name()
    );
    let mut config = PipelineConfig {
        threads: cli.threads,
        cache_dir: cli.cache.clone(),
        ..PipelineConfig::default()
    };
    config.study.study_scale = cli.scale;
    config.study.observer_tier = cli.tier;
    config.pair_policy = cli.policy;
    let ids: Vec<&str> = cli.ids.iter().map(String::as_str).collect();
    let (text, timeseries) = match (cli.bench, &cli.out) {
        (Some(iters), Some(out)) => bench(
            &cli,
            iters,
            out,
            &config,
            &ids,
            &sinks,
            metrics_rec.as_ref(),
        ),
        _ => {
            let guard = match sinks.len() {
                0 => None,
                1 => Some(gwc_obs::install(sinks[0].clone())),
                _ => Some(gwc_obs::install(Arc::new(TeeRecorder::new(sinks)))),
            };
            // The sampler observes the freshly installed recorder's
            // counters; it must start after the install (and stop
            // before the snapshot).
            let sampler =
                telemetry::maybe_start_sampler("regen", &cli.telemetry, metrics_rec.as_ref());
            let text = render_experiments(&ids, &StudyArtifacts::collect(&config));
            // Final sampler tick (and the stall counter it may bump)
            // must land before the recorder uninstalls and the snapshot
            // is taken.
            let timeseries = sampler.map(Sampler::stop);
            drop(guard);
            (text, timeseries)
        }
    };
    print!("{text}");
    if let (Some(path), Some(trace_rec)) = (&cli.trace, &trace_rec) {
        telemetry::finish_trace("regen", path, trace_rec, metrics_rec.as_ref());
    }
    let Some(rec) = metrics_rec else {
        return;
    };
    let snap = rec.snapshot();
    if cli.trace_summary {
        eprint!("{}", render_summary(&snap, 10));
    }
    if let Some(path) = &cli.flame {
        let tree = gwc_obs::selftime::fold(&snap.spans);
        if let Err(e) = std::fs::write(path, gwc_obs::selftime::collapsed_stacks(&tree)) {
            eprintln!("regen: cannot write flame stacks to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "collapsed flame stacks written to {path} ({} node(s))",
            tree.nodes.len()
        );
    }
    if let Some(path) = &cli.metrics {
        let label = cli.out.as_deref().map_or("regen".to_string(), bench_label);
        telemetry::write_metrics_report(
            "regen",
            path,
            &snap,
            cli.threads,
            cli.ids.clone(),
            telemetry::run_meta(cli.backend.name(), cli.cache.as_deref(), &label),
            timeseries,
        );
    }
}

/// The bench report label for an output path: its file stem without a
/// leading `BENCH_` (`out/BENCH_small.json` is `small`).
fn bench_label(out: &str) -> String {
    let stem = Path::new(out)
        .file_stem()
        .map_or(out.into(), |s| s.to_string_lossy());
    stem.strip_prefix("BENCH_").unwrap_or(&stem).to_string()
}

/// `--bench`: runs the pipeline [`BENCH_WARMUP`] + `iters` times, each
/// iteration under its own fresh metrics recorder with the run-long
/// `sinks` tee'd in, and writes the bench report over the measured
/// iterations to `out`. Returns the last iteration's rendered
/// experiments and the sampler's time series.
fn bench(
    cli: &Cli,
    iters: usize,
    out: &str,
    config: &PipelineConfig,
    ids: &[&str],
    sinks: &[Arc<dyn Recorder>],
    metrics_rec: Option<&Arc<MetricsRecorder>>,
) -> (String, Option<TimeSeries>) {
    let sampler = telemetry::maybe_start_sampler("regen", &cli.telemetry, metrics_rec);
    let mut text = String::new();
    let mut samples = Vec::with_capacity(BENCH_WARMUP + iters);
    for i in 0..BENCH_WARMUP + iters {
        let (sample, rendered) = measure_iteration_config(ids, config, sinks);
        let (what, n, of) = if i < BENCH_WARMUP {
            ("warmup", i + 1, BENCH_WARMUP)
        } else {
            ("iter", i + 1 - BENCH_WARMUP, iters)
        };
        eprintln!("  {what} {n}/{of}: total {}", fmt_ns(sample.total_ns));
        samples.push(sample);
        text = rendered;
    }
    // Final tick (and any stall it detects) must land in the run-long
    // recorder before its snapshot.
    let timeseries = sampler.map(Sampler::stop);
    let report = build_bench_report(
        &BenchContext {
            label: bench_label(out),
            backend: cli.backend.name().to_string(),
            threads: cli.threads,
            warmup: BENCH_WARMUP,
            iters,
            experiment_ids: cli.ids.clone(),
            scale: cli.scale.name().to_string(),
            observer_tier: cli.tier.name().to_string(),
            policy: cli.policy.name().to_string(),
        },
        &samples[BENCH_WARMUP..],
    );
    if let Err(e) = validate_bench(&report) {
        eprintln!("regen: internal error: bench report failed validation: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(out, report.render()) {
        eprintln!("regen: cannot write bench report to `{out}`: {e}");
        std::process::exit(1);
    }
    eprintln!("bench report written to {out}");
    (text, timeseries)
}
