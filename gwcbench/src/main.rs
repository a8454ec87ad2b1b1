//! gwcbench — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path gwcbench/Cargo.toml -- \
//!     --workload cold_small --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `run::SPECS`) for `--seconds` of timed,
//! untraced pipeline runs and checks every run's output. With
//! `--trace 1` it then runs the traced pass (`trace::traced`). The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). Progress and failure reasons go to stderr. Exits 2 on a
//! usage error, 1 if the result is not correct.

mod host;
mod run;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use run::{Output, Sample, Spec};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Fewest timed runs per invocation, however long each takes.
const MIN_RUNS: usize = 3;

/// Quantile of the timed runs that `wall_s` and `cpu_s` report. Other
/// tenants of a shared host only ever add time, in phases that can
/// cover half a window or more and move the median between modes; the
/// fast tenth of the runs spread less across seeds (see the README).
const TIME_QUANTILE: f64 = 0.1;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = run::SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "gwcbench: {msg}\nusage: gwcbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (7, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("`{flag}` needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("`{flag}` takes a whole number, not `{value}`")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    run::spec(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                );
            }
            "--seed" => seed = number(),
            "--seconds" => seconds = number(),
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => usage("`--trace` takes 0 or 1"),
            },
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        spec: workload.unwrap_or_else(|| usage("`--workload` is required")),
        seed,
        seconds,
        trace,
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> u64) -> f64 {
    median(&mut samples.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
}

/// The `q` quantile of `f` over the samples, interpolated linearly
/// between the two nearest ranks.
fn quantile_of(samples: &[Sample], f: impl Fn(&Sample) -> u64, q: f64) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(|s| f(s) as f64).collect();
    values.sort_by(f64::total_cmp);
    let rank = (values.len() - 1) as f64 * q;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// The reference every timed run must reproduce, or why there is none.
fn reference(args: &Args, prepared: &run::Prepared, samples: &[Sample]) -> Result<Output, String> {
    match &prepared.reference {
        Some(Ok((out, text))) => {
            if args.seed == 7 {
                run::check_golden(text)?;
            }
            Ok(out.clone())
        }
        Some(Err(e)) => Err(format!("cache fill failed: {e}")),
        None => run::cold_reference(&args.spec, args.seed, samples.first()),
    }
}

fn main() {
    let args = parse_args();
    let spec = args.spec;
    let instances = spec.instances(args.seed);
    eprintln!(
        "gwcbench: {} seed {} ({instances} workload instances, {} thread(s)), {} s{}",
        spec.name,
        args.seed,
        spec.threads,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );

    let mut prepared = run::Prepared::new(&spec, args.seed);
    let cfg = spec.config(
        args.seed,
        spec.threads,
        prepared.cache.as_ref().map(run::WorkDir::path),
    );
    let window = Duration::from_secs(args.seconds);
    let reps = run::setup_reps(&spec);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_RUNS || start.elapsed() < window {
        // The host's speed drifts over seconds, so the remaining set-up
        // repetitions are spread over the window: they then sample the
        // same conditions as the runs, not one moment before them.
        let done = prepared.setup_ns.len();
        if done < reps && start.elapsed() >= window.mul_f64(done as f64 / reps as f64) {
            prepared.repeat(&spec, args.seed);
        }
        samples.push(run::timed_run(&spec, &cfg));
    }
    while prepared.setup_ns.len() < reps {
        prepared.repeat(&spec, args.seed);
    }

    let mut failures = Vec::new();
    let reference = reference(&args, &prepared, &samples);
    let mut failed_runs = 0u64;
    for (i, s) in samples.iter().enumerate() {
        let verdict = match (&s.output, &reference) {
            (Err(e), _) => Some(format!("run {i} failed: {e}")),
            (Ok(_), Err(e)) => Some(format!("run {i} has no reference: {e}")),
            (Ok(o), Ok(r)) if o != r => Some(format!("run {i} output {o:?} != reference {r:?}")),
            _ => None,
        };
        if let Some(v) = verdict {
            failed_runs += 1;
            failures.push(v);
        }
    }
    let mut attempted = samples.len() as u64 * instances;
    let mut failed = failed_runs * instances;

    let setup_ns: Vec<f64> = prepared.setup_ns.iter().map(|&n| n as f64).collect();
    let mut metrics: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    if args.trace {
        let untraced_ns = median_of(&samples, |s| s.wall_ns) as u64;
        attempted += instances;
        match &reference {
            Ok(r) => match trace::traced(
                &spec,
                args.seed,
                prepared.cache.as_ref().map(run::WorkDir::path),
                r,
                untraced_ns,
            ) {
                Ok(report) => {
                    if !report.mismatches.is_empty() {
                        failed += instances;
                    }
                    failures.extend(report.mismatches);
                    failures.extend(report.conservation);
                    metrics.extend(report.metrics);
                }
                Err(e) => {
                    failed += instances;
                    failures.push(format!("traced pass failed: {e}"));
                }
            },
            Err(_) => failed += instances,
        }
        metrics.insert(
            "failed_frac".to_string(),
            (failed as f64 / attempted as f64, "ratio"),
        );
    } else {
        let mut put = |name: &str, value: f64, unit: &'static str| {
            metrics.insert(name.to_string(), (value, unit));
        };
        put(
            "wall_s",
            quantile_of(&samples, |s| s.wall_ns, TIME_QUANTILE) / 1e9,
            "s",
        );
        put(
            "cpu_s",
            quantile_of(&samples, |s| s.cpu_ns, TIME_QUANTILE) / 1e9,
            "s",
        );
        put("setup_s", median(&mut setup_ns.clone()) / 1e9, "s");
        put(
            "peak_rss_mb",
            median_of(&samples, |s| s.peak_rss) / 1e6,
            "MB",
        );
        put(
            "alloc_mb",
            median_of(&samples, |s| s.alloc_bytes) / 1e6,
            "MB",
        );
    }
    drop(prepared);

    let walls: Vec<String> = samples
        .iter()
        .map(|s| format!("{:.1}", s.wall_ns as f64 / 1e6))
        .collect();
    eprintln!(
        "gwcbench: {} timed runs, wall ms [{}]",
        samples.len(),
        walls.join(" ")
    );
    eprintln!(
        "gwcbench: wall ms p10 {:.1}, median {:.1}, p90 {:.1}",
        quantile_of(&samples, |s| s.wall_ns, TIME_QUANTILE) / 1e6,
        median_of(&samples, |s| s.wall_ns) / 1e6,
        quantile_of(&samples, |s| s.wall_ns, 0.9) / 1e6
    );
    let setups: Vec<String> = setup_ns
        .iter()
        .map(|&n| format!("{:.1}", n / 1e6))
        .collect();
    eprintln!(
        "gwcbench: {} set-ups, ms [{}]",
        setups.len(),
        setups.join(" ")
    );
    for f in &failures {
        eprintln!("gwcbench: FAILED: {f}");
    }
    let correct = failures.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    /// Serializes tests that run the pipeline: the allocation counter,
    /// the peak-RSS mark and the program's recorder are process-wide.
    pub static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
