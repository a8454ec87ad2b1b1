//! Compares two bench reports written by `regen --bench` and fails on
//! regressions: a row regresses when its candidate median exceeds the
//! baseline median by more than the tolerance *and* the baseline is
//! above the noise floor (tiny stages jitter too much to gate on).
//!
//! ```sh
//! cargo run --release -p gwc-bench --bin bench_diff -- \
//!     results/bench_baseline_small.json BENCH_run.json
//! ```
//!
//! `--attribute` drills a regression down: it ranks the per-kernel
//! wall-median deltas and annotates each with the µop class whose
//! lane-µop count moved the most, so the offending kernel and
//! instruction mix change are named in the top row.
//!
//! Exit status: 0 = no regressions, 1 = regression found (suppressed by
//! `--warn-only`), 2 = usage or read error.

use gwc_bench::cli::{reject_value, take_count, take_ratio, unknown_opt, ArgStream, Token};
use gwc_bench::perf::{
    attribute_reports, diff_reports, render_attribution, render_diff, DiffConfig,
};
use gwc_obs::json::Json;

const USAGE: &str = "\
usage: bench_diff OLD.json NEW.json [OPTIONS]

Compares two `regen --bench` reports row by row (total, per stage, per
experiment) and exits non-zero when the candidate's median exceeds the
baseline's by more than the tolerance.

options:
  --tolerance F      allowed median ratio slack (default 0.20 = +20%)
  --min-ns N         noise floor: baseline medians below N ns never
                     regress (default 1000000 = 1ms)
  --warn-only        report regressions but exit 0
  --attribute        drill the diff down to per-kernel wall-median and
                     µop-class deltas
  -h, --help         print this help
";

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_diff: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn read_report(path: &str, role: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {role} `{path}`: {e}")));
    gwc_obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_diff: {role} `{path}` is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut warn_only = false;
    let mut attribute = false;
    let mut args = ArgStream::new(std::env::args().skip(1));
    while let Some(token) = args.next_token() {
        let (flag, inline) = match token {
            Token::Positional(arg) => {
                paths.push(arg);
                continue;
            }
            Token::Opt { flag, inline } => (flag, inline),
        };
        let result = match flag.as_str() {
            "--tolerance" => take_ratio(&flag, inline, &mut args).map(|t| cfg.tolerance = t),
            "--min-ns" => take_count(&flag, inline, &mut args).map(|n| cfg.min_ns = n as u64),
            "--warn-only" => reject_value(&flag, inline).map(|()| warn_only = true),
            "--attribute" => reject_value(&flag, inline).map(|()| attribute = true),
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
    let [old_path, new_path] = paths.as_slice() else {
        usage_error("expected exactly two report paths (OLD.json NEW.json)");
    };
    let old = read_report(old_path, "baseline");
    let new = read_report(new_path, "candidate");
    let diff = match diff_reports(&old, &new, &cfg) {
        Ok(diff) => diff,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    };
    // A cross-backend diff is a legitimate comparison (it is how the
    // SIMD speedup is measured) but never an apples-to-apples gate, so
    // flag it loudly rather than failing. Same story for population
    // scale, observer tier and co-schedule policy: a standard-vs-large,
    // exact-vs-sketch or cross-policy diff measures that change itself.
    for (what, key) in [
        ("warp engines", "backend"),
        ("study populations", "scale"),
        ("observer tiers", "observer_tier"),
        ("co-schedule policies", "policy"),
    ] {
        let old_v = old.get(key).and_then(Json::as_str).unwrap_or_default();
        let new_v = new.get(key).and_then(Json::as_str).unwrap_or_default();
        if old_v != new_v {
            eprintln!(
                "bench_diff: note: reports come from different {what} \
                 (baseline: {old_v}, candidate: {new_v}) — ratios include that change"
            );
        }
    }
    print!("{}", render_diff(&diff, &cfg));
    if attribute {
        print!("\n{}", render_attribution(&attribute_reports(&old, &new)));
    }
    let regressions = diff.regressions();
    if regressions.is_empty() {
        eprintln!(
            "bench_diff: no regressions (tolerance +{:.0}%)",
            cfg.tolerance * 100.0
        );
        return;
    }
    eprintln!(
        "bench_diff: {} row(s) regressed beyond +{:.0}%{}",
        regressions.len(),
        cfg.tolerance * 100.0,
        if warn_only {
            " (warn-only, exiting 0)"
        } else {
            ""
        }
    );
    if !warn_only {
        std::process::exit(1);
    }
}
