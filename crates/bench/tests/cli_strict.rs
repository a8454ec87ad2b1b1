//! Every bench binary rejects unknown options with exit status 2.
//!
//! The binaries share one tokenizer (`gwc_bench::cli`), so an argument
//! that starts with `-` and is not a recognized flag must never be
//! swallowed as a positional — a typo like `--warnonly` silently
//! becoming an experiment id (or worse, being ignored) would turn an
//! enforcing CI gate into a no-op. These tests spawn the real binaries
//! because the strictness contract lives in each `main`, not just in
//! the shared helpers.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn `{bin}`: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Flags that put `regen` into benchmark mode; prefixed to a case so the
/// flag under test is parsed in that mode too.
const BENCH_MODE: [&str; 5] = ["--bench", "1", "--no-cache", "--out", "never_written.json"];

/// `args` as given, and the same args in benchmark mode.
fn both_modes<'a>(args: &[&'a str]) -> [Vec<&'a str>; 2] {
    [args.to_vec(), [&BENCH_MODE[..], args].concat()]
}

/// All three binaries (`regen` in both of its modes), each with an
/// unknown option mixed into otherwise plausible arguments. None of
/// these invocations may start real work.
fn rejection_cases() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            env!("CARGO_BIN_EXE_regen"),
            [&BENCH_MODE[..], &["e1", "--bogus"]].concat(),
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            vec!["old.json", "new.json", "--bogus"],
        ),
        (env!("CARGO_BIN_EXE_regen"), vec!["e1", "--bogus"]),
        (
            env!("CARGO_BIN_EXE_metrics_check"),
            vec!["--bogus", "m.json"],
        ),
    ]
}

#[test]
fn unknown_options_exit_2_with_a_diagnostic() {
    for (bin, args) in rejection_cases() {
        let out = run(bin, &args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?}: expected usage-error exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            stderr_of(&out)
        );
        let err = stderr_of(&out);
        assert!(
            err.contains("unknown option `--bogus`"),
            "{bin} {args:?}: stderr missing diagnostic:\n{err}"
        );
        assert!(
            err.contains("usage:"),
            "{bin} {args:?}: stderr missing usage text:\n{err}"
        );
    }
}

#[test]
fn single_dash_junk_is_an_option_not_a_positional() {
    // `-x=3` must not be treated as a file path or experiment id.
    let out = run(env!("CARGO_BIN_EXE_regen"), &["-x=3"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("unknown option `-x=3`"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn help_exits_0_everywhere() {
    for (bin, _) in rejection_cases() {
        for help in ["--help", "-h"] {
            let out = run(bin, &[help]);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{bin} {help}: {}",
                stderr_of(&out)
            );
            assert!(
                String::from_utf8_lossy(&out.stdout).contains("usage:"),
                "{bin} {help}: no usage text on stdout"
            );
        }
    }
}

#[test]
fn missing_and_malformed_values_exit_2() {
    let cases: Vec<(&str, Vec<&str>, &str)> = vec![
        (
            env!("CARGO_BIN_EXE_regen"),
            vec!["--bench"],
            "--bench needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_regen"),
            vec!["--bench=zero"],
            "--bench: `zero` is not a count",
        ),
        (
            env!("CARGO_BIN_EXE_regen"),
            vec!["e1", "--bench", "0", "--no-cache", "--out", "x.json"],
            "--bench must be at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_regen"),
            vec!["e1", "--bench", "1", "--no-cache"],
            "--bench needs --out FILE",
        ),
        (
            env!("CARGO_BIN_EXE_regen"),
            vec!["e1", "--out", "x.json"],
            "--out needs --bench N",
        ),
        (
            // No silent default: a bench report must say cold or warm.
            env!("CARGO_BIN_EXE_regen"),
            vec!["e1", "--bench", "1", "--out", "x.json"],
            "--bench needs an explicit --cache DIR or --no-cache",
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            vec!["--tolerance", "-1", "a.json", "b.json"],
            "--tolerance: `-1` is not a non-negative number",
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            vec!["--warn-only=yes", "a.json", "b.json"],
            "--warn-only takes no value",
        ),
    ];
    for (bin, args, want) in cases {
        let out = run(bin, &args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let err = stderr_of(&out);
        assert!(err.contains(want), "{bin} {args:?}: stderr:\n{err}");
    }
}

#[test]
fn invalid_backend_exits_2_without_starting_work() {
    let bin = env!("CARGO_BIN_EXE_regen");
    for case in [
        ["e1", "--backend", "cuda"].as_slice(),
        ["e1", "--backend=avx512"].as_slice(),
        ["e1", "--backend"].as_slice(),
    ] {
        for args in both_modes(case) {
            let out = run(bin, &args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let err = stderr_of(&out);
            assert!(
                err.contains("backend") && err.contains("usage:"),
                "{args:?}: stderr:\n{err}"
            );
        }
    }
}

#[test]
fn bench_diff_flags_cross_backend_comparisons() {
    use gwc_bench::perf::{build_bench_report, BenchContext};
    use gwc_core::pipeline::StageId;

    let dir = std::env::temp_dir().join(format!("gwc_bench_diff_backend_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let report = |backend: &str| {
        let ctx = BenchContext {
            label: "x".into(),
            backend: backend.into(),
            threads: 1,
            warmup: 0,
            iters: 1,
            experiment_ids: vec!["e1".into()],
            scale: "standard".into(),
            observer_tier: "exact".into(),
            policy: "round-robin".into(),
        };
        let sample = gwc_bench::perf::BenchSample {
            total_ns: 5_000_000,
            stages: StageId::ALL
                .iter()
                .map(|s| (s.name().to_string(), 1_000_000))
                .collect(),
            experiments: vec![("e1".into(), 1_000_000)],
            kernels: Vec::new(),
        };
        build_bench_report(&ctx, &[sample])
    };
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, report("scalar").render()).expect("write baseline");
    std::fs::write(&new, report("simd").render()).expect("write candidate");

    let out = run(
        env!("CARGO_BIN_EXE_bench_diff"),
        &[old.to_str().unwrap(), new.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("different warp engines")
            && err.contains("baseline: scalar")
            && err.contains("candidate: simd"),
        "missing cross-backend note:\n{err}"
    );

    // Same backend on both sides: no note.
    std::fs::write(&old, report("simd").render()).expect("rewrite baseline");
    let out = run(
        env!("CARGO_BIN_EXE_bench_diff"),
        &[old.to_str().unwrap(), new.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(
        !stderr_of(&out).contains("different warp engines"),
        "{}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_diff_attribute_names_the_offending_kernel_and_uop_class() {
    use gwc_bench::perf::{build_bench_report, BenchContext, BenchSample, KernelRollup};
    use gwc_core::pipeline::StageId;

    let dir = std::env::temp_dir().join(format!("gwc_bench_diff_attr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // Fixture: two kernels; the candidate run slows `histogram` down 3x
    // with a matching burst of atomic lane-µops, while `fft_pass` and
    // everything else stays put.
    let report = |histogram_slow: bool| {
        let (wall, atomics) = if histogram_slow {
            (9_000_000, 900_000)
        } else {
            (3_000_000, 300_000)
        };
        let kernels = vec![
            KernelRollup {
                name: "histogram".into(),
                launches: 8,
                wall_ns: wall,
                classes: vec![
                    ("atomic".into(), atomics / 32, atomics),
                    ("int_alu".into(), 4_000, 128_000),
                ],
            },
            KernelRollup {
                name: "fft_pass".into(),
                launches: 4,
                wall_ns: 2_000_000,
                classes: vec![("fp_alu".into(), 8_000, 256_000)],
            },
        ];
        let sample = BenchSample {
            total_ns: 20_000_000 + if histogram_slow { 6_000_000 } else { 0 },
            stages: StageId::ALL
                .iter()
                .map(|s| (s.name().to_string(), 2_000_000))
                .collect(),
            experiments: vec![("e1".into(), 2_000_000)],
            kernels,
        };
        let ctx = BenchContext {
            label: "attr".into(),
            backend: "simd".into(),
            threads: 1,
            warmup: 0,
            iters: 1,
            experiment_ids: vec!["e1".into()],
            scale: "standard".into(),
            observer_tier: "exact".into(),
            policy: "round-robin".into(),
        };
        build_bench_report(&ctx, &[sample])
    };
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, report(false).render()).expect("write baseline");
    std::fs::write(&new, report(true).render()).expect("write candidate");

    let out = run(
        env!("CARGO_BIN_EXE_bench_diff"),
        &[
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--attribute",
            "--warn-only",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut rows = stdout
        .lines()
        .skip_while(|l| !l.starts_with("per-kernel attribution"))
        .skip(2); // section header + column header
    let top = rows.next().expect("attribution table has a top row");
    assert!(
        top.starts_with("histogram") && top.contains("atomic") && top.contains("100%"),
        "top row must name the slow kernel and its µop class:\n{stdout}"
    );
    assert!(
        rows.next().is_some_and(|r| r.starts_with("fft_pass")),
        "unchanged kernel ranks below:\n{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn regen_list_prints_every_experiment_and_exits_0() {
    let out = run(env!("CARGO_BIN_EXE_regen"), &["--list"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for id in ["e1", "e7", "e13", "e14"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(id)),
            "--list missing `{id}`:\n{stdout}"
        );
    }
    assert_eq!(stdout.lines().count(), 14, "{stdout}");
}

#[test]
fn invalid_policy_exits_2_without_starting_work() {
    let bin = env!("CARGO_BIN_EXE_regen");
    for case in [
        ["e1", "--policy", "bogus"].as_slice(),
        ["e1", "--policy=greedy"].as_slice(),
        ["e1", "--policy"].as_slice(),
    ] {
        for args in both_modes(case) {
            let out = run(bin, &args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let err = stderr_of(&out);
            assert!(
                err.contains("policy") && err.contains("usage:"),
                "{args:?}: stderr:\n{err}"
            );
        }
    }
}

#[test]
fn cache_and_no_cache_conflict_exits_2() {
    for args in both_modes(&["e1", "--cache", "dir", "--no-cache"]) {
        let out = run(env!("CARGO_BIN_EXE_regen"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("--cache and --no-cache are mutually exclusive"),
            "{args:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn metrics_check_counter_assertions_parse_strictly() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["m.json", "--counter"], "--counter needs a value"),
        (vec!["--counter=cache.hits", "m.json"], "is not NAME=VALUE"),
        (
            vec!["--counter=cache.hits=abc", "m.json"],
            "is not an unsigned integer",
        ),
        (vec!["--counter==3", "m.json"], "empty counter name"),
        (
            vec!["--counter=cache.*hits=3", "m.json"],
            "`*` is only allowed as a trailing glob",
        ),
        (
            vec!["--counter=*cache=7", "m.json"],
            "`*` is only allowed as a trailing glob",
        ),
        (vec!["m.json", "--hist"], "--hist needs a value"),
        (vec!["--hist=", "m.json"], "empty histogram name"),
        (
            vec!["--min-ticks", "2", "m.json"],
            "--min-ticks requires --heartbeat",
        ),
    ];
    for (args, want) in cases {
        let out = run(env!("CARGO_BIN_EXE_metrics_check"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(want),
            "{args:?}: stderr:\n{}",
            stderr_of(&out)
        );
    }
}

#[test]
fn telemetry_flags_parse_strictly_in_both_run_modes() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["e1", "--heartbeat"], "--heartbeat needs a value"),
        (
            vec!["e1", "--heartbeat-interval-ms=0"],
            "interval must be positive",
        ),
        (
            vec!["e1", "--heartbeat-interval-ms=soon"],
            "`soon` is not a count",
        ),
        (vec!["e1", "--stall-after=-1"], "is not a count"),
        // The report sinks parse the same with and without --bench.
        (vec!["e1", "--metrics"], "--metrics needs a value"),
        (vec!["e1", "--trace"], "--trace needs a value"),
    ];
    for (case, want) in cases {
        for args in both_modes(&case) {
            let out = run(env!("CARGO_BIN_EXE_regen"), &args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(
                stderr_of(&out).contains(want),
                "{args:?}: stderr:\n{}",
                stderr_of(&out)
            );
        }
    }
}

#[test]
fn bench_diff_requires_exactly_two_paths() {
    let out = run(env!("CARGO_BIN_EXE_bench_diff"), &["only_one.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("expected exactly two report paths"),
        "{}",
        stderr_of(&out)
    );
}
