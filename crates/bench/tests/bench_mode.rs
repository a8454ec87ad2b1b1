//! `regen --bench N --out FILE` end to end through the real binary: the
//! bench report it writes validates and records the run's shape, and
//! its stdout is byte-identical to a plain `regen` with the same ids.

use std::process::{Command, Output};

use gwc_bench::perf::validate_bench;
use gwc_obs::json::{parse, Json};

fn regen(dir: &std::path::Path, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_regen"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn regen");
    assert_eq!(
        out.status.code(),
        Some(0),
        "regen {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn bench_mode_writes_a_valid_report_and_the_plain_stdout() {
    let dir = std::env::temp_dir().join(format!("gwc_bench_mode_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let report = dir.join("BENCH_t.json");
    let bench = regen(
        &dir,
        &[
            "e1",
            "e2",
            "--bench",
            "1",
            "--no-cache",
            "--out",
            report.to_str().unwrap(),
        ],
    );
    let plain = regen(&dir, &["e1", "e2", "--no-cache"]);
    assert!(
        bench.stdout == plain.stdout,
        "--bench stdout differs from the plain run"
    );

    let text = std::fs::read_to_string(&report).expect("bench report written");
    let doc = parse(&text).expect("bench report parses");
    validate_bench(&doc).expect("bench report validates");
    assert_eq!(doc.get("iters").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("warmup").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("label").and_then(Json::as_str), Some("t"));
    let _ = std::fs::remove_dir_all(&dir);
}
