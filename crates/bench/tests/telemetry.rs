//! End-to-end live telemetry through the real `regen` binary: the
//! heartbeat stream is valid NDJSON with monotone progress, it never
//! perturbs the experiment output on stdout, and an injected stall
//! (via the `GWC_TEST_STALL_MS` test hook) makes the watchdog fire and
//! name the open span.
//!
//! These spawn the real binary because the contract under test is the
//! operator-visible one: flags, files, streams, and exit codes.

use std::process::{Command, Output};

use gwc_obs::json::parse;
use gwc_obs::sampler::validate_heartbeat;

fn regen(dir: &std::path::Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_regen"));
    cmd.current_dir(dir).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn regen")
}

#[test]
fn heartbeat_streams_valid_ndjson_without_perturbing_stdout() {
    let dir = std::env::temp_dir().join(format!("gwc_telemetry_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let hb = dir.join("hb.ndjson");
    let hb_arg = hb.to_str().unwrap();

    // Cold run with a fast heartbeat (cache warms for the control run).
    let with_hb = regen(
        &dir,
        &[
            "e1",
            "--threads",
            "2",
            "--cache",
            "cache",
            "--heartbeat",
            hb_arg,
            "--heartbeat-interval-ms",
            "25",
            "--stall-after",
            "0",
        ],
        &[],
    );
    assert_eq!(
        with_hb.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&with_hb.stderr)
    );

    // The stream validates: parseable lines, strictly increasing seq,
    // monotone progress, and at least two ticks (initial + final are
    // guaranteed even for runs shorter than the interval).
    let text = std::fs::read_to_string(&hb).expect("heartbeat file written");
    let summary = validate_heartbeat(&text).expect("valid heartbeat stream");
    assert!(summary.ticks >= 2, "{summary:?}");
    assert_eq!(summary.stalls, 0, "{summary:?}");

    // Ticks are self-describing: the last one names the final stage and
    // shows every declared workload done.
    let last_tick = text
        .lines()
        .rfind(|l| l.contains("\"type\": \"tick\""))
        .expect("at least one tick line");
    let tick = parse(last_tick).expect("tick parses");
    assert_eq!(tick.get("stage").unwrap().as_str(), Some("cluster"));
    let workloads = tick.get("progress").unwrap().get("workloads").unwrap();
    let done = workloads.get("done").unwrap().as_u64().unwrap();
    assert_eq!(workloads.get("total").unwrap().as_u64().unwrap(), done);
    assert!(done > 10, "study ran {done} workloads");
    assert_eq!(tick.get("eta_ms").unwrap().as_u64(), Some(0));

    // Control: the same run without a heartbeat (warm cache) produces
    // byte-identical experiment output.
    let plain = regen(&dir, &["e1", "--threads", "2", "--cache", "cache"], &[]);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(
        with_hb.stdout, plain.stdout,
        "heartbeat must not perturb stdout"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_stall_trips_the_watchdog_and_names_the_open_span() {
    let dir = std::env::temp_dir().join(format!("gwc_telemetry_stall_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let hb = dir.join("hb_stall.ndjson");
    let hb_arg = hb.to_str().unwrap();

    // --threads 1 pins the injected sleep (and the open span it freezes
    // under) to the serial path; stall_after=3 at 25ms fires well inside
    // the 800ms injected stall.
    let out = regen(
        &dir,
        &[
            "e1",
            "--threads",
            "1",
            "--no-cache",
            "--heartbeat",
            hb_arg,
            "--heartbeat-interval-ms",
            "25",
            "--stall-after",
            "3",
        ],
        &[("GWC_TEST_STALL_MS", "800")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("gwc-telemetry: stall: no progress for"),
        "watchdog warning missing from stderr:\n{stderr}"
    );

    let text = std::fs::read_to_string(&hb).expect("heartbeat file written");
    let summary = validate_heartbeat(&text).expect("valid heartbeat stream");
    assert!(summary.stalls >= 1, "no stall event in stream: {summary:?}");

    let stall_line = text
        .lines()
        .find(|l| l.contains("\"type\": \"stall\""))
        .expect("stall line present");
    let stall = parse(stall_line).expect("stall event parses");
    let open = stall.get("open_spans").unwrap().as_arr().unwrap();
    assert!(
        open.iter()
            .any(|p| p.as_str().is_some_and(|p| p.starts_with("study/workload/"))),
        "stall does not name the stalled workload span: {stall_line}"
    );
    // The sleep freezes progress for 800ms; the watchdog must report a
    // stall within 3 sample intervals of arming, i.e. well under that.
    let stalled_ms = stall.get("stalled_ms").unwrap().as_u64().unwrap();
    assert!(
        (75..800).contains(&stalled_ms),
        "stall latency out of range: {stalled_ms}ms"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
