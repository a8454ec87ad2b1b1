//! Cold-vs-warm cache equivalence, driven through the real `regen`
//! binary: a warm rerun must be byte-identical to the cold run (and to
//! the golden snapshot), must skip simulation entirely (26 cache hits,
//! zero misses), and corrupt cache entries must be recomputed silently
//! without perturbing the output.
//!
//! The sequential steps live in one `#[test]` because they share a cache
//! directory and are ordered: cold populates, warm consumes, corruption
//! forces a partial recompute. A second test starts two cold writers on
//! one directory at once.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use gwc_obs::json::{self, Json};

/// Every workload in the registry is studied (the canonical
/// `vector_add` exclusion happens after the study stage), so a cold run
/// misses once per workload and a warm run hits once per workload.
const REGISTRY_SIZE: u64 = 26;

/// Matrix column blocks are assembled after the `vector_add` exclusion,
/// so the matrix cache holds one entry fewer than the profile cache.
const MATRIX_BLOCKS: u64 = REGISTRY_SIZE - 1;

fn regen(cache: &Path, metrics: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regen"))
        .arg("--cache")
        .arg(cache)
        .arg("--metrics")
        .arg(metrics)
        .output()
        .expect("spawn regen")
}

fn counter_value(metrics: &Path, name: &str) -> u64 {
    let text = fs::read_to_string(metrics).expect("metrics report exists");
    let doc = json::parse(&text).expect("metrics report parses");
    let counters = doc
        .get("counters")
        .and_then(Json::as_arr)
        .expect("report has counters");
    counters
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|c| c.get("value").and_then(Json::as_u64))
        .unwrap_or(0)
}

fn golden() -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/regen_all_small_seed7.txt");
    fs::read_to_string(path).expect("golden snapshot exists")
}

#[test]
fn warm_reruns_are_byte_identical_and_simulation_free() {
    let base = std::env::temp_dir().join(format!("gwc-cache-warm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("create temp dir");
    let cache = base.join("cache");

    // Cold: every workload simulates and is stored.
    let cold_metrics = base.join("cold.json");
    let cold = regen(&cache, &cold_metrics);
    assert_eq!(
        cold.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_stdout = String::from_utf8(cold.stdout).expect("utf8 stdout");
    assert_eq!(cold_stdout, golden(), "cold run diverged from the snapshot");
    assert_eq!(counter_value(&cold_metrics, "cache.misses"), REGISTRY_SIZE);
    assert_eq!(counter_value(&cold_metrics, "cache.hits"), 0);
    assert!(counter_value(&cold_metrics, "cache.bytes_written") > 0);
    assert_eq!(
        counter_value(&cold_metrics, "matrix.cache.misses"),
        MATRIX_BLOCKS
    );
    assert_eq!(counter_value(&cold_metrics, "matrix.cache.hits"), 0);

    // Warm: same bytes out, zero simulations, nothing rewritten.
    let warm_metrics = base.join("warm.json");
    let warm = regen(&cache, &warm_metrics);
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&warm.stdout),
        cold_stdout,
        "warm rerun is not byte-identical to the cold run"
    );
    assert_eq!(counter_value(&warm_metrics, "cache.hits"), REGISTRY_SIZE);
    assert_eq!(counter_value(&warm_metrics, "cache.misses"), 0);
    assert_eq!(counter_value(&warm_metrics, "cache.bytes_written"), 0);
    assert_eq!(
        counter_value(&warm_metrics, "matrix.cache.hits"),
        MATRIX_BLOCKS
    );
    assert_eq!(counter_value(&warm_metrics, "matrix.cache.misses"), 0);

    // Corrupt two profile entries: they recompute silently, output
    // unchanged. Profile entries are bare-hex filenames; matrix column
    // blocks share the directory under an `m` prefix.
    let all_entries: Vec<PathBuf> = fs::read_dir(&cache)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    let mut entries: Vec<PathBuf> = all_entries
        .iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| !n.starts_with('m'))
        })
        .cloned()
        .collect();
    entries.sort();
    assert_eq!(entries.len() as u64, REGISTRY_SIZE);
    assert_eq!(
        (all_entries.len() - entries.len()) as u64,
        MATRIX_BLOCKS,
        "one matrix block per post-exclusion workload"
    );
    fs::write(&entries[0], "not json at all").expect("corrupt entry");
    fs::write(&entries[1], "{\"cache_version\": 9999}").expect("skew entry");

    let repair_metrics = base.join("repair.json");
    let repaired = regen(&cache, &repair_metrics);
    assert_eq!(repaired.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&repaired.stdout),
        cold_stdout,
        "corrupt cache entries perturbed the output"
    );
    assert_eq!(counter_value(&repair_metrics, "cache.misses"), 2);
    assert_eq!(
        counter_value(&repair_metrics, "cache.hits"),
        REGISTRY_SIZE - 2
    );
    // Recomputed profiles are bit-identical, so their fingerprints (and
    // the matrix blocks keyed on them) are untouched.
    assert_eq!(
        counter_value(&repair_metrics, "matrix.cache.hits"),
        MATRIX_BLOCKS
    );
    // The two recomputed entries were stored back in repaired form.
    assert!(counter_value(&repair_metrics, "cache.bytes_written") > 0);

    let _ = fs::remove_dir_all(&base);
}

#[test]
fn concurrent_cold_writers_agree_and_leave_a_complete_cache() {
    let base = std::env::temp_dir().join(format!("gwc-cache-race-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("create temp dir");
    let cache = base.join("cache");

    // Both writers start cold on the same directory before either ends,
    // so their stores of every entry race.
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_regen"))
            .args(["e3", "--threads", "1", "--cache"])
            .arg(&cache)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn regen")
    };
    let (a, b) = (spawn(), spawn());
    let a = a.wait_with_output().expect("first writer runs");
    let b = b.wait_with_output().expect("second writer runs");
    for out in [&a, &b] {
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(!a.stdout.is_empty());
    assert_eq!(a.stdout, b.stdout, "concurrent writers disagree");

    // Whatever interleaving won, the cache now serves every entry.
    let metrics = base.join("third.json");
    let third = Command::new(env!("CARGO_BIN_EXE_regen"))
        .args(["e3", "--threads", "1", "--cache"])
        .arg(&cache)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("spawn regen");
    assert_eq!(third.status.code(), Some(0));
    assert_eq!(third.stdout, a.stdout, "warm run diverged from the writers");
    assert_eq!(counter_value(&metrics, "cache.misses"), 0);
    assert_eq!(counter_value(&metrics, "cache.hits"), REGISTRY_SIZE);
    assert_eq!(counter_value(&metrics, "matrix.cache.misses"), 0);
    assert_eq!(counter_value(&metrics, "matrix.cache.hits"), MATRIX_BLOCKS);

    let _ = fs::remove_dir_all(&base);
}
