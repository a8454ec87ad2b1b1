//! The background telemetry sampler: periodic snapshots of progress,
//! counters, and histogram quantiles, a bounded time-series ring, a
//! live NDJSON heartbeat stream, and a stall watchdog.
//!
//! A [`Sampler`] runs on its own thread for the lifetime of a recorded
//! run. At every tick (configurable interval, plus one tick at start
//! and one final tick at stop — so even an instant run emits ≥ 2) it
//! reads [`crate::progress::snapshot`] and, when given one, the
//! [`MetricsRecorder`]'s counters and histogram quantiles, derives
//! block throughput and an ETA, and
//!
//! * pushes a [`TimeSample`] into a bounded ring ([`TimeSeries`]) that
//!   the metrics report exports as its `timeseries` section, and
//! * writes one self-describing JSON object per tick to the heartbeat
//!   sink (`regen --heartbeat PATH|-`), newline-delimited.
//!
//! The sampler is strictly read-only over engine state: it observes
//! atomic progress counters and clones recorder aggregates, so results
//! are bit-identical with or without it.
//!
//! # The stall watchdog
//!
//! [`SamplerConfig::stall_after`] consecutive ticks with zero progress
//! (no domain ticked, same epoch) fire a stall event naming the
//! currently-open span paths (see [`crate::span::open_spans`]) to
//! stderr and the heartbeat stream, bump the `telemetry.stalls`
//! counter through [`crate::recorder::Recorder::record_stall`], and
//! append to [`TimeSeries::stall_events`]. The watchdog re-arms once
//! progress resumes, so one stuck phase fires once, not every tick.

use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::MetricsRecorder;
use crate::progress::{self, ProgressSnapshot};

/// Configuration of a [`Sampler`].
pub struct SamplerConfig {
    /// Time between periodic ticks.
    pub interval: Duration,
    /// Ring capacity; the oldest samples are dropped (and counted in
    /// [`TimeSeries::dropped`]) once the run outgrows it.
    pub ring_capacity: usize,
    /// Consecutive zero-progress ticks before the watchdog fires;
    /// `0` disables the watchdog.
    pub stall_after: u32,
    /// Recorder whose counters and histogram quantiles each tick
    /// snapshots (`None`: progress only).
    pub metrics: Option<Arc<MetricsRecorder>>,
    /// Heartbeat sink: one JSON object per line per tick.
    pub heartbeat: Option<Box<dyn Write + Send>>,
    /// Whether stall events are also printed to stderr.
    pub stall_stderr: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            ring_capacity: 512,
            stall_after: 8,
            metrics: None,
            heartbeat: None,
            stall_stderr: true,
        }
    }
}

/// Quantile summary of one histogram at a tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistQuantiles {
    /// Histogram name.
    pub name: String,
    /// Samples recorded so far.
    pub count: u64,
    /// p50 upper bucket edge, ns.
    pub p50_ns: u64,
    /// p90 upper bucket edge, ns.
    pub p90_ns: u64,
    /// p99 upper bucket edge, ns.
    pub p99_ns: u64,
    /// Largest recorded value, ns.
    pub max_ns: u64,
}

/// One sampler tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSample {
    /// Emission sequence number, strictly increasing across every
    /// object the sampler emits (ticks and stall events share it).
    pub seq: u64,
    /// Milliseconds since the sampler started.
    pub t_ms: u64,
    /// Progress counters at this instant.
    pub progress: ProgressSnapshot,
    /// Blocks completed per second since the previous tick.
    pub blocks_per_s: f64,
    /// Estimated milliseconds to completion, extrapolated from the
    /// first incomplete coarse domain (workloads, then stages); `None`
    /// before enough progress exists to extrapolate from.
    pub eta_ms: Option<u64>,
    /// Stall events fired so far (cumulative).
    pub stalls: u64,
    /// Counter values, ordered by name (empty without a recorder).
    pub counters: Vec<(String, u64)>,
    /// Histogram quantiles, ordered by name (empty without a recorder).
    pub hists: Vec<HistQuantiles>,
}

impl TimeSample {
    /// The tick as a self-describing JSON object (without the
    /// heartbeat's `"type"` tag — the report embeds these directly).
    pub fn to_json(&self) -> Json {
        let progress = self
            .progress
            .domains()
            .iter()
            .map(|(name, c)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("done".into(), Json::UInt(c.done)),
                        ("total".into(), Json::UInt(c.total)),
                    ]),
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), Json::UInt(*v)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|h| {
                (
                    h.name.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::UInt(h.count)),
                        ("p50_ns".into(), Json::UInt(h.p50_ns)),
                        ("p90_ns".into(), Json::UInt(h.p90_ns)),
                        ("p99_ns".into(), Json::UInt(h.p99_ns)),
                        ("max_ns".into(), Json::UInt(h.max_ns)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("seq".into(), Json::UInt(self.seq)),
            ("t_ms".into(), Json::UInt(self.t_ms)),
            ("epoch".into(), Json::UInt(self.progress.epoch)),
            ("stage".into(), Json::Str(self.progress.stage.clone())),
            ("progress".into(), Json::Obj(progress)),
            ("blocks_per_s".into(), Json::Num(self.blocks_per_s)),
            (
                "eta_ms".into(),
                match self.eta_ms {
                    Some(ms) => Json::UInt(ms),
                    None => Json::Null,
                },
            ),
            ("stalls".into(), Json::UInt(self.stalls)),
            ("counters".into(), Json::Obj(counters)),
            ("hists".into(), Json::Obj(hists)),
        ])
    }
}

/// One watchdog firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallEvent {
    /// Emission sequence number (shared with ticks).
    pub seq: u64,
    /// Milliseconds since the sampler started.
    pub t_ms: u64,
    /// How long progress had been flat when the watchdog fired.
    pub stalled_ms: u64,
    /// Innermost open span path of each thread with open spans, sorted.
    pub open_spans: Vec<String>,
}

impl StallEvent {
    /// The event as a JSON object (without the heartbeat `"type"` tag).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seq".into(), Json::UInt(self.seq)),
            ("t_ms".into(), Json::UInt(self.t_ms)),
            ("stalled_ms".into(), Json::UInt(self.stalled_ms)),
            (
                "open_spans".into(),
                Json::Arr(
                    self.open_spans
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The bounded time-series ring a [`Sampler`] accumulates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Configured tick interval, ms.
    pub interval_ms: u64,
    /// Ring capacity the run was configured with.
    pub capacity: usize,
    /// Retained samples, oldest first.
    pub samples: Vec<TimeSample>,
    /// Samples dropped from the front once the ring filled.
    pub dropped: u64,
    /// Stall events fired.
    pub stalls: u64,
    /// The stall events themselves (bounded by [`MAX_STALL_EVENTS`]).
    pub stall_events: Vec<StallEvent>,
}

/// Retained stall events per run; further stalls still count in
/// [`TimeSeries::stalls`] but keep no per-event record.
pub const MAX_STALL_EVENTS: usize = 64;

impl TimeSeries {
    fn push(&mut self, sample: TimeSample) {
        if self.capacity > 0 && self.samples.len() == self.capacity {
            self.samples.remove(0);
            self.dropped += 1;
        }
        self.samples.push(sample);
    }

    /// The ring as the metrics report's `timeseries` section.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("interval_ms".into(), Json::UInt(self.interval_ms)),
            ("capacity".into(), Json::UInt(self.capacity as u64)),
            ("dropped".into(), Json::UInt(self.dropped)),
            ("stalls".into(), Json::UInt(self.stalls)),
            (
                "samples".into(),
                Json::Arr(self.samples.iter().map(TimeSample::to_json).collect()),
            ),
            (
                "stall_events".into(),
                Json::Arr(self.stall_events.iter().map(StallEvent::to_json).collect()),
            ),
        ])
    }
}

struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// A running background sampler; stop it with [`Sampler::stop`] to
/// collect the ring. Only one sampler should run at a time (open-span
/// tracking is process-global).
pub struct Sampler {
    flag: Arc<StopFlag>,
    handle: JoinHandle<TimeSeries>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sampler")
    }
}

impl Sampler {
    /// Starts the sampler thread; the first tick is emitted immediately.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the thread.
    pub fn start(cfg: SamplerConfig) -> Sampler {
        crate::span::set_open_tracking(true);
        let flag = Arc::new(StopFlag {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_flag = flag.clone();
        let handle = std::thread::Builder::new()
            .name("gwc-sampler".into())
            .spawn(move || run(cfg, &thread_flag))
            .expect("spawn sampler thread");
        Sampler { flag, handle }
    }

    /// Signals the thread, waits for its final tick, and returns the
    /// accumulated ring.
    ///
    /// # Panics
    ///
    /// Panics if the sampler thread itself panicked.
    pub fn stop(self) -> TimeSeries {
        *self.flag.stopped.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.flag.cv.notify_all();
        let series = self.handle.join().expect("sampler thread panicked");
        crate::span::set_open_tracking(false);
        series
    }
}

/// Watchdog and throughput state carried between ticks.
struct Pacer {
    prev: Option<(u64, u64, u64)>, // (epoch, done_sum, blocks_done) at prev tick
    prev_t_ms: u64,
    last_progress_t_ms: u64,
    zero_streak: u32,
    latched: bool,
}

fn run(mut cfg: SamplerConfig, flag: &StopFlag) -> TimeSeries {
    let t0 = Instant::now();
    let mut series = TimeSeries {
        interval_ms: cfg.interval.as_millis() as u64,
        capacity: cfg.ring_capacity,
        ..TimeSeries::default()
    };
    let mut seq = 0u64;
    let mut pacer = Pacer {
        prev: None,
        prev_t_ms: 0,
        last_progress_t_ms: 0,
        zero_streak: 0,
        latched: false,
    };
    emit_tick(&mut cfg, &mut series, &mut seq, &mut pacer, t0);
    loop {
        let stopped = {
            let guard = flag.stopped.lock().unwrap_or_else(|p| p.into_inner());
            let (guard, _) = flag
                .cv
                .wait_timeout_while(guard, cfg.interval, |stopped| !*stopped)
                .unwrap_or_else(|p| p.into_inner());
            *guard
        };
        emit_tick(&mut cfg, &mut series, &mut seq, &mut pacer, t0);
        if stopped {
            return series;
        }
    }
}

fn emit_tick(
    cfg: &mut SamplerConfig,
    series: &mut TimeSeries,
    seq: &mut u64,
    pacer: &mut Pacer,
    t0: Instant,
) {
    let t_ms = t0.elapsed().as_millis() as u64;
    let progress = progress::snapshot();
    let (counters, hists) = match &cfg.metrics {
        Some(rec) => {
            let snap = rec.snapshot();
            let hists = snap
                .hists
                .iter()
                .map(|(name, h)| HistQuantiles {
                    name: name.clone(),
                    count: h.count(),
                    p50_ns: h.quantile(0.50),
                    p90_ns: h.quantile(0.90),
                    p99_ns: h.quantile(0.99),
                    max_ns: h.max(),
                })
                .collect();
            (snap.counters, hists)
        }
        None => (Vec::new(), Vec::new()),
    };

    // Throughput and the watchdog both key on "did any domain tick".
    let done_sum = progress.done_sum();
    let blocks_done = progress.blocks.done;
    let blocks_per_s = match pacer.prev {
        Some((epoch, _, prev_blocks)) if epoch == progress.epoch && t_ms > pacer.prev_t_ms => {
            blocks_done.saturating_sub(prev_blocks) as f64 / ((t_ms - pacer.prev_t_ms) as f64 / 1e3)
        }
        _ => 0.0,
    };
    let moved = match pacer.prev {
        Some((epoch, prev_done, _)) => epoch != progress.epoch || prev_done != done_sum,
        None => true,
    };
    if moved {
        pacer.zero_streak = 0;
        pacer.latched = false;
        pacer.last_progress_t_ms = t_ms;
    } else {
        pacer.zero_streak += 1;
    }
    pacer.prev = Some((progress.epoch, done_sum, blocks_done));
    pacer.prev_t_ms = t_ms;

    let sample = TimeSample {
        seq: *seq,
        t_ms,
        eta_ms: eta_ms(t_ms, &progress),
        progress,
        blocks_per_s,
        stalls: series.stalls,
        counters,
        hists,
    };
    *seq += 1;
    heartbeat_write(cfg, "tick", sample.to_json());
    series.push(sample);

    if cfg.stall_after > 0 && pacer.zero_streak >= cfg.stall_after && !pacer.latched {
        pacer.latched = true;
        let event = StallEvent {
            seq: *seq,
            t_ms,
            stalled_ms: t_ms.saturating_sub(pacer.last_progress_t_ms),
            open_spans: crate::span::open_spans(),
        };
        *seq += 1;
        series.stalls += 1;
        if let Some(last) = series.samples.last_mut() {
            last.stalls = series.stalls;
        }
        if cfg.stall_stderr {
            eprintln!(
                "gwc-telemetry: stall: no progress for {}ms ({} tick(s)); open spans: [{}]",
                event.stalled_ms,
                pacer.zero_streak,
                event.open_spans.join(", ")
            );
        }
        if let Some(rec) = crate::recorder() {
            rec.record_stall(&event.open_spans, event.stalled_ms);
        }
        heartbeat_write(cfg, "stall", event.to_json());
        if series.stall_events.len() < MAX_STALL_EVENTS {
            series.stall_events.push(event);
        }
    }
}

/// Extrapolated time to completion from the first incomplete coarse
/// domain: `elapsed * remaining / done`. `None` until something has
/// both been declared and completed.
fn eta_ms(t_ms: u64, p: &ProgressSnapshot) -> Option<u64> {
    let mut declared_any = false;
    for c in [p.workloads, p.stages] {
        if c.total == 0 {
            continue;
        }
        declared_any = true;
        if c.done < c.total {
            if c.done == 0 {
                return None;
            }
            return Some((t_ms as u128 * (c.total - c.done) as u128 / c.done as u128) as u64);
        }
    }
    declared_any.then_some(0)
}

fn heartbeat_write(cfg: &mut SamplerConfig, kind: &str, body: Json) {
    let Some(sink) = &mut cfg.heartbeat else {
        return;
    };
    let Json::Obj(fields) = body else {
        unreachable!("heartbeat bodies are objects")
    };
    let mut tagged = Vec::with_capacity(fields.len() + 1);
    tagged.push(("type".to_string(), Json::Str(kind.to_string())));
    tagged.extend(fields);
    // Best effort: a broken pipe must not kill the run being observed.
    let _ = writeln!(sink, "{}", Json::Obj(tagged).render_compact());
    let _ = sink.flush();
}

/// Summary returned by [`validate_heartbeat`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeartbeatSummary {
    /// `"tick"` objects seen.
    pub ticks: usize,
    /// `"stall"` objects seen.
    pub stalls: usize,
}

/// Validates a heartbeat NDJSON stream: every JSON line parses as an
/// object carrying a `type` tag and the fields the sampler emits,
/// `seq` strictly increases, `t_ms` never decreases, and within one
/// progress epoch every domain's `done`/`total` is monotone
/// non-decreasing across ticks.
///
/// Lines that do not start with `{` are skipped: `--heartbeat -`
/// multiplexes the stream onto stderr alongside the binaries' own
/// diagnostics, so a raw stderr capture interleaves human-readable
/// status lines with the JSON ticks.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_heartbeat(text: &str) -> Result<HeartbeatSummary, String> {
    let mut summary = HeartbeatSummary::default();
    let mut last_seq: Option<u64> = None;
    let mut last_t_ms = 0u64;
    // (epoch, per-domain (done, total) of the previous tick).
    let mut last_tick: Option<(u64, Vec<(u64, u64)>)> = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if !line.trim_start().starts_with('{') {
            continue;
        }
        let doc = crate::json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("line {n}: missing `{key}`"))
        };
        let uint = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("line {n}: `{key}` is not an unsigned integer"))
        };
        let seq = uint("seq")?;
        if last_seq.is_some_and(|prev| seq <= prev) {
            return Err(format!("line {n}: seq {seq} does not increase"));
        }
        last_seq = Some(seq);
        let t_ms = uint("t_ms")?;
        if t_ms < last_t_ms {
            return Err(format!("line {n}: t_ms {t_ms} went backwards"));
        }
        last_t_ms = t_ms;
        match field("type")?.as_str() {
            Some("tick") => {
                summary.ticks += 1;
                let epoch = uint("epoch")?;
                field("stage")?
                    .as_str()
                    .ok_or_else(|| format!("line {n}: `stage` is not a string"))?;
                if !matches!(field("eta_ms")?, Json::UInt(_) | Json::Null) {
                    return Err(format!("line {n}: `eta_ms` is not an integer or null"));
                }
                uint("stalls")?;
                let progress = field("progress")?;
                let mut counts = Vec::new();
                for name in ["workloads", "launches", "blocks", "stages", "tasks"] {
                    let d = progress
                        .get(name)
                        .ok_or_else(|| format!("line {n}: progress is missing `{name}`"))?;
                    let read = |key: &str| {
                        d.get(key).and_then(Json::as_u64).ok_or_else(|| {
                            format!("line {n}: progress.{name}.{key} is not an unsigned integer")
                        })
                    };
                    counts.push((read("done")?, read("total")?));
                }
                if let Some((prev_epoch, prev)) = &last_tick {
                    if *prev_epoch == epoch {
                        for (j, ((done, total), (pd, pt))) in
                            counts.iter().zip(prev.iter()).enumerate()
                        {
                            if done < pd || total < pt {
                                return Err(format!(
                                    "line {n}: progress domain #{j} decreased within epoch \
                                     {epoch} ({pd}/{pt} -> {done}/{total})"
                                ));
                            }
                        }
                    }
                }
                last_tick = Some((epoch, counts));
            }
            Some("stall") => {
                summary.stalls += 1;
                uint("stalled_ms")?;
                field("open_spans")?
                    .as_arr()
                    .ok_or_else(|| format!("line {n}: `open_spans` is not an array"))?;
            }
            Some(other) => return Err(format!("line {n}: unknown type `{other}`")),
            None => return Err(format!("line {n}: `type` is not a string")),
        }
    }
    if summary.ticks == 0 {
        return Err("no tick objects in the stream".into());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut series = TimeSeries {
            capacity: 2,
            ..TimeSeries::default()
        };
        for seq in 0..5 {
            series.push(TimeSample {
                seq,
                t_ms: seq,
                progress: ProgressSnapshot::default(),
                blocks_per_s: 0.0,
                eta_ms: None,
                stalls: 0,
                counters: Vec::new(),
                hists: Vec::new(),
            });
        }
        assert_eq!(series.dropped, 3);
        let seqs: Vec<u64> = series.samples.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [3, 4], "newest samples are retained");
    }

    #[test]
    fn eta_prefers_workloads_then_stages() {
        let mut p = ProgressSnapshot::default();
        assert_eq!(eta_ms(100, &p), None, "nothing declared yet");
        p.workloads = crate::progress::Counts { done: 0, total: 4 };
        assert_eq!(eta_ms(100, &p), None, "declared but nothing done");
        p.workloads.done = 1;
        assert_eq!(eta_ms(100, &p), Some(300), "3 remaining at 100ms each");
        p.workloads.done = 4;
        p.stages = crate::progress::Counts { done: 2, total: 4 };
        assert_eq!(eta_ms(100, &p), Some(100), "falls through to stages");
        p.stages.done = 4;
        assert_eq!(eta_ms(100, &p), Some(0), "everything declared is done");
    }

    #[test]
    fn heartbeat_validator_rejects_non_monotone_streams() {
        let tick = |seq: u64, t_ms: u64, done: u64| {
            format!(
                r#"{{"type": "tick", "seq": {seq}, "t_ms": {t_ms}, "epoch": 1, "stage": "study", "progress": {{"workloads": {{"done": {done}, "total": 4}}, "launches": {{"done": 0, "total": 0}}, "blocks": {{"done": 0, "total": 0}}, "stages": {{"done": 0, "total": 4}}, "tasks": {{"done": 0, "total": 0}}}}, "blocks_per_s": 0, "eta_ms": null, "stalls": 0, "counters": {{}}, "hists": {{}}}}"#
            )
        };
        let good = format!("{}\n{}\n", tick(0, 0, 1), tick(1, 10, 2));
        let summary = validate_heartbeat(&good).expect("valid stream");
        assert_eq!(summary.ticks, 2);

        let bad_seq = format!("{}\n{}\n", tick(1, 0, 1), tick(1, 10, 2));
        assert!(validate_heartbeat(&bad_seq).unwrap_err().contains("seq"));

        let bad_progress = format!("{}\n{}\n", tick(0, 0, 3), tick(1, 10, 2));
        assert!(validate_heartbeat(&bad_progress)
            .unwrap_err()
            .contains("decreased"));

        assert!(validate_heartbeat("").is_err(), "empty stream has no tick");
        assert!(validate_heartbeat("{nope\n").is_err());

        // `--heartbeat -` shares stderr with the binaries' own status
        // lines; a raw capture must still validate.
        let mixed = format!(
            "running the study...\n{}\ndone.\n{}\n",
            tick(0, 0, 1),
            tick(1, 10, 2)
        );
        assert_eq!(
            validate_heartbeat(&mixed).expect("skips diagnostics").ticks,
            2
        );
        assert!(
            validate_heartbeat("just diagnostics\n").is_err(),
            "a stream with no JSON at all still fails"
        );
    }
}
