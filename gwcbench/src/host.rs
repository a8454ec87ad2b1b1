//! What the host reports about this process: bytes allocated, on-CPU
//! time of every thread, peak resident memory, and run-queue wait.
//!
//! All of it is read from outside the program's code: the allocator
//! wraps the system one, and the rest comes from the kernel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Global allocator that counts the bytes every thread requests.
///
/// `alloc` and `alloc_zeroed` count their size; `realloc` counts only
/// growth, so a `Vec` that doubles counts each new half once. Frees
/// count nothing. The counter publishes no other data, so `Relaxed`
/// suffices.
pub struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Bytes requested from the allocator since the process started.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size`
        // obligations, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU nanoseconds of every thread this process has run, including
/// threads that have already exited.
///
/// The pipeline's pools are scoped: their workers exit before a run
/// returns, so summing `/proc/self/task/*` after a run would miss them.
/// The kernel folds an exiting thread's time into the process clock
/// read here.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resets the process's resident-memory high-water mark (`VmHWM`) to
/// its current resident size, so the next [`peak_rss_bytes`] covers only
/// what ran in between.
///
/// # Errors
///
/// Returns the error of the write to `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident bytes since the last [`reset_peak_rss`] (or process
/// start).
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .expect("VmHWM is reported in kB")
}

/// On-CPU and run-queue-wait nanoseconds of one thread, from
/// `/proc/self/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running.
    pub cpu_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Reads every live thread's [`SchedStat`], keyed by thread id.
fn task_schedstats() -> BTreeMap<u64, SchedStat> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        // A thread may exit between listing and reading; skip it.
        let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let (cpu_ns, wait_ns) = (fields.next().unwrap_or(0), fields.next().unwrap_or(0));
        out.insert(tid, SchedStat { cpu_ns, wait_ns });
    }
    out
}

/// Sums [`SchedStat`] over every thread of the process while it runs.
///
/// A background thread polls `/proc/self/task/*` and keeps each thread's
/// latest reading, so a pool worker that exits mid-interval still counts
/// up to its last poll. Threads alive at [`TaskSampler::start`] count
/// from their reading then; the sampler's own thread never counts.
pub struct TaskSampler {
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<SamplerState>>,
    handle: JoinHandle<()>,
}

struct SamplerState {
    base: BTreeMap<u64, SchedStat>,
    last: BTreeMap<u64, SchedStat>,
    own_tid: Option<u64>,
}

impl TaskSampler {
    /// Starts polling every `interval`.
    pub fn start(interval: Duration) -> Self {
        let base = task_schedstats();
        let state = Arc::new(Mutex::new(SamplerState {
            last: base.clone(),
            base,
            own_tid: None,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
            std::thread::spawn(move || {
                let own = fs::read_link("/proc/thread-self")
                    .ok()
                    .and_then(|p| p.file_name()?.to_str()?.parse::<u64>().ok());
                state.lock().expect("sampler state poisoned").own_tid = own;
                // SeqCst pairs with the store in `stop`: the final poll
                // happens after the run being measured has returned.
                while !stop.load(Ordering::SeqCst) {
                    poll(&state);
                    std::thread::sleep(interval);
                }
                poll(&state);
            })
        };
        Self {
            stop,
            state,
            handle,
        }
    }

    /// Stops polling and returns the summed deltas.
    ///
    /// # Panics
    ///
    /// Panics if the sampler thread panicked.
    pub fn stop(self) -> SchedStat {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("sampler thread panicked");
        let state = self.state.lock().expect("sampler state poisoned");
        let mut total = SchedStat::default();
        for (tid, now) in &state.last {
            if Some(*tid) == state.own_tid {
                continue;
            }
            let base = state.base.get(tid).copied().unwrap_or_default();
            total.cpu_ns += now.cpu_ns.saturating_sub(base.cpu_ns);
            total.wait_ns += now.wait_ns.saturating_sub(base.wait_ns);
        }
        total
    }
}

fn poll(state: &Mutex<SamplerState>) {
    let now = task_schedstats();
    let mut state = state.lock().expect("sampler state poisoned");
    for (tid, s) in now {
        state.last.insert(tid, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins until this thread has run for `ms` of CPU time, however
    /// long a loaded host makes that take.
    fn spin_cpu(ms: u64) {
        let own_cpu = || {
            let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap();
            text.split_whitespace()
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        let start = own_cpu();
        let mut x = 0u64;
        while own_cpu() - start < ms * 1_000_000 {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        }
    }

    /// Work done on threads that exit before the reading still counts,
    /// in both the process clock and the sampled task sum.
    #[test]
    fn exited_threads_count() {
        let _serial = crate::tests::SERIAL
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let cpu0 = process_cpu_ns();
        let sampler = TaskSampler::start(Duration::from_millis(2));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| spin_cpu(40));
            }
        });
        let sampled = sampler.stop();
        let cpu = process_cpu_ns() - cpu0;
        assert!(cpu >= 80_000_000, "process clock saw {cpu} ns");
        // Each spinner may lose the work after the sampler's last poll.
        assert!(sampled.cpu_ns >= 70_000_000, "sampler saw {sampled:?}");
    }

    #[test]
    fn allocations_are_counted() {
        let _serial = crate::tests::SERIAL
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let before = allocated_bytes();
        let v: Vec<u8> = std::hint::black_box(vec![1u8; 1 << 20]);
        assert!(allocated_bytes() - before >= 1 << 20);
        drop(v);
    }

    #[test]
    fn peak_rss_resets() {
        let _serial = crate::tests::SERIAL
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        reset_peak_rss().expect("clear_refs is writable");
        let low = peak_rss_bytes();
        let v: Vec<u8> = std::hint::black_box(vec![1u8; 64 << 20]);
        let high = peak_rss_bytes();
        drop(v);
        assert!(high >= low + (32 << 20), "{low} -> {high}");
    }
}
