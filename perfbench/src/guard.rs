//! Process-level guards: the intra-job thread pins, a busy-thread
//! watchdog, and peak resident memory.
//!
//! The simulator has three layers of parallelism: runner jobs, LLC
//! flush workers and tenant-generation workers. Left on `auto`, the two
//! intra-job layers size themselves from a process-wide slot budget and
//! can oversubscribe the machine, which makes wall-clock numbers swing
//! from run to run. The benchmark therefore pins them, in
//! [`pin_thread_layers`] only, and the [`ThreadGuard`] fails a run whose
//! busy thread count exceeds the core count anyway.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The intra-job thread layers, pinned to what `auto` resolves to on a
/// fully subscribed machine: `(slice workers, generation workers)` =
/// batched LLC with one inline flush worker, and the serial tenant
/// front end. Only runner jobs (`--jobs`) add threads.
pub const PINS: (Option<u32>, Option<u32>) = (Some(1), Some(0));

/// Applies [`PINS`] process-wide (the sweep also passes them to the
/// runner, which re-applies them).
pub fn pin_thread_layers() {
    iat_cachesim::config::set_slice_workers(PINS.0);
    iat_cachesim::config::set_gen_workers(PINS.1);
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `/proc` reports thread CPU time in `USER_HZ` ticks, fixed at 100 by
/// the Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// Samples the CPU time of every thread of this process (the watchdog
/// itself excluded) once per window, and records the largest number of
/// threads that were busy — at least half a core each — in one window.
pub struct ThreadGuard {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadGuard {
    /// Starts the watchdog thread.
    pub fn start(window: Duration) -> ThreadGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                let me = own_tid();
                let mut last = thread_ticks(me);
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(window);
                    let now = thread_ticks(me);
                    let need = window.as_secs_f64() * TICKS_PER_S / 2.0;
                    let busy = now
                        .iter()
                        .filter(|(tid, t)| {
                            let before = last.get(*tid).copied().unwrap_or(**t);
                            t.saturating_sub(before) as f64 >= need
                        })
                        .count();
                    peak.fetch_max(busy, Ordering::Relaxed);
                    last = now;
                }
            })
        };
        ThreadGuard {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stops the watchdog, waits for it, and returns the peak busy
    /// thread count it saw.
    pub fn finish(mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("thread guard panicked");
        }
        self.peak.load(Ordering::Relaxed)
    }
}

/// The calling thread's kernel thread id (from `/proc/thread-self`).
fn own_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// User + system CPU ticks of every thread of this process except `skip`.
/// Empty where `/proc` is unavailable.
fn thread_ticks(skip: Option<u64>) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if Some(tid) == skip {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15 of the whole line.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            continue;
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        if let (Some(u), Some(s)) = (f.get(11), f.get(12)) {
            if let (Ok(u), Ok(s)) = (u.parse::<u64>(), s.parse::<u64>()) {
                out.insert(tid, u + s);
            }
        }
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_sees_a_spinning_thread() {
        if std::fs::read_dir("/proc/self/task").is_err() {
            return;
        }
        let guard = ThreadGuard::start(Duration::from_millis(100));
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(400) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(guard.finish() >= 1);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
