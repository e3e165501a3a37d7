//! Process-wide knobs for the batched LLC pipeline and sampled execution.
//!
//! The pipeline has one knob, the **mode**: whether callers route accesses
//! through the batched pipeline at all ([`batching_enabled`]).
//! `--slice-workers 0` selects the serial reference oracle (no batching
//! anywhere); anything else batches, and every flush resolves its slice
//! buckets inline in the calling thread. The batched path measures faster
//! than the serial one without any threads: the tight per-bucket
//! resolution loop amortizes dispatch that the access-at-a-time path pays
//! per access.
//!
//! The mode is atomic and only steers *scheduling*: both paths produce
//! bit-identical results (see the shard module), so a data race on it
//! could at worst change timing. Parallelism lives one level up, in the
//! sweep runner's job pool (`--jobs`).

use std::sync::atomic::{AtomicBool, Ordering};

/// `false` selects the serial oracle: every access resolves one at a time
/// exactly as the pre-batching code did.
static BATCHING: AtomicBool = AtomicBool::new(true);

/// Sets the LLC pipeline mode for the whole process.
///
/// * `Some(0)` — serial reference oracle: disable batching entirely.
/// * `None` or `Some(n)` with `n >= 1` — the batched pipeline, flushed
///   inline in the calling thread (the default).
pub fn set_slice_workers(workers: Option<u32>) {
    BATCHING.store(workers != Some(0), Ordering::Relaxed);
}

/// Returns `true` when callers should route accesses through the batched
/// pipeline; only the serial oracle (`--slice-workers 0`) answers `false`.
#[inline]
pub fn batching_enabled() -> bool {
    BATCHING.load(Ordering::Relaxed)
}

/// Accepted and ignored: there are no tenant-generation workers, each job
/// generates its tenants' accesses on its own thread. Kept so existing
/// callers that pin it still build.
pub fn set_gen_workers(_workers: Option<u32>) {}

// --- Sampled-execution knob -------------------------------------------------
//
// Phase-aware interval sampling (`repro --sampled`) is a per-job decision:
// the runner enables it on the worker thread before a sampling-eligible job
// body runs and disables it afterwards, so parallel jobs with different
// eligibility never interfere. The knob lives here — the lowest crate in the
// dependency graph — because both the runner (which sets it) and the
// platform (which reads it when constructing a simulation) already depend on
// `iat-cachesim`, while neither depends on the other.

/// How aggressively a sampled run may skip epochs for a given job.
///
/// A level is a named preset over [`SamplingSpec`]; figures that need a
/// custom trade-off start from a preset and override fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingLevel {
    /// Default plan: suitable for rate/throughput headline metrics.
    Standard,
    /// Larger measured fraction plus cold-start warming: for jobs whose
    /// outputs feed back into control decisions with discrete outcomes
    /// (e.g. convergence-time counts) or whose headline metric depends on
    /// converged cache contents, where extrapolation noise is costlier.
    Conservative,
}

impl SamplingLevel {
    /// The preset plan behind this level.
    pub fn spec(self) -> SamplingSpec {
        match self {
            SamplingLevel::Standard => SamplingSpec {
                level: self,
                stable_warm_pct: 2,
                stable_measure_pct: 5,
                boost_warm_pct: 8,
                boost_measure_pct: 22,
                cold_start_epochs: 0,
                reconverge_epochs: 60,
                capacity_floor_epochs: 0,
                novel_floor_epochs: 0,
            },
            SamplingLevel::Conservative => SamplingSpec {
                level: self,
                stable_warm_pct: 4,
                stable_measure_pct: 10,
                boost_warm_pct: 10,
                boost_measure_pct: 25,
                cold_start_epochs: 150,
                reconverge_epochs: 120,
                capacity_floor_epochs: 0,
                novel_floor_epochs: 0,
            },
        }
    }
}

/// Concrete per-job sampling plan: what fraction of each interval runs
/// (functionally or measured), and how many *extra* functional-warmup
/// epochs are spent re-converging cache state at simulation start and
/// after events that invalidate it.
///
/// Percentages are of one interval (`epochs_per_second` epochs); the
/// remainder of each interval fast-forwards. `cold_start_epochs` converts
/// that many fast-forward epochs into functional warmup at the start of a
/// simulation (cache fill); `reconverge_epochs` does the same after an
/// allocation capacity change (ways granted/revoked, DDIO resize) or a
/// newly-detected workload phase, both of which leave the cache contents
/// unrepresentative of the new steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// The preset this spec was derived from (reporting only).
    pub level: SamplingLevel,
    /// Warm share of a stable-phase interval, in percent.
    pub stable_warm_pct: u8,
    /// Measured share of a stable-phase interval, in percent.
    pub stable_measure_pct: u8,
    /// Warm share of a boost (new/unstable phase) interval, in percent.
    pub boost_warm_pct: u8,
    /// Measured share of a boost interval, in percent.
    pub boost_measure_pct: u8,
    /// Forced functional-warmup epochs at simulation start.
    pub cold_start_epochs: u16,
    /// Forced functional-warmup epochs after a capacity event or novel
    /// phase.
    pub reconverge_epochs: u16,
    /// Floor under the magnitude-scaled capacity-event budget. The
    /// scaled budget (`ceil(reconverge_epochs × ways moved / total
    /// ways)`) models refill cost as proportional to the moved
    /// capacity; workloads whose refill time is set by the *working
    /// set* rather than the moved ways — a single granted way still
    /// takes a full working-set pass to become representative — pin a
    /// floor here. Capped at `reconverge_epochs`; zero (the presets'
    /// default) trusts the scaling.
    pub capacity_floor_epochs: u16,
    /// Floor under the novelty-scaled phase-transition budget
    /// (`ceil(reconverge_epochs × distance / 1000)`). Independent of
    /// the capacity floor because the two triggers mis-scale on
    /// different workloads: a barely-over-threshold phase can still
    /// carry a full working-set turnover, while a one-way capacity
    /// grant on the same figure really does owe only a sliver. Capped
    /// at `reconverge_epochs`; zero trusts the scaling.
    pub novel_floor_epochs: u16,
}

std::thread_local! {
    /// Sampling spec for simulations constructed on this thread
    /// (`None` = exact execution, the oracle).
    static SAMPLING: std::cell::Cell<Option<SamplingSpec>> =
        const { std::cell::Cell::new(None) };
}

/// Sets (or clears) the sampling spec for simulations subsequently
/// constructed on this thread. The runner brackets each eligible job body
/// with `set_thread_sampling(Some(spec))` / `set_thread_sampling(None)`.
pub fn set_thread_sampling(spec: Option<SamplingSpec>) {
    SAMPLING.with(|s| s.set(spec));
}

/// The sampling spec in effect on this thread, if any.
pub fn thread_sampling() -> Option<SamplingSpec> {
    SAMPLING.with(|s| s.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: config state is process-global, so this test restores the
    // default before returning; other tests in this crate rely on it.
    #[test]
    fn modes_round_trip() {
        set_slice_workers(Some(0));
        assert!(!batching_enabled());
        set_slice_workers(Some(1));
        assert!(batching_enabled());
        set_slice_workers(Some(0));
        set_slice_workers(None);
        assert!(batching_enabled());
    }
}
