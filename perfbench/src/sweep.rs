//! The `sweep` workload: `iat_runner::run` over the fig04 and fig08 job
//! groups, the only workload that drives the runner (scheduling, merges,
//! the tail) and the LLC-flush-heavy one.
//!
//! Read-only by construction: outputs stay staged in memory and are only
//! compared (`check_outputs`) against the committed captures, and no
//! scheduling hint is read from `results/`.

use crate::layers::Row;
use iat_runner::{check_outputs, JobReport, Outcome, RunOptions, RunOutput};
use std::path::Path;

/// The figure groups the sweep runs.
pub const GROUPS: [&str; 2] = ["fig04", "fig08"];

/// Directory of the committed captures.
pub const RESULTS: &str = "results";

/// Runner options: `jobs` workers, the benchmark's thread pins, no
/// scheduling hints.
pub fn options(seed: u64, jobs: usize) -> RunOptions {
    let (slice_workers, gen_workers) = crate::guard::PINS;
    RunOptions {
        jobs,
        only: GROUPS.iter().map(|g| (*g).to_owned()).collect(),
        smoke: false,
        root_seed: seed,
        slice_workers,
        gen_workers,
        sampled: false,
        expected_costs: Vec::new(),
        expected_job_costs: Vec::new(),
        trace_out: None,
    }
}

/// Runs one sweep.
pub fn run(seed: u64, jobs: usize) -> RunOutput {
    iat_runner::run(iat_bench::jobs::registry(), &options(seed, jobs))
}

/// FNV-1a over every staged file name and its bytes.
pub fn digest(out: &RunOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, bytes) in &out.files {
        for &b in name
            .as_bytes()
            .iter()
            .chain([0u8].iter())
            .chain(bytes.iter())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Names of the failed jobs: every job whose outcome is not `Ok`, and,
/// when `against_captures`, the merge job of every group whose staged
/// bytes differ from the committed capture.
pub fn failed_jobs(out: &RunOutput, against_captures: bool) -> Vec<String> {
    let mut failed: Vec<String> = out
        .reports
        .iter()
        .filter(|r| r.outcome != Outcome::Ok)
        .map(|r| r.name.clone())
        .collect();
    if against_captures {
        for d in check_outputs(out, Path::new(RESULTS)) {
            let group = GROUPS
                .iter()
                .find(|g| d.contains(&format!("/{g}.")))
                .map_or("sweep", |g| *g);
            if !failed.iter().any(|f| f == group) {
                failed.push(group.to_owned());
            }
        }
    }
    failed
}

/// Host time of the jobs that simulated something (the leaves), in
/// milliseconds.
pub fn leaf_ms(out: &RunOutput) -> Vec<f64> {
    out.reports
        .iter()
        .filter(|r| r.accesses > 0)
        .map(|r| r.wall.as_secs_f64() * 1e3)
        .collect()
}

/// Summed job wall time in seconds.
pub fn job_cost_s(out: &RunOutput) -> f64 {
    out.reports.iter().map(|r| r.wall.as_secs_f64()).sum()
}

/// Summed simulated accesses.
pub fn accesses(out: &RunOutput) -> u64 {
    out.reports.iter().map(|r| r.accesses).sum()
}

/// Worker threads the runner used for `out`.
pub fn workers(out: &RunOutput, jobs: usize) -> usize {
    jobs.max(1).min(out.reports.len().max(1))
}

/// The per-layer rows of one traced sweep, from its `JobReport`s. The
/// self-times add up to worker time (`workers × wall`).
pub fn rows(out: &RunOutput, jobs: usize, overhead_pct: f64, compile_ms: f64) -> Vec<Row> {
    let mut p = iat_telemetry::PhaseBreakdown::default();
    for r in &out.reports {
        p.add(&r.phases);
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let epochs = p.warmup_ns + p.fast_warm_ns + p.restore_ns + p.measure_ns;
    let busy: f64 = out.reports.iter().map(|r| r.wall.as_secs_f64()).sum();
    let idle = workers(out, jobs) as f64 * out.wall.as_secs_f64() - busy;
    let longest = out
        .reports
        .iter()
        .map(|r: &JobReport| r.wall.as_secs_f64())
        .fold(0.0, f64::max);
    let acc = accesses(out);
    let mut rows = vec![
        Row::time(
            "bench.compile_ms",
            ms(p.setup_ns),
            "leaf-job time outside epochs: scenario construction, polls, reports",
        ),
        Row::time(
            "platform.front_end_ms",
            ms(epochs.saturating_sub(p.flush_ns)),
            "epoch bodies minus LLC flushes",
        ),
        Row::time("cachesim.llc_flush_ms", ms(p.flush_ns), "LLC batch flushes"),
        Row::time("runner.merge_ms", ms(p.merge_ns), "merge jobs"),
        Row::time(
            "runner.idle_ms",
            idle.max(0.0) * 1e3,
            "worker time with no job",
        ),
    ];
    let attributed: f64 = rows.iter().map(|r| r.value).sum();
    let worker_ms = workers(out, jobs) as f64 * out.wall.as_secs_f64() * 1e3;
    rows.extend([
        Row::info(
            "bench.registry_ms",
            compile_ms,
            "ms",
            "iat_bench::jobs::registry()",
        ),
        Row::info(
            "platform.measure_ms",
            ms(p.measure_ns),
            "ms",
            "measured epoch bodies",
        ),
        Row::info(
            "platform.ns_per_access",
            epochs as f64 / acc.max(1) as f64,
            "ns",
            "epoch-body time per simulated access",
        ),
        Row::info(
            "cachesim.accesses",
            acc as f64,
            "count",
            "L2 + LLC operations",
        ),
        Row::info(
            "sampler.measured_share",
            1.0,
            "ratio",
            "exact: every epoch at full fidelity",
        ),
        Row::info("runner.jobs", out.reports.len() as f64, "count", ""),
        Row::info("runner.workers", workers(out, jobs) as f64, "count", ""),
        Row::info("runner.longest_job_s", longest, "s", ""),
        Row::info(
            "runner.idle_s",
            idle.max(0.0),
            "s",
            "worker time with no job",
        ),
        Row::info(
            "trace.overhead_pct",
            overhead_pct,
            "%",
            "span-traced vs untraced sweep wall",
        ),
        Row::info(
            "trace.unattributed_pct",
            100.0 * (worker_ms - attributed) / worker_ms.max(1e-9),
            "%",
            "worker time not in any self-time row",
        ),
    ]);
    rows
}
