//! The sweep engine: deterministic scheduling of the job graph across a
//! small `std::thread` worker pool, plus output writing / checking and
//! the cost summary.

use crate::job::{JobCtx, JobFn, Registry};
use iat_telemetry::{decision, phases, span, Event, Metrics, PhaseBreakdown};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Options for one sweep execution.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Group or job-name filters; empty selects everything. Transitive
    /// dependencies of a selected job are pulled in automatically.
    pub only: Vec<String>,
    /// Restrict to the smoke subset ([`crate::JobSpec::smoke`]).
    pub smoke: bool,
    /// Root of the per-job seed derivation.
    pub root_seed: u64,
    /// LLC pipeline mode forwarded to `iat_cachesim::config`: `Some(0)`
    /// = serial reference oracle, `None` or `Some(n >= 1)` = batched,
    /// flushed inline (the default). Results are byte-identical for
    /// every setting.
    pub slice_workers: Option<u32>,
    /// Ignored: there are no tenant-generation workers, `jobs` is the
    /// only parallelism. Kept so struct-literal callers still build.
    pub gen_workers: Option<u32>,
    /// Phase-aware interval sampling: jobs that declared eligibility
    /// ([`crate::JobSpec::sampled`]) run the sampled execution path.
    /// Unlike `slice_workers` this changes *outputs* (they become
    /// extrapolated estimates), so sampled runs must never write over
    /// the committed exact captures.
    pub sampled: bool,
    /// Previous per-group job costs in seconds (typically loaded from the
    /// last `BENCH_repro.json`), used to order the ready queue
    /// longest-expected-first so the slowest figures don't straggle at
    /// the tail of the sweep. Purely a scheduling hint: output order and
    /// bytes are unaffected.
    pub expected_costs: Vec<(String, f64)>,
    /// Previous per-*job* wall costs in seconds (schema v6 bench
    /// reports carry them as `job_wall_s`). More precise than the
    /// per-group spread of `expected_costs`: once the big figures are
    /// split into per-sweep-point leaves, the merge job and the point
    /// jobs have very different costs and scheduling should know.
    /// Jobs absent here fall back to the group estimate.
    pub expected_job_costs: Vec<(String, f64)>,
    /// When set, span tracing and decision capture are armed for the
    /// run and the Chrome trace-event JSON is written to this path
    /// (load it in Perfetto / `chrome://tracing`). Observational only:
    /// staged figure outputs stay byte-identical.
    pub trace_out: Option<std::path::PathBuf>,
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion.
    Ok,
    /// The body returned an error or panicked.
    Failed(String),
    /// Not run because a dependency failed.
    Skipped,
}

/// Metrics-registry counter under which jobs report how many cache
/// operations they simulated (see `iat_cachesim::MemoryHierarchy::accesses`);
/// the runner surfaces it per job in [`JobReport::accesses`] and the
/// sweep summary / bench report derive accesses-per-second from it.
pub const ACCESSES_COUNTER: &str = "cachesim.accesses";

/// Metrics-registry counter under which sampled jobs report how many
/// epochs the platform fast-forwarded. Exact jobs report nothing; a
/// *sampled* job reporting zero means sampling silently fell back to
/// exact execution — `repro --sampled` treats that as an error.
pub const SKIPPED_EPOCHS_COUNTER: &str = "platform.skipped_epochs";

/// One job's execution record.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Figure group.
    pub group: String,
    /// How it ended.
    pub outcome: Outcome,
    /// Wall-clock execution time (zero when skipped).
    pub wall: Duration,
    /// Cache operations the job reported under [`ACCESSES_COUNTER`].
    pub accesses: u64,
    /// Whether the job ran the sampled execution path (declared
    /// eligible *and* the run passed `--sampled`).
    pub sampled: bool,
    /// Epochs fast-forwarded, as reported under
    /// [`SKIPPED_EPOCHS_COUNTER`] (zero for exact jobs).
    pub skipped_epochs: u64,
    /// Wall-clock phase breakdown of the job body: warmup / measure /
    /// flush come from the platform and cache layers' per-thread
    /// accounting; merge is the whole wall of dependency-consuming
    /// jobs; setup is the unattributed remainder.
    pub phases: PhaseBreakdown,
    /// Decision flight-recorder records captured while the job ran
    /// (empty unless `repro --trace-out` armed capture).
    pub decisions: Vec<Event>,
}

/// Everything a sweep produced, in registration order — independent of
/// worker count and scheduling, which is the engine's core guarantee.
#[derive(Debug)]
pub struct RunOutput {
    /// Per-job records, in registration order.
    pub reports: Vec<JobReport>,
    /// Concatenated job console output, in registration order.
    pub stdout: String,
    /// Staged result files (`results/`-relative path, bytes), in
    /// registration order; per-group console captures (`<group>.txt`)
    /// are appended after the jobs' own files.
    pub files: Vec<(String, Vec<u8>)>,
    /// All jobs' telemetry registries folded together with
    /// [`Metrics::merge`].
    pub metrics: Metrics,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl RunOutput {
    /// Whether any job failed or was skipped.
    pub fn failed(&self) -> bool {
        self.reports.iter().any(|r| r.outcome != Outcome::Ok)
    }
}

/// Streams one progress line to stderr — the single helper every
/// harness-side progress message goes through (job completions, file
/// writes, divergence reports), so captures of stdout stay clean.
pub fn progress(msg: &str) {
    eprintln!("{msg}");
}

struct Sched {
    /// `run` closures, taken when a worker claims the job.
    bodies: Vec<Option<JobFn>>,
    /// Unmet-dependency counts, by job index.
    indegree: Vec<usize>,
    /// Reverse edges, by job index.
    dependents: Vec<Vec<usize>>,
    /// Ready job indices; workers claim the highest expected cost first
    /// ([`Sched::prio`]), registration order breaking ties.
    ready: Vec<usize>,
    /// Per-job expected cost in microseconds, derived from
    /// [`RunOptions::expected_costs`]; zero when no history exists.
    prio: Vec<u64>,
    /// Completed artifacts.
    artifacts: Vec<Option<Value>>,
    outcomes: Vec<Option<Outcome>>,
    ctxs: Vec<Option<JobCtx>>,
    walls: Vec<Duration>,
    phases: Vec<PhaseBreakdown>,
    decisions: Vec<Vec<Event>>,
    running: usize,
    done: usize,
    total: usize,
}

/// Resolves `opts.only` / `opts.smoke` against the registry: selected
/// jobs plus their transitive dependencies, as an include mask.
fn select(reg: &Registry, opts: &RunOptions) -> Vec<bool> {
    let n = reg.jobs.len();
    let mut include = vec![false; n];
    for (i, j) in reg.jobs.iter().enumerate() {
        let picked = if opts.smoke {
            j.smoke
        } else if opts.only.is_empty() {
            true
        } else {
            opts.only.iter().any(|o| o == &j.group || o == &j.name)
        };
        include[i] = picked;
    }
    // Pull in transitive dependencies (deps always precede dependents
    // in registration order, so one reverse pass suffices).
    let index: BTreeMap<&str, usize> = reg
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.name.as_str(), i))
        .collect();
    for i in (0..n).rev() {
        if include[i] {
            for d in &reg.jobs[i].deps {
                include[index[d.as_str()]] = true;
            }
        }
    }
    include
}

/// Returns the `--only` filters that match neither a job group nor a
/// job name in the registry. `select` silently produces an empty
/// selection for such filters, so callers must reject them up front
/// (listing [`Registry::groups`] / [`Registry::names`] as the valid
/// vocabulary) instead of "succeeding" having run nothing.
pub fn unknown_filters(reg: &Registry, only: &[String]) -> Vec<String> {
    only.iter()
        .filter(|o| {
            !reg.jobs
                .iter()
                .any(|j| *o == &j.group || *o == &j.name)
        })
        .cloned()
        .collect()
}

/// Clears run-scoped staging directories (`results/sampled`,
/// `results/decisions`, `results/corpus`, …) by removing and recreating
/// each `base/<sub>` that exists, so artifacts from a previous run with
/// different flags can never be mistaken for this run's output. Never
/// touches `base` itself or anything outside the named subdirectories.
pub fn reset_staging_dirs(base: &Path, subdirs: &[&str]) -> std::io::Result<()> {
    for sub in subdirs {
        let dir = base.join(sub);
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => progress(&format!("cleared stale {}", dir.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Executes the registry's selected jobs and returns the collected
/// output. Files are staged, not written — pass the output to
/// [`write_outputs`] or [`check_outputs`].
pub fn run(mut reg: Registry, opts: &RunOptions) -> RunOutput {
    struct Meta {
        name: String,
        group: String,
        deps: Vec<String>,
        sampled: Option<iat_cachesim::config::SamplingSpec>,
    }

    let started = Instant::now();
    iat_cachesim::config::set_slice_workers(opts.slice_workers);
    crate::checkpoint::reset_counters();
    let include = select(&reg, opts);
    let index: BTreeMap<String, usize> = reg
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.name.clone(), i))
        .collect();
    // Bodies move into the scheduler; shareable metadata stays out here
    // so worker threads can read it without touching the specs.
    let metas: Vec<Meta> = reg
        .jobs
        .iter()
        .map(|j| Meta {
            name: j.name.clone(),
            group: j.group.clone(),
            deps: j.deps.clone(),
            sampled: if opts.sampled { j.sampled } else { None },
        })
        .collect();

    // Longest-expected-first scheduling hint: history records cost per
    // figure group, so spread a group's previous cost evenly over its
    // jobs. Unknown groups get priority zero (run last, in order).
    let mut group_n: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, j) in metas.iter().enumerate() {
        if include[i] {
            *group_n.entry(j.group.as_str()).or_insert(0) += 1;
        }
    }
    let prio: Vec<u64> = metas
        .iter()
        .enumerate()
        .map(|(i, j)| {
            if !include[i] {
                return 0;
            }
            // Per-job history wins; the per-group spread is the
            // fallback for jobs (or whole groups) without one.
            if let Some((_, cost)) = opts
                .expected_job_costs
                .iter()
                .find(|(name, _)| name == &j.name)
            {
                return (cost.max(0.0) * 1e6) as u64;
            }
            opts.expected_costs
                .iter()
                .find(|(g, _)| g == &j.group)
                .map_or(0, |(_, cost)| {
                    (cost.max(0.0) * 1e6) as u64 / group_n[j.group.as_str()].max(1)
                })
        })
        .collect();

    let n = reg.jobs.len();
    let mut sched = Sched {
        bodies: reg.jobs.iter_mut().map(|j| j.run.take()).collect(),
        indegree: vec![0; n],
        dependents: vec![Vec::new(); n],
        ready: Vec::new(),
        prio,
        artifacts: vec![None; n],
        outcomes: vec![None; n],
        ctxs: (0..n).map(|_| None).collect(),
        walls: vec![Duration::ZERO; n],
        phases: vec![PhaseBreakdown::default(); n],
        decisions: vec![Vec::new(); n],
        running: 0,
        done: 0,
        total: 0,
    };
    for (i, j) in metas.iter().enumerate() {
        if !include[i] {
            continue;
        }
        sched.total += 1;
        let mut unmet = 0;
        for d in &j.deps {
            let di = index[d];
            debug_assert!(include[di], "selection must be dependency-closed");
            sched.dependents[di].push(i);
            unmet += 1;
        }
        sched.indegree[i] = unmet;
        if unmet == 0 {
            sched.ready.push(i);
        }
    }
    sched.ready.sort_unstable();

    let total = sched.total;
    let state = Mutex::new(sched);
    let cv = Condvar::new();
    let workers = opts.jobs.max(1).min(total.max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let (i, body, deps) = {
                    let mut s = state.lock().expect("runner lock");
                    loop {
                        // Claim the ready job with the highest expected
                        // cost (registration order breaks ties) so the
                        // long poles start as early as possible.
                        let best = s
                            .ready
                            .iter()
                            .enumerate()
                            .max_by_key(|&(_, &j)| (s.prio[j], std::cmp::Reverse(j)))
                            .map(|(k, _)| k);
                        if let Some(k) = best {
                            let pos = s.ready.remove(k);
                            s.running += 1;
                            let body = s.bodies[pos].take().expect("job body claimed twice");
                            let mut deps = BTreeMap::new();
                            for d in &metas[pos].deps {
                                let di = index[d];
                                deps.insert(
                                    d.clone(),
                                    s.artifacts[di].clone().unwrap_or(Value::Null),
                                );
                            }
                            break (pos, body, deps);
                        }
                        if s.running == 0 && s.done >= s.total {
                            return;
                        }
                        // Jobs may be running whose completion unlocks
                        // more work (or ends the run) — wait it out.
                        if s.running == 0 {
                            return;
                        }
                        s = cv.wait(s).expect("runner lock");
                    }
                };

                let job = &metas[i];
                let mut ctx = JobCtx::new(&job.name, opts.root_seed, opts.smoke, deps);
                // Sampling is a thread-local property of simulations the
                // body constructs, so it is set just for the body's
                // duration — parallel jobs with different eligibility
                // never see each other's level.
                iat_cachesim::config::set_thread_sampling(job.sampled);
                // Phase accounting and decision capture drain per job on
                // the worker thread that ran it; reset first so a
                // previous job's leftovers never leak in. Convergence
                // checkpoints are likewise job-scoped: sharing across jobs
                // would make restores depend on worker scheduling.
                let _ = phases::take_phases();
                let _ = decision::take_thread_records();
                crate::checkpoint::clear();
                let t0 = Instant::now();
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)))
                        .unwrap_or_else(|p| {
                            let msg = p
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| p.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "panicked".to_owned());
                            Err(format!("panic: {msg}"))
                        });
                let wall = t0.elapsed();
                let mut job_phases = phases::take_phases();
                let job_decisions = decision::take_thread_records();
                // Attribute the body time the layers below didn't claim:
                // dependency-consuming jobs merge artifacts (no platform
                // of their own counts as setup), leaves spend the
                // remainder constructing scenarios. Flush time nests
                // inside the epoch buckets, so it is not subtracted.
                let wall_ns = wall.as_nanos() as u64;
                let epoch_ns = job_phases.warmup_ns
                    + job_phases.fast_warm_ns
                    + job_phases.restore_ns
                    + job_phases.measure_ns;
                if job.deps.is_empty() {
                    job_phases.setup_ns = wall_ns.saturating_sub(epoch_ns);
                } else {
                    job_phases.merge_ns = wall_ns.saturating_sub(epoch_ns);
                }
                crate::checkpoint::clear();
                iat_cachesim::config::set_thread_sampling(None);
                if span::global_enabled() {
                    span::global().record(
                        "runner",
                        &job.name,
                        t0,
                        t0 + wall,
                        json!({ "group": job.group, "ok": result.is_ok() }),
                    );
                }

                let mut s = state.lock().expect("runner lock");
                s.walls[i] = wall;
                s.phases[i] = job_phases;
                s.decisions[i] = job_decisions;
                s.done += 1;
                s.running -= 1;
                match result {
                    Ok(artifact) => {
                        progress(&format!(
                            "[{}/{}] {}: ok ({:.1} ms)",
                            s.done,
                            total,
                            job.name,
                            wall.as_secs_f64() * 1e3
                        ));
                        s.artifacts[i] = Some(artifact);
                        s.outcomes[i] = Some(Outcome::Ok);
                        for d in sched_dependents(&s, i) {
                            s.indegree[d] -= 1;
                            if s.indegree[d] == 0 && s.outcomes[d].is_none() {
                                s.ready.push(d);
                            }
                        }
                    }
                    Err(e) => {
                        progress(&format!("[{}/{}] {}: FAILED: {e}", s.done, total, job.name));
                        s.outcomes[i] = Some(Outcome::Failed(e));
                        // Cascade: dependents (and theirs) are skipped.
                        let mut stack = sched_dependents(&s, i);
                        while let Some(d) = stack.pop() {
                            if s.outcomes[d].is_none() {
                                s.done += 1;
                                s.outcomes[d] = Some(Outcome::Skipped);
                                stack.extend(sched_dependents(&s, d));
                            }
                        }
                    }
                }
                s.ctxs[i] = Some(ctx);
                cv.notify_all();
            });
        }
    });

    let mut sched = state.into_inner().expect("runner lock");
    let mut reports = Vec::new();
    let mut stdout = String::new();
    let mut files = Vec::new();
    let mut metrics = Metrics::new();
    let mut group_out: Vec<(String, String)> = Vec::new();
    for (i, j) in metas.iter().enumerate() {
        if !include[i] {
            continue;
        }
        let outcome = sched.outcomes[i].clone().unwrap_or(Outcome::Skipped);
        reports.push(JobReport {
            name: j.name.clone(),
            group: j.group.clone(),
            outcome,
            wall: sched.walls[i],
            accesses: sched.ctxs[i]
                .as_ref()
                .map_or(0, |ctx| ctx.metrics.counter(ACCESSES_COUNTER)),
            sampled: metas[i].sampled.is_some(),
            skipped_epochs: sched.ctxs[i]
                .as_ref()
                .map_or(0, |ctx| ctx.metrics.counter(SKIPPED_EPOCHS_COUNTER)),
            phases: sched.phases[i],
            decisions: std::mem::take(&mut sched.decisions[i]),
        });
        if let Some(ctx) = sched.ctxs[i].take() {
            stdout.push_str(&ctx.out);
            match group_out.iter_mut().find(|(g, _)| g == &j.group) {
                Some((_, acc)) => acc.push_str(&ctx.out),
                None => group_out.push((j.group.clone(), ctx.out.clone())),
            }
            files.extend(ctx.files);
            metrics.merge(&ctx.metrics.snapshot());
        }
    }
    // Console captures: one results/<group>.txt per group that printed.
    for (group, text) in group_out {
        if !text.is_empty() {
            files.push((format!("{group}.txt"), text.into_bytes()));
        }
    }
    RunOutput {
        reports,
        stdout,
        files,
        metrics,
        wall: started.elapsed(),
    }
}

fn sched_dependents(s: &Sched, i: usize) -> Vec<usize> {
    s.dependents[i].clone()
}

/// Writes staged files under `dir`, announcing each through
/// [`progress`].
pub fn write_outputs(out: &RunOutput, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (file, bytes) in &out.files {
        let path = dir.join(file);
        std::fs::write(&path, bytes)?;
        progress(&format!("wrote {}", path.display()));
    }
    Ok(())
}

/// Byte-compares staged files against what `dir` already holds, without
/// writing. Returns one description per divergence — the CI
/// stale-results guard fails when this is non-empty.
pub fn check_outputs(out: &RunOutput, dir: &Path) -> Vec<String> {
    let mut diverged = Vec::new();
    for (file, bytes) in &out.files {
        let path = dir.join(file);
        match std::fs::read(&path) {
            Ok(existing) if &existing == bytes => {}
            Ok(existing) => diverged.push(format!(
                "{} diverges from the committed capture ({} bytes regenerated vs {} committed)",
                path.display(),
                bytes.len(),
                existing.len()
            )),
            Err(_) => diverged.push(format!(
                "{} is missing from the committed captures",
                path.display()
            )),
        }
    }
    diverged
}

/// Prints the wall-clock + per-figure cost summary to stderr, with
/// simulated-access throughput where jobs reported it.
///
/// `expected` is the previous run's per-figure cost (typically
/// [`RunOptions::expected_costs`], loaded from the last committed
/// `BENCH_repro.json`); when a group has history, the `vs prev` column
/// shows this run's speedup (`3.1x`) or slowdown (`0.8x`) against it.
pub fn print_summary(out: &RunOutput, expected: &[(String, f64)]) {
    #[allow(clippy::type_complexity)]
    let mut groups: Vec<(String, Duration, usize, u64, bool, bool, PhaseBreakdown)> = Vec::new();
    for r in &out.reports {
        match groups.iter_mut().find(|(g, ..)| g == &r.group) {
            Some((_, wall, jobs, acc, sampled, ok, phases)) => {
                *wall += r.wall;
                *jobs += 1;
                *acc += r.accesses;
                *sampled |= r.sampled;
                *ok &= r.outcome == Outcome::Ok;
                phases.add(&r.phases);
            }
            None => groups.push((
                r.group.clone(),
                r.wall,
                1,
                r.accesses,
                r.sampled,
                r.outcome == Outcome::Ok,
                r.phases,
            )),
        }
    }
    progress("");
    progress(
        "figure        jobs      cost   accesses   acc/s  vs prev  front/flush  setup/warm/fwarm/rest/meas/flush/merge",
    );
    progress(
        "---------------------------------------------------------------------------------------------------------",
    );
    let mut busy = Duration::ZERO;
    let mut total_accesses = 0u64;
    let mut sim_busy = Duration::ZERO;
    for (group, wall, jobs, accesses, sampled, ok, phases) in &groups {
        busy += *wall;
        total_accesses += *accesses;
        // Access-free groups (static tables) have no meaningful
        // throughput — print a dash rather than a bogus `0 acc/s`, and
        // keep them out of the aggregate throughput denominator below.
        let (acc_col, rate_col) = if *accesses == 0 {
            ("-".to_owned(), "-".to_owned())
        } else {
            sim_busy += *wall;
            (
                human_count(*accesses),
                human_count((*accesses as f64 / wall.as_secs_f64().max(1e-9)) as u64),
            )
        };
        let delta_col = expected
            .iter()
            .find(|(g, _)| g == group)
            .map_or("-".to_owned(), |(_, prev)| {
                format!("{:.1}x", prev / wall.as_secs_f64().max(1e-9))
            });
        let s = |ns: u64| format!("{:.1}", ns as f64 / 1e9);
        // Front end = epoch time the generation side spent (traffic,
        // workload access streams, window resolution); flush nests
        // inside the epoch buckets, so the difference splits epoch time
        // into access generation and LLC flushing.
        let epoch_ns = phases.warmup_ns
            + phases.fast_warm_ns
            + phases.restore_ns
            + phases.measure_ns;
        let front_flush = format!(
            "{}/{} s",
            s(epoch_ns.saturating_sub(phases.flush_ns)),
            s(phases.flush_ns)
        );
        progress(&format!(
            "{:<12} {:>5} {:>7.2} s {:>8} {:>7} {:>7}  {:>11}  {:>37}{}{}",
            group,
            jobs,
            wall.as_secs_f64(),
            acc_col,
            rate_col,
            delta_col,
            front_flush,
            format!(
                "{}/{}/{}/{}/{}/{}/{} s",
                s(phases.setup_ns),
                s(phases.warmup_ns),
                s(phases.fast_warm_ns),
                s(phases.restore_ns),
                s(phases.measure_ns),
                s(phases.flush_ns),
                s(phases.merge_ns)
            ),
            if *sampled { "  [sampled]" } else { "" },
            if *ok { "" } else { "  [FAILED]" }
        ));
    }
    progress(
        "---------------------------------------------------------------------------------------------------------",
    );
    let (restores, computes) = crate::checkpoint::counters();
    if restores + computes > 0 {
        progress(&format!(
            "convergence checkpoints: {computes} computed, {restores} restored",
        ));
    }
    progress(&format!(
        "wall {:.2} s, aggregate job cost {:.2} s ({:.2}x concurrency), {} files, {} msr writes traced",
        out.wall.as_secs_f64(),
        busy.as_secs_f64(),
        busy.as_secs_f64() / out.wall.as_secs_f64().max(1e-9),
        out.metrics.counter("runner.files_staged"),
        out.metrics.counter("daemon.msr_writes"),
    ));
    progress(&format!(
        "{} cache accesses simulated, {}/s of aggregate job time",
        human_count(total_accesses),
        human_count((total_accesses as f64 / sim_busy.as_secs_f64().max(1e-9)) as u64),
    ));
}

/// Formats a count with a binary-free human suffix (`12.3M`, `4.5G`).
fn human_count(n: u64) -> String {
    let n = n as f64;
    if n >= 1e9 {
        format!("{:.2}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.1}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1}k", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}
