//! `perfbench` — the IAT simulator's benchmark.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1
//!               [--reference FILE] [--out-dir DIR]
//! perfbench reference --seed N --out FILE
//! perfbench digests
//! ```
//!
//! `run` measures one workload (`leaky-dma`, `corun`, `corun-sampled`,
//! `sweep`) for at least `S` seconds, checks its outputs, prints every
//! metric with its unit and ends with one JSON line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs one untraced round, then
//! traced rounds, and reports per-layer metrics, writing a Perfetto trace
//! and the per-layer table under `--out-dir`.
//!
//! `reference` computes the exact co-run's measured-window observables
//! that `corun-sampled` is graded against. `digests` prints the exact
//! workloads' default-seed digests in the format of `digests.json`.
//! See `README.md` in this directory.

mod guard;
mod layers;
mod scenario;
mod stats;
mod sweep;

use layers::Row;
use scenario::{Kind, Round, Window};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  perfbench run --workload leaky-dma|corun|corun-sampled|sweep --seed N --seconds S --trace 0|1
                [--reference FILE] [--out-dir DIR]
  perfbench reference --seed N --out FILE
  perfbench digests";

/// The seed whose exact digests are committed in `digests.json`, and at
/// which the sweep is checked against the committed captures.
const DEFAULT_SEED: u64 = 0;

/// Committed default-seed digests of the exact scenario workloads.
const DIGESTS: &str = include_str!("../digests.json");

/// At least this many set-up samples feed the `setup_s` median.
const SETUP_SAMPLES: usize = 5;

/// End-to-end metrics reported in the JSON result (`--trace 0`), with
/// units. `interval_p50_ms`, `modelled_s_per_host_s` and
/// `sampled_err_pct` are printed but not in the JSON: see README.md.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_cost_s", "s"),
    ("accesses_per_s", "1/s"),
    ("interval_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload reports
/// every one; a layer a workload does not exercise, or whose time the
/// runner keeps opaque (the sweep's tenants), reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("platform.front_end_pct", "%"),
    ("platform.epoch_self_pct", "%"),
    ("workloads.run_pct", "%"),
    ("cachesim.llc_flush_pct", "%"),
    ("bench.compile_pct", "%"),
    ("platform.fast_warm_pct", "%"),
    ("platform.restore_pct", "%"),
    ("platform.measure_ms", "ms"),
    ("cachesim.llc_flush_ms", "ms"),
    ("bench.compile_ms", "ms"),
    ("runner.longest_job_s", "s"),
    ("runner.idle_s", "s"),
    ("platform.ns_per_access", "ns"),
    ("cachesim.accesses", "count"),
    ("workloads.run_calls", "count"),
    ("netsim.packets_delivered", "count"),
    ("netsim.drop_ratio", "ratio"),
    ("cachesim.l2_hit_ratio", "ratio"),
    ("cachesim.llc_miss_ratio", "ratio"),
    ("cachesim.ddio_hit_ratio", "ratio"),
    ("cachesim.mem_bytes", "count"),
    ("sampler.measured_share", "ratio"),
    ("sampler.skipped_epochs", "count"),
    ("sampler.phases", "count"),
    ("sampler.err_pct", "%"),
    ("runner.checkpoint_restores", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command")?;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned());
    let mut a = Args {
        cmd,
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reference: None,
        out: None,
        out_dir: Path::new(&target).join("perfbench"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--reference" => a.reference = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    guard::pin_thread_layers();
    let code = match args.cmd.as_str() {
        "run" => cmd_run(&args),
        "reference" => cmd_reference(&args),
        "digests" => cmd_digests(),
        other => {
            eprintln!("perfbench: unknown command {other}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// What one run found.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(name, value, unit)` of the JSON metrics.
    metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the JSON line.
    text: Vec<String>,
}

impl Report {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

fn cmd_run(a: &Args) -> i32 {
    let guard = guard::ThreadGuard::start(Duration::from_millis(250));
    let report = match (a.workload.as_str(), Kind::parse(&a.workload)) {
        ("sweep", _) => sweep_run(a),
        (_, Some(kind)) => scenario_run(a, kind),
        _ => Err(format!("unknown workload {:?}", a.workload)),
    };
    let busy = guard.finish();
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let cores = guard::nproc();
    report.text.push(format!(
        "thread guard: at most {busy} busy thread(s) on {cores} core(s)"
    ));
    if busy > cores {
        report.fail(
            0,
            format!("thread guard: {busy} busy threads exceed {cores} cores"),
        );
    }
    for line in &report.text {
        println!("{line}");
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    let mut metrics = BTreeMap::new();
    for (name, value, unit) in &report.metrics {
        metrics.insert(
            name.clone(),
            json!({ "value": value, "unit": unit.as_str() }),
        );
    }
    let line = json!({
        "correct": report.problems.is_empty(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{line}");
    0
}

/// Checks one round's arms: problems the arm reported, digests against
/// `expect` (the first round, or the committed digests), and counts
/// attempted and failed intervals. A panic fails the rest of its arm;
/// any other problem fails the whole arm.
fn check_round(
    kind: Kind,
    round: &Round,
    expect: Option<&[(String, u64)]>,
    what: &str,
    r: &mut Report,
) {
    let per_arm = kind.intervals_per_arm() as u64;
    for arm in &round.arms {
        r.attempted += per_arm;
        let done = arm.interval_ns.len() as u64;
        if arm.problems.iter().any(|p| p.starts_with("panic")) {
            r.fail(
                per_arm - done,
                format!("{}: {}", arm.label, arm.problems.join("; ")),
            );
            continue;
        }
        let mut bad = arm.problems.clone();
        if let Some(expect) = expect {
            match expect.iter().find(|(l, _)| l == arm.label) {
                Some((_, d)) if *d == arm.digest => {}
                Some((_, d)) => bad.push(format!(
                    "digest {:016x} differs from {what} {d:016x}",
                    arm.digest
                )),
                None => bad.push(format!("no {what} digest")),
            }
        }
        if !bad.is_empty() {
            r.fail(per_arm, format!("{}: {}", arm.label, bad.join("; ")));
        }
    }
}

fn digests_of(round: &Round) -> Vec<(String, u64)> {
    round
        .arms
        .iter()
        .map(|a| (a.label.to_owned(), a.digest))
        .collect()
}

/// The committed default-seed digests of `kind`.
fn committed_digests(kind: Kind) -> Result<Vec<(String, u64)>, String> {
    let doc = serde_json::from_str(DIGESTS).map_err(|e| format!("digests.json: {e:?}"))?;
    let arms = doc
        .get(kind.name())
        .and_then(Value::as_object)
        .ok_or_else(|| format!("digests.json has no {}", kind.name()))?;
    arms.iter()
        .map(|(label, v)| {
            v.as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .map(|d| (label.clone(), d))
                .ok_or_else(|| format!("digests.json: bad digest for {}/{label}", kind.name()))
        })
        .collect()
}

/// The exact observables `corun-sampled` is graded against: read from
/// `--reference`, or computed here, before any timing, when absent.
fn exact_reference(a: &Args) -> Result<Vec<(String, Window)>, String> {
    if let Some(path) = &a.reference {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        if doc.get("seed").and_then(Value::as_u64) != Some(a.seed) {
            return Err(format!("{} is not for seed {}", path.display(), a.seed));
        }
        let arms = doc
            .get("arms")
            .and_then(Value::as_array)
            .ok_or("reference has no arms")?;
        return arms
            .iter()
            .map(|v| {
                let f = |k: &str| v.get(k).and_then(Value::as_f64);
                match (
                    v.get("label").and_then(Value::as_str),
                    f("rocksdb_op_cycles"),
                    f("redis_ops_per_s"),
                ) {
                    (Some(l), Some(r), Some(s)) => Ok((
                        l.to_owned(),
                        Window {
                            rocksdb_op_cycles: r,
                            redis_ops_per_s: s,
                        },
                    )),
                    _ => Err("malformed reference arm".to_owned()),
                }
            })
            .collect();
    }
    println!("computing the exact reference in-process (no --reference given)");
    compute_reference(a.seed)
}

/// Runs the exact co-run once and returns its arms' observables.
fn compute_reference(seed: u64) -> Result<Vec<(String, Window)>, String> {
    let round = scenario::run_round(Kind::Corun, seed, None);
    if let Some(bad) = round.arms.iter().find(|arm| !arm.problems.is_empty()) {
        return Err(format!(
            "exact reference arm {}: {}",
            bad.label,
            bad.problems.join("; ")
        ));
    }
    Ok(round
        .arms
        .iter()
        .map(|arm| (arm.label.to_owned(), arm.window))
        .collect())
}

fn cmd_reference(a: &Args) -> i32 {
    let Some(out) = &a.out else {
        eprintln!("perfbench: reference needs --out FILE\n{USAGE}");
        return 2;
    };
    match compute_reference(a.seed) {
        Ok(arms) => {
            let arms: Vec<Value> = arms
                .iter()
                .map(|(l, w)| {
                    json!({"label": l.as_str(), "rocksdb_op_cycles": w.rocksdb_op_cycles,
                           "redis_ops_per_s": w.redis_ops_per_s})
                })
                .collect();
            let doc = json!({"workload": "corun", "seed": a.seed, "arms": Value::Array(arms)});
            match std::fs::write(out, format!("{doc}\n")) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", out.display());
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn cmd_digests() -> i32 {
    let mut doc = BTreeMap::new();
    for kind in [Kind::LeakyDma, Kind::Corun] {
        let round = scenario::run_round(kind, DEFAULT_SEED, None);
        let mut arms = BTreeMap::new();
        for arm in &round.arms {
            if !arm.problems.is_empty() {
                eprintln!(
                    "perfbench: {}/{}: {}",
                    kind.name(),
                    arm.label,
                    arm.problems.join("; ")
                );
                return 1;
            }
            arms.insert(arm.label.to_owned(), json!(format!("{:016x}", arm.digest)));
        }
        doc.insert(kind.name().to_owned(), Value::Object(arms));
    }
    println!("{}", Value::Object(doc).pretty());
    0
}

fn metric(r: &mut Report, name: &str, value: f64, unit: &str) {
    r.metrics.push((name.to_owned(), value, unit.to_owned()));
}

/// Prints one `name value unit note` line of the human-readable report;
/// an end-to-end metric also goes into the JSON result.
fn line(r: &mut Report, name: &str, value: Option<f64>, unit: &str, note: &str) {
    if let Some(v) = value.filter(|_| END_TO_END.contains(&(name, unit))) {
        metric(r, name, v, unit);
    }
    let v = value.map_or("n/a".to_owned(), |v| format!("{v:.6}"));
    r.text
        .push(format!("  {name:<24} {v:>18} {unit:<6} {note}"));
}

fn scenario_run(a: &Args, kind: Kind) -> Result<Report, String> {
    let mut r = Report::default();
    let reference = if kind.sampled() {
        Some(exact_reference(a)?)
    } else {
        None
    };
    if kind.sampled() {
        let spec = iat_cachesim::config::SamplingLevel::Conservative.spec();
        iat_cachesim::config::set_thread_sampling(Some(spec));
    }
    let committed = if a.seed == DEFAULT_SEED && !kind.sampled() {
        Some(committed_digests(kind)?)
    } else {
        None
    };
    let budget = Duration::from_secs_f64(a.seconds.max(0.0));
    if a.trace {
        return scenario_traced(a, kind, reference.as_deref(), committed.as_deref(), budget);
    }

    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || t0.elapsed() < budget {
        rounds.push(scenario::run_round(kind, a.seed, None));
    }
    let measured = t0.elapsed();
    let mut setups: Vec<f64> = rounds.iter().map(|x| x.setup_ns as f64 / 1e9).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(scenario::setup_only(kind, a.seed) as f64 / 1e9);
    }

    let first = digests_of(&rounds[0]);
    for (i, round) in rounds.iter().enumerate() {
        match (i, &committed) {
            (0, Some(c)) => check_round(kind, round, Some(c), "committed", &mut r),
            (0, None) => check_round(kind, round, None, "", &mut r),
            _ => check_round(kind, round, Some(&first), "round 1", &mut r),
        }
    }

    let intervals: Vec<f64> = rounds
        .iter()
        .flat_map(|x| {
            x.arms
                .iter()
                .flat_map(|arm| arm.interval_ns.iter().map(|&n| n as f64 / 1e6))
        })
        .collect();
    let wall: Vec<f64> = rounds.iter().map(|x| x.wall_ns as f64 / 1e9).collect();
    let cost: Vec<f64> = rounds.iter().map(|x| x.job_ns() as f64 / 1e9).collect();
    let accesses: u64 = rounds
        .iter()
        .flat_map(|x| x.arms.iter().map(|arm| arm.accesses))
        .sum();
    let modelled: f64 = rounds
        .iter()
        .flat_map(|x| x.arms.iter().map(|arm| arm.modelled_s))
        .sum();
    let interval_s: f64 = intervals.iter().sum::<f64>() / 1e3;
    let (tail, tail_pct, tail_n) = stats::tail(&intervals, 10);
    let err = reference.as_ref().and_then(|exact| {
        rounds
            .iter()
            .filter_map(|x| scenario::sampled_error_pct(&x.arms, exact))
            .reduce(f64::max)
    });
    if kind.sampled() && err.is_none() {
        r.problems
            .push("sampled error: reference does not cover every arm".to_owned());
    }

    r.text.push(format!(
        "perfbench {} seed {} (scenario seed {:#x}): {} round(s) of {} arm(s) x {} interval(s) in {:.2} s",
        kind.name(),
        a.seed,
        kind.scenario_seed(a.seed),
        rounds.len(),
        rounds[0].arms.len(),
        kind.intervals_per_arm(),
        measured.as_secs_f64()
    ));
    let n = intervals.len();
    line(
        &mut r,
        "setup_s",
        Some(stats::median(&setups)),
        "s",
        &format!("median of {} set-up(s), every arm compiled", setups.len()),
    );
    line(
        &mut r,
        "wall_s",
        Some(stats::median(&wall)),
        "s",
        "median round wall (compile + intervals)",
    );
    line(
        &mut r,
        "job_cost_s",
        Some(stats::median(&cost)),
        "s",
        "median summed arm time",
    );
    line(
        &mut r,
        "modelled_s_per_host_s",
        Some(modelled / interval_s),
        "s/s",
        "modelled seconds per host second of intervals",
    );
    line(
        &mut r,
        "accesses_per_s",
        Some(accesses as f64 / wall.iter().sum::<f64>()),
        "1/s",
        "simulated cache accesses per host second",
    );
    line(
        &mut r,
        "interval_p50_ms",
        Some(stats::median(&intervals)),
        "ms",
        &format!("median of {n} intervals"),
    );
    line(
        &mut r,
        "interval_tail_ms",
        Some(tail),
        "ms",
        &format!("p{tail_pct:.1} of {tail_n} intervals (>= 10 beyond)"),
    );
    line(
        &mut r,
        "peak_rss_mb",
        Some(guard::peak_rss_mb()),
        "MB",
        "VmHWM",
    );
    line(
        &mut r,
        "sampled_err_pct",
        err,
        "%",
        "worst arm: RocksDB op latency, Redis op throughput vs exact",
    );
    let (ops, failed) = (r.attempted as f64, r.failed as f64);
    line(&mut r, "ops", Some(ops), "count", "intervals attempted");
    line(&mut r, "ops_failed", Some(failed), "count", "");
    r.text.push(format!(
        "  interval ms p10/p25/p50/p75/p90: {}; round walls s: {}",
        [10.0, 25.0, 50.0, 75.0, 90.0]
            .map(|q| format!("{:.1}", stats::quantile(&intervals, q)))
            .join("/"),
        wall.iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for arm in &rounds[0].arms {
        let mut text = format!("  arm {:<12} digest {:016x}", arm.label, arm.digest);
        if arm.window != Window::default() {
            text += &format!(
                "  rocksdb {:.1} cycles/op, redis {:.4e} ops/s",
                arm.window.rocksdb_op_cycles, arm.window.redis_ops_per_s
            );
        }
        if let Some((_, w)) = reference
            .as_ref()
            .and_then(|e| e.iter().find(|(l, _)| l == arm.label))
        {
            text += &format!(
                " (exact {:.1}, {:.4e})",
                w.rocksdb_op_cycles, w.redis_ops_per_s
            );
        }
        r.text.push(text);
    }
    Ok(r)
}

/// The traced scenario run: a warm-up round (the process's first round
/// pays page faults the others do not), then untraced and traced rounds
/// in turn until the budget is spent. Every round must reproduce the
/// warm-up round's digests; the tracing overhead compares the medians.
fn scenario_traced(
    a: &Args,
    kind: Kind,
    reference: Option<&[(String, Window)]>,
    committed: Option<&[(String, u64)]>,
    budget: Duration,
) -> Result<Report, String> {
    let mut r = Report::default();
    let t0 = Instant::now();
    let warmup = scenario::run_round(kind, a.seed, None);
    check_round(kind, &warmup, committed, "committed", &mut r);
    let expect = digests_of(&warmup);

    let label = format!("perfbench {} seed {}", kind.name(), a.seed);
    let trace = iat_telemetry::span::SpanTracer::new();
    let mut tallies = scenario::Layers::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut err = None;
    while traced_walls.is_empty() || t0.elapsed() < budget {
        let plain = scenario::run_round(kind, a.seed, None);
        check_round(kind, &plain, Some(&expect), "warm-up round", &mut r);
        plain_walls.push(plain.wall_ns as f64);
        let round = scenario::run_round(
            kind,
            a.seed,
            Some(scenario::Tracing {
                trace: &trace,
                layers: &mut tallies,
            }),
        );
        check_round(
            kind,
            &round,
            Some(&expect),
            "untraced warm-up round",
            &mut r,
        );
        traced_walls.push(round.wall_ns as f64);
        if let Some(exact) = reference {
            err = scenario::sampled_error_pct(&round.arms, exact);
        }
    }
    let overhead = 100.0 * (stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0);
    let rows = scenario::rows(kind, &tallies, overhead, err.unwrap_or(0.0));
    let wall_ms = tallies.wall_ns as f64 / 1e6 / tallies.rounds as f64;
    finish_traced(
        a,
        &mut r,
        &label,
        wall_ms,
        &rows,
        &trace.export_chrome_trace().expect("enabled tracer"),
    )?;
    Ok(r)
}

/// Writes the trace and the per-layer table, prints the table, and fills
/// the per-layer JSON metrics from the rows.
fn finish_traced(
    a: &Args,
    r: &mut Report,
    label: &str,
    wall_ms: f64,
    rows: &[Row],
    trace: &str,
) -> Result<(), String> {
    let table = layers::render_table(label, wall_ms, rows);
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let stem = a.out_dir.join(format!("{}-seed{}", a.workload, a.seed));
    let (trace_path, table_path) = (
        stem.with_extension("trace.json"),
        stem.with_extension("layers.txt"),
    );
    std::fs::write(&trace_path, trace).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    std::fs::write(&table_path, &table).map_err(|e| format!("{}: {e}", table_path.display()))?;
    r.text.extend(table.lines().map(str::to_owned));
    r.text.push(format!(
        "wrote {} and {}",
        trace_path.display(),
        table_path.display()
    ));

    let get = |name: &str| rows.iter().find(|x| x.name == name).map(|x| x.value);
    let pct = |ms: f64| 100.0 * ms / wall_ms.max(1e-9);
    // A `<layer>_pct` metric is the `<layer>_ms` row's share of the
    // traced wall; a row the workload does not have reads 0.
    for (name, unit) in PER_LAYER {
        let share = name
            .strip_suffix("_pct")
            .and_then(|stem| get(&format!("{stem}_ms")));
        let value = share.map_or_else(|| get(name).unwrap_or(0.0), pct);
        metric(r, name, value, unit);
    }
    Ok(())
}

fn sweep_run(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let jobs = guard::nproc();
    let budget = Duration::from_secs_f64(a.seconds.max(0.0));
    let check_captures = a.seed == DEFAULT_SEED;
    // Set-up is building the job registry; it is cheap, so take many
    // samples outside the timed sweeps.
    let setup_ms: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            let reg = iat_bench::jobs::registry();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(reg);
            ms
        })
        .collect();

    let tally = |out: &iat_runner::RunOutput, first: Option<u64>, r: &mut Report| {
        r.attempted += out.reports.len() as u64;
        let failed = sweep::failed_jobs(out, check_captures);
        if !failed.is_empty() {
            r.fail(
                failed.len() as u64,
                format!("sweep jobs failed: {}", failed.join(", ")),
            );
        }
        if let Some(d) = first {
            if sweep::digest(out) != d {
                r.fail(
                    out.reports.len() as u64,
                    "sweep outputs differ from the first sweep".to_owned(),
                );
            }
        }
    };

    if a.trace {
        // A warm-up sweep, an untraced sweep, then span-traced sweeps:
        // the global span tracer cannot be uninstalled, so untraced and
        // traced sweeps cannot alternate.
        let t0 = Instant::now();
        let warmup = sweep::run(a.seed, jobs);
        tally(&warmup, None, &mut r);
        let untraced = sweep::digest(&warmup);
        let plain = sweep::run(a.seed, jobs);
        tally(&plain, Some(untraced), &mut r);
        let tracer = iat_telemetry::span::install_global();
        let mut walls = Vec::new();
        let mut last = None;
        while walls.is_empty() || t0.elapsed() < budget {
            let out = sweep::run(a.seed, jobs);
            tally(&out, Some(untraced), &mut r);
            walls.push(out.wall.as_secs_f64());
            last = Some(out);
        }
        let out = last.expect("at least one traced sweep");
        let overhead = 100.0 * (stats::median(&walls) / plain.wall.as_secs_f64() - 1.0);
        let rows = sweep::rows(&out, jobs, overhead, stats::median(&setup_ms));
        let worker_ms = sweep::workers(&out, jobs) as f64 * out.wall.as_secs_f64() * 1e3;
        let trace = tracer
            .export_chrome_trace()
            .ok_or("span tracer did not install")?;
        let label = format!(
            "perfbench sweep seed {} ({} workers; shares are of worker time)",
            a.seed, jobs
        );
        finish_traced(a, &mut r, &label, worker_ms, &rows, &trace)?;
        return Ok(r);
    }

    let t0 = Instant::now();
    let mut outs = Vec::new();
    while outs.is_empty() || t0.elapsed() < budget {
        outs.push(sweep::run(a.seed, jobs));
    }
    let first = sweep::digest(&outs[0]);
    for (i, out) in outs.iter().enumerate() {
        tally(out, (i > 0).then_some(first), &mut r);
    }
    let wall: Vec<f64> = outs.iter().map(|o| o.wall.as_secs_f64()).collect();
    let cost: Vec<f64> = outs.iter().map(sweep::job_cost_s).collect();
    let leaves: Vec<f64> = outs.iter().flat_map(sweep::leaf_ms).collect();
    let accesses: u64 = outs.iter().map(sweep::accesses).sum();
    let (tail, tail_pct, tail_n) = stats::tail(&leaves, 10);
    let (wall_med, cost_med) = (stats::median(&wall), stats::median(&cost));
    r.text.push(format!(
        "perfbench sweep seed {}: {} sweep(s) of {} over {} job(s), {} worker(s), in {:.2} s{}",
        a.seed,
        outs.len(),
        sweep::GROUPS.join("+"),
        outs[0].reports.len(),
        jobs,
        t0.elapsed().as_secs_f64(),
        if check_captures {
            ", staged bytes checked against results/"
        } else {
            ""
        }
    ));
    line(
        &mut r,
        "setup_s",
        Some(stats::median(&setup_ms) / 1e3),
        "s",
        &format!("median of {} registry builds", setup_ms.len()),
    );
    line(&mut r, "wall_s", Some(wall_med), "s", "median sweep wall");
    line(
        &mut r,
        "job_cost_s",
        Some(cost_med),
        "s",
        &format!(
            "median summed job time ({:.2}x concurrency)",
            cost_med / wall_med
        ),
    );
    line(
        &mut r,
        "modelled_s_per_host_s",
        None,
        "s/s",
        "runner jobs do not expose modelled time",
    );
    line(
        &mut r,
        "accesses_per_s",
        Some(accesses as f64 / wall.iter().sum::<f64>()),
        "1/s",
        "simulated cache accesses per wall second",
    );
    line(
        &mut r,
        "interval_p50_ms",
        Some(stats::median(&leaves)),
        "ms",
        &format!("median of {} leaf jobs (an op is a job here)", leaves.len()),
    );
    line(
        &mut r,
        "interval_tail_ms",
        Some(tail),
        "ms",
        &format!("p{tail_pct:.1} of {tail_n} leaf jobs"),
    );
    line(
        &mut r,
        "peak_rss_mb",
        Some(guard::peak_rss_mb()),
        "MB",
        "VmHWM",
    );
    line(&mut r, "sampled_err_pct", None, "%", "exact workload");
    let (ops, failed) = (r.attempted as f64, r.failed as f64);
    line(&mut r, "ops", Some(ops), "count", "jobs attempted");
    line(&mut r, "ops_failed", Some(failed), "count", "");
    r.text.push(format!("  sweep digest {first:016x}"));
    Ok(r)
}
