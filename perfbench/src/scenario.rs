//! The scenario workloads: `leaky-dma`, `corun` and `corun-sampled`.
//!
//! A *round* compiles every arm of the workload with `catalog::build`
//! and runs it for a fixed number of policy intervals (warm-up, then a
//! measured window), starting from empty caches. Rounds repeat the same
//! scenario seed, so every round of a run must reproduce the first
//! round's simulated-state digest.

use crate::layers::{self, PhaseAcc, Row, TenantCell};
use iat_bench::catalog::{self, ScenarioParams};
use iat_bench::scenarios::{NetApp, PcApp, PolicyKind};
use iat_bench::Managed;
use iat_perf::{DdioSampleMode, Monitor};
use iat_platform::Platform;
use iat_rdt::{ClosId, CLOS_COUNT};
use iat_telemetry::span::SpanTracer;
use iat_workloads::YcsbMix;
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which scenario workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Aggregation (two 40 G ports → OVS → two testpmd) at 64 B
    /// single-flow line rate, baseline vs IAT: I/O dominated.
    LeakyDma,
    /// Fig. 13's YCSB-A RocksDB point next to Redis-behind-OVS and two
    /// best-effort X-Mem containers, three baseline rotations and IAT,
    /// run exactly: core dominated.
    Corun,
    /// [`Kind::Corun`] under the untuned `SamplingLevel::Conservative`
    /// preset.
    CorunSampled,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "leaky-dma" => Some(Kind::LeakyDma),
            "corun" => Some(Kind::Corun),
            "corun-sampled" => Some(Kind::CorunSampled),
            _ => None,
        }
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LeakyDma => "leaky-dma",
            Kind::Corun => "corun",
            Kind::CorunSampled => "corun-sampled",
        }
    }

    /// Whether the workload runs the sampled execution path.
    pub fn sampled(self) -> bool {
        self == Kind::CorunSampled
    }

    /// `(warm-up, measured)` intervals per arm: fig. 8's and fig. 13's
    /// windows.
    fn plan(self) -> (usize, usize) {
        match self {
            Kind::LeakyDma => (6, 6),
            Kind::Corun | Kind::CorunSampled => (3, 4),
        }
    }

    /// Intervals per arm.
    pub fn intervals_per_arm(self) -> usize {
        let (w, m) = self.plan();
        w + m
    }

    /// The arms, in run order: `(label, scenario)`.
    pub fn arms(self) -> Vec<(&'static str, ScenarioParams)> {
        match self {
            Kind::LeakyDma => [
                ("baseline", PolicyKind::Baseline(0)),
                ("iat", PolicyKind::Iat),
            ]
            .into_iter()
            .map(|(label, policy)| {
                (
                    label,
                    ScenarioParams::Aggregation {
                        packet_bytes: 64,
                        flows_per_port: 1,
                        policy,
                    },
                )
            })
            .collect(),
            Kind::Corun | Kind::CorunSampled => [
                ("baseline-r0", PolicyKind::Baseline(0)),
                ("baseline-r2", PolicyKind::Baseline(2)),
                ("baseline-r4", PolicyKind::Baseline(4)),
                ("iat", PolicyKind::IatShuffleOnly),
            ]
            .into_iter()
            .map(|(label, policy)| {
                (
                    label,
                    ScenarioParams::AppCorun {
                        net: NetApp::Redis,
                        pc: PcApp::Rocks(YcsbMix::a()),
                        mix: YcsbMix::b(),
                        with_be: true,
                        policy,
                    },
                )
            })
            .collect(),
        }
    }

    /// The scenario seed for benchmark seed `seed`. Derived from the
    /// benchmark seed and a `perfbench/` name no figure job uses, so no
    /// run reuses a seed a `SamplingSpec` was tuned on. The sampled
    /// co-run shares the exact co-run's seed: same arms, same scenario.
    pub fn scenario_seed(self, seed: u64) -> u64 {
        let family = match self {
            Kind::LeakyDma => "perfbench/leaky-dma",
            Kind::Corun | Kind::CorunSampled => "perfbench/corun",
        };
        iat_runner::derive_seed(seed, family, "scenario")
    }
}

/// The sampled-accuracy observables of one arm's measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Window {
    /// RocksDB mean operation latency in cycles (0 without RocksDB).
    pub rocksdb_op_cycles: f64,
    /// Redis operations per modelled second over both containers (0
    /// without Redis).
    pub redis_ops_per_s: f64,
}

/// One arm of one round.
#[derive(Debug, Default)]
pub struct ArmRun {
    /// Arm label.
    pub label: &'static str,
    /// `catalog::build` wall time (for the sampled co-run this includes
    /// the cold-start fast-forward or the checkpoint restore).
    pub compile_ns: u64,
    /// Host time of each completed interval.
    pub interval_ns: Vec<u64>,
    /// Modelled seconds the arm advanced.
    pub modelled_s: f64,
    /// Simulated cache accesses, fill included.
    pub accesses: u64,
    /// Simulated-state digest: LLC body, accesses, modelled time and
    /// per-tenant application metrics.
    pub digest: u64,
    /// Measured-window observables.
    pub window: Window,
    /// Failed invariants or a panic message; empty when the arm is good.
    pub problems: Vec<String>,
    /// Invariant and digest time (outside the timed region).
    pub checks_ns: u64,
}

/// Per-layer tallies over traced rounds.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced rounds folded in.
    pub rounds: u64,
    /// Round wall time, checks included.
    pub wall_ns: u64,
    /// `catalog::build` (plus wrapper installation).
    pub compile_ns: u64,
    /// Invariant checks and digests.
    pub checks_ns: u64,
    /// Epoch bodies: summed `Platform::step_epoch` (exact) or warm +
    /// measure phase cells (sampled).
    pub epoch_bodies_ns: u64,
    /// Policy intervals' wall time.
    pub interval_ns: u64,
    /// `Monitor::poll` (exact only).
    pub poll_ns: u64,
    /// `LlcPolicy::step` (exact only).
    pub step_ns: u64,
    /// Phase cells drained over the traced rounds' intervals.
    pub phases: PhaseAcc,
    /// Phase cells drained during compiles (fast-forward, restore and
    /// the flushes nested in them).
    pub compile_phases: PhaseAcc,
    /// Per-tenant `(name, run ns, calls, flush ns)`, merged by name.
    pub tenants: Vec<(String, u64, u64, u64)>,
    /// Intervals run.
    pub intervals: u64,
    /// Epochs stepped (skipped ones included).
    pub epochs: u64,
    /// Simulated cache accesses.
    pub accesses: u64,
    /// Packets DMA-written into Rx rings.
    pub packets_delivered: u64,
    /// Packets dropped at full Rx rings.
    pub packets_dropped: u64,
    /// L2 hits and misses over all cores.
    pub l2: (u64, u64),
    /// LLC references and misses over all agents.
    pub llc: (u64, u64),
    /// DDIO write updates and write allocates.
    pub ddio: (u64, u64),
    /// Memory traffic in bytes.
    pub mem_bytes: u64,
    /// Fast-forwarded epochs.
    pub skipped_epochs: u64,
    /// Epochs run at full fidelity.
    pub measured_epochs: u64,
    /// Workload phases the sampler discovered.
    pub phases_found: u64,
    /// Convergence-checkpoint restores.
    pub restores: u64,
    /// Longest arm (compile + intervals).
    pub longest_arm_ns: u64,
    /// Summed arm time (compile + intervals).
    pub arm_ns: u64,
}

/// Tracing state threaded through a traced round.
pub struct Tracing<'a> {
    /// Span store.
    pub trace: &'a SpanTracer,
    /// Layer tallies.
    pub layers: &'a mut Layers,
}

/// One round's results.
#[derive(Debug, Default)]
pub struct Round {
    /// Arms, in run order.
    pub arms: Vec<ArmRun>,
    /// Round wall time excluding the checks.
    pub wall_ns: u64,
    /// Summed compile time.
    pub setup_ns: u64,
}

impl Round {
    /// Summed arm time (compile + intervals): the "job cost".
    pub fn job_ns(&self) -> u64 {
        self.arms
            .iter()
            .map(|a| a.compile_ns + a.interval_ns.iter().sum::<u64>())
            .sum()
    }
}

/// Compiles every arm once, as a round would, and returns the summed
/// compile time. Used for extra set-up samples; the scenarios are
/// dropped unrun.
pub fn setup_only(kind: Kind, seed: u64) -> u64 {
    iat_runner::checkpoint::clear();
    let scen_seed = kind.scenario_seed(seed);
    let mut total = 0;
    for (_, params) in kind.arms() {
        let t0 = Instant::now();
        let m = catalog::build(&params, scen_seed).into_managed();
        total += t0.elapsed().as_nanos() as u64;
        drop(m);
    }
    iat_runner::checkpoint::clear();
    total
}

/// Runs one round. With `tracing`, every tenant is wrapped and every
/// layer timed; without, the arms run through `Managed::step_interval`
/// untouched. A panic fails the rest of its arm, not the round.
pub fn run_round(kind: Kind, seed: u64, mut tracing: Option<Tracing<'_>>) -> Round {
    // Convergence checkpoints are scoped to one round: the first arm
    // fast-forwards its cold start and deposits the converged caches,
    // the other arms restore them.
    iat_runner::checkpoint::clear();
    let restores0 = iat_runner::checkpoint::counters().0;
    let scen_seed = kind.scenario_seed(seed);
    let r0 = Instant::now();
    let mut round = Round::default();
    let mut checks_ns = 0;
    for (label, params) in kind.arms() {
        let mut arm = ArmRun {
            label,
            ..ArmRun::default()
        };
        let t = tracing.as_mut().map(|t| Tracing {
            trace: t.trace,
            layers: &mut *t.layers,
        });
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_arm(kind, &params, scen_seed, &mut arm, t)
        }));
        if let Err(p) = ran {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panicked".to_owned());
            arm.problems.push(format!("panic: {msg}"));
        }
        round.setup_ns += arm.compile_ns;
        checks_ns += arm.checks_ns;
        round.arms.push(arm);
    }
    iat_runner::checkpoint::clear();
    let wall = r0.elapsed().as_nanos() as u64;
    round.wall_ns = wall - checks_ns;
    if let Some(t) = tracing {
        let l = t.layers;
        l.rounds += 1;
        l.wall_ns += wall;
        l.restores += iat_runner::checkpoint::counters().0 - restores0;
        for a in &round.arms {
            let arm_ns = a.compile_ns + a.interval_ns.iter().sum::<u64>();
            l.longest_arm_ns = l.longest_arm_ns.max(arm_ns);
            l.arm_ns += arm_ns;
        }
    }
    round
}

fn run_arm(
    kind: Kind,
    params: &ScenarioParams,
    scen_seed: u64,
    arm: &mut ArmRun,
    mut tracing: Option<Tracing<'_>>,
) {
    let traced = tracing.is_some();
    let acc0 = if traced {
        layers::phase_totals()
    } else {
        PhaseAcc::default()
    };
    let c0 = Instant::now();
    let mut m = catalog::build(params, scen_seed).into_managed();
    let cells = if traced {
        layers::install_wrappers(&mut m.platform)
    } else {
        Vec::new()
    };
    arm.compile_ns = c0.elapsed().as_nanos() as u64;
    if let Some(t) = tracing.as_mut() {
        let d = layers::phase_totals().since(&acc0);
        let start = c0;
        layers::span(
            t.trace,
            "bench",
            &format!("compile {}", arm.label),
            start,
            arm.compile_ns,
            json!({}),
        );
        if d.fast_warm > 0 {
            layers::span(
                t.trace,
                "platform",
                "platform.fast_warm",
                start,
                d.fast_warm,
                json!({}),
            );
        }
        if d.restore > 0 {
            layers::span(
                t.trace,
                "platform",
                "platform.restore",
                start + Duration::from_nanos(d.fast_warm),
                d.restore,
                json!({}),
            );
        }
        t.layers.compile_ns += arm.compile_ns;
        t.layers.compile_phases = add(&t.layers.compile_phases, &d);
    }

    // The exact-mode body of `Managed::step_interval`, from public calls:
    // the monitor is the one `Managed::new` builds, and `Monitor::poll`
    // only reads counters.
    let monitor = Monitor::new(m.platform.monitor_spec(), DdioSampleMode::OneSlice(0));
    let (warm, measure) = kind.plan();
    let t_start = m.time_s();
    let mut t_window = t_start;
    for i in 0..warm + measure {
        if i == warm {
            m.platform.reset_metrics();
            t_window = m.time_s();
        }
        let t0 = Instant::now();
        match tracing.as_mut() {
            None => {
                m.step_interval();
            }
            Some(t) if !kind.sampled() => traced_exact_interval(&mut m, &monitor, &cells, t),
            Some(t) => traced_sampled_interval(&mut m, &cells, t),
        }
        arm.interval_ns.push(t0.elapsed().as_nanos() as u64);
    }
    arm.modelled_s = m.time_s() - t_start;
    arm.accesses = m.accesses();

    let k0 = Instant::now();
    arm.window = window(&m.platform, m.time_s() - t_window);
    arm.digest = digest(&m.platform);
    arm.problems.extend(invariants(&m.platform));
    if let Some(t) = tracing.as_mut() {
        tally_counters(&mut m, kind, t.layers);
    }
    arm.checks_ns = k0.elapsed().as_nanos() as u64;
    if let Some(t) = tracing {
        layers::span(t.trace, "bench", "checks", k0, arm.checks_ns, json!({}));
        t.layers.checks_ns += arm.checks_ns;
        layers::span(
            t.trace,
            "bench",
            &format!("arm {}", arm.label),
            c0,
            c0.elapsed().as_nanos() as u64,
            json!({}),
        );
        for (name, cell) in &cells {
            let (run, calls, flush) = cell.read();
            match t.layers.tenants.iter_mut().find(|(n, ..)| n == name) {
                Some(e) => {
                    e.1 += run;
                    e.2 += calls;
                    e.3 += flush;
                }
                None => t.layers.tenants.push((name.clone(), run, calls, flush)),
            }
        }
    }
}

/// Per-tenant `(run ns, calls, flush ns)` snapshot.
fn snapshot(cells: &[(String, Arc<TenantCell>)]) -> Vec<(u64, u64, u64)> {
    cells.iter().map(|(_, c)| c.read()).collect()
}

/// Records the epoch-body aggregate span and, inside it, one span per
/// tenant's summed `run` time (with its nested flush) laid end to end,
/// then the platform-side flush.
fn epoch_children(
    t: &mut Tracing<'_>,
    start: Instant,
    cells: &[(String, Arc<TenantCell>)],
    before: &[(u64, u64, u64)],
    flush_out: u64,
) {
    let mut at = start;
    for ((name, cell), b) in cells.iter().zip(before) {
        let (run, calls, flush) = cell.read();
        let (run, calls, flush) = (run - b.0, calls - b.1, flush - b.2);
        layers::span(
            t.trace,
            "workloads",
            &format!("run {name}"),
            at,
            run,
            json!({ "calls": calls }),
        );
        if flush > 0 {
            layers::span(t.trace, "cachesim", "llc.flush", at, flush, json!({}));
        }
        at += Duration::from_nanos(run);
    }
    if flush_out > 0 {
        layers::span(
            t.trace,
            "cachesim",
            "llc.flush (dma/tx)",
            at,
            flush_out,
            json!({}),
        );
    }
}

fn traced_exact_interval(
    m: &mut Managed,
    monitor: &Monitor,
    cells: &[(String, Arc<TenantCell>)],
    t: &mut Tracing<'_>,
) {
    let i0 = Instant::now();
    let before = snapshot(cells);
    let acc0 = layers::phase_totals();
    let epochs = m.epochs_per_interval();
    let mut epoch_ns = 0;
    for _ in 0..epochs {
        let e0 = Instant::now();
        m.platform.step_epoch();
        epoch_ns += e0.elapsed().as_nanos() as u64;
    }
    let d = layers::phase_totals().since(&acc0);
    let p0 = Instant::now();
    let poll = monitor.poll(m.platform.llc(), m.platform.bank());
    let poll_ns = p0.elapsed().as_nanos() as u64;
    let s0 = Instant::now();
    m.policy.step(m.platform.rdt_mut(), poll);
    let step_ns = s0.elapsed().as_nanos() as u64;
    let interval_ns = i0.elapsed().as_nanos() as u64;

    let start = i0;
    layers::span(t.trace, "bench", "interval", start, interval_ns, json!({}));
    layers::span(
        t.trace,
        "platform",
        "epochs",
        start,
        epoch_ns,
        json!({ "epochs": epochs }),
    );
    epoch_children(t, start, cells, &before, d.flush_out);
    layers::span(t.trace, "perf", "perf.poll", p0, poll_ns, json!({}));
    layers::span(t.trace, "core", "core.step", s0, step_ns, json!({}));

    let l = &mut *t.layers;
    l.phases = add(&l.phases, &d);
    l.epoch_bodies_ns += epoch_ns;
    l.interval_ns += interval_ns;
    l.poll_ns += poll_ns;
    l.step_ns += step_ns;
    l.intervals += 1;
    l.epochs += epochs as u64;
}

/// Sampled arms step through `Managed::step_interval` itself (the
/// extrapolation it feeds the policy is private); the epoch bodies come
/// from the warm and measure phase cells.
fn traced_sampled_interval(
    m: &mut Managed,
    cells: &[(String, Arc<TenantCell>)],
    t: &mut Tracing<'_>,
) {
    let i0 = Instant::now();
    let before = snapshot(cells);
    let acc0 = layers::phase_totals();
    m.step_interval();
    let interval_ns = i0.elapsed().as_nanos() as u64;
    let d = layers::phase_totals().since(&acc0);
    let bodies = d.warm + d.measure;

    let start = i0;
    layers::span(t.trace, "bench", "interval", start, interval_ns, json!({}));
    layers::span(
        t.trace,
        "platform",
        "epoch bodies",
        start,
        bodies,
        json!({ "warm_ms": d.warm as f64 / 1e6, "measure_ms": d.measure as f64 / 1e6 }),
    );
    epoch_children(t, start, cells, &before, d.flush_out);
    layers::span(
        t.trace,
        "managed",
        "managed (skips, poll, extrapolation, policy step)",
        start + Duration::from_nanos(bodies),
        interval_ns.saturating_sub(bodies),
        json!({}),
    );

    let l = &mut *t.layers;
    l.phases = add(&l.phases, &d);
    l.epoch_bodies_ns += bodies;
    l.interval_ns += interval_ns;
    l.intervals += 1;
    l.epochs += m.epochs_per_interval() as u64;
}

fn add(a: &PhaseAcc, b: &PhaseAcc) -> PhaseAcc {
    PhaseAcc {
        warm: a.warm + b.warm,
        fast_warm: a.fast_warm + b.fast_warm,
        restore: a.restore + b.restore,
        measure: a.measure + b.measure,
        flush_in_run: a.flush_in_run + b.flush_in_run,
        flush_out: a.flush_out + b.flush_out,
    }
}

/// Folds one finished arm's simulator counters into the layer tallies.
fn tally_counters(m: &mut Managed, kind: Kind, l: &mut Layers) {
    let all = (kind.intervals_per_arm() * m.epochs_per_interval()) as u64;
    let p = &mut m.platform;
    let h = p.hierarchy();
    for c in 0..h.core_count() {
        let l2 = h.core(c).l2();
        l.l2.0 += l2.hits();
        l.l2.1 += l2.misses();
    }
    let st = p.llc().stats();
    for (_, a) in st.agents() {
        l.llc.0 += a.references;
        l.llc.1 += a.misses;
    }
    l.ddio.0 += st.ddio_hits();
    l.ddio.1 += st.ddio_misses();
    l.mem_bytes += p.llc().mem().total_bytes();
    l.accesses += h.accesses();
    l.skipped_epochs += p.skipped_epochs();
    l.measured_epochs += p.measured_epochs().unwrap_or(all);
    l.phases_found += p.phase_count() as u64;
    let ids: Vec<_> = p.tenants().iter().map(|t| t.id).collect();
    for id in ids {
        for port in p.tenant_mut(id).workload.ports_mut() {
            l.packets_delivered += port.dma.rx_packets;
            l.packets_dropped += port.dma.rx_dropped;
        }
    }
}

/// The measured window's sampled-accuracy observables.
fn window(p: &Platform, seconds: f64) -> Window {
    let mut w = Window::default();
    for t in p.tenants() {
        let m = t.workload.metrics();
        if t.name == "rocksdb" {
            w.rocksdb_op_cycles = m.avg_op_cycles;
        } else if t.name.starts_with("redis") && seconds > 0.0 {
            w.redis_ops_per_s += m.ops as f64 / seconds;
        }
    }
    w
}

/// FNV-1a over the LLC body digest, accesses, modelled time and every
/// tenant's application metrics.
fn digest(p: &Platform) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&p.llc().state_digest().to_le_bytes());
    eat(&p.hierarchy().accesses().to_le_bytes());
    eat(&p.time_ns().to_le_bytes());
    for t in p.tenants() {
        let m = t.workload.metrics();
        eat(t.name.as_bytes());
        eat(&m.ops.to_le_bytes());
        eat(&m.avg_op_cycles.to_bits().to_le_bytes());
        eat(&m.p99_op_cycles.to_bits().to_le_bytes());
        eat(&m.drops.to_le_bytes());
    }
    h
}

/// Model invariants at the end of an arm: per-agent LLC occupancy equals
/// a `repair_occupancy` recount on a cloned hierarchy, and every CLOS
/// mask and the DDIO mask is contiguous and non-empty.
pub fn invariants(p: &Platform) -> Vec<String> {
    let mut problems = Vec::new();
    let mut recount = p.hierarchy().clone();
    recount.repair_occupancy();
    let (have, want) = (p.llc().stats(), recount.llc().stats());
    for (agent, _) in have.agents().chain(want.agents()) {
        let (h, w) = (
            have.agent(agent).occupancy_lines,
            want.agent(agent).occupancy_lines,
        );
        if h != w {
            problems.push(format!(
                "occupancy of {agent}: {h} lines tracked, {w} resident"
            ));
        }
    }
    for c in 0..CLOS_COUNT {
        let mask = p.rdt().clos_mask(ClosId::new(c as u8));
        if mask.is_empty() || !mask.is_contiguous() {
            problems.push(format!(
                "CLOS {c} mask {:#x} is empty or not contiguous",
                mask.bits()
            ));
        }
    }
    let ddio = p.rdt().ddio_mask();
    if ddio.is_empty() || !ddio.is_contiguous() {
        problems.push(format!(
            "DDIO mask {:#x} is empty or not contiguous",
            ddio.bits()
        ));
    }
    problems
}

/// The largest relative error, in percent, of the sampled arms' RocksDB
/// mean op latency and Redis op throughput against an exact run of the
/// same arms.
pub fn sampled_error_pct(sampled: &[ArmRun], exact: &[(String, Window)]) -> Option<f64> {
    let mut worst: f64 = 0.0;
    for a in sampled {
        let (_, e) = exact.iter().find(|(l, _)| l == a.label)?;
        for (s, x) in [
            (a.window.rocksdb_op_cycles, e.rocksdb_op_cycles),
            (a.window.redis_ops_per_s, e.redis_ops_per_s),
        ] {
            if x == 0.0 {
                return None;
            }
            worst = worst.max(100.0 * (s / x - 1.0).abs());
        }
    }
    Some(worst)
}

/// The per-layer rows of traced scenario rounds, per round.
pub fn rows(kind: Kind, l: &Layers, overhead_pct: f64, err_pct: f64) -> Vec<Row> {
    let r = l.rounds.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / r;
    let run: u64 = l.tenants.iter().map(|t| t.1).sum();
    let calls: u64 = l.tenants.iter().map(|t| t.2).sum();
    let (p, cp) = (&l.phases, &l.compile_phases);
    let mut rows = vec![
        Row::time(
            "bench.compile_ms",
            ms(l.compile_ns.saturating_sub(cp.fast_warm + cp.restore)),
            "catalog::build, minus fast-forward and restore",
        ),
        Row::time(
            "platform.fast_warm_ms",
            ms(cp.fast_warm.saturating_sub(cp.flush())),
            "cold-start fast-forward at compile, minus its LLC flushes (sampled)",
        ),
        Row::time("platform.restore_ms", ms(cp.restore), "convergence-checkpoint restores at compile (sampled)"),
        Row::time(
            "platform.epoch_self_ms",
            ms(l.epoch_bodies_ns.saturating_sub(run + p.flush_out)),
            "epoch bodies minus workload runs and LLC flushes: traffic, DMA Rx, Tx drain, bookkeeping",
        ),
        Row::time("workloads.run_ms", ms(run.saturating_sub(p.flush_in_run)), "Workload::run, minus nested LLC flushes"),
        Row::time("cachesim.llc_flush_ms", ms(p.flush() + cp.flush()), "LLC batch flushes, in runs, DMA/Tx and fast-forward"),
    ];
    if kind.sampled() {
        rows.push(Row::time(
            "managed.rest_ms",
            ms(l.interval_ns.saturating_sub(l.epoch_bodies_ns)),
            "Managed::step_interval outside epoch bodies: skips, poll, extrapolation, policy step",
        ));
    } else {
        rows.push(Row::time("perf.poll_ms", ms(l.poll_ns), "Monitor::poll"));
        rows.push(Row::time("core.step_ms", ms(l.step_ns), "LlcPolicy::step"));
        rows.push(Row::time(
            "bench.loop_ms",
            ms(l.interval_ns
                .saturating_sub(l.epoch_bodies_ns + l.poll_ns + l.step_ns)),
            "interval loop outside the calls above",
        ));
    }
    rows.push(Row::time(
        "bench.checks_ms",
        ms(l.checks_ns),
        "digests and invariant checks",
    ));
    let attributed: f64 = rows.iter().map(|r| r.value).sum();
    let wall = ms(l.wall_ns);
    let front_end = rows
        .iter()
        .filter(|r| r.name == "platform.epoch_self_ms" || r.name == "workloads.run_ms");
    rows.push(Row::info(
        "platform.front_end_ms",
        front_end.map(|r| r.value).sum(),
        "ms",
        "epoch_self + workloads.run: epoch bodies minus LLC flushes",
    ));
    let per_interval_us = |ns: u64| ns as f64 / 1e3 / l.intervals.max(1) as f64;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    for (name, run_ns, calls, _) in &l.tenants {
        rows.push(Row::info(
            &format!("workloads.run_ms.{name}"),
            ms(*run_ns),
            "ms",
            &format!("{calls} run calls, flush included"),
        ));
    }
    let all_epochs = l.epochs.max(1) as f64;
    rows.extend([
        Row::info(
            "workloads.run_calls",
            calls as f64 / r,
            "count",
            "Workload::run calls",
        ),
        Row::info(
            "workloads.ns_per_access",
            run as f64 / l.accesses.max(1) as f64,
            "ns",
            "workload run time per simulated access",
        ),
        Row::info(
            "platform.measure_ms",
            ms(p.measure),
            "ms",
            "measured epoch bodies (phase cell)",
        ),
        Row::info(
            "platform.ns_per_access",
            l.epoch_bodies_ns as f64 / l.accesses.max(1) as f64,
            "ns",
            "epoch-body time per simulated access",
        ),
        Row::info(
            "platform.warm_ms",
            ms(p.warm),
            "ms",
            "functional-warmup epoch bodies (phase cell)",
        ),
        Row::info(
            "perf.poll_us",
            if kind.sampled() {
                0.0
            } else {
                per_interval_us(l.poll_ns)
            },
            "us",
            "per interval (inside Managed when sampled)",
        ),
        Row::info(
            "core.step_us",
            if kind.sampled() {
                0.0
            } else {
                per_interval_us(l.step_ns)
            },
            "us",
            "per interval (inside Managed when sampled)",
        ),
        Row::info(
            "netsim.packets_delivered",
            l.packets_delivered as f64 / r,
            "count",
            "DMA-written packets",
        ),
        Row::info(
            "netsim.drop_ratio",
            ratio(l.packets_dropped, l.packets_delivered),
            "ratio",
            "dropped / offered at Rx rings",
        ),
        Row::info(
            "cachesim.accesses",
            l.accesses as f64 / r,
            "count",
            "L2 + LLC operations",
        ),
        Row::info("cachesim.l2_hit_ratio", ratio(l.l2.0, l.l2.1), "ratio", ""),
        Row::info(
            "cachesim.llc_miss_ratio",
            ratio(l.llc.1, l.llc.0 - l.llc.1),
            "ratio",
            "",
        ),
        Row::info(
            "cachesim.ddio_hit_ratio",
            ratio(l.ddio.0, l.ddio.1),
            "ratio",
            "",
        ),
        Row::info(
            "cachesim.mem_bytes",
            l.mem_bytes as f64 / r,
            "count",
            "memory read + write bytes",
        ),
        Row::info(
            "sampler.measured_share",
            l.measured_epochs as f64 / all_epochs,
            "ratio",
            "epochs run at full fidelity",
        ),
        Row::info(
            "sampler.skipped_epochs",
            l.skipped_epochs as f64 / r,
            "count",
            "",
        ),
        Row::info(
            "sampler.phases",
            l.phases_found as f64 / r,
            "count",
            "phases discovered",
        ),
        Row::info(
            "sampler.err_pct",
            err_pct,
            "%",
            "sampled vs exact, worst arm observable",
        ),
        Row::info(
            "runner.checkpoint_restores",
            l.restores as f64 / r,
            "count",
            "",
        ),
        Row::info(
            "runner.longest_job_s",
            l.longest_arm_ns as f64 / 1e9,
            "s",
            "longest arm",
        ),
        Row::info(
            "runner.idle_s",
            l.wall_ns.saturating_sub(l.arm_ns) as f64 / 1e9 / r,
            "s",
            "round time outside arms (checks)",
        ),
        Row::info(
            "trace.overhead_pct",
            overhead_pct,
            "%",
            "traced vs untraced round wall",
        ),
        Row::info(
            "trace.unattributed_pct",
            100.0 * (wall - attributed) / wall.max(1e-9),
            "%",
            "traced wall not in any self-time row",
        ),
    ]);
    rows
}
