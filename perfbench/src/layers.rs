//! Per-layer accounting for traced runs, measured from outside the
//! simulator crates.
//!
//! Three sources, all public:
//!
//! * a delegating [`Workload`] wrapper installed on every tenant
//!   ([`install_wrappers`]) times each `Workload::run` call;
//! * the caller times the public calls it makes itself
//!   (`Platform::step_epoch`, `Monitor::poll`, `LlcPolicy::step`,
//!   `catalog::build`);
//! * the `iat_telemetry::phases` cells the platform and LLC already
//!   fill (warm, measure, fast-warm, restore, flush) are drained into a
//!   thread-local accumulator — around every wrapped `run` call, so LLC
//!   flush time splits into the part nested in workload code and the
//!   part in the platform's DMA and Tx paths.
//!
//! Spans stay in memory in a local `SpanTracer` and are written once,
//! at exit, as the Chrome trace-event JSON that Perfetto loads.

use iat_netsim::VirtualFunction;
use iat_telemetry::phases;
use iat_telemetry::span::SpanTracer;
use iat_workloads::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use serde_json::Value;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phase-cell time drained so far on this thread, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseAcc {
    /// Functional-warmup epoch bodies.
    pub warm: u64,
    /// Cold-start fast-forward at compile time.
    pub fast_warm: u64,
    /// Convergence-checkpoint restores.
    pub restore: u64,
    /// Measured epoch bodies.
    pub measure: u64,
    /// LLC flushes nested inside `Workload::run`.
    pub flush_in_run: u64,
    /// LLC flushes elsewhere (DMA delivery, Tx drain, epoch end).
    pub flush_out: u64,
}

impl PhaseAcc {
    /// All LLC flush time.
    pub fn flush(&self) -> u64 {
        self.flush_in_run + self.flush_out
    }

    /// `self - earlier`, bucket by bucket.
    pub fn since(&self, earlier: &PhaseAcc) -> PhaseAcc {
        PhaseAcc {
            warm: self.warm - earlier.warm,
            fast_warm: self.fast_warm - earlier.fast_warm,
            restore: self.restore - earlier.restore,
            measure: self.measure - earlier.measure,
            flush_in_run: self.flush_in_run - earlier.flush_in_run,
            flush_out: self.flush_out - earlier.flush_out,
        }
    }
}

thread_local! {
    static ACC: Cell<PhaseAcc> = const {
        Cell::new(PhaseAcc {
            warm: 0,
            fast_warm: 0,
            restore: 0,
            measure: 0,
            flush_in_run: 0,
            flush_out: 0,
        })
    };
}

/// Drains the phase cells into the accumulator; flush time goes to the
/// in-run bucket when `in_run`. Returns the flush time drained.
fn drain(in_run: bool) -> u64 {
    let p = phases::take_phases();
    ACC.with(|a| {
        let mut acc = a.get();
        acc.warm += p.warmup_ns;
        acc.fast_warm += p.fast_warm_ns;
        acc.restore += p.restore_ns;
        acc.measure += p.measure_ns;
        if in_run {
            acc.flush_in_run += p.flush_ns;
        } else {
            acc.flush_out += p.flush_ns;
        }
        a.set(acc);
    });
    p.flush_ns
}

/// Drains the phase cells and returns the running totals.
pub fn phase_totals() -> PhaseAcc {
    drain(false);
    ACC.with(Cell::get)
}

/// One tenant's wrapped-`run` tallies, shared with its wrapper.
#[derive(Debug, Default)]
pub struct TenantCell {
    /// Wall time inside `Workload::run`, flush included.
    pub run_ns: AtomicU64,
    /// `Workload::run` calls.
    pub calls: AtomicU64,
    /// LLC flush time nested in this tenant's `run` calls.
    pub flush_ns: AtomicU64,
}

impl TenantCell {
    /// `(run_ns, calls, flush_ns)` right now.
    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.run_ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
            self.flush_ns.load(Ordering::Relaxed),
        )
    }
}

/// Delegates every [`Workload`] method to the wrapped workload and
/// times `run`. Observational: the simulated state is unchanged.
struct Timed {
    inner: Box<dyn Workload>,
    cell: Arc<TenantCell>,
}

impl Workload for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> WorkloadKind {
        self.inner.kind()
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        drain(false);
        let t0 = Instant::now();
        let r = self.inner.run(ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        let flush = drain(true);
        self.cell.run_ns.fetch_add(ns, Ordering::Relaxed);
        self.cell.calls.fetch_add(1, Ordering::Relaxed);
        self.cell.flush_ns.fetch_add(flush, Ordering::Relaxed);
        r
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.inner.metrics()
    }

    fn reset_metrics(&mut self) {
        self.inner.reset_metrics();
    }

    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        self.inner.ports_mut()
    }

    fn channel_ids(&self) -> Vec<iat_workloads::ChannelId> {
        self.inner.channel_ids()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Stands in for a tenant's workload for the instant it is moved into
/// its wrapper; never run.
struct Vacant;

impl Workload for Vacant {
    fn name(&self) -> &str {
        "vacant"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Compute
    }

    fn run(&mut self, _ctx: &mut ExecCtx<'_>) -> ExecResult {
        unreachable!("placeholder workload ran")
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics::default()
    }

    fn reset_metrics(&mut self) {}

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Wraps every tenant's workload in a timing delegate (`Tenant::workload`
/// is public) and returns `(tenant name, tallies)` in registration order.
pub fn install_wrappers(platform: &mut iat_platform::Platform) -> Vec<(String, Arc<TenantCell>)> {
    let ids: Vec<_> = platform.tenants().iter().map(|t| t.id).collect();
    ids.into_iter()
        .map(|id| {
            let t = platform.tenant_mut(id);
            let cell = Arc::new(TenantCell::default());
            let inner = std::mem::replace(&mut t.workload, Box::new(Vacant));
            t.workload = Box::new(Timed {
                inner,
                cell: Arc::clone(&cell),
            });
            (t.name.clone(), cell)
        })
        .collect()
}

/// Records a span of `dur_ns` starting at `start`. Aggregates (a
/// tenant's summed `run` time in one interval, say) are laid out from
/// their parent's start, so Perfetto nests them by time containment.
pub fn span(
    tracer: &SpanTracer,
    cat: &'static str,
    name: &str,
    start: Instant,
    dur_ns: u64,
    args: Value,
) {
    tracer.record(cat, name, start, start + Duration::from_nanos(dur_ns), args);
}

/// One row of the per-layer table.
pub struct Row {
    /// Layer metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the row is a self-time that the reconciliation sums.
    pub self_time: bool,
    /// What the row measures.
    pub note: String,
}

impl Row {
    /// A self-time row in milliseconds.
    pub fn time(name: &str, ms: f64, note: &str) -> Row {
        Row {
            name: name.to_owned(),
            value: ms,
            unit: "ms",
            self_time: true,
            note: note.to_owned(),
        }
    }

    /// Any other row.
    pub fn info(name: &str, value: f64, unit: &'static str, note: &str) -> Row {
        Row {
            name: name.to_owned(),
            value,
            unit,
            self_time: false,
            note: note.to_owned(),
        }
    }
}

/// Renders the per-layer table: self-time rows with their share of the
/// traced wall and the reconciliation line, then every other row.
pub fn render_table(title: &str, wall_ms: f64, rows: &[Row]) -> String {
    let mut out = format!("== per-layer table: {title} ==\n");
    out.push_str(&format!(
        "{:<34} {:>14} {:<6} {:>8}  {}\n",
        "layer", "value", "unit", "share", "what"
    ));
    let mut sum = 0.0;
    for r in rows.iter().filter(|r| r.self_time) {
        sum += r.value;
        out.push_str(&format!(
            "{:<34} {:>14.3} {:<6} {:>7.2}%  {}\n",
            r.name,
            r.value,
            r.unit,
            100.0 * r.value / wall_ms.max(1e-9),
            r.note
        ));
    }
    out.push_str(&format!(
        "{:<34} {:>14.3} {:<6} {:>7.2}%  self-times above vs traced wall {:.3} ms\n",
        "(sum of self-times)",
        sum,
        "ms",
        100.0 * sum / wall_ms.max(1e-9),
        wall_ms
    ));
    for r in rows.iter().filter(|r| !r.self_time) {
        out.push_str(&format!(
            "{:<34} {:>14.4} {:<6} {:>8}  {}\n",
            r.name, r.value, r.unit, "", r.note
        ));
    }
    out
}
