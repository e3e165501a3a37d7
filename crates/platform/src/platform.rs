//! The epoch-driven platform stepper.

use crate::config::PlatformConfig;
use crate::sampler::{EpochAction, Sampler};
use crate::tenant::{Tenant, TenantId};
use iat_cachesim::{Llc, MemoryHierarchy};
use iat_perf::{CounterBank, MonitorSpec, TenantSpec};
use iat_rdt::Rdt;
use iat_telemetry::phases::{self, Phase};
use iat_telemetry::span::{self, SpanTracer};
use iat_telemetry::{Event, Recorder, Stamp};
use iat_workloads::phase;
use serde_json::json;
use std::time::Instant;
use iat_workloads::phase::PhaseBoundary;
use iat_workloads::{Channels, ExecCtx, WorkloadMetrics};
use std::cell::Cell;
use std::collections::BTreeMap;

thread_local! {
    /// Per-thread tally of simulated cache operations, fed by
    /// [`Platform`]'s `Drop`. The bench harness runs each job
    /// synchronously on one worker thread, so draining this at the end
    /// of a job body (via [`take_sim_accesses`]) attributes every
    /// platform the job built — including ones discarded deep inside
    /// sweep helpers — to that job, without threading a counter through
    /// every call chain.
    static SIM_ACCESSES: Cell<u64> = const { Cell::new(0) };
    /// Per-thread tally of epochs fast-forwarded by sampled platforms
    /// (same attribution pattern as [`SIM_ACCESSES`]). A sampled run
    /// that silently fell back to exact execution leaves this at zero —
    /// which is exactly what `repro --sampled` asserts against.
    static SKIPPED_EPOCHS: Cell<u64> = const { Cell::new(0) };
}

/// Drains the calling thread's simulated-access tally (the sum of
/// [`iat_cachesim::MemoryHierarchy::accesses`] over every [`Platform`]
/// dropped on this thread since the last drain). A job that builds
/// platforms should call this exactly once, at the end — leaving the
/// tally undrained leaks the count into the next job scheduled on the
/// same worker thread.
pub fn take_sim_accesses() -> u64 {
    SIM_ACCESSES.with(|c| c.replace(0))
}

/// Drains the calling thread's fast-forwarded-epoch tally (the sum of
/// skipped epochs over every sampled [`Platform`] dropped on this thread
/// since the last drain). Zero after a sampled job means sampling never
/// engaged.
pub fn take_skipped_epochs() -> u64 {
    SKIPPED_EPOCHS.with(|c| c.replace(0))
}

/// What happened during one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Modelled time at the end of the epoch, in nanoseconds.
    pub time_ns: u64,
    /// Packets DMA-delivered into Rx rings this epoch.
    pub packets_delivered: u64,
    /// Packets dropped at full Rx rings this epoch.
    pub packets_dropped: u64,
}

/// The simulated server: hierarchy + RDT + counters + tenants.
///
/// # Example
///
/// ```
/// use iat_platform::{Platform, PlatformConfig, Tenant, TenantId};
/// use iat_cachesim::AgentId;
/// use iat_rdt::ClosId;
/// use iat_workloads::XMem;
///
/// let mut p = Platform::new(PlatformConfig::tiny());
/// p.add_tenant(Tenant {
///     id: TenantId(0),
///     name: "xmem".into(),
///     agent: AgentId::new(0),
///     cores: vec![0],
///     clos: ClosId::new(1),
///     workload: Box::new(XMem::new(0x1000_0000, 8192, 7)),
///     bindings: vec![],
/// });
/// p.run_epochs(5);
/// assert!(p.metrics_of(TenantId(0)).ops > 0);
/// ```
pub struct Platform {
    config: PlatformConfig,
    hierarchy: MemoryHierarchy,
    rdt: Rdt,
    bank: CounterBank,
    channels: Channels,
    tenants: Vec<Tenant>,
    time_ns: u64,
    /// Cumulative per-port drop counts at the last telemetry sweep,
    /// keyed by (tenant, port index), so sweeps emit interval deltas.
    vf_drop_base: BTreeMap<(TenantId, usize), u64>,
    /// Phase-aware interval sampler; `None` runs every epoch exactly.
    sampler: Option<Sampler>,
    /// Whether a functional-warmup epoch ran since the last occupancy
    /// repair (per-agent occupancy is frozen during warm epochs and must
    /// be recounted from the cache contents before measuring).
    occupancy_stale: bool,
    /// [`Rdt::capacity_gen`] as of the last epoch (sampled mode): a bump
    /// means ways were granted/revoked or DDIO was resized, so cache
    /// contents must re-converge before the next measured window.
    last_capacity_gen: u64,
    /// [`Rdt::moved_ways`] at the last capacity-baseline sync; the delta
    /// across a capacity event is how many ways changed hands, which
    /// scales the re-convergence budget.
    moved_base: u64,
    /// Whether any epoch has executed: capacity-mask programming during
    /// scenario *setup* is part of the initial state (covered by
    /// `cold_start_epochs`), not a mid-run capacity event.
    epochs_started: bool,
    /// The global span tracer, cached at construction (disabled unless
    /// `repro --trace-out` installed one before this platform was built).
    tracer: SpanTracer,
    /// The open epoch-action segment, if tracing. One span is emitted
    /// per contiguous run of same-action epochs (capped at one sampling
    /// interval), not per epoch — million-epoch sweeps would otherwise
    /// drown the trace.
    seg: Option<EpochSegment>,
}

/// An open span over a contiguous run of same-action epochs.
struct EpochSegment {
    /// "epoch.skip", "epoch.warm", or "epoch.measure".
    name: &'static str,
    start: Instant,
    /// Modelled time when the segment opened.
    vt_start_ns: u64,
    epochs: u64,
}

impl Drop for Platform {
    fn drop(&mut self) {
        SIM_ACCESSES.with(|c| c.set(c.get() + self.hierarchy.accesses()));
        if let Some(s) = &self.sampler {
            SKIPPED_EPOCHS.with(|c| c.set(c.get() + s.skipped_epochs()));
        }
        self.flush_segment();
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("config", &self.config)
            .field("tenants", &self.tenants)
            .field("time_ns", &self.time_ns)
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Creates an empty platform. If the calling thread opted into
    /// sampled execution (see
    /// [`iat_cachesim::config::set_thread_sampling`]), the platform runs
    /// the phase-aware interval sampler; otherwise every epoch is
    /// simulated exactly.
    pub fn new(config: PlatformConfig) -> Self {
        let sampler = iat_cachesim::config::thread_sampling().map(|spec| {
            phase::reset_thread();
            Sampler::new(spec, (1_000_000_000 / config.epoch_ns).max(1))
        });
        Platform {
            config,
            hierarchy: MemoryHierarchy::new(config.llc, config.l2, config.cores, config.latency),
            rdt: Rdt::new(config.llc.ways(), config.cores),
            bank: CounterBank::new(config.cores),
            channels: Channels::new(),
            tenants: Vec::new(),
            time_ns: 0,
            vf_drop_base: BTreeMap::new(),
            sampler,
            occupancy_stale: false,
            last_capacity_gen: 0,
            moved_base: 0,
            epochs_started: false,
            tracer: span::global(),
            seg: None,
        }
    }

    /// Closes the open epoch-action segment, emitting its span.
    fn flush_segment(&mut self) {
        if let Some(seg) = self.seg.take() {
            self.tracer.record(
                "epoch",
                seg.name,
                seg.start,
                Instant::now(),
                json!({
                    "epochs": seg.epochs,
                    "vt_start_ns": seg.vt_start_ns,
                    "vt_end_ns": self.time_ns,
                }),
            );
        }
    }

    /// Accounts one epoch of `action` to the open segment, closing it
    /// first on an action change or after a full sampling interval.
    fn segment_epoch(&mut self, name: &'static str) {
        let cap = self.sampling_interval_len();
        if self.seg.as_ref().is_some_and(|s| s.name != name || s.epochs >= cap) {
            self.flush_segment();
        }
        let vt = self.time_ns;
        self.seg
            .get_or_insert_with(|| EpochSegment {
                name,
                start: Instant::now(),
                vt_start_ns: vt,
                epochs: 0,
            })
            .epochs += 1;
    }

    /// The configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Registers a tenant.
    ///
    /// # Panics
    ///
    /// Panics if the tenant's id or agent collides with an existing one, or
    /// if a core index is out of range.
    pub fn add_tenant(&mut self, tenant: Tenant) {
        assert!(
            self.tenants.iter().all(|t| t.id != tenant.id),
            "duplicate tenant id {}",
            tenant.id
        );
        assert!(
            self.tenants.iter().all(|t| t.agent != tenant.agent),
            "duplicate agent {}",
            tenant.agent
        );
        for &c in &tenant.cores {
            assert!(c < self.config.cores, "core {c} out of range");
        }
        self.tenants.push(tenant);
    }

    /// Removes a tenant, returning it (tenant departure).
    ///
    /// # Panics
    ///
    /// Panics if no such tenant exists.
    pub fn remove_tenant(&mut self, id: TenantId) -> Tenant {
        let idx = self
            .tenants
            .iter()
            .position(|t| t.id == id)
            .unwrap_or_else(|| panic!("no tenant {id}"));
        self.tenants.remove(idx)
    }

    /// Immutable access to a tenant.
    ///
    /// # Panics
    ///
    /// Panics if no such tenant exists.
    pub fn tenant(&self, id: TenantId) -> &Tenant {
        self.tenants.iter().find(|t| t.id == id).unwrap_or_else(|| panic!("no tenant {id}"))
    }

    /// Mutable access to a tenant.
    ///
    /// # Panics
    ///
    /// Panics if no such tenant exists.
    pub fn tenant_mut(&mut self, id: TenantId) -> &mut Tenant {
        self.tenants.iter_mut().find(|t| t.id == id).unwrap_or_else(|| panic!("no tenant {id}"))
    }

    /// All tenants, in registration order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The shared LLC.
    pub fn llc(&self) -> &Llc {
        self.hierarchy.llc()
    }

    /// The memory hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Mutable memory hierarchy (for substrate-level experiment setup).
    pub fn hierarchy_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.hierarchy
    }

    /// The per-core counter bank.
    pub fn bank(&self) -> &CounterBank {
        &self.bank
    }

    /// The RDT register file.
    pub fn rdt(&self) -> &Rdt {
        &self.rdt
    }

    /// Mutable RDT register file (the management plane: IAT or a baseline).
    pub fn rdt_mut(&mut self) -> &mut Rdt {
        &mut self.rdt
    }

    /// The inter-workload channels.
    pub fn channels(&self) -> &Channels {
        &self.channels
    }

    /// Mutable channels (for scenario wiring).
    pub fn channels_mut(&mut self) -> &mut Channels {
        &mut self.channels
    }

    /// Modelled time in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        self.time_ns
    }

    /// Modelled time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_ns as f64 / 1e9
    }

    /// A monitor spec covering all tenants, in registration order.
    pub fn monitor_spec(&self) -> MonitorSpec {
        MonitorSpec {
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantSpec { agent: t.agent, cores: t.cores.clone() })
                .collect(),
        }
    }

    /// Application metrics of one tenant's workload.
    ///
    /// # Panics
    ///
    /// Panics if no such tenant exists.
    pub fn metrics_of(&self, id: TenantId) -> WorkloadMetrics {
        self.tenant(id).workload.metrics()
    }

    /// Advances the platform by one epoch.
    ///
    /// In exact mode (no thread sampling opt-in) every epoch is simulated
    /// at full fidelity. In sampled mode the per-interval schedule decides
    /// whether this epoch is fast-forwarded, run as functional warmup
    /// (tag/ring/workload state updates, statistics frozen, no modelled
    /// time), or measured normally. Only measured epochs advance
    /// [`Platform::time_ns`], so every rate computed against modelled time
    /// remains unbiased under sampling.
    pub fn step_epoch(&mut self) -> EpochReport {
        if self.sampler.is_some() {
            // Poll for capacity events (ways granted/revoked, DDIO
            // resized) since the previous epoch. Mask writes made during
            // scenario setup — before any epoch ran — are initial state,
            // already covered by the cold-start warmup.
            let gen = self.rdt.capacity_gen();
            if gen != self.last_capacity_gen {
                self.last_capacity_gen = gen;
                let moved = self.rdt.moved_ways().saturating_sub(self.moved_base);
                self.moved_base = self.rdt.moved_ways();
                if self.epochs_started {
                    // Re-converge in proportion to the event: moving 2 of
                    // 11 ways invalidates ~2/11 of the residency, not all
                    // of it. The flat budget remains the ceiling.
                    self.sampler
                        .as_mut()
                        .expect("checked")
                        .force_reconverge_scaled(moved, self.rdt.ways() as u64);
                }
            }
            self.epochs_started = true;
        }
        let action = match &mut self.sampler {
            None => EpochAction::Measure,
            Some(s) => {
                let (refs, misses) = {
                    let st = self.hierarchy.llc().stats();
                    let mut r = (0u64, 0u64);
                    for (_, a) in st.agents() {
                        r.0 += a.references;
                        r.1 += a.misses;
                    }
                    r
                };
                s.begin_epoch(refs, misses)
            }
        };
        if self.tracer.enabled() {
            self.segment_epoch(match action {
                EpochAction::Skip => "epoch.skip",
                EpochAction::Warm => "epoch.warm",
                EpochAction::Measure => "epoch.measure",
            });
        }
        let report = match action {
            EpochAction::Skip => {
                EpochReport { time_ns: self.time_ns, ..EpochReport::default() }
            }
            EpochAction::Warm => {
                let t0 = Instant::now();
                self.warm_epoch_body();
                phases::phase_add(Phase::Warmup, t0.elapsed().as_nanos() as u64);
                EpochReport { time_ns: self.time_ns, ..EpochReport::default() }
            }
            EpochAction::Measure => {
                let t0 = Instant::now();
                let observe = self.sampler.is_some();
                if observe {
                    if self.occupancy_stale {
                        // Warm epochs froze per-agent occupancy while the
                        // cache body kept evolving; recount from contents
                        // so the measured window starts (and stays) exact.
                        let _span = self
                            .tracer
                            .enabled()
                            .then(|| self.tracer.begin("epoch", "repair_occupancy"));
                        self.hierarchy.repair_occupancy();
                        self.occupancy_stale = false;
                    }
                    phase::set_observing(true);
                }
                let r = self.exec_epoch(true);
                if observe {
                    phase::set_observing(false);
                }
                phases::phase_add(Phase::Measure, t0.elapsed().as_nanos() as u64);
                r
            }
        };
        if self.sampler.is_some() {
            let (refs, misses) = {
                let st = self.hierarchy.llc().stats();
                let mut r = (0u64, 0u64);
                for (_, a) in st.agents() {
                    r.0 += a.references;
                    r.1 += a.misses;
                }
                r
            };
            if let Some(s) = &mut self.sampler {
                s.end_epoch(refs, misses);
            }
        }
        report
    }

    /// One functional-warmup epoch: full execution with statistics frozen
    /// and no modelled-time advance. Shared by the in-schedule warm arm
    /// and the cold-start fast-forward.
    fn warm_epoch_body(&mut self) {
        self.hierarchy.set_stats_frozen(true);
        phase::set_observing(true);
        self.exec_epoch(false);
        phase::set_observing(false);
        self.hierarchy.set_stats_frozen(false);
        self.occupancy_stale = true;
    }

    /// Re-baselines capacity-event tracking to the register file's current
    /// state, so mask writes made so far read as initial state rather than
    /// mid-run capacity events.
    fn sync_capacity_baseline(&mut self) {
        self.last_capacity_gen = self.rdt.capacity_gen();
        self.moved_base = self.rdt.moved_ways();
    }

    /// Runs the owed cold-start warmup *now*, outside the interval
    /// schedule: while the sampler owes forced-warm epochs
    /// (`cold_start_epochs` at construction), each runs as a functional
    /// warm epoch body back to back. Afterwards the interval schedule
    /// starts in the converged regime — skip positions genuinely skip
    /// instead of paying warm debt across the early intervals — and the
    /// hierarchy holds exactly the converged state a checkpoint should
    /// snapshot. Time is tallied under `Phase::FastWarm`. No-op in exact
    /// mode or when nothing is owed.
    pub fn fast_forward_cold_start(&mut self) {
        let owed = match self.sampler.as_mut() {
            Some(s) => s.take_forced_warm(),
            None => return,
        };
        if owed > 0 {
            let t0 = Instant::now();
            let tracer = self.tracer.clone();
            let _span = tracer.enabled().then(|| tracer.begin("epoch", "fast_warm"));
            for _ in 0..owed {
                self.warm_epoch_body();
            }
            phases::phase_add(Phase::FastWarm, t0.elapsed().as_nanos() as u64);
            if let Some(s) = &mut self.sampler {
                s.assume_stable();
            }
        }
        self.sync_capacity_baseline();
    }

    /// Replaces the memory hierarchy with a convergence-checkpoint
    /// snapshot (taken by a sibling scenario after its cold-start
    /// fast-forward) and re-arms `warm_epochs` of forced warmup — the
    /// caller scales that debt by how far the snapshot's RDT layout is
    /// from this scenario's (zero when only way *positions* differ,
    /// mirroring [`Rdt::capacity_gen`]'s doctrine that relocations migrate
    /// lines gradually). Occupancy is marked stale so the first measured
    /// epoch recounts it from the restored contents. Time is tallied
    /// under `Phase::Restore`.
    pub fn restore_checkpoint(&mut self, snapshot: &MemoryHierarchy, warm_epochs: u64) {
        let t0 = Instant::now();
        self.hierarchy = snapshot.clone();
        if let Some(s) = &mut self.sampler {
            s.set_forced_warm(warm_epochs);
            s.assume_stable();
        }
        self.occupancy_stale = true;
        self.sync_capacity_baseline();
        phases::phase_add(Phase::Restore, t0.elapsed().as_nanos() as u64);
    }

    /// The epoch body: runs in [`PlatformConfig::chunks`] sub-slices, each
    /// delivering a fraction of the epoch's traffic, running every tenant
    /// core for a fraction of its budget, then draining Tx rings. The
    /// chunking interleaves producer (DMA) and consumer (core) at finer
    /// than epoch granularity, so ring-depth effects (drops, backlog) are
    /// governed by sustained rates rather than epoch-sized bursts.
    ///
    /// With `measured` false (a warmup epoch) the hardware counter bank
    /// does not retire, NIC drop counters are restored after delivery
    /// (so drop totals stay measured-only), and modelled time does not
    /// advance.
    fn exec_epoch(&mut self, measured: bool) -> EpochReport {
        let chunks = self.config.chunks.max(1) as u64;
        let dt = self.config.scaled_epoch_ns() / chunks;
        let budget = self.config.cycle_budget() / chunks;
        let mut delivered = 0u64;
        let mut dropped = 0u64;

        for _ in 0..chunks {
            let ddio = self.rdt.ddio_mask();

            // Phase 1: inbound DMA through DDIO.
            for t in &mut self.tenants {
                for b in &mut t.bindings {
                    let batch = b.gen.generate(dt);
                    let ports = t.workload.ports_mut();
                    assert!(b.port < ports.len(), "binding port out of range");
                    let port = &mut ports[b.port];
                    let before_drops = port.dma.rx_dropped;
                    let accepted =
                        port.dma.rx_batch(&mut self.hierarchy, ddio, &mut port.rx, &batch) as u64;
                    delivered += accepted;
                    dropped += port.dma.rx_dropped - before_drops;
                    if !measured {
                        // Warmup delivery must not inflate cumulative
                        // drop counters (they extrapolate from measured
                        // epochs only); the ring state itself keeps the
                        // warmed backlog.
                        port.dma.rx_dropped = before_drops;
                    }
                }
            }

            // Phase 2: tenant cores execute.
            for t in &mut self.tenants {
                let mask = self.rdt.clos_mask(t.clos);
                for &core in &t.cores {
                    let mut ctx = ExecCtx {
                        cache: &mut self.hierarchy,
                        channels: &mut self.channels,
                        core,
                        agent: t.agent,
                        mask,
                        cycle_budget: budget,
                    };
                    let r = t.workload.run(&mut ctx);
                    // Cores never halt (busy polling / continuous
                    // compute): the full budget elapses as cycles.
                    if measured {
                        self.bank.retire(core, r.instructions, budget);
                    }
                }
            }

            // Phase 3: devices drain Tx rings.
            for t in &mut self.tenants {
                for port in t.workload.ports_mut() {
                    port.dma.tx_drain(&mut self.hierarchy, &mut port.tx, usize::MAX);
                }
            }
        }

        if measured {
            self.time_ns += self.config.epoch_ns;
        }
        EpochReport { time_ns: self.time_ns, packets_delivered: delivered, packets_dropped: dropped }
    }

    /// Runs `n` epochs, returning the aggregate of the per-epoch reports.
    pub fn run_epochs(&mut self, n: usize) -> EpochReport {
        let mut agg = EpochReport::default();
        for _ in 0..n {
            let r = self.step_epoch();
            agg.time_ns = r.time_ns;
            agg.packets_delivered += r.packets_delivered;
            agg.packets_dropped += r.packets_dropped;
        }
        agg
    }

    /// Resets every tenant workload's application metrics (between
    /// experiment phases; the hardware counters stay cumulative, as real
    /// counters would).
    pub fn reset_metrics(&mut self) {
        for t in &mut self.tenants {
            t.workload.reset_metrics();
        }
    }

    /// Epochs per modelled second.
    pub fn epochs_per_second(&self) -> usize {
        (1_000_000_000 / self.config.epoch_ns) as usize
    }

    /// Whether this platform runs the phase-aware interval sampler.
    pub fn sampled(&self) -> bool {
        self.sampler.is_some()
    }

    /// Cumulative epochs simulated at full fidelity. In exact mode this
    /// is not tracked (every epoch is measured) and `None` is returned.
    pub fn measured_epochs(&self) -> Option<u64> {
        self.sampler.as_ref().map(|s| s.measured_epochs())
    }

    /// Cumulative fast-forwarded epochs (zero in exact mode).
    pub fn skipped_epochs(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.skipped_epochs())
    }

    /// Epochs per sampling interval (exact mode: the nominal
    /// epochs-per-second interval).
    pub fn sampling_interval_len(&self) -> u64 {
        self.sampler
            .as_ref()
            .map_or(self.epochs_per_second() as u64, |s| s.interval_len())
    }

    /// Distinct phases the sampler has discovered (zero in exact mode).
    pub fn phase_count(&self) -> usize {
        self.sampler.as_ref().map_or(0, |s| s.phase_count())
    }

    /// Drains phase-boundary records detected since the last drain
    /// (always empty in exact mode).
    pub fn take_phase_boundaries(&mut self) -> Vec<PhaseBoundary> {
        self.sampler.as_mut().map(|s| s.take_boundaries()).unwrap_or_default()
    }

    /// One NIC telemetry sweep: emits, for every VF port of every
    /// tenant, an [`Event::RingOccupancy`] carrying the Rx ring's *peak*
    /// backlog since the previous sweep (then re-bases the tracker), and
    /// an [`Event::NicDrop`] when packets were dropped since the
    /// previous sweep. With a disabled recorder nothing is read or
    /// reset, so untraced runs are unaffected.
    pub fn sweep_nic_telemetry(&mut self, stamp: Stamp, rec: &mut dyn Recorder) {
        if !rec.enabled() {
            return;
        }
        for t in &mut self.tenants {
            for (pi, port) in t.workload.ports_mut().iter_mut().enumerate() {
                let vf = port.id().0 as u16;
                rec.record(Event::RingOccupancy {
                    stamp,
                    vf,
                    len: port.rx.high_water() as u32,
                    capacity: port.rx.capacity() as u32,
                });
                port.rx.reset_high_water();
                let dropped = port.dma.rx_dropped;
                let base = self.vf_drop_base.insert((t.id, pi), dropped).unwrap_or(0);
                if dropped > base {
                    rec.record(Event::NicDrop { stamp, vf, dropped: dropped - base });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iat_cachesim::AgentId;
    use iat_netsim::{FlowDist, FlowId, Nic, TrafficGen, TrafficPattern, VfId};
    use iat_rdt::ClosId;
    use iat_workloads::{TestPmd, XMem};

    fn xmem_tenant(id: u16, core: usize, clos: u8) -> Tenant {
        Tenant {
            id: TenantId(id),
            name: format!("xmem{id}"),
            agent: AgentId::new(id),
            cores: vec![core],
            clos: ClosId::new(clos),
            workload: Box::new(XMem::new(0x1000_0000 + id as u64 * 0x100_0000, 8192, 7 + id as u64)),
            bindings: vec![],
        }
    }

    #[test]
    fn compute_tenant_progresses() {
        let mut p = Platform::new(PlatformConfig::tiny());
        p.add_tenant(xmem_tenant(0, 0, 1));
        p.run_epochs(10);
        assert!(p.metrics_of(TenantId(0)).ops > 0);
        assert!(p.bank().core(0).instructions > 0);
        assert_eq!(p.time_ns(), 10 * p.config().epoch_ns);
    }

    #[test]
    fn networking_tenant_forwards_traffic() {
        let mut p = Platform::new(PlatformConfig::tiny());
        let mut nic = Nic::new(0x4000_0000, 1, 64, 2048);
        let pmd = TestPmd::new(nic.vf_mut(VfId(0)).clone());
        let gen = TrafficGen::new(
            1_000_000_000, // 1 Gb/s, well within one tiny core
            64,
            FlowDist::Single(FlowId(0)),
            TrafficPattern::Constant,
            42,
        );
        p.add_tenant(Tenant {
            id: TenantId(0),
            name: "pmd".into(),
            agent: AgentId::new(0),
            cores: vec![0],
            clos: ClosId::new(1),
            workload: Box::new(pmd),
            bindings: vec![crate::TrafficBinding { port: 0, gen }],
        });
        let rep = p.run_epochs(20);
        assert!(rep.packets_delivered > 0, "traffic must flow");
        assert_eq!(rep.packets_dropped, 0, "1 Gb/s must not overload the core");
        let m = p.metrics_of(TenantId(0));
        assert!(m.ops > 0, "testpmd must forward");
        // DDIO counters saw the DMA.
        let st = p.llc().stats();
        assert!(st.ddio_hits() + st.ddio_misses() > 0);
    }

    #[test]
    fn cat_mask_is_applied_each_epoch() {
        let mut p = Platform::new(PlatformConfig::tiny());
        p.add_tenant(xmem_tenant(0, 0, 1));
        // Restrict the tenant to one way; its misses should exceed the
        // all-ways case for an LLC-sized working set.
        p.rdt_mut()
            .set_clos_mask(ClosId::new(1), iat_cachesim::WayMask::single(0))
            .unwrap();
        p.run_epochs(20);
        let restricted = p.llc().stats().agent(AgentId::new(0)).miss_rate();

        let mut p2 = Platform::new(PlatformConfig::tiny());
        p2.add_tenant(xmem_tenant(0, 0, 1));
        p2.rdt_mut()
            .set_clos_mask(ClosId::new(1), iat_cachesim::WayMask::all(4))
            .unwrap();
        p2.run_epochs(20);
        let open = p2.llc().stats().agent(AgentId::new(0)).miss_rate();
        assert!(
            restricted > open,
            "1-way miss rate {restricted} should exceed 4-way {open}"
        );
    }

    #[test]
    fn duplicate_tenant_rejected() {
        let mut p = Platform::new(PlatformConfig::tiny());
        p.add_tenant(xmem_tenant(0, 0, 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.add_tenant(xmem_tenant(0, 1, 2));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn remove_tenant() {
        let mut p = Platform::new(PlatformConfig::tiny());
        p.add_tenant(xmem_tenant(0, 0, 1));
        p.add_tenant(xmem_tenant(1, 1, 2));
        let t = p.remove_tenant(TenantId(0));
        assert_eq!(t.id, TenantId(0));
        assert_eq!(p.tenants().len(), 1);
    }

    #[test]
    fn sampled_platform_fast_forwards_but_stays_functional() {
        iat_cachesim::config::set_thread_sampling(Some(
            iat_cachesim::config::SamplingLevel::Standard.spec(),
        ));
        let mut p = Platform::new(PlatformConfig::tiny());
        iat_cachesim::config::set_thread_sampling(None);
        assert!(p.sampled());
        p.add_tenant(xmem_tenant(0, 0, 1));
        let interval = p.sampling_interval_len() as usize;
        p.run_epochs(interval);
        let measured = p.measured_epochs().expect("sampled");
        assert!(measured > 0, "some epochs must be measured");
        assert!(p.skipped_epochs() > 0, "some epochs must fast-forward");
        assert!(measured + p.skipped_epochs() < interval as u64, "warm epochs exist");
        // Only measured epochs advance modelled time.
        assert_eq!(p.time_ns(), measured * p.config().epoch_ns);
        // The workload still progressed, and only during measured epochs.
        assert!(p.metrics_of(TenantId(0)).ops > 0);
        drop(p);
        assert!(take_skipped_epochs() > 0, "drop must publish the skip tally");
        assert_eq!(take_skipped_epochs(), 0, "drain must reset");
    }

    #[test]
    fn exact_platform_reports_no_sampling() {
        let mut p = Platform::new(PlatformConfig::tiny());
        assert!(!p.sampled());
        p.add_tenant(xmem_tenant(0, 0, 1));
        p.run_epochs(5);
        assert_eq!(p.measured_epochs(), None);
        assert_eq!(p.skipped_epochs(), 0);
        assert!(p.take_phase_boundaries().is_empty());
    }

    #[test]
    fn traced_platform_emits_epoch_segment_spans() {
        // Installing the global tracer is irreversible in-process; other
        // tests in this binary just record a few extra spans, which none
        // of them observe.
        let tracer = span::install_global();
        let before = tracer.len();
        let mut p = Platform::new(PlatformConfig::tiny());
        p.add_tenant(xmem_tenant(0, 0, 1));
        // Line-rate 1500 B traffic: each chunk's DMA burst flushes far
        // more than FLUSH_TIMING_MIN_OPS lines, so the LLC lane shows.
        let mut nic = Nic::new(0x4000_0000, 1, 256, 2048);
        let pmd = TestPmd::new(nic.vf_mut(VfId(0)).clone());
        let gen = TrafficGen::new(
            100_000_000_000,
            1500,
            FlowDist::Single(FlowId(0)),
            TrafficPattern::Constant,
            42,
        );
        p.add_tenant(Tenant {
            id: TenantId(1),
            name: "pmd".into(),
            agent: AgentId::new(1),
            cores: vec![1],
            clos: ClosId::new(1),
            workload: Box::new(pmd),
            bindings: vec![crate::TrafficBinding { port: 0, gen }],
        });
        p.run_epochs(5);
        drop(p); // flushes the open segment
        assert!(tracer.len() > before, "epoch segments must be recorded");
        let trace = tracer.export_chrome_trace().expect("enabled tracer exports");
        assert!(trace.contains("epoch.measure"), "measure segment span missing:\n{trace}");
        assert!(trace.contains("vt_end_ns"), "segment spans must carry virtual time");
        assert!(trace.contains("\"llc.flush\""), "llc.flush span missing:\n{trace}");
        assert!(trace.contains("\"ops\""), "llc.flush spans must carry their op count");
    }

    #[test]
    fn monitor_spec_covers_tenants() {
        let mut p = Platform::new(PlatformConfig::tiny());
        p.add_tenant(xmem_tenant(0, 0, 1));
        p.add_tenant(xmem_tenant(1, 1, 2));
        let spec = p.monitor_spec();
        assert_eq!(spec.tenants.len(), 2);
        assert_eq!(spec.tenants[1].cores, vec![1]);
    }
}
