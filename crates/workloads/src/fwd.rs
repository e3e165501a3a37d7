//! DPDK-style forwarding microbenchmarks: `testpmd` and `l3fwd`.

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::latency::LatencySampler;
use crate::region::HashRegion;
use crate::window::AccessWindow;
use iat_netsim::{PacketSlot, VirtualFunction};

/// Cycles per iteration of an empty DPDK poll loop.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;

/// Burns leftover budget as busy polling (DPDK cores never sleep) and
/// returns the instructions retired while spinning.
fn busy_poll(budget_left: u64) -> (u64, u64) {
    let iters = budget_left / POLL_CYCLES;
    (iters * POLL_INSTR, iters * POLL_CYCLES)
}

/// `testpmd` in io-forward mode: bounce every received packet back out,
/// zero-copy (paper Sec. VI-B, the Leaky DMA microbenchmark's tenant).
///
/// May terminate several VFs (the paper's Fig. 10 PC pair drives one VF
/// per NIC); ports are served round-robin.
#[derive(Debug, Clone)]
pub struct TestPmd {
    ports: Vec<VirtualFunction>,
    forwarded: u64,
    latency: LatencySampler,
    win: AccessWindow,
}

/// Base per-packet cost of the bounce (mbuf handling, descriptor churn).
const TESTPMD_PKT_CYCLES: u64 = 75;
/// Instructions per bounced packet.
const TESTPMD_PKT_INSTR: u64 = 160;

impl TestPmd {
    /// Creates a `testpmd` instance terminating `vf`.
    pub fn new(vf: VirtualFunction) -> Self {
        Self::with_ports(vec![vf])
    }

    /// Creates a `testpmd` instance terminating several VFs.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty.
    pub fn with_ports(ports: Vec<VirtualFunction>) -> Self {
        assert!(!ports.is_empty(), "testpmd needs at least one port");
        TestPmd {
            ports,
            forwarded: 0,
            latency: LatencySampler::new(0x7e57),
            win: AccessWindow::default(),
        }
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl Workload for TestPmd {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "testpmd"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        if !ctx.batching() {
            // Serial reference oracle (`--slice-workers 0`).
            while used < ctx.cycle_budget {
                let mut progress = false;
                for p in 0..self.ports.len() {
                    if used >= ctx.cycle_budget {
                        break;
                    }
                    let port = &mut self.ports[p];
                    let Some((idx, slot)) = port.rx.pop() else { continue };
                    progress = true;
                    let mut cost = TESTPMD_PKT_CYCLES;
                    // Read the Rx descriptor and the packet header line.
                    cost += ctx.read(port.rx.desc_addr(idx)) as u64;
                    let buf = port.rx.buf_addr(idx);
                    cost += ctx.read(buf) as u64;
                    // Re-post zero-copy for Tx: write the Tx descriptor.
                    let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
                    let port = &mut self.ports[p];
                    if let Some(tx_idx) = port.tx.push(tx_slot) {
                        cost += ctx.write(port.tx.desc_addr(tx_idx)) as u64;
                        if accrue {
                            self.forwarded += 1;
                        }
                    }
                    used += cost;
                    instructions += TESTPMD_PKT_INSTR;
                    if accrue {
                        self.latency.record(cost);
                    }
                }
                if !progress {
                    let (i, c) = busy_poll(ctx.cycle_budget - used);
                    instructions += i;
                    used += c;
                    break;
                }
            }
            return ExecResult { instructions, cycles_used: used.min(ctx.cycle_budget) };
        }
        // Batched path: ring pops, Tx pushes and forward counts do not
        // depend on access costs, so packets enqueue into the window until
        // a budget decision is no longer certain from the upper bound; the
        // flush then resolves pending accesses in one slice-bucketed batch
        // and the exact (serial-identical) decision is taken. See
        // `window.rs` for the argument.
        let budget = ctx.cycle_budget;
        let max_access = ctx.max_access_cycles() as u64;
        let mut win = std::mem::take(&mut self.win);
        'outer: loop {
            if win.upper_bound(used, max_access) >= budget {
                win.flush(ctx, &mut used, &mut self.latency);
                if used >= budget {
                    break;
                }
            }
            let mut progress = false;
            for p in 0..self.ports.len() {
                if win.upper_bound(used, max_access) >= budget {
                    win.flush(ctx, &mut used, &mut self.latency);
                    if used >= budget {
                        // The serial loop breaks the port scan here and its
                        // outer `while` then exits (a mid-scan stop implies
                        // a packet was processed, so `progress` was true).
                        break 'outer;
                    }
                }
                let port = &mut self.ports[p];
                let Some((idx, slot)) = port.rx.pop() else { continue };
                progress = true;
                win.begin_item(TESTPMD_PKT_CYCLES);
                win.read(port.rx.desc_addr(idx));
                let buf = port.rx.buf_addr(idx);
                win.read(buf);
                let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
                if let Some(tx_idx) = port.tx.push(tx_slot) {
                    win.write(port.tx.desc_addr(tx_idx));
                    if accrue {
                        self.forwarded += 1;
                    }
                }
                win.end_item();
                instructions += TESTPMD_PKT_INSTR;
            }
            if !progress {
                // Stragglers must resolve before sizing the spin.
                win.flush(ctx, &mut used, &mut self.latency);
                let (i, c) = busy_poll(budget - used);
                instructions += i;
                used += c;
                break;
            }
        }
        self.win = win;
        ExecResult { instructions, cycles_used: used.min(budget) }
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics {
            ops: self.forwarded,
            avg_op_cycles: self.latency.mean(),
            p99_op_cycles: self.latency.percentile(0.99),
            drops: self.ports.iter().map(|p| p.rx.drops() + p.tx.drops()).sum(),
        }
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.latency.reset();
        for p in &mut self.ports {
            p.rx.reset_drops();
        }
    }

    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        &mut self.ports
    }
}

/// `l3fwd`: looks each packet's header up in a flow table and forwards on a
/// match (the paper's Fig. 3 workload, with a 1M-flow table "to emulate
/// real traffic").
#[derive(Debug, Clone)]
pub struct L3Fwd {
    vf: VirtualFunction,
    table: HashRegion,
    forwarded: u64,
    latency: LatencySampler,
    win: AccessWindow,
}

/// Base per-packet cost (parse, hash, rewrite, descriptor churn).
const L3FWD_PKT_CYCLES: u64 = 120;
/// Instructions per forwarded packet.
const L3FWD_PKT_INSTR: u64 = 260;

impl L3Fwd {
    /// Creates an `l3fwd` instance terminating `vf`, with its flow table in
    /// `table` (typically one line per entry, 1M entries).
    pub fn new(vf: VirtualFunction, table: HashRegion) -> Self {
        L3Fwd {
            vf,
            table,
            forwarded: 0,
            latency: LatencySampler::new(0x13f),
            win: AccessWindow::default(),
        }
    }

    /// The flow table region.
    pub fn table(&self) -> &HashRegion {
        &self.table
    }
}

impl Workload for L3Fwd {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "l3fwd"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        if !ctx.batching() {
            // Serial reference oracle (`--slice-workers 0`).
            while used < ctx.cycle_budget {
                let Some((idx, slot)) = self.vf.rx.pop() else {
                    let (i, c) = busy_poll(ctx.cycle_budget - used);
                    instructions += i;
                    used += c;
                    break;
                };
                let mut cost = L3FWD_PKT_CYCLES;
                cost += ctx.read(self.vf.rx.desc_addr(idx)) as u64;
                let buf = self.vf.rx.buf_addr(idx);
                // Parse the header, look the flow up, rewrite the header.
                cost += ctx.read(buf) as u64;
                cost += ctx.read(self.table.entry_line(slot.flow.0 as u64, 0)) as u64;
                cost += ctx.write(buf) as u64;
                let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
                if let Some(tx_idx) = self.vf.tx.push(tx_slot) {
                    cost += ctx.write(self.vf.tx.desc_addr(tx_idx)) as u64;
                    if accrue {
                        self.forwarded += 1;
                    }
                }
                used += cost;
                instructions += L3FWD_PKT_INSTR;
                if accrue {
                    self.latency.record(cost);
                }
            }
            return ExecResult { instructions, cycles_used: used.min(ctx.cycle_budget) };
        }
        // Batched path — same certain-bound-or-flush protocol as TestPmd.
        let budget = ctx.cycle_budget;
        let max_access = ctx.max_access_cycles() as u64;
        let mut win = std::mem::take(&mut self.win);
        loop {
            if win.upper_bound(used, max_access) >= budget {
                win.flush(ctx, &mut used, &mut self.latency);
                if used >= budget {
                    break;
                }
            }
            let Some((idx, slot)) = self.vf.rx.pop() else {
                win.flush(ctx, &mut used, &mut self.latency);
                let (i, c) = busy_poll(budget - used);
                instructions += i;
                used += c;
                break;
            };
            win.begin_item(L3FWD_PKT_CYCLES);
            win.read(self.vf.rx.desc_addr(idx));
            let buf = self.vf.rx.buf_addr(idx);
            win.read(buf);
            win.read(self.table.entry_line(slot.flow.0 as u64, 0));
            win.write(buf);
            let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
            if let Some(tx_idx) = self.vf.tx.push(tx_slot) {
                win.write(self.vf.tx.desc_addr(tx_idx));
                if accrue {
                    self.forwarded += 1;
                }
            }
            win.end_item();
            instructions += L3FWD_PKT_INSTR;
        }
        self.win = win;
        ExecResult { instructions, cycles_used: used.min(budget) }
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics {
            ops: self.forwarded,
            avg_op_cycles: self.latency.mean(),
            p99_op_cycles: self.latency.percentile(0.99),
            drops: self.vf.rx.drops() + self.vf.tx.drops(),
        }
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.latency.reset();
        self.vf.rx.reset_drops();
    }

    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        std::slice::from_mut(&mut self.vf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Channels;
    use iat_cachesim::{AgentId, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, Nic, VfId};

    fn vf() -> VirtualFunction {
        let mut nic = Nic::new(0x4000_0000, 1, 64, 2048);
        nic.vf_mut(VfId(0)).clone()
    }

    fn run<W: Workload>(h: &mut MemoryHierarchy, w: &mut W, budget: u64) -> ExecResult {
        let mut ch = Channels::new();
        let mut ctx = ExecCtx {
            cache: h,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: budget,
        };
        w.run(&mut ctx)
    }

    fn deliver(h: &mut MemoryHierarchy, w: &mut dyn Workload, n: usize, size: u32) {
        let ddio = WayMask::contiguous(2, 2).unwrap();
        let port = &mut w.ports_mut()[0];
        for i in 0..n {
            port.dma.rx_one(h, ddio, &mut port.rx, PacketSlot::new(FlowId(i as u32), size));
        }
    }

    #[test]
    fn testpmd_bounces_packets() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut pmd = TestPmd::new(vf());
        deliver(&mut h, &mut pmd, 10, 64);
        let r = run(&mut h, &mut pmd, 1_000_000);
        assert_eq!(pmd.forwarded(), 10);
        assert!(r.instructions > 0);
        assert_eq!(pmd.ports_mut()[0].tx.len(), 10);
        // Tx slots carry the zero-copy Rx buffer address.
        let (idx, slot) = pmd.ports_mut()[0].tx.pop().unwrap();
        assert!(slot.ext_buf.is_some());
        let _ = idx;
    }

    #[test]
    fn budget_limits_drain() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut pmd = TestPmd::new(vf());
        deliver(&mut h, &mut pmd, 40, 64);
        // A tiny budget can only bounce a few packets.
        run(&mut h, &mut pmd, 2_000);
        assert!(pmd.forwarded() < 40, "forwarded {}", pmd.forwarded());
        assert!(!pmd.ports_mut()[0].rx.is_empty(), "backlog must remain");
    }

    #[test]
    fn idle_core_busy_polls() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut pmd = TestPmd::new(vf());
        let r = run(&mut h, &mut pmd, 30_000);
        assert_eq!(pmd.forwarded(), 0);
        // Busy polling retires instructions at IPC ~POLL_INSTR/POLL_CYCLES.
        assert!(r.instructions > 30_000, "poll loop IPC should exceed 1");
    }

    #[test]
    fn l3fwd_touches_flow_table() {
        let mut h = MemoryHierarchy::tiny(1);
        let table = HashRegion::new(0x9000_0000, 1024, 1);
        let mut fwd = L3Fwd::new(vf(), table);
        deliver(&mut h, &mut fwd, 5, 64);
        run(&mut h, &mut fwd, 1_000_000);
        assert_eq!(fwd.metrics().ops, 5);
        // The flow table region must be resident for the touched flows.
        assert!(h.llc().contains(table.entry_line(0, 0)) || h.core(0).l2().hits() > 0);
    }

    /// The windowed batched paths must match the access-at-a-time oracle
    /// bit-for-bit: forwarded counts, instructions, cycles, the
    /// order-sensitive latency reservoir, and the full cache state digest.
    #[test]
    fn batched_matches_serial() {
        use iat_cachesim::config::set_slice_workers;

        fn testpmd_trace(workers: Option<u32>) -> (u64, WorkloadMetrics, Vec<ExecResult>, u64, u64) {
            set_slice_workers(workers);
            let mut nic = Nic::new(0x4000_0000, 2, 32, 2048);
            let ports = vec![nic.vf_mut(VfId(0)).clone(), nic.vf_mut(VfId(1)).clone()];
            let mut h = MemoryHierarchy::tiny(1);
            let mut pmd = TestPmd::with_ports(ports);
            let mut results = Vec::new();
            // Alternate uneven deliveries and tight budgets so runs end in
            // every way: mid-scan budget stop, straggler flush + busy poll,
            // and carry-over backlog between slices.
            for round in 0..12u64 {
                let ddio = WayMask::contiguous(2, 2).unwrap();
                for p in 0..2usize {
                    let n = (round as usize * 7 + p * 3) % 11;
                    let port = &mut pmd.ports_mut()[p];
                    for i in 0..n {
                        let f = FlowId((round * 31 + i as u64) as u32 % 5);
                        port.dma.rx_one(&mut h, ddio, &mut port.rx, PacketSlot::new(f, 64));
                    }
                }
                results.push(run(&mut h, &mut pmd, 900 + round * 517));
            }
            (pmd.forwarded(), pmd.metrics(), results, h.accesses(), h.llc().state_digest())
        }

        fn l3fwd_trace(workers: Option<u32>) -> (u64, WorkloadMetrics, Vec<ExecResult>, u64, u64) {
            set_slice_workers(workers);
            let mut h = MemoryHierarchy::tiny(1);
            let table = HashRegion::new(0x9000_0000, 4096, 1);
            let mut fwd = L3Fwd::new(vf(), table);
            let mut results = Vec::new();
            for round in 0..12u64 {
                let ddio = WayMask::contiguous(2, 2).unwrap();
                let n = (round as usize * 5) % 9;
                let port = &mut fwd.ports_mut()[0];
                for i in 0..n {
                    let f = FlowId((round * 17 + i as u64) as u32 % 7);
                    port.dma.rx_one(&mut h, ddio, &mut port.rx, PacketSlot::new(f, 64));
                }
                results.push(run(&mut h, &mut fwd, 1_100 + round * 431));
            }
            (fwd.forwarded, fwd.metrics(), results, h.accesses(), h.llc().state_digest())
        }

        assert_eq!(testpmd_trace(None), testpmd_trace(Some(0)), "testpmd diverged");
        assert_eq!(l3fwd_trace(None), l3fwd_trace(Some(0)), "l3fwd diverged");
        set_slice_workers(None);
    }

    #[test]
    fn larger_flow_table_hurts_locality() {
        // With many flows, per-packet table lines rarely re-hit -> higher
        // average cost than single-flow traffic.
        let budget = 3_000_000u64;
        let mut costs = Vec::new();
        for flows in [1u32, 100_000] {
            let mut h = MemoryHierarchy::tiny(1);
            let table = HashRegion::new(0x9000_0000, 1 << 20, 1);
            let mut fwd = L3Fwd::new(vf(), table);
            let ddio = WayMask::contiguous(2, 2).unwrap();
            // Alternate delivery and draining so the ring never overflows.
            for round in 0..20 {
                let port = &mut fwd.ports_mut()[0];
                for i in 0..50u32 {
                    let f = FlowId((round * 50 + i) % flows);
                    port.dma.rx_one(&mut h, ddio, &mut port.rx, PacketSlot::new(f, 64));
                }
                run(&mut h, &mut fwd, budget / 20);
            }
            costs.push(fwd.metrics().avg_op_cycles);
        }
        assert!(
            costs[1] > costs[0] * 1.1,
            "100k flows ({:.0} cyc) should cost more than 1 flow ({:.0} cyc)",
            costs[1],
            costs[0]
        );
    }
}
