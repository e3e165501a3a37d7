//! A FastClick-style stateful NF service chain: classifier firewall →
//! per-flow statistics → NAPT (paper Sec. VI-C).

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::latency::LatencySampler;
use crate::region::HashRegion;
use iat_netsim::{PacketSlot, VirtualFunction};

/// Cycles per empty poll iteration.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;
/// Base cycles per packet across the three elements.
const CHAIN_CYCLES: u64 = 380;
/// Instructions per packet across the chain.
const CHAIN_INSTR: u64 = 900;

/// Chain configuration: sizes of the per-NF state tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NfChainConfig {
    /// Firewall classifier rules (read-only region, lines).
    pub firewall_rules: u64,
    /// Per-flow statistics entries.
    pub stat_entries: u64,
    /// NAPT translation entries.
    pub napt_entries: u64,
}

impl Default for NfChainConfig {
    fn default() -> Self {
        NfChainConfig { firewall_rules: 4096, stat_entries: 1 << 18, napt_entries: 1 << 18 }
    }
}

/// The service chain (the paper's slicing-model NFV tenant). May serve
/// several VFs round-robin — the paper's Sec. VI-C setup runs four
/// identical chain containers, one per VLAN, sharing three LLC ways, which
/// this model represents as one multi-port, multi-core tenant.
#[derive(Debug, Clone)]
pub struct NfChain {
    ports: Vec<VirtualFunction>,
    firewall: HashRegion,
    stats: HashRegion,
    napt: HashRegion,
    processed: u64,
    latency: LatencySampler,
}

impl NfChain {
    /// Creates a chain terminating `vf`, placing its three state tables
    /// consecutively from `state_base`.
    pub fn new(vf: VirtualFunction, state_base: u64, config: NfChainConfig) -> Self {
        Self::with_ports(vec![vf], state_base, config)
    }

    /// Creates a chain terminating several VFs.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty.
    pub fn with_ports(
        ports: Vec<VirtualFunction>,
        state_base: u64,
        config: NfChainConfig,
    ) -> Self {
        assert!(!ports.is_empty(), "chain needs at least one port");
        let firewall = HashRegion::new(state_base, config.firewall_rules, 1);
        let stats_base = state_base + firewall.footprint_bytes() + (1 << 20);
        let stats = HashRegion::new(stats_base, config.stat_entries, 1);
        let napt_base = stats_base + stats.footprint_bytes() + (1 << 20);
        let napt = HashRegion::new(napt_base, config.napt_entries, 1);
        NfChain { ports, firewall, stats, napt, processed: 0, latency: LatencySampler::new(0xc11c) }
    }

    /// Packets fully processed by the chain.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl Workload for NfChain {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "nf-chain"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        while used < ctx.cycle_budget {
            let mut progress = false;
            for p in 0..self.ports.len() {
                if used >= ctx.cycle_budget {
                    break;
                }
                let Some((idx, slot)) = self.ports[p].rx.pop() else { continue };
                progress = true;
                let key = slot.flow.0 as u64;
                let mut cost = CHAIN_CYCLES;
                cost += ctx.read(self.ports[p].rx.desc_addr(idx)) as u64;
                let buf = self.ports[p].rx.buf_addr(idx);
                // Firewall: parse header, walk two classifier lines.
                cost += ctx.read(buf) as u64;
                cost += ctx.read(self.firewall.entry_line(key, 0)) as u64;
                cost += ctx.read(self.firewall.entry_line(key.rotate_left(11), 0)) as u64;
                // Flow stats: read-modify-write the per-flow counter line.
                cost += ctx.read(self.stats.entry_line(key, 0)) as u64;
                cost += ctx.write(self.stats.entry_line(key, 0)) as u64;
                // NAPT: translation lookup, then header rewrite.
                cost += ctx.read(self.napt.entry_line(key, 0)) as u64;
                cost += ctx.write(buf) as u64;
                // Transmit zero-copy.
                let tx_slot = PacketSlot::with_ext_buf(slot.flow, slot.size, buf);
                if let Some(tidx) = self.ports[p].tx.push(tx_slot) {
                    cost += ctx.write(self.ports[p].tx.desc_addr(tidx)) as u64;
                    if accrue {
                        self.processed += 1;
                    }
                }
                used += cost;
                instructions += CHAIN_INSTR;
                if accrue {
                    self.latency.record(cost);
                }
            }
            if !progress {
                let iters = (ctx.cycle_budget - used) / POLL_CYCLES;
                instructions += iters * POLL_INSTR;
                used += iters * POLL_CYCLES;
                break;
            }
        }
        ExecResult { instructions, cycles_used: used.min(ctx.cycle_budget) }
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics {
            ops: self.processed,
            avg_op_cycles: self.latency.mean(),
            p99_op_cycles: self.latency.percentile(0.99),
            drops: self.ports.iter().map(|p| p.rx.drops() + p.tx.drops()).sum(),
        }
    }

    fn reset_metrics(&mut self) {
        self.processed = 0;
        self.latency.reset();
        for p in &mut self.ports {
            p.rx.reset_drops();
        }
    }

    fn ports_mut(&mut self) -> &mut [VirtualFunction] {
        &mut self.ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Channels;
    use iat_cachesim::{AgentId, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, Nic, VfId};

    fn chain() -> NfChain {
        let mut nic = Nic::new(0x4000_0000, 1, 64, 2048);
        NfChain::new(
            nic.vf_mut(VfId(0)).clone(),
            0xC000_0000,
            NfChainConfig { firewall_rules: 64, stat_entries: 256, napt_entries: 256 },
        )
    }

    fn run(h: &mut MemoryHierarchy, nf: &mut NfChain, budget: u64) -> ExecResult {
        let mut ch = Channels::new();
        let mut ctx = ExecCtx {
            cache: h,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: budget,
        };
        nf.run(&mut ctx)
    }

    #[test]
    fn processes_and_transmits() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut nf = chain();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        let port = &mut nf.ports_mut()[0];
        for i in 0..8u32 {
            port.dma.rx_one(&mut h, ddio, &mut port.rx, PacketSlot::new(FlowId(i), 1500));
        }
        run(&mut h, &mut nf, 10_000_000);
        assert_eq!(nf.processed(), 8);
        assert_eq!(nf.ports_mut()[0].tx.len(), 8);
    }

    #[test]
    fn stateful_tables_warm_up() {
        // Same-flow packets get cheaper once per-flow state is cached.
        let mut h = MemoryHierarchy::tiny(1);
        let mut nf = chain();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        let mut cold = 0.0;
        for round in 0..4 {
            let port = &mut nf.ports_mut()[0];
            for _ in 0..4 {
                port.dma.rx_one(&mut h, ddio, &mut port.rx, PacketSlot::new(FlowId(1), 64));
            }
            run(&mut h, &mut nf, 10_000_000);
            if round == 0 {
                cold = nf.metrics().avg_op_cycles;
                nf.reset_metrics();
            }
        }
        // After warm-up the per-packet cost drops below the cold-state cost.
        let warm = nf.metrics().avg_op_cycles;
        assert!(warm < cold, "warm chain ({warm}) should beat cold ({cold})");
    }

    #[test]
    fn idle_chain_busy_polls() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut nf = chain();
        let r = run(&mut h, &mut nf, 3_000);
        assert_eq!(nf.processed(), 0);
        assert!(r.instructions > 0);
    }
}
