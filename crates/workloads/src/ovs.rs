//! An OVS-DPDK–style virtual switch: the *aggregation* model's software
//! stack (paper Fig. 2a).
//!
//! The switch owns the physical ports. Inbound packets are looked up in an
//! exact-match cache (EMC); EMC misses fall back to the (much larger)
//! megaflow table and install an EMC entry — the behaviour behind the
//! paper's Fig. 9: more concurrent flows → more EMC misses → more wildcard
//! lookups → larger cache footprint and lower IPC. Matched packets are
//! *copied* into the destination tenant's virtio-style channel (one copy
//! per direction, as vhost does).

use crate::ctx::{ChannelId, ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::latency::LatencySampler;
use crate::region::HashRegion;
use iat_cachesim::{AgentId, CoreOp, MemoryHierarchy, WayMask, LINE_BYTES};
use iat_netsim::{PacketSlot, VirtualFunction};

/// Cycles per empty poll iteration.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;
/// Base cost of an EMC-hit forward (parse, hash, batch overhead).
const EMC_HIT_CYCLES: u64 = 180;
/// Additional cost of a megaflow (wildcard) lookup.
const MEGAFLOW_CYCLES: u64 = 350;
/// Instructions per forwarded packet (EMC-hit path).
const PKT_INSTR: u64 = 420;
/// Additional instructions on the megaflow path.
const MEGAFLOW_INSTR: u64 = 700;

/// A tenant attachment: the queue pair connecting the switch to one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attachment {
    /// Channel the switch pushes received packets into (switch → tenant).
    pub to_tenant: ChannelId,
    /// Channel the tenant pushes outbound packets into (tenant → switch).
    pub from_tenant: ChannelId,
}

/// Switch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OvsConfig {
    /// EMC slots (OVS default is 8192).
    pub emc_entries: u64,
    /// Megaflow table entries.
    pub megaflow_entries: u64,
}

impl Default for OvsConfig {
    fn default() -> Self {
        OvsConfig {
            emc_entries: 8192,
            megaflow_entries: 1 << 20,
        }
    }
}

/// The virtual switch.
///
/// Forwarding rules mirror the paper's microbenchmark: port `i` delivers to
/// attachment `i % attachments`, and each attachment's outbound traffic
/// leaves through port `i % ports`.
#[derive(Debug, Clone)]
pub struct OvsSwitch {
    ports: Vec<VirtualFunction>,
    attachments: Vec<Attachment>,
    emc: HashRegion,
    emc_tags: Vec<u32>,
    megaflow: HashRegion,
    forwarded: u64,
    emc_hits: u64,
    emc_misses: u64,
    chan_drops: u64,
    latency: LatencySampler,
}

impl OvsSwitch {
    /// Creates a switch over `ports`, delivering to `attachments`, with its
    /// EMC and megaflow tables allocated at `emc_base` / `megaflow_base`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` or `attachments` is empty.
    pub fn new(
        ports: Vec<VirtualFunction>,
        attachments: Vec<Attachment>,
        emc_base: u64,
        megaflow_base: u64,
        config: OvsConfig,
    ) -> Self {
        assert!(!ports.is_empty(), "switch needs at least one port");
        assert!(
            !attachments.is_empty(),
            "switch needs at least one attachment"
        );
        OvsSwitch {
            ports,
            attachments,
            emc: HashRegion::new(emc_base, config.emc_entries, 1),
            emc_tags: vec![u32::MAX; config.emc_entries as usize],
            megaflow: HashRegion::new(megaflow_base, config.megaflow_entries, 1),
            forwarded: 0,
            emc_hits: 0,
            emc_misses: 0,
            chan_drops: 0,
            latency: LatencySampler::new(0x0175),
        }
    }

    /// EMC hits so far.
    pub fn emc_hits(&self) -> u64 {
        self.emc_hits
    }

    /// EMC misses (megaflow lookups) so far.
    pub fn emc_misses(&self) -> u64 {
        self.emc_misses
    }

    /// Looks a flow up: returns `(cycle_cost, instructions)`, touching the
    /// EMC line and, on a miss, the megaflow entry.
    #[allow(clippy::too_many_arguments)]
    fn lookup(
        &mut self,
        cache: &mut MemoryHierarchy,
        core: usize,
        agent: AgentId,
        mask: WayMask,
        flow: u32,
        accrue: bool,
    ) -> (u64, u64) {
        let key = flow as u64;
        let slot = self.emc.slot_of_key(key) as usize;
        let mut cost = EMC_HIT_CYCLES
            + cache.core_access_cycles(core, agent, mask, self.emc.entry_line(key, 0), CoreOp::Read)
                as u64;
        let mut instr = PKT_INSTR;
        if self.emc_tags[slot] == flow {
            if accrue {
                self.emc_hits += 1;
            }
        } else {
            if accrue {
                self.emc_misses += 1;
            }
            cost += MEGAFLOW_CYCLES;
            instr += MEGAFLOW_INSTR;
            // Wildcard lookup walks the megaflow table, then installs the
            // EMC entry.
            cost += cache.core_access_cycles(
                core,
                agent,
                mask,
                self.megaflow.entry_line(key, 0),
                CoreOp::Read,
            ) as u64;
            cost += cache.core_access_cycles(
                core,
                agent,
                mask,
                self.megaflow.entry_line(key.rotate_left(17), 0),
                CoreOp::Read,
            ) as u64;
            cost += cache.core_access_cycles(
                core,
                agent,
                mask,
                self.emc.entry_line(key, 0),
                CoreOp::Write,
            ) as u64;
            self.emc_tags[slot] = flow;
        }
        (cost, instr)
    }
}

/// Copies `lines` payload lines from `src` to `dst`, returning cycles.
fn copy_lines(
    cache: &mut MemoryHierarchy,
    core: usize,
    agent: AgentId,
    mask: WayMask,
    src: u64,
    dst: u64,
    lines: u64,
) -> u64 {
    let mut cost = 0u64;
    for l in 0..lines {
        cost += cache.core_access_cycles(core, agent, mask, src + l * LINE_BYTES, CoreOp::Read) as u64;
        cost += cache.core_access_cycles(core, agent, mask, dst + l * LINE_BYTES, CoreOp::Write) as u64;
    }
    cost
}

impl Workload for OvsSwitch {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "ovs"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        self.attachments.iter().flat_map(|a| [a.to_tenant, a.from_tenant]).collect()
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let core = ctx.core;
        let agent = ctx.agent;
        let mask = ctx.mask;
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();

        while used < ctx.cycle_budget {
            let mut progress = false;
            let cache = &mut *ctx.cache;
            let channels = &mut *ctx.channels;

            // Inbound: port -> tenant channel.
            for p in 0..self.ports.len() {
                if used >= ctx.cycle_budget {
                    break;
                }
                let Some((idx, slot)) = self.ports[p].rx.pop() else {
                    continue;
                };
                progress = true;
                let mut cost = cache.core_access_cycles(
                    core,
                    agent,
                    mask,
                    self.ports[p].rx.desc_addr(idx),
                    CoreOp::Read,
                ) as u64;
                let (lk_cost, lk_instr) =
                    self.lookup(cache, core, agent, mask, slot.flow.0, accrue);
                cost += lk_cost;
                let att = self.attachments[p % self.attachments.len()];
                let chan = &mut channels.get_mut(att.to_tenant).ring;
                if let Some(cidx) = chan.push(PacketSlot::new(slot.flow, slot.size)) {
                    let dst = chan.buf_addr(cidx);
                    let src = self.ports[p].rx.buf_addr(idx);
                    cost += copy_lines(cache, core, agent, mask, src, dst, slot.payload_lines());
                    if accrue {
                        self.forwarded += 1;
                    }
                } else if accrue {
                    self.chan_drops += 1;
                }
                used += cost;
                instructions += lk_instr;
                if accrue {
                    self.latency.record(cost);
                }
            }

            // Outbound: tenant channel -> port Tx (one copy into the mbuf).
            for (i, att) in self.attachments.clone().iter().enumerate() {
                if used >= ctx.cycle_budget {
                    break;
                }
                let chan = &mut channels.get_mut(att.from_tenant).ring;
                let Some((cidx, slot)) = chan.pop() else {
                    continue;
                };
                progress = true;
                let src = slot.ext_buf.unwrap_or_else(|| chan.buf_addr(cidx));
                let (lk_cost, lk_instr) =
                    self.lookup(cache, core, agent, mask, slot.flow.0, accrue);
                let mut cost = lk_cost;
                let port_idx = i % self.ports.len();
                let port = &mut self.ports[port_idx];
                if let Some(tidx) = port.tx.push(PacketSlot::new(slot.flow, slot.size)) {
                    let dst = port.tx.buf_addr(tidx);
                    cost += copy_lines(cache, core, agent, mask, src, dst, slot.payload_lines());
                    cost += cache.core_access_cycles(
                        core,
                        agent,
                        mask,
                        port.tx.desc_addr(tidx),
                        CoreOp::Write,
                    ) as u64;
                    if accrue {
                        self.forwarded += 1;
                    }
                } else if accrue {
                    self.chan_drops += 1;
                }
                used += cost;
                instructions += lk_instr;
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
        ExecResult {
            instructions,
            cycles_used: used.min(ctx.cycle_budget),
        }
    }

    fn metrics(&self) -> WorkloadMetrics {
        let port_drops: u64 = self
            .ports
            .iter()
            .map(|p| p.rx.drops() + p.tx.drops())
            .sum::<u64>();
        WorkloadMetrics {
            ops: self.forwarded,
            avg_op_cycles: self.latency.mean(),
            p99_op_cycles: self.latency.percentile(0.99),
            drops: self.chan_drops + port_drops,
        }
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.emc_hits = 0;
        self.emc_misses = 0;
        self.chan_drops = 0;
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
    use iat_cachesim::MemoryHierarchy;
    use iat_netsim::{FlowId, Nic, RxRing, VfId};

    fn setup(flows: u32) -> (MemoryHierarchy, OvsSwitch, Channels, ChannelId, ChannelId) {
        let h = MemoryHierarchy::tiny(2);
        let mut nic = Nic::new(0x4000_0000, 1, 128, 2048);
        let port = nic.vf_mut(VfId(0)).clone();
        let mut channels = Channels::new();
        let to_t = channels.add(RxRing::new(0x8000_0000, 128, 2048));
        let from_t = channels.add(RxRing::new(0x9000_0000, 128, 2048));
        let ovs = OvsSwitch::new(
            vec![port],
            vec![Attachment {
                to_tenant: to_t,
                from_tenant: from_t,
            }],
            0xA000_0000,
            0xB000_0000,
            OvsConfig {
                emc_entries: 64,
                megaflow_entries: 1024,
            },
        );
        let _ = flows;
        (h, ovs, channels, to_t, from_t)
    }

    fn deliver(h: &mut MemoryHierarchy, ovs: &mut OvsSwitch, n: u32, flows: u32) {
        let ddio = WayMask::contiguous(2, 2).unwrap();
        let port = &mut ovs.ports_mut()[0];
        for i in 0..n {
            port.dma.rx_one(
                h,
                ddio,
                &mut port.rx,
                PacketSlot::new(FlowId(i % flows), 64),
            );
        }
    }

    fn run(h: &mut MemoryHierarchy, ovs: &mut OvsSwitch, ch: &mut Channels, budget: u64) {
        let mut ctx = ExecCtx {
            cache: h,
            channels: ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: budget,
        };
        ovs.run(&mut ctx);
    }

    #[test]
    fn forwards_rx_to_tenant_channel() {
        let (mut h, mut ovs, mut ch, to_t, _) = setup(1);
        deliver(&mut h, &mut ovs, 10, 1);
        run(&mut h, &mut ovs, &mut ch, 1_000_000);
        assert_eq!(ch.get(to_t).ring.len(), 10);
        assert_eq!(ovs.metrics().ops, 10);
    }

    #[test]
    fn emc_learns_flows() {
        let (mut h, mut ovs, mut ch, _, _) = setup(1);
        deliver(&mut h, &mut ovs, 20, 2);
        run(&mut h, &mut ovs, &mut ch, 2_000_000);
        // First packet per flow misses the EMC, the rest hit.
        assert_eq!(ovs.emc_misses(), 2);
        assert_eq!(ovs.emc_hits(), 18);
    }

    #[test]
    fn many_flows_thrash_emc() {
        let (mut h, mut ovs, mut ch, _, _) = setup(1);
        // 1000 flows over 64 EMC slots: most lookups miss.
        deliver(&mut h, &mut ovs, 100, 1000);
        run(&mut h, &mut ovs, &mut ch, 10_000_000);
        assert!(
            ovs.emc_misses() > ovs.emc_hits(),
            "hits {} misses {}",
            ovs.emc_hits(),
            ovs.emc_misses()
        );
    }

    #[test]
    fn outbound_path_reaches_port_tx() {
        let (mut h, mut ovs, mut ch, _, from_t) = setup(1);
        ch.get_mut(from_t)
            .ring
            .push(PacketSlot::new(FlowId(5), 64))
            .unwrap();
        run(&mut h, &mut ovs, &mut ch, 1_000_000);
        assert_eq!(ovs.ports_mut()[0].tx.len(), 1);
    }

    #[test]
    fn full_tenant_channel_drops() {
        let (mut h, mut ovs, mut ch, to_t, _) = setup(1);
        // Fill the tenant channel so inbound forwards must drop.
        while ch
            .get_mut(to_t)
            .ring
            .push(PacketSlot::new(FlowId(0), 64))
            .is_some()
        {}
        ch.get_mut(to_t).ring.reset_drops();
        deliver(&mut h, &mut ovs, 3, 1);
        run(&mut h, &mut ovs, &mut ch, 1_000_000);
        assert_eq!(ovs.metrics().drops, 3);
    }
}
