//! A channel-attached packet bouncer: `testpmd` behind a virtual switch
//! (the tenant side of the paper's aggregation-model microbenchmarks,
//! Fig. 8/9).

use crate::ctx::{ChannelId, ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::latency::LatencySampler;
use iat_cachesim::CoreOp;
use iat_netsim::PacketSlot;

/// Cycles per empty poll iteration.
const POLL_CYCLES: u64 = 30;
/// Instructions per empty poll iteration.
const POLL_INSTR: u64 = 55;
/// Base per-packet cost of the bounce.
const PKT_CYCLES: u64 = 90;
/// Instructions per bounced packet.
const PKT_INSTR: u64 = 190;

/// Bounces every packet arriving on its inbound channel back out of its
/// outbound channel, zero-copy.
#[derive(Debug, Clone)]
pub struct ChannelEcho {
    rx: ChannelId,
    tx: ChannelId,
    forwarded: u64,
    drops: u64,
    latency: LatencySampler,
}

impl ChannelEcho {
    /// Creates an echo tenant reading from `rx` and writing to `tx`.
    pub fn new(rx: ChannelId, tx: ChannelId) -> Self {
        ChannelEcho {
            rx,
            tx,
            forwarded: 0,
            drops: 0,
            latency: LatencySampler::new(0xec40),
        }
    }

    /// Packets bounced so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

impl Workload for ChannelEcho {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "testpmd-virtio"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Network
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        vec![self.rx, self.tx]
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let core = ctx.core;
        let agent = ctx.agent;
        let mask = ctx.mask;
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        while used < ctx.cycle_budget {
            let cache = &mut *ctx.cache;
            let channels = &mut *ctx.channels;
            let rx = &mut channels.get_mut(self.rx).ring;
            let Some((idx, slot)) = rx.pop() else {
                let iters = (ctx.cycle_budget - used) / POLL_CYCLES;
                instructions += iters * POLL_INSTR;
                used += iters * POLL_CYCLES;
                break;
            };
            let buf = slot.ext_buf.unwrap_or_else(|| rx.buf_addr(idx));
            let mut cost = PKT_CYCLES;
            // Touch the header, re-post zero-copy.
            cost += cache.core_access_cycles(core, agent, mask, buf, CoreOp::Read) as u64;
            let tx = &mut channels.get_mut(self.tx).ring;
            let pushed = tx
                .push(PacketSlot::with_ext_buf(slot.flow, slot.size, buf))
                .is_some();
            if accrue {
                if pushed {
                    self.forwarded += 1;
                } else {
                    self.drops += 1;
                }
                self.latency.record(cost);
            }
            used += cost;
            instructions += PKT_INSTR;
        }
        ExecResult {
            instructions,
            cycles_used: used.min(ctx.cycle_budget),
        }
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics {
            ops: self.forwarded,
            avg_op_cycles: self.latency.mean(),
            p99_op_cycles: self.latency.percentile(0.99),
            drops: self.drops,
        }
    }

    fn reset_metrics(&mut self) {
        self.forwarded = 0;
        self.drops = 0;
        self.latency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Channels;
    use iat_cachesim::{AgentId, MemoryHierarchy, WayMask};
    use iat_netsim::{FlowId, RxRing};

    #[test]
    fn bounces_zero_copy() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ch = Channels::new();
        let rx = ch.add(RxRing::new(0x8000_0000, 16, 2048));
        let tx = ch.add(RxRing::new(0x9000_0000, 16, 2048));
        let mut echo = ChannelEcho::new(rx, tx);
        ch.get_mut(rx)
            .ring
            .push(PacketSlot::new(FlowId(1), 256))
            .unwrap();
        let mut ctx = ExecCtx {
            cache: &mut h,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: 100_000,
        };
        echo.run(&mut ctx);
        assert_eq!(echo.forwarded(), 1);
        let (_, out) = ch.get_mut(tx).ring.pop().unwrap();
        assert!(out.ext_buf.is_some(), "bounce must be zero-copy");
        assert_eq!(out.flow, FlowId(1));
    }

    #[test]
    fn full_outbound_channel_drops() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ch = Channels::new();
        let rx = ch.add(RxRing::new(0x8000_0000, 16, 2048));
        let tx = ch.add(RxRing::new(0x9000_0000, 1, 2048));
        let mut echo = ChannelEcho::new(rx, tx);
        for _ in 0..3 {
            ch.get_mut(rx)
                .ring
                .push(PacketSlot::new(FlowId(0), 64))
                .unwrap();
        }
        let mut ctx = ExecCtx {
            cache: &mut h,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask: WayMask::all(4),
            cycle_budget: 100_000,
        };
        echo.run(&mut ctx);
        assert_eq!(echo.forwarded(), 1);
        assert_eq!(echo.metrics().drops, 2);
    }
}
