//! X-Mem: the random-read memory microbenchmark (Gottscho et al.,
//! ISPASS'16) the paper uses to emulate cloud applications' memory
//! behaviour (Sec. III-B, Fig. 4 and Fig. 10).

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::latency::LatencySampler;
use iat_cachesim::{CoreOp, LINE_BYTES};

/// Instructions retired per X-Mem read iteration (address generation, load,
/// loop overhead).
const INSTR_PER_OP: u64 = 12;
/// Non-memory cycles per iteration.
const COMPUTE_CYCLES: u64 = 6;

/// Cap on addresses generated per batched window (bounds scratch memory;
/// epoch chunk budgets keep real windows far below this).
const WINDOW_CAP: u64 = 4096;

/// X-Mem with the random-read access pattern.
///
/// Each operation reads one uniformly random cache line within the working
/// set; operations are dependent (pointer-chase style), so per-op latency
/// is the access latency plus a small compute cost, and throughput is the
/// inverse — exactly the two metrics the paper reports in Fig. 4/10.
///
/// The working set can be resized at runtime ([`XMem::set_working_set`]) to
/// reproduce the phase changes of Fig. 10 (2 MB → 10 MB at t=5 s).
#[derive(Debug, Clone)]
pub struct XMem {
    base: u64,
    working_set: u64,
    state: u64,
    ops: u64,
    latency: LatencySampler,
    /// Scratch for batched windows (reused across slices).
    ops_buf: Vec<(u64, CoreOp)>,
    costs_buf: Vec<u32>,
}

impl XMem {
    /// Creates an X-Mem instance over `working_set` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `working_set` is smaller than one cache line.
    pub fn new(base: u64, working_set: u64, seed: u64) -> Self {
        assert!(working_set >= LINE_BYTES, "working set below one line");
        XMem {
            base,
            working_set,
            state: seed | 1,
            ops: 0,
            latency: LatencySampler::new(seed ^ 0xA5A5),
            ops_buf: Vec::new(),
            costs_buf: Vec::new(),
        }
    }

    /// Current working set size in bytes.
    pub fn working_set(&self) -> u64 {
        self.working_set
    }

    /// Resizes the working set (an application phase change).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one cache line.
    pub fn set_working_set(&mut self, bytes: u64) {
        assert!(bytes >= LINE_BYTES, "working set below one line");
        self.working_set = bytes;
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Workload for XMem {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "x-mem"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Compute
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let lines = self.working_set / LINE_BYTES;
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        if !ctx.batching() {
            // Serial reference oracle (`--slice-workers 0`).
            while used < ctx.cycle_budget {
                let line = self.next_rand() % lines;
                let cost = ctx.read(self.base + line * LINE_BYTES) as u64 + COMPUTE_CYCLES;
                used += cost;
                instructions += INSTR_PER_OP;
                if accrue {
                    self.ops += 1;
                    self.latency.record(cost);
                }
            }
            return ExecResult { instructions, cycles_used: used.min(ctx.cycle_budget) };
        }
        // Batched windows. With `left` budget remaining, the serial loop is
        // guaranteed to run at least `ceil(left / max_cost)` more
        // iterations (each costs at most `max_cost`), and the addresses do
        // not depend on access outcomes — so that window can be generated
        // up front and resolved in one slice-bucketed flush, bit-identical
        // to the serial schedule.
        let max_cost = ctx.max_access_cycles() as u64 + COMPUTE_CYCLES;
        let mut ops_buf = std::mem::take(&mut self.ops_buf);
        let mut costs = std::mem::take(&mut self.costs_buf);
        while used < ctx.cycle_budget {
            let left = ctx.cycle_budget - used;
            let k = left.div_ceil(max_cost).min(WINDOW_CAP);
            ops_buf.clear();
            for _ in 0..k {
                let line = self.next_rand() % lines;
                ops_buf.push((self.base + line * LINE_BYTES, CoreOp::Read));
            }
            ctx.access_batch(&ops_buf, &mut costs);
            for &c in &costs {
                let cost = c as u64 + COMPUTE_CYCLES;
                used += cost;
                instructions += INSTR_PER_OP;
                if accrue {
                    self.ops += 1;
                    self.latency.record(cost);
                }
            }
        }
        self.ops_buf = ops_buf;
        self.costs_buf = costs;
        ExecResult { instructions, cycles_used: used.min(ctx.cycle_budget) }
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics {
            ops: self.ops,
            avg_op_cycles: self.latency.mean(),
            p99_op_cycles: self.latency.percentile(0.99),
            drops: 0,
        }
    }

    fn reset_metrics(&mut self) {
        self.ops = 0;
        self.latency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Channels;
    use iat_cachesim::{AgentId, MemoryHierarchy, WayMask};

    fn run_once(h: &mut MemoryHierarchy, xmem: &mut XMem, mask: WayMask, budget: u64) -> ExecResult {
        let mut ch = Channels::new();
        let mut ctx = ExecCtx {
            cache: h,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask,
            cycle_budget: budget,
        };
        xmem.run(&mut ctx)
    }

    #[test]
    fn small_working_set_is_fast() {
        // Working set fits in the tiny L2 (1 KB): after warm-up nearly all
        // accesses hit L2, so ops per budget is near budget/(l2+compute).
        let mut h = MemoryHierarchy::tiny(1);
        let mut x = XMem::new(0x100000, 512, 7);
        run_once(&mut h, &mut x, WayMask::all(4), 50_000); // warm
        x.reset_metrics();
        run_once(&mut h, &mut x, WayMask::all(4), 100_000);
        let m = x.metrics();
        assert!(m.avg_op_cycles < 25.0, "expected L2-resident latency, got {}", m.avg_op_cycles);
    }

    #[test]
    fn more_ways_means_more_throughput() {
        // Working set = half the tiny LLC: 1 way thrashes, 4 ways mostly fit.
        let ws = 8 * 1024;
        let budget = 400_000u64;
        let mut ops = Vec::new();
        for mask in [WayMask::single(0), WayMask::all(4)] {
            let mut h = MemoryHierarchy::tiny(1);
            let mut x = XMem::new(0x100000, ws, 7);
            run_once(&mut h, &mut x, mask, budget); // warm
            x.reset_metrics();
            run_once(&mut h, &mut x, mask, budget);
            ops.push(x.metrics().ops);
        }
        assert!(
            ops[1] as f64 > ops[0] as f64 * 1.2,
            "4 ways ({}) should beat 1 way ({})",
            ops[1],
            ops[0]
        );
    }

    #[test]
    fn phase_change_resizes_footprint() {
        let mut x = XMem::new(0, 2 << 20, 1);
        x.set_working_set(10 << 20);
        assert_eq!(x.working_set(), 10 << 20);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            let mut h = MemoryHierarchy::tiny(1);
            let mut x = XMem::new(0x100000, 4096, 99);
            run_once(&mut h, &mut x, WayMask::all(4), 100_000);
            x.metrics().ops
        };
        assert_eq!(mk(), mk());
    }
}
