//! A RocksDB-like store serving YCSB from its memtable (the paper loads
//! only 10K × 1 KB records so every operation is memtable-resident,
//! Sec. VI-C).

use crate::ctx::{ExecCtx, ExecResult, Workload, WorkloadKind, WorkloadMetrics};
use crate::latency::LatencySampler;
use crate::region::HashRegion;
use crate::ycsb::{OpKind, YcsbMix};
use iat_cachesim::LINE_BYTES;

/// Base cycles per operation (key encode, comparator calls, memtable API).
const OP_CYCLES: u64 = 1_600;
/// Instructions per operation.
const OP_INSTR: u64 = 3_200;
/// Skiplist levels whose nodes are shared and hot (towers near the head).
const HOT_LEVELS: u64 = 4;

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocksConfig {
    /// Records in the memtable (paper: 10K).
    pub records: u64,
    /// Value size in bytes (paper: 1 KB).
    pub value_bytes: u32,
    /// Zipf exponent of the key popularity (paper: 0.99).
    pub zipf_s: f64,
}

impl Default for RocksConfig {
    fn default() -> Self {
        RocksConfig { records: 10_000, value_bytes: 1024, zipf_s: 0.99 }
    }
}

/// The memtable-resident store with a built-in YCSB driver.
///
/// A lookup descends a skiplist: a few *hot* upper-level nodes (shared by
/// every operation, so effectively cache-resident) followed by
/// `log2(records)` key-dependent node lines, then the value lines. This
/// gives the model RocksDB's signature mix of pointer-chasing locality —
/// which is what makes it cache-sensitive in the paper's Fig. 12/13.
#[derive(Debug, Clone)]
pub struct RocksLike {
    config: RocksConfig,
    mix: YcsbMix,
    nodes: HashRegion,
    hot: HashRegion,
    values_base: u64,
    records_pow2: u64,
    levels: u64,
    zipf_cdf: Vec<f64>,
    state: u64,
    ops: u64,
    latency: LatencySampler,
}

impl RocksLike {
    /// Creates a store with its memtable allocated from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `config.records` is zero.
    pub fn new(base: u64, config: RocksConfig, mix: YcsbMix, seed: u64) -> Self {
        assert!(config.records > 0, "memtable needs at least one record");
        let hot = HashRegion::new(base, 64, 1);
        let nodes_base = base + hot.footprint_bytes() + (1 << 20);
        let nodes = HashRegion::new(nodes_base, config.records.max(2), 1);
        let values_base = nodes_base + nodes.footprint_bytes() + (1 << 20);
        let levels = 64 - (config.records.max(2) - 1).leading_zeros() as u64;
        let mut weights: Vec<f64> =
            (1..=config.records).map(|k| 1.0 / (k as f64).powf(config.zipf_s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        RocksLike {
            config,
            mix,
            nodes,
            hot,
            values_base,
            records_pow2: config.records.next_power_of_two(),
            levels,
            zipf_cdf: weights,
            state: seed | 1,
            ops: 0,
            latency: LatencySampler::new(seed ^ 0x70c6),
        }
    }

    /// Replaces the operation mix.
    pub fn set_mix(&mut self, mix: YcsbMix) {
        self.mix = mix;
    }

    /// Memtable footprint in bytes (nodes + values).
    pub fn footprint_bytes(&self) -> u64 {
        self.nodes.footprint_bytes() + self.records_pow2 * self.config.value_bytes as u64
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

    fn sample_key(&mut self) -> u64 {
        let u = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
        self.zipf_cdf.partition_point(|&c| c < u) as u64
    }

    #[inline]
    fn value_addr(&self, key: u64) -> u64 {
        let slot = key.wrapping_mul(0x9E37_79B9) & (self.records_pow2 - 1);
        self.values_base + slot * self.config.value_bytes as u64
    }

    /// Executes one op; returns its cycle cost.
    fn execute(&mut self, ctx: &mut ExecCtx<'_>, op: OpKind, key: u64) -> u64 {
        let mut cost = OP_CYCLES;
        // Skiplist descent: hot tower nodes, then key-dependent nodes.
        for l in 0..self.levels {
            let addr = if l < HOT_LEVELS {
                self.hot.entry_line(l, 0)
            } else {
                self.nodes.entry_line(key.wrapping_mul(31).wrapping_add(l), 0)
            };
            cost += ctx.read(addr) as u64;
        }
        let vaddr = self.value_addr(key);
        let vlines = iat_cachesim::lines_for(self.config.value_bytes as u64);
        match op {
            OpKind::Read => {
                for l in 0..vlines {
                    cost += ctx.read(vaddr + l * LINE_BYTES) as u64;
                }
            }
            OpKind::Update | OpKind::Insert => {
                for l in 0..vlines {
                    cost += ctx.write(vaddr + l * LINE_BYTES) as u64;
                }
            }
            OpKind::ReadModifyWrite => {
                for l in 0..vlines {
                    cost += ctx.read(vaddr + l * LINE_BYTES) as u64;
                    cost += ctx.write(vaddr + l * LINE_BYTES) as u64;
                }
            }
            OpKind::Scan => {
                for i in 0..8u64 {
                    let k = (key + i) % self.config.records;
                    let a = self.value_addr(k);
                    for l in 0..vlines {
                        cost += ctx.read(a + l * LINE_BYTES) as u64;
                    }
                }
            }
        }
        cost
    }
}

impl Workload for RocksLike {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "rocksdb"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Compute
    }

    fn run(&mut self, ctx: &mut ExecCtx<'_>) -> ExecResult {
        let mut used = 0u64;
        let mut instructions = 0u64;
        let accrue = ctx.accrue();
        while used < ctx.cycle_budget {
            let u = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
            let op = self.mix.pick(u);
            let key = self.sample_key();
            let cost = self.execute(ctx, op, key);
            used += cost;
            instructions += OP_INSTR;
            if accrue {
                self.ops += 1;
                self.latency.record(cost);
            }
        }
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

    fn run(h: &mut MemoryHierarchy, r: &mut RocksLike, mask: WayMask, budget: u64) {
        let mut ch = Channels::new();
        let mut ctx = ExecCtx {
            cache: h,
            channels: &mut ch,
            core: 0,
            agent: AgentId::new(0),
            mask,
            cycle_budget: budget,
        };
        r.run(&mut ctx);
    }

    fn small() -> RocksConfig {
        RocksConfig { records: 200, value_bytes: 256, zipf_s: 0.99 }
    }

    #[test]
    fn completes_ops_within_budget() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut r = RocksLike::new(0xA000_0000, small(), YcsbMix::a(), 3);
        run(&mut h, &mut r, WayMask::all(4), 1_000_000);
        let m = r.metrics();
        assert!(m.ops > 10);
        assert!(m.avg_op_cycles >= OP_CYCLES as f64);
    }

    #[test]
    fn cache_sensitive() {
        // More LLC ways -> cheaper ops (the memtable partially fits).
        let mut costs = Vec::new();
        for mask in [WayMask::single(0), WayMask::all(4)] {
            let mut h = MemoryHierarchy::tiny(1);
            let mut r = RocksLike::new(0xA000_0000, small(), YcsbMix::c(), 3);
            run(&mut h, &mut r, mask, 2_000_000); // warm
            r.reset_metrics();
            run(&mut h, &mut r, mask, 2_000_000);
            costs.push(r.metrics().avg_op_cycles);
        }
        assert!(costs[1] < costs[0], "4-way {} should beat 1-way {}", costs[1], costs[0]);
    }

    #[test]
    fn zipf_drives_hot_keys() {
        let mut r = RocksLike::new(0, small(), YcsbMix::c(), 5);
        let mut hot = 0;
        for _ in 0..1000 {
            if r.sample_key() < 10 {
                hot += 1;
            }
        }
        assert!(hot > 250, "top-10 keys of 200 should dominate, got {hot}");
    }

    #[test]
    fn footprint_accounts_nodes_and_values() {
        let r = RocksLike::new(0, RocksConfig::default(), YcsbMix::a(), 1);
        // 10K records: 16K slots x 1KB values + 10K node lines.
        assert!(r.footprint_bytes() > 16 * 1024 * 1024);
    }

    #[test]
    fn deterministic() {
        let once = || {
            let mut h = MemoryHierarchy::tiny(1);
            let mut r = RocksLike::new(0xA000_0000, small(), YcsbMix::f(), 11);
            run(&mut h, &mut r, WayMask::all(4), 500_000);
            r.metrics().ops
        };
        assert_eq!(once(), once());
    }
}
