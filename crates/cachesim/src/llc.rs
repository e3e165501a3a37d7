//! The sliced, way-partitioned last-level cache with DDIO semantics.
//!
//! # Storage layout
//!
//! The cache body is split into one [`SliceShard`] per slice (`shard`
//! module), each holding its slice's struct-of-arrays state:
//!
//! * `tags` — one contiguous `u64` per line, probed per set;
//! * `valid` / `dirty` — one bitmask **per set** (bit `w` = way `w`),
//!   so probe candidates and victim candidates are computed bitwise
//!   against the [`WayMask`] instead of branching per way;
//! * `owners` — packed raw [`AgentId`] bits, one `u16` per line;
//! * `order` — a compact per-set LRU: the set's ways packed into one
//!   `u64` recency list, most recently used first (see the `order`
//!   module), so exact LRU order is kept without a global tick and a
//!   full-set scan.
//!
//! Slices are independent state machines, which enables the second mode of
//! operation next to the classic access-at-a-time API: operations can be
//! *enqueued* (`batch_*` methods), bucketed by slice, and resolved together
//! at [`Llc::batch_flush`], slice by slice in the calling thread
//! (`--slice-workers 0` keeps the access-at-a-time path instead, see the
//! `config` module). Per-slice buckets preserve enqueue order and every
//! bucket writes the counters in place through the same sink the serial
//! path uses, so batched results are bit-identical to serial execution.

use crate::agent::AgentId;
use crate::geometry::CacheGeometry;
use crate::mask::WayMask;
use crate::memory::MemCounters;
use crate::shard::{BatchEntry, BatchKind, DirectSink, FrozenSink, SliceShard};
use crate::stats::{AccessOutcome, IoOutcome, LlcStats};
use crate::line_of;
use iat_telemetry::phases::{self, Phase};
use iat_telemetry::span;
use serde_json::Value;

/// Kind of a core-initiated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreOp {
    /// Demand load.
    Read,
    /// Demand store (marks the line dirty).
    Write,
}

/// Ticket for one enqueued core access; redeem with [`Llc::batch_hit`]
/// after the flush that resolved it.
#[derive(Debug, Clone, Copy)]
pub struct BatchHandle {
    slice: u16,
    idx: u32,
}

/// Minimum batch size whose flush is wall-clock timed into the
/// [`iat_telemetry::phases`] flush bucket. Tiny flushes (epoch
/// boundaries with little traffic) skip the two `Instant::now` calls so
/// phase accounting cannot dominate them.
const FLUSH_TIMING_MIN_OPS: u32 = 64;

/// A shared last-level cache with CAT-style way partitioning and DDIO.
///
/// Semantics faithfully follow the paper's description of real hardware:
///
/// * **Lookups hit in any way.** CAT restricts *allocation*, not residency
///   (paper Footnote 1), so a core can load/update lines outside its mask
///   and a DDIO write update can land in any way.
/// * **Core allocations** pick a victim among the agent's mask ways
///   (invalid way first, else least-recently-used).
/// * **DDIO inbound writes** perform *write update* on a hit anywhere
///   (counted as a DDIO hit) and otherwise *write allocate* restricted to
///   the DDIO way mask (counted as a DDIO miss, possibly evicting a dirty
///   victim to memory).
/// * **DDIO device reads** are served from the LLC when present and from
///   memory otherwise, never allocating.
///
/// Dirty victims and memory fills are charged to an internal
/// [`MemCounters`], and all events are tallied in [`LlcStats`] — per agent
/// and, for DDIO, per slice (the CHA view).
#[derive(Debug, Clone)]
pub struct Llc {
    geom: CacheGeometry,
    /// Per-slice cache bodies plus batch buckets.
    shards: Vec<SliceShard>,
    /// Running count of valid lines (maintained by install accounting,
    /// never recomputed by scanning).
    valid_count: u64,
    /// Total operations served (core accesses, writebacks, DDIO reads and
    /// writes) — the simulator-throughput denominator. Batched operations
    /// count at enqueue time.
    accesses: u64,
    stats: LlcStats,
    mem: MemCounters,
    /// Operations enqueued since the last flush.
    pending_ops: u32,
    /// `true` when every queued entry has been resolved (results readable);
    /// the next enqueue starts a fresh batch.
    flushed: bool,
    /// Warmup mode: operations mutate the cache body (tags, LRU ranks,
    /// owners, dirty bits, valid lines) exactly as normal but accrue no
    /// statistics or memory counters. See [`Llc::set_stats_frozen`].
    stats_frozen: bool,
}

impl Llc {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let ways = geom.ways() as usize;
        let sets = geom.sets_per_slice() as usize;
        debug_assert!(ways >= 1);
        let shards = (0..geom.slices()).map(|_| SliceShard::new(ways, sets)).collect();
        Llc {
            geom,
            shards,
            valid_count: 0,
            accesses: 0,
            stats: LlcStats::new(geom.slices() as usize),
            mem: MemCounters::new(),
            pending_ops: 0,
            flushed: true,
            stats_frozen: false,
        }
    }

    /// Switches statistic accrual on or off (functional-warmup mode).
    ///
    /// While frozen, every access path — serial and batched — performs the
    /// same probes, victim choices and installs as normal (the cache body
    /// evolves bit-identically), but no references, misses, evictions,
    /// occupancy changes, DDIO counts or memory traffic are recorded. The
    /// valid-line count and the [`Llc::accesses`] work counter stay live:
    /// both describe what the simulator *did*, not what it *measured*.
    ///
    /// The sampled execution path uses this to warm the tag array between
    /// measured windows. Per-agent occupancy is a statistic, so it goes
    /// stale across frozen spans; [`Llc::reset_stats`] recomputes it from
    /// the resident lines.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if toggled with a batch pending (the flush
    /// must accrue under the mode its operations were enqueued in).
    pub fn set_stats_frozen(&mut self, frozen: bool) {
        debug_assert_eq!(self.pending_ops, 0, "set_stats_frozen with unflushed batch");
        self.stats_frozen = frozen;
    }

    /// Whether statistic accrual is currently frozen.
    pub fn stats_frozen(&self) -> bool {
        self.stats_frozen
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Memory traffic generated by fills and writebacks.
    pub fn mem(&self) -> &MemCounters {
        &self.mem
    }

    /// Total operations this cache has served (core accesses and
    /// writebacks plus DDIO reads and writes). Monotonic; survives
    /// [`Llc::reset_stats`] so sweeps can report simulated accesses/sec.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Resets statistics and memory counters but keeps cache contents.
    ///
    /// Occupancy (a property of the contents, not of past events) is
    /// recomputed from the resident lines so it stays consistent.
    pub fn reset_stats(&mut self) {
        debug_assert_eq!(self.pending_ops, 0, "reset_stats with unflushed batch");
        self.stats = LlcStats::new(self.geom.slices() as usize);
        self.mem = MemCounters::new();
        self.repair_occupancy();
    }

    /// Recomputes per-agent occupancy from the resident lines, leaving
    /// every other statistic untouched.
    ///
    /// Occupancy is a property of the cache *contents*, but it is tracked
    /// through statistic events, so it goes stale across a frozen
    /// (functional-warmup) span. The sampled execution path calls this at
    /// every warm→measure transition: measurement then starts from exact
    /// occupancy, and since measured spans track every install and
    /// eviction, occupancy stays exact (and non-negative) for the whole
    /// measured window — on the serial and the batched path alike.
    pub fn repair_occupancy(&mut self) {
        debug_assert_eq!(self.pending_ops, 0, "repair_occupancy with unflushed batch");
        self.stats.clear_occupancy();
        for shard in &self.shards {
            for set in 0..shard.store.sets() {
                let mut m = shard.store.valid_bits(set);
                while m != 0 {
                    let w = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let owner = AgentId::from_bits(shard.store.owner_bits(set, w));
                    self.stats.agent_mut(owner).occupancy_lines += 1;
                }
            }
        }
    }

    /// Maps an address to its slice and set-within-slice.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, usize) {
        let (slice, set) = self.geom.index(addr);
        (slice as usize, set as usize)
    }

    /// Returns `true` if the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (slice, set) = self.locate(addr);
        self.shards[slice].store.contains(set, line_of(addr))
    }

    /// Returns the allocating agent of the resident line containing `addr`.
    pub fn owner_of(&self, addr: u64) -> Option<AgentId> {
        let (slice, set) = self.locate(addr);
        self.shards[slice].store.owner_of(set, line_of(addr)).map(AgentId::from_bits)
    }

    /// Performs a demand access on behalf of a core agent.
    ///
    /// `alloc_mask` is the agent's CAT mask: allocation on a miss is
    /// restricted to those ways, but a hit in *any* way counts (Footnote 1).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `alloc_mask` is empty or exceeds the
    /// associativity (CAT requires at least one way per class).
    #[inline]
    pub fn core_access(
        &mut self,
        agent: AgentId,
        alloc_mask: WayMask,
        addr: u64,
        op: CoreOp,
    ) -> AccessOutcome {
        debug_assert_eq!(self.pending_ops, 0, "serial access with unflushed batch");
        debug_assert!(alloc_mask.fits(self.geom.ways()), "mask exceeds associativity");
        self.accesses += 1;
        let tag = line_of(addr);
        let (slice, set) = self.locate(addr);
        let write = op == CoreOp::Write;
        let (hit, writeback) = if self.stats_frozen {
            let mut sink = FrozenSink { valid_count: &mut self.valid_count };
            self.shards[slice].store.core_access(
                set,
                agent.to_bits(),
                alloc_mask.bits(),
                tag,
                write,
                &mut sink,
            )
        } else {
            let mut sink = DirectSink {
                stats: &mut self.stats,
                mem: &mut self.mem,
                valid_count: &mut self.valid_count,
                slice,
            };
            self.shards[slice].store.core_access(
                set,
                agent.to_bits(),
                alloc_mask.bits(),
                tag,
                write,
                &mut sink,
            )
        };
        if hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss { writeback }
        }
    }

    /// Installs a dirty line written back from a private cache (L2 victim).
    ///
    /// Non-inclusive LLCs allocate clean-missing writebacks; this path does
    /// not count as a demand reference or miss (hardware LLC miss events
    /// count demand traffic only, which is what IAT's monitoring observes).
    pub fn core_writeback(&mut self, agent: AgentId, alloc_mask: WayMask, addr: u64) {
        debug_assert_eq!(self.pending_ops, 0, "serial access with unflushed batch");
        self.accesses += 1;
        let tag = line_of(addr);
        let (slice, set) = self.locate(addr);
        if self.stats_frozen {
            let mut sink = FrozenSink { valid_count: &mut self.valid_count };
            self.shards[slice].store.core_writeback(
                set,
                agent.to_bits(),
                alloc_mask.bits(),
                tag,
                &mut sink,
            );
        } else {
            let mut sink = DirectSink {
                stats: &mut self.stats,
                mem: &mut self.mem,
                valid_count: &mut self.valid_count,
                slice,
            };
            self.shards[slice].store.core_writeback(
                set,
                agent.to_bits(),
                alloc_mask.bits(),
                tag,
                &mut sink,
            );
        }
    }

    /// Inbound DDIO write (device-to-host DMA) of one cache line.
    ///
    /// Write update on a hit anywhere (DDIO hit); write allocate restricted
    /// to `ddio_mask` on a miss (DDIO miss).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ddio_mask` is empty.
    #[inline]
    pub fn io_write(&mut self, ddio_mask: WayMask, addr: u64) -> IoOutcome {
        debug_assert_eq!(self.pending_ops, 0, "serial access with unflushed batch");
        self.accesses += 1;
        let tag = line_of(addr);
        let (slice, set) = self.locate(addr);
        let (hit, writeback) = if self.stats_frozen {
            let mut sink = FrozenSink { valid_count: &mut self.valid_count };
            self.shards[slice].store.io_write(set, ddio_mask.bits(), tag, &mut sink)
        } else {
            let mut sink = DirectSink {
                stats: &mut self.stats,
                mem: &mut self.mem,
                valid_count: &mut self.valid_count,
                slice,
            };
            self.shards[slice].store.io_write(set, ddio_mask.bits(), tag, &mut sink)
        };
        if hit {
            IoOutcome::WriteUpdate
        } else {
            IoOutcome::WriteAllocate { writeback }
        }
    }

    /// Device read (host-to-device DMA) of one cache line.
    ///
    /// Served from the LLC when resident; otherwise from memory, without
    /// allocating (DDIO reads never allocate).
    #[inline]
    pub fn io_read(&mut self, addr: u64) -> IoOutcome {
        debug_assert_eq!(self.pending_ops, 0, "serial access with unflushed batch");
        self.accesses += 1;
        let (slice, set) = self.locate(addr);
        let hit = if self.stats_frozen {
            let mut sink = FrozenSink { valid_count: &mut self.valid_count };
            self.shards[slice].store.io_read(set, line_of(addr), &mut sink)
        } else {
            let mut sink = DirectSink {
                stats: &mut self.stats,
                mem: &mut self.mem,
                valid_count: &mut self.valid_count,
                slice,
            };
            self.shards[slice].store.io_read(set, line_of(addr), &mut sink)
        };
        if hit {
            IoOutcome::ReadHit
        } else {
            IoOutcome::ReadMiss
        }
    }

    /// Number of resident lines allocated by `agent` (CMT-style occupancy).
    pub fn occupancy_lines(&self, agent: AgentId) -> u64 {
        self.stats.agent(agent).occupancy_lines
    }

    /// Total number of valid lines in the cache (a maintained counter,
    /// not a scan).
    pub fn valid_lines(&self) -> u64 {
        self.valid_count
    }

    // --- Batched pipeline -------------------------------------------------

    /// Starts a fresh batch if the previous one has been flushed.
    #[inline]
    fn batch_reset_if_flushed(&mut self) {
        if self.flushed {
            for shard in &mut self.shards {
                shard.queue.clear();
            }
            self.flushed = false;
        }
    }

    #[inline]
    fn enqueue(&mut self, addr: u64, mask: u32, agent: u16, kind: BatchKind) -> BatchHandle {
        self.batch_reset_if_flushed();
        self.accesses += 1;
        self.pending_ops += 1;
        let tag = line_of(addr);
        let (slice, set) = self.locate(addr);
        let shard = &mut self.shards[slice];
        // Warm the set's metadata lines now; the bucket resolves later.
        shard.store.prefetch_set(set);
        let idx = shard.queue.len() as u32;
        shard.queue.push(BatchEntry {
            tag,
            set: set as u32,
            mask,
            agent,
            kind,
            hit: false,
        });
        BatchHandle { slice: slice as u16, idx }
    }

    /// Enqueues a demand access (batched [`Llc::core_access`]). The returned
    /// handle is valid after the next [`Llc::batch_flush`].
    #[inline]
    pub fn batch_core_access(
        &mut self,
        agent: AgentId,
        alloc_mask: WayMask,
        addr: u64,
        op: CoreOp,
    ) -> BatchHandle {
        debug_assert!(alloc_mask.fits(self.geom.ways()), "mask exceeds associativity");
        let kind = if op == CoreOp::Write { BatchKind::CoreWrite } else { BatchKind::CoreRead };
        self.enqueue(addr, alloc_mask.bits(), agent.to_bits(), kind)
    }

    /// Enqueues an L2 dirty-victim writeback (batched
    /// [`Llc::core_writeback`]).
    #[inline]
    pub fn batch_core_writeback(&mut self, agent: AgentId, alloc_mask: WayMask, addr: u64) {
        self.enqueue(addr, alloc_mask.bits(), agent.to_bits(), BatchKind::Writeback);
    }

    /// Enqueues an inbound DDIO write (batched [`Llc::io_write`]).
    #[inline]
    pub fn batch_io_write(&mut self, ddio_mask: WayMask, addr: u64) {
        self.enqueue(addr, ddio_mask.bits(), AgentId::IO.to_bits(), BatchKind::IoWrite);
    }

    /// Enqueues a device read (batched [`Llc::io_read`]).
    #[inline]
    pub fn batch_io_read(&mut self, addr: u64) {
        self.enqueue(addr, 0, AgentId::IO.to_bits(), BatchKind::IoRead);
    }

    /// Operations enqueued since the last flush.
    pub fn batch_pending(&self) -> usize {
        self.pending_ops as usize
    }

    /// Resolves every enqueued operation, writing statistics in place.
    ///
    /// Each slice's bucket is drained in enqueue order, inline in the
    /// calling thread, through the sink of the current mode; see the shard
    /// module for why the result equals serial execution.
    pub fn batch_flush(&mut self) {
        if self.pending_ops == 0 {
            self.flushed = true;
            return;
        }
        let timed = self.pending_ops >= FLUSH_TIMING_MIN_OPS;
        let t0 = timed.then(std::time::Instant::now);
        let tracer = (timed && span::global_enabled()).then(span::global);
        let _flush_span = tracer.as_ref().map(|t| {
            t.begin("llc", "llc.flush")
                .arg("ops", Value::from(self.pending_ops))
        });
        for (slice, shard) in self.shards.iter_mut().enumerate() {
            if shard.queue.is_empty() {
                continue;
            }
            if self.stats_frozen {
                shard.resolve(&mut FrozenSink { valid_count: &mut self.valid_count });
            } else {
                shard.resolve(&mut DirectSink {
                    stats: &mut self.stats,
                    mem: &mut self.mem,
                    valid_count: &mut self.valid_count,
                    slice,
                });
            }
        }
        self.pending_ops = 0;
        self.flushed = true;
        if let Some(t0) = t0 {
            phases::phase_add(Phase::Flush, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Whether the operation behind `handle` hit in the LLC. Valid between
    /// the flush that resolved it and the next enqueue.
    ///
    /// # Panics
    ///
    /// Panics if called with pending (unflushed) operations or a stale
    /// handle.
    #[inline]
    pub fn batch_hit(&self, handle: BatchHandle) -> bool {
        debug_assert!(self.flushed, "batch_hit before batch_flush");
        self.shards[handle.slice as usize].queue[handle.idx as usize].hit
    }

    /// FNV-1a digest over the complete cache body — tags, owners, LRU
    /// ranks, valid and dirty bits of every slice. Two `Llc`s that report
    /// the same digest made identical victim choices and hold identical
    /// (dirty) state; the equivalence tests use this to compare the batched
    /// pipeline against the serial oracle.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for shard in &self.shards {
            h = shard.store.digest(h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoOutcome;

    fn tiny() -> Llc {
        Llc::new(CacheGeometry::tiny())
    }

    fn agent(i: u16) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn miss_then_hit() {
        let mut llc = tiny();
        let m = WayMask::all(4);
        assert!(llc.core_access(agent(0), m, 0x40, CoreOp::Read).is_miss());
        assert!(llc.core_access(agent(0), m, 0x40, CoreOp::Read).is_hit());
        assert_eq!(llc.stats().agent(agent(0)).references, 2);
        assert_eq!(llc.stats().agent(agent(0)).misses, 1);
    }

    #[test]
    fn allocation_restricted_to_mask_but_hits_anywhere() {
        let mut llc = tiny();
        let a = agent(0);
        let b = agent(1);
        let mask_a = WayMask::contiguous(0, 1).unwrap();
        let mask_b = WayMask::contiguous(1, 1).unwrap();
        llc.core_access(a, mask_a, 0x1000, CoreOp::Read);
        // Agent b can *hit* the line a allocated even though it is outside
        // b's mask (Footnote 1).
        assert!(llc.core_access(b, mask_b, 0x1000, CoreOp::Read).is_hit());
    }

    #[test]
    fn single_way_mask_causes_conflict_evictions() {
        let mut llc = tiny();
        let a = agent(0);
        let one_way = WayMask::single(0);
        // Two lines mapping to the same set with a 1-way mask must thrash.
        let geom = *llc.geometry();
        let stride =
            geom.sets_per_slice() as u64 * crate::LINE_BYTES * geom.slices() as u64 * 8;
        // Find two addresses in the same (slice,set).
        let a0 = 0u64;
        let mut a1 = crate::LINE_BYTES;
        while geom.index(a1) != geom.index(a0) {
            a1 += crate::LINE_BYTES;
            assert!(a1 < stride, "no conflicting address found");
        }
        llc.core_access(a, one_way, a0, CoreOp::Read);
        llc.core_access(a, one_way, a1, CoreOp::Read);
        assert!(!llc.contains(a0), "a0 must have been evicted by a1");
        assert!(llc.contains(a1));
    }

    #[test]
    fn lru_victim_selection() {
        let mut llc = tiny();
        let a = agent(0);
        let geom = *llc.geometry();
        let m = WayMask::all(4);
        // Fill one set with 4 conflicting lines, touch the first again, then
        // insert a fifth: the victim must be the second line (LRU).
        let mut addrs = vec![0u64];
        let mut x = crate::LINE_BYTES;
        while addrs.len() < 5 {
            if geom.index(x) == geom.index(0) {
                addrs.push(x);
            }
            x += crate::LINE_BYTES;
        }
        for &ad in &addrs[..4] {
            llc.core_access(a, m, ad, CoreOp::Read);
        }
        llc.core_access(a, m, addrs[0], CoreOp::Read); // refresh line 0
        llc.core_access(a, m, addrs[4], CoreOp::Read); // evicts addrs[1]
        assert!(llc.contains(addrs[0]));
        assert!(!llc.contains(addrs[1]));
        assert!(llc.contains(addrs[4]));
    }

    #[test]
    fn ddio_write_update_vs_allocate() {
        let mut llc = tiny();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        // First inbound write: miss -> write allocate.
        let o = llc.io_write(ddio, 0x2000);
        assert!(o.is_ddio_miss());
        // Second inbound write to the same line: hit -> write update.
        let o = llc.io_write(ddio, 0x2000);
        assert!(o.is_ddio_hit());
        assert_eq!(llc.stats().ddio_hits(), 1);
        assert_eq!(llc.stats().ddio_misses(), 1);
    }

    #[test]
    fn ddio_write_update_hits_core_allocated_line_outside_ddio_ways() {
        let mut llc = tiny();
        let core_mask = WayMask::contiguous(0, 1).unwrap();
        let ddio = WayMask::contiguous(3, 1).unwrap();
        llc.core_access(agent(0), core_mask, 0x3000, CoreOp::Read);
        // The line lives in way 0, outside DDIO's ways, yet an inbound write
        // updates it in place.
        assert_eq!(llc.io_write(ddio, 0x3000), IoOutcome::WriteUpdate);
    }

    #[test]
    fn ddio_read_never_allocates() {
        let mut llc = tiny();
        assert_eq!(llc.io_read(0x9000), IoOutcome::ReadMiss);
        assert_eq!(llc.io_read(0x9000), IoOutcome::ReadMiss, "read must not allocate");
        let mem_reads = llc.mem().read_lines();
        assert_eq!(mem_reads, 2);
    }

    #[test]
    fn ddio_allocate_evicts_dirty_victim_to_memory() {
        let mut llc = tiny();
        let geom = *llc.geometry();
        let a = agent(0);
        let way0 = WayMask::single(0);
        // Dirty a line in way 0 of set of addr 0.
        llc.core_access(a, way0, 0, CoreOp::Write);
        // Force DDIO to allocate into way 0 of the same set.
        let mut x = crate::LINE_BYTES;
        while geom.index(x) != geom.index(0) {
            x += crate::LINE_BYTES;
        }
        let writes_before = llc.mem().write_lines();
        let o = llc.io_write(way0, x);
        assert_eq!(o, IoOutcome::WriteAllocate { writeback: true });
        assert_eq!(llc.mem().write_lines(), writes_before + 1);
        // The evicted tenant is credited with interference.
        assert_eq!(llc.stats().agent(a).evicted_by_others, 1);
    }

    #[test]
    fn occupancy_tracking() {
        let mut llc = tiny();
        let a = agent(0);
        let m = WayMask::all(4);
        for i in 0..10u64 {
            llc.core_access(a, m, i * 64, CoreOp::Read);
        }
        assert_eq!(llc.occupancy_lines(a), 10);
        assert_eq!(llc.valid_lines(), 10);
    }

    #[test]
    fn writeback_path_does_not_count_demand_miss() {
        let mut llc = tiny();
        let a = agent(0);
        let m = WayMask::all(4);
        llc.core_writeback(a, m, 0x5000);
        let st = llc.stats().agent(a);
        assert_eq!(st.references, 0);
        assert_eq!(st.misses, 0);
        assert!(llc.contains(0x5000));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut llc = tiny();
        let a = agent(0);
        let m = WayMask::all(4);
        llc.core_access(a, m, 0x40, CoreOp::Read);
        llc.reset_stats();
        assert_eq!(llc.stats().agent(a).references, 0);
        assert!(llc.contains(0x40));
        assert_eq!(llc.valid_lines(), 1);
        // Occupancy is recomputed from contents across the reset.
        assert_eq!(llc.occupancy_lines(a), 1);
    }

    #[test]
    fn ranks_stay_a_permutation() {
        let mut llc = tiny();
        let a = agent(0);
        let m = WayMask::all(4);
        for i in 0..500u64 {
            llc.core_access(a, m, i * 64 * 7, CoreOp::Read);
        }
        let ways = llc.geometry().ways() as usize;
        for shard in &llc.shards {
            for set in 0..shard.store.sets() {
                let mut seen = vec![false; ways];
                for w in 0..ways {
                    let r = shard.store.rank(set, w) as usize;
                    assert!(r < ways, "rank out of range");
                    assert!(!seen[r], "duplicate rank {r} in set {set}");
                    seen[r] = true;
                }
            }
        }
    }

    #[test]
    fn accesses_counter_counts_all_op_kinds() {
        let mut llc = tiny();
        let a = agent(0);
        let m = WayMask::all(4);
        llc.core_access(a, m, 0x40, CoreOp::Read);
        llc.core_writeback(a, m, 0x80);
        llc.io_write(m, 0xc0);
        llc.io_read(0x100);
        assert_eq!(llc.accesses(), 4);
        llc.reset_stats();
        assert_eq!(llc.accesses(), 4, "accesses survives reset_stats");
    }

    /// A frozen (warmup) span must evolve the cache body bit-identically
    /// to an unfrozen run while leaving every statistic untouched, on both
    /// the serial and the batched path.
    #[test]
    fn frozen_warmup_updates_tags_but_not_stats() {
        let m = WayMask::all(4);
        let ddio = WayMask::contiguous(2, 2).unwrap();
        let addr = |i: u64| (i.wrapping_mul(0x9E37_79B9)) % (1 << 14) * 64;
        let drive = |llc: &mut Llc, batched: bool, lo: u64, hi: u64| {
            for i in lo..hi {
                let a = addr(i);
                match i % 4 {
                    0 => {
                        if batched {
                            llc.batch_core_access(agent(0), m, a, CoreOp::Write);
                        } else {
                            llc.core_access(agent(0), m, a, CoreOp::Write);
                        }
                    }
                    1 => {
                        if batched {
                            llc.batch_core_access(agent(1), m, a, CoreOp::Read);
                        } else {
                            llc.core_access(agent(1), m, a, CoreOp::Read);
                        }
                    }
                    2 => {
                        if batched {
                            llc.batch_io_write(ddio, a);
                        } else {
                            llc.io_write(ddio, a);
                        }
                    }
                    _ => {
                        if batched {
                            llc.batch_io_read(a);
                        } else {
                            llc.io_read(a);
                        }
                    }
                }
            }
            if batched {
                llc.batch_flush();
            }
        };
        for batched in [false, true] {
            let mut oracle = tiny();
            let mut frozen = tiny();
            drive(&mut oracle, batched, 0, 200);
            drive(&mut frozen, batched, 0, 200);
            let stats_before: Vec<_> =
                frozen.stats().agents().map(|(a, s)| (a, *s)).collect();
            let mem_before = frozen.mem().clone();
            let evictions_before = frozen.stats().evictions;
            let slices_before = frozen.stats().slices.clone();
            frozen.set_stats_frozen(true);
            drive(&mut oracle, batched, 200, 600);
            drive(&mut frozen, batched, 200, 600);
            frozen.set_stats_frozen(false);
            assert_eq!(
                oracle.state_digest(),
                frozen.state_digest(),
                "frozen span must mutate the cache body identically (batched={batched})"
            );
            assert_eq!(oracle.valid_lines(), frozen.valid_lines());
            assert_eq!(oracle.accesses(), frozen.accesses(), "work counter stays live");
            let stats_after: Vec<_> =
                frozen.stats().agents().map(|(a, s)| (a, *s)).collect();
            assert_eq!(stats_before, stats_after, "stats frozen (batched={batched})");
            assert_eq!(&mem_before, frozen.mem());
            assert_eq!(evictions_before, frozen.stats().evictions);
            assert_eq!(slices_before, frozen.stats().slices);
            // Accrual resumes seamlessly after unfreezing.
            let a_new = addr(7);
            let refs_before = frozen.stats().agent(agent(0)).references;
            frozen.core_access(agent(0), m, a_new, CoreOp::Read);
            assert_eq!(frozen.stats().agent(agent(0)).references, refs_before + 1);
        }
    }

    /// Occupancy goes stale across a frozen span by design;
    /// [`Llc::reset_stats`] recomputes it from the resident lines.
    #[test]
    fn reset_stats_repairs_occupancy_after_frozen_span() {
        let mut llc = tiny();
        let m = WayMask::all(4);
        for i in 0..50u64 {
            llc.core_access(agent(0), m, i * 64 * 3, CoreOp::Read);
        }
        llc.set_stats_frozen(true);
        for i in 0..200u64 {
            llc.core_access(agent(1), m, i * 64 * 5, CoreOp::Read);
        }
        llc.set_stats_frozen(false);
        llc.reset_stats();
        let total: u64 =
            llc.stats().agents().map(|(_, s)| s.occupancy_lines).sum();
        assert_eq!(total, llc.valid_lines(), "occupancy must sum to valid lines");
    }

    /// Drives the same op stream through the serial API and the batched
    /// pipeline (one flush per mixed window) and requires identical
    /// outcomes, statistics, counters and cache state.
    #[test]
    fn batched_pipeline_matches_serial_smoke() {
        let mut serial = tiny();
        let mut batched = tiny();
        let m = WayMask::all(4);
        let ddio = WayMask::contiguous(2, 2).unwrap();
        let addr = |i: u64| (i.wrapping_mul(0x9E37_79B9)) % (1 << 14) * 64;
        for window in 0..64u64 {
            let mut handles = Vec::new();
            let mut expect = Vec::new();
            for j in 0..23u64 {
                let i = window * 23 + j;
                let a = addr(i);
                match i % 5 {
                    0 | 3 => {
                        let op = if i % 2 == 0 { CoreOp::Read } else { CoreOp::Write };
                        expect.push(serial.core_access(agent((i % 3) as u16), m, a, op).is_hit());
                        handles.push(batched.batch_core_access(agent((i % 3) as u16), m, a, op));
                    }
                    1 => {
                        serial.core_writeback(agent(0), m, a);
                        batched.batch_core_writeback(agent(0), m, a);
                    }
                    2 => {
                        serial.io_write(ddio, a);
                        batched.batch_io_write(ddio, a);
                    }
                    _ => {
                        serial.io_read(a);
                        batched.batch_io_read(a);
                    }
                }
            }
            batched.batch_flush();
            for (h, want) in handles.into_iter().zip(expect) {
                assert_eq!(batched.batch_hit(h), want);
            }
        }
        assert_eq!(serial.state_digest(), batched.state_digest());
        assert_eq!(serial.accesses(), batched.accesses());
        assert_eq!(serial.valid_lines(), batched.valid_lines());
        assert_eq!(serial.mem(), batched.mem());
        assert_eq!(serial.stats().evictions, batched.stats().evictions);
        let sa: Vec<_> = serial.stats().agents().map(|(a, s)| (a, *s)).collect();
        let ba: Vec<_> = batched.stats().agents().map(|(a, s)| (a, *s)).collect();
        assert_eq!(sa, ba, "per-agent stats (the full table, order included) must match");
        assert_eq!(serial.stats().slices, batched.stats().slices);
    }
}
