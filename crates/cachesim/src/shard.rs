//! Per-slice LLC storage and the batched-resolution machinery.
//!
//! The LLC's slices are independent state machines (the CHA view, paper
//! Sec. II-A): an address maps to exactly one slice, and no operation reads
//! or writes another slice's tags, LRU ranks, owners or dirty bits. This
//! module exploits that by storing the cache body as one [`SliceShard`] per
//! slice and resolving *batches* of enqueued operations one slice bucket at
//! a time while keeping results bit-identical to access-at-a-time execution:
//!
//! * operations on the same slice stay in enqueue order (a per-slice total
//!   order), and operations on different slices never interact, so every
//!   probe/victim/install decision is the same as in the serial schedule;
//! * statistics are written in place through the same [`DirectSink`] the
//!   serial path uses. Every counter is a sum, so bucket order cannot
//!   change a total, and the agent table is kept sorted by id, so
//!   first-touch registration order cannot show either. Occupancy
//!   decrements saturate at zero, which would not commute, but they never
//!   clamp while occupancy is exact. Only a frozen span leaves it stale,
//!   and the sampled path recounts it (`Llc::repair_occupancy`) before it
//!   measures again.
//!
//! Each operation is generic over a [`StatsSink`] and monomorphised once
//! per mode: [`DirectSink`] when measuring, [`FrozenSink`] during
//! functional warmup. Serial and batched execution share both, so the two
//! paths cannot drift semantically.

use crate::agent::AgentId;
use crate::hint::prefetch;
use crate::order;

/// Kind of a batched LLC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchKind {
    /// Demand load ([`crate::CoreOp::Read`]).
    CoreRead,
    /// Demand store ([`crate::CoreOp::Write`]).
    CoreWrite,
    /// L2 dirty-victim writeback.
    Writeback,
    /// Inbound DDIO write.
    IoWrite,
    /// Device DMA read.
    IoRead,
}

/// One enqueued LLC operation, bucketed by slice.
#[derive(Debug, Clone)]
pub(crate) struct BatchEntry {
    /// Line-aligned address (the tag).
    pub tag: u64,
    /// Set index within the slice.
    pub set: u32,
    /// Allocation mask bits (CAT mask for core ops, DDIO mask for I/O).
    pub mask: u32,
    /// Raw [`AgentId`] bits of the requester.
    pub agent: u16,
    /// Operation kind.
    pub kind: BatchKind,
    /// Filled in by resolution: the operation hit in the LLC.
    pub hit: bool,
}

/// Where an operation's statistic events land.
///
/// The cache ops in [`SetStore`] emit the exact same event sequence the
/// pre-shard serial code produced; the sink decides whether that lands in
/// the global `LlcStats`/`MemCounters` ([`DirectSink`]) or is dropped
/// ([`FrozenSink`]).
pub(crate) trait StatsSink {
    /// A demand reference by `a` (registers the agent on first touch).
    fn reference(&mut self, a: u16);
    /// A demand miss by `a` (always follows a `reference` for the same op).
    fn miss(&mut self, a: u16);
    /// A line fill from memory.
    fn mem_read(&mut self);
    /// A valid victim was evicted: bumps the eviction count, charges a
    /// memory writeback if the victim was dirty, decrements the victim
    /// owner's occupancy and credits `evicted_by_others` when the evictor
    /// differs.
    fn evict(&mut self, victim: u16, by: u16, dirty_wb: bool);
    /// A previously-invalid way became valid.
    fn line_added(&mut self);
    /// The installing agent gained a resident line.
    fn occupancy_inc(&mut self, a: u16);
    /// A DDIO write update (hit) observed at this slice.
    fn ddio_hit(&mut self);
    /// A DDIO write allocate (miss) observed at this slice.
    fn ddio_miss(&mut self);
}

/// Measuring sink: writes the global counters in place. Serves the serial
/// path and every batched flush alike; `slice` names the slice whose DDIO
/// counters the operations land in.
pub(crate) struct DirectSink<'a> {
    pub stats: &'a mut crate::stats::LlcStats,
    pub mem: &'a mut crate::memory::MemCounters,
    pub valid_count: &'a mut u64,
    pub slice: usize,
}

impl StatsSink for DirectSink<'_> {
    #[inline]
    fn reference(&mut self, a: u16) {
        self.stats.agent_mut(AgentId::from_bits(a)).references += 1;
    }
    #[inline]
    fn miss(&mut self, a: u16) {
        self.stats.agent_mut(AgentId::from_bits(a)).misses += 1;
    }
    #[inline]
    fn mem_read(&mut self) {
        self.mem.record_read_line();
    }
    #[inline]
    fn evict(&mut self, victim: u16, by: u16, dirty_wb: bool) {
        self.stats.evictions += 1;
        if dirty_wb {
            self.mem.record_write_line();
        }
        let vstats = self.stats.agent_mut(AgentId::from_bits(victim));
        vstats.occupancy_lines = vstats.occupancy_lines.saturating_sub(1);
        if victim != by {
            vstats.evicted_by_others += 1;
        }
    }
    #[inline]
    fn line_added(&mut self) {
        *self.valid_count += 1;
    }
    #[inline]
    fn occupancy_inc(&mut self, a: u16) {
        self.stats.agent_mut(AgentId::from_bits(a)).occupancy_lines += 1;
    }
    #[inline]
    fn ddio_hit(&mut self) {
        self.stats.slices[self.slice].ddio_hits += 1;
    }
    #[inline]
    fn ddio_miss(&mut self) {
        self.stats.slices[self.slice].ddio_misses += 1;
    }
}

/// Warmup sink: functional state only. Every statistic event is dropped
/// except [`StatsSink::line_added`], which maintains the valid-line count —
/// a property of the cache *contents* (like tags and LRU ranks), not of
/// past events. This is the sink behind [`crate::Llc::set_stats_frozen`]:
/// the sampled execution path warms the tag array between measured windows
/// without accruing statistics, and the monomorphised no-ops compile the
/// stat plumbing out of the warmup fast path entirely.
pub(crate) struct FrozenSink<'a> {
    pub valid_count: &'a mut u64,
}

impl StatsSink for FrozenSink<'_> {
    #[inline]
    fn reference(&mut self, _a: u16) {}
    #[inline]
    fn miss(&mut self, _a: u16) {}
    #[inline]
    fn mem_read(&mut self) {}
    #[inline]
    fn evict(&mut self, _victim: u16, _by: u16, _dirty_wb: bool) {}
    #[inline]
    fn line_added(&mut self) {
        *self.valid_count += 1;
    }
    #[inline]
    fn occupancy_inc(&mut self, _a: u16) {}
    #[inline]
    fn ddio_hit(&mut self) {}
    #[inline]
    fn ddio_miss(&mut self) {}
}

/// One slice's cache body, stored struct-of-arrays exactly as the pre-shard
/// whole-LLC layout was — just restricted to this slice's sets. Line
/// `(set, w)` lives at index `set * ways + w` in the per-line arrays.
#[derive(Debug, Clone)]
pub(crate) struct SetStore {
    ways: usize,
    /// Per-line tags, set-major within the slice.
    tags: Vec<u64>,
    /// Per-line owner ids (raw [`AgentId`] bits).
    owners: Vec<u16>,
    /// Per-set packed LRU recency lists (see [`crate::order`]).
    order: Vec<u64>,
    /// Per-set valid bitmasks (bit `w` = way `w` holds a line).
    valid: Vec<u32>,
    /// Per-set dirty bitmasks.
    dirty: Vec<u32>,
}

impl SetStore {
    pub fn new(ways: usize, sets: usize) -> Self {
        assert!(ways <= order::MAX_WAYS, "packed LRU list supports at most 16 ways");
        let n = ways * sets;
        SetStore {
            ways,
            tags: vec![0; n],
            owners: vec![0; n],
            order: vec![order::IDENTITY; sets],
            valid: vec![0; sets],
            dirty: vec![0; sets],
        }
    }

    #[inline]
    pub fn sets(&self) -> usize {
        self.valid.len()
    }

    #[inline]
    pub fn valid_bits(&self, set: usize) -> u32 {
        self.valid[set]
    }

    #[inline]
    pub fn owner_bits(&self, set: usize, way: usize) -> u16 {
        self.owners[set * self.ways + way]
    }

    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub fn rank(&self, set: usize, way: usize) -> u8 {
        order::pos_of(self.order[set], way) as u8
    }

    /// Warms the host cache lines an upcoming operation on `set` will
    /// touch. Called at batch-enqueue time so the tag/rank/mask words are
    /// resident by the time the bucket is resolved.
    #[inline]
    pub fn prefetch_set(&self, set: usize) {
        let base = set * self.ways;
        prefetch(&self.valid, set);
        prefetch(&self.dirty, set);
        prefetch(&self.tags, base);
        prefetch(&self.tags, base + self.ways - 1);
        prefetch(&self.order, set);
        prefetch(&self.owners, base);
    }

    /// Folds the complete slice state — tags, owners, LRU recency, valid
    /// and dirty bits — into an FNV-1a style running digest.
    pub fn digest(&self, mut h: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let eat = |h: u64, v: u64| (h ^ v).wrapping_mul(PRIME);
        for set in 0..self.valid.len() {
            h = eat(h, self.valid[set] as u64);
            h = eat(h, self.dirty[set] as u64);
            h = eat(h, self.order[set]);
            let base = set * self.ways;
            for w in 0..self.ways {
                if self.valid[set] & (1 << w) != 0 {
                    h = eat(h, self.tags[base + w]);
                    h = eat(h, self.owners[base + w] as u64);
                }
            }
        }
        h
    }

    /// Looks up `tag` among the set's valid ways. Returns the way index.
    #[inline]
    fn probe(&self, set: usize, base: usize, tag: u64) -> Option<usize> {
        let mut m = self.valid[set];
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            if self.tags[base + w] == tag {
                return Some(w);
            }
            m &= m - 1;
        }
        None
    }

    /// Returns `true` if a line with `tag` is resident in `set`.
    #[inline]
    pub fn contains(&self, set: usize, tag: u64) -> bool {
        self.probe(set, set * self.ways, tag).is_some()
    }

    /// Returns the owner bits of the resident line with `tag`, if any.
    #[inline]
    pub fn owner_of(&self, set: usize, tag: u64) -> Option<u16> {
        let base = set * self.ways;
        self.probe(set, base, tag).map(|w| self.owners[base + w])
    }

    /// Makes `way` the most recently used line of its set: the ways in
    /// younger recency slots age by one, and `way` moves to slot 0.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let o = self.order[set];
        self.order[set] = order::promote(o, order::pos_of(o, way), way);
    }

    /// Selects the victim way within `mask_bits` for `set`: the lowest
    /// invalid way if one exists, otherwise the least recently used way
    /// among the masked ways (the oldest recency slot whose way is in the
    /// mask — identical to the classic maximum-rank scan, since a way's
    /// slot is its rank).
    #[inline]
    fn victim_way(&self, set: usize, mask_bits: u32) -> usize {
        debug_assert!(mask_bits != 0, "allocation mask must not be empty");
        let invalid = mask_bits & !self.valid[set];
        if invalid != 0 {
            return invalid.trailing_zeros() as usize;
        }
        let o = self.order[set];
        let mut p = self.ways as u32 - 1;
        loop {
            let w = order::at(o, p);
            if mask_bits & (1 << w) != 0 {
                return w;
            }
            debug_assert!(p > 0, "mask must select at least one way");
            p -= 1;
        }
    }

    /// Replaces the line at `(set, way)`, handling victim accounting.
    /// Returns `true` if a dirty victim was written back to memory.
    #[allow(clippy::too_many_arguments)]
    fn install<S: StatsSink>(
        &mut self,
        set: usize,
        way: usize,
        tag: u64,
        owner: u16,
        dirty: bool,
        sink: &mut S,
    ) -> bool {
        let base = set * self.ways;
        let bit = 1u32 << way;
        let mut writeback = false;
        if self.valid[set] & bit != 0 {
            let dirty_wb = self.dirty[set] & bit != 0;
            writeback = dirty_wb;
            sink.evict(self.owners[base + way], owner, dirty_wb);
        } else {
            self.valid[set] |= bit;
            sink.line_added();
        }
        self.tags[base + way] = tag;
        self.owners[base + way] = owner;
        if dirty {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        self.touch(set, way);
        sink.occupancy_inc(owner);
        writeback
    }

    /// Demand access (see [`crate::Llc::core_access`]). Returns
    /// `(hit, dirty_victim_writeback)`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn core_access<S: StatsSink>(
        &mut self,
        set: usize,
        agent: u16,
        mask_bits: u32,
        tag: u64,
        write: bool,
        sink: &mut S,
    ) -> (bool, bool) {
        let base = set * self.ways;
        if let Some(w) = self.probe(set, base, tag) {
            self.touch(set, w);
            if write {
                self.dirty[set] |= 1 << w;
            }
            sink.reference(agent);
            return (true, false);
        }
        sink.reference(agent);
        sink.miss(agent);
        // Fill from memory.
        sink.mem_read();
        let way = self.victim_way(set, mask_bits);
        let wb = self.install(set, way, tag, agent, write, sink);
        (false, wb)
    }

    /// L2 dirty-victim writeback (see [`crate::Llc::core_writeback`]).
    #[inline]
    pub fn core_writeback<S: StatsSink>(
        &mut self,
        set: usize,
        agent: u16,
        mask_bits: u32,
        tag: u64,
        sink: &mut S,
    ) {
        let base = set * self.ways;
        if let Some(w) = self.probe(set, base, tag) {
            self.touch(set, w);
            self.dirty[set] |= 1 << w;
            return;
        }
        let way = self.victim_way(set, mask_bits);
        self.install(set, way, tag, agent, true, sink);
    }

    /// Inbound DDIO write (see [`crate::Llc::io_write`]). Returns
    /// `(hit, dirty_victim_writeback)`.
    #[inline]
    pub fn io_write<S: StatsSink>(
        &mut self,
        set: usize,
        mask_bits: u32,
        tag: u64,
        sink: &mut S,
    ) -> (bool, bool) {
        let base = set * self.ways;
        let io = AgentId::IO.to_bits();
        if let Some(w) = self.probe(set, base, tag) {
            self.touch(set, w);
            self.dirty[set] |= 1 << w;
            sink.reference(io);
            sink.ddio_hit();
            return (true, false);
        }
        sink.reference(io);
        sink.miss(io);
        sink.ddio_miss();
        let way = self.victim_way(set, mask_bits);
        // The device writes the full line; no memory fill is needed.
        let wb = self.install(set, way, tag, io, true, sink);
        (false, wb)
    }

    /// Device DMA read (see [`crate::Llc::io_read`]). Returns `hit`.
    #[inline]
    pub fn io_read<S: StatsSink>(&mut self, set: usize, tag: u64, sink: &mut S) -> bool {
        let base = set * self.ways;
        if let Some(w) = self.probe(set, base, tag) {
            self.touch(set, w);
            true
        } else {
            sink.mem_read();
            false
        }
    }
}

/// Resolution lookahead: while draining a bucket, prefetch the set this many
/// entries ahead so large (DMA-sized) buckets stream through the host cache.
const RESOLVE_PREFETCH_DIST: usize = 8;

/// One LLC slice: its cache body and its pending batch bucket. Shards are
/// fully independent, which is what lets each bucket resolve on its own,
/// in any slice order.
#[derive(Debug, Clone)]
pub(crate) struct SliceShard {
    pub store: SetStore,
    /// Operations enqueued for this slice, in batch-global order.
    pub queue: Vec<BatchEntry>,
}

impl SliceShard {
    pub fn new(ways: usize, sets: usize) -> Self {
        SliceShard { store: SetStore::new(ways, sets), queue: Vec::new() }
    }

    /// Resolves every queued operation in enqueue order, writing each
    /// entry's `hit` result in place and every statistic event into
    /// `sink`. The cache body it mutates is this slice's alone.
    pub fn resolve<S: StatsSink>(&mut self, sink: &mut S) {
        let store = &mut self.store;
        let q = &mut self.queue;
        for i in 0..q.len() {
            if let Some(next) = q.get(i + RESOLVE_PREFETCH_DIST) {
                store.prefetch_set(next.set as usize);
            }
            let e = &mut q[i];
            let set = e.set as usize;
            e.hit = match e.kind {
                BatchKind::CoreRead => {
                    store.core_access(set, e.agent, e.mask, e.tag, false, sink).0
                }
                BatchKind::CoreWrite => {
                    store.core_access(set, e.agent, e.mask, e.tag, true, sink).0
                }
                BatchKind::Writeback => {
                    store.core_writeback(set, e.agent, e.mask, e.tag, sink);
                    true
                }
                BatchKind::IoWrite => store.io_write(set, e.mask, e.tag, sink).0,
                BatchKind::IoRead => store.io_read(set, e.tag, sink),
            };
        }
    }
}
