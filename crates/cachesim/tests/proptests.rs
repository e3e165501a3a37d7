//! Property-based tests for the cache model's structural invariants,
//! including lock-step equivalence of the SoA/compact-LRU production
//! implementation against a naive tick-based reference model.

use iat_cachesim::{
    AccessOutcome, AgentId, BatchHandle, CacheGeometry, CoreOp, IoOutcome, Llc, WayMask,
};
use proptest::prelude::*;

/// A naive array-of-structs, global-`u64`-tick LRU model of the LLC —
/// the storage layout the production [`Llc`] used before its SoA
/// rewrite, kept here as the behavioral oracle. It tracks residency,
/// ownership, dirtiness, exact LRU order, and the same outcome /
/// writeback / eviction accounting, with none of the bitmask or
/// rank-compaction tricks.
mod reference {
    use super::*;

    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        owner: AgentId,
        lru: u64,
    }

    pub struct RefLlc {
        geom: CacheGeometry,
        lines: Vec<Line>,
        tick: u64,
        pub evictions: u64,
        pub mem_reads: u64,
        pub mem_writes: u64,
    }

    impl RefLlc {
        pub fn new(geom: CacheGeometry) -> Self {
            let invalid =
                Line { tag: 0, valid: false, dirty: false, owner: AgentId::IO, lru: 0 };
            RefLlc {
                geom,
                lines: vec![invalid; geom.total_lines() as usize],
                tick: 0,
                evictions: 0,
                mem_reads: 0,
                mem_writes: 0,
            }
        }

        fn base(&self, addr: u64) -> usize {
            let (slice, set) = self.geom.index(addr);
            (slice as usize * self.geom.sets_per_slice() as usize + set as usize)
                * self.geom.ways() as usize
        }

        fn probe(&self, addr: u64) -> Option<usize> {
            let tag = iat_cachesim::line_of(addr);
            let base = self.base(addr);
            (0..self.geom.ways() as usize)
                .find(|&w| self.lines[base + w].valid && self.lines[base + w].tag == tag)
                .map(|w| base + w)
        }

        pub fn contains(&self, addr: u64) -> bool {
            self.probe(addr).is_some()
        }

        pub fn owner_of(&self, addr: u64) -> Option<AgentId> {
            self.probe(addr).map(|i| self.lines[i].owner)
        }

        pub fn valid_lines(&self) -> u64 {
            self.lines.iter().filter(|l| l.valid).count() as u64
        }

        fn victim_way(&self, base: usize, mask: WayMask) -> usize {
            let mut best: Option<(usize, u64)> = None;
            for w in mask.iter() {
                let l = &self.lines[base + w as usize];
                if !l.valid {
                    return w as usize;
                }
                match best {
                    None => best = Some((w as usize, l.lru)),
                    Some((_, lru)) if l.lru < lru => best = Some((w as usize, l.lru)),
                    _ => {}
                }
            }
            best.expect("non-empty mask").0
        }

        /// Returns `writeback` like the production install path.
        fn install(&mut self, base: usize, way: usize, tag: u64, owner: AgentId, dirty: bool) -> bool {
            self.tick += 1;
            let victim = self.lines[base + way];
            let mut writeback = false;
            if victim.valid {
                self.evictions += 1;
                if victim.dirty {
                    self.mem_writes += 1;
                    writeback = true;
                }
            }
            self.lines[base + way] = Line { tag, valid: true, dirty, owner, lru: self.tick };
            writeback
        }

        pub fn core_access(
            &mut self,
            agent: AgentId,
            mask: WayMask,
            addr: u64,
            op: CoreOp,
        ) -> AccessOutcome {
            if let Some(i) = self.probe(addr) {
                self.tick += 1;
                self.lines[i].lru = self.tick;
                if op == CoreOp::Write {
                    self.lines[i].dirty = true;
                }
                return AccessOutcome::Hit;
            }
            self.mem_reads += 1;
            let base = self.base(addr);
            let way = self.victim_way(base, mask);
            let writeback =
                self.install(base, way, iat_cachesim::line_of(addr), agent, op == CoreOp::Write);
            AccessOutcome::Miss { writeback }
        }

        pub fn io_write(&mut self, ddio_mask: WayMask, addr: u64) -> IoOutcome {
            if let Some(i) = self.probe(addr) {
                self.tick += 1;
                self.lines[i].lru = self.tick;
                self.lines[i].dirty = true;
                return IoOutcome::WriteUpdate;
            }
            let base = self.base(addr);
            let way = self.victim_way(base, ddio_mask);
            let writeback =
                self.install(base, way, iat_cachesim::line_of(addr), AgentId::IO, true);
            IoOutcome::WriteAllocate { writeback }
        }

        pub fn io_read(&mut self, addr: u64) -> IoOutcome {
            if let Some(i) = self.probe(addr) {
                self.tick += 1;
                self.lines[i].lru = self.tick;
                IoOutcome::ReadHit
            } else {
                self.mem_reads += 1;
                IoOutcome::ReadMiss
            }
        }

        pub fn core_writeback(&mut self, agent: AgentId, mask: WayMask, addr: u64) {
            if let Some(i) = self.probe(addr) {
                self.tick += 1;
                self.lines[i].lru = self.tick;
                self.lines[i].dirty = true;
                return;
            }
            let base = self.base(addr);
            let way = self.victim_way(base, mask);
            self.install(base, way, iat_cachesim::line_of(addr), agent, true);
        }
    }
}

/// An arbitrary operation against the LLC.
#[derive(Debug, Clone)]
enum Op {
    Core { agent: u16, mask_first: u8, mask_count: u8, addr: u64, write: bool },
    Writeback { agent: u16, mask_first: u8, mask_count: u8, addr: u64 },
    IoWrite { addr: u64 },
    IoRead { addr: u64 },
}

fn op_strategy(ways: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..4, 0..ways, 1..=ways, 0u64..1 << 20, any::<bool>()).prop_map(
            |(agent, first, count, addr, write)| {
                Op::Core { agent, mask_first: first, mask_count: count, addr, write }
            }
        ),
        (0u16..4, 0..ways, 1..=ways, 0u64..1 << 20).prop_map(
            |(agent, first, count, addr)| {
                Op::Writeback { agent, mask_first: first, mask_count: count, addr }
            }
        ),
        (0u64..1 << 20).prop_map(|addr| Op::IoWrite { addr }),
        (0u64..1 << 20).prop_map(|addr| Op::IoRead { addr }),
    ]
}

/// Clamps a generated `(first, count)` pair into a valid mask, or `None`
/// when the pair degenerates to an empty mask.
fn clamp_mask(ways: u8, first: u8, count: u8) -> Option<WayMask> {
    let count = count.min(ways - first);
    if count == 0 {
        None
    } else {
        Some(WayMask::contiguous(first, count).expect("clamped mask is valid"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any operation sequence: occupancy bookkeeping matches the
    /// actual resident-line count, and capacity is never exceeded.
    #[test]
    fn occupancy_consistent(ops in proptest::collection::vec(op_strategy(4), 1..200)) {
        let geom = CacheGeometry::tiny();
        let mut llc = Llc::new(geom);
        let ddio = WayMask::contiguous(2, 2).unwrap();
        for op in &ops {
            match *op {
                Op::Core { agent, mask_first, mask_count, addr, write } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    let op = if write { CoreOp::Write } else { CoreOp::Read };
                    llc.core_access(AgentId::new(agent), mask, addr, op);
                }
                Op::Writeback { agent, mask_first, mask_count, addr } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    llc.core_writeback(AgentId::new(agent), mask, addr);
                }
                Op::IoWrite { addr } => { llc.io_write(ddio, addr); }
                Op::IoRead { addr } => { llc.io_read(addr); }
            }
        }
        let sum: u64 = llc.stats().agents().map(|(_, a)| a.occupancy_lines).sum();
        prop_assert_eq!(sum, llc.valid_lines());
        prop_assert!(llc.valid_lines() <= geom.total_lines());
    }

    /// DDIO accounting: every io_write is exactly one hit or one miss, and
    /// per-slice counts sum to the totals.
    #[test]
    fn ddio_counts_partition(addrs in proptest::collection::vec(0u64..1 << 16, 1..300)) {
        let mut llc = Llc::new(CacheGeometry::tiny());
        let ddio = WayMask::contiguous(0, 2).unwrap();
        for &a in &addrs {
            llc.io_write(ddio, a);
        }
        let st = llc.stats();
        prop_assert_eq!(st.ddio_hits() + st.ddio_misses(), addrs.len() as u64);
    }

    /// An access immediately after a miss to the same line hits
    /// (no spontaneous eviction).
    #[test]
    fn miss_then_hit(addr in 0u64..1 << 30, first in 0u8..4, count in 1u8..=4) {
        let count = count.min(4 - first);
        prop_assume!(count >= 1);
        let mut llc = Llc::new(CacheGeometry::tiny());
        let mask = WayMask::contiguous(first, count).unwrap();
        let a = AgentId::new(0);
        llc.core_access(a, mask, addr, CoreOp::Read);
        prop_assert!(llc.core_access(a, mask, addr, CoreOp::Read).is_hit());
    }

    /// The production SoA / compact-LRU implementation and the naive
    /// tick-based reference model stay in lock step over random
    /// interleaved core and DDIO operations: identical per-op outcomes
    /// (including writeback flags), identical derived statistics, and
    /// identical final contents (residency, ownership, line counts).
    #[test]
    fn soa_lru_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(8), 1..400),
    ) {
        let geom = CacheGeometry::new(8, 16, 2).expect("valid geometry");
        let mut llc = Llc::new(geom);
        let mut reference = reference::RefLlc::new(geom);
        let ddio = WayMask::contiguous(6, 2).unwrap();
        let mut expected_refs = std::collections::BTreeMap::<AgentId, (u64, u64)>::new();
        for op in &ops {
            match *op {
                Op::Core { agent, mask_first, mask_count, addr, write } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    let a = AgentId::new(agent);
                    let op = if write { CoreOp::Write } else { CoreOp::Read };
                    let got = llc.core_access(a, mask, addr, op);
                    let want = reference.core_access(a, mask, addr, op);
                    prop_assert_eq!(got, want);
                    let e = expected_refs.entry(a).or_default();
                    e.0 += 1;
                    if got.is_miss() { e.1 += 1; }
                }
                Op::Writeback { agent, mask_first, mask_count, addr } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    let a = AgentId::new(agent);
                    llc.core_writeback(a, mask, addr);
                    reference.core_writeback(a, mask, addr);
                }
                Op::IoWrite { addr } => {
                    let got = llc.io_write(ddio, addr);
                    let want = reference.io_write(ddio, addr);
                    prop_assert_eq!(got, want);
                    let e = expected_refs.entry(AgentId::IO).or_default();
                    e.0 += 1;
                    if got.is_ddio_miss() { e.1 += 1; }
                }
                Op::IoRead { addr } => {
                    let got = llc.io_read(addr);
                    let want = reference.io_read(addr);
                    prop_assert_eq!(got, want);
                }
            }
        }
        // Derived statistics agree with the oracle and the outcome tally.
        prop_assert_eq!(llc.stats().evictions, reference.evictions);
        prop_assert_eq!(llc.mem().read_lines(), reference.mem_reads);
        prop_assert_eq!(llc.mem().write_lines(), reference.mem_writes);
        prop_assert_eq!(llc.valid_lines(), reference.valid_lines());
        for (a, (refs, misses)) in &expected_refs {
            let st = llc.stats().agent(*a);
            prop_assert_eq!(st.references, *refs);
            prop_assert_eq!(st.misses, *misses);
        }
        let occupancy: u64 = llc.stats().agents().map(|(_, s)| s.occupancy_lines).sum();
        prop_assert_eq!(occupancy, reference.valid_lines());
        // Final contents agree line by line for every touched address.
        for op in &ops {
            let addr = match *op {
                Op::Core { addr, .. }
                | Op::Writeback { addr, .. }
                | Op::IoWrite { addr }
                | Op::IoRead { addr } => addr,
            };
            prop_assert_eq!(llc.contains(addr), reference.contains(addr));
            prop_assert_eq!(llc.owner_of(addr), reference.owner_of(addr));
        }
    }

    /// The batched pipeline is bit-identical to the serial path over
    /// random interleaved core/DDIO streams under mixed CAT masks: the
    /// same per-op hit/miss resolution, the same derived statistics
    /// (including first-touch agent registration order), and the same
    /// final contents and replacement state — victim choices included,
    /// via the state digest — regardless of how the stream is cut into
    /// flush windows.
    #[test]
    fn batched_matches_serial(
        ops in proptest::collection::vec(op_strategy(8), 1..500),
        window in 1usize..300,
    ) {
        let geom = CacheGeometry::new(8, 16, 4).expect("valid geometry");
        let ddio = WayMask::contiguous(6, 2).unwrap();

        // Serial reference pass, recording every demand access's outcome.
        let mut serial = Llc::new(geom);
        let mut want_hits = Vec::new();
        for op in &ops {
            match *op {
                Op::Core { agent, mask_first, mask_count, addr, write } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    let op = if write { CoreOp::Write } else { CoreOp::Read };
                    want_hits.push(serial.core_access(AgentId::new(agent), mask, addr, op).is_hit());
                }
                Op::Writeback { agent, mask_first, mask_count, addr } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    serial.core_writeback(AgentId::new(agent), mask, addr);
                }
                Op::IoWrite { addr } => { serial.io_write(ddio, addr); }
                Op::IoRead { addr } => { serial.io_read(addr); }
            }
        }

        let mut batched = Llc::new(geom);
        let mut got_hits = Vec::new();
        let mut handles: Vec<BatchHandle> = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            match *op {
                Op::Core { agent, mask_first, mask_count, addr, write } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    let op = if write { CoreOp::Write } else { CoreOp::Read };
                    handles.push(batched.batch_core_access(AgentId::new(agent), mask, addr, op));
                }
                Op::Writeback { agent, mask_first, mask_count, addr } => {
                    let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) else {
                        continue;
                    };
                    batched.batch_core_writeback(AgentId::new(agent), mask, addr);
                }
                Op::IoWrite { addr } => batched.batch_io_write(ddio, addr),
                Op::IoRead { addr } => batched.batch_io_read(addr),
            }
            if (k + 1) % window == 0 {
                batched.batch_flush();
                got_hits.extend(handles.drain(..).map(|h| batched.batch_hit(h)));
            }
        }
        batched.batch_flush();
        got_hits.extend(handles.drain(..).map(|h| batched.batch_hit(h)));

        prop_assert_eq!(&got_hits, &want_hits);
        prop_assert_eq!(batched.state_digest(), serial.state_digest());
        prop_assert_eq!(batched.valid_lines(), serial.valid_lines());
        prop_assert_eq!(batched.stats().evictions, serial.stats().evictions);
        prop_assert_eq!(batched.mem().read_lines(), serial.mem().read_lines());
        prop_assert_eq!(batched.mem().write_lines(), serial.mem().write_lines());
        prop_assert_eq!(batched.stats().ddio_hits(), serial.stats().ddio_hits());
        prop_assert_eq!(batched.stats().ddio_misses(), serial.stats().ddio_misses());
        let got: Vec<_> = batched.stats().agents().map(|(id, s)| (id, *s)).collect();
        let want: Vec<_> = serial.stats().agents().map(|(id, s)| (id, *s)).collect();
        prop_assert_eq!(got, want);
    }

    /// With statistics frozen, the delta-free fast body (`frozen_fast`,
    /// the default) leaves the cache bit-identical to the full body
    /// dispatched against a frozen sink: the same tags, owners, dirty
    /// bits and recency (via the state digest) at every flush boundary,
    /// the same per-op hit resolution, and — because warm windows leave
    /// no statistical residue either way — identical statistics after
    /// the interleaved measured windows. The stream alternates frozen
    /// (warm) and unfrozen (measured) windows so every warm→measure
    /// hand-off the sampled execution path performs is exercised.
    #[test]
    fn frozen_fast_body_matches_full_body(
        ops in proptest::collection::vec(op_strategy(8), 2..400),
        window in 1usize..100,
    ) {
        let geom = CacheGeometry::new(8, 16, 4).expect("valid geometry");
        let ddio = WayMask::contiguous(6, 2).unwrap();
        let run = |fast: bool| {
            let mut llc = Llc::new(geom);
            llc.set_frozen_fast(fast);
            llc.set_stats_frozen(true);
            let mut frozen = true;
            let mut hits = Vec::new();
            let mut digests = Vec::new();
            let mut handles: Vec<BatchHandle> = Vec::new();
            for (k, op) in ops.iter().enumerate() {
                match *op {
                    Op::Core { agent, mask_first, mask_count, addr, write } => {
                        if let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) {
                            let op = if write { CoreOp::Write } else { CoreOp::Read };
                            handles.push(
                                llc.batch_core_access(AgentId::new(agent), mask, addr, op),
                            );
                        }
                    }
                    Op::Writeback { agent, mask_first, mask_count, addr } => {
                        if let Some(mask) = clamp_mask(geom.ways(), mask_first, mask_count) {
                            llc.batch_core_writeback(AgentId::new(agent), mask, addr);
                        }
                    }
                    Op::IoWrite { addr } => llc.batch_io_write(ddio, addr),
                    Op::IoRead { addr } => llc.batch_io_read(addr),
                }
                if (k + 1) % window == 0 {
                    llc.batch_flush();
                    hits.extend(handles.drain(..).map(|h| llc.batch_hit(h)));
                    digests.push((llc.state_digest(), llc.valid_lines()));
                    // Window boundary: alternate warm and measured,
                    // recounting occupancy on the warm -> measure
                    // hand-off exactly as the platform does (it goes
                    // stale across frozen spans by design).
                    frozen = !frozen;
                    llc.set_stats_frozen(frozen);
                    if !frozen {
                        llc.repair_occupancy();
                    }
                }
            }
            llc.batch_flush();
            hits.extend(handles.drain(..).map(|h| llc.batch_hit(h)));
            digests.push((llc.state_digest(), llc.valid_lines()));
            let agents: Vec<_> = llc.stats().agents().map(|(id, s)| (id, *s)).collect();
            let counters = (
                llc.stats().evictions,
                llc.stats().ddio_hits(),
                llc.stats().ddio_misses(),
                llc.mem().read_lines(),
                llc.mem().write_lines(),
            );
            (hits, digests, agents, counters)
        };
        let fast = run(true);
        let full = run(false);
        prop_assert_eq!(&fast.0, &full.0, "hit resolution");
        prop_assert_eq!(&fast.1, &full.1, "state digests");
        prop_assert_eq!(&fast.2, &full.2, "agent stats");
        prop_assert_eq!(fast.3, full.3, "counters");
    }

    /// Memory counters are monotonic over any operation sequence.
    #[test]
    fn memory_counters_monotonic(ops in proptest::collection::vec(op_strategy(4), 1..100)) {
        let mut llc = Llc::new(CacheGeometry::tiny());
        let ddio = WayMask::single(3);
        let mut last = (0u64, 0u64);
        for op in &ops {
            match *op {
                Op::Core { agent, addr, write, .. } => {
                    let op = if write { CoreOp::Write } else { CoreOp::Read };
                    llc.core_access(AgentId::new(agent), WayMask::all(4), addr, op);
                }
                Op::Writeback { agent, addr, .. } => {
                    llc.core_writeback(AgentId::new(agent), WayMask::all(4), addr);
                }
                Op::IoWrite { addr } => { llc.io_write(ddio, addr); }
                Op::IoRead { addr } => { llc.io_read(addr); }
            }
            let now = (llc.mem().read_lines(), llc.mem().write_lines());
            prop_assert!(now.0 >= last.0 && now.1 >= last.1);
            last = now;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// WayMask algebra: iteration agrees with membership; union/intersection
    /// behave as sets; contiguous masks report contiguity.
    #[test]
    fn mask_algebra(a in 0u32..1 << 11, b in 0u32..1 << 11) {
        let ma = WayMask::from_bits(a);
        let mb = WayMask::from_bits(b);
        for w in 0..11u8 {
            prop_assert_eq!(ma.contains(w), a & (1 << w) != 0);
            prop_assert_eq!((ma | mb).contains(w), ma.contains(w) || mb.contains(w));
            prop_assert_eq!((ma & mb).contains(w), ma.contains(w) && mb.contains(w));
            prop_assert_eq!(ma.difference(mb).contains(w), ma.contains(w) && !mb.contains(w));
        }
        prop_assert_eq!(ma.count() as u32, a.count_ones());
        let collected: WayMask = ma.iter().collect();
        prop_assert_eq!(collected, ma);
        prop_assert_eq!(ma.overlaps(mb), !(ma & mb).is_empty());
    }

    #[test]
    fn contiguous_masks_are_contiguous(first in 0u8..31, count in 1u8..16) {
        prop_assume!(first as u32 + count as u32 <= 32);
        let m = WayMask::contiguous(first, count).unwrap();
        prop_assert!(m.is_contiguous());
        prop_assert_eq!(m.count(), count);
        prop_assert_eq!(m.lowest(), Some(first));
        prop_assert_eq!(m.highest(), Some(first + count - 1));
    }
}
