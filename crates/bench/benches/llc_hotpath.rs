//! Hot-path benches of the SoA cache core: the three access mixes that
//! dominate the repro sweep's wall clock.
//!
//! * `hit_dominated` — a resident working set re-walked in place: pure
//!   probe + compact-LRU touch, no victim selection.
//! * `miss_dominated` — a working set far beyond the masked capacity:
//!   probe failure + bitwise victim selection + install + eviction
//!   accounting on every access.
//! * `ddio_write_allocate` — the paper's inbound-DMA pattern: a device
//!   ring buffer cycling through the 2-way DDIO mask, write-allocating
//!   and evicting dirty lines (writebacks) at steady state.
//! * `batched_window/1w` — the batch pipeline over 1024-access windows,
//!   flushed inline in the calling thread; informational, for comparing
//!   batching overhead against the serial calls above (results are
//!   bit-identical either way).
//! * `warmup_window/frozen_1w` — the same batched window with
//!   statistics frozen but the frozen fast body disabled: the full
//!   per-access pipeline running against a frozen sink.
//! * `warmup_window/warm_frozen_fast` — the default frozen-stats
//!   configuration: the shard dispatches the delta-free fast body, which
//!   skips outcome recording, occupancy deltas, and stat merging
//!   entirely. The gap against `frozen_1w` is what the fast body buys
//!   every warm epoch.
//!
//! Run with `cargo bench -p iat-bench --bench llc_hotpath`; CI runs
//! `cargo bench -p iat-bench --bench llc_hotpath -- --test` as a smoke.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iat_cachesim::{AgentId, CacheGeometry, CoreOp, Llc, WayMask};
use std::hint::black_box;

const LINE: u64 = 64;

fn bench_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("llc_hotpath");
    group.throughput(Throughput::Elements(1));

    group.bench_function("hit_dominated", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        let agent = AgentId::new(0);
        let mask = WayMask::all(geom.ways());
        // A working set of half the masked capacity, fully resident.
        let lines = geom.total_lines() / 2;
        for i in 0..lines {
            llc.core_access(agent, mask, i * LINE, CoreOp::Read);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % lines;
            black_box(llc.core_access(agent, mask, i * LINE, CoreOp::Read))
        });
    });

    group.bench_function("miss_dominated", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        let agent = AgentId::new(0);
        // Two ways only, streamed far beyond their capacity: every
        // access probes, misses, selects a victim, and installs.
        let mask = WayMask::contiguous(0, 2).expect("mask");
        let span = geom.total_lines() * 8;
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % span;
            black_box(llc.core_access(agent, mask, i * LINE, CoreOp::Read))
        });
    });

    group.bench_function("ddio_write_allocate", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        // The paper's default: DDIO confined to 2 ways, written by a
        // ring buffer larger than those ways hold — steady-state
        // write-allocates with dirty evictions (Leaky DMA).
        let ddio = WayMask::contiguous(9, 2).expect("mask");
        let ring_lines = geom.total_lines(); // 4x the 2-way capacity
        let mut slot = 0u64;
        b.iter(|| {
            slot = (slot + 1) % ring_lines;
            black_box(llc.io_write(ddio, slot * LINE))
        });
    });

    group.finish();

    // The batch pipeline over the same miss-heavy mix: enqueue a window,
    // flush inline, read outcomes.
    const WINDOW: u64 = 1024;
    let mut group = c.benchmark_group("llc_hotpath_batched");
    group.throughput(Throughput::Elements(WINDOW));
    group.bench_function("batched_window/1w", |b| {
        let geom = CacheGeometry::xeon_6140_llc();
        let mut llc = Llc::new(geom);
        let agent = AgentId::new(0);
        let mask = WayMask::contiguous(0, 2).expect("mask");
        let span = geom.total_lines() * 8;
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..WINDOW {
                i = (i + 1) % span;
                llc.batch_core_access(agent, mask, i * LINE, CoreOp::Read);
            }
            llc.batch_flush();
            black_box(llc.accesses())
        });
    });

    // The same miss-heavy window with statistics frozen — the
    // functional-warmup configuration the sampled execution path runs
    // between fast-forward and measured segments. `frozen_1w` pins the
    // fast body *off* (the pre-fast-path baseline: full per-access
    // pipeline against a frozen sink); `warm_frozen_fast` is the default
    // configuration, where the shard runs the delta-free fast body.
    // Cache state is bit-identical either way (pinned by the
    // `frozen_fast_body_matches_full_body` proptest); only the work per
    // access differs.
    for (name, fast) in [("frozen_1w", false), ("warm_frozen_fast", true)] {
        group.bench_function(format!("warmup_window/{name}"), |b| {
            let geom = CacheGeometry::xeon_6140_llc();
            let mut llc = Llc::new(geom);
            llc.set_stats_frozen(true);
            llc.set_frozen_fast(fast);
            let agent = AgentId::new(0);
            let mask = WayMask::contiguous(0, 2).expect("mask");
            let span = geom.total_lines() * 8;
            let mut i = 0u64;
            b.iter(|| {
                for _ in 0..WINDOW {
                    i = (i + 1) % span;
                    llc.batch_core_access(agent, mask, i * LINE, CoreOp::Read);
                }
                llc.batch_flush();
                black_box(llc.valid_lines())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
