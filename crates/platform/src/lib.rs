//! # iat-platform
//!
//! The simulated server that the IAT daemon manages: one socket of the
//! paper's Xeon Gold 6140 (Table I) with its memory hierarchy
//! ([`iat_cachesim`]), RDT register file ([`iat_rdt`]), performance
//! counters ([`iat_perf`]), NICs ([`iat_netsim`]) and tenants running
//! [`iat_workloads`] models.
//!
//! Execution is **epoch-driven**: each epoch, traffic generators enqueue
//! packets, the DMA engines move them into Rx rings through DDIO, every
//! tenant core spends its cycle budget running its workload, and Tx rings
//! drain back through the device. Performance counters accumulate exactly
//! as hardware would expose them — the managing policy (IAT or a baseline)
//! only ever sees those counters.
//!
//! ## Time scaling
//!
//! Simulating 40 Gb/s at full fidelity is needlessly slow; the platform
//! applies a `time_scale` factor `S` (default 100) that divides *both* the
//! per-core cycle budget and the traffic rate per epoch. Ratios — arrival
//! rate vs. service rate, footprints vs. cache capacity, hit rates, IPC —
//! are preserved exactly; absolute throughput numbers are `1/S` of the
//! modelled machine's. Rate-valued thresholds (e.g. the paper's 1 M
//! DDIO misses/s) must be scaled by `1/S`, see
//! [`PlatformConfig::scale_rate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod platform;
mod recorder;
mod sampler;
mod tenant;

pub use config::PlatformConfig;
pub use platform::{take_sim_accesses, take_skipped_epochs, EpochReport, Platform};
pub use recorder::Recorder;
pub use tenant::{Tenant, TenantId, TrafficBinding};
