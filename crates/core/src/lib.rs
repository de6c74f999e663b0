//! # bvl-core — the cross-simulations of *BSP vs LogP*
//!
//! This crate is the paper's primary contribution made executable:
//!
//! * [`logp_on_bsp`] — **Theorem 1**: stall-free LogP programs run on a BSP
//!   host with slowdown `O(1 + g/G + ℓ/L)` by simulating cycles of `⌈L/2⌉`
//!   LogP steps per superstep.
//! * [`bsp_on_logp`] — **Theorem 2** (deterministic: CB synchronization +
//!   sorting-based h-relation decomposition + pipelined routing cycles) and
//!   **Theorem 3** (randomized batching, no stalling w.h.p.), plus the
//!   Combine-and-Broadcast primitive of **Propositions 1–2** and the
//!   off-line optimal router of §4.2.
//! * [`stalling`] — the stalling regime: hot-spot throughput under the
//!   Stalling Rule, the naive stalling extension of Theorem 1, and the
//!   `O(Gh²)` worst case.
//! * [`anomalies`] — the §2.2 arguments for `max{2, o} ≤ G ≤ L`, executable.
//! * [`slowdown`] — the paper's analytic bounds (`S(L,G,p,h)`, `T_CB`,
//!   `β`, …) for measured-vs-predicted reporting.
//!
//! Every protocol moves real data through the `bvl-logp`/`bvl-bsp` engines;
//! stall-freedom claims are enforced by the engines (`forbid_stalling`),
//! not assumed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomalies;
pub mod bsp_on_logp;
pub mod logp_on_bsp;
pub mod partition;
pub mod slowdown;
pub mod stalling;

pub use bsp_on_logp::cb::{run_cb, word_combine, CbReport, Combine, TreeShape};
pub use bsp_on_logp::phase::route_offline;
pub use bsp_on_logp::route_det::{
    deterministic_routable, route_deterministic, RouteDetReport, SortScheme,
};
pub use bsp_on_logp::route_rand::{route_randomized, RouteRandReport};
pub use bsp_on_logp::runner::{
    simulate_bsp_on_logp, RoutingStrategy, SuperstepBreakdown, Theorem2Config, Theorem2Report,
    DEFAULT_SUPERSTEP_BUDGET,
};
pub use logp_on_bsp::{
    simulate_logp_on_bsp, simulate_logp_on_bsp_clustered, Theorem1Config, Theorem1Report,
    WorkPreservingReport, DEFAULT_HOST_BUDGET,
};
pub use partition::{bsp_coschedule, logp_coschedule, BspCoscheduleReport, LogpCoscheduleReport};
