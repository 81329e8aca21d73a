//! The two-level routing hierarchy of paper §3.
//!
//! * [`igp`] — interior gateway protocols: each AS independently computes
//!   shortest paths among its own routers, by raw hop count (small ASes,
//!   "including the authors' home AS") or by manually set delay-like
//!   metrics (large ASes).
//! * [`bgp`] — the exterior protocol: policy-driven route selection with the
//!   standard preference lattice (customer > peer > provider), shortest
//!   AS-path tie-breaking, and Gao-Rexford ("no-valley") export rules.
//! * [`path`] — end-to-end path resolution: walking the selected AS path
//!   while each transit AS applies early-exit ("hot-potato") routing to pick
//!   its egress, then stitching IGP segments together.
//! * [`flaps`] — transient route changes: pairs of ASes occasionally fall
//!   back to their second-choice route, as in the instability studies the
//!   paper cites \[LMJ97\].

pub mod bgp;
pub mod flaps;
pub mod igp;
pub mod path;

/// How end-to-end paths are selected. A dataset takes it from its spec's
/// `routing` field; the routing-policy ablation (DESIGN.md §5) generates
/// UW3 once per mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingMode {
    /// BGP policy routing with early-exit (hot-potato) egress selection —
    /// the Internet the paper measured.
    #[default]
    PolicyHotPotato,
    /// BGP policy routing, but each transit AS picks the egress that
    /// minimizes its local estimate of delay to the next AS ("cold potato").
    PolicyBestExit,
    /// Idealized global shortest-propagation-delay routing over the whole
    /// router graph — ignores AS boundaries and policy entirely. Negative
    /// control: alternate paths should buy almost nothing here.
    GlobalShortestDelay,
}
