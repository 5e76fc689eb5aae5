//! # slingshot-rosetta
//!
//! The Rosetta switch ASIC (paper §II-A) as the simulator uses it: the
//! 4 × 8 tile grid with two ports per tile and the internal route a packet
//! takes between two ports (row bus, then column channel), plus a
//! calibrated port-to-port latency model reproducing the paper's Fig. 2
//! distribution (mean/median ≈ 350 ns, bulk within 300–400 ns).
//!
//! Queueing inside the switch is not modelled at flit level; the network
//! crate's per-(class, VC) output queues provide the head-of-line-blocking
//! avoidance that Rosetta's request/grant virtual output queues give.

#![warn(missing_docs)]

mod latency;
mod tiles;

pub use latency::LatencyModel;
pub use tiles::{
    internal_hops, internal_route, InternalRoute, Tile, COLS, PORTS, PORTS_PER_TILE, ROWS, TILES,
    XBAR_INPUTS, XBAR_OUTPUTS,
};
