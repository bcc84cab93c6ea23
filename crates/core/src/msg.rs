//! Protocol messages exchanged by the join algorithms, with wire-size
//! accounting.
//!
//! Sizes model the mote implementation: 16-bit attributes, delta-encoded
//! path vectors (§3.1), compact control messages. The link header is added
//! by the simulator.

use crate::cost::Sigma;
use sensor_net::NodeId;
use sensor_query::Tuple;
use sensor_summaries::Constraint;
use std::sync::Arc;

/// A join pair, keyed (s, t).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair {
    pub s: NodeId,
    pub t: NodeId,
}

impl Pair {
    pub fn new(s: NodeId, t: NodeId) -> Self {
        Pair { s, t }
    }

    pub fn partner_of(&self, me: NodeId) -> NodeId {
        if me == self.s {
            self.t
        } else {
            self.s
        }
    }
}

/// Which producer side a data tuple belongs to (bitmask: a node may be
/// eligible on both sides, e.g. Query 3).
pub mod side {
    pub const S: u8 = 1;
    pub const T: u8 = 2;
}

/// How a data/result message is being routed.
#[derive(Debug, Clone, PartialEq)]
pub enum Route {
    /// Follow the primary routing tree upward to the base station.
    TreeUp,
    /// Follow an explicit node path; `pos` indexes the current node.
    Path { path: Vec<NodeId>, pos: usize },
    /// Follow the sender's installed multicast tree (state pushed by
    /// `McastSetup`).
    Mcast { owner: NodeId },
}

/// Protocol message set (all algorithms share the enum; each uses a
/// subset).
#[derive(Debug, Clone)]
pub enum Msg {
    /// Query dissemination flood.
    QueryFlood,
    /// Base-algorithm initiation: announce static attributes to the base.
    Announce { origin: NodeId, sides: u8 },
    /// Base-algorithm initiation: participation verdict routed back.
    Verdict {
        path: Vec<NodeId>,
        pos: usize,
        participate: bool,
    },
    /// GHT initiation: register membership at the home node.
    GhtRegister {
        origin: NodeId,
        sides: u8,
        key: u64,
        statics: Tuple,
        path: Vec<NodeId>,
        pos: usize,
    },
    /// Innet exploration (multi-tree content-routed search).
    Search {
        tree: u8,
        descending: bool,
        s: NodeId,
        s_static: Tuple,
        /// The source's routable constraints, shared by every hop.
        constraints: Arc<[(u8, Constraint)]>,
        /// Nodes visited so far (ends with the current hop's sender).
        path: Vec<NodeId>,
        /// Primary-tree base distance of each node on `path`.
        hops: Vec<u16>,
    },
    /// t → j: nominate a join node for the pair (§3.2).
    Nominate {
        pair: Pair,
        seq: u32,
        /// Full s..t path the pair will use.
        path: Vec<NodeId>,
        hops: Vec<u16>,
        /// Index of the join node on `path`; `None` = join at base.
        j_idx: Option<usize>,
        assumed: Sigma,
        /// Position of the current node on `path` while routing t → j
        /// (decreasing). For at-base nominations the message goes TreeUp.
        pos: usize,
    },
    /// j → producer: the pair assignment. For on-path assigns (`j_idx`
    /// set) the message walks `path` from the join node toward the
    /// endpoint (`toward_t` selects the direction); for at-base assigns
    /// `path` is a base→producer tree path walked by increasing `pos`.
    Assign {
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        j_idx: Option<usize>,
        pos: usize,
        toward_t: bool,
    },
    /// A producer's data tuple.
    Data {
        from: NodeId,
        sides: u8,
        tuple: Tuple,
        route: Route,
        /// Set when this is a §7 fallback stream the base must adopt.
        fallback: Option<Pair>,
    },
    /// Join results heading to the base (merged per cycle).
    Result {
        count: u16,
        gen_cycle: u32,
        route: Route,
    },
    /// §5.2: producer's ΔCp routed to its group coordinator.
    DeltaCost {
        group: u64,
        from: NodeId,
        members: Vec<NodeId>,
        delta: f64,
        path: Vec<NodeId>,
        pos: usize,
    },
    /// §5.2: a coordinator announcing itself to a member whose ΔCp it has
    /// not seen (Algorithm 1 lines 7-8: members adopt the lowest-id
    /// coordinator and re-send their cost difference).
    CoordPing {
        group: u64,
        coordinator: NodeId,
        path: Vec<NodeId>,
        pos: usize,
    },
    /// §5.2: coordinator's verdict (Algorithm 1).
    GroupDecision {
        group: u64,
        coordinator: NodeId,
        seq: u32,
        innet: bool,
        path: Vec<NodeId>,
        pos: usize,
    },
    /// §6: window + estimate hand-off when the join node migrates.
    WindowXfer {
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        hops: Vec<u16>,
        new_j_idx: Option<usize>,
        assumed: Sigma,
        win_s: Vec<Tuple>,
        win_t: Vec<Tuple>,
        route: Route,
    },
    /// Appendix E: push multicast-tree state to interior nodes.
    McastSetup {
        owner: NodeId,
        /// (node, children) adjacency entries, delivered hop by hop.
        edges: Vec<(NodeId, Vec<NodeId>)>,
        path: Vec<NodeId>,
        pos: usize,
    },
    /// Appendix E: snooped path-collapse opportunity reported to `owner`.
    CollapseHint {
        owner: NodeId,
        n1: NodeId,
        n2: NodeId,
        path: Vec<NodeId>,
        pos: usize,
    },
    /// §7: route failure notification heading back to the producer.
    RouteBroken {
        pair: Pair,
        failed: NodeId,
        path: Vec<NodeId>,
        pos: usize,
    },
    /// §7: local liveness probe (broadcast, neighbors ignore silently).
    Probe,
}

/// Delta-encoded path vector: 2-byte origin + ~1 byte per subsequent hop.
pub fn path_bytes(len: usize) -> u32 {
    if len == 0 {
        0
    } else {
        2 + (len as u32 - 1)
    }
}

/// Compact static-tuple excerpt carried by searches/registrations: only
/// the handful of static attributes the join verification needs.
pub const STATIC_EXCERPT_BYTES: u32 = 8;

fn constraints_bytes(cs: &[(u8, Constraint)]) -> u32 {
    cs.iter().map(|(_, c)| 1 + c.wire_bytes() as u32).sum()
}

impl Msg {
    /// Payload size on the wire (link header excluded). `data_bytes` is
    /// the query-specific tuple excerpt size, `result_bytes` the
    /// projected-result size.
    pub fn wire_bytes(&self, data_bytes: u32, result_bytes: u32) -> u32 {
        match self {
            Msg::QueryFlood => 40, // compiled query broadcast
            Msg::Announce { .. } => 3 + STATIC_EXCERPT_BYTES,
            Msg::Verdict { path, .. } => 1 + path_bytes(path.len()),
            Msg::GhtRegister { path, .. } => 11 + STATIC_EXCERPT_BYTES + path_bytes(path.len()),
            Msg::Search {
                constraints, path, ..
            } => {
                // tree + flags + origin + statics + constraints + path +
                // delta-encoded hops array (§3.1: "delta encoded").
                4 + STATIC_EXCERPT_BYTES
                    + constraints_bytes(constraints)
                    + path_bytes(path.len())
                    + path.len() as u32
            }
            Msg::Nominate { path, .. } => 12 + path_bytes(path.len()) + path.len() as u32,
            Msg::Assign { path, .. } => 10 + path_bytes(path.len()),
            Msg::Data { route, .. } => {
                // Established flows route on cached state (flow buffers /
                // path vectors installed during initiation), so data
                // messages carry only a 2-byte flow id, not the full path.
                let route_overhead = match route {
                    Route::TreeUp => 0,
                    Route::Path { .. } => 2,
                    Route::Mcast { .. } => 2, // owner id; tree state is cached
                };
                data_bytes + 1 + route_overhead
            }
            Msg::Result { count, .. } => 4 + *count as u32 * result_bytes,
            Msg::DeltaCost { members, path, .. } => {
                10 + 2 * members.len() as u32 + path_bytes(path.len())
            }
            Msg::CoordPing { path, .. } => 8 + path_bytes(path.len()),
            Msg::GroupDecision { path, .. } => 12 + path_bytes(path.len()),
            Msg::WindowXfer {
                win_s, win_t, path, ..
            } => 14 + (win_s.len() + win_t.len()) as u32 * data_bytes + path_bytes(path.len()),
            Msg::McastSetup { edges, path, .. } => {
                let state: u32 = edges.iter().map(|(_, cs)| 2 + 2 * cs.len() as u32).sum();
                2 + state + path_bytes(path.len())
            }
            Msg::CollapseHint { path, .. } => 8 + path_bytes(path.len()),
            Msg::RouteBroken { path, .. } => 8 + path_bytes(path.len()),
            Msg::Probe => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_partner() {
        let p = Pair::new(NodeId(1), NodeId(2));
        assert_eq!(p.partner_of(NodeId(1)), NodeId(2));
        assert_eq!(p.partner_of(NodeId(2)), NodeId(1));
    }

    #[test]
    fn path_encoding_size() {
        assert_eq!(path_bytes(0), 0);
        assert_eq!(path_bytes(1), 2);
        assert_eq!(path_bytes(5), 6);
    }

    #[test]
    fn data_message_sizes() {
        let d = Msg::Data {
            from: NodeId(1),
            sides: side::S,
            tuple: Tuple::new(NodeId(1), 0),
            route: Route::TreeUp,
            fallback: None,
        };
        assert_eq!(d.wire_bytes(6, 10), 7);
        let d2 = Msg::Data {
            from: NodeId(1),
            sides: side::S,
            tuple: Tuple::new(NodeId(1), 0),
            route: Route::Path {
                path: vec![NodeId(1), NodeId(2), NodeId(3)],
                pos: 0,
            },
            fallback: None,
        };
        assert!(d2.wire_bytes(6, 10) > d.wire_bytes(6, 10));
    }

    #[test]
    fn merged_results_cheaper_than_separate() {
        let merged = Msg::Result {
            count: 3,
            gen_cycle: 0,
            route: Route::TreeUp,
        };
        let single = Msg::Result {
            count: 1,
            gen_cycle: 0,
            route: Route::TreeUp,
        };
        assert!(merged.wire_bytes(6, 10) < 3 * single.wire_bytes(6, 10));
    }

    #[test]
    fn window_transfer_scales_with_window() {
        let mk = |n: usize| Msg::WindowXfer {
            pair: Pair::new(NodeId(1), NodeId(2)),
            seq: 0,
            path: vec![],
            hops: vec![],
            new_j_idx: None,
            assumed: Sigma::new(1.0, 1.0, 1.0),
            win_s: vec![Tuple::new(NodeId(1), 0); n],
            win_t: vec![],
            route: Route::TreeUp,
        };
        assert_eq!(mk(4).wire_bytes(6, 10) - mk(0).wire_bytes(6, 10), 24);
    }
}
