//! Cluster topology: the ordered node list, the ring built over it, and
//! the replica relation.
//!
//! Replicas are **per-node, not per-key**: node `i`'s designated replica
//! is node `(i + 1) % n` in list order. That keeps the replication
//! fan-out one stream per node — each node ships its whole segment log
//! to exactly one peer (`serve --replicate-to`) — and lets the router
//! know statically where a dead node's warm copy lives. (A per-key
//! ring-successor scheme would scatter one node's records across every
//! peer and need a replication connection per key range.)

use crate::ring::Ring;

/// One node: a stable identity (the `node` metrics label, the health
/// verb's reply) plus its dial address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Stable node id — seeds the node's ring points.
    pub id: String,
    /// `host:port` to dial.
    pub addr: String,
}

/// The router's static view of the cluster.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    ring: Ring,
}

impl Topology {
    /// Builds a topology over `nodes`.
    ///
    /// Panics if `nodes` is empty (the ring does).
    pub fn new(nodes: Vec<NodeSpec>) -> Topology {
        let ids: Vec<&str> = nodes.iter().map(|n| n.id.as_str()).collect();
        let ring = Ring::build(&ids);
        Topology { nodes, ring }
    }

    /// Parses a `--router` node list: comma-separated entries, each
    /// either `addr` (id defaults to the address) or `id=addr`.
    /// Duplicate ids are rejected — they would alias every ring point.
    pub fn parse(spec: &str) -> Result<Topology, String> {
        let mut nodes = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (id, addr) = match entry.split_once('=') {
                Some((id, addr)) => (id.trim(), addr.trim()),
                None => (entry, entry),
            };
            if id.is_empty() || addr.is_empty() {
                return Err(format!("bad node entry {entry:?} (want addr or id=addr)"));
            }
            if nodes.iter().any(|n: &NodeSpec| n.id == id) {
                return Err(format!("duplicate node id {id:?}"));
            }
            nodes.push(NodeSpec {
                id: id.to_string(),
                addr: addr.to_string(),
            });
        }
        if nodes.is_empty() {
            return Err("empty node list".into());
        }
        Ok(Topology::new(nodes))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a (degenerate) routerless topology — never constructed,
    /// but the clippy-idiomatic companion of [`Topology::len`].
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `slot`.
    pub fn node(&self, slot: usize) -> &NodeSpec {
        &self.nodes[slot]
    }

    /// All nodes, in slot order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The ring the topology routes with.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The primary slot for a canonical fingerprint.
    pub fn primary_for(&self, fingerprint: [u8; 16]) -> usize {
        self.ring.node_for_fingerprint(fingerprint)
    }

    /// The designated replica of `slot`: the next node in list order.
    /// Equals `slot` in a single-node topology — i.e. no replica.
    pub fn replica_of(&self, slot: usize) -> usize {
        (slot + 1) % self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_addresses() {
        let t = Topology::parse("127.0.0.1:7001, 127.0.0.1:7002").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.node(0).id, "127.0.0.1:7001");
        assert_eq!(t.node(0).addr, "127.0.0.1:7001");
        assert_eq!(t.replica_of(0), 1);
        assert_eq!(t.replica_of(1), 0);
    }

    #[test]
    fn parse_named_nodes() {
        let t = Topology::parse("a=127.0.0.1:7001,b=127.0.0.1:7002,c=127.0.0.1:7003").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(1).id, "b");
        assert_eq!(t.node(1).addr, "127.0.0.1:7002");
        assert_eq!(t.replica_of(2), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Topology::parse("").is_err());
        assert!(Topology::parse(" , ,").is_err());
        assert!(Topology::parse("a=,b=x").is_err());
        assert!(Topology::parse("a=x,a=y").is_err());
    }

    #[test]
    fn single_node_replica_is_self() {
        let t = Topology::parse("only=127.0.0.1:7001").unwrap();
        assert_eq!(t.replica_of(0), 0);
        assert_eq!(t.primary_for([7; 16]), 0);
    }

    #[test]
    fn routing_is_stable_under_renames_of_others() {
        // A node keeps its keys when an unrelated node is renamed only if
        // names seed the ring — position must not matter.
        let base = Topology::parse("a=1,b=2,c=3").unwrap();
        let reordered = Topology::parse("c=3,a=1,b=2").unwrap();
        for i in 0..1000u128 {
            let fp = (i * 0x9E37_79B9_7F4A_7C15).to_le_bytes();
            let p1 = &base.node(base.primary_for(fp)).id;
            let p2 = &reordered.node(reordered.primary_for(fp)).id;
            assert_eq!(p1, p2, "fingerprint {i} routed to different node ids");
        }
    }
}
