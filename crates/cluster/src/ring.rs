//! The consistent-hash ring: canonical fingerprints → node slots.
//!
//! Each node contributes [`DEFAULT_VNODES`] points on a `u64` ring,
//! derived from a stable hash of its *name* (not its position in the node
//! list), so:
//!
//! * every router instance — and every release — builds the identical
//!   ring from the identical node list;
//! * adding or removing one node moves only the keys whose successor
//!   point belonged to that node, ≈ `1/N` of the keyspace, because the
//!   other nodes' points don't depend on the departed node at all.
//!
//! A key is placed by [`arrayflow_engine::fingerprint_route_hash`] — the
//! same folding the memo cache's sharding contract uses — then routed to
//! the node owning the first ring point at or clockwise of the key's
//! hash. With a few hundred virtual nodes per node the keyspace split is
//! within a few percent of uniform (see the balance tests).

use arrayflow_engine::fingerprint_route_hash;
use arrayflow_ir::Fingerprint;

/// Virtual nodes per node: enough for a max/min shard-load ratio
/// comfortably under 1.3 at up to 16 nodes, cheap to build and search.
pub const DEFAULT_VNODES: usize = 256;

/// The FNV-1a loop over a byte string, multiplying by `prime`; with the
/// FNV prime, the stable node-name hash seeding each node's vnode points.
fn fnv1a(bytes: &[u8], prime: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(prime);
    }
    h
}

/// splitmix64 finalizer: spreads a node-name seed plus vnode counter
/// into uniformly distributed ring points.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The router's shard key for a program that is not one canonical loop:
/// the FNV-1a loop over `bytes`, splitmix-finished. Its multiplier is not
/// the FNV prime, and stays: another would move every such program to
/// another shard, away from its cached reports.
pub fn source_route_hash(bytes: &[u8]) -> u64 {
    splitmix(fnv1a(bytes, 0x1_0000_01B3))
}

/// A consistent-hash ring over node slots `0..n`.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, slot)` sorted by point; binary-searched on lookup.
    points: Vec<(u64, u32)>,
    nodes: usize,
}

impl Ring {
    /// Builds the ring: [`DEFAULT_VNODES`] points per node name. Node
    /// *names* seed the points, node *positions* are what lookups return,
    /// so callers index their own node table with the result.
    ///
    /// Panics if `node_names` is empty.
    pub fn build(node_names: &[impl AsRef<str>]) -> Ring {
        assert!(!node_names.is_empty(), "ring needs at least one node");
        let mut points = Vec::with_capacity(node_names.len() * DEFAULT_VNODES);
        for (slot, name) in node_names.iter().enumerate() {
            let seed = fnv1a(name.as_ref().as_bytes(), 0x0000_0100_0000_01B3);
            for v in 0..DEFAULT_VNODES as u64 {
                points.push((splitmix(seed ^ splitmix(v)), slot as u32));
            }
        }
        points.sort_unstable();
        // Identical names would alias every point; identical *points*
        // across distinct names are astronomically unlikely but resolved
        // deterministically by the slot tiebreak in the sort above.
        Ring {
            points,
            nodes: node_names.len(),
        }
    }

    /// Number of nodes the ring was built over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node slot owning hash `h`: the first point at or clockwise of
    /// `h`, wrapping at the top of the `u64` space.
    pub fn node_for_hash(&self, h: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, slot) = self.points[if i == self.points.len() { 0 } else { i }];
        slot as usize
    }

    /// The node slot owning a canonical fingerprint (little-endian
    /// bytes, as they travel on the wire).
    pub fn node_for_fingerprint(&self, fingerprint: [u8; 16]) -> usize {
        self.node_for_hash(fingerprint_route_hash(Fingerprint(u128::from_le_bytes(
            fingerprint,
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node-{i}")).collect()
    }

    /// 10k pseudo-random fingerprints from the same splitmix family the
    /// workloads crate uses.
    fn sample_fingerprints(n: usize) -> Vec<[u8; 16]> {
        let mut out = Vec::with_capacity(n);
        let mut s = 0xA076_1D64_78BD_642Fu64;
        for _ in 0..n {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let lo = splitmix(s);
            let hi = splitmix(s ^ 0x5851_F42D_4C95_7F2D);
            out.push((((hi as u128) << 64) | lo as u128).to_le_bytes());
        }
        out
    }

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let ring = Ring::build(&names(5));
        let ring2 = Ring::build(&names(5));
        for fp in sample_fingerprints(1000) {
            let a = ring.node_for_fingerprint(fp);
            assert!(a < 5);
            assert_eq!(a, ring2.node_for_fingerprint(fp));
        }
    }

    #[test]
    fn balance_within_ratio_for_2_to_16_nodes() {
        // Acceptance: max/min shard load ratio ≤ 1.3 on 10k fingerprints.
        let fps = sample_fingerprints(10_000);
        for n in 2..=16 {
            let ring = Ring::build(&names(n));
            let mut loads = vec![0u64; n];
            for &fp in &fps {
                loads[ring.node_for_fingerprint(fp)] += 1;
            }
            let max = *loads.iter().max().unwrap() as f64;
            let min = *loads.iter().min().unwrap() as f64;
            assert!(min > 0.0, "empty shard at n={n}: {loads:?}");
            assert!(
                max / min <= 1.3,
                "imbalance at n={n}: ratio={:.3} loads={loads:?}",
                max / min
            );
        }
    }

    #[test]
    fn node_add_and_remove_move_few_keys() {
        // Acceptance: ≤ 1/N + ε of keys move when one node joins or
        // leaves an N-node ring.
        let fps = sample_fingerprints(10_000);
        for n in [2usize, 4, 8, 15] {
            let before = Ring::build(&names(n));
            // Add one node.
            let grown = Ring::build(&names(n + 1));
            let moved_add = fps
                .iter()
                .filter(|&&fp| before.node_for_fingerprint(fp) != grown.node_for_fingerprint(fp))
                .count() as f64
                / fps.len() as f64;
            let bound_add = 1.0 / (n + 1) as f64 + 0.03;
            assert!(
                moved_add <= bound_add,
                "add at n={n}: moved {moved_add:.3} > {bound_add:.3}"
            );
            // Every moved key must land on the new node (nothing
            // reshuffles between survivors).
            for &fp in &fps {
                let (a, b) = (
                    before.node_for_fingerprint(fp),
                    grown.node_for_fingerprint(fp),
                );
                if a != b {
                    assert_eq!(b, n, "key moved between surviving nodes");
                }
            }
            // Remove the last node (same pair, other direction): only the
            // removed node's keys move.
            for &fp in &fps {
                let (a, b) = (
                    grown.node_for_fingerprint(fp),
                    before.node_for_fingerprint(fp),
                );
                if a != b {
                    assert_eq!(a, n, "removal moved a surviving node's key");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_ring_panics() {
        let _ = Ring::build(&Vec::<String>::new());
    }
}
