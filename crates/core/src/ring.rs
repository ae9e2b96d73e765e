//! Consistent-hash ring for feature sharding across cluster nodes.
//!
//! The scale-out runtime (`mprec-runtime::cluster`) partitions embedding
//! tables across N nodes by hashing each sparse-feature index onto a
//! ring of virtual node points. Consistent hashing gives the three
//! properties the shard-rebalance property tests pin down
//! (`crates/core/tests/ring.rs`):
//!
//! * **exactly-one owner** — every key maps to exactly one live node;
//! * **minimal remapping** — adding a node moves only the ~K/N keys that
//!   land on the new node's ring points (keys never move *between*
//!   surviving nodes), and removing a node moves only the keys it owned;
//! * **permutation invariance** — the assignment is a pure function of
//!   the node *set*, not the insertion order, because ring points are
//!   kept sorted by `(hash, node)` with the node id breaking ties.
//!
//! Elastic clusters rebalance through the **remap-diff API**:
//! [`HashRing::diff`] lists exactly the keys whose owner changed between
//! two ring states, and [`FeatureShardPlan::apply`] replays that diff
//! onto a materialized shard plan, yielding the plan of the new ring
//! without reassigning the untouched keys (property-tested in
//! `crates/core/tests/ring.rs`).

use mprec_data::splitmix64;

/// Salt separating key hashes from ring-point hashes so a key can never
/// alias the point of the node that owns it.
const KEY_SALT: u64 = 0x5ca1_ab1e_0000_0001;

/// Default virtual points per node: enough to keep the per-node key load
/// within a few tens of percent of K/N for small clusters.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over `u32` node ids with virtual nodes.
///
/// # Examples
///
/// ```
/// use mprec_core::ring::HashRing;
///
/// let mut ring = HashRing::with_nodes(64, [0u32, 1, 2]);
/// let owner = ring.assign(42).unwrap();
/// // Removing an unrelated node never remaps keys owned by others.
/// let other = ring.nodes().iter().copied().find(|&n| n != owner).unwrap();
/// ring.remove_node(other);
/// assert_eq!(ring.assign(42), Some(owner));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// Ring points sorted by `(hash, node)`.
    points: Vec<(u64, u32)>,
    /// Live node ids, sorted.
    nodes: Vec<u32>,
    /// Virtual points per node.
    vnodes: usize,
}

/// Hash of one virtual point of a node.
fn point_hash(node: u32, replica: usize) -> u64 {
    splitmix64(((node as u64) << 32) ^ replica as u64 ^ 0x9E37_79B9_7F4A_7C15)
}

impl HashRing {
    /// Creates an empty ring with `vnodes` virtual points per node
    /// (clamped to at least 1).
    pub fn new(vnodes: usize) -> Self {
        HashRing {
            points: Vec::new(),
            nodes: Vec::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// Creates a ring holding every node in `nodes` (duplicates ignored).
    pub fn with_nodes(vnodes: usize, nodes: impl IntoIterator<Item = u32>) -> Self {
        let mut ring = Self::new(vnodes);
        for n in nodes {
            ring.add_node(n);
        }
        ring
    }

    /// Virtual points per node.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Live node ids, sorted ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is on the ring.
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Adds a node; returns `false` (and changes nothing) if it is
    /// already present.
    pub fn add_node(&mut self, node: u32) -> bool {
        match self.nodes.binary_search(&node) {
            Ok(_) => false,
            Err(pos) => {
                self.nodes.insert(pos, node);
                for replica in 0..self.vnodes {
                    let p = (point_hash(node, replica), node);
                    let at = self.points.partition_point(|q| *q < p);
                    self.points.insert(at, p);
                }
                true
            }
        }
    }

    /// Removes a node; returns `false` if it was not present.
    pub fn remove_node(&mut self, node: u32) -> bool {
        match self.nodes.binary_search(&node) {
            Err(_) => false,
            Ok(pos) => {
                self.nodes.remove(pos);
                self.points.retain(|&(_, n)| n != node);
                true
            }
        }
    }

    /// The node owning `key`, or `None` on an empty ring: the first ring
    /// point at or after the key's hash, wrapping around.
    pub fn assign(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = splitmix64(key ^ KEY_SALT);
        let idx = self.points.partition_point(|&(ph, _)| ph < h);
        let (_, node) = self.points[idx % self.points.len()];
        Some(node)
    }

    /// Assigns `keys` 0..count (the feature-shard use: key = feature
    /// index) and returns the owning node per key.
    pub fn assign_range(&self, count: usize) -> Vec<Option<u32>> {
        (0..count).map(|k| self.assign(k as u64)).collect()
    }

    /// The next *distinct* node clockwise from `node`'s first ring
    /// point — the hedge target for a slow scatter leg on `node`
    /// (deterministic per node set, like every ring property). `None`
    /// when `node` is not on the ring or is the only node.
    ///
    /// # Examples
    ///
    /// ```
    /// use mprec_core::ring::HashRing;
    ///
    /// let ring = HashRing::with_nodes(64, [0u32, 1, 2]);
    /// let next = ring.successor(0).unwrap();
    /// assert_ne!(next, 0);
    /// assert!(ring.successor(9).is_none(), "unknown node has no successor");
    /// ```
    pub fn successor(&self, node: u32) -> Option<u32> {
        if !self.contains(node) || self.nodes.len() < 2 {
            return None;
        }
        let first = self.points.iter().position(|&(_, n)| n == node)?;
        let len = self.points.len();
        for step in 1..len {
            let (_, n) = self.points[(first + step) % len];
            if n != node {
                return Some(n);
            }
        }
        None
    }

    /// The remap diff from `old` to `self` over keys `0..keys`: exactly
    /// the keys whose owner changed, plus the node-set delta. Applying
    /// the result to `old`'s [`FeatureShardPlan`] via
    /// [`FeatureShardPlan::apply`] yields `self`'s plan.
    ///
    /// # Panics
    ///
    /// Panics if either ring is empty (an empty ring owns nothing, so a
    /// diff against it is meaningless).
    ///
    /// # Examples
    ///
    /// ```
    /// use mprec_core::ring::HashRing;
    ///
    /// let old = HashRing::with_nodes(64, [0u32, 1, 2]);
    /// let mut new = old.clone();
    /// new.remove_node(2);
    /// let diff = new.diff(&old, 26);
    /// assert_eq!(diff.removed_nodes(), &[2]);
    /// // Every move drains node 2; survivors keep their keys.
    /// assert!(diff.moves().iter().all(|m| m.from == 2 && m.to != 2));
    /// ```
    pub fn diff(&self, old: &HashRing, keys: u64) -> RemapDiff {
        assert!(
            !self.is_empty() && !old.is_empty(),
            "diff requires non-empty rings"
        );
        let moves = (0..keys)
            .filter_map(|k| {
                let from = old.assign(k).expect("non-empty old ring");
                let to = self.assign(k).expect("non-empty new ring");
                (from != to).then_some(KeyMove { key: k, from, to })
            })
            .collect();
        let added = self
            .nodes
            .iter()
            .copied()
            .filter(|n| !old.contains(*n))
            .collect();
        let removed = old
            .nodes
            .iter()
            .copied()
            .filter(|n| !self.contains(*n))
            .collect();
        RemapDiff {
            moves,
            added,
            removed,
        }
    }
}

/// One key whose owner changed between two ring states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyMove {
    /// The remapped key (feature index in the cluster use).
    pub key: u64,
    /// The owner under the old ring.
    pub from: u32,
    /// The owner under the new ring.
    pub to: u32,
}

/// The difference between two ring states over a key range: exactly the
/// keys whose owner changed (consistent hashing keeps this at ~K/N of
/// the keys per node change) plus the node-set delta. Produced by
/// [`HashRing::diff`], consumed by [`FeatureShardPlan::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapDiff {
    moves: Vec<KeyMove>,
    added: Vec<u32>,
    removed: Vec<u32>,
}

impl RemapDiff {
    /// The remapped keys, ascending; keys not listed kept their owner.
    pub fn moves(&self) -> &[KeyMove] {
        &self.moves
    }

    /// Nodes present in the new ring but not the old, ascending.
    pub fn added_nodes(&self) -> &[u32] {
        &self.added
    }

    /// Nodes present in the old ring but not the new, ascending.
    pub fn removed_nodes(&self) -> &[u32] {
        &self.removed
    }

    /// Whether the diff changes nothing (same node set, no moved keys).
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// Splits this diff into at most `chunks` sub-diffs whose sequential
    /// application equals applying `self` once (pinned by the chain
    /// property tests in `crates/core/tests/ring.rs`). The moved keys are
    /// partitioned into contiguous ascending groups; added nodes ride the
    /// *first* chunk (so every later move targets a live node) and
    /// removed nodes ride the *last* (so no feature is ever owned by an
    /// already-dropped node mid-chain). This is the unit of streaming
    /// shard handoff: each chunk is one incremental plan flip.
    pub fn chunked(&self, chunks: usize) -> Vec<RemapDiff> {
        let chunks = chunks.clamp(1, self.moves.len().max(1));
        let mut out: Vec<RemapDiff> = Vec::with_capacity(chunks);
        let per = self.moves.len().div_ceil(chunks);
        let mut start = 0;
        while start < self.moves.len() {
            let end = (start + per).min(self.moves.len());
            out.push(RemapDiff {
                moves: self.moves[start..end].to_vec(),
                added: Vec::new(),
                removed: Vec::new(),
            });
            start = end;
        }
        if out.is_empty() {
            out.push(RemapDiff { moves: Vec::new(), added: Vec::new(), removed: Vec::new() });
        }
        out.first_mut().expect("at least one chunk").added = self.added.clone();
        out.last_mut().expect("at least one chunk").removed = self.removed.clone();
        out
    }
}

/// A materialized assignment of sparse features (keys `0..features`) to
/// the live nodes of a [`HashRing`] — the cluster's shard map.
///
/// Node ids are the ring's (arbitrary, sparse) `u32` ids; an elastic
/// cluster that failed node 1 and admitted node 9 simply has
/// `nodes() == [0, 2, 9]`. Incremental rebalancing goes through
/// [`FeatureShardPlan::apply`]:
///
/// # Examples
///
/// ```
/// use mprec_core::ring::{FeatureShardPlan, HashRing};
///
/// let old_ring = HashRing::with_nodes(64, [0u32, 1, 2]);
/// let mut plan = FeatureShardPlan::new(&old_ring, 26);
///
/// let mut new_ring = old_ring.clone();
/// new_ring.remove_node(1); // node 1 fails
/// new_ring.add_node(3); //    a fresh node joins
/// plan.apply(&new_ring.diff(&old_ring, 26));
///
/// assert_eq!(plan, FeatureShardPlan::new(&new_ring, 26));
/// assert_eq!(plan.nodes(), &[0, 2, 3]);
/// assert!(plan.features_of(1).is_empty(), "failed node owns nothing");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureShardPlan {
    /// Owning node id per feature.
    node_of: Vec<u32>,
    /// Live node ids, sorted ascending.
    nodes: Vec<u32>,
    /// Features owned per node, parallel to `nodes`, each ascending.
    per_node: Vec<Vec<usize>>,
    /// Open dual-ownership handoffs, sorted by feature: each entry is a
    /// feature still *read*-served by [`FeatureShardPlan::node_of`] whose
    /// incoming owner warms up in the background until the feature is
    /// flipped via [`FeatureShardPlan::commit_handoff`]. Empty outside a
    /// streaming-migration window, so a fully committed plan compares
    /// equal to a freshly computed one.
    pending: Vec<(usize, u32)>,
}

impl FeatureShardPlan {
    /// Assigns `features` sparse features across the ring's live nodes.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn new(ring: &HashRing, features: usize) -> Self {
        let nodes = ring.nodes().to_vec();
        let node_of: Vec<u32> = ring
            .assign_range(features)
            .into_iter()
            .map(|owner| owner.expect("ring has nodes"))
            .collect();
        let mut plan = FeatureShardPlan {
            node_of,
            nodes,
            per_node: Vec::new(),
            pending: Vec::new(),
        };
        plan.rebuild_per_node();
        plan
    }

    /// Builds the canonical plan for the dense node set `0..nodes` with
    /// `vnodes` virtual points each (the cluster's boot layout).
    pub fn for_cluster(nodes: usize, vnodes: usize, features: usize) -> Self {
        let ring = HashRing::with_nodes(vnodes, 0..nodes as u32);
        Self::new(&ring, features)
    }

    /// Replays a [`RemapDiff`] onto this plan: moved features change
    /// owner, added nodes appear (initially owning whatever moved onto
    /// them), removed nodes disappear. The result equals
    /// [`FeatureShardPlan::new`] on the diff's new ring — pinned by the
    /// remap-diff property tests in `crates/core/tests/ring.rs`.
    pub fn apply(&mut self, diff: &RemapDiff) {
        // A still-open handoff window is fast-forwarded first: membership
        // diffs are computed ring-to-ring, so the plan must be back on
        // pure ring assignment before replaying one.
        for (f, to) in std::mem::take(&mut self.pending) {
            self.node_of[f] = to;
        }
        for m in diff.moves() {
            self.node_of[m.key as usize] = m.to;
        }
        for &n in diff.added_nodes() {
            if let Err(pos) = self.nodes.binary_search(&n) {
                self.nodes.insert(pos, n);
            }
        }
        for &n in diff.removed_nodes() {
            if let Ok(pos) = self.nodes.binary_search(&n) {
                self.nodes.remove(pos);
            }
        }
        self.rebuild_per_node();
    }

    fn rebuild_per_node(&mut self) {
        self.per_node = vec![Vec::new(); self.nodes.len()];
        for (f, owner) in self.node_of.iter().enumerate() {
            let slot = self
                .nodes
                .binary_search(owner)
                .expect("feature owned by a live node");
            self.per_node[slot].push(f);
        }
    }

    /// Live node ids, sorted ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of features the plan covers.
    pub fn num_features(&self) -> usize {
        self.node_of.len()
    }

    /// The node owning `feature`.
    pub fn node_of(&self, feature: usize) -> u32 {
        self.node_of[feature]
    }

    /// The features owned by node id `node`, ascending (empty for a node
    /// not in the plan).
    pub fn features_of(&self, node: u32) -> &[usize] {
        match self.nodes.binary_search(&node) {
            Ok(slot) => &self.per_node[slot],
            Err(_) => &[],
        }
    }

    /// Feature count per live node, parallel to
    /// [`FeatureShardPlan::nodes`] (the shard-balance view).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.per_node.iter().map(Vec::len).collect()
    }

    /// Opens a dual-ownership handoff window for `diff`: the diff's added
    /// nodes become live immediately (owning nothing yet), and every
    /// moved feature is registered as *pending* — still read-served by
    /// its old owner — instead of flipping. Chunks of the window are then
    /// flipped incrementally via [`FeatureShardPlan::commit_handoff`]
    /// while traffic flows; once every pending feature has committed, the
    /// plan equals [`FeatureShardPlan::apply`] of the whole diff.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the diff removes nodes: a removed node's
    /// features have no live old owner to read from during the window, so
    /// failure rebalances cannot stream and must go through
    /// [`FeatureShardPlan::apply`].
    pub fn begin_handoff(&mut self, diff: &RemapDiff) {
        debug_assert!(
            diff.removed_nodes().is_empty(),
            "streaming handoff needs live old owners; failures use apply()"
        );
        for &n in diff.added_nodes() {
            if let Err(pos) = self.nodes.binary_search(&n) {
                self.nodes.insert(pos, n);
            }
        }
        for m in diff.moves() {
            self.pending.push((m.key as usize, m.to));
        }
        self.pending.sort_unstable();
        self.pending.dedup();
        self.rebuild_per_node();
    }

    /// Flips `features` (a chunk of the open handoff window) to their
    /// pending incoming owners and returns how many flipped. Features
    /// without a pending handoff are ignored, so replaying a chunk is
    /// idempotent. The caller ships the old owner's warm cache entries
    /// *before* flipping — that ordering is what makes the flip safe
    /// while traffic flows.
    pub fn commit_handoff(&mut self, features: &[usize]) -> usize {
        let mut flipped = 0;
        for &f in features {
            if let Ok(pos) = self.pending.binary_search_by_key(&f, |&(pf, _)| pf) {
                let (_, to) = self.pending.remove(pos);
                self.node_of[f] = to;
                flipped += 1;
            }
        }
        if flipped > 0 {
            self.rebuild_per_node();
        }
        flipped
    }

    /// The open dual-ownership handoffs, sorted by feature: `(feature,
    /// incoming_owner)` pairs whose reads still go to
    /// [`FeatureShardPlan::node_of`].
    pub fn pending_handoffs(&self) -> &[(usize, u32)] {
        &self.pending
    }

    /// The incoming owner of `feature` if it sits inside an open
    /// dual-ownership window, else `None`.
    pub fn incoming_owner(&self, feature: usize) -> Option<u32> {
        self.pending
            .binary_search_by_key(&feature, |&(pf, _)| pf)
            .ok()
            .map(|pos| self.pending[pos].1)
    }

    /// Reassigns `features` to live node `to` immediately (no window) —
    /// the adaptive planner's partial migration primitive. The resulting
    /// plan intentionally diverges from pure ring assignment; it stays
    /// internally consistent and is superseded wholesale by the next
    /// ring-derived plan.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `to` is not a live node of the plan.
    pub fn reassign(&mut self, features: &[usize], to: u32) {
        debug_assert!(
            self.nodes.binary_search(&to).is_ok(),
            "reassign target must be live"
        );
        for &f in features {
            self.node_of[f] = to;
        }
        self.rebuild_per_node();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_assigns_nothing() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.assign(7), None);
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::with_nodes(8, [3u32]);
        for k in 0..100 {
            assert_eq!(ring.assign(k), Some(3));
        }
    }

    #[test]
    fn successor_walks_to_the_next_distinct_node() {
        let ring = HashRing::with_nodes(64, [0u32, 1, 2, 3]);
        for node in 0..4u32 {
            let next = ring.successor(node).expect("multi-node ring has a successor");
            assert_ne!(next, node, "hedge target must be a different node");
            assert!(ring.contains(next));
            // Deterministic: same ring, same answer.
            assert_eq!(ring.successor(node), Some(next));
        }
        // Membership changes reshuffle successors but keep the contract.
        let mut shrunk = ring.clone();
        shrunk.remove_node(2);
        for node in [0u32, 1, 3] {
            let next = shrunk.successor(node).unwrap();
            assert_ne!(next, node);
            assert_ne!(next, 2, "removed node can no longer be a hedge target");
        }
        assert_eq!(shrunk.successor(2), None, "absent node has no successor");
        assert_eq!(HashRing::with_nodes(8, [7u32]).successor(7), None);
        assert_eq!(HashRing::new(8).successor(0), None);
    }

    #[test]
    fn duplicate_add_is_a_no_op() {
        let mut ring = HashRing::with_nodes(8, [1u32, 2]);
        let before = ring.clone();
        assert!(!ring.add_node(1));
        assert_eq!(ring, before);
        assert!(!ring.remove_node(9));
        assert_eq!(ring, before);
    }

    #[test]
    fn assignment_is_reasonably_balanced() {
        let ring = HashRing::with_nodes(DEFAULT_VNODES, 0u32..4);
        let mut counts = [0usize; 4];
        let keys = 4000;
        for k in 0..keys {
            counts[ring.assign(k).unwrap() as usize] += 1;
        }
        let expected = keys as f64 / 4.0;
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.4 * expected && (c as f64) < 2.0 * expected,
                "node {n} owns {c} of {keys} keys"
            );
        }
    }

    #[test]
    fn points_are_sorted_and_sized() {
        let ring = HashRing::with_nodes(16, [5u32, 1, 3]);
        assert_eq!(ring.points.len(), 3 * 16);
        assert!(ring.points.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ring.nodes(), &[1, 3, 5]);
    }

    #[test]
    fn diff_of_identical_rings_is_empty() {
        let ring = HashRing::with_nodes(32, 0u32..4);
        let diff = ring.diff(&ring, 500);
        assert!(diff.is_empty());
        assert!(diff.moves().is_empty());
        assert!(diff.added_nodes().is_empty());
        assert!(diff.removed_nodes().is_empty());
    }

    #[test]
    fn diff_records_join_and_fail_node_deltas() {
        let old = HashRing::with_nodes(32, 0u32..3);
        let mut new = old.clone();
        new.remove_node(0);
        new.add_node(7);
        let diff = new.diff(&old, 64);
        assert_eq!(diff.added_nodes(), &[7]);
        assert_eq!(diff.removed_nodes(), &[0]);
        for m in diff.moves() {
            assert!(m.from == 0 || m.to == 7, "move {m:?} is unforced");
        }
    }

    #[test]
    fn plan_with_sparse_node_ids_covers_every_feature() {
        let ring = HashRing::with_nodes(32, [2u32, 9, 40]);
        let plan = FeatureShardPlan::new(&ring, 26);
        assert_eq!(plan.nodes(), &[2, 9, 40]);
        assert_eq!(plan.num_features(), 26);
        assert_eq!(plan.shard_sizes().iter().sum::<usize>(), 26);
        for f in 0..26 {
            let owner = plan.node_of(f);
            assert!(plan.features_of(owner).contains(&f));
        }
        assert!(plan.features_of(5).is_empty(), "unknown node owns nothing");
    }

    #[test]
    fn applying_a_diff_tracks_the_new_ring() {
        let old = HashRing::with_nodes(64, 0u32..4);
        let mut plan = FeatureShardPlan::new(&old, 26);
        let mut ring = old.clone();
        ring.remove_node(3);
        plan.apply(&ring.diff(&old, 26));
        assert_eq!(plan, FeatureShardPlan::new(&ring, 26));
        let prev = ring.clone();
        ring.add_node(4);
        plan.apply(&ring.diff(&prev, 26));
        assert_eq!(plan, FeatureShardPlan::new(&ring, 26));
        assert_eq!(plan.nodes(), &[0, 1, 2, 4]);
    }
}
