//! The condensation pipeline: incremental Eq. 4 cluster influence.
//!
//! Every heuristic in [`crate::heuristics`] reduces the SW graph by a
//! sequence of pairwise cluster merges. Before this module existed, each
//! merge step rebuilt the whole condensed graph — an O(E + k²) pass per
//! *ranking*, inside an O(n) merge loop, i.e. an O(n³)-ish hot path.
//! [`CondensePipeline`] instead maintains the cluster-level influence
//! matrix *incrementally*: a merge removes one row/column and recombines
//! only the merged cluster's row and column via the paper's Eq. 4
//! (`infl(C→t) = 1 − Π(1 − infl(i→t))`), an O(E + k) update, so each
//! merge costs O(E + k²) total (the k² being the matrix shrink copy)
//! instead of a full rebuild per candidate ranking.
//!
//! # The bitwise contract
//!
//! The incremental matrix is not merely *close* to a full recompute — it
//! is **bitwise equal** to
//! `condense(g, groups, CombineRule::Probabilistic).influence_matrix()`
//! after every merge. This holds because both sides fold edge weights
//! with the same association: complement products are accumulated in
//! global edge-id order (`DiGraph::edges` iteration order), exactly the
//! order `condense` pushes weights into its buckets. Entries whose edge
//! buckets a merge does not touch are carried over verbatim. The
//! property tests in `crates/alloc/tests` pin this contract.
//!
//! Heuristics plug in as [`CondensePolicy`] implementations: [`H1Greedy`]
//! and [`H1PairAll`] rank pairs straight from the incremental matrix;
//! [`PartitionReplay`] drives the pipeline toward a partition computed
//! elsewhere (min-cut for H2/H2′, importance spheres for H3), so every
//! heuristic's merge path flows through the same engine.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use fcm_graph::{condense, CombineRule, GraphError, InfluenceMatrix, Matrix, NodeIdx};
use fcm_substrate::{telemetry, Mutex};

use crate::cluster::{group_conflict, Clustering};
use crate::error::AllocError;
use crate::sw::SwGraph;

/// A pre-flight hook validating a SW graph before a pipeline run.
///
/// Static-analysis layers above this crate install one (see
/// [`set_preflight`]); the allocation layer itself depends on nothing
/// above it, so the hook is how design-time model checking guards
/// [`CondensePipeline::run_policy`] without inverting the crate
/// layering (the same pattern as the substrate pool's counter hook).
/// The `Err` payload is the rendered diagnostic list.
pub type Preflight = fn(&SwGraph) -> Result<(), String>;

static PREFLIGHT_ON: AtomicBool = AtomicBool::new(false);
static PREFLIGHT: Mutex<Option<Preflight>> = Mutex::new(None);

/// Installs (or removes, with `None`) the process-wide pre-flight hook.
/// While no hook is installed a pipeline run costs one relaxed atomic
/// load extra.
pub fn set_preflight(hook: Option<Preflight>) {
    *PREFLIGHT.lock() = hook;
    PREFLIGHT_ON.store(hook.is_some(), Ordering::Release);
}

/// Runs the installed pre-flight hook, if any.
fn run_preflight(g: &SwGraph) -> Result<(), AllocError> {
    if PREFLIGHT_ON.load(Ordering::Acquire) {
        if let Some(hook) = *PREFLIGHT.lock() {
            hook(g).map_err(|summary| AllocError::PreflightFailed { summary })?;
        }
    }
    Ok(())
}

/// Process-wide count of *full* condensations (the O(E + k²) rebuild a
/// [`CondensePipeline`] performs once at construction). Long-running
/// layers above this crate (the `fcm-serve` daemon) assert that after
/// startup every edit flows through the incremental Eq. 4 path — i.e.
/// this counter stays put while they mutate.
static FULL_CONDENSES: AtomicU64 = AtomicU64::new(0);

/// Records one full condensation (called by the pipeline constructors
/// and by anything else that rebuilds a cluster matrix from scratch).
pub fn note_full_condense() {
    FULL_CONDENSES.fetch_add(1, Ordering::Relaxed);
}

/// Full condensations performed by this process so far.
#[must_use]
pub fn full_condense_count() -> u64 {
    FULL_CONDENSES.load(Ordering::Relaxed)
}

/// Returns `m` without row and column `hi` (O(k²) copy; surviving
/// entries are carried over bitwise). The matrix-shrink half of an
/// incremental cluster removal or merge.
#[must_use]
pub fn shrink_row_col(m: &Matrix, hi: usize) -> Matrix {
    let k = m.rows();
    let mut next = Matrix::zeros(k - 1, k - 1);
    for a in 0..k - 1 {
        let sa = a + usize::from(a >= hi);
        for b in 0..k - 1 {
            let sb = b + usize::from(b >= hi);
            next[(a, b)] = m[(sa, sb)];
        }
    }
    next
}

/// Returns `m` with one zero row and column appended — the matrix-grow
/// half of an incremental cluster (or node) addition; the new row and
/// column are then filled by [`eq4_recombine_row_col`].
#[must_use]
pub fn grow_row_col(m: &Matrix) -> Matrix {
    let k = m.rows();
    let mut next = Matrix::zeros(k + 1, k + 1);
    for a in 0..k {
        for b in 0..k {
            next[(a, b)] = m[(a, b)];
        }
    }
    next
}

/// The Eq. 4 complement-product fold shared by both recombiners:
/// returns the new row `gi` and column `gi` as dense value slices
/// (`row[t] = 1 − Π(1 − w)` over `gi → t` edges, diagonal zero).
/// Products accumulate in the order `edges` yields them — global
/// edge-id order at every call site, the association `condense` uses.
fn eq4_fold(
    edges: impl Iterator<Item = (usize, usize, f64)>,
    gi: usize,
    k: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut comp_out = vec![1.0f64; k];
    let mut comp_in = vec![1.0f64; k];
    for (gu, gv, w) in edges {
        if gu == gi {
            comp_out[gv] *= 1.0 - w;
        }
        if gv == gi {
            comp_in[gu] *= 1.0 - w;
        }
    }
    let mut row: Vec<f64> = comp_out.into_iter().map(|c| 1.0 - c).collect();
    let mut col: Vec<f64> = comp_in.into_iter().map(|c| 1.0 - c).collect();
    row[gi] = 0.0;
    col[gi] = 0.0;
    (row, col)
}

/// Recombines row and column `gi` of `influence` via the paper's Eq. 4
/// (`infl(C→t) = 1 − Π(1 − infl(i→t))`) from `edges` — cluster-level
/// `(from, to, weight)` triples **iterated in global edge-id order**
/// with intra-cluster edges already skipped. Folding the complement
/// products in that exact order is the association `condense` uses,
/// which is what makes an incrementally-maintained matrix bitwise-equal
/// to a full recompute (see the module docs).
pub fn eq4_recombine_row_col(
    edges: impl Iterator<Item = (usize, usize, f64)>,
    gi: usize,
    influence: &mut Matrix,
) {
    let k = influence.rows();
    let (row, col) = eq4_fold(edges, gi, k);
    for t in 0..k {
        influence[(gi, t)] = row[t];
        if t != gi {
            influence[(t, gi)] = col[t];
        }
    }
}

/// [`eq4_recombine_row_col`] on a storage-polymorphic
/// [`InfluenceMatrix`]: the identical fold feeds
/// [`InfluenceMatrix::set_row_col`], so dense and CSR pipelines carry
/// the same values (CSR prunes the exact zeros).
pub fn eq4_recombine_row_col_im(
    edges: impl Iterator<Item = (usize, usize, f64)>,
    gi: usize,
    influence: &mut InfluenceMatrix,
) {
    let k = influence.rows();
    let (row, col) = eq4_fold(edges, gi, k);
    influence.set_row_col(gi, &row, &col);
}

/// A merge-step planner driving a [`CondensePipeline`].
///
/// Each round the pipeline asks the policy for a batch of disjoint
/// cluster pairs to merge (indices into the *current* cluster list).
/// An empty batch means the policy is stuck and the run fails with
/// [`AllocError::NoFeasibleClustering`].
pub trait CondensePolicy {
    /// Plans the next round of merges toward `target` clusters.
    ///
    /// Returned pairs must be disjoint (no cluster index appears twice);
    /// the pipeline applies them from the highest index down so earlier
    /// indices stay valid, and re-checks feasibility before each merge.
    fn plan_round(&mut self, pipe: &CondensePipeline<'_>, target: usize) -> Vec<(usize, usize)>;
}

/// The incremental condensation engine.
///
/// Holds the current partition of the SW graph, the node → cluster
/// membership, and the cluster-level influence matrix maintained under
/// the Eq. 4 combination rule (see the module docs for the bitwise
/// contract).
#[derive(Debug, Clone)]
pub struct CondensePipeline<'g> {
    g: &'g SwGraph,
    groups: Vec<Vec<NodeIdx>>,
    membership: Vec<usize>,
    influence: InfluenceMatrix,
    merges: u64,
}

impl<'g> CondensePipeline<'g> {
    /// Starts from the singleton partition (every node its own cluster).
    #[must_use]
    pub fn new(g: &'g SwGraph) -> CondensePipeline<'g> {
        let groups: Vec<Vec<NodeIdx>> = g.node_indices().map(|n| vec![n]).collect();
        let cond = condense(g, &groups, CombineRule::Probabilistic)
            .expect("singletons always form a partition");
        note_full_condense();
        CondensePipeline {
            g,
            membership: (0..groups.len()).collect(),
            influence: InfluenceMatrix::from_dense_auto(cond.influence_matrix()),
            groups,
            merges: 0,
        }
    }

    /// Starts from an existing validated clustering.
    #[must_use]
    pub fn from_clustering(g: &'g SwGraph, clustering: &Clustering) -> CondensePipeline<'g> {
        let groups: Vec<Vec<NodeIdx>> = clustering.clusters().to_vec();
        let cond = condense(g, &groups, CombineRule::Probabilistic)
            .expect("a Clustering is a validated partition");
        note_full_condense();
        let mut membership = vec![0usize; g.node_count()];
        for (ci, group) in groups.iter().enumerate() {
            for &n in group {
                membership[n.index()] = ci;
            }
        }
        CondensePipeline {
            g,
            membership,
            influence: InfluenceMatrix::from_dense_auto(cond.influence_matrix()),
            groups,
            merges: 0,
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no clusters (empty SW graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The current clusters, each a sorted member list.
    #[must_use]
    pub fn groups(&self) -> &[Vec<NodeIdx>] {
        &self.groups
    }

    /// The incrementally-maintained cluster influence matrix (Eq. 4),
    /// in whichever representation the selection policy picked at
    /// construction (dense below the [`fcm_graph::prefer_sparse`]
    /// thresholds, CSR above them).
    #[must_use]
    pub fn influence(&self) -> &InfluenceMatrix {
        &self.influence
    }

    /// Merges applied so far.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Mutual influence between clusters `i` and `j` (both directions
    /// summed) — H1's pairing criterion, read straight from the matrix.
    #[must_use]
    pub fn mutual_influence(&self, i: usize, j: usize) -> f64 {
        self.influence[(i, j)] + self.influence[(j, i)]
    }

    /// All cluster pairs ranked by descending mutual influence
    /// (zero-influence pairs included, last; ties keep `(i, j)`
    /// lexicographic order via the stable sort).
    #[must_use]
    pub fn ranked_pairs(&self) -> Vec<(f64, usize, usize)> {
        let k = self.len();
        let mut pairs = Vec::with_capacity(k * (k.saturating_sub(1)) / 2);
        for i in 0..k {
            for j in (i + 1)..k {
                pairs.push((self.mutual_influence(i, j), i, j));
            }
        }
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite influence"));
        pairs
    }

    /// Whether merging clusters `i` and `j` would satisfy the combination
    /// constraints (replica anti-affinity, EDF-schedulable union).
    #[must_use]
    pub fn can_merge(&self, i: usize, j: usize) -> bool {
        if i >= self.groups.len() || j >= self.groups.len() || i == j {
            return false;
        }
        let mut merged = self.groups[i].clone();
        merged.extend_from_slice(&self.groups[j]);
        group_conflict(self.g, &merged).is_none()
    }

    /// Merges clusters `i` and `j`, updating membership and the influence
    /// matrix incrementally (O(E + k²); no condensed-graph rebuild).
    ///
    /// # Errors
    ///
    /// * [`AllocError::UnknownSwNode`] — index out of range or `i == j`;
    /// * [`AllocError::ReplicaConflict`] / [`AllocError::Unschedulable`] —
    ///   the union violates a combination constraint.
    pub fn merge(&mut self, i: usize, j: usize) -> Result<(), AllocError> {
        let _span = fcm_obs::span("alloc.pipeline.merge");
        if i >= self.groups.len() || j >= self.groups.len() || i == j {
            return Err(AllocError::UnknownSwNode { index: i.max(j) });
        }
        let mut merged = self.groups[i].clone();
        merged.extend_from_slice(&self.groups[j]);
        if let Some(conflict) = group_conflict(self.g, &merged) {
            return Err(conflict.into_error(self.g, &merged));
        }

        let (lo, hi) = (i.min(j), i.max(j));
        let moved = self.groups.remove(hi);
        self.groups[lo].extend(moved);
        self.groups[lo].sort_unstable();
        for m in &mut self.membership {
            if *m == hi {
                *m = lo;
            } else if *m > hi {
                *m -= 1;
            }
        }
        self.shrink_influence(hi);
        self.recombine_row_col(lo);
        self.merges += 1;
        telemetry::global().add("alloc.pipeline.merges", 1);
        fcm_obs::counter_add("alloc.pipeline.merges", 1);
        Ok(())
    }

    /// Runs `policy` until `target` clusters remain.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoFeasibleClustering`] when the policy plans nothing
    /// or no planned merge is feasible (no progress in a round);
    /// [`AllocError::PreflightFailed`] when an installed pre-flight hook
    /// (see [`set_preflight`]) rejects the SW graph before any merge.
    pub fn run_policy(
        &mut self,
        target: usize,
        policy: &mut dyn CondensePolicy,
    ) -> Result<(), AllocError> {
        run_preflight(self.g)?;
        while self.len() > target {
            let before = self.len();
            let mut batch = policy.plan_round(self, target);
            // Highest indices first: removing cluster `hi` shifts only
            // indices above it, so the remaining (disjoint) pairs of the
            // batch — all with smaller maxima — stay valid.
            batch.sort_by_key(|&(i, j)| std::cmp::Reverse(i.max(j)));
            for (i, j) in batch {
                // A previous merge in this round may invalidate a pair;
                // skip it and let the next round retry.
                if self.can_merge(i, j) {
                    self.merge(i, j)?;
                }
            }
            if self.len() == before {
                return Err(AllocError::NoFeasibleClustering {
                    requested: target,
                    reached: self.len(),
                });
            }
        }
        Ok(())
    }

    /// Reorders the clusters to match `target`'s listing order (`target`
    /// must be the same partition). The influence matrix is permuted
    /// entry-for-entry, so the bitwise contract survives.
    ///
    /// # Errors
    ///
    /// [`AllocError::Graph`] when `target` is not the same partition.
    pub fn reorder_to(&mut self, target: &[Vec<NodeIdx>]) -> Result<(), AllocError> {
        let mismatch = || {
            AllocError::Graph(GraphError::TooManyParts {
                requested: target.len(),
                nodes: self.g.node_count(),
            })
        };
        if target.len() != self.groups.len() {
            return Err(mismatch());
        }
        // Clusters are disjoint, so the smallest member identifies one.
        let mut by_min: BTreeMap<NodeIdx, usize> = self
            .groups
            .iter()
            .enumerate()
            .map(|(q, grp)| (grp[0], q))
            .collect();
        let mut perm = Vec::with_capacity(target.len());
        for tg in target {
            let min = *tg.iter().min().ok_or_else(mismatch)?;
            let q = by_min.remove(&min).ok_or_else(mismatch)?;
            let mut sorted = tg.clone();
            sorted.sort_unstable();
            if self.groups[q] != sorted {
                return Err(mismatch());
            }
            perm.push(q);
        }
        self.groups = perm.iter().map(|&q| self.groups[q].clone()).collect();
        self.influence = self.influence.permuted(&perm);
        for (ci, group) in self.groups.iter().enumerate() {
            for &n in group {
                self.membership[n.index()] = ci;
            }
        }
        Ok(())
    }

    /// Finishes the pipeline, validating the partition once.
    ///
    /// # Errors
    ///
    /// The validation errors of [`Clustering::new`] (none are expected
    /// when every merge went through [`merge`](CondensePipeline::merge)).
    pub fn into_clustering(self) -> Result<Clustering, AllocError> {
        Clustering::new(self.g, self.groups)
    }

    /// Drops row and column `hi` from the influence matrix (surviving
    /// entries are carried over bitwise in either representation).
    fn shrink_influence(&mut self, hi: usize) {
        self.influence = self.influence.shrink_row_col(hi);
    }

    /// Recombines row and column `gi` of the influence matrix from the
    /// SW edges via Eq. 4 (see [`eq4_recombine_row_col`]): intra-cluster
    /// edges are skipped, everything else is folded in global edge-id
    /// order.
    fn recombine_row_col(&mut self, gi: usize) {
        let membership = &self.membership;
        let edges = self.g.edges().filter_map(|(_, e)| {
            let gu = membership[e.from.index()];
            let gv = membership[e.to.index()];
            (gu != gv).then(|| (gu, gv, e.weight.into()))
        });
        eq4_recombine_row_col_im(edges, gi, &mut self.influence);
    }
}

/// Heuristic H1 as a policy: each round merges the single
/// highest-mutual-influence feasible pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct H1Greedy;

impl CondensePolicy for H1Greedy {
    fn plan_round(&mut self, pipe: &CondensePipeline<'_>, _target: usize) -> Vec<(usize, usize)> {
        pipe.ranked_pairs()
            .into_iter()
            .find(|&(_, i, j)| pipe.can_merge(i, j))
            .map(|(_, i, j)| vec![(i, j)])
            .unwrap_or_default()
    }
}

/// The H1 variation as a policy: each round greedily matches disjoint
/// cluster pairs in descending mutual influence and merges every match
/// (stopping at the target count).
#[derive(Debug, Clone, Copy, Default)]
pub struct H1PairAll;

impl CondensePolicy for H1PairAll {
    fn plan_round(&mut self, pipe: &CondensePipeline<'_>, target: usize) -> Vec<(usize, usize)> {
        let mut pairs = pipe.ranked_pairs();
        pairs.retain(|&(_, i, j)| pipe.can_merge(i, j));
        let mut used = vec![false; pipe.len()];
        let mut matched: Vec<(usize, usize)> = Vec::new();
        for (_, i, j) in pairs {
            if !used[i] && !used[j] && pipe.len() - matched.len() > target {
                used[i] = true;
                used[j] = true;
                matched.push((i, j));
            }
        }
        matched
    }
}

/// Replays a partition computed elsewhere (H2's min cut, H3's spheres)
/// as pairwise pipeline merges: each round pairs up current clusters
/// that belong to the same target cluster. Merging two subsets of a
/// feasible cluster is always feasible (replica-conflict-free and
/// EDF-schedulable sets stay so under taking subsets), so the replay
/// never gets stuck on a valid target.
#[derive(Debug, Clone)]
pub struct PartitionReplay {
    /// Original node index → target cluster id.
    target_of: Vec<usize>,
}

impl PartitionReplay {
    /// Builds the replay policy toward `target` (a partition of the
    /// `node_count`-node SW graph).
    #[must_use]
    pub fn toward(node_count: usize, target: &[Vec<NodeIdx>]) -> PartitionReplay {
        let mut target_of = vec![0usize; node_count];
        for (ti, group) in target.iter().enumerate() {
            for &n in group {
                target_of[n.index()] = ti;
            }
        }
        PartitionReplay { target_of }
    }
}

impl CondensePolicy for PartitionReplay {
    fn plan_round(&mut self, pipe: &CondensePipeline<'_>, _target: usize) -> Vec<(usize, usize)> {
        let mut of_target: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (q, group) in pipe.groups().iter().enumerate() {
            of_target
                .entry(self.target_of[group[0].index()])
                .or_default()
                .push(q);
        }
        let mut batch = Vec::new();
        for ids in of_target.values() {
            for pair in ids.chunks(2) {
                if let [a, b] = *pair {
                    batch.push((a, b));
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::SwGraphBuilder;
    use fcm_core::AttributeSet;

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    /// p0 <-> p1 strongly coupled, p1 -> p2 weak, p3a/p3b replicas of a
    /// module both influencing p2.
    fn sample() -> SwGraph {
        let mut b = SwGraphBuilder::new();
        let p0 = b.add_process("p0", attrs(5));
        let p1 = b.add_process("p1", attrs(3));
        let p2 = b.add_process("p2", attrs(1));
        let p3a = b.add_process("p3a", attrs(8));
        let p3b = b.add_process("p3b", attrs(8));
        b.add_influence(p0, p1, 0.7).unwrap();
        b.add_influence(p1, p0, 0.2).unwrap();
        b.add_influence(p1, p2, 0.3).unwrap();
        b.add_influence(p3a, p2, 0.4).unwrap();
        b.add_influence(p3b, p2, 0.4).unwrap();
        b.mark_replicas(&[p3a, p3b]).unwrap();
        b.build()
    }

    /// Full Eq. 2/Eq. 4 recompute on the current partition.
    fn full_recompute(g: &SwGraph, groups: &[Vec<NodeIdx>]) -> Matrix {
        condense(g, groups, CombineRule::Probabilistic)
            .expect("partition")
            .influence_matrix()
    }

    #[test]
    fn initial_matrix_matches_full_condense() {
        let g = sample();
        let pipe = CondensePipeline::new(&g);
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
        assert_eq!(pipe.len(), 5);
        assert_eq!(pipe.merges(), 0);
    }

    #[test]
    fn merge_updates_matrix_bitwise() {
        let g = sample();
        let mut pipe = CondensePipeline::new(&g);
        pipe.merge(0, 1).unwrap();
        assert_eq!(pipe.len(), 4);
        assert_eq!(pipe.merges(), 1);
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
        // Fan-in combination: merging the two replicas' targets is not
        // possible, but merging p2 into the (p0,p1) cluster is.
        pipe.merge(0, 1).unwrap();
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
    }

    #[test]
    fn eq4_fan_in_appears_after_merge() {
        let mut b = SwGraphBuilder::new();
        let x = b.add_process("x", attrs(0));
        let y = b.add_process("y", attrs(0));
        let t = b.add_process("t", attrs(0));
        b.add_influence(x, t, 0.7).unwrap();
        b.add_influence(y, t, 0.2).unwrap();
        let g = b.build();
        let mut pipe = CondensePipeline::new(&g);
        pipe.merge(0, 1).unwrap();
        // 1 − (1−0.7)(1−0.2) = 0.76 — the paper's Fig. 5 value.
        assert!((pipe.influence()[(0, 1)] - 0.76).abs() < 1e-12);
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
    }

    #[test]
    fn merge_rejects_replica_conflicts_and_bad_indices() {
        let g = sample();
        let mut pipe = CondensePipeline::new(&g);
        assert!(matches!(
            pipe.merge(3, 4),
            Err(AllocError::ReplicaConflict { .. })
        ));
        assert!(matches!(
            pipe.merge(0, 9),
            Err(AllocError::UnknownSwNode { .. })
        ));
        assert!(matches!(
            pipe.merge(2, 2),
            Err(AllocError::UnknownSwNode { .. })
        ));
        assert!(!pipe.can_merge(3, 4));
        assert!(pipe.can_merge(0, 1));
        assert_eq!(pipe.merges(), 0);
    }

    #[test]
    fn h1_greedy_policy_reaches_target() {
        let g = sample();
        let mut pipe = CondensePipeline::new(&g);
        pipe.run_policy(3, &mut H1Greedy).unwrap();
        assert_eq!(pipe.len(), 3);
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
        let c = pipe.into_clustering().unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn stuck_policy_reports_no_feasible_clustering() {
        let g = sample();
        let mut pipe = CondensePipeline::new(&g);
        // Target 1 is impossible: the replicas can never be combined.
        let err = pipe.run_policy(1, &mut H1Greedy).unwrap_err();
        assert!(matches!(
            err,
            AllocError::NoFeasibleClustering { requested: 1, .. }
        ));
    }

    #[test]
    fn partition_replay_reproduces_a_target_partition() {
        let g = sample();
        let n: Vec<NodeIdx> = g.node_indices().collect();
        let target = vec![
            vec![n[2], n[0]],
            vec![n[3]],
            vec![n[1], n[4]],
        ];
        let mut pipe = CondensePipeline::new(&g);
        let mut policy = PartitionReplay::toward(g.node_count(), &target);
        pipe.run_policy(target.len(), &mut policy).unwrap();
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
        pipe.reorder_to(&target).unwrap();
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
        let sorted_sets: Vec<Vec<NodeIdx>> = pipe.groups().to_vec();
        let expect: Vec<Vec<NodeIdx>> = target
            .iter()
            .map(|grp| {
                let mut s = grp.clone();
                s.sort_unstable();
                s
            })
            .collect();
        assert_eq!(sorted_sets, expect, "listing order preserved");
        pipe.into_clustering().unwrap();
    }

    #[test]
    fn reorder_to_rejects_a_different_partition() {
        let g = sample();
        let n: Vec<NodeIdx> = g.node_indices().collect();
        let mut pipe = CondensePipeline::new(&g);
        pipe.merge(0, 1).unwrap();
        // Wrong number of clusters.
        assert!(pipe.reorder_to(&[vec![n[0]]]).is_err());
        // Right count, wrong contents.
        let bogus = vec![
            vec![n[0], n[2]],
            vec![n[1]],
            vec![n[3]],
            vec![n[4]],
        ];
        assert!(pipe.reorder_to(&bogus).is_err());
    }

    #[test]
    fn from_clustering_starts_mid_flight() {
        let g = sample();
        let n: Vec<NodeIdx> = g.node_indices().collect();
        let c = Clustering::new(
            &g,
            vec![vec![n[0], n[1]], vec![n[2]], vec![n[3]], vec![n[4]]],
        )
        .unwrap();
        let pipe = CondensePipeline::from_clustering(&g, &c);
        assert_eq!(pipe.len(), 4);
        assert_eq!(pipe.influence(), &full_recompute(&g, pipe.groups()));
    }

    #[test]
    fn ranked_pairs_match_the_legacy_condense_ranking() {
        let g = sample();
        let pipe = CondensePipeline::new(&g);
        let c = Clustering::singletons(&g);
        for (w, i, j) in pipe.ranked_pairs() {
            assert_eq!(w, c.mutual_influence(&g, i, j), "pair ({i},{j})");
        }
    }
}
