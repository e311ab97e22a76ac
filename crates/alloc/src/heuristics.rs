//! The paper's SW-graph condensation heuristics (§5.4).
//!
//! "Given a graph with directed weighted edges, group the nodes into sets
//! such that the sum of weights between the sets is minimized.
//! Deterministic solutions to this problem do not exist, or are
//! analytically intractable. Some useful heuristics we have investigated
//! include:" — H1, H2 and H3, all implemented here together with the
//! variations the paper sketches. Every heuristic returns a *validated*
//! [`Clustering`] (replica anti-affinity and per-cluster schedulability
//! hold), or [`AllocError::NoFeasibleClustering`].
//!
//! All merge paths run through the [`crate::pipeline`] condensation
//! engine: H1 and its pair-all variation rank pairs straight off the
//! incrementally maintained Eq. 4 influence matrix ([`pipeline::H1Greedy`]
//! and [`pipeline::H1PairAll`]); H2, H2′ and H3 compute their partition
//! (min cut / importance spheres) and then replay it through the pipeline
//! ([`pipeline::PartitionReplay`]). [`h1_rebuild`] keeps the original
//! rebuild-per-ranking implementation as the performance baseline the
//! benches compare against. Wall time per heuristic is recorded in the
//! global [`fcm_substrate::telemetry`] under `alloc.*` stages.
//!
//! Candidate groups (H3's "does sphere S accept v?", H2's repair moves)
//! are judged by [`GroupFeasibility`], the crate's one group-feasibility
//! predicate lifted to "this group plus singletons": it answers exactly
//! what `Clustering::new` would on that partition, without building it.
//! Whether a sphere accepts a node depends only on the two, so H3 fills
//! a per-(node, sphere) attachment table once and, after each join,
//! recomputes only the grown sphere's column.

use fcm_core::ImportanceWeights;
use fcm_graph::algo::{recursive_min_cut, BisectPolicy};
use fcm_graph::NodeIdx;
use fcm_substrate::telemetry;

use crate::cluster::{Clustering, GroupFeasibility};
use crate::error::AllocError;
use crate::pipeline::{self, CondensePipeline};
use crate::sw::SwGraph;

/// Heuristic **H1**: "Combine the two nodes with the highest value of
/// mutual influence … Repeat for the next higher value of mutual
/// influence, and continue this process until the required number of
/// nodes is obtained."
///
/// Pairs whose combination violates a constraint (replica conflict,
/// unschedulable union) are skipped, exactly as the worked example skips
/// combining replicas; zero-influence pairs are considered last so the
/// target count can always be reached when a feasible clustering exists.
///
/// # Errors
///
/// * [`AllocError::NoFeasibleClustering`] — no constraint-respecting merge
///   can reduce the cluster count further;
/// * [`AllocError::Graph`] — `target` is zero or exceeds the node count.
pub fn h1(g: &SwGraph, target: usize) -> Result<Clustering, AllocError> {
    telemetry::global().time("alloc.h1", || {
        check_target(g, target)?;
        let mut pipe = CondensePipeline::new(g);
        pipe.run_policy(target, &mut pipeline::H1Greedy)?;
        pipe.into_clustering()
    })
}

/// The pre-pipeline H1 implementation, which rebuilds the full Eq. 4
/// condensation for every pair ranking (O(E + k²) per *ranking* inside
/// the merge loop, versus the pipeline's one incremental row/column
/// update per *merge*). Kept public as the measured baseline for the
/// `e1_heuristics` bench; produces exactly the same clustering as
/// [`h1`].
///
/// # Errors
///
/// As for [`h1`].
pub fn h1_rebuild(g: &SwGraph, target: usize) -> Result<Clustering, AllocError> {
    telemetry::global().time("alloc.h1_rebuild", || {
        check_target(g, target)?;
        let mut clustering = Clustering::singletons(g);
        while clustering.len() > target {
            clustering =
                merge_best_pair(g, &clustering).map_err(|_| AllocError::NoFeasibleClustering {
                    requested: target,
                    reached: clustering.len(),
                })?;
        }
        Ok(clustering)
    })
}

/// The H1 variation: "pair all nodes based on influence values and then
/// repeat the process as needed" — each round greedily matches disjoint
/// cluster pairs in descending mutual influence and merges every match.
///
/// # Errors
///
/// As for [`h1`].
pub fn h1_pair_all(g: &SwGraph, target: usize) -> Result<Clustering, AllocError> {
    telemetry::global().time("alloc.h1_pair_all", || {
        check_target(g, target)?;
        let mut pipe = CondensePipeline::new(g);
        pipe.run_policy(target, &mut pipeline::H1PairAll)?;
        pipe.into_clustering()
    })
}

/// Heuristic **H2**: "Find the min-cut of the graph. Divide the graph into
/// two parts along the cut. Find the min-cut in each half and repeat the
/// process, until the requisite number of components has been generated."
///
/// The raw cut ignores the combination constraints, so invalid groups are
/// *repaired* afterwards by relocating violating nodes to the feasible
/// group they influence most.
///
/// # Errors
///
/// * [`AllocError::Graph`] — invalid `target`;
/// * [`AllocError::NoFeasibleClustering`] — repair failed.
pub fn h2(g: &SwGraph, target: usize, policy: BisectPolicy) -> Result<Clustering, AllocError> {
    telemetry::global().time("alloc.h2", || {
        check_target(g, target)?;
        let groups = recursive_min_cut(g, target, policy)?;
        let repaired = repair(g, groups, target)?;
        replay_through_pipeline(g, repaired)
    })
}

/// Heuristic **H3**: "For n HW nodes, identify the n most important SW
/// nodes, and define their 'spheres of influence'. Map each group onto a
/// different HW node." Seeds are the `target` most important nodes;
/// every other node joins the feasible sphere it influences most
/// (falling back to any feasible sphere when it influences none).
///
/// # Errors
///
/// * [`AllocError::Graph`] — invalid `target`;
/// * [`AllocError::NoFeasibleClustering`] — some node fits no sphere.
pub fn h3(
    g: &SwGraph,
    target: usize,
    weights: &ImportanceWeights,
) -> Result<Clustering, AllocError> {
    telemetry::global().time("alloc.h3", || h3_inner(g, target, weights))
}

fn h3_inner(
    g: &SwGraph,
    target: usize,
    weights: &ImportanceWeights,
) -> Result<Clustering, AllocError> {
    check_target(g, target)?;
    let mut order: Vec<NodeIdx> = g.node_indices().collect();
    order.sort_by(|&a, &b| {
        let ia = g.node(a).expect("valid index").importance(weights);
        let ib = g.node(b).expect("valid index").importance(weights);
        ib.partial_cmp(&ia)
            .expect("importance is finite")
            .then(a.cmp(&b))
    });
    let (seeds, rest) = order.split_at(target);
    let mut groups: Vec<Vec<NodeIdx>> = seeds.iter().map(|&s| vec![s]).collect();

    // Whether sphere `gi` accepts node `v` depends only on the two, so the
    // attachment table `attach[v * target + gi]` is filled once and, after
    // each join, only the grown sphere's column is recomputed.
    let feasible = GroupFeasibility::new(g);
    let mut scratch = Vec::new();
    let mut attach: Vec<Option<f64>> = vec![None; g.node_count() * target];
    let mut stale = 0..target;
    let mut remaining: Vec<NodeIdx> = rest.to_vec();
    // Assign the most strongly attached nodes first.
    while !remaining.is_empty() {
        for gi in stale {
            for &v in &remaining {
                attach[v.index() * target + gi] =
                    attachment(g, &feasible, &groups[gi], v, &mut scratch);
            }
        }
        // (node position, group, attachment influence), best first.
        let mut best: Option<(usize, usize, f64)> = None;
        for (pos, &v) in remaining.iter().enumerate() {
            let row = &attach[v.index() * target..][..target];
            for (gi, entry) in row.iter().enumerate() {
                let Some(a) = *entry else { continue };
                if best.is_none_or(|(_, _, b)| a > b) {
                    best = Some((pos, gi, a));
                }
            }
        }
        match best {
            Some((pos, gi, _)) => {
                let v = remaining.swap_remove(pos);
                groups[gi].push(v);
                stale = gi..gi + 1;
            }
            None => {
                return Err(AllocError::NoFeasibleClustering {
                    requested: target,
                    reached: groups.len() + remaining.len(),
                })
            }
        }
    }
    let spheres = Clustering::new(g, groups)?;
    replay_through_pipeline(g, spheres)
}

/// The H2 source–target variation ("cut the graph using source and
/// target nodes"): each bisection separates the part's most important
/// node from its least important node via an Edmonds–Karp s–t min cut,
/// so the cheapest boundary between the importance extremes is severed.
/// Invalid groups are repaired as in [`h2`].
///
/// # Errors
///
/// As for [`h2`].
pub fn h2_source_target(
    g: &SwGraph,
    target: usize,
    weights: &ImportanceWeights,
) -> Result<Clustering, AllocError> {
    telemetry::global().time("alloc.h2_st", || h2_source_target_inner(g, target, weights))
}

fn h2_source_target_inner(
    g: &SwGraph,
    target: usize,
    weights: &ImportanceWeights,
) -> Result<Clustering, AllocError> {
    use fcm_graph::algo::{induced_subgraph, st_min_cut};
    check_target(g, target)?;
    let mut groups: Vec<Vec<NodeIdx>> = vec![g.node_indices().collect()];
    while groups.len() < target {
        // Split the largest part with at least two nodes.
        let (gi, _) = groups
            .iter()
            .enumerate()
            .filter(|(_, grp)| grp.len() >= 2)
            .max_by_key(|(_, grp)| grp.len())
            .expect("target <= n guarantees a splittable group");
        let group = groups.swap_remove(gi);
        let (sub, back) = induced_subgraph(g, &group);
        // Source: most important; target: least important (sub indices).
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by(|&a, &b| {
            let ia = g.node(back[a]).expect("member exists").importance(weights);
            let ib = g.node(back[b]).expect("member exists").importance(weights);
            ib.partial_cmp(&ia)
                .expect("finite importance")
                .then(a.cmp(&b))
        });
        let (s, t) = (
            NodeIdx(order[0]),
            NodeIdx(*order.last().expect("non-empty")),
        );
        let cut = st_min_cut(&sub, s, t)?;
        let to_orig = |side: &[NodeIdx]| side.iter().map(|&i| back[i.index()]).collect::<Vec<_>>();
        groups.push(to_orig(&cut.side_a));
        groups.push(to_orig(&cut.side_b));
    }
    let repaired = repair(g, groups, target)?;
    replay_through_pipeline(g, repaired)
}

/// Reconstructs `target` by replaying it as pairwise merges through the
/// condensation pipeline, so every heuristic's merge path exercises the
/// incremental Eq. 4 update. Merging two subsets of a feasible cluster is
/// always feasible, so the replay never gets stuck; the result is the
/// same clustering (same groups, same listing order, re-validated).
fn replay_through_pipeline(g: &SwGraph, target: Clustering) -> Result<Clustering, AllocError> {
    let mut pipe = CondensePipeline::new(g);
    let mut policy = pipeline::PartitionReplay::toward(g.node_count(), target.clusters());
    pipe.run_policy(target.len(), &mut policy)?;
    pipe.reorder_to(target.clusters())?;
    pipe.into_clustering()
}

/// One H1 step: merge the highest-mutual-influence feasible pair.
fn merge_best_pair(g: &SwGraph, clustering: &Clustering) -> Result<Clustering, AllocError> {
    for (_, i, j) in ranked_pairs(g, clustering) {
        if clustering.can_merge(g, i, j) {
            return clustering.merge_clusters(g, i, j);
        }
    }
    Err(AllocError::NoFeasibleClustering {
        requested: clustering.len().saturating_sub(1),
        reached: clustering.len(),
    })
}

/// All cluster pairs ranked by descending mutual influence in the
/// condensed graph (zero-influence pairs included, last).
fn ranked_pairs(g: &SwGraph, clustering: &Clustering) -> Vec<(f64, usize, usize)> {
    let cond = clustering.condensed(g);
    let k = clustering.len();
    let mut pairs = Vec::with_capacity(k * (k - 1) / 2);
    for i in 0..k {
        for j in (i + 1)..k {
            pairs.push((cond.graph.mutual_weight(NodeIdx(i), NodeIdx(j)), i, j));
        }
    }
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite influence"));
    pairs
}

/// How strongly `group` pulls `v`: `None` when `group ∪ {v}` is not a
/// feasible cluster, otherwise the mutual influence between `v` and the
/// members, summed in member order. `scratch` is reused for the union.
fn attachment(
    g: &SwGraph,
    feasible: &GroupFeasibility<'_>,
    group: &[NodeIdx],
    v: NodeIdx,
    scratch: &mut Vec<NodeIdx>,
) -> Option<f64> {
    scratch.clear();
    scratch.extend_from_slice(group);
    scratch.push(v);
    if !feasible.fits(scratch) {
        return None;
    }
    Some(group.iter().map(|&m| g.mutual_weight(v, m)).sum())
}

/// Moves constraint-violating nodes between groups until all groups are
/// valid (bounded number of passes).
fn repair(
    g: &SwGraph,
    mut groups: Vec<Vec<NodeIdx>>,
    target: usize,
) -> Result<Clustering, AllocError> {
    let budget = g.node_count() * target.max(1) + 8;
    let feasible = GroupFeasibility::new(g);
    for _ in 0..budget {
        match Clustering::new(g, groups.clone()) {
            Ok(c) => return Ok(c),
            Err(_) => {
                if !repair_step(g, &feasible, &mut groups) {
                    break;
                }
            }
        }
    }
    Err(AllocError::NoFeasibleClustering {
        requested: target,
        reached: groups.len(),
    })
}

/// Relocates one violating node; returns `false` when stuck.
fn repair_step(g: &SwGraph, feasible: &GroupFeasibility<'_>, groups: &mut [Vec<NodeIdx>]) -> bool {
    // Find an invalid group and the node to evict: prefer a replica
    // involved in a conflict, else the most timing-constrained node.
    let invalid = groups.iter().position(|grp| !feasible.fits(grp));
    let Some(gi) = invalid else { return false };
    // Candidate eviction order: replicas first, then by timing density.
    let mut candidates: Vec<NodeIdx> = groups[gi].clone();
    candidates.sort_by(|&a, &b| {
        let na = g.node(a).expect("valid index");
        let nb = g.node(b).expect("valid index");
        let ra = na.replica_group.is_some();
        let rb = nb.replica_group.is_some();
        rb.cmp(&ra).then(
            nb.attributes
                .timing
                .map_or(0.0, |t| t.density())
                .partial_cmp(&na.attributes.timing.map_or(0.0, |t| t.density()))
                .expect("finite density"),
        )
    });
    // Pass 1: prefer an eviction that makes the source group valid.
    // Pass 2: accept any eviction into a valid target — shrinking an
    // invalid group by one is still progress (a group of k same-module
    // replicas needs k−1 evictions), and a valid target never becomes
    // invalid (`attachment` checks it), so the process terminates.
    let mut scratch = Vec::new();
    for require_source_valid in [true, false] {
        for &v in &candidates {
            let without: Vec<NodeIdx> = groups[gi].iter().copied().filter(|&n| n != v).collect();
            if without.is_empty() {
                continue;
            }
            if require_source_valid && !feasible.fits(&without) {
                continue;
            }
            // Some other group must accept it; pick max attachment.
            let mut best: Option<(usize, f64)> = None;
            for (oj, other) in groups.iter().enumerate() {
                if oj == gi {
                    continue;
                }
                let Some(attach) = attachment(g, feasible, other, v, &mut scratch) else {
                    continue;
                };
                if best.is_none_or(|(_, b)| attach > b) {
                    best = Some((oj, attach));
                }
            }
            if let Some((oj, _)) = best {
                groups[gi].retain(|&n| n != v);
                groups[oj].push(v);
                return true;
            }
        }
    }
    false
}

fn check_target(g: &SwGraph, target: usize) -> Result<(), AllocError> {
    if target == 0 || target > g.node_count() {
        return Err(AllocError::Graph(fcm_graph::GraphError::TooManyParts {
            requested: target,
            nodes: g.node_count(),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::SwGraphBuilder;
    use fcm_core::{AttributeSet, FaultTolerance};

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    /// Two tight pairs plus a loose tail: (a,b) 1.0 mutual, (c,d) 0.8,
    /// e weakly attached to d.
    fn pairs_graph() -> SwGraph {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("pa", attrs(1));
        let bb = b.add_process("pb", attrs(2));
        let c = b.add_process("pc", attrs(3));
        let d = b.add_process("pd", attrs(4));
        let e = b.add_process("pe", attrs(5));
        b.add_influence(a, bb, 0.6).unwrap();
        b.add_influence(bb, a, 0.4).unwrap();
        b.add_influence(c, d, 0.5).unwrap();
        b.add_influence(d, c, 0.3).unwrap();
        b.add_influence(d, e, 0.1).unwrap();
        b.build()
    }

    #[test]
    fn h1_combines_strongest_pairs_first() {
        let g = pairs_graph();
        let c = h1(&g, 3).unwrap();
        let mut names: Vec<String> = (0..3).map(|i| c.cluster_name(&g, i)).collect();
        names.sort();
        assert_eq!(names, vec!["pa,b", "pc,d", "pe"]);
    }

    #[test]
    fn h1_matches_the_rebuild_baseline_exactly() {
        let g = pairs_graph();
        for target in 1..=5 {
            let incremental = h1(&g, target);
            let rebuilt = h1_rebuild(&g, target);
            assert_eq!(incremental, rebuilt, "target {target}");
        }
    }

    #[test]
    fn h1_respects_replica_anti_affinity() {
        let mut b = SwGraphBuilder::new();
        let r1 = b.add_process("p1a", attrs(9));
        let r2 = b.add_process("p1b", attrs(9));
        let x = b.add_process("p2", attrs(1));
        b.mark_replicas(&[r1, r2]).unwrap();
        b.add_influence(r1, x, 0.5).unwrap();
        b.add_influence(r2, x, 0.5).unwrap();
        let g = b.build();
        let c = h1(&g, 2).unwrap();
        // The replicas were never combined with each other.
        for i in 0..2 {
            let cluster = &c.clusters()[i];
            assert!(!(cluster.contains(&r1) && cluster.contains(&r2)));
        }
        // Reaching 1 cluster is impossible.
        assert!(matches!(
            h1(&g, 1),
            Err(AllocError::NoFeasibleClustering { .. })
        ));
    }

    #[test]
    fn h1_reaches_target_even_without_influence() {
        let mut b = SwGraphBuilder::new();
        for i in 0..4 {
            b.add_process(format!("p{i}"), attrs(i));
        }
        let g = b.build();
        let c = h1(&g, 2).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn h1_target_validation() {
        let g = pairs_graph();
        assert!(h1(&g, 0).is_err());
        assert!(h1(&g, 6).is_err());
        assert_eq!(h1(&g, 5).unwrap().len(), 5);
    }

    #[test]
    fn h1_pair_all_matches_disjoint_pairs_per_round() {
        let g = pairs_graph();
        let c = h1_pair_all(&g, 3).unwrap();
        assert_eq!(c.len(), 3);
        let mut names: Vec<String> = (0..3).map(|i| c.cluster_name(&g, i)).collect();
        names.sort();
        assert_eq!(names, vec!["pa,b", "pc,d", "pe"]);
    }

    #[test]
    fn h2_recovers_cluster_structure() {
        let g = pairs_graph();
        for policy in [BisectPolicy::LargestPart, BisectPolicy::HeaviestPart] {
            let c = h2(&g, 3, policy).unwrap();
            assert_eq!(c.len(), 3, "{policy:?}");
        }
        // Under the largest-part policy the tight pair (pa,pb) survives:
        // the 3-node component is always the one cut further.
        let c = h2(&g, 3, BisectPolicy::LargestPart).unwrap();
        let has_ab = (0..3).any(|i| c.cluster_name(&g, i) == "pa,b");
        assert!(has_ab, "{:?}", c.clusters());
    }

    #[test]
    fn h2_repair_separates_replicas() {
        // Replicas strongly influence a shared sink, so the min cut would
        // happily group them; repair must pull them apart.
        let mut b = SwGraphBuilder::new();
        let r1 = b.add_process("p1a", attrs(9));
        let r2 = b.add_process("p1b", attrs(9));
        let x = b.add_process("p2", attrs(1));
        let y = b.add_process("p3", attrs(1));
        b.mark_replicas(&[r1, r2]).unwrap();
        b.add_influence(r1, x, 0.9).unwrap();
        b.add_influence(r2, x, 0.9).unwrap();
        b.add_influence(x, y, 0.05).unwrap();
        let g = b.build();
        let c = h2(&g, 2, BisectPolicy::LargestPart).unwrap();
        for cluster in c.clusters() {
            assert!(!(cluster.contains(&r1) && cluster.contains(&r2)));
        }
    }

    #[test]
    fn h2_source_target_separates_importance_extremes() {
        let g = pairs_graph(); // criticalities 1..5
        let c = h2_source_target(&g, 2, &ImportanceWeights::default()).unwrap();
        assert_eq!(c.len(), 2);
        // The most important (pe, crit 5) and least important (pa, crit 1)
        // nodes end up in different clusters.
        let pa = NodeIdx(0);
        let pe = NodeIdx(4);
        let cluster_of = |n: NodeIdx| {
            c.clusters()
                .iter()
                .position(|grp| grp.contains(&n))
                .expect("node is clustered")
        };
        assert_ne!(cluster_of(pa), cluster_of(pe));
    }

    #[test]
    fn h2_source_target_respects_constraints() {
        let mut b = SwGraphBuilder::new();
        let r1 = b.add_process("p1a", attrs(9));
        let r2 = b.add_process("p1b", attrs(9));
        let x = b.add_process("p2", attrs(1));
        b.mark_replicas(&[r1, r2]).unwrap();
        b.add_influence(r1, x, 0.5).unwrap();
        let g = b.build();
        let c = h2_source_target(&g, 2, &ImportanceWeights::default()).unwrap();
        for cluster in c.clusters() {
            assert!(!(cluster.contains(&r1) && cluster.contains(&r2)));
        }
        assert!(h2_source_target(&g, 1, &ImportanceWeights::default()).is_err());
    }

    #[test]
    fn h3_seeds_are_the_most_important_nodes() {
        let mut b = SwGraphBuilder::new();
        let hi1 = b.add_process("pA", attrs(10));
        let hi2 = b.add_process("pB", attrs(9));
        let lo1 = b.add_process("pC", attrs(1));
        let lo2 = b.add_process("pD", attrs(1));
        b.add_influence(lo1, hi1, 0.6).unwrap();
        b.add_influence(lo2, hi2, 0.6).unwrap();
        let g = b.build();
        let c = h3(&g, 2, &ImportanceWeights::default()).unwrap();
        assert_eq!(c.len(), 2);
        // Each low node joined the sphere of the seed it influences.
        for cluster in c.clusters() {
            if cluster.contains(&hi1) {
                assert!(cluster.contains(&lo1));
            }
            if cluster.contains(&hi2) {
                assert!(cluster.contains(&lo2));
            }
        }
    }

    #[test]
    fn h3_unattached_nodes_fall_back_to_any_feasible_sphere() {
        let mut b = SwGraphBuilder::new();
        b.add_process("pA", attrs(10));
        b.add_process("pB", attrs(9));
        b.add_process("pC", attrs(0)); // influences nobody
        let g = b.build();
        let c = h3(&g, 2, &ImportanceWeights::default()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.clusters().iter().map(Vec::len).sum::<usize>(), 3);
    }

    #[test]
    fn heuristics_never_violate_schedulability() {
        // Three heavy processes that pairwise conflict: at most one per
        // cluster, so target 3 is the only feasible count.
        let mut b = SwGraphBuilder::new();
        let x = b.add_process("px", attrs(1).with_timing(0, 6, 4));
        let y = b.add_process("py", attrs(2).with_timing(0, 6, 4));
        let z = b.add_process("pz", attrs(3).with_timing(0, 6, 4));
        b.add_influence(x, y, 0.9).unwrap();
        b.add_influence(y, z, 0.9).unwrap();
        let g = b.build();
        assert!(matches!(
            h1(&g, 2),
            Err(AllocError::NoFeasibleClustering { .. })
        ));
        assert_eq!(h1(&g, 3).unwrap().len(), 3);
        assert!(h2(&g, 2, BisectPolicy::LargestPart).is_err());
        assert!(h3(&g, 2, &ImportanceWeights::default()).is_err());
    }

    #[test]
    fn replicated_graph_expands_then_clusters() {
        use crate::replication::expand_replicas;
        let mut b = SwGraphBuilder::new();
        let p1 = b.add_process("p1", attrs(10).with_fault_tolerance(FaultTolerance::TMR));
        let p2 = b.add_process("p2", attrs(2));
        b.add_influence(p1, p2, 0.5).unwrap();
        let ex = expand_replicas(&b.build());
        // 4 nodes (3 replicas + p2) into 3 clusters: p2 joins one replica.
        let c = h1(&ex.graph, 3).unwrap();
        assert_eq!(c.len(), 3);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = c.clusters().iter().map(Vec::len).collect();
            s.sort();
            s
        };
        assert_eq!(sizes, vec![1, 1, 2]);
    }
}
