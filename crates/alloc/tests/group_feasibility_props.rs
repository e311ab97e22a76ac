//! Oracle tests of the single group-feasibility predicate and the
//! incremental H3 attachment table.
//!
//! The oracle is the check the heuristics used before
//! [`GroupFeasibility`] existed: build the n-node partition in which the
//! candidate group is one cluster and every other node a singleton, and
//! ask [`Clustering::new`] whether it is valid. The H2, H2′, H3 and
//! timing-refinement implementations that ran that oracle for every
//! candidate are kept below (minus telemetry); the shipped heuristics
//! must return exactly the same `Clustering` (groups and listing order)
//! or exactly the same error.

use fcm_alloc::cluster::{Clustering, GroupFeasibility};
use fcm_alloc::heuristics::{h2, h2_source_target, h3};
use fcm_alloc::mapping::timing_refinement;
use fcm_alloc::pipeline::{self, CondensePipeline};
use fcm_alloc::sw::{SwEdge, SwGraph, SwGraphBuilder};
use fcm_alloc::AllocError;
use fcm_core::{AttributeSet, ImportanceWeights};
use fcm_graph::algo::{induced_subgraph, recursive_min_cut, st_min_cut, BisectPolicy};
use fcm_graph::NodeIdx;
use fcm_sched::{edf, Job, JobId, JobSet};
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq};

/// A random SW graph exercising every constraint the predicate checks:
/// replica groups of two or three (tagged, with 0-weight links),
/// `forbid_colocation` anti-affinity groups, untagged explicit
/// `ReplicaLink` edges, tight timing triples, and sometimes one node
/// whose timing triple cannot be met even on its own.
fn random_sw_graph(rng: &mut Rng, n: usize) -> SwGraph {
    let unschedulable = (rng.gen::<f64>() < 0.2).then(|| rng.gen_range(0..n));
    let mut b = SwGraphBuilder::new();
    let nodes: Vec<NodeIdx> = (0..n)
        .map(|i| {
            let mut attrs = AttributeSet::default().with_criticality(rng.gen_range(0..10u32));
            if unschedulable == Some(i) {
                attrs = attrs.with_timing(0, 3, 5);
            } else if rng.gen::<f64>() < 0.4 {
                let est = rng.gen_range(0..=4u64);
                let ct = rng.gen_range(1..=4u64);
                let slack = rng.gen_range(0..=3u64);
                attrs = attrs.with_timing(est, est + ct + slack, ct);
            }
            b.add_process(format!("p{i}"), attrs)
        })
        .collect();
    let density = rng.gen_range(0.1..0.7);
    for &u in &nodes {
        for &v in &nodes {
            if u != v && rng.gen::<f64>() < density {
                b.add_influence(u, v, rng.gen_range(0.01..=1.0)).unwrap();
            }
        }
    }
    // Disjoint index ranges: replicas at the front, anti-affinity next.
    let mut next = 0;
    if n >= 4 && rng.gen::<f64>() < 0.7 {
        let k = rng.gen_range(2..=3usize).min(n / 2);
        b.mark_replicas(&nodes[next..next + k]).unwrap();
        next += k;
    }
    if n >= next + 3 && rng.gen::<f64>() < 0.6 {
        let k = rng.gen_range(2..=3usize).min(n - next - 1);
        b.forbid_colocation(&nodes[next..next + k]).unwrap();
    }
    let mut g = b.build();
    if n >= 2 && rng.gen::<f64>() < 0.3 {
        let a = rng.gen_range(0..n);
        let c = (a + 1 + rng.gen_range(0..n - 1)) % n;
        g.add_edge(nodes[a], nodes[c], SwEdge::ReplicaLink);
    }
    g
}

/// A random member list: distinct nodes in random order, sometimes with
/// a repeated member (not a partition, so infeasible) or empty.
fn random_members(rng: &mut Rng, n: usize) -> Vec<NodeIdx> {
    let mut all: Vec<NodeIdx> = (0..n).map(NodeIdx).collect();
    rng.shuffle(&mut all);
    let k = rng.gen_range(0..=n.min(6));
    let mut members = all[..k].to_vec();
    if k > 0 && rng.gen::<f64>() < 0.1 {
        let dup = members[rng.gen_range(0..k)];
        members.push(dup);
    }
    members
}

// ------------------------------------------------------------ the oracle

/// The partition with `merged` as one group and every other node a
/// singleton.
fn one_group_partition(g: &SwGraph, merged: &[NodeIdx]) -> Vec<Vec<NodeIdx>> {
    let mut groups = vec![merged.to_vec()];
    let inside: Vec<bool> = {
        let mut v = vec![false; g.node_count()];
        for &m in merged {
            v[m.index()] = true;
        }
        v
    };
    groups.extend(
        g.node_indices()
            .filter(|n| !inside[n.index()])
            .map(|n| vec![n]),
    );
    groups
}

fn oracle_feasible(g: &SwGraph, members: &[NodeIdx]) -> bool {
    Clustering::new(g, one_group_partition(g, members)).is_ok()
}

fn accepts(g: &SwGraph, group: &[NodeIdx], v: NodeIdx) -> bool {
    let mut merged = group.to_vec();
    merged.push(v);
    oracle_feasible(g, &merged)
}

/// The separation check `Clustering::new` ran before the predicate was
/// factored out: tagged pairs first, then explicit 0-weight links.
fn old_replica_conflict(g: &SwGraph, group: &[NodeIdx]) -> Option<(String, String)> {
    for (k, &a) in group.iter().enumerate() {
        for &b in &group[k + 1..] {
            let na = g.node(a).unwrap();
            let nb = g.node(b).unwrap();
            if na.must_separate_from(nb) {
                return Some((na.name.clone(), nb.name.clone()));
            }
        }
    }
    for (k, &a) in group.iter().enumerate() {
        for &b in &group[k + 1..] {
            let linked = g
                .out_edges(a)
                .any(|(_, e)| e.to == b && matches!(e.weight, SwEdge::ReplicaLink))
                || g.out_edges(b)
                    .any(|(_, e)| e.to == a && matches!(e.weight, SwEdge::ReplicaLink));
            if linked {
                let na = g.node(a).unwrap().name.clone();
                let nb = g.node(b).unwrap().name.clone();
                return Some((na, nb));
            }
        }
    }
    None
}

fn old_is_schedulable(g: &SwGraph, group: &[NodeIdx]) -> bool {
    let jobs: Vec<Job> = group
        .iter()
        .filter_map(|&n| {
            g.node(n)
                .unwrap()
                .attributes
                .timing
                .map(|t| t.to_job(n.index() as JobId))
        })
        .collect();
    match JobSet::new(jobs) {
        Ok(set) => edf::feasible(&set),
        Err(_) => false,
    }
}

/// The old per-group validation loop of `Clustering::new` (after the
/// partition check), returning the same error it did.
fn old_validate(g: &SwGraph, groups: &[Vec<NodeIdx>]) -> Result<(), AllocError> {
    for group in groups {
        if let Some((a, b)) = old_replica_conflict(g, group) {
            return Err(AllocError::ReplicaConflict { a, b });
        }
        if !old_is_schedulable(g, group) {
            return Err(AllocError::Unschedulable {
                members: group
                    .iter()
                    .map(|&n| g.node(n).unwrap().name.clone())
                    .collect(),
            });
        }
    }
    Ok(())
}

// ------------------------------------------- the oracle heuristics

fn check_target(g: &SwGraph, target: usize) -> Result<(), AllocError> {
    if target == 0 || target > g.node_count() {
        return Err(AllocError::Graph(fcm_graph::GraphError::TooManyParts {
            requested: target,
            nodes: g.node_count(),
        }));
    }
    Ok(())
}

fn replay_through_pipeline(g: &SwGraph, target: Clustering) -> Result<Clustering, AllocError> {
    let mut pipe = CondensePipeline::new(g);
    let mut policy = pipeline::PartitionReplay::toward(g.node_count(), target.clusters());
    pipe.run_policy(target.len(), &mut policy)?;
    pipe.reorder_to(target.clusters())?;
    pipe.into_clustering()
}

fn old_h3(g: &SwGraph, target: usize, weights: &ImportanceWeights) -> Result<Clustering, AllocError> {
    check_target(g, target)?;
    let mut order: Vec<NodeIdx> = g.node_indices().collect();
    order.sort_by(|&a, &b| {
        let ia = g.node(a).unwrap().importance(weights);
        let ib = g.node(b).unwrap().importance(weights);
        ib.partial_cmp(&ia).unwrap().then(a.cmp(&b))
    });
    let (seeds, rest) = order.split_at(target);
    let mut groups: Vec<Vec<NodeIdx>> = seeds.iter().map(|&s| vec![s]).collect();
    let mut remaining: Vec<NodeIdx> = rest.to_vec();
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, f64)> = None;
        for (pos, &v) in remaining.iter().enumerate() {
            for (gi, group) in groups.iter().enumerate() {
                if !accepts(g, group, v) {
                    continue;
                }
                let attach: f64 = group.iter().map(|&m| g.mutual_weight(v, m)).sum();
                if best.is_none_or(|(_, _, b)| attach > b) {
                    best = Some((pos, gi, attach));
                }
            }
        }
        match best {
            Some((pos, gi, _)) => {
                let v = remaining.swap_remove(pos);
                groups[gi].push(v);
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

fn old_h2(g: &SwGraph, target: usize, policy: BisectPolicy) -> Result<Clustering, AllocError> {
    check_target(g, target)?;
    let groups = recursive_min_cut(g, target, policy)?;
    let repaired = old_repair(g, groups, target)?;
    replay_through_pipeline(g, repaired)
}

fn old_h2_source_target(
    g: &SwGraph,
    target: usize,
    weights: &ImportanceWeights,
) -> Result<Clustering, AllocError> {
    check_target(g, target)?;
    let mut groups: Vec<Vec<NodeIdx>> = vec![g.node_indices().collect()];
    while groups.len() < target {
        let (gi, _) = groups
            .iter()
            .enumerate()
            .filter(|(_, grp)| grp.len() >= 2)
            .max_by_key(|(_, grp)| grp.len())
            .unwrap();
        let group = groups.swap_remove(gi);
        let (sub, back) = induced_subgraph(g, &group);
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by(|&a, &b| {
            let ia = g.node(back[a]).unwrap().importance(weights);
            let ib = g.node(back[b]).unwrap().importance(weights);
            ib.partial_cmp(&ia).unwrap().then(a.cmp(&b))
        });
        let (s, t) = (NodeIdx(order[0]), NodeIdx(*order.last().unwrap()));
        let cut = st_min_cut(&sub, s, t)?;
        let to_orig = |side: &[NodeIdx]| side.iter().map(|&i| back[i.index()]).collect::<Vec<_>>();
        groups.push(to_orig(&cut.side_a));
        groups.push(to_orig(&cut.side_b));
    }
    let repaired = old_repair(g, groups, target)?;
    replay_through_pipeline(g, repaired)
}

fn old_repair(
    g: &SwGraph,
    mut groups: Vec<Vec<NodeIdx>>,
    target: usize,
) -> Result<Clustering, AllocError> {
    let budget = g.node_count() * target.max(1) + 8;
    for _ in 0..budget {
        match Clustering::new(g, groups.clone()) {
            Ok(c) => return Ok(c),
            Err(_) => {
                if !old_repair_step(g, &mut groups) {
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

fn old_repair_step(g: &SwGraph, groups: &mut [Vec<NodeIdx>]) -> bool {
    let invalid = groups.iter().position(|grp| !oracle_feasible(g, grp));
    let Some(gi) = invalid else { return false };
    let mut candidates: Vec<NodeIdx> = groups[gi].clone();
    candidates.sort_by(|&a, &b| {
        let na = g.node(a).unwrap();
        let nb = g.node(b).unwrap();
        let ra = na.replica_group.is_some();
        let rb = nb.replica_group.is_some();
        rb.cmp(&ra).then(
            nb.attributes
                .timing
                .map_or(0.0, |t| t.density())
                .partial_cmp(&na.attributes.timing.map_or(0.0, |t| t.density()))
                .unwrap(),
        )
    });
    for require_source_valid in [true, false] {
        for &v in &candidates {
            let without: Vec<NodeIdx> = groups[gi].iter().copied().filter(|&n| n != v).collect();
            if without.is_empty() {
                continue;
            }
            if require_source_valid && !oracle_feasible(g, &without) {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (oj, other) in groups.iter().enumerate() {
                if oj == gi || !accepts(g, other, v) {
                    continue;
                }
                let attach: f64 = other.iter().map(|&m| g.mutual_weight(v, m)).sum();
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

fn old_timing_refinement(g: &SwGraph, target: usize) -> Result<Clustering, AllocError> {
    check_target(g, target)?;
    let mut order: Vec<NodeIdx> = g.node_indices().collect();
    order.sort_by_key(|&n| {
        let t = g.node(n).unwrap().attributes.timing;
        (t.map_or(u64::MAX, |t| t.est), t.map_or(u64::MAX, |t| t.tcd), n)
    });
    let mut groups: Vec<Vec<NodeIdx>> = Vec::new();
    'nodes: for v in order {
        for group in &mut groups {
            let mut candidate = group.clone();
            candidate.push(v);
            if oracle_feasible(g, &candidate) {
                group.push(v);
                continue 'nodes;
            }
        }
        if groups.len() < target {
            groups.push(vec![v]);
        } else {
            return Err(AllocError::NoFeasibleClustering {
                requested: target,
                reached: groups.len(),
            });
        }
    }
    Clustering::new(g, groups)
}

// ------------------------------------------------------------ properties

fn graph_and_target(rng: &mut Rng, size: usize) -> (SwGraph, usize) {
    let n = 2 + rng.gen_range(0..=(14 * size.clamp(1, 100) / 100));
    let g = random_sw_graph(rng, n);
    let target = rng.gen_range(1..=n);
    (g, target)
}

fn same(new: &Result<Clustering, AllocError>, old: &Result<Clustering, AllocError>) -> Result<(), String> {
    prop_assert!(new == old, "new {:?} vs old {:?}", new, old);
    Ok(())
}

#[test]
fn group_feasible_equals_the_one_group_partition_oracle() {
    prop::check_cases(
        "group_feasible_equals_the_one_group_partition_oracle",
        96,
        |rng, size| {
            let (g, _) = graph_and_target(rng, size);
            let n = g.node_count();
            let sets: Vec<Vec<NodeIdx>> = (0..24).map(|_| random_members(rng, n)).collect();
            (g, sets)
        },
        |(g, sets)| {
            let feasible = GroupFeasibility::new(g);
            for members in sets {
                prop_assert_eq!(
                    feasible.fits(members),
                    oracle_feasible(g, members),
                    "members {:?}",
                    members
                );
            }
            Ok(())
        },
    );
}

#[test]
fn clustering_new_keeps_its_error_variants_and_check_order() {
    prop::check_cases(
        "clustering_new_keeps_its_error_variants_and_check_order",
        96,
        |rng, size| {
            let (g, target) = graph_and_target(rng, size);
            // A random partition into at most `target` groups.
            let mut groups: Vec<Vec<NodeIdx>> = vec![Vec::new(); target];
            for v in g.node_indices() {
                groups[rng.gen_range(0..target)].push(v);
            }
            groups.retain(|grp| !grp.is_empty());
            (g, groups)
        },
        |(g, groups)| {
            let new = Clustering::new(g, groups.clone()).map(|_| ());
            prop_assert_eq!(new, old_validate(g, groups));
            Ok(())
        },
    );
}

#[test]
fn incremental_h3_equals_the_oracle_h3() {
    prop::check_cases(
        "incremental_h3_equals_the_oracle_h3",
        96,
        graph_and_target,
        |(g, target)| {
            let w = ImportanceWeights::default();
            same(&h3(g, *target, &w), &old_h3(g, *target, &w))
        },
    );
}

#[test]
fn h2_repair_equals_the_oracle_repair() {
    prop::check_cases(
        "h2_repair_equals_the_oracle_repair",
        64,
        graph_and_target,
        |(g, target)| {
            for policy in [BisectPolicy::LargestPart, BisectPolicy::HeaviestPart] {
                same(&h2(g, *target, policy), &old_h2(g, *target, policy))?;
            }
            Ok(())
        },
    );
}

#[test]
fn h2_source_target_repair_equals_the_oracle_repair() {
    prop::check_cases(
        "h2_source_target_repair_equals_the_oracle_repair",
        64,
        graph_and_target,
        |(g, target)| {
            let w = ImportanceWeights::default();
            same(
                &h2_source_target(g, *target, &w),
                &old_h2_source_target(g, *target, &w),
            )
        },
    );
}

#[test]
fn timing_refinement_equals_the_oracle_first_fit() {
    prop::check_cases(
        "timing_refinement_equals_the_oracle_first_fit",
        64,
        graph_and_target,
        |(g, target)| same(&timing_refinement(g, *target), &old_timing_refinement(g, *target)),
    );
}
