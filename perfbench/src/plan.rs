//! The `plan` workload: the paper's design-time integration pipeline run
//! end to end on a fixed batch of generated systems.
//!
//! Each plan runs, in order: the `check_sw_graph` gate, Eq. 3 pairwise
//! separation, H1+A, H2+A, H3+A and B, `Mapping::validate` plus
//! `check_placed_model` on every mapping, `ReliabilityModel::evaluate`,
//! and a simulated mission of the most reliable mapping. Plans run one
//! after another on the calling thread, pinned to CPU 0, so the
//! substrate pool the reliability model fans its trials over has one
//! worker.
//!
//! After each plan, outside its timed span, every HW node of every
//! mapping fails in turn and `failover::remap` re-places its FCMs: the
//! design-time counterpart of the daemon's recovery, timed on its own.

use std::time::{Duration, Instant};

use fcm_alloc::failover::remap;
use fcm_alloc::heuristics::{h1, h2, h3};
use fcm_alloc::mapping::{approach_a, approach_b};
use fcm_alloc::replication::expand_replicas;
use fcm_alloc::{AllocError, Clustering, HwGraph, Mapping, ShedPolicy, SwGraph};
use fcm_check::gates::{check_placed_model, check_sw_graph};
use fcm_core::separation::SeparationAnalysis;
use fcm_core::ImportanceWeights;
use fcm_eval::ReliabilityModel;
use fcm_graph::algo::BisectPolicy;
use fcm_sim::model::SchedulingPolicy;
use fcm_sim::Injection;
use fcm_substrate::Rng;
use fcm_workloads::materialize::system_from_mapping;
use fcm_workloads::random::RandomWorkload;

use crate::calib::HostSpeed;
use crate::report::{median, peak_rss_mib, Digest, Outcome, Sample};

/// Processes per generated system (before replica expansion).
pub const PROCESSES: usize = 40;
/// Influence-edge probability per ordered pair.
pub const DENSITY: f64 = 0.25;
/// Share of processes given FT 2 or 3.
pub const REPLICATED: f64 = 0.15;
/// Systems in the batch.
pub const BATCH: usize = 4;
/// FCM count (after replica expansion) every system in the batch aims
/// for; this generator yields about 43–54. H3's cost grows steeply with
/// the FCM count, so fixing it leaves only the graphs to differ between
/// seeds.
pub const FCMS: usize = 48;
/// Fewest passes over the batch a run makes.
pub const MIN_PASSES: usize = 5;
/// Candidate systems drawn per batch slot; the slot takes the first one
/// closest to its FCM count. A fixed count keeps set-up work the same
/// for every seed.
pub const CANDIDATES: u64 = 24;
/// Monte-Carlo missions per reliability evaluation.
pub const RELIABILITY_TRIALS: u64 = 1500;
/// Walk-series order of the Eq. 3 separation matrix.
pub const SEPARATION_ORDER: usize = 4;
/// Criticality from which a failover may not shed an FCM.
pub const FAILOVER_CRITICAL: u32 = 5;
/// Simulated-time horizon of the mission run.
pub const SIM_HORIZON: u64 = 600;
/// Reference-kernel timings taken before each plan.
pub const PROBES_PER_PLAN: usize = 3;
/// Batch generations timed for `setup_s` (the median is reported).
pub const SETUP_REPEATS: usize = 25;

/// The strategies each plan runs, in order.
pub const STRATEGIES: [&str; 4] = ["H1+A", "H2+A", "H3+A", "B"];

/// One generated system with its platform and cluster target.
#[derive(Debug, Clone)]
pub struct PlanInput {
    /// Replica-expanded SW graph.
    pub graph: SwGraph,
    /// Mesh HW platform with at least `target` nodes.
    pub hw: HwGraph,
    /// Cluster target: FCMs / 3, at least the largest replica group.
    pub target: usize,
}

/// The batch for `seed`: slot `k` draws `CANDIDATES` systems from
/// `Rng::stream(seed, k)` and keeps the first whose expansion is
/// closest to `FCMS` FCMs. A pure function of the seed.
#[must_use]
pub fn batch(seed: u64) -> Vec<PlanInput> {
    (0..BATCH as u64)
        .map(|k| {
            let mut seeds = Rng::stream(seed, k);
            let graph = (0..CANDIDATES)
                .map(|_| {
                    let raw = RandomWorkload {
                        processes: PROCESSES,
                        density: DENSITY,
                        replicated_fraction: REPLICATED,
                        seed: seeds.next_u64(),
                        ..RandomWorkload::default()
                    }
                    .generate();
                    expand_replicas(&raw).graph
                })
                .min_by_key(|g| g.node_count().abs_diff(FCMS))
                .expect("at least one candidate");
            let largest_group = {
                let mut groups = std::collections::BTreeMap::<u32, usize>::new();
                for (_, n) in graph.nodes() {
                    if let Some(g) = n.replica_group {
                        *groups.entry(g).or_default() += 1;
                    }
                }
                groups.values().copied().max().unwrap_or(1)
            };
            let target = (graph.node_count() / 3).max(largest_group);
            let w = (target as f64).sqrt().ceil() as usize;
            let hw = HwGraph::mesh(w, target.div_ceil(w));
            PlanInput { graph, hw, target }
        })
        .collect()
}

/// Calls timed inside a plan; one accumulator each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `check_sw_graph` + `check_placed_model`.
    Gate,
    /// `SeparationAnalysis::from_graph` + `pairwise`.
    Separation,
    /// `heuristics::h1`.
    H1,
    /// `heuristics::h2`.
    H2,
    /// `heuristics::h3`.
    H3,
    /// `approach_a` and `approach_b`.
    Map,
    /// `ReliabilityModel::evaluate`.
    Reliability,
    /// `system_from_mapping` + `engine::run`.
    Sim,
    /// `failover::remap`, once per HW node of every mapping (after the
    /// plan, outside its wall time).
    Failover,
}

/// Every layer with its per-layer metric name.
pub const LAYERS: [(Layer, &str); 9] = [
    (Layer::Gate, "check.plan_gate_ms"),
    (Layer::Separation, "core.separation_ms"),
    (Layer::H1, "alloc.h1_ms"),
    (Layer::H2, "alloc.h2_ms"),
    (Layer::H3, "alloc.h3_ms"),
    (Layer::Map, "alloc.map_ms"),
    (Layer::Reliability, "eval.reliability_ms"),
    (Layer::Sim, "sim.mission_ms"),
    (Layer::Failover, "alloc.failover_ms"),
];

/// Per-layer busy time accumulated over plans.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    busy: [Duration; LAYERS.len()],
}

impl LayerTimes {
    /// Runs `f` inside a span named after the layer and adds its wall
    /// time to the layer's accumulator.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let (slot, (_, name)) = LAYERS
            .iter()
            .enumerate()
            .find(|(_, (l, _))| *l == layer)
            .expect("every layer is listed");
        let _span = fcm_obs::span(name);
        let t0 = Instant::now();
        let out = f();
        self.busy[slot] += t0.elapsed();
        out
    }

    /// Busy time of `layer`.
    #[must_use]
    pub fn busy(&self, layer: Layer) -> Duration {
        let slot = LAYERS
            .iter()
            .position(|(l, _)| *l == layer)
            .expect("every layer is listed");
        self.busy[slot]
    }

    /// Busy time summed over layers.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.busy.iter().sum()
    }
}

/// What one plan produced.
#[derive(Debug, Clone)]
pub struct PlanResult {
    /// Digest of every mapping, its reliability, the chosen strategy
    /// and the simulated mission.
    pub digest: u64,
    /// Wall time of the placement decisions: the four strategies with
    /// their validation and `check_placed_model`.
    pub decide: Duration,
    /// Wall time of the analyses: gate, separation, reliability and the
    /// simulated mission.
    pub analyse: Duration,
    /// The valid mappings, by strategy.
    pub mappings: Vec<(&'static str, Clustering, Mapping)>,
    /// Strategies that produced a valid mapping.
    pub strategies_ok: u32,
    /// Strategy, gate and validation errors (empty = plan succeeded).
    pub errors: Vec<String>,
}

fn digest_mapping(d: &mut Digest, name: &str, c: &Clustering, m: &Mapping, failure: f64) {
    d.update(name.as_bytes());
    for cluster in c.clusters() {
        for v in cluster {
            d.update(&(v.index() as u64).to_le_bytes());
        }
        d.update(b"|");
    }
    for (ci, h) in m.iter() {
        d.update(&(ci as u64).to_le_bytes());
        d.update(&(h.index() as u64).to_le_bytes());
    }
    d.update(&failure.to_bits().to_le_bytes());
}

/// Runs one plan on `input`, timing each layer call into `layers`.
pub fn run_plan(input: &PlanInput, layers: &mut LayerTimes) -> PlanResult {
    let _plan = fcm_obs::span("plan");
    let g = &input.graph;
    let hw = &input.hw;
    let weights = ImportanceWeights::default();
    let mut errors = Vec::new();
    let mut digest = Digest::default();

    let t_analyse = Instant::now();
    let gate = layers.time(Layer::Gate, || check_sw_graph(g));
    if gate.has_errors() {
        errors.push(format!("check_sw_graph: {}", gate.error_lines()));
    }
    match layers.time(Layer::Separation, || {
        SeparationAnalysis::from_graph(g).map(|s| s.pairwise(SEPARATION_ORDER))
    }) {
        Ok(sep) => {
            for i in 0..sep.rows() {
                for j in 0..sep.cols() {
                    let x = sep.get(i, j).expect("in range");
                    digest.update(&x.to_bits().to_le_bytes());
                }
            }
        }
        Err(e) => errors.push(format!("separation: {e}")),
    }

    let analyse = t_analyse.elapsed();

    let t_decide = Instant::now();
    let mut mappings: Vec<(&'static str, Clustering, Mapping)> = Vec::new();
    for name in STRATEGIES {
        let _strategy = fcm_obs::span("strategy");
        let outcome: Result<(Clustering, Mapping), AllocError> = match name {
            "B" => layers.time(Layer::Map, || approach_b(g, hw, &weights)),
            _ => {
                let (layer, cluster): (Layer, &dyn Fn() -> Result<Clustering, AllocError>) =
                    match name {
                        "H1+A" => (Layer::H1, &|| h1(g, input.target)),
                        "H2+A" => (Layer::H2, &|| {
                            h2(g, input.target, BisectPolicy::LargestPart)
                        }),
                        _ => (Layer::H3, &|| h3(g, input.target, &weights)),
                    };
                layers.time(layer, cluster).and_then(|c| {
                    let m = layers.time(Layer::Map, || approach_a(g, &c, hw, &weights))?;
                    Ok((c, m))
                })
            }
        };
        match outcome {
            Ok((c, m)) => {
                let valid = m.validate(g, &c, hw);
                let report = layers.time(Layer::Gate, || {
                    check_placed_model(
                        "plan",
                        g,
                        c.clone(),
                        m.clone(),
                        hw.clone(),
                        ShedPolicy::Never,
                    )
                });
                if let Err(e) = valid {
                    errors.push(format!("{name}: Mapping::validate: {e}"));
                } else if report.has_errors() {
                    errors.push(format!(
                        "{name}: check_placed_model: {}",
                        report.error_lines()
                    ));
                } else {
                    mappings.push((name, c, m));
                }
            }
            Err(e) => errors.push(format!("{name}: {e}")),
        }
    }

    let decide = t_decide.elapsed();

    let t_analyse = Instant::now();
    let model = ReliabilityModel {
        trials: RELIABILITY_TRIALS,
        seed: 404,
        ..ReliabilityModel::default()
    };
    let mut best: Option<(usize, f64)> = None;
    for (k, (name, c, m)) in mappings.iter().enumerate() {
        let estimate = layers.time(Layer::Reliability, || model.evaluate(g, c, m));
        digest_mapping(&mut digest, name, c, m, estimate.mission_failure);
        if best.is_none_or(|(_, f)| estimate.mission_failure < f) {
            best = Some((k, estimate.mission_failure));
        }
    }
    if let Some((k, _)) = best {
        let (name, c, m) = &mappings[k];
        digest.update(name.as_bytes());
        let mission = layers.time(Layer::Sim, || {
            system_from_mapping(g, c, m, SchedulingPolicy::PreemptiveEdf, 0.2).map(|mat| {
                let trace = fcm_sim::engine::run(
                    &mat.spec,
                    &[Injection::value(0, mat.task_of[0])],
                    7,
                    SIM_HORIZON,
                );
                (0..mat.spec.task_count())
                    .filter(|&t| trace.value_faulty(t))
                    .count()
            })
        });
        match mission {
            Ok(faulty) => digest.update(&(faulty as u64).to_le_bytes()),
            Err(e) => errors.push(format!("materialise {name}: {e}")),
        }
    }
    let analyse = analyse + t_analyse.elapsed();
    PlanResult {
        digest: digest.value(),
        decide,
        analyse,
        strategies_ok: mappings.len() as u32,
        mappings,
        errors,
    }
}

/// Fails each HW node of each of a plan's `mappings` in turn and
/// re-places its FCMs on the survivors. Returns a digest of the new
/// placements; failures are appended to `errors`.
pub fn failover(
    input: &PlanInput,
    mappings: &[(&'static str, Clustering, Mapping)],
    layers: &mut LayerTimes,
    errors: &mut Vec<String>,
) -> u64 {
    let _failover = fcm_obs::span("failover");
    let mut digest = Digest::default();
    let policy = ShedPolicy::ShedBelow {
        critical_at: FAILOVER_CRITICAL,
    };
    for (name, c, m) in mappings {
        for (_, dead) in m.iter() {
            match layers.time(Layer::Failover, || {
                remap(&input.graph, c, m, &input.hw, dead, policy)
            }) {
                Ok(o) => {
                    for (v, to) in &o.placement {
                        digest.update(&(v.index() as u64).to_le_bytes());
                        digest.update(&to.map_or(u64::MAX, |h| h.index() as u64).to_le_bytes());
                    }
                }
                Err(e) => errors.push(format!("failover of {} in {name}: {e}", dead.index())),
            }
        }
    }
    digest.value()
}

/// Runs the workload for at least `seconds` and `MIN_PASSES` whole
/// passes over the batch. The timings of each input are the fastest of
/// its passes: the work is deterministic, and on a shared host a
/// plan's wall time only ever gains from outside interference, so the
/// minimum is the steady estimate. They are then scaled by the run's
/// host speed (see [`crate::calib`]).
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    // Every step single-threaded, so the reference kernel's speed scales
    // all of it. With two pool workers the analysis time (mostly the
    // reliability trials) moved by 60% between sets of runs with the
    // second CPU's availability, which the kernel does not see.
    crate::serve::pin_to_cpu(0);
    let mut out = Outcome::default();
    // Each generation is scaled by a reference-kernel timing taken just
    // before it: set-up is short, and the host's speed drifts.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut speed = HostSpeed::default();
        speed.sample(1);
        let t0 = Instant::now();
        inputs = std::hint::black_box(batch(seed));
        setup.push(t0.elapsed().as_secs_f64() * speed.factor());
    }
    let fcms: Vec<usize> = inputs.iter().map(|p| p.graph.node_count()).collect();
    out.note(format!(
        "plan: batch of {} systems, FCMs {fcms:?}, {RELIABILITY_TRIALS} reliability trials",
        inputs.len()
    ));

    let n = inputs.len();
    let mut layers = LayerTimes::default();
    let mut digests: Vec<Option<u64>> = vec![None; n];
    // Fastest (total, decide, analyse, recover) per input.
    let mut best = vec![[f64::INFINITY; 4]; n];
    let mut host = HostSpeed::default();
    let mut strategies_ok = 0u64;
    // Traced runs alternate tracing per plan (input i flips mode every
    // pass), so traced and untraced throughput come from one run.
    let mut mode_time = [Duration::ZERO; 2];
    let mut mode_plans = [0u64; 2];
    let start = Instant::now();
    let deadline = Duration::from_secs(seconds);
    let mut idx = 0usize;
    while !idx.is_multiple_of(n) || idx < MIN_PASSES * n || start.elapsed() < deadline {
        let i = idx % n;
        let traced = trace && (idx / n + i) % 2 == 1;
        fcm_obs::set_enabled(traced);
        host.sample(PROBES_PER_PLAN);
        let t0 = Instant::now();
        let mut result = run_plan(&inputs[i], &mut layers);
        let took = t0.elapsed();
        let t1 = Instant::now();
        let moved = failover(
            &inputs[i],
            &result.mappings,
            &mut layers,
            &mut result.errors,
        );
        let recover = t1.elapsed();
        result.digest ^= moved.rotate_left(1);
        fcm_obs::set_enabled(false);
        mode_time[usize::from(traced)] += took;
        mode_plans[usize::from(traced)] += 1;
        out.attempted += 1;
        strategies_ok += u64::from(result.strategies_ok);
        let times = [took, result.decide, result.analyse, recover];
        for (b, t) in best[i].iter_mut().zip(times) {
            *b = b.min(t.as_secs_f64());
        }
        if !result.errors.is_empty() {
            out.failed += 1;
            for e in &result.errors {
                out.mismatch(format!("plan {i}: {e}"));
            }
        }
        match digests[i] {
            None => digests[i] = Some(result.digest),
            Some(d) if d != result.digest => {
                out.mismatch(format!("plan {i}: output differs between passes"));
            }
            Some(_) => {}
        }
        idx += 1;
    }
    let elapsed = start.elapsed();
    let mut digest = Digest::default();
    for d in digests.iter().flatten() {
        digest.update(&d.to_le_bytes());
    }
    out.note(format!(
        "plan: {} plans ({} passes) in {:.3} s ({:.4} plans/s over the whole run), digest of chosen plans {:016x}",
        out.attempted,
        idx / n,
        elapsed.as_secs_f64(),
        out.attempted as f64 / elapsed.as_secs_f64(),
        digest.value(),
    ));

    // CPU-bound figures, scaled to the nominal host speed.
    let f = host.factor();
    let column = |k: usize| best.iter().map(|b| b[k] * f).collect::<Vec<f64>>();
    let (decide, analyse) = (Sample::new(column(1)), Sample::new(column(2)));
    let raw_rate = n as f64 / best.iter().map(|b| b[0]).sum::<f64>();
    out.note(format!(
        "plan: reference kernel median {:.4} ms, scale {f:.4}; unscaled {raw_rate:.4} plans/s",
        host.median_s() * 1e3
    ));
    out.note(format!(
        "plan: fastest decision time per input, scaled {}",
        decide.describe(1e3, "ms")
    ));
    out.note(format!(
        "plan: fastest analysis time per input, scaled {}",
        analyse.describe(1e3, "ms")
    ));
    out.put("setup_s", median(&setup), "s");
    out.put("peak_rss_mb", peak_rss_mib(None).unwrap_or(0.0), "MiB");
    out.put("ops_per_s", raw_rate / f, "1/s");
    out.put("write_p50_ms", decide.pct(50.0) * 1e3, "ms");
    out.put("read_p50_ms", analyse.pct(50.0) * 1e3, "ms");
    out.put("recover_s", median(&column(3)), "s");
    out.put("host.probe_ms", host.median_s() * 1e3, "ms");
    if trace {
        let plans = out.attempted.max(1) as f64;
        for (layer, name) in LAYERS {
            out.put(name, layers.busy(layer).as_secs_f64() * 1e3 / plans, "ms");
        }
        out.put(
            "alloc.strategy_ok_ratio",
            strategies_ok as f64 / (plans * STRATEGIES.len() as f64),
            "ratio",
        );
        out.put(
            "plan.timed_share",
            (layers.total() - layers.busy(Layer::Failover)).as_secs_f64()
                / (mode_time[0] + mode_time[1]).as_secs_f64(),
            "ratio",
        );
        let rate = |m: usize| mode_plans[m] as f64 / mode_time[m].as_secs_f64().max(1e-9);
        if mode_plans[0] > 0 && mode_plans[1] > 0 {
            out.put("plan.trace_overhead_per_s", rate(0) - rate(1), "1/s");
        }
    }
    out
}
