//! Checks of the benchmark's own machinery: seeded inputs, zero
//! rejections of the request mix at the committed models, percentile
//! arithmetic, and the metric-name grammar of `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use fcm_substrate::Json;
use perfbench::report::{nearest_rank, valid_name, valid_unit, Sample, END_TO_END, PER_LAYER};
use perfbench::{plan, serve};

fn lines(reqs: &[perfbench::mix::Request]) -> Vec<&str> {
    reqs.iter().map(|r| r.line.as_str()).collect()
}

#[test]
fn request_lines_are_a_pure_function_of_the_seed() {
    for spec in [serve::SMALL, serve::LARGE] {
        let (g1, l1) = serve::requests(&spec, 7, 2);
        let (g2, l2) = serve::requests(&spec, 7, 2);
        assert_eq!(lines(&g1), lines(&g2), "{}: growth differs", spec.name);
        assert_eq!(lines(&l1), lines(&l2), "{}: load differs", spec.name);
        let (_, other) = serve::requests(&spec, 8, 2);
        assert_ne!(lines(&l1), lines(&other), "{}: seed ignored", spec.name);
        assert_eq!(l1.len(), (spec.rate * 2.0) as usize);
        let (_, long) = serve::requests(&spec, 7, 20);
        let writes = long.iter().filter(|r| r.write).count() as f64 / long.len() as f64;
        assert!(
            (0.25..0.35).contains(&writes),
            "{}: write share {writes}",
            spec.name
        );
    }
    let (growth, _) = serve::requests(&serve::LARGE, 7, 1);
    assert_eq!(growth.len(), 2048 - 12, "growth reaches 2048 FCMs");
}

#[test]
fn plan_inputs_are_a_pure_function_of_the_seed() {
    let digest = |seed| {
        plan::batch(seed)
            .iter()
            .map(|p| {
                let edges: Vec<u64> = p
                    .graph
                    .edges()
                    .map(|(_, e)| e.weight.influence().to_bits())
                    .collect();
                (p.graph.node_count(), p.target, p.hw.len(), edges)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
    for p in plan::batch(3) {
        assert!((43..=54).contains(&p.graph.node_count()));
        assert!(p.hw.len() >= p.target);
    }
}

#[test]
fn the_mix_is_never_rejected_on_either_model() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-mix");
    for spec in [serve::SMALL, serve::LARGE] {
        let seconds = if spec.grow_to.is_some() { 4 } else { 2 };
        for seed in [1, 2] {
            let (growth, load) = serve::requests(&spec, seed, seconds);
            let store = dir.join(format!("{}-{seed}", spec.name));
            let replay = serve::replay(&growth, &load, &store, false).expect("replay runs");
            assert_eq!(replay.responses.len(), load.len());
            for (req, resp) in load.iter().zip(&replay.responses) {
                assert!(
                    resp.contains(r#""ok":true"#),
                    "{} seed {seed}: {} -> {resp}",
                    spec.name,
                    req.line
                );
            }
            for op in [
                "fail_node",
                "restore_node",
                "add_fcm",
                "remove_fcm",
                "set_attr",
            ] {
                assert!(
                    load.iter().any(|r| r.line.contains(op)),
                    "{} seed {seed}: no {op} in the mix",
                    spec.name
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn windows_are_dropped_only_for_steal_above_the_calm_level() {
    // Flat or zero steal: every window is kept, late ones included.
    assert_eq!(
        serve::kept_windows(&[0; 15], 8, 8),
        (0..15).collect::<Vec<_>>()
    );
    assert_eq!(
        serve::kept_windows(&[5; 15], 8, 8),
        (0..15).collect::<Vec<_>>()
    );
    assert_eq!(
        serve::kept_windows(&[30; 6], 8, 3),
        (0..6).collect::<Vec<_>>()
    );
    // Stolen windows go while enough calm ones remain, in time order.
    assert_eq!(
        serve::kept_windows(&[2, 40, 3, 9, 8, 0], 8, 3),
        vec![0, 2, 4, 5]
    );
    // Too few calm ones: the least-stolen windows make up the count.
    assert_eq!(
        serve::kept_windows(&[20, 40, 9, 30, 12], 8, 3),
        vec![0, 2, 4]
    );
}

#[test]
fn percentiles_are_nearest_rank_with_their_counts() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
    assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
    assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
    assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&[], 50.0), None);
    let s = Sample::new(vec![3.0, 1.0, 2.0, 4.0]);
    assert_eq!(s.pct(50.0), 2.0);
    assert_eq!(s.pct(75.0), 3.0);
    assert_eq!(s.beyond(50.0), 2);
    let text = s.describe(1.0, "ms");
    assert!(text.contains("n=4"), "{text}");
    assert!(text.contains("beyond p90=0"), "{text}");
}

#[test]
fn metric_names_follow_the_grammar() {
    for good in ["setup_s", "alloc.h3_ms", "9lives", "a-b.c_d"] {
        assert!(valid_name(good), "{good}");
    }
    let long = "x".repeat(65);
    for bad in ["", "_lead", ".lead", "has space", "slash/no", long.as_str()] {
        assert!(!valid_name(bad), "{bad}");
    }
    for good in ["ms", "1/s", "count", "MiB", "%", "ratio"] {
        assert!(valid_unit(good), "{good}");
    }
    for bad in ["", "m s", "seventeen-chars-x"] {
        assert!(!valid_unit(bad), "{bad}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, ["plan", "serve-large"]);
    assert!(workloads.iter().all(|w| valid_name(w)));
}
