//! Cross-crate integration: datasets → candidate generation → BayesLSH
//! verification, on every preset family.

use bayeslsh::prelude::*;

/// A corpus small enough for exhaustive ground truth but structured enough
/// for non-trivial result sets.
fn weighted_corpus(seed: u64) -> Dataset {
    Preset::Rcv1.load(0.0015, seed)
}

#[test]
fn every_algorithm_runs_on_weighted_cosine() {
    let data = weighted_corpus(1);
    let cfg = PipelineConfig::cosine(0.7);
    let truth = ground_truth(&data, Measure::Cosine, 0.7);
    assert!(!truth.is_empty());
    for algo in Algorithm::ALL {
        if !algo.supports_weighted() {
            continue;
        }
        let out = run_algorithm(algo, &data, &cfg);
        let recall = recall_against(&truth, &out.pairs);
        let floor = if algo.is_exact() { 1.0 } else { 0.85 };
        assert!(recall >= floor, "{algo}: recall {recall}");
    }
}

#[test]
fn every_algorithm_runs_on_binary_jaccard() {
    let data = Preset::Twitter.load_binary(0.004, 2);
    let cfg = PipelineConfig::jaccard(0.4);
    let truth = ground_truth(&data, Measure::Jaccard, 0.4);
    assert!(!truth.is_empty());
    for algo in Algorithm::ALL {
        let out = run_algorithm(algo, &data, &cfg);
        let recall = recall_against(&truth, &out.pairs);
        let floor = if algo.is_exact() { 1.0 } else { 0.85 };
        assert!(recall >= floor, "{algo}: recall {recall}");
    }
}

#[test]
fn exact_algorithms_agree_on_binary_cosine() {
    let data = Preset::WikiWords500K.load_binary(0.0008, 3);
    let cfg = PipelineConfig::cosine(0.6);
    let ap = run_algorithm(Algorithm::AllPairs, &data, &cfg);
    let pp = run_algorithm(Algorithm::PpjoinPlus, &data, &cfg);
    let key = |v: &[(u32, u32, f64)]| {
        let mut k: Vec<(u32, u32)> = v.iter().map(|&(a, b, _)| (a, b)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(key(&ap.pairs), key(&pp.pairs));
}

#[test]
fn lite_never_reports_false_positives() {
    let data = weighted_corpus(4);
    let t = 0.6;
    let cfg = PipelineConfig::cosine(t);
    for algo in [Algorithm::ApBayesLshLite, Algorithm::LshBayesLshLite] {
        let out = run_algorithm(algo, &data, &cfg);
        for &(a, b, s) in &out.pairs {
            let exact = cosine(data.vector(a), data.vector(b));
            assert!(
                exact >= t,
                "{algo}: ({a},{b}) reported at {s} but exact is {exact}"
            );
            assert!(
                (exact - s).abs() < 1e-9,
                "{algo}: Lite must report exact similarities"
            );
        }
    }
}

#[test]
fn full_bayeslsh_respects_the_accuracy_contract() {
    let data = weighted_corpus(5);
    let cfg = PipelineConfig::cosine(0.6);
    let out = run_algorithm(Algorithm::ApBayesLsh, &data, &cfg);
    assert!(out.pairs.len() > 20);
    let err = estimate_errors(&out.pairs, &data, Measure::Cosine, cfg.delta);
    // Pr[|error| >= delta] < gamma, with slack for sampling noise.
    assert!(
        err.frac_above <= cfg.gamma + 0.07,
        "estimate errors above delta: {} of {}",
        err.frac_above,
        err.n
    );
}

#[test]
fn engine_stats_are_consistent_across_pipelines() {
    let data = weighted_corpus(6);
    let cfg = PipelineConfig::cosine(0.7);
    for algo in [Algorithm::ApBayesLsh, Algorithm::LshBayesLsh] {
        let out = run_algorithm(algo, &data, &cfg);
        let stats = out.engine.expect("bayes pipelines report stats");
        assert_eq!(stats.input_pairs, out.candidates);
        assert_eq!(stats.pruned + stats.accepted, stats.input_pairs);
        assert_eq!(stats.accepted as usize, out.pairs.len());
        let curve = stats.survivors_curve();
        assert_eq!(curve.first().unwrap().1, stats.input_pairs);
        assert_eq!(curve.last().unwrap().1, stats.input_pairs - stats.pruned);
    }
}

#[test]
fn jaccard_lite_on_graph_preset() {
    let data = Preset::WikiLinks.load_binary(0.0006, 7);
    let t = 0.5;
    let cfg = PipelineConfig::jaccard(t);
    let truth = ground_truth(&data, Measure::Jaccard, t);
    let out = run_algorithm(Algorithm::ApBayesLshLite, &data, &cfg);
    assert!(recall_against(&truth, &out.pairs) >= 0.9);
    for &(a, b, s) in &out.pairs {
        assert_eq!(
            s.to_bits(),
            jaccard(data.vector(a), data.vector(b)).to_bits()
        );
    }
}
