//! Verification-engine benchmarks: BayesLSH vs the fixed-n MLE vs exact
//! computation on the *same* candidate set — the heart of the paper's
//! speedup claims — plus **ablation: chunk size k** (DESIGN.md §5.1).

use std::hint::black_box;

use bayeslsh_candgen::all_pairs_cosine_candidates;
use bayeslsh_core::{
    bayes_verify, bayes_verify_lite, mle_verify, par_exact_verify, BayesLshConfig, CosineModel,
    LiteConfig, Measure,
};
use bayeslsh_datasets::Preset;
use bayeslsh_lsh::{r_to_cos, BitSignatures, SrpHasher};
use bayeslsh_sparse::cosine;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_verification(c: &mut Criterion) {
    let data = Preset::Rcv1.load(0.0015, 31);
    let t = 0.7;
    let cands = all_pairs_cosine_candidates(&data, t);
    let mut g = c.benchmark_group("verification");
    g.sample_size(10);

    g.bench_function("bayes_full", |b| {
        b.iter(|| {
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 1), data.len());
            let (out, _) = bayes_verify(
                &data,
                &mut pool,
                &CosineModel::new(),
                black_box(&cands),
                &BayesLshConfig::cosine(t),
            );
            black_box(out.len())
        });
    });
    g.bench_function("bayes_lite", |b| {
        b.iter(|| {
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 1), data.len());
            let (out, _) = bayes_verify_lite(
                &data,
                &mut pool,
                &CosineModel::new(),
                black_box(&cands),
                &LiteConfig::cosine(t),
                cosine,
            );
            black_box(out.len())
        });
    });
    g.bench_function("mle_fixed_2048", |b| {
        b.iter(|| {
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 1), data.len());
            let (out, _) = mle_verify(&data, &mut pool, black_box(&cands), 2048, t, r_to_cos);
            black_box(out.len())
        });
    });
    g.bench_function("exact", |b| {
        b.iter(|| {
            let n = cands
                .iter()
                .filter(|&&(a, b)| cosine(data.vector(a), data.vector(b)) >= t)
                .count();
            black_box(n)
        });
    });
    // The same exact step through the scatter-gather kernel: one anchor
    // load per run, one gather per partner.
    g.bench_function("exact_kernel", |b| {
        b.iter(|| {
            let out = par_exact_verify(&data, Measure::Cosine, t, black_box(&cands), 1);
            black_box(out.len())
        });
    });
    g.finish();
}

fn bench_chunk_size(c: &mut Criterion) {
    let data = Preset::Rcv1.load(0.0015, 32);
    let t = 0.7;
    let cands = all_pairs_cosine_candidates(&data, t);
    let mut g = c.benchmark_group("chunk_size_ablation");
    g.sample_size(10);
    for k in [32u32, 64, 128, 256] {
        g.bench_function(format!("k{k}"), |b| {
            let cfg = BayesLshConfig {
                k,
                ..BayesLshConfig::cosine(t)
            };
            b.iter(|| {
                let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 2), data.len());
                let (out, _) = bayes_verify(
                    &data,
                    &mut pool,
                    &CosineModel::new(),
                    black_box(&cands),
                    &cfg,
                );
                black_box(out.len())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_verification, bench_chunk_size);
criterion_main!(benches);
