//! Workload inputs: the generated corpus, the held-out sample, and the
//! exact oracle every recall check compares against.

use std::collections::HashSet;

use bayeslsh_candgen::all_pairs_cosine;
use bayeslsh_datasets::Preset;
use bayeslsh_numeric::{derive_seed, Xoshiro256};
use bayeslsh_sparse::{Dataset, SparseVector};

/// A workload's generated inputs.
pub struct Inputs {
    /// The indexed corpus (the generated corpus minus the held-out sample).
    pub base: Dataset,
    /// Held-out vectors: the query stream, and the serving insert stream.
    pub held_out: Vec<SparseVector>,
    /// Exact pairs of `base` at the threshold (ids in `base`).
    pub oracle_pairs: HashSet<(u32, u32)>,
    /// For each held-out vector, the `base` ids at or above the threshold.
    pub oracle_neighbors: Vec<Vec<u32>>,
}

/// Generate `preset` at `scale` from `corpus_seed`, hold out a sample of
/// `held_out` vectors drawn across all ids from `seed`, and compute the
/// exact oracle at threshold `t` with the AllPairs exact join.
///
/// The corpus stands in for one fixed dataset, as the paper's corpora are;
/// `seed` draws the held-out sample, so it picks the indexed vectors, the
/// query stream and the insert stream. The generator writes cluster
/// members first, so a sample from the id tail would hold out mostly
/// background vectors with no neighbours; a sample across all ids keeps
/// the query stream representative.
pub fn generate(
    preset: Preset,
    scale: f64,
    corpus_seed: u64,
    seed: u64,
    held_out: usize,
    t: f64,
) -> Inputs {
    let full = preset.load(scale, corpus_seed);
    let mut rng = Xoshiro256::seed_from_u64(derive_seed(seed, 0x5E1EC7));
    let mut is_held = vec![false; full.len()];
    for i in rng.sample_indices(full.len(), held_out.min(full.len() / 2)) {
        is_held[i] = true;
    }
    // Map every full-corpus id to its slot in the base corpus or in the
    // held-out list, both in ascending full-corpus order.
    let mut base = Dataset::new(full.dim());
    let mut held = Vec::new();
    let mut slot = Vec::with_capacity(full.len());
    for (id, v) in full.iter() {
        if is_held[id as usize] {
            slot.push(Err(held.len()));
            held.push(v.clone());
        } else {
            slot.push(Ok(base.push(v.clone())));
        }
    }

    let mut oracle_pairs = HashSet::new();
    let mut oracle_neighbors = vec![Vec::new(); held.len()];
    for (a, b, _) in all_pairs_cosine(&full, t) {
        match (slot[a as usize], slot[b as usize]) {
            (Ok(x), Ok(y)) => {
                oracle_pairs.insert((x.min(y), x.max(y)));
            }
            (Err(h), Ok(x)) | (Ok(x), Err(h)) => oracle_neighbors[h].push(x),
            (Err(_), Err(_)) => {}
        }
    }
    for n in &mut oracle_neighbors {
        n.sort_unstable();
    }
    Inputs {
        base,
        held_out: held,
        oracle_pairs,
        oracle_neighbors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_seeded_spread_and_partitions_the_corpus() {
        let a = generate(Preset::Rcv1, 0.0004, 1, 3, 60, 0.7);
        let b = generate(Preset::Rcv1, 0.0004, 1, 3, 60, 0.7);
        let c = generate(Preset::Rcv1, 0.0004, 1, 4, 60, 0.7);
        let full = Preset::Rcv1.load(0.0004, 1);
        assert_eq!(a.held_out.len(), 60);
        assert_eq!(a.base.len() + a.held_out.len(), full.len());
        assert_eq!(a.held_out, b.held_out);
        assert_eq!(a.oracle_pairs, b.oracle_pairs);
        assert_ne!(a.held_out, c.held_out);
        // Spread across ids: not all from the tail, not all from the head.
        let tail = &full.vectors()[full.len() - 60..];
        assert!(a.held_out.iter().any(|v| !tail.contains(v)));
        let head = &full.vectors()[..60];
        assert!(a.held_out.iter().any(|v| !head.contains(v)));
    }
}
