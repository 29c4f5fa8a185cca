//! Seeded inputs. Every workload draws its structures, samples and
//! sentences from here, through [`Rng`] streams derived from `--seed`.

use folearn::TypeMode;
use folearn_graph::{generators, ColorId, Graph, GraphBuilder, Vocabulary, V};
use folearn_server::{SolverSpec, WireExample};

use crate::common::Rng;

/// Seed of the warm-up inputs that set-up sends. They do not depend on
/// `--seed`, so set-up time compares across seeds.
pub const WARMUP_SEED: u64 = 0;

/// A random tree of maximum degree `max_degree` (each new vertex attaches
/// to a uniform earlier vertex with spare degree), each vertex red with
/// probability `p_red` (`generators::randomly_colored`).
pub fn coloured_tree(n: usize, max_degree: usize, p_red: f64, rng: &mut Rng) -> Graph {
    assert!(
        max_degree >= 2,
        "a tree of max degree < 2 is at most an edge"
    );
    let mut b = GraphBuilder::with_vertices(Vocabulary::new(["Red"]), n);
    let mut degree = vec![0usize; n];
    for i in 1..n {
        // The previous vertex has degree ≤ 1 < max_degree, so this ends.
        let parent = loop {
            let p = rng.below(i);
            if degree[p] < max_degree {
                break p;
            }
        };
        degree[parent] += 1;
        degree[i] += 1;
        b.add_edge(V(parent as u32), V(i as u32));
    }
    generators::randomly_colored(&b.build(), p_red, rng.next_u64())
}

/// `m = n` single-vertex examples with random labels: vertices
/// `0..n−1` once each, plus vertex `c` again with the opposite label.
/// The contradictory pair makes every instance unrealisable, so no
/// solve can stop early on a zero-error hypothesis.
pub fn unrealisable_sample(n: usize, rng: &mut Rng) -> Vec<WireExample> {
    let mut examples: Vec<WireExample> = (0..n as u32 - 1)
        .map(|v| WireExample {
            tuple: vec![v],
            label: rng.chance(0.5),
        })
        .collect();
    let c = rng.below(n - 1);
    examples.push(WireExample {
        tuple: vec![c as u32],
        label: !examples[c].label,
    });
    examples
}

/// The solver both single-daemon workloads name: the default
/// brute-force spec with radius-1 local types.
pub fn solver_spec() -> SolverSpec {
    let mut spec = SolverSpec::default_brute();
    if let SolverSpec::Brute { mode, .. } = &mut spec {
        *mode = TypeMode::Local { r: 1 };
    }
    spec
}

/// The E1 experiment's red trees: a random recursive tree with every
/// third vertex red.
pub fn red_tree(n: usize, rng: &mut Rng) -> Graph {
    let tree = generators::random_tree(n, Vocabulary::new(["Red"]), rng.next_u64());
    generators::periodically_colored(&tree, ColorId(0), 3)
}

/// Quantifier-rank-2 sentences for the reduction: experiment E1's two,
/// and two whose oracle-call count depends on `n` alone (two levels of
/// `n(n−1)/2` pairs), which keeps the per-task cost distribution from
/// jumping between seeds.
pub const REDUCTION_SENTENCES: [&str; 4] = [
    "exists x0. Red(x0) & exists x1. E(x0, x1) & Red(x1)",
    "forall x0. Red(x0) -> exists x1. E(x0, x1) & !Red(x1)",
    "exists x0. exists x1. E(x0, x1) & Red(x0) & !Red(x1)",
    "forall x0. forall x1. E(x0, x1) -> Red(x0) | Red(x1)",
];

/// Small sentences for hot `modelcheck` requests (rank ≤ 2).
pub const HOT_SENTENCES: [&str; 6] = [
    "exists x0. Red(x0)",
    "forall x0. Red(x0)",
    "exists x0. exists x1. E(x0, x1) & Red(x0) & Red(x1)",
    "forall x0. exists x1. E(x0, x1)",
    "exists x0. forall x1. E(x0, x1) -> Red(x1)",
    "forall x0. Red(x0) -> exists x1. E(x0, x1) & !Red(x1)",
];

/// `count` random single-vertex tuples of an `n`-vertex structure.
pub fn tuples(n: usize, count: usize, rng: &mut Rng) -> Vec<Vec<u32>> {
    (0..count).map(|_| vec![rng.below(n) as u32]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trees_respect_the_degree_bound_and_the_seed() {
        let g = coloured_tree(60, 3, 0.3, &mut Rng::new(5));
        assert_eq!(g.num_edges(), 59);
        assert!(g.max_degree() <= 3);
        let again = coloured_tree(60, 3, 0.3, &mut Rng::new(5));
        assert_eq!(
            folearn_graph::io::to_text(&g),
            folearn_graph::io::to_text(&again)
        );
    }

    #[test]
    fn samples_contain_a_contradiction() {
        let ex = unrealisable_sample(10, &mut Rng::new(1));
        assert_eq!(ex.len(), 10);
        let last = ex.last().unwrap();
        let twin = ex.iter().find(|e| e.tuple == last.tuple).unwrap();
        assert_ne!(twin.label, last.label);
    }
}
