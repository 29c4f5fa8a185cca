//! Differential proptests for the bytecode VM: on random formulas ×
//! random graphs, every VM verdict must be bit-identical to the
//! recursive tree-walker — for every assignment, in single-shot mode,
//! in batched mode, and for whole query answers. Edge cases covered by
//! the strategies: empty graphs, quantifier rank 0, counting
//! quantifiers, and repeated variables in `Eq`/`Edge` atoms (the random
//! generator emits them freely).

use proptest::prelude::*;

use folearn_graph::{ColorId, Graph, GraphBuilder, Vocabulary, V};
use folearn_logic::random::{random_formula, RandomFormulaConfig};
use folearn_logic::vm::{get_bit, EvalEngine, Evaluator, Program, VmGraph};
use folearn_logic::{eval, Formula};

/// Random coloured graphs, *including* the empty graph.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        0usize..9,
        proptest::collection::vec((0u32..9, 0u32..9), 0..16),
        0u64..(1 << 18),
    )
        .prop_map(|(n, edges, mask)| {
            let vocab = Vocabulary::new(["Red", "Blue"]);
            let mut b = GraphBuilder::with_vertices(vocab, n);
            for (u, v) in edges {
                if n > 0 {
                    let (u, v) = (u % n as u32, v % n as u32);
                    if u != v {
                        b.add_edge(V(u), V(v));
                    }
                }
            }
            for i in 0..n {
                if mask >> i & 1 == 1 {
                    b.set_color(V(i as u32), ColorId(0));
                }
                if mask >> (i + 9) & 1 == 1 {
                    b.set_color(V(i as u32), ColorId(1));
                }
            }
            b.build()
        })
}

fn cfg(free_vars: u16, qr: usize, cap: Option<u32>) -> RandomFormulaConfig {
    RandomFormulaConfig {
        free_vars,
        quantifier_rank: qr,
        max_fanout: 3,
        bool_depth: 2,
        counting_cap: cap,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn single_shot_bit_identical_on_every_assignment(
        g in arb_graph(), seed in 0u64..1000, qr in 0usize..3
    ) {
        // qr = 0 exercises the quantifier-free (pure word-op) path.
        let phi = random_formula(g.vocab(), &cfg(2, qr, None), seed);
        let prog = Program::compile_single(&phi, &[0, 1]);
        let vg = VmGraph::new(&g);
        let mut ev = Evaluator::new(&prog, &vg);
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(
                    ev.run_bool(&[(0, u), (1, v)]),
                    eval::satisfies(&g, &phi, &[u, v]),
                    "formula {} at ({}, {})", phi, u, v
                );
            }
        }
    }

    #[test]
    fn batched_lanes_bit_identical(g in arb_graph(), seed in 0u64..1000) {
        // One batch run per parameter value: lane v of the result must
        // equal the tree-walker's verdict on (v, param).
        let phi = random_formula(g.vocab(), &cfg(2, 2, None), seed);
        let prog = Program::compile(&phi, 0, &[1]);
        let vg = VmGraph::new(&g);
        let mut ev = Evaluator::new(&prog, &vg);
        for param in g.vertices() {
            let verdicts = ev.run(&[(1, param)]).to_vec();
            for u in g.vertices() {
                prop_assert_eq!(
                    get_bit(&verdicts, u.index()),
                    eval::satisfies(&g, &phi, &[u, param]),
                    "formula {} lane {} param {}", phi, u, param
                );
            }
        }
    }

    #[test]
    fn sentences_agree_including_empty_graphs(
        g in arb_graph(), seed in 0u64..1000
    ) {
        // The generator may emit x0 atoms even with no free-variable
        // budget, so close the formula explicitly to get a sentence.
        let phi = Formula::exists(0, random_formula(g.vocab(), &cfg(1, 2, None), seed));
        prop_assert_eq!(
            EvalEngine::Vm.models(&g, &phi),
            EvalEngine::TreeWalk.models(&g, &phi),
            "sentence {}", phi
        );
    }

    #[test]
    fn counting_quantifiers_bit_identical(
        g in arb_graph(), seed in 0u64..1000
    ) {
        let phi = random_formula(g.vocab(), &cfg(1, 2, Some(3)), seed);
        let prog = Program::compile(&phi, 0, &[]);
        let vg = VmGraph::new(&g);
        let mut ev = Evaluator::new(&prog, &vg);
        let verdicts = ev.run(&[]).to_vec();
        for u in g.vertices() {
            prop_assert_eq!(
                get_bit(&verdicts, u.index()),
                eval::satisfies(&g, &phi, &[u]),
                "formula {} at {}", phi, u
            );
        }
    }

    #[test]
    fn query_answers_identical_with_order(g in arb_graph(), seed in 0u64..500) {
        let phi = random_formula(g.vocab(), &cfg(2, 1, None), seed);
        prop_assert_eq!(
            EvalEngine::Vm.query_answer(&g, &phi, 2),
            EvalEngine::TreeWalk.query_answer(&g, &phi, 2),
            "formula {}", phi
        );
    }
}

#[test]
fn repeated_variable_atoms_under_quantifiers() {
    // Handwritten shapes the compiler special-cases: Eq/Edge on one
    // variable, free and bound, plus shadowed rebinding of the axis.
    let g = {
        let mut b = GraphBuilder::with_vertices(Vocabulary::new(["Red"]), 5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
            b.add_edge(V(u), V(v));
        }
        b.set_color(V(2), ColorId(0));
        b.build()
    };
    let cases = [
        Formula::Edge(0, 0),
        Formula::Eq(0, 0),
        Formula::exists(1, Formula::and([Formula::Edge(1, 1), Formula::Eq(0, 1)])),
        Formula::forall(1, Formula::or([Formula::Eq(1, 1), Formula::Edge(0, 1)])),
        // The inner ∃x0 shadows the batch axis and must restore it.
        Formula::exists(
            1,
            Formula::and([
                Formula::exists(0, Formula::Color(ColorId(0), 0)),
                Formula::Edge(0, 1),
            ]),
        ),
        Formula::counting_exists(2, 1, Formula::Edge(0, 1)),
    ];
    for phi in &cases {
        for u in g.vertices() {
            assert_eq!(
                EvalEngine::Vm.satisfies(&g, phi, &[u]),
                EvalEngine::TreeWalk.satisfies(&g, phi, &[u]),
                "{phi} at {u}"
            );
        }
    }
}

/// A sentence nested exactly [`folearn_logic::parser::MAX_DEPTH`] deep,
/// through every recursive site of the parser: two quantifiers, 100
/// negations, 150 parentheses, three right-nested `->` and one more
/// parenthesis.
fn at_depth_cap() -> String {
    format!(
        "exists x0. forall x1. {}{}Red(x0) -> Blue(x1) -> Red(x1) -> (E(x0, x1) | x0 = x1){}",
        "!".repeat(100),
        "(".repeat(150),
        ")".repeat(150),
    )
}

#[test]
fn a_formula_at_the_parse_depth_cap_agrees_on_tree_and_vm() {
    let vocab = Vocabulary::new(["Red", "Blue"]);
    let text = at_depth_cap();
    let phi = folearn_logic::parse(&text, &vocab).expect("a formula at the cap parses");
    assert!(
        folearn_logic::parse(&format!("!{text}"), &vocab).is_err(),
        "one more nesting is refused, so the formula sits exactly at the cap"
    );
    for n in 0..6u32 {
        let mut b = GraphBuilder::with_vertices(vocab.clone(), n as usize);
        for i in 1..n {
            b.add_edge(V(i - 1), V(i));
        }
        for i in (0..n).step_by(2) {
            b.set_color(V(i), ColorId(0));
        }
        if n > 1 {
            b.set_color(V(1), ColorId(1));
        }
        let g = b.build();
        assert_eq!(
            EvalEngine::TreeWalk.models(&g, &phi),
            EvalEngine::Vm.models(&g, &phi),
            "path of {n}"
        );
    }
}
