//! `folearn` — parameterized learning of first-order queries.
//!
//! This crate implements the algorithmic content of *"On the Parameterized
//! Complexity of Learning First-Order Logic"* (van Bergerem, Grohe,
//! Ritzert; PODS 2022):
//!
//! * the empirical-risk-minimisation problem `FO-ERM` and its relaxation
//!   `(L,Q)-FO-ERM` over coloured background graphs ([`problem`]);
//! * hypotheses `h_{φ,w̄}` represented as parameter tuples plus sets of
//!   `q`-types, convertible to honest FO formulas ([`hypothesis`]);
//! * exact ERM *given* parameters by type-class majority vote ([`fit`]);
//! * the brute-force learner of Proposition 11 / Algorithm 1
//!   ([`bruteforce`]);
//! * the realisable `k = 1` prefix-search learner of Proposition 12 /
//!   Algorithm 2 ([`realizable`]);
//! * the Vitali-style covering of Lemma 3 ([`covering`]);
//! * the fixed-parameter tractable learner on nowhere dense classes of
//!   Theorem 13, built from Lemmas 14–16 and the splitter game
//!   ([`ndlearner`]);
//! * the (agnostic) PAC layer of Section 3: example distributions,
//!   sampling, generalisation error ([`pac`]);
//! * the sublinear local-access learner of Grohe–Ritzert (reference \[22\],
//!   the bounded-degree baseline) ([`sublinear`]);
//! * exact VC-dimension search for hypothesis classes ([`vc`]).

pub mod bruteforce;
pub mod covering;
pub mod fit;
pub mod hypothesis;
pub mod ndlearner;
pub mod pac;
pub mod problem;
pub mod realizable;
pub mod solver;
pub mod sublinear;
pub mod vc;

pub use bruteforce::{BruteForceOpts, BruteForceResult};
pub use fit::{fit_with_params, fit_with_params_counted, TypeMode};
pub use solver::{solve_fo_erm, SolveReport, Solver};
pub use hypothesis::Hypothesis;
pub use problem::{ErmInstance, Example, TrainingSequence};

/// A shared, lockable type arena — the form every learner entry point
/// takes it in (hypotheses keep it alive to classify unseen tuples).
pub type SharedArena = std::sync::Arc<parking_lot::Mutex<folearn_types::TypeArena>>;

/// A fresh [`SharedArena`] over the graph's vocabulary.
pub fn shared_arena(g: &folearn_graph::Graph) -> SharedArena {
    std::sync::Arc::new(parking_lot::Mutex::new(folearn_types::TypeArena::new(
        std::sync::Arc::clone(g.vocab()),
    )))
}
