//! E20 — compiled formula evaluation: the bytecode VM vs the tree walker.
//!
//! Claim: compiling a hypothesis formula once and evaluating a whole
//! vertex batch per dispatch (u64-word bitsets, semijoin quantifiers)
//! beats the allocation-fixed tree walker by ≥5× on the E3-style
//! brute-force parameter sweep — per parameter tuple, one batched VM run
//! replaces `n` per-vertex `satisfies` calls — while staying
//! bit-identical on every verdict.
//!
//! Writes the measurements (via the shared `write_json_file` writer) to
//! `BENCH_vm.json` — or a path given as the first CLI argument.

use folearn_bench::{banner, cells, red_tree, timed, verdict, write_json_file, Json, Table};
use folearn_graph::V;
use folearn_logic::eval::{self, Assignment};
use folearn_logic::parse;
use folearn_logic::vm::{get_bit, Evaluator, Program, VmGraph};

/// The E3 formula family: hypotheses φ(x0; x1) a brute-force sweep
/// evaluates once per parameter vertex, over every example vertex.
const FAMILY: &[(&str, &str)] = &[
    ("qfree", "E(x0, x1) & Red(x0)"),
    ("exists1", "exists x2. E(x0, x2) & Red(x2) & E(x2, x1)"),
    (
        "exists2",
        "exists x2. E(x0, x2) & Red(x2) & exists x3. E(x2, x3) & !Red(x3)",
    ),
];

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_vm.json".to_string());
    banner(
        "E20 (compiled formula evaluation)",
        "one batched VM run per parameter tuple beats n tree walks by ≥5×, \
         bit-identically, across the E3 formula family",
    );

    let mut table = Table::new(&[
        "formula", "n", "params", "tree-us", "vm-us", "speedup", "identical",
    ]);
    let mut rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    let mut all_identical = true;
    let mut vm_instructions = 0u64;
    let mut vm_words = 0u64;

    for &(name, text) in FAMILY {
        for n in [128usize, 256, 512, 1024] {
            let g = red_tree(n, 4, 11);
            let phi = parse(text, g.vocab()).expect("family formula parses");
            // Sweep a fixed-size parameter sample so every row does the
            // same number of batched runs.
            let params: Vec<V> = (0..n).step_by(n / 64).map(|i| V(i as u32)).collect();

            // Tree walker: per parameter, one scratch-reusing satisfies
            // call per vertex — the allocation-fixed E3 inner loop.
            let (tree_verdicts, tree_time) = timed(|| {
                let mut scratch = Assignment::new();
                let mut out: Vec<Vec<bool>> = Vec::with_capacity(params.len());
                for &p in &params {
                    let mut row = Vec::with_capacity(n);
                    for v in g.vertices() {
                        row.push(eval::satisfies_with_scratch(&g, &phi, &[v, p], &mut scratch));
                    }
                    out.push(row);
                }
                out
            });

            // VM: compile once, then one batched run per parameter.
            let prog = Program::compile(&phi, 0, &[1]);
            let vg = VmGraph::new(&g);
            let (vm_verdicts, vm_time) = timed(|| {
                let mut ev = Evaluator::new(&prog, &vg);
                let out: Vec<Vec<u64>> = params
                    .iter()
                    .map(|&p| ev.run(&[(1, p)]).to_vec())
                    .collect();
                let stats = ev.stats();
                vm_instructions += stats.instructions;
                vm_words += stats.words_scanned;
                out
            });

            let identical = params.iter().enumerate().all(|(i, _)| {
                g.vertices()
                    .all(|v| tree_verdicts[i][v.index()] == get_bit(&vm_verdicts[i], v.index()))
            });
            all_identical &= identical;

            let tree_us = tree_time.as_micros() as u64;
            let vm_us = vm_time.as_micros().max(1) as u64;
            let speedup = tree_time.as_secs_f64() / vm_time.as_secs_f64().max(1e-9);
            min_speedup = min_speedup.min(speedup);
            table.row(cells!(
                name,
                n,
                params.len(),
                tree_us,
                vm_us,
                format!("{speedup:.1}x"),
                identical
            ));
            rows.push(Json::obj([
                ("formula", Json::str(name)),
                ("n", Json::int(n)),
                ("params", Json::int(params.len())),
                ("tree_us", Json::int(tree_us as usize)),
                ("vm_us", Json::int(vm_us as usize)),
                ("speedup", Json::Num((speedup * 10.0).round() / 10.0)),
                ("bit_identical", Json::Bool(identical)),
            ]));
        }
    }
    table.print();
    println!();
    println!(
        "min speedup: {min_speedup:.1}x; VM work: {vm_instructions} instructions, \
         {vm_words} bitset words"
    );
    println!();

    let json = Json::obj([
        ("experiment", Json::str("E20")),
        ("sweeps", Json::Arr(rows)),
        ("speedup", Json::Num((min_speedup * 10.0).round() / 10.0)),
        ("all_bit_identical", Json::Bool(all_identical)),
        ("vm_instructions", Json::int(vm_instructions as usize)),
        ("vm_words_scanned", Json::int(vm_words as usize)),
    ]);
    if let Err(e) = write_json_file(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    let ok = all_identical && min_speedup >= 5.0;
    verdict(
        ok,
        "every batched sweep is ≥5× faster than the tree walker and every \
         verdict is bit-identical",
    );
    if !ok {
        std::process::exit(1);
    }
}
