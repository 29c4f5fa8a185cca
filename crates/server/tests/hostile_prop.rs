//! Hostile-input properties: arbitrary bytes and mutated valid frames
//! fed to every decoder a peer can reach — the request and response
//! codecs, the graph text parser behind `register`, and the formula
//! parser behind `modelcheck` — come back as a value or an error, never
//! a panic or an abort. The fixed cases are the inputs that used to
//! overflow a loop thread's stack: a line of 20 000 `[` and a formula
//! nested 5000 parentheses deep.

use folearn_graph::{io, Vocabulary};
use folearn_logic::parser;
use folearn_logic::vm::EvalEngine;
use folearn_server::proto::{Json, Request, Response, WireExample};
use folearn_server::SolverSpec;
use proptest::collection;
use proptest::prelude::*;

/// Run every decoder on `text`; a panic fails the test, an abort (stack
/// overflow) fails the whole binary.
fn feed_everything(text: &str) {
    let _ = Request::decode(text);
    let _ = Response::decode(text);
    let _ = io::parse_graph(text);
    let _ = parser::parse(text, &Vocabulary::new(["Red", "Blue"]));
}

const GRAPH: &str = "colors Red Blue\nvertices 6\nedge 0 1\nedge 1 2\nedge 2 3\ncolor 0 Red\ncolor 3 Blue\n";
const FORMULA: &str = "exists x0. forall x1. (E(x0, x1) -> Red(x1)) & !(x0 = x1) | Blue(x0)";

/// Valid inputs of every decoder, to be mutated.
fn valid_frames() -> Vec<String> {
    let requests = [
        Request::Ping,
        Request::Stats,
        Request::Register {
            graph_text: GRAPH.to_string(),
        },
        Request::Solve {
            structure: 0xfeed,
            examples: vec![
                WireExample {
                    tuple: vec![0],
                    label: true,
                },
                WireExample {
                    tuple: vec![1],
                    label: false,
                },
            ],
            ell: 1,
            q: 1,
            epsilon: 0.0,
            solver: SolverSpec::default_brute(),
            trace: None,
        },
        Request::Evaluate {
            structure: 1,
            hypothesis: 2,
            tuples: vec![vec![0], vec![3]],
            labels: Some(vec![true, false]),
        },
        Request::ModelCheck {
            structure: 7,
            formula: FORMULA.to_string(),
            engine: EvalEngine::Vm,
            trace: None,
        },
    ];
    let responses = [
        Response::Pong,
        Response::error_coded("bad_formula", "modelcheck: parse error at byte 3: nope"),
        Response::Truth {
            holds: true,
            provenance: None,
        },
        Response::Stats {
            data: Json::obj([
                ("role", Json::str("server")),
                ("cache", Json::obj([("hits", Json::Num(3.0))])),
                ("endpoints", Json::Arr(vec![Json::Null, Json::Bool(false)])),
            ]),
        },
    ];
    let mut frames: Vec<String> = requests.iter().map(Request::encode).collect();
    frames.extend(responses.iter().map(Response::encode));
    frames.push(GRAPH.to_string());
    frames.push(FORMULA.to_string());
    frames
}

/// Bytes the mutations write: structure, digits, quotes and escapes,
/// brackets, and bytes that are not UTF-8 on their own.
const PALETTE: &[u8] = b"{}[]()\":,.\\-0123456789 \n!&|<>^ExtrufalsnRd\x00\x7f\xc3\xa9\xff";

/// One edit: `(kind, position, palette index)`; position and index wrap.
type Edit = (u8, usize, usize);

/// Apply up to a few single-byte edits (overwrite, insert, delete,
/// truncate). A handful of edits keeps a `vertices` count small, so the
/// graph parser is never asked for an enormous allocation.
fn mutate(frame: &str, edits: &[Edit]) -> Vec<u8> {
    let mut bytes = frame.as_bytes().to_vec();
    for &(kind, pos, pick) in edits {
        let b = PALETTE[pick % PALETTE.len()];
        let at = if bytes.is_empty() { 0 } else { pos % bytes.len() };
        match kind {
            0 if !bytes.is_empty() => bytes[at] = b,
            1 => bytes.insert(at, b),
            2 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_are_a_value_or_an_error(bytes in collection::vec(0u8..=255, 0..512)) {
        feed_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_palette_text_is_a_value_or_an_error(
        picks in collection::vec(0usize..PALETTE.len(), 0..512),
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| PALETTE[i]).collect();
        feed_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_valid_frames_are_a_value_or_an_error(
        frame in 0usize..12,
        edits in collection::vec((0u8..4, 0usize..4096, 0usize..64), 1..4),
    ) {
        let frames = valid_frames();
        let bytes = mutate(&frames[frame % frames.len()], &edits);
        feed_everything(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn every_valid_frame_decodes_before_mutation() {
    let vocab = Vocabulary::new(["Red", "Blue"]);
    for frame in valid_frames() {
        let decoded = Request::decode(&frame).is_ok()
            || Response::decode(&frame).is_ok()
            || io::parse_graph(&frame).is_ok()
            || parser::parse(&frame, &vocab).is_ok();
        assert!(decoded, "no decoder accepts {frame:?}");
    }
}

#[test]
fn the_stack_bombs_are_errors() {
    let brackets = "[".repeat(20_000);
    assert!(Request::decode(&brackets).is_err());
    assert!(Response::decode(&brackets).is_err());
    feed_everything(&brackets);

    let vocab = Vocabulary::new(["Red"]);
    let formula = format!("exists x0. {}Red(x0) | true{}", "(".repeat(5000), ")".repeat(5000));
    let e = parser::parse(&formula, &vocab).unwrap_err();
    assert!(e.message.contains("nests deeper than"), "{e}");
    feed_everything(&formula);
    // Inside a frame the formula is only a string: the frame decodes,
    // and the parser refuses it afterwards.
    let frame = Request::ModelCheck {
        structure: 1,
        formula: formula.clone(),
        engine: EvalEngine::TreeWalk,
        trace: None,
    }
    .encode();
    match Request::decode(&frame) {
        Ok(Request::ModelCheck { formula: f, .. }) => assert_eq!(f, formula),
        other => panic!("expected a modelcheck frame, got {other:?}"),
    }
    for bomb in [
        "!".repeat(5000) + "true",
        "forall x0. ".repeat(5000) + "true",
        "true -> ".repeat(5000) + "true",
    ] {
        assert!(parser::parse(&bomb, &vocab).is_err());
    }
}
