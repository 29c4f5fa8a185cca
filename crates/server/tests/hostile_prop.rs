//! Hostile-input properties: arbitrary bytes and mutated valid frames
//! fed to every decoder a peer or a data dir can reach — the request
//! and response codecs, the graph text parser behind `register`, the
//! formula parser behind `modelcheck`, the durable-record decoder, and
//! the WAL and snapshot readers behind `serve --data-dir` — come back
//! as a value or an error, never a panic or an abort. The fixed cases
//! are the inputs that used to take a node down: a line of 20 000 `[`
//! and a formula nested 5000 parentheses deep (stack overflow), and a
//! `vertices 3000000000` structure (a ~24 GB allocation), whether it
//! arrives in a frame or in a checksummed WAL record.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use folearn_graph::{io, Vocabulary};
use folearn_logic::parser;
use folearn_logic::vm::EvalEngine;
use folearn_server::proto::{fnv1a64, hypothesis_id, Json, Request, Response, WireExample};
use folearn_server::snapshot::{DurableRecord, Durability, SNAPSHOT_FILE, WAL_FILE};
use folearn_server::wal::encode_frame;
use folearn_server::{start, Client, ClientApi, ServerConfig, SolverSpec};
use proptest::collection;
use proptest::prelude::*;

/// Run every decoder on `text`; a panic fails the test, an abort (stack
/// overflow) fails the whole binary.
fn feed_everything(text: &str) {
    let _ = Request::decode(text);
    let _ = Response::decode(text);
    let _ = io::parse_graph(text);
    let _ = parser::parse(text, &Vocabulary::new(["Red", "Blue"]));
    let _ = DurableRecord::from_bytes(text.as_bytes());
}

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch data dir per case.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "folearn-hostile-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Lay `wal` and `snapshot` bytes into a fresh data dir and open it the
/// way a restarting daemon does: a value or an error, never a panic.
fn open_data_dir(tag: &str, wal: &[u8], snapshot: &[u8]) {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).expect("create the data dir");
    std::fs::write(dir.join(WAL_FILE), wal).expect("write wal.log");
    std::fs::write(dir.join(SNAPSHOT_FILE), snapshot).expect("write snapshot.log");
    let _ = Durability::open(&dir, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

fn solve_request(structure: u64) -> Request {
    Request::Solve {
        structure,
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
    }
}

/// Valid durable-record payloads, to be mutated and re-checksummed.
fn valid_records() -> Vec<Vec<u8>> {
    [
        DurableRecord::Register {
            graph_text: GRAPH.to_string(),
        },
        DurableRecord::Solve {
            request: solve_request(0xfeed),
        },
    ]
    .iter()
    .map(DurableRecord::to_bytes)
    .collect()
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
        solve_request(0xfeed),
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

proptest! {
    // Each case opens a data dir (an fsync or two): fewer cases.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_data_dir_files_open_or_fail(
        wal in collection::vec(0u8..=255, 0..256),
        snapshot in collection::vec(0u8..=255, 0..256),
    ) {
        open_data_dir("bytes", &wal, &snapshot);
    }

    #[test]
    fn mutated_checksummed_records_open_or_fail(
        record in 0usize..2,
        edits in collection::vec((0u8..4, 0usize..4096, 0usize..64), 1..4),
        in_snapshot in 0u32..2,
    ) {
        // The checksum is recomputed over the mutated payload, so the
        // mutation gets past the frame reader into the record decoder.
        let records = valid_records();
        let payload = &records[record % records.len()];
        let mutated = mutate(&String::from_utf8_lossy(payload), &edits);
        let _ = DurableRecord::from_bytes(&mutated);
        let mut log: Vec<u8> = records.iter().flat_map(|r| encode_frame(r)).collect();
        log.extend(encode_frame(&mutated));
        if in_snapshot == 1 {
            open_data_dir("snapshot", &[], &log);
        } else {
            open_data_dir("wal", &log, &[]);
        }
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

#[test]
fn a_huge_vertex_count_is_refused_before_allocating() {
    let e = io::parse_graph("colors Red\nvertices 3000000000\nedge 0 1\n").unwrap_err();
    assert_eq!(e.line, 2, "{e}");
    let frame = Request::Register {
        graph_text: "vertices 3000000000\n".to_string(),
    }
    .encode();
    feed_everything(&frame);
}

#[test]
fn a_wal_registering_a_huge_structure_fails_startup_instead_of_allocating() {
    let dir = fresh_dir("huge");
    std::fs::create_dir_all(&dir).expect("create the data dir");
    let record = DurableRecord::Register {
        graph_text: "colors Red\nvertices 3000000000\n".to_string(),
    };
    std::fs::write(dir.join(WAL_FILE), encode_frame(&record.to_bytes())).expect("write wal.log");
    let started = start(&ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    match started {
        Ok(handle) => {
            handle.shutdown();
            panic!("a daemon replayed a 3-billion-vertex register");
        }
        Err(e) => assert!(e.to_string().contains("exceeds the limit"), "{e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_legacy_solve_record_carrying_an_id_replays_under_its_content_id() {
    // A log written before ids were content addresses: the solve record
    // names the id its daemon counted out. Replay ignores it.
    let canonical = io::to_text(&io::parse_graph(GRAPH).expect("the test graph parses"));
    let structure = fnv1a64(canonical.as_bytes());
    let request = solve_request(structure);
    let legacy = Json::obj([
        ("record", Json::str("solve")),
        ("id", Json::str("0000000000000001")),
        ("req", request.to_json()),
    ])
    .render();
    assert_eq!(
        DurableRecord::from_bytes(legacy.as_bytes()).expect("a legacy record decodes"),
        DurableRecord::Solve {
            request: request.clone()
        }
    );

    let dir = fresh_dir("legacy");
    std::fs::create_dir_all(&dir).expect("create the data dir");
    let register = DurableRecord::Register {
        graph_text: canonical,
    };
    let mut log = encode_frame(&register.to_bytes());
    log.extend(encode_frame(legacy.as_bytes()));
    std::fs::write(dir.join(WAL_FILE), log).expect("write wal.log");
    let handle = start(&ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("a legacy data dir replays");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (_, hypotheses) = client.inventory().expect("inventory");
    let Request::Solve {
        examples,
        ell,
        q,
        epsilon,
        solver,
        ..
    } = &request
    else {
        unreachable!()
    };
    let id = hypothesis_id(structure, examples, *ell, *q, *epsilon, solver);
    assert_eq!(hypotheses.iter().map(|b| b.id).collect::<Vec<_>>(), vec![id]);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
