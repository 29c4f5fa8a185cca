//! Plain-text graph I/O: a line-oriented exchange format and Graphviz DOT
//! export.
//!
//! The exchange format (one directive per line, `#` comments):
//!
//! ```text
//! colors Red Blue        # vocabulary, in order (optional)
//! vertices 5
//! edge 0 1
//! edge 1 2
//! color 0 Red
//! ```

use std::fmt::Write as _;

use crate::builder::GraphBuilder;
use crate::graph::{Graph, V};
use crate::vocab::Vocabulary;

/// The largest vertex count [`parse_graph`] accepts. The count sizes an
/// allocation before any edge is read, so a few bytes of text
/// (`vertices 3000000000`) would otherwise ask for tens of gigabytes.
pub const MAX_VERTICES: usize = 1 << 24;

/// Errors from [`parse_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphParseError {
    /// 1-based line number.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for GraphParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for GraphParseError {}

/// Parse the exchange format.
pub fn parse_graph(text: &str) -> Result<Graph, GraphParseError> {
    let mut vocab = Vocabulary::empty();
    let mut builder: Option<GraphBuilder> = None;
    let mut pending: Vec<(usize, String)> = Vec::new();
    let err = |line: usize, message: &str| GraphParseError {
        line,
        message: message.to_string(),
    };
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let directive = parts.next().unwrap();
        match directive {
            "colors" => {
                if builder.is_some() {
                    return Err(err(line_no, "'colors' must precede 'vertices'"));
                }
                for name in parts {
                    vocab.add_color(name);
                }
            }
            "vertices" => {
                if builder.is_some() {
                    return Err(err(line_no, "duplicate 'vertices' directive"));
                }
                let n: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "expected a vertex count"))?;
                if n > MAX_VERTICES {
                    return Err(err(
                        line_no,
                        &format!("vertex count {n} exceeds the limit of {MAX_VERTICES}"),
                    ));
                }
                builder = Some(GraphBuilder::with_vertices(vocab.clone(), n));
            }
            "edge" | "color" => {
                pending.push((line_no, line.to_string()));
            }
            other => {
                return Err(err(line_no, &format!("unknown directive {other:?}")));
            }
        }
    }
    let mut b = builder.ok_or_else(|| err(0, "missing 'vertices' directive"))?;
    let n = b.num_vertices();
    for (line_no, line) in pending {
        let mut parts = line.split_whitespace();
        let directive = parts.next().unwrap();
        if directive == "edge" {
            let u: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(line_no, "bad edge endpoint"))?;
            let v: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(line_no, "bad edge endpoint"))?;
            if u as usize >= n || v as usize >= n || u == v {
                return Err(err(line_no, "edge endpoint out of range or a loop"));
            }
            b.add_edge(V(u), V(v));
        } else {
            let v: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(line_no, "bad vertex in colour directive"))?;
            let name = parts
                .next()
                .ok_or_else(|| err(line_no, "missing colour name"))?;
            let c = b
                .vocab()
                .color_by_name(name)
                .ok_or_else(|| err(line_no, &format!("unknown colour {name:?}")))?;
            if v as usize >= n {
                return Err(err(line_no, "vertex out of range"));
            }
            b.set_color(V(v), c);
        }
    }
    Ok(b.build())
}

/// Serialise to the exchange format (round-trips through [`parse_graph`]).
pub fn to_text(g: &Graph) -> String {
    let mut out = String::new();
    if g.vocab().num_colors() > 0 {
        out.push_str("colors");
        for (_, name) in g.vocab().colors() {
            let _ = write!(out, " {name}");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "vertices {}", g.num_vertices());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "edge {} {}", u.0, v.0);
    }
    for v in g.vertices() {
        for (c, name) in g.vocab().colors() {
            if g.has_color(v, c) {
                let _ = writeln!(out, "color {} {}", v.0, name);
            }
        }
    }
    out
}

/// Graphviz DOT export; colours become node labels.
pub fn to_dot(g: &Graph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {name} {{");
    for v in g.vertices() {
        let colors: Vec<&str> = g
            .vocab()
            .colors()
            .filter(|&(c, _)| g.has_color(v, c))
            .map(|(_, n)| n)
            .collect();
        if colors.is_empty() {
            let _ = writeln!(out, "  v{};", v.0);
        } else {
            let _ = writeln!(out, "  v{} [label=\"v{}: {}\"];", v.0, v.0, colors.join(","));
        }
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  v{} -- v{};", u.0, v.0);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::generators;
    use crate::ops::graphs_equal;
    use crate::vocab::ColorId;

    use super::*;

    #[test]
    fn round_trip() {
        let g = generators::periodically_colored(
            &generators::path(6, Vocabulary::new(["Red", "Blue"])),
            ColorId(0),
            2,
        );
        let text = to_text(&g);
        let parsed = parse_graph(&text).unwrap();
        assert!(graphs_equal(&g, &parsed));
    }

    #[test]
    fn parses_hand_written_input() {
        let g = parse_graph(
            "# a toy graph\ncolors Red\nvertices 3\nedge 0 1\nedge 1 2\ncolor 2 Red\n",
        )
        .unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_color(V(2), ColorId(0)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_graph("vertices 2\nedge 0 5\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_graph("vertices 2\ncolor 0 Green\n").unwrap_err();
        assert!(e.message.contains("Green"));
        assert!(parse_graph("edge 0 1\n").is_err() || parse_graph("").is_err());
    }

    #[test]
    fn a_huge_vertex_count_is_refused_before_allocating() {
        for n in ["3000000000".to_string(), (MAX_VERTICES + 1).to_string()] {
            let e = parse_graph(&format!("colors Red\nvertices {n}\nedge 0 1\n")).unwrap_err();
            assert_eq!(e.line, 2);
            assert!(e.message.contains("exceeds the limit"), "{e}");
        }
    }

    #[test]
    fn dot_mentions_every_vertex_and_edge() {
        let g = generators::cycle(4, Vocabulary::empty());
        let dot = to_dot(&g, "c4");
        assert!(dot.contains("graph c4"));
        assert!(dot.contains("v0 -- v1"));
        assert_eq!(dot.matches("--").count(), 4);
    }

    /// parse(serialize(parse(serialize(g)))) over every generator family:
    /// serialisation must be a faithful and *stable* image of the graph.
    #[test]
    fn generator_zoo_round_trips() {
        let vocab = || Vocabulary::new(["Red", "Blue", "Green"]);
        let zoo: Vec<(&str, Graph)> = vec![
            ("path", generators::path(9, vocab())),
            ("cycle", generators::cycle(7, vocab())),
            ("clique", generators::clique(5, vocab())),
            ("star", generators::star(6, vocab())),
            ("grid", generators::grid(3, 4, vocab())),
            ("binary_tree", generators::binary_tree(3, vocab())),
            ("random_tree", generators::random_tree(12, vocab(), 5)),
            ("caterpillar", generators::caterpillar(4, 2, vocab())),
            (
                "bounded_degree_random",
                generators::bounded_degree_random(14, 3, 0.7, vocab(), 9),
            ),
            ("gnp", generators::gnp(10, 0.4, vocab(), 3)),
            (
                "randomly_colored",
                generators::randomly_colored(&generators::gnp(10, 0.3, vocab(), 4), 0.5, 8),
            ),
            (
                "periodically_colored",
                generators::periodically_colored(
                    &generators::cycle(9, vocab()),
                    ColorId(2),
                    3,
                ),
            ),
            ("empty_vocab", generators::path(5, Vocabulary::empty())),
            ("single_vertex", generators::path(1, vocab())),
        ];
        for (name, g) in zoo {
            let text = to_text(&g);
            let parsed = parse_graph(&text)
                .unwrap_or_else(|e| panic!("{name}: serialized text rejected: {e}"));
            assert!(graphs_equal(&g, &parsed), "{name}: parse∘serialize ≠ id");
            // Serialisation is canonical: a second trip is textually stable.
            assert_eq!(text, to_text(&parsed), "{name}: serialisation unstable");
        }
    }
}
