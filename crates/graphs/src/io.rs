//! DIMACS-style text I/O for weighted graphs.
//!
//! The format is the classic DIMACS edge format used by MST/shortest-path
//! benchmark suites, 1-indexed:
//!
//! ```text
//! c optional comment lines
//! p edge <n> <m>
//! e <u> <v> <weight>
//! ```
//!
//! [`write_dimacs`] produces it and [`parse_dimacs`] reads it back;
//! round-tripping preserves the graph exactly (including edge order, so
//! edge ids remain stable).

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use crate::{GraphError, WeightedGraph};

/// Errors from [`parse_dimacs`].
#[derive(Debug)]
pub enum IoError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// The text did not conform to the DIMACS edge format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The edges did not form a valid simple graph.
    Graph(GraphError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o failure: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IoError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Graph(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

/// Parses a DIMACS edge-format graph from a reader.
///
/// # Errors
///
/// [`IoError::Parse`] on malformed lines, missing/duplicate `p` lines, a
/// `p` line whose `n` or `2m` exceeds `u32::MAX`, a wrong edge count, or
/// out-of-range endpoints; [`IoError::Graph`] if the edge list is not a
/// simple graph.
///
/// ```
/// let text = "c tiny\np edge 3 2\ne 1 2 7\ne 2 3 9\n";
/// let g = dmst_graphs::io::parse_dimacs(text.as_bytes())?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.weight(1), 9);
/// # Ok::<(), dmst_graphs::io::IoError>(())
/// ```
pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<WeightedGraph, IoError> {
    let mut header: Option<(usize, usize)> = None;
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if header.is_some() {
                    return Err(IoError::Parse { line: lineno, msg: "duplicate p line".into() });
                }
                let kind = parts.next().unwrap_or("");
                if kind != "edge" && kind != "sp" {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("unsupported problem type {kind:?}"),
                    });
                }
                let n = parse_num(parts.next(), lineno, "vertex count")?;
                let m = parse_num(parts.next(), lineno, "edge count")?;
                // The header is untrusted: no buffer is reserved from `m`,
                // and sizes past the simulator's packed u32 ids (`n` and
                // `2m`, as `congest_sim::Topology::new` checks) are refused
                // before `WeightedGraph::new` sizes its adjacency from `n`.
                if n > u64::from(u32::MAX) || m > u64::from(u32::MAX) / 2 {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("graph too large: {n} vertices, {m} edges"),
                    });
                }
                header = Some((n as usize, m as usize));
            }
            Some("e") | Some("a") => {
                let (n, _) = header
                    .ok_or(IoError::Parse { line: lineno, msg: "edge before the p line".into() })?;
                let u = parse_num(parts.next(), lineno, "endpoint")? as usize;
                let v = parse_num(parts.next(), lineno, "endpoint")? as usize;
                let w = parse_num(parts.next(), lineno, "weight")?;
                if u == 0 || v == 0 || u > n || v > n {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("endpoint out of 1..={n}"),
                    });
                }
                edges.push((u - 1, v - 1, w));
            }
            Some(tok) => {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("unexpected token {tok:?}"),
                })
            }
            None => unreachable!("split of non-empty line yields a token"),
        }
    }

    let (n, m) = header.ok_or(IoError::Parse { line: 0, msg: "missing p line".into() })?;
    if edges.len() != m {
        return Err(IoError::Parse {
            line: 0,
            msg: format!("p line promised {m} edges, found {}", edges.len()),
        });
    }
    Ok(WeightedGraph::new(n, edges)?)
}

fn parse_num(tok: Option<&str>, line: usize, what: &str) -> Result<u64, IoError> {
    let tok = tok.ok_or_else(|| IoError::Parse { line, msg: format!("missing {what}") })?;
    tok.parse().map_err(|_| IoError::Parse { line, msg: format!("bad {what}: {tok:?}") })
}

/// Writes `g` in DIMACS edge format (1-indexed, edge order preserved).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_dimacs<W: Write>(g: &WeightedGraph, mut writer: W) -> Result<(), IoError> {
    writeln!(writer, "c written by dmst-graphs")?;
    writeln!(writer, "p edge {} {}", g.num_nodes(), g.num_edges())?;
    for &(u, v, w) in g.edges() {
        writeln!(writer, "e {} {} {}", u + 1, v + 1, w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightRng};

    #[test]
    fn roundtrip_preserves_graph() {
        let g = generators::random_connected(40, 80, &mut WeightRng::new(7));
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let back = parse_dimacs(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn accepts_comments_blanks_and_sp() {
        let text = "c hello\n\n  \np sp 2 1\na 1 2 5\n";
        let g = parse_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.weight(0), 5);
    }

    #[test]
    fn rejects_malformed_input() {
        let cases = [
            ("e 1 2 3\n", "edge before the p line"),
            ("p edge 2 1\np edge 2 1\n", "duplicate p line"),
            ("p matrix 2 1\ne 1 2 3\n", "unsupported problem type"),
            ("p edge 2 2\ne 1 2 3\n", "promised 2 edges"),
            ("p edge 2 1\ne 0 2 3\n", "endpoint out of"),
            ("p edge 2 1\ne 1 3 3\n", "endpoint out of"),
            ("p edge 2 1\ne 1 x 3\n", "bad endpoint"),
            ("p edge 2 1\nq 1 2 3\n", "unexpected token"),
            ("", "missing p line"),
            // Oversized headers fail before anything is sized from them.
            ("p edge 2 18446744073709551615\n", "too large"),
            ("p edge 2 4000000000000\n", "too large"),
            ("p edge 5000000000000 1\ne 1 2 3\n", "too large"),
        ];
        for (text, needle) in cases {
            let err = parse_dimacs(text.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{text:?}: {msg} should contain {needle:?}");
        }
    }

    #[test]
    fn rejects_invalid_graphs() {
        let err = parse_dimacs("p edge 2 1\ne 1 1 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Graph(GraphError::SelfLoop { .. })));
    }
}
