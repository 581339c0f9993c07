//! Graph file IO.
//!
//! Readers and writers for the three formats the Network Repository and
//! DIMACS distribute graphs in, so users holding the paper's original
//! input files can load them directly in place of the synthetic stand-ins:
//!
//! * [`edgelist`] — whitespace-separated `u v` pairs with `#`/`%` comments.
//! * [`dimacs`] — the DIMACS `p edge` format (`e u v`, 1-based).
//! * [`matrix_market`] — MatrixMarket coordinate format (`.mtx`), the
//!   format the Network Repository uses; symmetric pattern or weighted
//!   entries (weights are ignored — the paper treats all graphs as
//!   unweighted).

pub mod dimacs;
pub mod edgelist;
pub mod matrix_market;

use crate::csr::Graph;
use crate::error::GraphError;
use std::path::Path;

/// Recognized on-disk graph formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Plain edge list.
    EdgeList,
    /// DIMACS `p edge`.
    Dimacs,
    /// MatrixMarket coordinate.
    MatrixMarket,
}

impl Format {
    /// Guesses the format from a file extension (defaults to edge list).
    pub fn from_extension(path: &Path) -> Format {
        match path
            .extension()
            .and_then(|e| e.to_str())
            .map(|e| e.to_ascii_lowercase())
            .as_deref()
        {
            Some("mtx") => Format::MatrixMarket,
            Some("dimacs") | Some("col") | Some("clq") => Format::Dimacs,
            _ => Format::EdgeList,
        }
    }
}

/// Loads a graph from a file, dispatching on the extension.
///
/// # Errors
///
/// Propagates IO errors and per-format parse errors.
pub fn load_graph(path: &Path) -> Result<Graph, GraphError> {
    let content = std::fs::read_to_string(path)?;
    match Format::from_extension(path) {
        Format::EdgeList => edgelist::parse(&content),
        Format::Dimacs => dimacs::parse(&content),
        Format::MatrixMarket => matrix_market::parse(&content),
    }
}

/// Saves a graph to a file in the given format.
///
/// # Errors
///
/// Propagates IO errors.
pub fn save_graph(g: &Graph, path: &Path, format: Format) -> Result<(), GraphError> {
    let text = match format {
        Format::EdgeList => edgelist::to_string(g),
        Format::Dimacs => dimacs::to_string(g),
        Format::MatrixMarket => matrix_market::to_string(g),
    };
    std::fs::write(path, text)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured::petersen;

    #[test]
    fn format_detection() {
        assert_eq!(
            Format::from_extension(Path::new("a.mtx")),
            Format::MatrixMarket
        );
        assert_eq!(Format::from_extension(Path::new("a.col")), Format::Dimacs);
        assert_eq!(Format::from_extension(Path::new("a.txt")), Format::EdgeList);
        assert_eq!(Format::from_extension(Path::new("noext")), Format::EdgeList);
    }

    #[test]
    fn file_roundtrip_all_formats() {
        let g = petersen();
        let dir = std::env::temp_dir();
        for (format, name) in [
            (Format::EdgeList, "snc_test.txt"),
            (Format::Dimacs, "snc_test.col"),
            (Format::MatrixMarket, "snc_test.mtx"),
        ] {
            let path = dir.join(name);
            save_graph(&g, &path, format).unwrap();
            let loaded = load_graph(&path).unwrap();
            assert_eq!(loaded, g, "{format:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = load_graph(Path::new("/nonexistent/snc.txt"));
        assert!(matches!(r, Err(GraphError::Io(_))));
    }
}
