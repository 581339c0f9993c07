//! `snc-json` — the workspace's dependency-free JSON, on `std` alone.
//!
//! A leaf crate so that every JSON producer and consumer can share one
//! escaper without depending on each other: the experiment reports, the
//! `snc-server` wire format and the `snc-router` edge all import it
//! directly. See [`Json`] for the value tree and [`parse`] for the
//! strict parser.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod json;

pub use json::*;
