//! The TwigM benchmark: one command runs a named workload from a seed
//! over a stream of distinct, cache-sized documents, checks every
//! document's answer against the in-memory DOM oracle, and prints the
//! end-to-end metrics; a traced run prints the per-layer metrics.
//!
//! The benchmark drives the layers from outside, through their public
//! functions only. `BENCHMARK.json` at the repository root records the
//! workloads, the metrics, which layer should move which end-to-end
//! number, and why the documents are cache-sized.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod host;
pub mod layers;
pub mod report;
pub mod stats;
pub mod timed;
pub mod workload;
