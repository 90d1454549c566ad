//! **TwigM** — a polynomial-time streaming XPath query processor for
//! (possibly recursive) XML streams.
//!
//! This crate reproduces the system of *"An Efficient XPath Query
//! Processor for XML Streams"* (Chen, Davidson, Zheng — ICDE 2006). It
//! evaluates queries in `XP{/,//,*,[]}` — child axis, descendant axis,
//! wildcards, and (unrestricted, nestable) predicates — over a single
//! sequential scan of an XML document, emitting matches of the query's
//! *return node* as they become decidable.
//!
//! # Why this is hard (paper §1)
//!
//! When a query mixes descendant axes with predicates and the data is
//! recursive (tags repeat along root-to-leaf paths), one candidate node can
//! participate in a number of query-pattern matches *exponential* in the
//! query size: for `//a[d]//b[e]//c` over `n` nested `a`s and `b`s, node
//! `c₁` has `n²` matches to `//a//b//c`. Algorithms that enumerate those
//! matches (e.g. XSQ) blow up. TwigM instead:
//!
//! 1. keeps, per query node `v`, a **stack** of the active XML elements
//!    that solve the *prefix subquery* of `v` — `2n` stack entries encode
//!    the `n²` matches;
//! 2. records predicate progress per stack entry as a **branch-match**
//!    boolean array, and the undecided solution candidates as a set;
//! 3. on each end tag, pops one entry — discarding it prunes *every*
//!    pattern match it participates in, without enumeration.
//!
//! The result is time `O((|Q| + R·B)·|Q|·|D|)` (Theorem 4.4; `R` =
//! document depth, `B` = query branching) and memory bounded by
//! `|Q| · R` stack entries plus undecided candidates.
//!
//! # The machines
//!
//! Following the paper's §3, three machines are provided:
//!
//! * [`PathM`] evaluates `XP{/,//,*}` (no predicates) and emits results
//!   the moment the return node's start tag arrives;
//! * [`BranchM`] evaluates `XP{/,[]}` (no `//`/`*`), where each query node
//!   has at most one active match and a stack is unnecessary;
//! * [`TwigM`] combines both techniques for the full language.
//!
//! [`Engine`] picks the cheapest machine for a given query automatically.
//!
//! # Quick start
//!
//! ```
//! use twigm::evaluate;
//!
//! let xml = br#"<lib><book year="2006"><title>Streams</title></book><book year="1999"><title>Trees</title></book></lib>"#;
//! let query = twigm_xpath::parse("//book[@year >= 2000]/title").unwrap();
//! let ids = evaluate(&query, &xml[..]).unwrap();
//! assert_eq!(ids.len(), 1);
//! ```
//!
//! Beyond node ids, [`fragments::FragmentCollector`] buffers and emits the
//! matched elements as serialized XML fragments, which is what the paper's
//! implementation (ViteX) returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod branch;
pub mod engine;
pub mod fragments;
pub mod fxhash;
pub mod machine;
pub mod multi;
pub mod observe;
pub mod path;
pub mod pipeline;
pub mod query;
pub mod relevance;
pub mod stats;
pub mod twig;

pub use branch::BranchM;
pub use engine::{
    drive, evaluate, evaluate_ordered, evaluate_union, replay_batch, run_engine, run_engine_traced,
    ByName, DriverObserver, Engine, EventSource, NoTelemetry, SkimCounts, StreamEngine,
    StreamProgress, StreamTelemetry, Telemetry,
};
pub use machine::{Machine, MachineError};
pub use multi::MultiTwigM;
pub use observe::{MachineObserver, NoopObserver};
pub use path::PathM;
pub use pipeline::{
    run_engine_pipelined, run_multi_sharded, PipelineOptions, PipelineStats, ShardedOutcome,
};
pub use query::QueryTree;
pub use relevance::{machine_projection, machine_relevance, Relevance};
pub use stats::EngineStats;
pub use twig::TwigM;
