//! Benchmark harness for the TwigM reproduction: regenerates every table
//! and figure of the paper's evaluation (§5).
//!
//! | Experiment | Paper figure | Binary |
//! |------------|--------------|--------|
//! | E1 dataset features      | Fig. 5  | `fig5_datasets` |
//! | E2 query sets            | Fig. 6  | `fig6_queries` |
//! | E3 query execution time  | Fig. 7  | `fig7_time` |
//! | E4 memory usage          | Fig. 8  | `fig8_memory` |
//! | E5 time scalability      | Fig. 9  | `fig9_scale_time` |
//! | E6 memory scalability    | Fig. 10 | `fig10_scale_memory` |
//! | E7 compact encoding      | §1/§3 claim | `ablation_encoding` |
//! | E8 complexity check      | Thm 4.4 | `ablation_complexity` |
//! | E9 DFA state blow-up     | §5.2 remark | `ablation_dfa_blowup` |
//!
//! Sizes: by default the harness runs at 1/4 of the paper's dataset sizes
//! so a full figure regenerates in minutes; pass `--full` to any binary
//! for the paper's 9 MB / 34 MB / 75 MB.

// `deny` rather than `forbid`: the counting allocator must implement the
// (unsafe) `GlobalAlloc` trait and locally re-allows it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod count_alloc;
pub mod datasets;
pub mod harness;
pub mod queries;
pub mod systems;

pub use count_alloc::CountingAllocator;
pub use datasets::{dataset_path, ensure_dataset, paper_size, DEFAULT_SCALE};
pub use harness::{format_duration, run_timed, MeasuredRun, RunOutcome};
pub use queries::{auction_queries, book_queries, protein_queries, QuerySpec};
pub use systems::{System, SYSTEMS};
