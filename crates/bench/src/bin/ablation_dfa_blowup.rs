//! Experiment E9 — the lazy DFA's state blow-up with wildcard-heavy
//! queries (paper §5.2: "For queries containing multiple '*', XMLTK
//! needs to build a DFA with an exponential number of states in the
//! worst case").
//!
//! Two query families with k = 1, 2, 4, 6, 8 wildcards run over mixed
//! recursive data: `//*…//*/x` (descendant wildcards) and `//x/*…/*`
//! (child wildcards under a descendant step). For every query the lazy
//! DFA and TwigM must return the same ids (asserted before the row is
//! printed); the row then shows the DFA states materialized, TwigM's
//! machine nodes, and min-of-N time for each.
//!
//! Usage: `cargo run -p twigm-bench --release --bin ablation_dfa_blowup
//!         [--scale X] [--repeats N]`

use std::time::{Duration, Instant};

use twigm::engine::run_engine;
use twigm::{StreamEngine, TwigM};
use twigm_baselines::LazyDfa;
use twigm_bench::harness::{print_row, CommonArgs};
use twigm_datagen::recursive::random_recursive;
use twigm_sax::NodeId;
use twigm_xpath::parse;

/// Elements in the document at scale 1.0 (8,000 at the default 0.25).
const ELEMENTS_AT_FULL_SCALE: f64 = 32_000.0;

/// `//*…//*/x`, then `//x/*…/*`, each with k = 1, 2, 4, 6, 8 wildcards.
fn wildcard_queries() -> Vec<(usize, String)> {
    const KS: [usize; 5] = [1, 2, 4, 6, 8];
    // The descendant chain only says "x below depth k"; for the child
    // chain the DFA must remember which of the last k + 1 ancestors
    // were `x`.
    let descendant = KS.map(|k| (k, format!("{}/x", "//*".repeat(k))));
    let child = KS.map(|k| (k, format!("//x{}", "/*".repeat(k))));
    descendant.into_iter().chain(child).collect()
}

/// Concatenated seeded recursive trees (depth 10, fanout 3, six tags)
/// under one root, until at least `elements` elements are written.
fn test_doc(elements: u64) -> Vec<u8> {
    let mut xml = Vec::from(&b"<root>"[..]);
    let tags = ["x", "y", "z", "w", "v", "u"];
    let mut count = 0;
    let mut seed = 0;
    while count < elements {
        count += random_recursive(seed, 10, 3, &tags, &mut xml).expect("writes to a Vec");
        seed += 1;
    }
    xml.extend_from_slice(b"</root>");
    xml
}

/// Runs a fresh engine `repeats` times; returns its sorted ids, the last
/// run's engine and the fastest run's time.
fn min_of<E: StreamEngine>(
    repeats: usize,
    xml: &[u8],
    new: impl Fn() -> E,
) -> (Vec<NodeId>, E, Duration) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let (ids, engine) = run_engine(new(), xml).expect("well-formed data");
        best = best.min(start.elapsed());
        last = Some((ids, engine));
    }
    let (mut ids, engine) = last.expect("at least one run");
    ids.sort_unstable_by_key(|id| id.get());
    (ids, engine, best)
}

fn main() {
    let args = CommonArgs::parse();
    let elements = ((ELEMENTS_AT_FULL_SCALE * args.scale) as u64).max(500);
    let xml = test_doc(elements);
    println!(
        "E9: lazy-DFA state blow-up over {:.1}KB of recursive data, min of {} runs",
        xml.len() as f64 / 1024.0,
        args.repeats.max(1)
    );
    println!();
    let widths = [28, 4, 12, 14, 10, 14, 14];
    print_row(
        &widths,
        &[
            "query".into(),
            "k".into(),
            "DFA states".into(),
            "TwigM nodes".into(),
            "results".into(),
            "LazyDfa (ms)".into(),
            "TwigM (ms)".into(),
        ],
    );
    for (k, text) in wildcard_queries() {
        let query = parse(&text).expect("valid query");
        let (dfa_ids, dfa, dfa_time) = min_of(args.repeats, &xml, || {
            LazyDfa::new(&query).expect("predicate-free query")
        });
        let (twig_ids, twig, twig_time) = min_of(args.repeats, &xml, || {
            TwigM::new(&query).expect("valid query")
        });
        assert_eq!(dfa_ids, twig_ids, "LazyDfa and TwigM disagree on {text}");
        print_row(
            &widths,
            &[
                text,
                k.to_string(),
                dfa.state_count().to_string(),
                twig.machine().len().to_string(),
                twig_ids.len().to_string(),
                format!("{:.2}", dfa_time.as_secs_f64() * 1e3),
                format!("{:.2}", twig_time.as_secs_f64() * 1e3),
            ],
        );
    }
    println!();
    println!(
        "expected: DFA states grow linearly (k + 2) on //*…//*/x and exponentially \
         (up to what the data reaches) on //x/*…/*; TwigM folds interior wildcards into edge \
         labels (§4.2), so its machine stays at 1-2 nodes."
    );
}
