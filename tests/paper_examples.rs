//! End-to-end walkthroughs of every worked example in the paper,
//! asserting both the answers and the complexity claims.

use twigm::engine::run_engine;
use twigm::{BranchM, Engine, PathM, StreamEngine, TwigM};
use twigm_datagen::recursive::figure1_string;
use twigm_sax::NodeId;
use twigm_xpath::parse;

fn ids<E: StreamEngine>(engine: E, xml: &str) -> Vec<u64> {
    let (ids, _) = run_engine(engine, xml.as_bytes()).unwrap();
    let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

/// §1 / figure 1: query Q1 = //a[d]//b[e]//c over the n-nested document.
/// Only (a1, b1, c1) satisfies the predicates, so c1 is the unique
/// solution despite its n² pattern matches.
#[test]
fn figure1_q1_selects_exactly_c1() {
    for n in [1usize, 2, 3, 8, 40] {
        let xml = figure1_string(n);
        let query = parse("//a[d]//b[e]//c").unwrap();
        let result = ids(TwigM::new(&query).unwrap(), &xml);
        // c is the (2n)th element in pre-order (0-based).
        assert_eq!(result, vec![2 * n as u64], "n = {n}");
    }
}

/// §1: the intro's variant //a[d]/b[e]//c (child axis between a and b)
/// has no solution for n >= 2: b1 is a child of a_n, but d hangs under
/// a1.
#[test]
fn intro_variant_with_child_axis_is_empty() {
    for n in [2usize, 3, 10] {
        let xml = figure1_string(n);
        let query = parse("//a[d]/b[e]//c").unwrap();
        assert!(ids(TwigM::new(&query).unwrap(), &xml).is_empty(), "n = {n}");
    }
    // For n = 1, a1 = a_n and the match exists.
    let query = parse("//a[d]/b[e]//c").unwrap();
    assert_eq!(
        ids(TwigM::new(&query).unwrap(), &figure1_string(1)),
        vec![2]
    );
}

/// §1 contribution 1 and §3.3: TwigM stores 2n+1 stack entries encoding
/// the n² pattern matches of c1 — measured, not asserted rhetorically.
#[test]
fn compact_encoding_bound_holds_across_n() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    for n in [2u64, 8, 32, 128] {
        let xml = figure1_string(n as usize);
        let mut engine = TwigM::new(&query).unwrap();
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        assert_eq!(engine.stats().peak_entries, 2 * n + 1, "n = {n}");
        assert_eq!(engine.stats().tuples_materialized, 0);
    }
}

/// §3.1 / figure 2: PathM on //a//b//c over nested a*, b*, c emits c1 at
/// its start tag.
#[test]
fn figure2_pathm_example() {
    let n = 4;
    let xml = figure1_string(n);
    let query = parse("//a//b//c").unwrap();
    assert_eq!(ids(PathM::new(&query).unwrap(), &xml), vec![2 * n as u64]);
    // TwigM agrees (it must generalize PathM).
    assert_eq!(ids(TwigM::new(&query).unwrap(), &xml), vec![2 * n as u64]);
}

/// §3.2 / figure 3: BranchM on Q3 = /a[d]/b[e]/c over
/// a1(b1(c1, e1), d1) outputs {c1} at a1's end tag.
#[test]
fn figure3_branchm_example() {
    let xml = "<a><b><c/><e/></b><d/></a>";
    let query = parse("/a[d]/b[e]/c").unwrap();
    assert_eq!(ids(BranchM::new(&query).unwrap(), xml), vec![2]);
    assert_eq!(ids(TwigM::new(&query).unwrap(), xml), vec![2]);
    // Remove d: no solution.
    let xml = "<a><b><c/><e/></b></a>";
    assert!(ids(BranchM::new(&query).unwrap(), xml).is_empty());
}

/// §3.3 / figure 4: the machine for Q1 has five nodes (a, b, c, d, e)
/// and the d/e predicate edges are exact while spine edges are ≥.
#[test]
fn figure4_machine_shape() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    let engine = TwigM::new(&query).unwrap();
    assert_eq!(engine.machine().len(), 5);
}

/// §2 Proposition 2.1: active nodes (and hence per-stack entries) are
/// bounded by document depth.
#[test]
fn stack_sizes_bounded_by_depth() {
    // A broad, shallow document: many siblings, depth 3.
    let mut xml = String::from("<r>");
    for _ in 0..500 {
        xml.push_str("<a><b/></a>");
    }
    xml.push_str("</r>");
    let query = parse("//a[b]").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
    // Depth 3 bounds each stack; two stacked nodes -> peak <= 3.
    assert!(engine.stats().peak_entries <= 3);
    assert_eq!(engine.stats().results, 500);
}

/// The paper's machine-selection story (§3): Engine picks PathM for
/// XP{/,//,*}, BranchM for XP{/,[]}, TwigM otherwise — and all three
/// agree wherever their languages overlap.
#[test]
fn machines_agree_on_their_shared_fragments() {
    let xml = "<a><b><c/><e/></b><b><c/></b><d/></a>";
    // XP{/,[]} queries: BranchM vs TwigM.
    for q in ["/a/b/c", "/a[d]/b/c", "/a/b[e]/c", "/a[d]/b[e]/c", "/a[b]"] {
        let query = parse(q).unwrap();
        assert_eq!(
            ids(BranchM::new(&query).unwrap(), xml),
            ids(TwigM::new(&query).unwrap(), xml),
            "{q}"
        );
    }
    // XP{/,//,*} queries: PathM vs TwigM.
    for q in ["//b/c", "//c", "/a/*/c", "//*", "/a//c"] {
        let query = parse(q).unwrap();
        assert_eq!(
            ids(PathM::new(&query).unwrap(), xml),
            ids(TwigM::new(&query).unwrap(), xml),
            "{q}"
        );
    }
    // And Engine routes correctly.
    assert_eq!(
        Engine::new(&parse("//b/c").unwrap())
            .unwrap()
            .machine_name(),
        "PathM"
    );
    assert_eq!(
        Engine::new(&parse("/a[d]/b/c").unwrap())
            .unwrap()
            .machine_name(),
        "BranchM"
    );
    assert_eq!(
        Engine::new(&parse("//a[d]//c").unwrap())
            .unwrap()
            .machine_name(),
        "TwigM"
    );
}

/// §5.6: "memory usage remains at 1MB" — the streaming analogue we can
/// assert deterministically: peak stack entries stay constant as data
/// grows (here: grows 8x, peak identical).
#[test]
fn peak_entries_constant_as_data_grows() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    let peak_of = |copies: usize| {
        let mut xml = String::from("<root>");
        for _ in 0..copies {
            xml.push_str(&figure1_string(5));
        }
        xml.push_str("</root>");
        let mut engine = TwigM::new(&query).unwrap();
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        engine.stats().peak_entries
    };
    assert_eq!(peak_of(1), peak_of(8));
}

// ---------------------------------------------------------------------
// Golden pins for figures 2–4: exact NodeId sets, every engine whose
// language covers the query, through BOTH delivery paths (the event
// driver over the SAX reader and the replay of pre-parsed batches).
// ---------------------------------------------------------------------

use twigm::MultiTwigM;
use twigm_baselines::{LazyDfa, NaiveEnum};
use twigm_testkit::resplit::run_engine_batched;

/// Sorted ids from the batch replay of `xml`.
fn replayed_ids<E: StreamEngine>(engine: E, xml: &str) -> Vec<u64> {
    let (ids, _) = run_engine_batched(engine, xml.as_bytes(), false).unwrap();
    let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

/// Asserts `query` over `xml` yields exactly `expected` (sorted ids)
/// from every applicable engine on both delivery paths.
fn golden(query_text: &str, xml: &str, expected: &[u64]) {
    let query = parse(query_text).unwrap();

    assert_eq!(
        ids(TwigM::new(&query).unwrap(), xml),
        expected,
        "TwigM: {query_text}"
    );
    assert_eq!(
        replayed_ids(TwigM::new(&query).unwrap(), xml),
        expected,
        "TwigM replay: {query_text}"
    );
    assert_eq!(
        ids(Engine::new(&query).unwrap(), xml),
        expected,
        "Engine: {query_text}"
    );
    assert_eq!(
        ids(NaiveEnum::new(&query).unwrap(), xml),
        expected,
        "NaiveEnum: {query_text}"
    );
    assert_eq!(
        replayed_ids(NaiveEnum::new(&query).unwrap(), xml),
        expected,
        "NaiveEnum replay: {query_text}"
    );
    if query.is_predicate_free() {
        assert_eq!(
            ids(PathM::new(&query).unwrap(), xml),
            expected,
            "PathM: {query_text}"
        );
        assert_eq!(
            replayed_ids(PathM::new(&query).unwrap(), xml),
            expected,
            "PathM replay: {query_text}"
        );
        assert_eq!(
            ids(LazyDfa::new(&query).unwrap(), xml),
            expected,
            "LazyDfa: {query_text}"
        );
    }
    if query.is_branch_only() {
        assert_eq!(
            ids(BranchM::new(&query).unwrap(), xml),
            expected,
            "BranchM: {query_text}"
        );
        assert_eq!(
            replayed_ids(BranchM::new(&query).unwrap(), xml),
            expected,
            "BranchM replay: {query_text}"
        );
    }
    // The shared multi-query engine.
    let mut multi = MultiTwigM::new();
    let qid = multi.add_query(&query).unwrap();
    let mut got: Vec<u64> = multi
        .run(xml.as_bytes())
        .unwrap()
        .into_iter()
        .filter(|r| r.query == qid)
        .map(|r| r.node.get())
        .collect();
    got.sort_unstable();
    assert_eq!(got, expected, "MultiTwigM: {query_text}");
}

/// Figure 2: M2 = //a//b//c over the nested a,a,b,b,c document — c1
/// (pre-order id 2n) is the unique answer.
#[test]
fn figure2_golden_all_engines() {
    golden("//a//b//c", &figure1_string(4), &[8]);
    // Shallowest instance, where a1 = a_n.
    golden("//a//b//c", &figure1_string(1), &[2]);
}

/// Figure 3: Q3 = /a[d]/b[e]/c over a1(b1(c1, e1), d1) — {c1} at id 2,
/// and ∅ once d is removed.
#[test]
fn figure3_golden_all_engines() {
    golden("/a[d]/b[e]/c", "<a><b><c/><e/></b><d/></a>", &[2]);
    golden("/a[d]/b[e]/c", "<a><b><c/><e/></b></a>", &[]);
    golden("/a[d]/b[e]/c", "<a><b><c/></b><d/></a>", &[]);
}

/// Figure 4: Q1 = //a[d]//b[e]//c over figure 1(a) — the five-node
/// machine delivers exactly c1 despite n² pattern matches.
#[test]
fn figure4_golden_all_engines() {
    golden("//a[d]//b[e]//c", &figure1_string(4), &[8]);
    // Drop the e predicate's witness: no answer.
    golden("//a[d]//b[e]//c", "<a><b><c/></b><d/></a>", &[]);
}
