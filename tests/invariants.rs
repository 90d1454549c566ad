//! Hermetic invariant checks for Theorem 4.4's space bound — the
//! offline replacement for the proptest suite in `prop42_invariant.rs`
//! (which needs the `proptest-tests` feature and a registry): seeded
//! SplitMix64 documents instead of proptest strategies, same claims.
//!
//! The paper's bound: TwigM's buffering is `O(|Q| · R)` stack entries
//! (|Q| machine nodes × document recursion depth R), with **zero**
//! explicitly materialized pattern-match tuples — the compact encoding
//! that separates TwigM from the enumeration systems of §5.

use twigm::engine::run_engine;
use twigm::{BranchM, ByName, MultiTwigM, PathM, StreamEngine, TwigM};
use twigm_baselines::NaiveEnum;
use twigm_datagen::recursive::random_recursive;
use twigm_datagen::SplitMix64;
use twigm_sax::NodeId;
use twigm_xpath::parse;

/// Maximum element nesting depth of a document (its recursion bound R
/// is at most this).
fn document_depth(xml: &[u8]) -> u32 {
    let mut reader = twigm_sax::SaxReader::from_bytes(xml);
    let mut max = 0;
    while let Some(event) = reader.next_event().unwrap() {
        if let twigm_sax::Event::Start(tag) = event {
            max = max.max(tag.level());
        }
    }
    max
}

/// Theorem 4.4 on deep seeded recursive documents: for every query,
/// `peak_entries <= |Q| * R` and `tuples_materialized == 0`.
#[test]
fn peak_entries_bounded_by_query_size_times_depth() {
    let queries = [
        "//a//b//c",
        "//a[d]//b[e]//c",
        "//a[b][c]//a",
        "//*[a]//b",
        "//a[.//c]//b",
        "//a//a//a//a",
        "//c[a or b]",
    ];
    let mut rng = SplitMix64::seed_from_u64(0x44_7E57);
    let mut checked = 0usize;
    for round in 0..6 {
        // Deep, narrow trees: recursion depth far beyond the paper's
        // real datasets, the regime where the bound has teeth.
        let depth = 16 + 4 * round;
        // Retry seeds until the tree actually recurses deep (a random
        // tree can bottom out early); deterministic because the seed
        // stream is.
        let (xml, r, seed) = loop {
            let seed = rng.next_u64();
            let mut xml = Vec::new();
            random_recursive(seed, depth, 2, &["a", "b", "c", "d", "e"], &mut xml).unwrap();
            let r = document_depth(&xml) as u64;
            if r >= 8 {
                break (xml, r, seed);
            }
        };
        for text in queries {
            let query = parse(text).unwrap();
            let mut engine = TwigM::new(&query).unwrap();
            let q = engine.machine().len() as u64;
            let _ = run_engine(&mut engine, &xml[..]).unwrap();
            let stats = engine.stats();
            assert!(
                stats.peak_entries <= q * r,
                "Theorem 4.4 violated: peak {peak} > |Q|·R = {q}·{r} for {text} (seed {seed})",
                peak = stats.peak_entries,
            );
            assert_eq!(
                stats.tuples_materialized, 0,
                "TwigM materialized tuples on {text} (seed {seed})"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 6 * queries.len());
}

/// Theorem 4.4 on *every* bound-claiming engine at extreme recursion
/// depth (R >= 64): TwigM, PathM, BranchM and the multi-query machine
/// all stay within `|Q| * R` — and the enumeration baseline demonstrably
/// does not, which is the paper's whole point (§5): the bound is a
/// property of the compact encoding, not of streaming per se.
#[test]
fn deep_recursion_bound_holds_on_every_engine() {
    let mut rng = SplitMix64::seed_from_u64(0xDEE944);
    // Retry seeds until the random tree actually reaches R >= 64;
    // deterministic because the seed stream is.
    let (xml, r) = loop {
        let seed = rng.next_u64();
        let mut xml = Vec::new();
        random_recursive(seed, 96, 2, &["a", "b", "c"], &mut xml).unwrap();
        let r = document_depth(&xml) as u64;
        if r >= 64 {
            break (xml, r);
        }
    };

    // `machine_size()` is the engine's own |Q| claim; every engine that
    // makes one must honor it, through the same generic surface the
    // fuzz harness uses.
    fn assert_bound<E: StreamEngine>(engine: E, name: &str, xml: &[u8], r: u64) {
        let (_, engine) = run_engine(engine, xml).unwrap();
        let q = engine
            .machine_size()
            .unwrap_or_else(|| panic!("{name} claims no |Q|")) as u64;
        let stats = engine.stats();
        assert!(
            stats.peak_entries <= q * r,
            "{name}: peak {} > |Q|*R = {q}*{r}",
            stats.peak_entries
        );
        assert_eq!(stats.tuples_materialized, 0, "{name} materialized tuples");
    }

    let twig_text = "//a[.//c]//b[c]//a";
    assert_bound(
        TwigM::new(&parse(twig_text).unwrap()).unwrap(),
        "TwigM",
        &xml,
        r,
    );
    let path_text = "//a//b//c"; // predicate-free: PathM-eligible
    assert_bound(
        PathM::new(&parse(path_text).unwrap()).unwrap(),
        "PathM",
        &xml,
        r,
    );
    let branch_text = "/a/b[c]/a"; // child-only: BranchM-eligible
    assert_bound(
        BranchM::new(&parse(branch_text).unwrap()).unwrap(),
        "BranchM",
        &xml,
        r,
    );

    // The multi-query machine against the summed |Q| of all three.
    let mut multi = MultiTwigM::new();
    for text in [twig_text, path_text, branch_text] {
        multi.add_query(&parse(text).unwrap()).unwrap();
    }
    multi.run(&xml[..]).unwrap();
    let bound = multi.machine_size() as u64 * r;
    assert!(
        multi.stats().peak_entries <= bound,
        "MultiTwigM: peak {} > summed |Q|*R = {bound}",
        multi.stats().peak_entries
    );

    // NaiveEnum keeps one entry per (element, parent-match) pair. On
    // this recursive document it must blow through the same budget —
    // if it didn't, the comparison in §5 would be measuring nothing.
    let query = parse(twig_text).unwrap();
    let naive = NaiveEnum::new(&query).unwrap();
    let (naive_ids, naive) = run_engine(naive, &xml[..]).unwrap();
    assert!(
        naive.machine_size().is_none(),
        "NaiveEnum must not claim the Theorem 4.4 bound"
    );
    let naive_budget = naive.machine_len() as u64 * r;
    assert!(
        naive.stats().peak_entries > naive_budget,
        "NaiveEnum peak {} unexpectedly within |Q|*R = {naive_budget} — \
         recursion too shallow for the contrast to show",
        naive.stats().peak_entries
    );

    // Same answers all along (modulo emission order): the compact
    // encoding trades no accuracy.
    let (twig_ids, _) = run_engine(TwigM::new(&query).unwrap(), &xml[..]).unwrap();
    let sorted = |mut ids: Vec<NodeId>| {
        ids.sort_unstable_by_key(|id| id.get());
        ids
    };
    assert_eq!(sorted(twig_ids), sorted(naive_ids));
}

/// Figure 2(c) stack snapshot, pinned exactly: M2 = //a//b//c over
/// nested a,a,b,b,c — while c1 is open, v1 holds levels [1,2], v2 holds
/// [3,4], v3 holds [5]. (Hermetic twin of the gated proptest variant.)
#[test]
fn figure2_snapshot_matches_the_paper() {
    let query = parse("//a//b//c").unwrap();

    let mut engine = TwigM::new(&query).unwrap();
    for (tag, level, id) in [
        ("a", 1, 0),
        ("a", 2, 1),
        ("b", 3, 2),
        ("b", 4, 3),
        ("c", 5, 4),
    ] {
        engine.start_named(tag, &[], level, NodeId::new(id));
    }
    assert_eq!(engine.stack_levels(), vec![vec![1, 2], vec![3, 4], vec![5]]);

    // Closing the document drains every stack.
    for (tag, level) in [("c", 5), ("b", 4), ("b", 3), ("a", 2), ("a", 1)] {
        engine.end_named(tag, level);
    }
    assert!(engine.stack_levels().iter().all(Vec::is_empty));
}

/// The bound is tight where the paper says it is: figure 1(a) data with
/// //a//b//c peaks at exactly 2n + 1 entries.
#[test]
fn figure1_peak_is_exactly_2n_plus_1() {
    for n in [3u64, 17, 61] {
        let xml = twigm_datagen::recursive::figure1_string(n as usize);
        let mut engine = TwigM::new(&parse("//a//b//c").unwrap()).unwrap();
        let _ = run_engine(&mut engine, xml.as_bytes()).unwrap();
        assert_eq!(engine.stats().peak_entries, 2 * n + 1, "n = {n}");
    }
}
