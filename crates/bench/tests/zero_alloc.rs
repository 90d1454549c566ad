//! Pins the hot-path allocation claims:
//!
//! * with symbol dispatch, a start tag that matches nothing costs **zero
//!   heap allocations** — no owned tag string, no attribute vector
//!   growth, no hash-map insertion;
//! * entity-bearing text events decode into the reader's reusable
//!   scratch buffer, and the input buffer stays at one chunk, so
//!   text-heavy input parses to the end with no allocation at all;
//! * once warm, a start tag with attributes allocates nothing in the
//!   reader, and the driver reuses one attribute vector for every tag;
//! * a warm `FragmentCollector` allocates once per decided fragment (the
//!   fragment's own `String`) plus a constant;
//! * a `book-twig` document (Q9/Q10 over a ~256 KiB Book document,
//!   fragments out) stays inside its allocation budget.
//!
//! Lives in its own integration-test binary because it registers a
//! counting global allocator; the single test keeps the counter free of
//! concurrent-test noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use twigm::engine::{drive, run_engine, NoTelemetry, StreamEngine};
use twigm::fragments::FragmentCollector;
use twigm::{Engine, TwigM};
use twigm_bench::book_queries;
use twigm_sax::{Event, NodeId, SaxReader};
use twigm_xpath::parse;

/// Allocation calls so far: every `alloc` and every `realloc` (a
/// growing `Vec` or `String` counts once per growth).
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting its allocation calls.
struct CountingCalls;

unsafe impl GlobalAlloc for CountingCalls {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingCalls = CountingCalls;

/// Allocations `f` makes.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    f();
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_paths_allocate_only_as_pinned() {
    non_matching_start_tags_allocate_nothing();
    entity_text_parses_to_the_end_without_allocating();
    attribute_bearing_tags_allocate_nothing();
    warm_fragment_collector_allocates_once_per_fragment();
    book_twig_document_stays_in_budget();
}

fn non_matching_start_tags_allocate_nothing() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let table = engine.symbols().cloned().expect("TwigM has an interner");

    // An uninterned tag resolves to Symbol::UNKNOWN — the lookup itself
    // must not allocate (the table is frozen; it never inserts).
    let mut unknown = table.lookup("x");
    assert_eq!(
        allocations(|| unknown = table.lookup("never-mentioned")),
        0,
        "lookup allocated"
    );
    assert!(!unknown.is_known());

    // The driver skips attribute decoding for it entirely.
    assert!(!engine.needs_attributes(unknown));

    // A full start/end round trip for the non-matching element: the
    // empty dispatch list means no stack touches, no pushes, nothing.
    let n = allocations(|| {
        for i in 0..1_000u64 {
            engine.start_element(unknown, "never-mentioned", &[], 1, NodeId::new(i));
            engine.end_element(unknown, "never-mentioned", 1);
        }
    });
    assert_eq!(n, 0, "non-matching events allocated");

    // A *known* tag whose edge test fails (no qualifying parent entry,
    // wrong level) also pushes nothing: dense dispatch finds the node,
    // the qualification probe rejects it, no entry is built. "d" only
    // qualifies under an open "a".
    let d = table.lookup("d");
    assert!(d.is_known());
    let n = allocations(|| {
        for i in 0..1_000u64 {
            engine.start_element(d, "d", &[], 1, NodeId::new(i));
            engine.end_element(d, "d", 1);
        }
    });
    assert_eq!(n, 0, "unqualified known-tag events allocated");
}

/// Text-heavy input past one input chunk: every text event carries
/// entity references, the worst case for a per-event decode. After a
/// short warmup (open-name stack and text scratch grow to steady state)
/// the rest of the document, refills and end of input included, parses
/// with no allocation: decoding reuses the reader's scratch `String` and
/// the input buffer never grows past its first chunk.
fn entity_text_parses_to_the_end_without_allocating() {
    let mut doc = String::from("<r>");
    while doc.len() < 256 << 10 {
        doc.push_str("<e>a &amp; b &lt; c &gt; d</e>");
    }
    doc.push_str("</r>");
    let bytes = doc.into_bytes();
    let mut reader = SaxReader::from_bytes(&bytes);
    let mut warm = 0;
    while warm < 8 {
        if let Event::Text(_) = reader.next_event().unwrap().expect("warmup hit EOF") {
            warm += 1;
        }
    }
    let mut texts = 0u32;
    let n = allocations(|| {
        while let Some(event) = reader.next_event().unwrap() {
            if let Event::Text(text) = event {
                assert_eq!(text, "a & b < c > d");
                texts += 1;
            }
        }
    });
    assert!(texts > 8_000, "expected a text-heavy tail, got {texts}");
    assert_eq!(n, 0, "entity-bearing text events allocated");
}

/// A document of `tags` elements carrying 1–8 attributes each.
fn attribute_doc(tags: usize) -> Vec<u8> {
    let mut doc = String::from("<r>");
    for i in 0..tags {
        doc.push_str("<e");
        for a in 0..=i % 8 {
            doc.push_str(&format!(" a{a}=\"v{i}\""));
        }
        doc.push_str("/>");
    }
    doc.push_str("</r>");
    doc.into_bytes()
}

/// The reader checks each tag's attribute names for duplicates in a
/// reused list, and the driver decodes the attributes an engine tests
/// into one reused vector: a document's allocations do not depend on
/// how many attribute-bearing tags it has.
fn attribute_bearing_tags_allocate_nothing() {
    let doc = attribute_doc(4_000);
    let mut reader = SaxReader::from_bytes(&doc);
    // Warm: the open-name stack holds `r` and `e`, and the duplicate
    // check has seen a tag with 8 attributes.
    for _ in 0..20 {
        reader.next_event().unwrap();
    }
    let mut tags = 0;
    let n = allocations(|| {
        while let Some(event) = reader.next_event().unwrap() {
            if let Event::Start(tag) = event {
                assert!(tag.attributes().next().is_some());
                tags += 1;
            }
        }
    });
    assert!(tags > 3_000);
    assert_eq!(n, 0, "attribute-bearing start tags allocated in the reader");

    // `e` is tested for `@a1` but never qualifies (no `q` is open), so
    // the engine builds nothing: the driver's attribute decoding is all
    // that runs per tag.
    let mut engine = TwigM::new(&parse("//q/e[@a1]").unwrap()).unwrap();
    let e = engine.symbols().unwrap().lookup("e");
    assert!(engine.needs_attributes(e));
    let mut run = |doc: &[u8]| {
        allocations(|| drive(&mut engine, &mut SaxReader::new(doc), &mut NoTelemetry).unwrap())
    };
    run(&attribute_doc(100));
    let small = run(&attribute_doc(1_000));
    let large = run(&attribute_doc(4_000));
    assert_eq!(large, small, "the driver allocated per decoded start tag");
}

/// With the shared buffer, a warm collector adds to its engine's
/// allocations one per decided fragment (the fragment's own `String`)
/// plus a constant (result and fragment vectors regrown once per run).
fn warm_fragment_collector_allocates_once_per_fragment() {
    let mut xml = String::from("<r>");
    for i in 0..500 {
        xml.push_str(&format!(
            "<a k=\"{i}\"><b>text &amp; more</b><a><c x=\"1\"/></a></a><d/>"
        ));
    }
    xml.push_str("</r>");
    for query in ["//a", "//a[@k]", "//a[b]"] {
        let compile = || Engine::new(&parse(query).unwrap()).unwrap();
        let mut engine = compile();
        run_engine(&mut engine, xml.as_bytes()).unwrap();
        let bare = allocations(|| {
            run_engine(&mut engine, xml.as_bytes()).unwrap();
        });
        let mut collector = FragmentCollector::new(compile());
        run_engine(&mut collector, xml.as_bytes()).unwrap();
        collector.take_fragments();
        let mut fragments = 0;
        let n = allocations(|| {
            run_engine(&mut collector, xml.as_bytes()).unwrap();
            fragments = collector.take_fragments().len() as u64;
        });
        assert!(fragments >= 500, "{query}: {fragments} fragments");
        assert!(
            n.saturating_sub(bare) <= fragments + 32,
            "{query}: {n} allocations (engine alone {bare}) for {fragments} fragments"
        );
    }
}

/// `book-twig` documents: Q9 and Q10 by turns over Book documents of
/// ~256 KiB, fragments out, one collector per query reused across
/// documents as the benchmark reuses them. The collector path must
/// average at most 3,500 allocations per document (10,970 before the
/// shared buffer; the TwigM engine alone makes most of what is left).
fn book_twig_document_stays_in_budget() {
    let queries: Vec<_> = book_queries()
        .into_iter()
        .filter(|q| q.name == "Q9" || q.name == "Q10")
        .map(|q| q.parse())
        .collect();
    assert_eq!(queries.len(), 2);
    let mut collectors: Vec<_> = queries
        .iter()
        .map(|q| FragmentCollector::new(Engine::new(q).unwrap()))
        .collect();
    let docs: Vec<Vec<u8>> = (0..10u64)
        .map(|seed| {
            let mut doc = Vec::new();
            twigm_datagen::book::generate(seed, 256 << 10, &mut doc).unwrap();
            doc
        })
        .collect();
    let mut total = 0;
    for (k, doc) in docs.iter().enumerate() {
        let collector = &mut collectors[k % 2];
        let n = allocations(|| {
            run_engine(&mut *collector, &doc[..]).unwrap();
            collector.take_fragments();
        });
        // The first document of each query warms its collector.
        if k >= 2 {
            total += n;
        }
    }
    let per_doc = total / (docs.len() as u64 - 2);
    assert!(
        per_doc <= 3_500,
        "{per_doc} allocations per book-twig document"
    );
}
