//! Pins the hot-path allocation claims: with symbol dispatch, a start
//! tag that matches nothing costs **zero heap allocations** — no owned
//! tag string, no attribute vector growth, no hash-map insertion — and
//! entity-bearing text events decode into the reader's reusable scratch
//! buffer, so text-heavy input parses with no per-event `String`.
//!
//! Lives in its own integration-test binary because it registers the
//! counting global allocator; the single test keeps the counters free
//! of concurrent-test noise.

use twigm::engine::StreamEngine;
use twigm::TwigM;
use twigm_bench::CountingAllocator;
use twigm_sax::{Event, NodeId, SaxReader};
use twigm_xpath::parse;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn non_matching_start_tag_allocates_nothing() {
    let query = parse("//a[d]//b[e]//c").unwrap();
    let mut engine = TwigM::new(&query).unwrap();
    let table = engine.symbols().cloned().expect("TwigM has an interner");

    // An uninterned tag resolves to Symbol::UNKNOWN — the lookup itself
    // must not allocate (the table is frozen; it never inserts).
    let baseline = CountingAllocator::reset_peak();
    let unknown = table.lookup("never-mentioned");
    assert!(!unknown.is_known());
    assert_eq!(CountingAllocator::peak(), baseline, "lookup allocated");

    // The driver skips attribute decoding for it entirely.
    assert!(!engine.needs_attributes(unknown));

    // A full start/end round trip for the non-matching element: the
    // empty dispatch list means no stack touches, no pushes, nothing.
    let baseline = CountingAllocator::reset_peak();
    for i in 0..1_000u64 {
        engine.start_element(unknown, "never-mentioned", &[], 1, NodeId::new(i));
        engine.end_element(unknown, "never-mentioned", 1);
    }
    assert_eq!(
        CountingAllocator::peak(),
        baseline,
        "non-matching events allocated"
    );

    // A *known* tag whose edge test fails (no qualifying parent entry,
    // wrong level) also pushes nothing: dense dispatch finds the node,
    // the qualification probe rejects it, no entry is built. "d" only
    // qualifies under an open "a".
    let d = table.lookup("d");
    assert!(d.is_known());
    let baseline = CountingAllocator::reset_peak();
    for i in 0..1_000u64 {
        engine.start_element(d, "d", &[], 1, NodeId::new(i));
        engine.end_element(d, "d", 1);
    }
    assert_eq!(
        CountingAllocator::peak(),
        baseline,
        "unqualified known-tag events allocated"
    );

    // Text-heavy input: every text event carries entity references, the
    // worst case for the old per-event `Cow::Owned` decode. After a short
    // warmup (input buffer, open-name stack and text scratch grow to
    // steady state), the rest of the document must parse with zero
    // allocation growth — decoding reuses the reader's scratch `String`.
    let mut doc = String::from("<r>");
    for _ in 0..300 {
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
    // Measure the steady-state window only: the last few bytes trigger a
    // one-time input-buffer growth inside `ensure()` (EOF lookahead),
    // which is buffer management, not per-event churn.
    let baseline = CountingAllocator::reset_peak();
    let mut texts = 0u32;
    while reader.offset() + 64 < bytes.len() as u64 {
        if let Event::Text(text) = reader.next_event().unwrap().expect("tail before EOF") {
            assert_eq!(text, "a & b < c > d");
            texts += 1;
        }
    }
    assert!(texts > 200, "expected a text-heavy tail, got {texts}");
    assert_eq!(
        CountingAllocator::peak(),
        baseline,
        "entity-bearing text events allocated"
    );
}
