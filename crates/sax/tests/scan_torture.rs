//! Alignment and boundary torture tests for the vectorized scanner.
//!
//! The SWAR/SSE2 paths in `twigm_sax::scan` process 8/16 bytes per step
//! with scalar tails, so the dangerous inputs are needles near word
//! boundaries, short tails, and matches straddling a `fill()` refill.
//! Everything here is differential: the byte-at-a-time `scan::scalar`
//! reference is the specification.
//!
//! The global `set_force_scalar` toggle is deliberately NOT used in this
//! file (tests in one binary run concurrently); whole-parse scalar-vs-
//! vector equivalence lives in the testkit's `scanner_differential`
//! sweep, which owns the toggle.

mod common;

use common::SplitMix64;
use twigm_sax::scan;
use twigm_sax::{Event, FeedEvent, FeedReader, SaxReader};

/// Compares every scanner entry point against its scalar reference on
/// one haystack, at every starting offset (which doubles as an alignment
/// sweep: `&hay[s..]` shifts the word phase byte by byte).
fn assert_all_scanners_agree(hay: &[u8]) {
    for start in 0..=hay.len().min(24) {
        let h = &hay[start..];
        for needle in [b'<', b'>', b'"', b'\'', b'&', 0x00, 0x7f, 0x80, 0xff] {
            assert_eq!(
                scan::memchr(needle, h),
                scan::scalar::memchr(needle, h),
                "memchr({needle:#x}) start {start} hay {hay:?}"
            );
        }
        assert_eq!(
            scan::memchr2(b'<', b'&', h),
            scan::scalar::memchr2(b'<', b'&', h),
            "memchr2 start {start}"
        );
        assert_eq!(
            scan::memchr3(b'[', b']', b'>', h),
            scan::scalar::memchr3(b'[', b']', b'>', h),
            "memchr3 start {start}"
        );
        assert_eq!(
            scan::tag_delim(h),
            scan::scalar::tag_delim(h),
            "tag_delim start {start}"
        );
        for seq in [&b"-->"[..], b"]]>", b"?>", b"<!"] {
            assert_eq!(
                scan::find_seq(seq, h),
                scan::scalar::find_seq(seq, h),
                "find_seq({seq:?}) start {start}"
            );
        }
        assert_eq!(
            scan::name_run_len(h),
            scan::scalar::name_run_len(h),
            "name_run_len start {start}"
        );
    }
}

#[test]
fn needle_at_every_position_relative_to_word_boundaries() {
    // One needle planted at each position 0..48 of an otherwise plain
    // buffer covers every phase of the 8-byte SWAR word and the 16-byte
    // SSE2 vector, including matches found in a scalar tail.
    for len in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48] {
        for pos in 0..len {
            let mut hay = vec![b'x'; len];
            hay[pos] = b'<';
            assert_eq!(scan::memchr(b'<', &hay), Some(pos), "len {len} pos {pos}");
            assert_eq!(scan::tag_delim(&hay), Some(pos), "len {len} pos {pos}");
            // The same position must win when a second needle follows.
            if pos + 1 < len {
                hay[pos + 1] = b'>';
                assert_eq!(scan::memchr2(b'<', b'>', &hay), Some(pos));
            }
        }
    }
}

#[test]
fn empty_and_short_tails() {
    assert_eq!(scan::memchr(b'<', &[]), None);
    assert_eq!(scan::tag_delim(&[]), None);
    assert_eq!(scan::find_seq(b"-->", &[]), None);
    assert_eq!(scan::name_run_len(&[]), 0);
    for len in 1..=7 {
        let hay = vec![b'a'; len];
        assert_eq!(scan::memchr(b'<', &hay), None, "len {len}");
        assert_eq!(scan::name_run_len(&hay), len, "len {len}");
        let mut with_hit = hay.clone();
        with_hit[len - 1] = b'<';
        assert_eq!(scan::memchr(b'<', &with_hit), Some(len - 1), "len {len}");
    }
}

#[test]
fn multi_byte_needles_straddle_word_boundaries() {
    // Plant `-->` so it straddles every 8- and 16-byte boundary.
    for pos in 0..40 {
        let mut hay = vec![b'-'; 48]; // worst case: first-byte-skip fires everywhere
        hay[pos] = b'-';
        hay[pos + 1] = b'-';
        hay[pos + 2] = b'>';
        assert_eq!(
            scan::find_seq(b"-->", &hay),
            scan::scalar::find_seq(b"-->", &hay),
            "pos {pos}"
        );
    }
    // And `]]>` in bracket soup.
    for pos in 0..30 {
        let mut hay = vec![b']'; 40];
        hay[pos + 2] = b'>';
        assert_eq!(
            scan::find_seq(b"]]>", &hay),
            scan::scalar::find_seq(b"]]>", &hay),
            "pos {pos}"
        );
    }
}

#[test]
fn seeded_random_byte_soup_sweep() {
    // Quickcheck-style: random lengths, random contents biased toward a
    // small alphabet (so matches actually occur), every entry point
    // compared to scalar, and the whole reader drained without a panic.
    // 4000 cases with a fixed seed.
    let mut rng = SplitMix64::new(0x5ca_77e5);
    let alphabet: &[u8] = b"<>&\"'ab-].?![x \t\n\r\x00\x7f\x80\xff";
    for case in 0..4000 {
        let len = rng.index(120);
        let mut hay = Vec::with_capacity(len);
        for _ in 0..len {
            // Mostly alphabet bytes, sometimes raw bytes.
            let b = if rng.index(8) == 0 {
                (rng.next_u64() & 0xff) as u8
            } else {
                alphabet[rng.index(alphabet.len())]
            };
            hay.push(b);
        }
        assert_all_scanners_agree(&hay);
        let mut reader = SaxReader::from_bytes(&hay);
        while let Ok(Some(_)) = reader.next_event() {}
        // Random needle too.
        let n = (rng.next_u64() & 0xff) as u8;
        assert_eq!(
            scan::memchr(n, &hay),
            scan::scalar::memchr(n, &hay),
            "case {case}"
        );
    }
}

/// Parses a document whole and in two chunks split at `cut`, comparing
/// the full event streams.
fn assert_split_parse_matches(xml: &[u8], cut: usize) {
    let mut whole = Vec::new();
    let mut reader = SaxReader::from_bytes(xml);
    while let Some(e) = reader.next_event().expect("whole parse") {
        whole.push(e.to_owned_event());
    }
    let mut parser = FeedReader::new();
    let mut chunked = Vec::new();
    for (i, piece) in [&xml[..cut], &xml[cut..]].into_iter().enumerate() {
        parser.feed(piece);
        if i == 1 {
            parser.finish();
        }
        while let FeedEvent::Event(e) = parser.next_event().expect("chunked parse") {
            chunked.push(e.to_owned_event());
        }
    }
    assert_eq!(whole, chunked, "split at {cut}");
}

#[test]
fn markers_straddling_every_refill_boundary() {
    // Comment/CDATA/PI terminators and tag delimiters must be found even
    // when a fill() boundary lands inside them. Splitting at every byte
    // exercises every straddle.
    let xml: &[u8] = b"<r a=\"v'v\"><!-- x -- y --><![CDATA[ ]] ]]>\
<?pi  data?>text&amp;more<empty/></r>";
    for cut in 1..xml.len() {
        assert_split_parse_matches(xml, cut);
    }
}

#[test]
fn long_name_runs_straddle_refills() {
    // A tag name longer than any vector width, split everywhere.
    let mut xml = Vec::new();
    xml.extend_from_slice(
        b"<looooooooooooooooooooooooongname attr-name.x=\"1\">t</looooooooooooooooooooooooongname>",
    );
    for cut in 1..xml.len() {
        assert_split_parse_matches(&xml, cut);
    }
    // Unicode (multi-byte, >= 0x80 bytes) names too.
    let xml = "<日本語テスト属性 属=\"値\">テキスト</日本語テスト属性>".as_bytes();
    for cut in 1..xml.len() {
        assert_split_parse_matches(xml, cut);
    }
}

#[test]
fn doctype_internal_subset_straddles_refills() {
    // (No `]` inside quoted values: the depth-counting DOCTYPE scanner
    // is deliberately not quote-aware, matching the seed behaviour.)
    let xml: &[u8] = b"<!DOCTYPE r [ <!ENTITY co \"x-y\"> ]><r>&co;</r>";
    for cut in 1..xml.len() {
        assert_split_parse_matches(xml, cut);
    }
}

#[test]
fn dispatch_matches_scalar_on_structured_xml() {
    // The real hot-path byte patterns: a dense XML fragment, compared at
    // every suffix against the scalar reference.
    let xml = br#"<bib><book year="1994" id='b1'><title>TCP/IP</title><!--c--><price>65.95</price><a.b-c:d _x="y&amp;z"/></book></bib>"#;
    assert_all_scanners_agree(xml);
    let mut evts = 0;
    let mut reader = SaxReader::from_bytes(&xml[..]);
    while let Some(e) = reader.next_event().expect("valid") {
        if matches!(e, Event::Start(_)) {
            evts += 1;
        }
    }
    assert_eq!(evts, 5);
}
