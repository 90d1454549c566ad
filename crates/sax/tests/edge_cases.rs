//! Hermetic edge-case tests for lexical corners of the SAX scanner:
//! empty CDATA sections, `]]`/`]]>`-adjacent content, numeric character
//! references straddling buffer boundaries, and unterminated constructs
//! that must surface as typed errors, never panics — checked exhaustively
//! over every truncation and single-byte substitution of one document.

use twigm_sax::{Event, FeedEvent, FeedReader, SaxError, SaxReader};

/// Parses the whole document, concatenating every `Text` event.
fn text_of(xml: &str) -> Result<String, SaxError> {
    let mut reader = SaxReader::from_bytes(xml.as_bytes());
    let mut out = String::new();
    loop {
        match reader.next_event()? {
            Some(Event::Text(t)) => out.push_str(&t),
            Some(_) => {}
            None => return Ok(out),
        }
    }
}

/// Drains a document to its terminal state: `Ok(())` or the error.
fn drain(xml: &[u8]) -> Result<(), SaxError> {
    let mut reader = SaxReader::from_bytes(xml);
    loop {
        match reader.next_event()? {
            Some(_) => {}
            None => return Ok(()),
        }
    }
}

#[test]
fn empty_cdata_section_is_no_text() {
    assert_eq!(text_of("<a><![CDATA[]]></a>").unwrap(), "");
    assert_eq!(text_of("<a>x<![CDATA[]]>y</a>").unwrap(), "xy");
}

#[test]
fn cdata_bracket_adjacency() {
    // A `]` hard against the CDATA terminator.
    assert_eq!(text_of("<a><![CDATA[x]]]></a>").unwrap(), "x]");
    // Two of them.
    assert_eq!(text_of("<a><![CDATA[x]]]]></a>").unwrap(), "x]]");
    // A CDATA section that is nothing but brackets.
    assert_eq!(
        text_of("<a><![CDATA[]]]]><![CDATA[]]]></a>").unwrap(),
        "]]]"
    );
    // `]]>` expressed by splitting it across two sections — the
    // standard way to embed the terminator itself.
    assert_eq!(
        text_of("<a><![CDATA[]]]]><![CDATA[>]]></a>").unwrap(),
        "]]>"
    );
    // Brackets in plain character data, nowhere near CDATA.
    assert_eq!(text_of("<a>x]] y</a>").unwrap(), "x]] y");
}

#[test]
fn numeric_char_refs_decode() {
    assert_eq!(text_of("<a>&#38;&#60;&#x3C;&#X43;</a>").unwrap(), "&<<C");
    assert_eq!(text_of("<a>&#x1F600;</a>").unwrap(), "\u{1F600}");
}

#[test]
fn numeric_char_refs_across_buffer_edges() {
    // Push the document one byte at a time through the incremental
    // reader: every reference is split at every interior position.
    let xml = b"<a>&#38;x&#x3C;y&amp;&#X21;</a>";
    let mut parser = FeedReader::new();
    let mut out = String::new();
    for (i, byte) in xml.iter().enumerate() {
        parser.feed(std::slice::from_ref(byte));
        if i + 1 == xml.len() {
            parser.finish();
        }
        loop {
            match parser.next_event().unwrap() {
                FeedEvent::Event(Event::Text(t)) => out.push_str(&t),
                FeedEvent::Event(_) => {}
                FeedEvent::NeedData | FeedEvent::Done => break,
            }
        }
    }
    assert_eq!(out, "&x<y&!");
}

#[test]
fn unterminated_constructs_error_not_panic() {
    // Each prefix must produce a typed error (any variant), not a panic
    // and not a silent success.
    for doc in [
        &b"<a"[..],
        b"<a ",
        b"<a x=\"v",
        b"<a x='v",
        b"<a>",
        b"<a><b></b>",
        b"<a><!--",
        b"<a><!-- never closed --",
        b"<a><![CDATA[",
        b"<a><![CDATA[x]]",
        b"<a><?pi",
        b"<a>&am",
        b"<a>&#x3C",
        b"<a></a",
        b"<!--",
        b"<?xml",
    ] {
        assert!(
            drain(doc).is_err(),
            "truncated `{}` did not error",
            String::from_utf8_lossy(doc)
        );
    }
}

#[test]
fn unterminated_element_reports_the_open_element() {
    match drain(b"<a><b>") {
        Err(SaxError::UnexpectedEof { open_element }) => {
            assert_eq!(open_element.as_deref(), Some("b"));
        }
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }
}

#[test]
fn invalid_numeric_refs_are_syntax_errors() {
    for doc in ["<a>&#xD800;</a>", "<a>&#xyz;</a>", "<a>&#;</a>"] {
        match drain(doc.as_bytes()) {
            Err(SaxError::Syntax { .. }) => {}
            other => panic!("`{doc}` expected Syntax error, got {other:?}"),
        }
    }
}

#[test]
fn structural_errors_have_precise_variants() {
    assert!(matches!(
        drain(b"<a></b>"),
        Err(SaxError::MismatchedTag { expected, found, .. }) if expected == "a" && found == "b"
    ));
    assert!(matches!(
        drain(b"</a>"),
        Err(SaxError::UnexpectedEndTag { found, .. }) if found == "a"
    ));
    assert!(matches!(
        drain(b"<a/>text"),
        Err(SaxError::TextOutsideRoot { .. })
    ));
    assert!(matches!(
        drain(b"<a/><b/>"),
        Err(SaxError::MultipleRoots { name, .. }) if name == "b"
    ));
    assert!(matches!(
        drain(b"<a x=\"1\" x=\"2\"/>"),
        Err(SaxError::DuplicateAttribute { name, .. }) if name == "x"
    ));
    assert!(matches!(
        drain(b"<a>&nbsp;</a>"),
        Err(SaxError::UnknownEntity { name, .. }) if name == "nbsp"
    ));
}

/// Compaction regression: the reader slides unconsumed bytes to the
/// front of its buffer (`copy_within` + `truncate`) once consumed bytes
/// pile up, and `base` must absorb exactly what was discarded so every
/// reported offset stays absolute. A document several buffer-chunks long
/// parsed through a tiny-chunk reader exercises the compaction path on
/// every refill; the offsets of all start tags must match the positions
/// found in the raw bytes, and the final reader offset must equal the
/// document length.
#[test]
fn compaction_preserves_offset_accounting_across_refills() {
    use std::io::Read;

    struct SmallChunks<'a>(&'a [u8]);
    impl Read for SmallChunks<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(out.len()).min(41);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    // ~200 KB (vs the 64 KB internal chunk): long text runs force
    // mid-text refills, so compaction fires with a non-empty tail too.
    let mut xml = Vec::new();
    xml.extend_from_slice(b"<list>");
    for i in 0..2500 {
        xml.extend_from_slice(format!("<item n=\"{i}\">").as_bytes());
        xml.extend_from_slice("x".repeat(60).as_bytes());
        xml.extend_from_slice(b"</item>");
    }
    xml.extend_from_slice(b"</list>");

    let mut expected = Vec::new();
    let mut at = 0;
    while let Some(p) = xml[at..].windows(5).position(|w| w == b"<item") {
        expected.push((at + p) as u64);
        at += p + 5;
    }
    assert_eq!(expected.len(), 2500);

    for tiny in [false, true] {
        let mut reader: SaxReader<Box<dyn Read>> = if tiny {
            SaxReader::new(Box::new(SmallChunks(&xml)))
        } else {
            SaxReader::new(Box::new(&xml[..]))
        };
        let mut seen = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            if let Event::Start(tag) = &e {
                if tag.name() == "item" {
                    seen.push(tag.offset());
                }
            }
        }
        assert_eq!(seen, expected, "tiny-chunk reads: {tiny}");
        assert_eq!(reader.offset(), xml.len() as u64, "tiny: {tiny}");
    }
}

/// A small document touching every construct: attributes in both quote
/// styles, an entity, a comment, CDATA and an empty-element tag.
const FIXTURE: &[u8] = br#"<r a="1"><x>t &amp; u</x><!--c--><![CDATA[z]]><y b='2'/></r>"#;

#[test]
fn every_truncation_of_a_document_errors() {
    drain(FIXTURE).unwrap();
    for cut in 0..FIXTURE.len() {
        assert!(
            drain(&FIXTURE[..cut]).is_err(),
            "truncation at {cut} silently succeeded"
        );
    }
    assert!(drain(&FIXTURE.repeat(2)).is_err(), "two roots accepted");
}

#[test]
fn every_single_byte_substitution_drains_without_panicking() {
    // XML-ish bytes reach deep parser states; NUL, a stray continuation
    // byte and 0xFF probe the UTF-8 checks.
    let alphabet = b"<>/=\"'&;#![]-?abcxX09 \t\n\x00\x80\xC3\xA9\xFF";
    let mut errors = 0;
    for at in 0..FIXTURE.len() {
        for &byte in alphabet {
            let mut doc = FIXTURE.to_vec();
            doc[at] = byte;
            // A panic fails the test; either verdict is fine.
            errors += usize::from(drain(&doc).is_err());
        }
    }
    // Most substitutions break the document; a sweep where none did
    // would be exercising nothing.
    assert!(
        errors > FIXTURE.len() * alphabet.len() / 4,
        "{errors} errors"
    );
}

#[test]
fn invalid_utf8_in_pi_data_is_a_typed_error() {
    // The offset is the first bad byte of the data, whole or fed byte by
    // byte, delivered or skimmed.
    let xml = b"<r><?pi \xff\xfe?></r>";
    assert!(matches!(
        drain(xml),
        Err(SaxError::InvalidUtf8 { offset: 8 })
    ));
    let mut feed = FeedReader::new();
    let mut verdict = None;
    for &byte in xml.iter() {
        feed.feed(&[byte]);
        loop {
            match feed.next_event() {
                Ok(FeedEvent::Event(_)) => {}
                Ok(_) => break,
                Err(e) => {
                    verdict.get_or_insert(e);
                    break;
                }
            }
        }
    }
    assert!(matches!(verdict, Some(SaxError::InvalidUtf8 { offset: 8 })));
    // Every bad byte anywhere in a PI is an error, never a panic.
    let pi = b"<r><?pi data?></r>";
    for at in 5..pi.len() - 6 {
        for bad in [0x80u8, 0xFF, 0xC3] {
            let mut doc = pi.to_vec();
            doc[at] = bad;
            assert!(drain(&doc).is_err(), "byte {bad:#x} at {at}");
        }
    }
}
