//! Seeded round-trip: any tree serialized by `XmlWriter` parses back to
//! the same tree via `SaxReader`, with correct levels and pre-order ids.
//! Names use the full name alphabet, and text and attribute values mix
//! markup characters, quotes and multi-byte UTF-8, so every escape the
//! writer emits is decoded again. (Re-feeding under chunk splits is the
//! testkit resplit battery's job.)

mod common;

use common::SplitMix64;
use twigm_sax::{Event, SaxReader, XmlWriter};

#[derive(Debug, Clone, PartialEq)]
struct Elem {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Elem(Elem),
    Text(String),
}

fn random_name(rng: &mut SplitMix64) -> String {
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.-";
    let mut name = String::from((b'a' + rng.index(26) as u8) as char);
    for _ in 0..rng.index(9) {
        name.push(REST[rng.index(REST.len())] as char);
    }
    name
}

/// One to five pieces, each a character that needs escaping, a
/// multi-byte character, or a short plain run.
fn random_text(rng: &mut SplitMix64) -> String {
    const PIECES: [&str; 7] = ["<", ">", "&", "\"", "'", "é", "日"];
    const PLAIN: &[u8] = b" abcXYZ019";
    let mut text = String::new();
    for _ in 0..1 + rng.index(5) {
        if rng.index(8) < PIECES.len() {
            text.push_str(PIECES[rng.index(PIECES.len())]);
        } else {
            for _ in 0..1 + rng.index(6) {
                text.push(PLAIN[rng.index(PLAIN.len())] as char);
            }
        }
    }
    text
}

fn random_elem(rng: &mut SplitMix64, depth: u32) -> Elem {
    let mut attrs: Vec<(String, String)> = (0..rng.index(3))
        .map(|_| (random_name(rng), random_text(rng)))
        .collect();
    // Attribute names must be unique within one element.
    attrs.sort_by(|a, b| a.0.cmp(&b.0));
    attrs.dedup_by(|a, b| a.0 == b.0);
    let children = if depth == 0 {
        Vec::new()
    } else {
        (0..rng.index(4))
            .map(|_| match rng.index(3) {
                0 => Node::Text(random_text(rng)),
                _ => Node::Elem(random_elem(rng, depth - 1)),
            })
            .collect()
    };
    Elem {
        name: random_name(rng),
        attrs,
        children,
    }
}

fn write_elem<W: std::io::Write>(w: &mut XmlWriter<W>, elem: &Elem) {
    w.start(&elem.name).unwrap();
    for (k, v) in &elem.attrs {
        w.attr(k, v).unwrap();
    }
    for child in &elem.children {
        match child {
            Node::Elem(e) => write_elem(w, e),
            Node::Text(t) => w.text(t).unwrap(),
        }
    }
    w.end().unwrap();
}

/// Parses the document back into a tree, merging adjacent text events
/// (the reader may split long text) and checking level/id bookkeeping.
fn parse_tree(xml: &[u8]) -> Elem {
    let mut reader = SaxReader::from_bytes(xml);
    let mut stack: Vec<Elem> = Vec::new();
    let mut root = None;
    let mut expected_id = 0u64;
    while let Some(event) = reader.next_event().unwrap() {
        match event {
            Event::Start(tag) => {
                assert_eq!(tag.level() as usize, stack.len() + 1, "level bookkeeping");
                assert_eq!(tag.id().get(), expected_id, "pre-order id bookkeeping");
                expected_id += 1;
                let attrs = tag
                    .attributes()
                    .map(|a| a.unwrap())
                    .map(|a| (a.name.to_string(), a.value.into_owned()))
                    .collect();
                stack.push(Elem {
                    name: tag.name().to_string(),
                    attrs,
                    children: Vec::new(),
                });
            }
            Event::End(tag) => {
                assert_eq!(tag.level() as usize, stack.len());
                let elem = stack.pop().unwrap();
                assert_eq!(tag.name(), elem.name);
                match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Elem(elem)),
                    None => root = Some(elem),
                }
            }
            Event::Text(text) => {
                let parent = stack.last_mut().expect("text outside root");
                if let Some(Node::Text(prev)) = parent.children.last_mut() {
                    prev.push_str(&text);
                } else {
                    parent.children.push(Node::Text(text.into_owned()));
                }
            }
            _ => {}
        }
    }
    root.expect("no root element")
}

/// Adjacent generated text nodes merge on the wire, so normalize the
/// reference tree the same way before comparing.
fn normalize(elem: &Elem) -> Elem {
    let mut children: Vec<Node> = Vec::new();
    for child in &elem.children {
        match child {
            Node::Elem(e) => children.push(Node::Elem(normalize(e))),
            Node::Text(t) => {
                if let Some(Node::Text(prev)) = children.last_mut() {
                    prev.push_str(t);
                } else {
                    children.push(Node::Text(t.clone()));
                }
            }
        }
    }
    Elem {
        name: elem.name.clone(),
        attrs: elem.attrs.clone(),
        children,
    }
}

#[test]
fn writer_reader_roundtrip() {
    let mut rng = SplitMix64::new(0x7217_e5a3);
    let mut escapes = 0;
    for case in 0..300 {
        let elem = random_elem(&mut rng, 4);
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        write_elem(&mut w, &elem);
        w.finish().unwrap();
        escapes += out.iter().filter(|&&b| b == b'&').count();
        assert_eq!(
            parse_tree(&out),
            normalize(&elem),
            "case {case}: {}",
            String::from_utf8_lossy(&out)
        );
    }
    assert!(escapes > 300, "only {escapes} escapes written");
}
