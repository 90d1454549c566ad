//! Structure-aware random XML document generation.
//!
//! Documents are built over a small tag alphabet on purpose: with few
//! distinct tags, random trees are *recursive* (the same tag repeats
//! along root-to-leaf paths) with high probability, which is exactly the
//! regime where compact-encoding bugs and Theorem 4.4 violations would
//! hide. Lexical noise — CDATA sections, entity and numeric character
//! references, comments, processing instructions, attribute quoting
//! styles — is injected so the SAX layer is fuzzed together with the
//! engines.
//!
//! Generated text never contains newlines, so a whole document fits one
//! line of a corpus `.case` file.
//!
//! [`malform`] breaks a generated document in one of the ways a reader
//! must reject — the input of the same-verdict oracle: every engine,
//! driver, chunk split and projection must fail it with the same error
//! at the same offset.

use twigm_datagen::SplitMix64;
use twigm_sax::{Event, SaxReader};

/// The tag alphabet documents and queries draw from. Single letters keep
/// clear of the XPath keywords (`and`, `or`, `not`, `count`, ...).
pub const TAGS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

/// The attribute-name alphabet.
pub const ATTRS: [&str; 4] = ["id", "x", "y", "w"];

/// Shape and noise parameters for document generation.
#[derive(Debug, Clone)]
pub struct DocConfig {
    /// Maximum element nesting depth (root = 1).
    pub max_depth: u32,
    /// Maximum element children per element.
    pub max_children: usize,
    /// How many of [`TAGS`] to use (small ⇒ recursive documents).
    pub tag_alphabet: usize,
    /// Probability of forcing a deep chain at each element — skews trees
    /// toward the deep, narrow shapes where the `|Q|·R` bound has teeth.
    pub skew: f64,
    /// Per-attribute-slot probability of emitting an attribute.
    pub attr_prob: f64,
    /// Probability of a text run in each content slot.
    pub text_prob: f64,
    /// Probability that a text run is wrapped in a CDATA section.
    pub cdata_prob: f64,
    /// Probability that a text character is written as a character
    /// reference (named or numeric) instead of a literal.
    pub entity_prob: f64,
    /// Probability of a comment in each content slot.
    pub comment_prob: f64,
    /// Probability of a processing instruction in each content slot.
    pub pi_prob: f64,
}

impl Default for DocConfig {
    fn default() -> Self {
        DocConfig {
            max_depth: 8,
            max_children: 3,
            tag_alphabet: 4,
            skew: 0.35,
            attr_prob: 0.25,
            text_prob: 0.4,
            cdata_prob: 0.15,
            entity_prob: 0.15,
            comment_prob: 0.08,
            pi_prob: 0.05,
        }
    }
}

/// Generates one well-formed document from the seed stream.
pub fn generate_doc(rng: &mut SplitMix64, cfg: &DocConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    if rng.gen_bool(0.3) {
        out.extend_from_slice(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    }
    if rng.gen_bool(0.15) {
        out.extend_from_slice(b"<!-- prologue -->");
    }
    element(rng, cfg, 1, &mut out);
    if rng.gen_bool(0.1) {
        out.extend_from_slice(b"<!-- epilogue -->");
    }
    out
}

fn tag<'a>(rng: &mut SplitMix64, cfg: &DocConfig) -> &'a str {
    TAGS[rng.index(cfg.tag_alphabet.clamp(1, TAGS.len()))]
}

fn element(rng: &mut SplitMix64, cfg: &DocConfig, depth: u32, out: &mut Vec<u8>) {
    let name = tag(rng, cfg);
    out.push(b'<');
    out.extend_from_slice(name.as_bytes());
    attributes(rng, cfg, out);

    // Decide the child list up front so empty elements can use the
    // self-closing form half the time.
    let mut children = if depth >= cfg.max_depth {
        0
    } else {
        rng.range_usize(0, cfg.max_children)
    };
    if depth < cfg.max_depth && rng.gen_bool(cfg.skew) {
        children = children.max(1);
    }
    let has_text = rng.gen_bool(cfg.text_prob);

    if children == 0 && !has_text && rng.gen_bool(0.5) {
        out.extend_from_slice(b"/>");
        return;
    }
    out.push(b'>');
    for i in 0..=children {
        if i < children {
            // Lexical noise between children.
            if rng.gen_bool(cfg.comment_prob) {
                comment(rng, out);
            }
            if rng.gen_bool(cfg.pi_prob) {
                out.extend_from_slice(b"<?hint keep?>");
            }
            element(rng, cfg, depth + 1, out);
        }
        if has_text && rng.gen_bool(0.6) {
            text_run(rng, cfg, out);
        }
    }
    out.extend_from_slice(b"</");
    out.extend_from_slice(name.as_bytes());
    out.push(b'>');
}

fn attributes(rng: &mut SplitMix64, cfg: &DocConfig, out: &mut Vec<u8>) {
    // Each name is visited once, so attribute uniqueness holds by
    // construction.
    for name in ATTRS.iter() {
        if !rng.gen_bool(cfg.attr_prob) {
            continue;
        }
        let quote = if rng.gen_bool(0.5) { b'"' } else { b'\'' };
        out.push(b' ');
        out.extend_from_slice(name.as_bytes());
        out.push(b'=');
        out.push(quote);
        // Mostly small numbers so numeric comparisons in queries bite;
        // occasionally a short string with a reference in it.
        if rng.gen_bool(0.7) {
            out.extend_from_slice(rng.range_usize(0, 9).to_string().as_bytes());
        } else {
            out.extend_from_slice(b"v");
            if rng.gen_bool(0.3) {
                out.extend_from_slice(b"&amp;");
            }
            out.extend_from_slice(rng.range_usize(0, 9).to_string().as_bytes());
        }
        out.push(quote);
    }
}

fn comment(rng: &mut SplitMix64, out: &mut Vec<u8>) {
    out.extend_from_slice(b"<!-- ");
    // Single hyphens and markup-looking bytes are legal inside comments.
    out.extend_from_slice(match rng.index(3) {
        0 => b"note - <fake>".as_slice(),
        1 => b"x > y".as_slice(),
        _ => b"skip &und;".as_slice(),
    });
    out.extend_from_slice(b" -->");
}

/// Emits a short text run, randomly choosing literal characters,
/// character references (named and numeric, decimal and hex), or a CDATA
/// wrapping that stresses `]]>` adjacency.
fn text_run(rng: &mut SplitMix64, cfg: &DocConfig, out: &mut Vec<u8>) {
    if rng.gen_bool(cfg.cdata_prob) {
        out.extend_from_slice(b"<![CDATA[");
        out.extend_from_slice(match rng.index(4) {
            0 => b"raw <markup> & [stuff]".as_slice(),
            1 => b"]] close-adjacent".as_slice(),
            2 => b"t]".as_slice(),
            _ => b"".as_slice(), // empty CDATA
        });
        out.extend_from_slice(b"]]>");
        return;
    }
    const PLAIN: &[u8] = b"abcdefgh maybe 0123456789.";
    let len = rng.range_usize(1, 8);
    for _ in 0..len {
        if rng.gen_bool(cfg.entity_prob) {
            out.extend_from_slice(match rng.index(6) {
                0 => b"&amp;".as_slice(),
                1 => b"&lt;".as_slice(),
                2 => b"&gt;".as_slice(),
                3 => b"&#38;".as_slice(),
                4 => b"&#x3C;".as_slice(),
                _ => b"&quot;".as_slice(),
            });
        } else {
            out.push(PLAIN[rng.index(PLAIN.len())]);
        }
    }
}

/// A way to break a well-formed document. Truncation, the remaining
/// break, needs no mutator: every prefix of a document is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformation {
    /// An unknown entity reference at the start of an element's content.
    BadEntity,
    /// A character reference to a surrogate code point.
    BadCharRef,
    /// An end tag that names another element.
    MismatchedEndTag,
    /// A start tag that carries one attribute twice.
    DuplicateAttribute,
    /// A byte that is not UTF-8, in text at the start of an element's
    /// content, in a new attribute value, or in a new comment or
    /// processing instruction at the start of the content.
    InvalidUtf8,
}

/// Every [`Malformation`].
pub const MALFORMATIONS: [Malformation; 5] = [
    Malformation::BadEntity,
    Malformation::BadCharRef,
    Malformation::MismatchedEndTag,
    Malformation::DuplicateAttribute,
    Malformation::InvalidUtf8,
];

/// One element of a generated document, as byte positions.
struct Element {
    /// Just past the tag name in the start tag.
    name_end: usize,
    /// The content `(start, end)`: just past the start tag, and the `<`
    /// of the end tag. `None` for an empty-element tag.
    content: Option<(usize, usize)>,
}

/// The elements of a well-formed generated document, in document
/// order. Relies on the generator's shapes: attribute values hold no
/// `>`, and end tags are written `</name>`.
fn elements(xml: &[u8]) -> Vec<Element> {
    let mut reader = SaxReader::from_bytes(xml);
    let mut out = Vec::new();
    let mut open = Vec::new();
    while let Some(event) = reader.next_event().expect("a well-formed document") {
        match event {
            Event::Start(tag) => {
                let start = tag.offset() as usize;
                let gt = start
                    + xml[start..]
                        .iter()
                        .position(|&b| b == b'>')
                        .expect("tag end");
                let empty = xml[gt - 1] == b'/';
                open.push(out.len());
                out.push(Element {
                    name_end: start + 1 + tag.name().len(),
                    content: (!empty).then_some((gt + 1, 0)),
                });
            }
            Event::End(tag) => {
                let len = tag.name().len();
                let i = open.pop().expect("balanced");
                if let Some(content) = &mut out[i].content {
                    content.1 = reader.offset() as usize - len - 3;
                }
            }
            _ => {}
        }
    }
    out
}

/// Breaks the well-formed generated document `xml` by `how`, at an
/// element the seed stream picks — often one deep inside a subtree a
/// rooted query's projection skims. A document whose every element is
/// empty gets a duplicate attribute instead of a content break.
pub fn malform(rng: &mut SplitMix64, xml: &[u8], how: Malformation) -> Vec<u8> {
    let elements = elements(xml);
    let with_content: Vec<(usize, usize)> = elements.iter().filter_map(|e| e.content).collect();
    let how = if with_content.is_empty() {
        Malformation::DuplicateAttribute
    } else {
        how
    };
    let content = with_content
        .get(rng.index(with_content.len().max(1)))
        .copied()
        .unwrap_or_default();
    let (at, cut, insert): (usize, usize, &[u8]) = match how {
        Malformation::BadEntity => (content.0, 0, b"&bogus;"),
        Malformation::BadCharRef => (content.0, 0, b"&#xD800;"),
        Malformation::InvalidUtf8 => match rng.index(4) {
            0 => (content.0, 0, b"\xFF"),
            1 => {
                let element = &elements[rng.index(elements.len())];
                (element.name_end, 0, b" v='\xFF'")
            }
            2 => (content.0, 0, b"<!--\xFF-->"),
            _ => (content.0, 0, b"<?pi \xFF?>"),
        },
        Malformation::MismatchedEndTag => {
            let name = xml[content.1 + 2..].iter().position(|&b| b == b'>');
            (content.1 + 2, name.expect("end tag"), b"zz")
        }
        Malformation::DuplicateAttribute => {
            let element = &elements[rng.index(elements.len())];
            (element.name_end, 0, br#" w="1" w="2""#)
        }
    };
    let mut out = Vec::with_capacity(xml.len() + insert.len());
    out.extend_from_slice(&xml[..at]);
    out.extend_from_slice(insert);
    out.extend_from_slice(&xml[at + cut..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_baselines::inmem::Document;

    #[test]
    fn every_malformation_breaks_the_document() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let cfg = DocConfig::default();
        for _ in 0..100 {
            let xml = generate_doc(&mut rng, &cfg);
            for how in MALFORMATIONS {
                let bad = malform(&mut rng, &xml, how);
                let mut reader = SaxReader::from_bytes(&bad);
                let verdict = loop {
                    match reader.next_event() {
                        Ok(Some(_)) => {}
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                };
                assert!(
                    verdict.is_some(),
                    "{how:?} left a well-formed document: {}",
                    String::from_utf8_lossy(&bad)
                );
            }
        }
    }

    #[test]
    fn generated_documents_are_well_formed() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let cfg = DocConfig::default();
        for _ in 0..200 {
            let xml = generate_doc(&mut rng, &cfg);
            let doc = Document::parse_bytes(&xml)
                .unwrap_or_else(|e| panic!("{e}: {}", String::from_utf8_lossy(&xml)));
            assert!(!doc.is_empty());
            assert!(doc.depth() <= cfg.max_depth);
        }
    }

    #[test]
    fn small_alphabets_produce_recursive_documents() {
        let mut rng = SplitMix64::seed_from_u64(2);
        let cfg = DocConfig {
            tag_alphabet: 2,
            ..DocConfig::default()
        };
        let recursive = (0..50)
            .filter(|_| {
                Document::parse_bytes(&generate_doc(&mut rng, &cfg))
                    .unwrap()
                    .is_recursive()
            })
            .count();
        assert!(recursive > 20, "only {recursive}/50 recursive");
    }

    #[test]
    fn generation_is_deterministic_and_single_line() {
        let cfg = DocConfig::default();
        let a = generate_doc(&mut SplitMix64::seed_from_u64(7), &cfg);
        let b = generate_doc(&mut SplitMix64::seed_from_u64(7), &cfg);
        assert_eq!(a, b);
        assert!(!a.contains(&b'\n'));
    }
}
