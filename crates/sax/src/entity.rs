//! Entity decoding and escaping.
//!
//! The five XML predefined entities (`lt`, `gt`, `amp`, `apos`, `quot`),
//! numeric character references (`&#10;`, `&#x1F600;`), and general
//! entities declared in the DOCTYPE internal subset
//! (`<!ENTITY nbsp "&#160;">`) are supported. Custom entities expand
//! recursively with depth and size guards, so "billion laughs"-style
//! expansion bombs are rejected instead of exhausting memory.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::error::{SaxError, SaxResult};
use crate::scan;

/// Declared general entities (name → replacement text, undecoded).
pub type EntityMap = HashMap<String, String>;

/// Maximum nesting of entity references inside entity replacement text.
const MAX_ENTITY_DEPTH: usize = 8;
/// Maximum total size one decode call may expand to.
const MAX_EXPANSION: usize = 1 << 20;

/// Decodes entity references in `raw`, returning a borrowed string when no
/// reference is present. `offset` is the stream offset of `raw`, used for
/// error reporting.
pub fn decode_entities(raw: &str, offset: u64) -> SaxResult<Cow<'_, str>> {
    decode_entities_with(raw, offset, None)
}

/// Like [`decode_entities`], additionally resolving general entities
/// declared in a DOCTYPE internal subset.
pub fn decode_entities_with<'a>(
    raw: &'a str,
    offset: u64,
    custom: Option<&EntityMap>,
) -> SaxResult<Cow<'a, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    decode_into(raw, offset, custom, 0, &mut out)?;
    Ok(Cow::Owned(out))
}

/// Decodes entity references in `raw`, appending the result to `out`
/// (which is cleared first). Returns `false` — leaving `out` untouched —
/// when `raw` contains no reference, so the caller can borrow `raw`
/// directly and skip the copy.
///
/// This is the allocation-free form of [`decode_entities_with`]: a
/// caller that owns a reusable scratch `String` pays no per-call heap
/// traffic once the scratch has grown to the working-set size.
pub fn decode_entities_into(
    raw: &str,
    offset: u64,
    custom: Option<&EntityMap>,
    out: &mut String,
) -> SaxResult<bool> {
    if !raw.contains('&') {
        return Ok(false);
    }
    out.clear();
    decode_into(raw, offset, custom, 0, out)?;
    Ok(true)
}

/// Checks the entity and character references in `raw` exactly as
/// [`decode_entities_with`] does — same errors at the same offset,
/// expansion limits included — without building the decoded text.
pub(crate) fn check_entities(raw: &str, offset: u64, custom: Option<&EntityMap>) -> SaxResult<()> {
    if raw.contains('&') {
        decode_into(raw, offset, custom, 0, &mut Measure(0))?;
    }
    Ok(())
}

/// Where [`decode_into`] writes: a `String`, or a [`Measure`] that only
/// counts the bytes.
trait Decoded {
    fn push_str(&mut self, s: &str);
    fn push(&mut self, c: char);
    fn len(&self) -> usize;
}

impl Decoded for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s)
    }
    fn push(&mut self, c: char) {
        String::push(self, c)
    }
    fn len(&self) -> usize {
        String::len(self)
    }
}

/// The length of a decode, for checking without the text.
struct Measure(usize);

impl Decoded for Measure {
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }
    fn push(&mut self, c: char) {
        self.0 += c.len_utf8();
    }
    fn len(&self) -> usize {
        self.0
    }
}

fn decode_into<D: Decoded>(
    raw: &str,
    offset: u64,
    custom: Option<&EntityMap>,
    depth: usize,
    out: &mut D,
) -> SaxResult<()> {
    if depth > MAX_ENTITY_DEPTH {
        return Err(SaxError::Syntax {
            offset,
            message: format!("entity references nest deeper than {MAX_ENTITY_DEPTH}"),
        });
    }
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or_else(|| SaxError::Syntax {
            offset,
            message: "entity reference missing `;`".to_string(),
        })?;
        let name = &after[..semi];
        match name {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if name.starts_with('#') => out.push(decode_char_ref(name, offset)?),
            _ => match custom.and_then(|m| m.get(name)) {
                Some(replacement) => {
                    decode_into(replacement, offset, custom, depth + 1, out)?;
                    if out.len() > MAX_EXPANSION {
                        return Err(SaxError::Syntax {
                            offset,
                            message: format!("entity expansion exceeds {MAX_EXPANSION} bytes"),
                        });
                    }
                }
                None => {
                    return Err(SaxError::UnknownEntity {
                        offset,
                        name: name.to_string(),
                    })
                }
            },
        }
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

fn decode_char_ref(name: &str, offset: u64) -> SaxResult<char> {
    let digits = &name[1..];
    let code = if let Some(hex) = digits
        .strip_prefix('x')
        .or_else(|| digits.strip_prefix('X'))
    {
        u32::from_str_radix(hex, 16)
    } else {
        digits.parse::<u32>()
    };
    code.ok()
        .and_then(char::from_u32)
        .ok_or_else(|| SaxError::Syntax {
            offset,
            message: format!("invalid character reference `&{name};`"),
        })
}

/// Escapes `<`, `>` and `&` for use in character data.
pub fn escape_text(raw: &str) -> Cow<'_, str> {
    escape(raw, false)
}

/// Escapes `<`, `>`, `&` and `"` for use in a double-quoted attribute value.
pub fn escape_attr(raw: &str) -> Cow<'_, str> {
    escape(raw, true)
}

/// Appends `raw` to `out` with `<`, `>` and `&` escaped, for character
/// data: the allocation-free form of [`escape_text`] for a caller that
/// serializes into a buffer of its own.
pub fn escape_text_into(raw: &str, out: &mut String) {
    escape_into(raw, out, |hay| scan::memchr3(b'<', b'>', b'&', hay));
}

/// Appends `raw` to `out` with `<`, `>`, `&` and `"` escaped, for a
/// double-quoted attribute value: the allocation-free form of
/// [`escape_attr`].
pub fn escape_attr_into(raw: &str, out: &mut String) {
    escape_into(raw, out, |hay| {
        scan::find_any([b'<', b'>', b'&', b'"'], hay)
    });
}

/// Copies `raw` into `out` run by run, replacing each byte `find`
/// stops at with its entity reference.
#[inline]
fn escape_into(raw: &str, out: &mut String, find: impl Fn(&[u8]) -> Option<usize>) {
    let mut rest = raw;
    while let Some(i) = find(rest.as_bytes()) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            _ => "&quot;",
        });
        // The escaped bytes are ASCII, so `i + 1` is a char boundary.
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

fn escape(raw: &str, attr: bool) -> Cow<'_, str> {
    let needs = raw
        .bytes()
        .any(|b| b == b'<' || b == b'>' || b == b'&' || (attr && b == b'"'));
    if !needs {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len() + 8);
    for c in raw.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if attr => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_borrows() {
        let decoded = decode_entities("hello world", 0).unwrap();
        assert!(matches!(decoded, Cow::Borrowed(_)));
    }

    #[test]
    fn decodes_all_predefined_entities() {
        let decoded = decode_entities("&lt;&gt;&amp;&apos;&quot;", 0).unwrap();
        assert_eq!(decoded, "<>&'\"");
    }

    #[test]
    fn decodes_decimal_and_hex_char_refs() {
        assert_eq!(decode_entities("&#65;&#x42;&#X43;", 0).unwrap(), "ABC");
        assert_eq!(decode_entities("&#x1F600;", 0).unwrap(), "\u{1F600}");
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let err = decode_entities("&nbsp;", 3).unwrap_err();
        match err {
            SaxError::UnknownEntity { offset, name } => {
                assert_eq!(offset, 3);
                assert_eq!(name, "nbsp");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        assert!(decode_entities("a &amp b", 0).is_err());
    }

    #[test]
    fn invalid_char_ref_is_an_error() {
        assert!(decode_entities("&#xD800;", 0).is_err()); // surrogate
        assert!(decode_entities("&#xyz;", 0).is_err());
        assert!(decode_entities("&#;", 0).is_err());
    }

    #[test]
    fn checking_reports_what_decoding_reports() {
        let mut custom = EntityMap::new();
        custom.insert("big".into(), "x".repeat(300_000));
        custom.insert("bigger".into(), "&big;&big;&big;&big;".into());
        for raw in [
            "plain",
            "a &amp; &#65;",
            "&nbsp;",
            "&amp",
            "&#xD800;",
            "&bigger;",
            "&big;",
        ] {
            let decoded = decode_entities_with(raw, 7, Some(&custom)).map(|_| ());
            let checked = check_entities(raw, 7, Some(&custom));
            assert_eq!(format!("{checked:?}"), format!("{decoded:?}"), "{raw}");
        }
        assert!(check_entities("&bigger;", 0, Some(&custom)).is_err());
    }

    #[test]
    fn entities_interleaved_with_text() {
        assert_eq!(decode_entities("a &amp; b &lt; c", 0).unwrap(), "a & b < c");
    }

    #[test]
    fn escape_roundtrips_through_decode() {
        let raw = "a<b>&c\"d'e";
        let escaped = escape_attr(raw);
        assert_eq!(decode_entities(&escaped, 0).unwrap(), raw);
        let escaped = escape_text(raw);
        assert_eq!(decode_entities(&escaped, 0).unwrap(), raw);
    }

    #[test]
    fn escaping_into_a_buffer_matches_the_cow_forms() {
        for raw in [
            "",
            "clean",
            "a<b>&c\"d'e",
            "<<&&>>\"\"",
            "ünï<cödé>&\"",
            "tail&",
        ] {
            let mut out = String::from("prefix:");
            escape_text_into(raw, &mut out);
            assert_eq!(out, format!("prefix:{}", escape_text(raw)), "{raw}");
            let mut out = String::new();
            escape_attr_into(raw, &mut out);
            assert_eq!(out, escape_attr(raw), "{raw}");
        }
    }

    #[test]
    fn escape_borrows_when_clean() {
        assert!(matches!(escape_text("clean"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("clean"), Cow::Borrowed(_)));
    }
}
