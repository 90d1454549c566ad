//! Vectorized byte scanning for the SAX hot path.
//!
//! Profiling the paper's workloads (Book, XMark auction, Protein) shows
//! the parser is input-scan-bound: most cycles go to "find the next
//! `<`", "find the end of this tag" and "find `-->`/`]]>`". This module
//! is the in-tree `memchr` equivalent the reader is built on (the
//! workspace is hermetic, so no registry crate):
//!
//! * **SWAR** (SIMD within a register): [`memchr`]/[`memchr2`]/
//!   [`memchr3`] compare eight haystack bytes per `u64` step using the
//!   classic zero-byte trick `(w - 0x01…01) & !w & 0x80…80`;
//! * an **SSE2** fast path on `x86_64` (16 bytes per step) behind the
//!   same safe API — SSE2 is part of the x86_64 baseline, so no runtime
//!   feature detection is needed, and every other architecture uses the
//!   SWAR path (the scalar loop remains as the short-tail fallback);
//! * a 256-entry **byte-class table** ([`BYTE_CLASS`]) classifying XML
//!   name characters, whitespace and markup delimiters, so tag-name and
//!   attribute scans skip whole runs ([`name_run_len`]) instead of
//!   testing each byte with a chain of comparisons;
//! * a **first-byte-skip substring search** ([`find_seq`]) for the
//!   comment/CDATA/PI terminators, replacing the old `windows(n)` scan.
//!
//! Every function is positionally exact: the byte-at-a-time reference
//! implementations in [`scalar`] are the specification, and the
//! differential suites (the sax `scan_torture` tests and the testkit
//! `scanner_differential` sweep) assert vector == scalar over every
//! word alignment, tail length and `FeedReader` chunk split.
//! [`set_force_scalar`] routes the dispatching wrappers to the scalar
//! reference at runtime — the hook `ablation_scanner` and the
//! differential tests use to compare whole parses end to end.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------
// Byte-class table.
// ---------------------------------------------------------------------

/// [`BYTE_CLASS`] bit: the byte may start an XML name (alphabetic, `_`,
/// `:`, or any non-ASCII byte — multi-byte UTF-8 sequences are treated
/// as name characters and validated as UTF-8 separately).
pub const CLASS_NAME_START: u8 = 0b0001;
/// [`BYTE_CLASS`] bit: the byte may continue an XML name (name-start
/// plus digits, `-` and `.`).
pub const CLASS_NAME: u8 = 0b0010;
/// [`BYTE_CLASS`] bit: XML whitespace (space, tab, LF, CR).
pub const CLASS_SPACE: u8 = 0b0100;
/// [`BYTE_CLASS`] bit: markup delimiter (`<`, `>`, `&`, `"`, `'`).
pub const CLASS_MARKUP: u8 = 0b1000;

/// The 256-entry byte-class table: one load classifies a byte for all
/// four properties at once.
pub static BYTE_CLASS: [u8; 256] = build_class_table();

const fn build_class_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        let start = b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80;
        let name = start || b.is_ascii_digit() || b == b'-' || b == b'.';
        let mut class = 0u8;
        if start {
            class |= CLASS_NAME_START;
        }
        if name {
            class |= CLASS_NAME;
        }
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            class |= CLASS_SPACE;
        }
        if b == b'<' || b == b'>' || b == b'&' || b == b'"' || b == b'\'' {
            class |= CLASS_MARKUP;
        }
        table[i] = class;
        i += 1;
    }
    table
}

/// May `b` start an XML name?
#[inline]
pub fn is_name_start(b: u8) -> bool {
    BYTE_CLASS[b as usize] & CLASS_NAME_START != 0
}

/// May `b` continue an XML name?
#[inline]
pub fn is_name_char(b: u8) -> bool {
    BYTE_CLASS[b as usize] & CLASS_NAME != 0
}

/// Is `b` XML whitespace?
#[inline]
pub fn is_space(b: u8) -> bool {
    BYTE_CLASS[b as usize] & CLASS_SPACE != 0
}

// ---------------------------------------------------------------------
// Scalar/vector dispatch.
// ---------------------------------------------------------------------

/// When set, the dispatching wrappers run the [`scalar`] reference
/// implementations instead of the SWAR/SSE2 paths.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Routes all dispatching wrappers to the [`scalar`] reference
/// implementations (`true`) or back to the vector paths (`false`).
///
/// Test/bench hook only: `ablation_scanner` uses it for its end-to-end
/// scalar-vs-SWAR comparison and the differential suites for whole-parse
/// equivalence. The flag is process-global — code that toggles it must
/// hold a [`ScalarGuard`] so concurrent tests cannot interleave
/// scalar/vector modes.
pub fn set_force_scalar(enabled: bool) {
    FORCE_SCALAR.store(enabled, Ordering::Relaxed);
}

/// Is the scalar fallback currently forced?
pub fn force_scalar_enabled() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Serializes every toggler of the process-global scalar flag.
static SCALAR_LOCK: Mutex<()> = Mutex::new(());

/// RAII scope for the scalar/vector dispatch mode.
///
/// [`set_force_scalar`] is process-global, so two tests toggling it from
/// parallel `cargo test` threads can silently compare scalar against
/// scalar (or leak scalar mode into an unrelated test). `ScalarGuard`
/// closes that hole: acquiring one takes a process-wide mutex, so
/// togglers are mutually exclusive, and dropping it restores the mode
/// that was in effect when the guard was taken — even on panic.
///
/// Code that merely *depends* on a mode (e.g. a vector-vs-scalar
/// differential) should hold a guard for the whole comparison and flip
/// the mode with [`ScalarGuard::set`] while holding it.
#[must_use = "the guard restores the previous mode when dropped"]
pub struct ScalarGuard {
    _lock: MutexGuard<'static, ()>,
    prev: bool,
}

impl ScalarGuard {
    /// Acquires the toggle lock and forces the given mode until drop.
    pub fn force(enabled: bool) -> ScalarGuard {
        // A panic while holding the lock poisons it but leaves the `()`
        // data trivially valid; `Drop` has already restored the mode.
        let lock = SCALAR_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = force_scalar_enabled();
        set_force_scalar(enabled);
        ScalarGuard { _lock: lock, prev }
    }

    /// Switches the mode while continuing to hold the toggle lock.
    pub fn set(&self, enabled: bool) {
        set_force_scalar(enabled);
    }
}

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        set_force_scalar(self.prev);
    }
}

#[inline]
pub(crate) fn find_any<const N: usize>(needles: [u8; N], hay: &[u8]) -> Option<usize> {
    if force_scalar_enabled() {
        return scalar::find_any(&needles, hay);
    }
    #[cfg(target_arch = "x86_64")]
    {
        sse2::find_any(needles, hay)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        swar_find_any(needles, hay)
    }
}

// ---------------------------------------------------------------------
// Public scanning API.
// ---------------------------------------------------------------------

/// Position of the first occurrence of `needle` in `hay`.
#[inline]
pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    find_any([needle], hay)
}

/// Position of the first occurrence of `a` or `b` in `hay`.
#[inline]
pub fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
    find_any([a, b], hay)
}

/// Position of the first occurrence of `a`, `b` or `c` in `hay`.
#[inline]
pub fn memchr3(a: u8, b: u8, c: u8, hay: &[u8]) -> Option<usize> {
    find_any([a, b, c], hay)
}

/// Position of the first start-tag delimiter: `>`, `"`, `'` or `<`.
///
/// One pass finds whichever of the four the start-tag scanner must react
/// to next (tag end, quote open, or the `<`-inside-a-tag error).
#[inline]
pub fn tag_delim(hay: &[u8]) -> Option<usize> {
    find_any([b'>', b'"', b'\'', b'<'], hay)
}

/// Position of the first XML whitespace byte (space, tab, LF, CR).
#[inline]
pub fn first_space(hay: &[u8]) -> Option<usize> {
    find_any([b' ', b'\t', b'\n', b'\r'], hay)
}

/// Position of the first occurrence of `needle` (a short terminator like
/// `-->` or `]]>`) in `hay`, via first-byte skip: [`memchr`] jumps to
/// candidate positions, a direct comparison confirms them.
///
/// An empty needle matches at 0.
#[inline]
pub fn find_seq(needle: &[u8], hay: &[u8]) -> Option<usize> {
    if force_scalar_enabled() {
        return scalar::find_seq(needle, hay);
    }
    let (&first, rest) = match needle.split_first() {
        Some(split) => split,
        None => return Some(0),
    };
    let mut i = 0;
    while let Some(p) = memchr(first, &hay[i..]) {
        let at = i + p;
        let tail_start = at + 1;
        if tail_start + rest.len() > hay.len() {
            return None;
        }
        if &hay[tail_start..tail_start + rest.len()] == rest {
            return Some(at);
        }
        i = at + 1;
    }
    None
}

/// Length of the prefix of `hay` consisting of XML name characters.
///
/// The byte-class test for eight bytes at a time is accumulated into a
/// branch-free stop mask, so runs of name characters (tag names,
/// attribute names) are skipped in bulk.
#[inline]
pub fn name_run_len(hay: &[u8]) -> usize {
    if force_scalar_enabled() {
        return scalar::name_run_len(hay);
    }
    let mut i = 0;
    while i + 8 <= hay.len() {
        let mut stop = 0u32;
        for (j, &b) in hay[i..i + 8].iter().enumerate() {
            stop |= u32::from(BYTE_CLASS[b as usize] & CLASS_NAME == 0) << j;
        }
        if stop != 0 {
            return i + stop.trailing_zeros() as usize;
        }
        i += 8;
    }
    while i < hay.len() && is_name_char(hay[i]) {
        i += 1;
    }
    i
}

/// Length of the prefix of `hay` consisting of XML whitespace.
#[inline]
pub fn space_run_len(hay: &[u8]) -> usize {
    let mut i = 0;
    while i < hay.len() && is_space(hay[i]) {
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------
// SWAR implementation (all architectures; tail path under SSE2).
// ---------------------------------------------------------------------

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Marks each zero byte of `w` with its 0x80 bit. Bits below the first
/// zero byte are never set (borrows propagate upward only), so the
/// lowest marker locates the first match exactly.
#[inline]
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(SWAR_LO) & !w & SWAR_HI
}

#[inline]
fn swar_find_any<const N: usize>(needles: [u8; N], hay: &[u8]) -> Option<usize> {
    let mut pats = [0u64; N];
    for (pat, &n) in pats.iter_mut().zip(needles.iter()) {
        *pat = SWAR_LO.wrapping_mul(u64::from(n));
    }
    let mut i = 0;
    while i + 8 <= hay.len() {
        let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk"));
        let mut hits = 0u64;
        for &pat in &pats {
            hits |= zero_bytes(w ^ pat);
        }
        if hits != 0 {
            // Little-endian: byte j of the word maps to bits 8j..8j+8.
            return Some(i + (hits.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    scalar::find_any(&needles, &hay[i..]).map(|p| i + p)
}

// ---------------------------------------------------------------------
// SSE2 implementation (x86_64 only).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod sse2 {
    // `allow` against the crate's `deny(unsafe_code)`: the unaligned
    // 16-byte load takes a raw pointer and is therefore an `unsafe`
    // intrinsic. SSE2 itself is unconditionally part of the x86_64
    // baseline, so no runtime feature detection is required and the
    // public API stays safe.
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
        _mm_setzero_si128,
    };

    #[inline]
    pub(super) fn find_any<const N: usize>(needles: [u8; N], hay: &[u8]) -> Option<usize> {
        let mut i = 0;
        if hay.len() >= 16 {
            // SAFETY: the loop condition keeps `hay[i..i + 16]` in
            // bounds for every `_mm_loadu_si128` (an unaligned load, so
            // no alignment requirement), and SSE2 is always available
            // on x86_64.
            unsafe {
                let mut pats = [_mm_setzero_si128(); N];
                for (pat, &n) in pats.iter_mut().zip(needles.iter()) {
                    *pat = _mm_set1_epi8(n as i8);
                }
                while i + 16 <= hay.len() {
                    let v = _mm_loadu_si128(hay.as_ptr().add(i).cast::<__m128i>());
                    let mut eq = _mm_setzero_si128();
                    for &pat in &pats {
                        eq = _mm_or_si128(eq, _mm_cmpeq_epi8(v, pat));
                    }
                    let mask = _mm_movemask_epi8(eq) as u32;
                    if mask != 0 {
                        return Some(i + mask.trailing_zeros() as usize);
                    }
                    i += 16;
                }
            }
        }
        super::swar_find_any(needles, &hay[i..]).map(|p| i + p)
    }
}

// ---------------------------------------------------------------------
// Scalar reference implementations.
// ---------------------------------------------------------------------

/// Byte-at-a-time reference implementations: the specification the
/// vector paths are differentially tested against, and the baseline
/// `ablation_scanner` prices the SWAR/SSE2 paths over.
pub mod scalar {
    use super::is_name_char;

    /// Position of the first byte of `hay` contained in `needles`.
    #[inline]
    pub fn find_any(needles: &[u8], hay: &[u8]) -> Option<usize> {
        hay.iter().position(|b| needles.contains(b))
    }

    /// Scalar [`memchr`](super::memchr).
    #[inline]
    pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
        hay.iter().position(|&b| b == needle)
    }

    /// Scalar [`memchr2`](super::memchr2).
    #[inline]
    pub fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
        find_any(&[a, b], hay)
    }

    /// Scalar [`memchr3`](super::memchr3).
    #[inline]
    pub fn memchr3(a: u8, b: u8, c: u8, hay: &[u8]) -> Option<usize> {
        find_any(&[a, b, c], hay)
    }

    /// Scalar [`tag_delim`](super::tag_delim).
    #[inline]
    pub fn tag_delim(hay: &[u8]) -> Option<usize> {
        find_any(b">\"'<", hay)
    }

    /// Scalar [`find_seq`](super::find_seq): the pre-SWAR `windows(n)`
    /// scan.
    #[inline]
    pub fn find_seq(needle: &[u8], hay: &[u8]) -> Option<usize> {
        if needle.is_empty() {
            return Some(0);
        }
        if hay.len() < needle.len() {
            return None;
        }
        hay.windows(needle.len()).position(|w| w == needle)
    }

    /// Scalar [`name_run_len`](super::name_run_len).
    #[inline]
    pub fn name_run_len(hay: &[u8]) -> usize {
        let mut i = 0;
        while i < hay.len() && is_name_char(hay[i]) {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_matches_predicates() {
        for b in 0..=255u8 {
            assert_eq!(
                is_name_start(b),
                b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80,
                "name-start for {b:#x}"
            );
            assert_eq!(
                is_name_char(b),
                is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.',
                "name-char for {b:#x}"
            );
            // XML's S production: space, tab, LF, CR — deliberately NOT
            // `is_ascii_whitespace`, which also admits form feed (a byte
            // XML 1.0 forbids entirely).
            assert_eq!(
                is_space(b),
                matches!(b, b' ' | b'\t' | b'\n' | b'\r'),
                "space for {b:#x}"
            );
            assert_eq!(
                BYTE_CLASS[b as usize] & CLASS_MARKUP != 0,
                matches!(b, b'<' | b'>' | b'&' | b'"' | b'\''),
                "markup for {b:#x}"
            );
        }
    }

    #[test]
    fn memchr_finds_first_match_only() {
        let hay = b"aaabcbcb";
        assert_eq!(memchr(b'b', hay), Some(3));
        assert_eq!(memchr(b'z', hay), None);
        assert_eq!(memchr2(b'c', b'b', hay), Some(3));
        assert_eq!(memchr3(b'z', b'c', b'b', hay), Some(3));
        assert_eq!(memchr(b'a', &[]), None);
    }

    #[test]
    fn high_bytes_do_not_false_positive() {
        // 0x80/0xFF neighbours are where naive SWAR masks go wrong.
        let hay = [0x7f, 0x80, 0x81, 0xfe, 0xff, 0x00, 0x01, 0x80];
        for needle in [0x00u8, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff] {
            assert_eq!(
                memchr(needle, &hay),
                scalar::memchr(needle, &hay),
                "needle {needle:#x}"
            );
        }
    }

    #[test]
    fn find_seq_matches_windows_scan() {
        let hay = b"x-- -->- --> tail";
        assert_eq!(find_seq(b"-->", hay), Some(4));
        assert_eq!(find_seq(b"-->", hay), scalar::find_seq(b"-->", hay));
        assert_eq!(find_seq(b"]]>", hay), None);
        assert_eq!(find_seq(b"", hay), Some(0));
        assert_eq!(find_seq(b"tail", hay), Some(13));
        assert_eq!(find_seq(b"tailx", hay), None);
    }

    #[test]
    fn name_run_skips_bulk_runs() {
        assert_eq!(name_run_len(b"abcdefghij klm"), 10);
        assert_eq!(name_run_len(b" x"), 0);
        assert_eq!(name_run_len(b""), 0);
        assert_eq!(name_run_len(b"a-b.c:d_e9/"), 10);
        let long = [b'n'; 100];
        assert_eq!(name_run_len(&long), 100);
    }

    #[test]
    fn force_scalar_round_trips() {
        {
            let _guard = ScalarGuard::force(true);
            assert!(force_scalar_enabled());
            assert_eq!(memchr(b'b', b"ab"), Some(1));
            assert_eq!(find_seq(b"bc", b"abc"), Some(1));
            assert_eq!(name_run_len(b"ab c"), 2);
        }
        let _guard = ScalarGuard::force(false);
        assert!(!force_scalar_enabled());
    }

    #[test]
    fn scalar_guard_nests_and_restores_on_drop() {
        let outer = ScalarGuard::force(true);
        assert!(force_scalar_enabled());
        outer.set(false);
        assert!(!force_scalar_enabled());
        outer.set(true);
        drop(outer);
        // The outer guard entered from whatever the process default was;
        // a fresh guard observes a consistent (unlocked) state again.
        let inner = ScalarGuard::force(false);
        assert!(!force_scalar_enabled());
        drop(inner);
    }
}
