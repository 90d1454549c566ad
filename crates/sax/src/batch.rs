//! Batched event stream for the parallel pipeline.
//!
//! The serial driver interleaves scanning and evaluation one event at a
//! time. The pipelined driver instead runs the [`SaxReader`] on a
//! producer thread that packs events into fixed-capacity
//! [`EventBatch`]es — 32-byte interned-symbol records in a flat arena,
//! no per-event allocation — and ships whole batches across a bounded
//! channel, so the per-event synchronization cost is amortized over
//! thousands of events.
//!
//! A [`BatchPlan`] tells the producer everything it needs to know about
//! the consuming engine *without touching the engine*: a clone of the
//! engine's frozen [`SymbolTable`] for per-event lookup, which symbols
//! need their attributes decoded, and the **symbol-relevance prefilter**
//! — the set of symbols that can match any query node. Elements whose
//! symbol is irrelevant (and everything inside them that is not itself
//! relevant) are counted and dropped at the producer, so engines never
//! dispatch on them.
//!
//! Prefilter rules that keep filtered delivery equivalent to the serial
//! stream:
//!
//! * events at `level <= 1` (the document root) are always delivered —
//!   engines reset per-document state on the root's end event;
//! * an end tag is delivered iff its start tag was (the producer keeps a
//!   per-open-element delivery stack), so engines always see balanced
//!   pairs with their original document levels. The stack also keeps
//!   each start tag's symbol, which its end tag reuses instead of
//!   hashing the name again;
//! * a text event is delivered only when the plan wants text *and* the
//!   innermost open element was delivered. Each text record carries the
//!   level of that element explicitly, because an engine's internal
//!   depth tracker only advances on *delivered* events and would
//!   otherwise misroute text that follows a skipped subtree.
//!
//! Before the prefilter, a reader with a [`crate::Projection`] installed
//! skims the content of elements below which no query node can match
//! (see [`SaxReader::project`]): the producer reports every start tag's
//! plan symbol to the reader, and skimmed events are counted by the
//! reader ([`BatchProducer::events_skipped`]), never scanned into a
//! batch.

use std::io::Read;

use crate::error::SaxResult;
use crate::event::{Attribute, Event, StartTag};
use crate::reader::SaxReader;
use crate::symbol::{Symbol, SymbolTable};

/// Default number of events per batch.
///
/// A consumer sees nothing of a batch until the producer has filled
/// it, and up to `queue_depth + 2` batches are in flight, so the batch
/// size sets the pipeline's start-up delay, how late a decided result
/// can be, and most of the threaded peak heap. Against 4096, 1024
/// events (32 KiB of records plus their text) halve the peak heap of
/// the two-thread auction union, and with every size in one binary
/// (the `ablation_batch` bench) run it 10–13% faster for about the
/// same CPU. The sweep is in docs/performance.md.
pub const DEFAULT_BATCH_EVENTS: usize = 1024;

/// What a [`BatchEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BatchEventKind {
    /// `startElement(tag, level, id)`.
    Start,
    /// `endElement(tag, level)`.
    End,
    /// Character data; `level` is the level of the innermost open
    /// element (the element that directly contains the text).
    Text,
}

/// One event in a batch: a 32-byte record, all strings in the batch
/// arena. The producer writes these on one core and the consumers read
/// them on another, so the record is kept small.
#[derive(Debug, Clone, Copy)]
pub struct BatchEvent {
    /// Event kind.
    pub kind: BatchEventKind,
    /// Element level for start/end; containing-element level for text.
    pub level: u32,
    /// The tag symbol under the plan's table ([`Symbol::UNKNOWN`] for
    /// text events and uninterned tags).
    pub sym: Symbol,
    /// Pre-order node id (start events only).
    pub id: u64,
    /// Arena range of the tag name (start/end) or text content.
    text: (u32, u32),
    /// First index into the batch attribute table (start events only).
    attr_start: u32,
    /// Number of attributes from `attr_start`, or [`WIDE_ATTRS`] when
    /// the range is in [`EventBatch::wide_attrs`].
    attr_count: u16,
}

const _: () = assert!(std::mem::size_of::<BatchEvent>() <= 32);

/// The `attr_count` of a start tag with `u16::MAX` or more decoded
/// attributes, whose range is kept in [`EventBatch::wide_attrs`].
const WIDE_ATTRS: u16 = u16::MAX;

/// One decoded attribute, as arena ranges.
#[derive(Debug, Clone, Copy)]
struct AttrSpan {
    name: (u32, u32),
    value: (u32, u32),
}

/// A fixed-capacity run of events with all variable-length data (names,
/// text, decoded attributes) packed into one reusable string arena.
///
/// [`EventBatch::clear`] keeps the allocations, so a caller that drains
/// a batch before refilling it can reuse one batch for a whole stream.
/// The threaded pipeline in `twigm::pipeline` does not: it shares each
/// batch among its consumers and frees it when the last one is done.
#[derive(Debug, Default)]
pub struct EventBatch {
    events: Vec<BatchEvent>,
    arena: String,
    attrs: Vec<AttrSpan>,
    /// `(start, end)` attribute ranges of the start tags too wide for
    /// `attr_count`, in batch order (empty unless a tag has 65,535 or
    /// more decoded attributes).
    wide_attrs: Vec<(u32, u32)>,
    /// Reader events consumed while producing this batch (delivered +
    /// filtered).
    pub scanned: u64,
    /// Events dropped by the prefilter (or ignored comment/PI events)
    /// while producing this batch.
    pub filtered: u64,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> EventBatch {
        EventBatch::default()
    }

    /// Clears the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
        self.arena.clear();
        self.attrs.clear();
        self.wide_attrs.clear();
        self.scanned = 0;
        self.filtered = 0;
    }

    /// Number of delivered events in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event records.
    pub fn events(&self) -> &[BatchEvent] {
        &self.events
    }

    /// The tag name (start/end) or text content of an event.
    pub fn str_of(&self, event: &BatchEvent) -> &str {
        &self.arena[event.text.0 as usize..event.text.1 as usize]
    }

    /// The decoded attributes of a start event (empty unless the plan
    /// marked the symbol as needing them).
    pub fn attrs_of(&self, event: &BatchEvent) -> impl Iterator<Item = Attribute<'_>> {
        let start = event.attr_start as usize;
        let end = if event.attr_count == WIDE_ATTRS {
            let i = self
                .wide_attrs
                .binary_search_by_key(&event.attr_start, |&(start, _)| start)
                .expect("a wide attribute range is recorded");
            self.wide_attrs[i].1 as usize
        } else {
            start + event.attr_count as usize
        };
        self.attrs[start..end].iter().map(|span| Attribute {
            name: &self.arena[span.name.0 as usize..span.name.1 as usize],
            value: std::borrow::Cow::Borrowed(
                &self.arena[span.value.0 as usize..span.value.1 as usize],
            ),
        })
    }

    fn intern(&mut self, s: &str) -> (u32, u32) {
        let start = u32::try_from(self.arena.len()).expect("batch arena overflow");
        self.arena.push_str(s);
        (start, self.arena.len() as u32)
    }

    fn push_start(&mut self, sym: Symbol, tag: &StartTag<'_>, decode_attrs: bool) -> SaxResult<()> {
        let text = self.intern(tag.name());
        let attr_start = self.attrs.len();
        if decode_attrs {
            for attr in tag.attributes() {
                let attr = attr?;
                let name = self.intern(attr.name);
                let value = self.intern(&attr.value);
                self.attrs.push(AttrSpan { name, value });
            }
        }
        let attr_start = u32::try_from(attr_start).expect("batch attribute table overflow");
        let attr_count = match u16::try_from(self.attrs.len() - attr_start as usize) {
            Ok(count) if count < WIDE_ATTRS => count,
            _ => {
                let end = u32::try_from(self.attrs.len()).expect("batch attribute table overflow");
                self.wide_attrs.push((attr_start, end));
                WIDE_ATTRS
            }
        };
        self.events.push(BatchEvent {
            kind: BatchEventKind::Start,
            level: tag.level(),
            sym,
            id: tag.id().get(),
            text,
            attr_start,
            attr_count,
        });
        Ok(())
    }

    fn push_end(&mut self, sym: Symbol, name: &str, level: u32) {
        let text = self.intern(name);
        self.events.push(BatchEvent {
            kind: BatchEventKind::End,
            level,
            sym,
            id: 0,
            text,
            attr_start: 0,
            attr_count: 0,
        });
    }

    fn push_text(&mut self, content: &str, level: u32) {
        let text = self.intern(content);
        self.events.push(BatchEvent {
            kind: BatchEventKind::Text,
            level,
            sym: Symbol::UNKNOWN,
            id: 0,
            text,
            attr_start: 0,
            attr_count: 0,
        });
    }
}

/// Everything the producer needs to know about the consuming engine(s),
/// captured up front so the producer thread never touches an engine.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Snapshot of the engine's frozen interner.
    pub table: SymbolTable,
    /// Per-symbol "decode attributes for this start tag" flags, indexed
    /// by [`Symbol::index`]; length equals `table.len()`.
    pub attr_syms: Vec<bool>,
    /// Decode attributes for uninterned tags.
    pub attr_unknown: bool,
    /// The relevance prefilter: `Some(rel)` delivers only elements whose
    /// symbol index is set (plus everything at `level <= 1`); `None`
    /// delivers every element.
    pub relevant: Option<Vec<bool>>,
    /// Deliver text events at all.
    pub wants_text: bool,
}

impl BatchPlan {
    /// A plan that delivers everything — the conservative default for
    /// engines without a relevance analysis.
    pub fn deliver_all(table: SymbolTable) -> BatchPlan {
        let len = table.len();
        BatchPlan {
            table,
            attr_syms: vec![true; len],
            attr_unknown: true,
            relevant: None,
            wants_text: true,
        }
    }

    fn wants_attrs(&self, sym: Symbol) -> bool {
        match sym.index() {
            Some(i) => self.attr_syms.get(i).copied().unwrap_or(true),
            None => self.attr_unknown,
        }
    }

    fn is_relevant(&self, sym: Symbol, level: u32) -> bool {
        // The root (and anything outside it) always flows through:
        // engines reset per-document state when the root closes.
        if level <= 1 {
            return true;
        }
        match &self.relevant {
            None => true,
            Some(rel) => match sym.index() {
                Some(i) => rel.get(i).copied().unwrap_or(false),
                None => false,
            },
        }
    }
}

/// Pulls events from a [`SaxReader`] and packs them into batches under a
/// [`BatchPlan`], applying the symbol-relevance prefilter.
pub struct BatchProducer<R> {
    reader: SaxReader<R>,
    plan: BatchPlan,
    /// Each currently-open element: was it delivered, and its symbol.
    /// Length is the current element depth; the top gates text
    /// delivery, a pop gates an end tag and gives it its symbol.
    open: Vec<(bool, Symbol)>,
    /// Events and arena bytes of the last batch filled.
    last_fill: (usize, usize),
    done: bool,
}

impl<R: Read> BatchProducer<R> {
    /// Wraps a reader with a delivery plan.
    pub fn new(reader: SaxReader<R>, plan: BatchPlan) -> BatchProducer<R> {
        BatchProducer {
            reader,
            plan,
            open: Vec::new(),
            last_fill: (0, 0),
            done: false,
        }
    }

    /// Total bytes consumed from the input so far.
    pub fn bytes_consumed(&self) -> u64 {
        self.reader.offset()
    }

    /// Total reader events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.reader.events_emitted()
    }

    /// Events the reader's projection skimmed so far.
    pub fn events_skipped(&self) -> u64 {
        self.reader.events_skipped()
    }

    /// Content bytes the reader's projection skimmed so far.
    pub fn bytes_skipped(&self) -> u64 {
        self.reader.bytes_skipped()
    }

    /// Deepest element nesting the reader saw so far, skimmed content
    /// included.
    pub fn max_depth(&self) -> u32 {
        self.reader.max_depth()
    }

    /// Clears `batch` and refills it with up to `max_events` delivered
    /// events. Returns `false` when the stream is exhausted *and* the
    /// batch carries nothing (no events, no accounting) — the loop
    /// `while producer.next_batch(&mut b, n)? { ... }` therefore
    /// processes every batch including a partial final one.
    pub fn next_batch(&mut self, batch: &mut EventBatch, max_events: usize) -> SaxResult<bool> {
        batch.clear();
        if self.done {
            return Ok(false);
        }
        // A fresh batch gets room for as many events and an eighth more
        // text than the last one held, so it fills without regrowing and
        // copying its buffers; a reused batch has the room already.
        let (events, text) = self.last_fill;
        batch.events.reserve(events);
        batch.arena.reserve(text + text / 8);
        while batch.len() < max_events {
            let Some(event) = self.reader.next_event()? else {
                self.done = true;
                break;
            };
            batch.scanned += 1;
            match event {
                Event::Start(tag) => {
                    let sym = self.plan.table.lookup(tag.name());
                    let deliver = self.plan.is_relevant(sym, tag.level());
                    self.open.push((deliver, sym));
                    if deliver {
                        let decode = self.plan.wants_attrs(sym);
                        batch.push_start(sym, &tag, decode)?;
                    } else {
                        batch.filtered += 1;
                    }
                    self.reader.project(sym);
                }
                Event::End(tag) => {
                    // Mirror the start's decision exactly, so engines see
                    // balanced pairs, under the start's symbol: the reader
                    // has checked that the names match.
                    let (deliver, sym) = self.open.pop().expect("the reader balances tags");
                    if deliver {
                        debug_assert_eq!(sym, self.plan.table.lookup(tag.name()));
                        batch.push_end(sym, tag.name(), tag.level());
                    } else {
                        batch.filtered += 1;
                    }
                }
                Event::Text(text) => {
                    // `open.len()` is the element depth: the level of the
                    // element that contains this text.
                    let level = self.open.len() as u32;
                    let deliver = self.plan.wants_text && self.open.last().is_some_and(|&(d, _)| d);
                    if deliver {
                        batch.push_text(&text, level);
                    } else {
                        batch.filtered += 1;
                    }
                }
                // The serial driver ignores comments and PIs; so does the
                // batched stream.
                Event::Comment(_) | Event::ProcessingInstruction { .. } => {
                    batch.filtered += 1;
                }
            }
        }
        self.last_fill = (batch.len(), batch.arena.len());
        Ok(!batch.is_empty() || batch.scanned > 0 || !self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_plan(xml: &[u8]) -> BatchPlan {
        // Intern every tag that appears, so symbols are known.
        let mut table = SymbolTable::new();
        let mut reader = SaxReader::from_bytes(xml);
        while let Some(event) = reader.next_event().unwrap() {
            if let Event::Start(tag) = event {
                table.intern(tag.name());
            }
        }
        BatchPlan::deliver_all(table)
    }

    fn drain(xml: &[u8], plan: BatchPlan, max_events: usize) -> (Vec<String>, u64, u64) {
        let mut producer = BatchProducer::new(SaxReader::from_bytes(xml), plan);
        let mut batch = EventBatch::new();
        let mut out = Vec::new();
        let (mut scanned, mut filtered) = (0u64, 0u64);
        while producer.next_batch(&mut batch, max_events).unwrap() {
            scanned += batch.scanned;
            filtered += batch.filtered;
            for ev in batch.events() {
                let tail = match ev.kind {
                    BatchEventKind::Start => {
                        let attrs: Vec<String> = batch
                            .attrs_of(ev)
                            .map(|a| format!("{}={}", a.name, a.value))
                            .collect();
                        format!(
                            "<{} {} #{} [{}]",
                            batch.str_of(ev),
                            ev.level,
                            ev.id,
                            attrs.join(",")
                        )
                    }
                    BatchEventKind::End => format!(">{} {}", batch.str_of(ev), ev.level),
                    BatchEventKind::Text => format!("t{} {:?}", ev.level, batch.str_of(ev)),
                };
                out.push(tail);
            }
        }
        (out, scanned, filtered)
    }

    #[test]
    fn unfiltered_batches_carry_the_whole_stream() {
        let xml = b"<a x=\"1\"><b>hi &amp; bye</b><c/></a>";
        let plan = full_plan(xml);
        let (events, scanned, filtered) = drain(xml, plan, 2);
        assert_eq!(
            events,
            [
                "<a 1 #0 [x=1]",
                "<b 2 #1 []",
                "t2 \"hi & bye\"",
                ">b 2",
                "<c 2 #2 []",
                ">c 2",
                ">a 1",
            ]
        );
        assert_eq!(scanned, 7);
        assert_eq!(filtered, 0);
    }

    #[test]
    fn prefilter_drops_irrelevant_subtrees_but_keeps_levels() {
        let xml = b"<a><skip><b/>deep</skip>text<b/></a>";
        let mut plan = full_plan(xml);
        let a = plan.table.lookup("a");
        let b = plan.table.lookup("b");
        let mut rel = vec![false; plan.table.len()];
        rel[a.index().unwrap()] = true;
        rel[b.index().unwrap()] = true;
        plan.relevant = Some(rel);
        let (events, scanned, filtered) = drain(xml, plan, 64);
        // `skip` goes, its interior `b` is still relevant and keeps its
        // original level 3; the text directly under `a` carries level 1.
        assert_eq!(
            events,
            [
                "<a 1 #0 []",
                "<b 3 #2 []",
                ">b 3",
                "t1 \"text\"",
                "<b 2 #3 []",
                ">b 2",
                ">a 1",
            ]
        );
        assert_eq!(scanned, 10);
        assert_eq!(filtered, 3); // <skip>, "deep", </skip>
    }

    #[test]
    fn text_under_a_skipped_element_is_dropped() {
        let xml = b"<a><skip>gone</skip></a>";
        let mut plan = full_plan(xml);
        let a = plan.table.lookup("a");
        let mut rel = vec![false; plan.table.len()];
        rel[a.index().unwrap()] = true;
        plan.relevant = Some(rel);
        let (events, _, filtered) = drain(xml, plan, 64);
        assert_eq!(events, ["<a 1 #0 []", ">a 1"]);
        assert_eq!(filtered, 3);
    }

    #[test]
    fn wants_text_false_drops_all_text() {
        let xml = b"<a>one<b>two</b></a>";
        let mut plan = full_plan(xml);
        plan.wants_text = false;
        let (events, scanned, filtered) = drain(xml, plan, 64);
        assert_eq!(
            events,
            ["<a 1 #0 []", "t?", "<b 2 #1 []", ">b 2", ">a 1"]
                .iter()
                .filter(|s| **s != "t?")
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(scanned, 6);
        assert_eq!(filtered, 2);
    }

    #[test]
    fn attribute_decoding_is_gated_per_symbol() {
        let xml = b"<a x=\"1\"><b y=\"2\"/></a>";
        let mut plan = full_plan(xml);
        let b = plan.table.lookup("b");
        for (i, flag) in plan.attr_syms.iter_mut().enumerate() {
            *flag = Some(i) == b.index();
        }
        let (events, _, _) = drain(xml, plan, 64);
        assert_eq!(events, ["<a 1 #0 []", "<b 2 #1 [y=2]", ">b 2", ">a 1",]);
    }

    /// Every delivered end tag, with the symbol it carries.
    fn end_symbols(xml: &[u8], plan: BatchPlan) -> Vec<(String, Symbol)> {
        let mut producer = BatchProducer::new(SaxReader::from_bytes(xml), plan);
        let mut batch = EventBatch::new();
        let mut ends = Vec::new();
        while producer.next_batch(&mut batch, 2).unwrap() {
            for ev in batch.events() {
                if ev.kind == BatchEventKind::End {
                    ends.push((batch.str_of(ev).to_string(), ev.sym));
                }
            }
        }
        ends
    }

    #[test]
    fn end_tags_carry_their_start_symbol() {
        // `skip` is filtered with everything in it but the relevant `b`;
        // `zz` is delivered (it sits at the root level) but uninterned.
        let xml = b"<a><skip><b/><skip/></skip><b></b><c/></a>";
        let mut plan = full_plan(xml);
        let (a, b, c) = (
            plan.table.lookup("a"),
            plan.table.lookup("b"),
            plan.table.lookup("c"),
        );
        let mut rel = vec![false; plan.table.len()];
        for sym in [a, b, c] {
            rel[sym.index().unwrap()] = true;
        }
        plan.relevant = Some(rel);
        let ends = end_symbols(xml, plan.clone());
        let want = |names: &[(&str, Symbol)]| -> Vec<(String, Symbol)> {
            names.iter().map(|&(n, s)| (n.to_string(), s)).collect()
        };
        // The filtered `skip` end tags pop their own entries, so the
        // delivered ends after them still pair with their starts.
        assert_eq!(ends, want(&[("b", b), ("b", b), ("c", c), ("a", a)]));
        // Without the prefilter every end is delivered, an unknown tag
        // under UNKNOWN.
        plan.relevant = None;
        let xml = b"<a><zz><b/></zz></a>";
        assert_eq!(
            end_symbols(xml, plan),
            want(&[("b", b), ("zz", Symbol::UNKNOWN), ("a", a)])
        );
    }

    #[test]
    fn a_tag_with_more_attributes_than_a_count_holds_keeps_them_all() {
        // Built by hand: the reader's duplicate-name check is quadratic in
        // the attribute count, and this is a test of the batch.
        let mut attr_text = String::new();
        for i in 0..70_000 {
            attr_text.push_str(&format!(" x{i}=\"{i}\""));
        }
        let tag = |attr_text| StartTag {
            name: "a",
            attr_text,
            offset: 0,
            level: 2,
            id: crate::NodeId::new(1),
            entities: None,
        };
        let mut batch = EventBatch::new();
        batch.push_start(Symbol::UNKNOWN, &tag(""), true).unwrap();
        batch
            .push_start(Symbol::UNKNOWN, &tag(&attr_text), true)
            .unwrap();
        batch
            .push_start(Symbol::UNKNOWN, &tag(" y=\"1\""), true)
            .unwrap();
        let counts: Vec<usize> = batch
            .events()
            .iter()
            .map(|ev| batch.attrs_of(ev).count())
            .collect();
        assert_eq!(counts, [0, 70_000, 1]);
        let last = batch.attrs_of(&batch.events()[1]).last().unwrap();
        assert_eq!((last.name, &*last.value), ("x69999", "69999"));
    }

    #[test]
    fn batches_recycle_without_growth() {
        let xml = b"<a><b>t</b><b>t</b><b>t</b><b>t</b></a>";
        let plan = full_plan(xml);
        let mut producer = BatchProducer::new(SaxReader::from_bytes(xml), plan);
        let mut batch = EventBatch::new();
        let mut total = 0usize;
        while producer.next_batch(&mut batch, 3).unwrap() {
            assert!(batch.len() <= 3);
            total += batch.len();
        }
        assert_eq!(total, 14);
    }
}
