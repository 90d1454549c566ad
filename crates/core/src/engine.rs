//! The common streaming-engine interface, the one event driver that
//! feeds it, the batch replay, and the auto-selecting engine.

use std::fmt;
use std::io::Read;
use std::ops::ControlFlow;

use twigm_sax::batch::{BatchEventKind, EventBatch};
use twigm_sax::{
    Attribute, Event, FeedEvent, FeedReader, NodeId, Projection, SaxError, SaxReader, Symbol,
    SymbolTable,
};
use twigm_xpath::Path;

use crate::branch::BranchM;
use crate::machine::{Machine, MachineError};
use crate::observe::{MachineObserver, NoopObserver};
use crate::path::PathM;
use crate::relevance::{machine_projection, machine_relevance, Relevance};
use crate::stats::EngineStats;
use crate::twig::TwigM;

/// A streaming XPath evaluator driven by the paper's modified SAX events.
///
/// Implementations receive `startElement(tag, level, id)`,
/// `endElement(tag, level)` and character data in document order — one
/// method per event kind — and accumulate the ids of return-node
/// matches, which the caller drains with [`StreamEngine::take_results`]
/// (possibly incrementally, after any event).
///
/// Tags arrive as symbols of the engine's own [`StreamEngine::symbols`]
/// table, looked up once per event by the driver ([`drive`],
/// [`replay_batch`]). The name rides along for engines that work on the
/// text of a tag (the lazy DFA baseline, the fragment and attribute
/// collectors). An engine whose table is `None` sees every tag as
/// [`Symbol::UNKNOWN`]. Engines driven by hand use [`ByName`].
///
/// Attribute values are decoded only for start tags whose symbol
/// [`StreamEngine::needs_attributes`] accepts. Any other start tag
/// arrives with an empty attribute slice and costs no allocation. The
/// entity references in every attribute value are still checked when
/// the reader scans the tag, so an unknown entity fails the document
/// whatever the engine decodes. [`drive`] asks before every start tag,
/// so an engine may answer from its state; a batch plan asks once per
/// symbol (see [`StreamEngine::needs_attributes`]).
///
/// An engine with a [`StreamEngine::projection`] receives no events
/// for the content of elements below which none of its query nodes can
/// match. The reader skims that content with every well-formedness
/// check it makes on delivered content (see `SaxReader::project`), so a
/// malformed document fails with the same error, at the same offset,
/// whether or not its bad bytes were skimmed.
pub trait StreamEngine {
    /// Processes a start tag. Returns `true` when the element was pushed
    /// onto the return node's stack (i.e. it became a solution candidate)
    /// — used by the fragment collector to know what to record.
    fn start_element(
        &mut self,
        sym: Symbol,
        name: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool;

    /// Processes an end tag.
    fn end_element(&mut self, sym: Symbol, name: &str, level: u32);

    /// Processes character data (it may arrive in chunks). `level` is
    /// the level of the element that directly contains the text. Engines
    /// that test no text ignore it.
    fn text(&mut self, text: &str, level: u32) {
        let _ = (text, level);
    }

    /// The engine's interner, which the drivers look tags up in. `None`
    /// (the default) makes every tag [`Symbol::UNKNOWN`].
    fn symbols(&self) -> Option<&SymbolTable> {
        None
    }

    /// Whether a start event with this symbol needs its attributes
    /// decoded (see the trait docs). The conservative default decodes
    /// always.
    ///
    /// [`drive`] asks before every start tag, so the answer may depend
    /// on the engine's state: the fragment collector needs attributes
    /// only while it records a candidate, or for a tag that can become
    /// one. A `BatchPlan` asks once per symbol and caches the answer for
    /// the whole document, so a plan must never be built from an engine
    /// whose answer changes; such an engine is replayed only under a
    /// deliver-all plan, which decodes every attribute.
    fn needs_attributes(&self, sym: Symbol) -> bool {
        let _ = sym;
        true
    }

    /// Whether an element with this symbol can become a solution
    /// candidate, that is, whether [`StreamEngine::start_element`] can
    /// return `true` for it. The answer must be conservative: `false`
    /// only when no document can make the symbol a candidate. The
    /// default, `true`, is always correct; the machines answer from
    /// their return node.
    fn can_be_candidate(&self, sym: Symbol) -> bool {
        let _ = sym;
        true
    }

    /// How many undecided candidates the engine holds now, or `None`
    /// (the default) when it does not know. `Some(0)` promises that no
    /// candidate started so far can still be decided, so a wrapper that
    /// buffers candidate output may drop what it holds for them.
    fn live_candidates(&self) -> Option<u64> {
        None
    }

    /// Applies one pre-parsed event batch produced under a plan over
    /// *this* engine's symbol table (see `BatchPlan` in the sax crate):
    /// the stored symbols are dispatched without re-hashing the tag
    /// names. Engines normally inherit this [`replay_batch`] call.
    fn apply_batch(&mut self, batch: &EventBatch) {
        replay_batch(self, batch, None)
    }

    /// Which symbols and stream features this engine dispatches on, for
    /// the pipeline prefilter. The conservative default claims
    /// everything is relevant, which disables filtering and is always
    /// correct.
    fn relevance(&self) -> Relevance {
        Relevance::all()
    }

    /// The path projection over [`StreamEngine::symbols`] that the
    /// drivers install in the reader (see `relevance.rs`): which open
    /// elements can still lead to a match. `None` (the default) delivers
    /// every event, which is always correct.
    fn projection(&self) -> Option<Projection> {
        None
    }

    /// Drains the results decided so far, in decision order.
    fn take_results(&mut self) -> Vec<NodeId>;

    /// Moves the results decided so far onto the end of `out`, in
    /// decision order: [`StreamEngine::take_results`] for a caller that
    /// drains after every event. The machines keep their result
    /// vector's capacity, so a warm drain allocates nothing.
    fn drain_results(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.take_results());
    }

    /// Work / memory counters.
    fn stats(&self) -> &EngineStats;

    /// The compiled machine's node count |Q|, when the engine has one.
    /// Together with the document recursion depth R this lets harnesses
    /// assert Theorem 4.4's `peak_entries <= |Q| * R` bound uniformly,
    /// without knowing each engine's concrete machine accessor. `None`
    /// (the default) means "no bound claimed" — e.g. enumeration
    /// baselines whose buffering is not covered by the theorem.
    fn machine_size(&self) -> Option<usize> {
        None
    }
}

impl<E: StreamEngine + ?Sized> StreamEngine for &mut E {
    fn start_element(
        &mut self,
        sym: Symbol,
        name: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        (**self).start_element(sym, name, attrs, level, id)
    }

    fn end_element(&mut self, sym: Symbol, name: &str, level: u32) {
        (**self).end_element(sym, name, level)
    }

    fn text(&mut self, text: &str, level: u32) {
        (**self).text(text, level)
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        (**self).symbols()
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        (**self).needs_attributes(sym)
    }

    fn can_be_candidate(&self, sym: Symbol) -> bool {
        (**self).can_be_candidate(sym)
    }

    fn live_candidates(&self) -> Option<u64> {
        (**self).live_candidates()
    }

    fn apply_batch(&mut self, batch: &EventBatch) {
        (**self).apply_batch(batch)
    }

    fn relevance(&self) -> Relevance {
        (**self).relevance()
    }

    fn projection(&self) -> Option<Projection> {
        (**self).projection()
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        (**self).take_results()
    }

    fn drain_results(&mut self, out: &mut Vec<NodeId>) {
        (**self).drain_results(out)
    }

    fn stats(&self) -> &EngineStats {
        (**self).stats()
    }

    fn machine_size(&self) -> Option<usize> {
        (**self).machine_size()
    }
}

/// The symbol `engine` dispatches `name` on.
fn symbol_of<E: StreamEngine + ?Sized>(engine: &E, name: &str) -> Symbol {
    engine
        .symbols()
        .map_or(Symbol::UNKNOWN, |table| table.lookup(name))
}

/// Name-keyed start and end calls for engines driven by hand (unit
/// tests, examples): each looks the name up in the engine's own table
/// and calls the symbol entry point, as the drivers do once per event.
pub trait ByName: StreamEngine {
    /// [`StreamEngine::start_element`] for the tag `name`.
    fn start_named(&mut self, name: &str, attrs: &[Attribute<'_>], level: u32, id: NodeId) -> bool {
        let sym = symbol_of(self, name);
        self.start_element(sym, name, attrs, level, id)
    }

    /// [`StreamEngine::end_element`] for the tag `name`.
    fn end_named(&mut self, name: &str, level: u32) {
        let sym = symbol_of(self, name);
        self.end_element(sym, name, level)
    }
}

impl<E: StreamEngine + ?Sized> ByName for E {}

/// An error from end-to-end evaluation.
#[derive(Debug)]
pub enum EvalError {
    /// The XML stream was malformed.
    Sax(SaxError),
    /// The query could not be compiled.
    Machine(MachineError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Sax(e) => write!(f, "XML error: {e}"),
            EvalError::Machine(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Sax(e) => Some(e),
            EvalError::Machine(e) => Some(e),
        }
    }
}

impl From<SaxError> for EvalError {
    fn from(e: SaxError) -> Self {
        EvalError::Sax(e)
    }
}

impl From<MachineError> for EvalError {
    fn from(e: MachineError) -> Self {
        EvalError::Machine(e)
    }
}

/// An engine that picks the cheapest machine for the query (paper §3):
/// [`PathM`] for `XP{/,//,*}`, [`BranchM`] for `XP{/,[]}`, and [`TwigM`]
/// for the full language.
///
/// Generic over a [`MachineObserver`] like the machines themselves; the
/// default [`NoopObserver`] keeps `Engine` the plain unobserved driver.
pub enum Engine<O: MachineObserver = NoopObserver> {
    /// Predicate-free query.
    Path(PathM<O>),
    /// Child-axis-only query with predicates.
    Branch(BranchM<O>),
    /// The general machine.
    Twig(TwigM<O>),
}

impl Engine {
    /// Compiles `query`, selecting the machine by the query's class.
    pub fn new(query: &Path) -> Result<Engine, MachineError> {
        Engine::with_observer(query, NoopObserver)
    }
}

impl<O: MachineObserver> Engine<O> {
    /// Compiles `query` with an attached observer, selecting the machine
    /// by the query's class.
    pub fn with_observer(query: &Path, observer: O) -> Result<Engine<O>, MachineError> {
        if query.is_predicate_free() {
            Ok(Engine::Path(PathM::with_observer(query, observer)?))
        } else if query.is_branch_only() {
            Ok(Engine::Branch(BranchM::with_observer(query, observer)?))
        } else {
            Ok(Engine::Twig(TwigM::with_observer(query, observer)?))
        }
    }

    /// Which machine was selected, as a display string.
    pub fn machine_name(&self) -> &'static str {
        match self {
            Engine::Path(_) => "PathM",
            Engine::Branch(_) => "BranchM",
            Engine::Twig(_) => "TwigM",
        }
    }

    /// The compiled machine (e.g. to label observer node ids).
    pub fn machine(&self) -> &Machine {
        match self {
            Engine::Path(e) => e.machine(),
            Engine::Branch(e) => e.machine(),
            Engine::Twig(e) => e.machine(),
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        match self {
            Engine::Path(e) => e.observer(),
            Engine::Branch(e) => e.observer(),
            Engine::Twig(e) => e.observer(),
        }
    }

    /// Consumes the engine, returning the observer.
    pub fn into_observer(self) -> O {
        match self {
            Engine::Path(e) => e.into_observer(),
            Engine::Branch(e) => e.into_observer(),
            Engine::Twig(e) => e.into_observer(),
        }
    }
}

impl<O: MachineObserver> StreamEngine for Engine<O> {
    fn start_element(
        &mut self,
        sym: Symbol,
        name: &str,
        attrs: &[Attribute<'_>],
        level: u32,
        id: NodeId,
    ) -> bool {
        match self {
            Engine::Path(e) => e.start_element(sym, name, attrs, level, id),
            Engine::Branch(e) => e.start_element(sym, name, attrs, level, id),
            Engine::Twig(e) => e.start_element(sym, name, attrs, level, id),
        }
    }

    fn end_element(&mut self, sym: Symbol, name: &str, level: u32) {
        match self {
            Engine::Path(e) => e.end_element(sym, name, level),
            Engine::Branch(e) => e.end_element(sym, name, level),
            Engine::Twig(e) => e.end_element(sym, name, level),
        }
    }

    fn text(&mut self, text: &str, level: u32) {
        match self {
            Engine::Path(e) => e.text(text, level),
            Engine::Branch(e) => e.text(text, level),
            Engine::Twig(e) => e.text(text, level),
        }
    }

    fn symbols(&self) -> Option<&SymbolTable> {
        Some(self.machine().symbols())
    }

    fn needs_attributes(&self, sym: Symbol) -> bool {
        match self {
            Engine::Path(e) => e.needs_attributes(sym),
            Engine::Branch(e) => e.needs_attributes(sym),
            Engine::Twig(e) => e.needs_attributes(sym),
        }
    }

    fn can_be_candidate(&self, sym: Symbol) -> bool {
        self.machine().can_be_candidate(sym)
    }

    fn live_candidates(&self) -> Option<u64> {
        match self {
            Engine::Path(e) => e.live_candidates(),
            Engine::Branch(e) => e.live_candidates(),
            Engine::Twig(e) => e.live_candidates(),
        }
    }

    /// Replays the batch into the selected machine, so the per-event
    /// dispatch does not go through this enum.
    fn apply_batch(&mut self, batch: &EventBatch) {
        match self {
            Engine::Path(e) => e.apply_batch(batch),
            Engine::Branch(e) => e.apply_batch(batch),
            Engine::Twig(e) => e.apply_batch(batch),
        }
    }

    fn relevance(&self) -> Relevance {
        machine_relevance(self.machine())
    }

    fn projection(&self) -> Option<Projection> {
        machine_projection(self.machine())
    }

    fn take_results(&mut self) -> Vec<NodeId> {
        match self {
            Engine::Path(e) => e.take_results(),
            Engine::Branch(e) => e.take_results(),
            Engine::Twig(e) => e.take_results(),
        }
    }

    fn drain_results(&mut self, out: &mut Vec<NodeId>) {
        match self {
            Engine::Path(e) => e.drain_results(out),
            Engine::Branch(e) => e.drain_results(out),
            Engine::Twig(e) => e.drain_results(out),
        }
    }

    fn stats(&self) -> &EngineStats {
        match self {
            Engine::Path(e) => e.stats(),
            Engine::Branch(e) => e.stats(),
            Engine::Twig(e) => e.stats(),
        }
    }

    fn machine_size(&self) -> Option<usize> {
        Some(self.machine().len())
    }
}

/// Where [`drive`] pulls events from: a [`SaxReader`] over a whole
/// stream, or a [`FeedReader`] holding the chunks fed so far.
pub trait EventSource {
    /// The next event, or `None` when the source has none to give now:
    /// the end of the document, or the end of the data fed so far.
    fn pull(&mut self) -> Result<Option<Event<'_>>, SaxError>;

    /// Byte offset just past the last event pulled.
    fn offset(&self) -> u64;

    /// Elements open after the last event pulled. [`drive`] reads it
    /// once on entry; a source that ran dry has already closed an empty
    /// tag's element, so it holds on re-entry too.
    fn depth(&self) -> u32;

    /// Installs the projection `compile` returns unless the source has
    /// one already, or had projection switched off (`with_projection(None)`
    /// on the reader). Returns whether the source projects.
    fn project_with(&mut self, compile: impl FnOnce() -> Option<Projection>) -> bool;

    /// Reports the symbol of the element the last start event opened,
    /// so a projecting source can skim its content.
    fn project(&mut self, sym: Symbol);

    /// What the source skimmed and how deep the document went: the
    /// stream-side counts [`Telemetry`] cannot see in the events.
    fn skim_counts(&self) -> SkimCounts;
}

/// What a source skimmed so far, and the deepest nesting it saw
/// (skimmed content included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkimCounts {
    /// Events skimmed instead of delivered.
    pub events: u64,
    /// Bytes of element content skimmed.
    pub bytes: u64,
    /// Deepest element nesting seen.
    pub max_depth: u32,
}

impl<R: Read> EventSource for SaxReader<R> {
    fn pull(&mut self) -> Result<Option<Event<'_>>, SaxError> {
        self.next_event()
    }

    fn offset(&self) -> u64 {
        SaxReader::offset(self)
    }

    fn depth(&self) -> u32 {
        SaxReader::depth(self)
    }

    fn project_with(&mut self, compile: impl FnOnce() -> Option<Projection>) -> bool {
        SaxReader::project_with(self, compile)
    }

    fn project(&mut self, sym: Symbol) {
        SaxReader::project(self, sym)
    }

    fn skim_counts(&self) -> SkimCounts {
        SkimCounts {
            events: self.events_skipped(),
            bytes: self.bytes_skipped(),
            max_depth: self.max_depth(),
        }
    }
}

impl EventSource for FeedReader {
    fn pull(&mut self) -> Result<Option<Event<'_>>, SaxError> {
        match self.next_event()? {
            FeedEvent::Event(event) => Ok(Some(event)),
            FeedEvent::NeedData | FeedEvent::Done => Ok(None),
        }
    }

    fn offset(&self) -> u64 {
        FeedReader::offset(self)
    }

    fn depth(&self) -> u32 {
        FeedReader::depth(self)
    }

    fn project_with(&mut self, compile: impl FnOnce() -> Option<Projection>) -> bool {
        FeedReader::project_with(self, compile)
    }

    fn project(&mut self, sym: Symbol) {
        FeedReader::project(self, sym)
    }

    fn skim_counts(&self) -> SkimCounts {
        SkimCounts {
            events: self.events_skipped(),
            bytes: self.bytes_skipped(),
            max_depth: self.max_depth(),
        }
    }
}

/// Per-event hooks of [`drive`], chosen at compile time like a
/// [`MachineObserver`]: [`NoTelemetry`] compiles to nothing,
/// [`Telemetry`] does the stream accounting of [`run_engine_traced`],
/// and harnesses add their own (a deadline check, say).
pub trait DriverObserver {
    /// Runs after every event the driver pulled, comments and processing
    /// instructions included. `offset` is the byte offset just past the
    /// event. `Break` stops the drive.
    fn after_event<E: StreamEngine + ?Sized>(
        &mut self,
        engine: &mut E,
        offset: u64,
    ) -> ControlFlow<()>;
}

/// The driver observer that observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTelemetry;

impl DriverObserver for NoTelemetry {
    #[inline(always)]
    fn after_event<E: StreamEngine + ?Sized>(&mut self, _: &mut E, _: u64) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// The event driver: pulls every event `src` has to give and turns it
/// into `engine` calls — the only place SAX events become
/// [`StreamEngine`] calls.
///
/// Each tag is looked up once in the engine's table, attribute values
/// are decoded under the rule in the [`StreamEngine`] docs, and text is
/// delivered with the level of its containing element; comments and
/// processing instructions are skipped. `observer` runs after every
/// event.
///
/// On first entry the driver installs the engine's
/// [`StreamEngine::projection`] in `src`, unless `src` has projection
/// switched off, and reports every start tag's symbol back to it, so
/// `src` skims content no query node can reach.
///
/// Returns once `src` has no more events — the end of the document, or
/// of the data fed so far into a [`FeedReader`] (feed more and call
/// again) — or when the observer stopped the drive.
pub fn drive<E, S, D>(engine: &mut E, src: &mut S, observer: &mut D) -> Result<(), SaxError>
where
    E: StreamEngine + ?Sized,
    S: EventSource,
    D: DriverObserver,
{
    let mut depth = src.depth();
    let project = src.project_with(|| engine.projection());
    // One attribute vector for every start tag: each borrows it for its
    // own event, and `recycle` hands the emptied allocation back.
    let mut spare: Vec<Attribute<'static>> = Vec::new();
    while let Some(event) = src.pull()? {
        match event {
            Event::Start(tag) => {
                let sym = symbol_of(engine, tag.name());
                let mut attrs: Vec<Attribute<'_>> = std::mem::take(&mut spare);
                if engine.needs_attributes(sym) {
                    for a in tag.attributes() {
                        attrs.push(a?);
                    }
                }
                depth = tag.level();
                engine.start_element(sym, tag.name(), &attrs, depth, tag.id());
                spare = recycle(attrs);
                if project {
                    src.project(sym);
                }
            }
            Event::End(tag) => {
                let sym = symbol_of(engine, tag.name());
                engine.end_element(sym, tag.name(), tag.level());
                depth = tag.level() - 1;
            }
            Event::Text(text) => engine.text(&text, depth),
            Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
        }
        if observer.after_event(engine, src.offset()).is_break() {
            break;
        }
    }
    Ok(())
}

/// Empties `attrs` and returns its allocation with the lifetime the
/// caller picks. The `collect` runs in place: same element type, no
/// element to map, so the buffer is reused and nothing is allocated.
fn recycle<'a>(mut attrs: Vec<Attribute<'_>>) -> Vec<Attribute<'a>> {
    attrs.clear();
    attrs.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// The batch replay: turns a pre-parsed [`EventBatch`] into `engine`
/// calls.
///
/// With `relookup` `None` it dispatches on the symbols stored in the
/// batch, which must then have been produced under a plan over the
/// engine's own table ([`StreamEngine::apply_batch`]). With
/// `Some(table)` — the engine's own table — each name is looked up again,
/// for a batch produced under another table: the sharded workers, whose
/// producer interns the names of every shard.
pub fn replay_batch<E: StreamEngine + ?Sized>(
    engine: &mut E,
    batch: &EventBatch,
    relookup: Option<&SymbolTable>,
) {
    let sym = |stored: Symbol, name: &str| relookup.map_or(stored, |table| table.lookup(name));
    let mut attrs: Vec<Attribute<'_>> = Vec::new();
    for event in batch.events() {
        let name = batch.str_of(event);
        match event.kind {
            BatchEventKind::Start => {
                attrs.clear();
                attrs.extend(batch.attrs_of(event));
                let id = NodeId::new(event.id);
                engine.start_element(sym(event.sym, name), name, &attrs, event.level, id);
            }
            BatchEventKind::End => engine.end_element(sym(event.sym, name), name, event.level),
            BatchEventKind::Text => engine.text(name, event.level),
        }
    }
}

/// Runs `engine` over a complete XML stream and returns its results.
pub fn run_engine<E: StreamEngine, R: Read>(
    mut engine: E,
    src: R,
) -> Result<(Vec<NodeId>, E), SaxError> {
    drive(&mut engine, &mut SaxReader::new(src), &mut NoTelemetry)?;
    let results = engine.take_results();
    Ok((results, engine))
}

/// Driver-level byte/event accounting from [`run_engine_traced`].
///
/// These are the stream-side quantities the engine counters cannot see:
/// how many bytes and SAX events the reader produced, how much content
/// it skimmed under the engine's projection, how deep the document
/// recursed (the `R` of Theorem 4.4's `|Q|·R` memory bound), and when
/// the first result was decided — the latency metric of the
/// earliest-answering literature (PAPERS.md).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamTelemetry {
    /// Bytes consumed from the input stream, skimmed content included.
    pub bytes: u64,
    /// SAX events the reader emitted (tags, text, comments, PIs).
    pub events: u64,
    /// Events the reader skimmed instead of emitting: `events +
    /// skipped_events` is the event count of a full parse.
    pub skipped_events: u64,
    /// Bytes of element content the reader skimmed.
    pub skipped_bytes: u64,
    /// Deepest element nesting in the document, skimmed content
    /// included — the recursion depth `R`.
    pub max_depth: u32,
    /// Event count at which the first result was decided.
    pub first_result_event: Option<u64>,
    /// Bytes consumed when the first result was decided.
    pub first_result_byte: Option<u64>,
}

/// A progress sample handed to [`Telemetry`]'s callback.
#[derive(Debug, Clone, Copy)]
pub struct StreamProgress {
    /// Bytes consumed so far.
    pub bytes: u64,
    /// SAX events processed so far.
    pub events: u64,
    /// Results decided so far.
    pub results: u64,
}

/// The telemetry driver observer: counts events and time-to-first-result,
/// and calls `progress` after every `progress_every` events (never when
/// it is 0) — e.g. for stderr throughput reporting. Bytes, skimmed
/// content and the recursion depth come from the source, which counts
/// them anyway, when [`Telemetry::finish`] closes the account.
///
/// Result arrival is detected through the engine's `stats().results`
/// counter (every engine bumps it at the emitting transition), so the
/// per-event cost is a couple of counter reads and no result is drained.
pub struct Telemetry<F> {
    telemetry: StreamTelemetry,
    progress_every: u64,
    progress: F,
}

impl<F: FnMut(&StreamProgress)> Telemetry<F> {
    /// A fresh account with a progress callback.
    pub fn new(progress_every: u64, progress: F) -> Self {
        Telemetry {
            telemetry: StreamTelemetry::default(),
            progress_every,
            progress,
        }
    }

    /// Closes the account over the source the drive pulled from: its
    /// final offset (which covers trailing whitespace after the last
    /// event), what it skimmed, and the depth of the whole document.
    pub fn finish(self, src: &impl EventSource) -> StreamTelemetry {
        let skimmed = src.skim_counts();
        StreamTelemetry {
            bytes: src.offset(),
            skipped_events: skimmed.events,
            skipped_bytes: skimmed.bytes,
            max_depth: skimmed.max_depth,
            ..self.telemetry
        }
    }
}

impl<F: FnMut(&StreamProgress)> DriverObserver for Telemetry<F> {
    #[inline]
    fn after_event<E: StreamEngine + ?Sized>(
        &mut self,
        engine: &mut E,
        offset: u64,
    ) -> ControlFlow<()> {
        let t = &mut self.telemetry;
        t.events += 1;
        if t.first_result_event.is_none() && engine.stats().results > 0 {
            t.first_result_event = Some(t.events);
            t.first_result_byte = Some(offset);
        }
        if self.progress_every != 0 && t.events.is_multiple_of(self.progress_every) {
            (self.progress)(&StreamProgress {
                bytes: offset,
                events: t.events,
                results: engine.stats().results,
            });
        }
        ControlFlow::Continue(())
    }
}

/// [`run_engine`] through the [`Telemetry`] driver observer: also
/// returns the stream accounting, calling `progress` after every
/// `progress_every` events.
pub fn run_engine_traced<E: StreamEngine, R: Read>(
    mut engine: E,
    src: R,
    progress_every: u64,
    progress: impl FnMut(&StreamProgress),
) -> Result<(Vec<NodeId>, E, StreamTelemetry), SaxError> {
    let mut reader = SaxReader::new(src);
    let mut observer = Telemetry::new(progress_every, progress);
    drive(&mut engine, &mut reader, &mut observer)?;
    let telemetry = observer.finish(&reader);
    debug_assert_eq!(telemetry.events, reader.events_emitted());
    let results = engine.take_results();
    Ok((results, engine, telemetry))
}

/// One-call evaluation: compiles `query`, streams `src` through the
/// best-fitting machine, and returns the matched node ids in decision
/// order.
pub fn evaluate<R: Read>(query: &Path, src: R) -> Result<Vec<NodeId>, EvalError> {
    let engine = Engine::new(query)?;
    let (results, _) = run_engine(engine, src)?;
    Ok(results)
}

/// Evaluates a union of queries (`//a | //b[c]`) in a single pass via
/// the multi-query engine, returning the set union of the branch
/// results sorted in document order.
///
/// ```
/// let branches = twigm_xpath::parse_union("//a | //b[c]").unwrap();
/// let xml = b"<r><a/><b><c/></b><b/></r>";
/// let ids = twigm::evaluate_union(&branches, &xml[..]).unwrap();
/// assert_eq!(ids.len(), 2);
/// ```
pub fn evaluate_union<R: Read>(branches: &[Path], src: R) -> Result<Vec<NodeId>, EvalError> {
    let mut engine = crate::multi::MultiTwigM::new();
    for branch in branches {
        engine.add_query(branch)?;
    }
    let results = engine.run(src)?;
    let mut ids: Vec<u64> = results.into_iter().map(|r| r.node.get()).collect();
    ids.sort_unstable();
    ids.dedup();
    Ok(ids.into_iter().map(NodeId::new).collect())
}

/// Like [`evaluate`], but returns ids in **document order**.
///
/// TwigM decides results as predicates resolve, which is not document
/// order in general (an inner match can be decided before an outer,
/// earlier one). Pre-order ids order exactly by document position, so a
/// sort restores it. This necessarily buffers the id list — callers who
/// need bounded-memory streaming should consume decision order instead.
pub fn evaluate_ordered<R: Read>(query: &Path, src: R) -> Result<Vec<NodeId>, EvalError> {
    let mut ids = evaluate(query, src)?;
    ids.sort_unstable_by_key(|id| id.get());
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn engine_selects_the_cheapest_machine() {
        let q = parse("//a//b").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "PathM");
        let q = parse("/a[b]/c").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "BranchM");
        let q = parse("//a[b]/c").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "TwigM");
        let q = parse("/a/*[b]").unwrap();
        assert_eq!(Engine::new(&q).unwrap().machine_name(), "TwigM");
    }

    #[test]
    fn evaluate_end_to_end() {
        let xml = b"<r><a><b/></a><a/></r>" as &[u8];
        let q = parse("//a/b").unwrap();
        let ids = evaluate(&q, xml).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].get(), 2);
    }

    #[test]
    fn evaluate_surfaces_sax_errors() {
        let q = parse("//a").unwrap();
        assert!(matches!(
            evaluate(&q, b"<r>" as &[u8]),
            Err(EvalError::Sax(_))
        ));
    }

    #[test]
    fn eval_error_display() {
        let e = EvalError::Sax(SaxError::UnexpectedEof { open_element: None });
        assert!(e.to_string().contains("XML error"));
    }

    #[test]
    fn traced_run_accounts_bytes_events_and_first_result() {
        let xml = b"<r><a><b/></a><a/></r>" as &[u8];
        let engine = Engine::new(&parse("//a/b").unwrap()).unwrap();
        let (ids, _, telemetry) = run_engine_traced(engine, xml, 0, |_| {}).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(telemetry.bytes, xml.len() as u64);
        // <r><a><b></b></a><a></a></r> = 8 events.
        assert_eq!(telemetry.events, 8);
        assert_eq!(telemetry.max_depth, 3);
        // PathM emits b on its start tag: the 3rd event.
        assert_eq!(telemetry.first_result_event, Some(3));
        assert!(telemetry.first_result_byte.unwrap() <= telemetry.bytes);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let xml = b"<r><a><b/></a><a><b/><b/></a></r>" as &[u8];
        let q = parse("//a[b]").unwrap();
        let (plain, _) = run_engine(Engine::new(&q).unwrap(), xml).unwrap();
        let (traced, _, _) = run_engine_traced(Engine::new(&q).unwrap(), xml, 0, |_| {}).unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn traced_run_reports_progress_at_the_requested_cadence() {
        let xml = b"<r><a/><a/><a/><a/><a/></r>" as &[u8];
        let mut samples = Vec::new();
        let engine = Engine::new(&parse("//a").unwrap()).unwrap();
        let (_, _, telemetry) = run_engine_traced(engine, xml, 4, |p| {
            samples.push((p.events, p.results));
        })
        .unwrap();
        // 12 events => samples at 4, 8, 12.
        assert_eq!(telemetry.events, 12);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].0, 4);
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "monotone");
    }

    #[test]
    fn traced_run_drives_the_multi_engine_for_unions() {
        let xml = b"<r><a/><b><c/></b><b/></r>" as &[u8];
        let branches = twigm_xpath::parse_union("//a | //b[c]").unwrap();
        let mut engine = crate::multi::MultiTwigM::new();
        for b in &branches {
            engine.add_query(b).unwrap();
        }
        let (ids, engine, telemetry) = run_engine_traced(engine, xml, 0, |_| {}).unwrap();
        let mut got: Vec<u64> = ids.iter().map(|id| id.get()).collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(telemetry.bytes, xml.len() as u64);
        // |Q| summed over branches: //a has 1 node, //b[c] has 2.
        assert_eq!(StreamEngine::machine_size(&engine), Some(3));
    }
}

#[cfg(test)]
mod ordering_tests {
    use super::*;
    use twigm_xpath::parse;

    #[test]
    fn evaluate_ordered_sorts_decision_order_results() {
        // Text predicates are only decidable at end tags, so here the
        // inner (later-id) match is decided before the outer one;
        // evaluate_ordered restores document order.
        let xml = b"<r><a>v<a>v</a></a></r>" as &[u8];
        let q = parse("//a[text() = 'v']").unwrap();
        let decision = evaluate(&q, xml).unwrap();
        let ordered = evaluate_ordered(&q, xml).unwrap();
        assert_eq!(decision.len(), 2);
        assert_eq!(
            ordered.iter().map(|id| id.get()).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // Decision order here is inner-first (</a> of the inner element
        // arrives first).
        assert_eq!(decision[0].get(), 2);
    }

    #[test]
    fn evaluate_union_deduplicates_and_orders() {
        let xml = b"<r><a/><b/><a/></r>" as &[u8];
        let branches = twigm_xpath::parse_union("//a | /r/a | //b").unwrap();
        assert_eq!(branches.len(), 3);
        let ids = evaluate_union(&branches, xml).unwrap();
        assert_eq!(
            ids.iter().map(|id| id.get()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }
}
