//! Projection: which open elements can still lead to a query match.
//!
//! A [`Projection`] is a small automaton over the open-element path,
//! compiled from a query machine. After each start tag it answers one
//! question: *can any query node match strictly below this element?*
//! When it cannot, and the element's own text is not tested, nothing in
//! the element's content can change a result, and the reader skims the
//! content up to the matching end tag instead of turning it into events
//! (see [`crate::SaxReader::project`]).
//!
//! The automaton tracks the machine's **anchored** steps: the nodes
//! whose every edge up to the document root is a child edge, possibly
//! across folded `*` steps. Such a node can only match at one fixed
//! level, so its state is one bit: "every anchored ancestor matched the
//! open path so far". A step behind a `//` edge can match at any depth,
//! so the anchored node above such an edge **arms** the projection: the
//! whole subtree of an element matching it is live, and the automaton
//! does no work until that element closes. A machine whose root step is
//! `//` arms at the document root and compiles to no projection at all.
//!
//! The state is a `u64` bit set, bit 0 being the document root, so a
//! projection holds at most 63 anchored steps; a larger one compiles to
//! none, which delivers every event and is always correct.

use crate::symbol::{Symbol, SymbolTable};

/// Largest number of anchored steps a projection tracks.
const MAX_STEPS: usize = 63;

/// One anchored step: matches an element at a fixed level whose parent
/// step matched.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The tag symbol, or `None` for `*`.
    test: Option<Symbol>,
    /// The parent step's bit (bit 0: the document root).
    parent: u64,
    /// This step's bit.
    bit: u64,
}

/// A compiled projection over one symbol table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Projection {
    /// `levels[l - 1]`: the anchored steps at level `l`.
    levels: Vec<Vec<Step>>,
    /// `pending[l - 1]`: steps (and the root) with an anchored child
    /// deeper than level `l`.
    pending: Vec<u64>,
    /// Steps below which every element is live.
    arms: u64,
    /// Steps whose own text is tested.
    keeps: u64,
    /// Return-node steps.
    returns: u64,
    /// Steps added so far (bit `n` is the next one).
    len: usize,
}

/// Refers to a step of a [`Projection`] under construction, as a parent
/// for the steps added after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRef(u64);

impl StepRef {
    /// The document root: the parent of a query's first steps.
    pub const ROOT: StepRef = StepRef(1);
}

/// What a new anchored step needs from the elements it matches.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepFlags {
    /// A `//` edge leaves the step: everything below a match is live.
    pub arms: bool,
    /// The step tests its element's own text.
    pub keeps_text: bool,
    /// The step is the query's return node.
    pub returns: bool,
}

impl Projection {
    /// An empty projection: nothing below the root element can match.
    pub fn new() -> Projection {
        Projection::default()
    }

    /// Adds an anchored step at `level` (the root element is level 1)
    /// under `parent`, which must sit at a smaller level. `test` is the
    /// tag symbol, `None` for `*`. Returns `None` once the projection
    /// holds 63 steps: the caller then compiles no projection.
    pub fn add_step(
        &mut self,
        parent: StepRef,
        level: u32,
        test: Option<Symbol>,
        flags: StepFlags,
    ) -> Option<StepRef> {
        if self.len == MAX_STEPS || level == 0 {
            return None;
        }
        self.len += 1;
        let bit = 1u64 << self.len;
        let level = level as usize;
        if self.levels.len() < level {
            self.levels.resize(level, Vec::new());
            self.pending.resize(level, 0);
        }
        self.levels[level - 1].push(Step {
            test,
            parent: parent.0,
            bit,
        });
        // The parent waits on this step at every level above it.
        for pending in &mut self.pending[..level - 1] {
            *pending |= parent.0;
        }
        if flags.arms {
            self.arms |= bit;
        }
        if flags.keeps_text {
            self.keeps |= bit;
        }
        if flags.returns {
            self.returns |= bit;
        }
        Some(StepRef(bit))
    }

    /// Makes the whole subtree of every return-node match live, for a
    /// consumer that records matched subtrees (fragment output).
    pub fn keep_return_subtrees(mut self) -> Projection {
        self.arms |= self.returns;
        self
    }

    /// The union of `self` and `other` over the same symbol table: an
    /// element is live when it is live for either. `None` when the union
    /// exceeds 63 steps.
    pub fn union(&self, other: &Projection) -> Option<Projection> {
        if self.len + other.len > MAX_STEPS {
            return None;
        }
        let shift = self.len;
        let move_bits = |bits: u64| ((bits & !1) << shift) | (bits & 1);
        let mut out = self.clone();
        out.len += other.len;
        if out.levels.len() < other.levels.len() {
            out.levels.resize(other.levels.len(), Vec::new());
            out.pending.resize(other.levels.len(), 0);
        }
        for (l, steps) in other.levels.iter().enumerate() {
            out.levels[l].extend(steps.iter().map(|s| Step {
                test: s.test,
                parent: move_bits(s.parent),
                bit: move_bits(s.bit),
            }));
            out.pending[l] |= move_bits(other.pending[l]);
        }
        out.arms |= move_bits(other.arms);
        out.keeps |= move_bits(other.keeps);
        out.returns |= move_bits(other.returns);
        Some(out)
    }

    /// The same projection over another symbol table, matching tags by
    /// name. A name `to` lacks maps to [`Symbol::UNKNOWN`], the symbol of
    /// every tag `to` lacks, which keeps the step conservative.
    pub fn remap(&self, from: &SymbolTable, to: &SymbolTable) -> Projection {
        let mut out = self.clone();
        for step in out.levels.iter_mut().flatten() {
            if let Some(sym) = step.test {
                step.test = Some(from.resolve(sym).map_or(Symbol::UNKNOWN, |n| to.lookup(n)));
            }
        }
        out
    }

    /// The state of an element at `level` with tag `sym` whose parent's
    /// state is `parent`.
    #[inline]
    fn enter(&self, parent: u64, sym: Symbol, level: u32) -> u64 {
        let mut state = parent;
        if let Some(steps) = self.levels.get(level as usize - 1) {
            for step in steps {
                if parent & step.parent != 0 && step.test.is_none_or(|t| t == sym) {
                    state |= step.bit;
                }
            }
        }
        state
    }
}

/// What the projection says about an element's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The content may matter: deliver it, and keep asking below.
    Live,
    /// Everything below the element is live: stop asking until it ends.
    Armed,
    /// Nothing in the content can matter: skim it.
    Skim,
}

/// A [`Projection`] run over one document's open-element path.
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    projection: Projection,
    /// `states[l - 1]`: the state of the open element at level `l`.
    states: Vec<u64>,
    /// Level of the element that armed the cursor, 0 when unarmed.
    armed_at: u32,
}

impl Cursor {
    /// A cursor at the start of a document.
    pub(crate) fn new(projection: Projection) -> Cursor {
        Cursor {
            projection,
            states: Vec::new(),
            armed_at: 0,
        }
    }

    /// The verdict on the element a start tag at `level` with tag `sym`
    /// just opened. Every start tag outside skimmed content comes here;
    /// end tags need no call, since the level of the next start tag says
    /// which elements have closed.
    #[inline]
    pub(crate) fn start(&mut self, sym: Symbol, level: u32) -> Verdict {
        if self.armed_at != 0 {
            if level > self.armed_at {
                return Verdict::Armed;
            }
            self.armed_at = 0;
        }
        let p = &self.projection;
        self.states.truncate(level as usize - 1);
        debug_assert_eq!(self.states.len(), level as usize - 1, "levels step by one");
        let parent = self.states.last().copied().unwrap_or(1);
        let state = p.enter(parent, sym, level);
        self.states.push(state);
        if state & p.arms != 0 {
            self.armed_at = level;
            return Verdict::Armed;
        }
        let waits = p.pending.get(level as usize - 1).copied().unwrap_or(0);
        let keeps = state & !parent & p.keeps;
        if state & waits != 0 || keeps != 0 {
            Verdict::Live
        } else {
            Verdict::Skim
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/a/b/c` over a table {a, b, c, x}; `c` tests its text.
    fn chain() -> (SymbolTable, Projection) {
        let mut table = SymbolTable::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| table.intern(n));
        table.intern("x");
        let mut p = Projection::new();
        let sa = p.add_step(StepRef::ROOT, 1, Some(a), StepFlags::default());
        let sb = p.add_step(sa.unwrap(), 2, Some(b), StepFlags::default());
        let flags = StepFlags {
            keeps_text: true,
            returns: true,
            ..StepFlags::default()
        };
        p.add_step(sb.unwrap(), 3, Some(c), flags).unwrap();
        (table, p)
    }

    fn verdicts(table: &SymbolTable, p: &Projection, path: &[(&str, u32)]) -> Vec<Verdict> {
        let mut cursor = Cursor::new(p.clone());
        path.iter()
            .map(|&(name, level)| cursor.start(table.lookup(name), level))
            .collect()
    }

    #[test]
    fn a_child_chain_skims_off_path_subtrees() {
        let (table, p) = chain();
        use Verdict::*;
        let path = [("a", 1), ("x", 2), ("b", 2), ("x", 3), ("c", 3), ("b", 2)];
        assert_eq!(
            verdicts(&table, &p, &path),
            [Live, Skim, Live, Skim, Live, Live]
        );
        // A wrong root leaves nothing to match.
        assert_eq!(verdicts(&table, &p, &[("x", 1)]), [Skim]);
        // Return subtrees kept: `c` arms, its content stays live.
        let kept = p.keep_return_subtrees();
        assert_eq!(
            verdicts(&table, &kept, &[("a", 1), ("b", 2), ("c", 3), ("x", 4)]),
            [Live, Live, Armed, Armed]
        );
    }

    #[test]
    fn an_armed_cursor_disarms_when_its_element_closes() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let mut p = Projection::new();
        let flags = StepFlags {
            arms: true,
            ..StepFlags::default()
        };
        p.add_step(StepRef::ROOT, 2, Some(a), flags).unwrap();
        use Verdict::*;
        let path = [("r", 1), ("a", 2), ("x", 3), ("x", 4), ("x", 2), ("a", 2)];
        assert_eq!(
            verdicts(&table, &p, &path),
            [Live, Armed, Armed, Armed, Skim, Armed]
        );
    }

    #[test]
    fn wildcards_match_every_tag_and_unions_widen() {
        let (table, chain) = chain();
        let mut p = Projection::new();
        let any = p.add_step(StepRef::ROOT, 1, None, StepFlags::default());
        p.add_step(
            any.unwrap(),
            2,
            table.lookup("x").into(),
            StepFlags::default(),
        )
        .unwrap();
        let union = chain.union(&p).unwrap();
        use Verdict::*;
        // Under `a`, `x` is a leaf of the second query and `b` leads on
        // in the first.
        let path = [("a", 1), ("x", 2), ("b", 2), ("c", 3)];
        assert_eq!(verdicts(&table, &union, &path), [Live, Skim, Live, Live]);
        assert_eq!(
            verdicts(&table, &union, &[("z", 1), ("b", 2)]),
            [Live, Skim]
        );
    }

    #[test]
    fn remapping_follows_names() {
        let (table, p) = chain();
        let mut other = SymbolTable::new();
        for name in ["zz", "c", "b", "a"] {
            other.intern(name);
        }
        let moved = p.remap(&table, &other);
        let path = [("a", 1), ("b", 2), ("c", 3)];
        assert_eq!(verdicts(&other, &moved, &path), verdicts(&table, &p, &path));
    }

    #[test]
    fn step_limit_is_enforced() {
        let mut p = Projection::new();
        let mut parent = StepRef::ROOT;
        for level in 1..=MAX_STEPS as u32 {
            parent = p
                .add_step(parent, level, None, StepFlags::default())
                .unwrap();
        }
        assert!(p.add_step(parent, 64, None, StepFlags::default()).is_none());
        assert!(p.union(&p.clone()).is_none());
    }
}
