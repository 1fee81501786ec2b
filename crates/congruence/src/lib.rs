//! Union-find and congruence closure for the quantifier-free theory of
//! equality with uninterpreted function symbols.
//!
//! The F_G language of Siek and Lumsdaine ("Essential Language Support for
//! Generic Programming", PLDI 2005) extends System F with *same-type
//! constraints*: declarations that two type expressions — possibly involving
//! opaque associated-type projections such as `Iterator<I>.elt` — denote the
//! same type. Deciding type equality in the presence of such constraints "is
//! equivalent to the quantifier free theory of equality with uninterpreted
//! function symbols, for which there is an efficient O(n log n) time
//! algorithm" (§5.1 of the paper, citing Nelson and Oppen, JACM 1980).
//!
//! This crate provides that algorithm as a standalone library:
//!
//! * [`UnionFind`] — a classic disjoint-set forest with union by rank and
//!   path compression.
//! * [`Congruence`] — an incremental congruence closure over a hash-consed
//!   term bank, in the style of Nelson–Oppen / Downey–Sethi–Tarjan.
//! * [`NaiveClosure`] — a deliberately simple O(n²·m) fixpoint
//!   implementation used as a differential-testing oracle and as the
//!   baseline for the `congruence_scaling` benchmark.
//!
//! # Example
//!
//! Deciding `f(f(a)) = a` from `f(f(f(a))) = a` and `f(f(f(f(f(a))))) = a`
//! (the classic Nelson–Oppen example):
//!
//! ```
//! use congruence::{Congruence, Op};
//!
//! let mut cc = Congruence::new();
//! let f = Op(0);
//! let a = cc.constant(Op(1));
//! let fa = cc.term(f, &[a]);
//! let ffa = cc.term(f, &[fa]);
//! let fffa = cc.term(f, &[ffa]);
//! let ffffa = cc.term(f, &[fffa]);
//! let fffffa = cc.term(f, &[ffffa]);
//! cc.merge(fffa, a);
//! cc.merge(fffffa, a);
//! assert!(cc.eq(ffa, a));
//! assert!(cc.eq(fa, a));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod naive;
mod union_find;

pub use naive::NaiveClosure;
pub use union_find::UnionFind;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use telemetry::limits::Budget;

/// An uninterpreted function symbol (or constant, when applied to zero
/// arguments).
///
/// Clients allocate `Op` values themselves — typically by interning names in
/// their own symbol table — so the congruence closure never needs to know
/// what the symbols mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Op(pub u32);

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A handle to a hash-consed term in a [`Congruence`] instance.
///
/// Term ids are only meaningful with respect to the `Congruence` (or
/// [`NaiveClosure`]) that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The term's index in the term bank.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> Self {
        TermId(u32::try_from(i).expect("term bank exceeded u32::MAX entries"))
    }

    /// Rebuilds a handle from a raw index previously obtained via
    /// [`TermId::index`]. Only meaningful for indices below the owning
    /// instance's [`Congruence::len`]; passing anything else yields a
    /// handle that the owning instance will reject or misattribute.
    pub fn from_raw_index(i: usize) -> Self {
        Self::from_index(i)
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Crate-internal constructor used by the naive oracle, which shares the
/// public `TermId` handle type.
pub(crate) fn term_id_from_index(i: usize) -> TermId {
    TermId::from_index(i)
}

/// A node in the term bank: an operator applied to zero or more children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Node {
    op: Op,
    children: Vec<TermId>,
}

/// Why two equivalence classes were unioned (see [`UnionStep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionCause {
    /// The union came directly from an asserted equation ([`Congruence::merge`]).
    Asserted,
    /// The union was propagated by the congruence axiom: two parent terms
    /// `f(ā)` and `f(b̄)` acquired pairwise-equal children.
    Congruence,
}

impl fmt::Display for UnionCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnionCause::Asserted => write!(f, "asserted"),
            UnionCause::Congruence => write!(f, "congruence"),
        }
    }
}

/// One class union recorded by the optional union log
/// ([`Congruence::set_union_logging`]): the two terms whose classes were
/// joined, the representative of the merged class immediately after the
/// union, and why. The ordered log is exactly the derivation of the
/// current partition, so a client can extract a proof chain for any
/// `a = b` verdict from it (the F_G type-equality engine does this for
/// `fg explain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnionStep {
    /// The left term of the union (for [`UnionCause::Congruence`], one of
    /// the congruent parent terms).
    pub a: TermId,
    /// The right term of the union.
    pub b: TermId,
    /// The representative of the merged class right after this union.
    pub repr: TermId,
    /// Why the classes were joined.
    pub cause: UnionCause,
}

/// Incremental congruence closure over a hash-consed term bank.
///
/// Terms are created with [`Congruence::term`] (hash-consed: structurally
/// identical terms receive the same [`TermId`]). Equalities are asserted
/// with [`Congruence::merge`] and queried with [`Congruence::eq`]. The
/// congruence axiom — if `a₁ = b₁, …, aₙ = bₙ` then
/// `f(a₁,…,aₙ) = f(b₁,…,bₙ)` — is maintained eagerly via use-lists and a
/// signature table, so queries are near-constant time.
///
/// The structure is cheaply `Clone`-able, which the F_G typechecker exploits
/// to give same-type constraints lexical scope: entering a `Λ` body clones
/// the congruence, asserts the body's constraints, and discards the clone on
/// exit.
#[derive(Debug, Clone, Default)]
pub struct Congruence {
    nodes: Vec<Node>,
    /// Hash-consing table: structural node -> existing term.
    hashcons: HashMap<Node, TermId>,
    uf: UnionFind,
    /// For each term (indexed by id), the parent terms in which it occurs
    /// directly. Only the entry of a class representative is authoritative.
    use_list: Vec<Vec<TermId>>,
    /// For each term (indexed by id), the members of its equivalence
    /// class. Only the entry of a class representative is authoritative;
    /// losers' lists are drained into the winner on union, so enumerating
    /// a class is O(class size) instead of O(term bank).
    members: Vec<Vec<TermId>>,
    /// Signature table: (op, canonical children) -> some term with that
    /// signature. Rebuilt lazily during merges.
    sigs: HashMap<Node, TermId>,
    stats: CcStats,
    /// When `true`, every class union is appended to `union_log`.
    log_unions: bool,
    union_log: Vec<UnionStep>,
    /// Shared resource budget (a private unlimited one until
    /// [`Congruence::set_budget`]). Charges are *sticky*: the congruence
    /// APIs stay infallible, and the budget latches the first exhaustion
    /// for a fallible caller to poll (see `telemetry::limits`).
    budget: Arc<Budget>,
}

/// Running operation counts for one [`Congruence`] instance.
///
/// The counters are plain integer adds on paths already dominated by
/// hashing and vector traffic, so they are always on; `terms` is a gauge
/// (the current term-bank size), the rest are monotonic. Clones inherit
/// the parent's counts and diverge from there — see
/// `CcStats::delta_since` for scoped accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Current number of distinct terms in the bank (gauge).
    pub terms: u64,
    /// `merge` invocations (asserted equations).
    pub merges: u64,
    /// Classes actually unioned (including congruence propagation).
    pub unions: u64,
    /// Path-compressing `find` operations.
    pub finds: u64,
}

impl CcStats {
    /// The monotonic counters accumulated since `base` was captured from
    /// the same (or an ancestor) instance. The `terms` gauge carries the
    /// *peak* of the two snapshots rather than a difference.
    pub fn delta_since(&self, base: &CcStats) -> CcStats {
        CcStats {
            terms: self.terms.max(base.terms),
            merges: self.merges.saturating_sub(base.merges),
            unions: self.unions.saturating_sub(base.unions),
            finds: self.finds.saturating_sub(base.finds),
        }
    }
}

impl Congruence {
    /// Creates an empty congruence closure.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of distinct terms created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Snapshot of the operation counters (with `terms` as the current
    /// term-bank size).
    pub fn stats(&self) -> CcStats {
        CcStats {
            terms: self.nodes.len() as u64,
            ..self.stats
        }
    }

    /// Attaches a shared resource budget. Every *new* hash-consed term
    /// charges one cc-term; every class union charges one fuel unit.
    /// Clones share the same budget (scoped checker clones keep charging
    /// the pipeline-wide allowance).
    pub fn set_budget(&mut self, budget: Arc<Budget>) {
        self.budget = budget;
    }

    /// Creates (or retrieves) the constant term `op`.
    ///
    /// Equivalent to `self.term(op, &[])`.
    pub fn constant(&mut self, op: Op) -> TermId {
        self.term(op, &[])
    }

    /// Creates (or retrieves) the term `op(children…)`.
    ///
    /// The returned id is hash-consed on *structure*: calling `term` twice
    /// with identical arguments returns the same id. In addition, if an
    /// existing term is congruent to the new one (its children are merely
    /// *equal* rather than identical), the new term is placed in that term's
    /// equivalence class immediately.
    ///
    /// # Panics
    ///
    /// Panics if any child id was not created by this instance.
    pub fn term(&mut self, op: Op, children: &[TermId]) -> TermId {
        for c in children {
            assert!(c.index() < self.nodes.len(), "foreign TermId {c:?}");
        }
        let node = Node {
            op,
            children: children.to_vec(),
        };
        if let Some(&id) = self.hashcons.get(&node) {
            return id;
        }
        // Sticky charge: term creation stays infallible, the checker
        // polls the budget between expression nodes.
        let _ = self.budget.charge_cc_term();
        let id = TermId::from_index(self.nodes.len());
        self.nodes.push(node.clone());
        self.hashcons.insert(node, id);
        self.uf.push();
        self.use_list.push(Vec::new());
        self.members.push(vec![id]);
        for &c in children {
            let rc = self.find(c);
            self.use_list[rc.index()].push(id);
        }
        // If a congruent term already exists, merge into its class.
        let sig = self.signature(id);
        if let Some(&other) = self.sigs.get(&sig) {
            self.sigs.insert(sig, other);
            self.merge_with_cause(id, other, UnionCause::Congruence);
        } else {
            self.sigs.insert(sig, id);
        }
        id
    }

    /// The operator of a term.
    pub fn op(&self, t: TermId) -> Op {
        self.nodes[t.index()].op
    }

    /// The children of a term.
    pub fn children(&self, t: TermId) -> &[TermId] {
        &self.nodes[t.index()].children
    }

    /// Turns the union log on or off (off by default: logging costs a
    /// `Vec` push per union, and clones inherit the accumulated log).
    pub fn set_union_logging(&mut self, on: bool) {
        self.log_unions = on;
    }

    /// The class unions performed while logging was on, in order. Each
    /// entry is tagged asserted vs. congruence-propagated; see
    /// [`UnionStep`].
    pub fn union_log(&self) -> &[UnionStep] {
        &self.union_log
    }

    /// Takes (and clears) the accumulated union log.
    pub fn drain_union_log(&mut self) -> Vec<UnionStep> {
        std::mem::take(&mut self.union_log)
    }

    /// Asserts that `a` and `b` denote the same value, propagating all
    /// consequences of the congruence axiom.
    pub fn merge(&mut self, a: TermId, b: TermId) {
        self.merge_with_cause(a, b, UnionCause::Asserted);
    }

    fn merge_with_cause(&mut self, a: TermId, b: TermId, cause: UnionCause) {
        self.stats.merges += 1;
        let mut pending = vec![(a, b, cause)];
        while let Some((x, y, cause)) = pending.pop() {
            let rx = self.find(x);
            let ry = self.find(y);
            if rx == ry {
                continue;
            }
            self.stats.unions += 1;
            let _ = self.budget.charge_fuel(1);
            // Union by use-list size: move the smaller list.
            let (small, big) = if self.use_list[rx.index()].len() <= self.use_list[ry.index()].len()
            {
                (rx, ry)
            } else {
                (ry, rx)
            };
            // Detach the smaller class's parents before re-canonicalizing.
            let moved = std::mem::take(&mut self.use_list[small.index()]);
            let mut absorbed = std::mem::take(&mut self.members[small.index()]);
            self.uf.union_into(small.index(), big.index());
            self.members[big.index()].append(&mut absorbed);
            if self.log_unions {
                self.union_log.push(UnionStep {
                    a: x,
                    b: y,
                    repr: big,
                    cause,
                });
            }
            for &parent in &moved {
                let sig = self.signature(parent);
                match self.sigs.get(&sig) {
                    Some(&existing) if !self.uf.same(existing.index(), parent.index()) => {
                        pending.push((existing, parent, UnionCause::Congruence));
                    }
                    Some(_) => {}
                    None => {
                        self.sigs.insert(sig, parent);
                    }
                }
            }
            let mut moved = moved;
            self.use_list[big.index()].append(&mut moved);
        }
    }

    /// Returns `true` if `a` and `b` are known to be equal.
    pub fn eq(&self, a: TermId, b: TermId) -> bool {
        self.uf.same_no_compress(a.index(), b.index())
    }

    /// The canonical representative of `t`'s equivalence class.
    ///
    /// Representatives are stable between merges, so callers may use them
    /// as class keys (the F_G → System F translation does exactly this to
    /// pick one System F type per same-type equivalence class).
    pub fn find(&mut self, t: TermId) -> TermId {
        self.stats.finds += 1;
        TermId::from_index(self.uf.find(t.index()))
    }

    /// Like [`Congruence::find`] but without path compression, usable with a
    /// shared reference.
    pub fn find_no_compress(&self, t: TermId) -> TermId {
        TermId::from_index(self.uf.find_no_compress(t.index()))
    }

    /// The canonical signature of a term: its operator applied to the class
    /// representatives of its children.
    fn signature(&mut self, t: TermId) -> Node {
        let node = self.nodes[t.index()].clone();
        Node {
            op: node.op,
            children: node.children.iter().map(|&c| self.find(c)).collect(),
        }
    }

    /// The members of `t`'s equivalence class, in no particular order.
    ///
    /// Maintained incrementally by unions, so this is O(class size) — the
    /// whole point of the maintained lists is that callers scanning a
    /// class (e.g. the typechecker picking a representative) no longer
    /// touch the entire term bank. Sort the result if a deterministic
    /// order is needed.
    pub fn class_members(&self, t: TermId) -> &[TermId] {
        let r = self.uf.find_no_compress(t.index());
        &self.members[r]
    }

    /// Enumerates the current equivalence classes as sorted vectors of term
    /// ids. Intended for tests and debugging output.
    pub fn classes(&self) -> Vec<Vec<TermId>> {
        let mut by_repr: HashMap<usize, Vec<TermId>> = HashMap::new();
        for i in 0..self.nodes.len() {
            by_repr
                .entry(self.uf.find_no_compress(i))
                .or_default()
                .push(TermId::from_index(i));
        }
        let mut classes: Vec<Vec<TermId>> = by_repr.into_values().collect();
        for class in &mut classes {
            class.sort();
        }
        classes.sort();
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> Op {
        Op(100)
    }
    fn g() -> Op {
        Op(101)
    }

    #[test]
    fn hash_consing_returns_same_id() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(0));
        assert_eq!(a, b);
        let fa1 = cc.term(f(), &[a]);
        let fa2 = cc.term(f(), &[a]);
        assert_eq!(fa1, fa2);
        assert_eq!(cc.len(), 2);
    }

    #[test]
    fn distinct_constants_are_unequal() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        assert!(!cc.eq(a, b));
        assert!(cc.eq(a, a));
    }

    #[test]
    fn merge_makes_terms_equal() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        cc.merge(a, b);
        assert!(cc.eq(a, b));
    }

    #[test]
    fn congruence_axiom_propagates_upward() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let fa = cc.term(f(), &[a]);
        let fb = cc.term(f(), &[b]);
        assert!(!cc.eq(fa, fb));
        cc.merge(a, b);
        assert!(cc.eq(fa, fb));
    }

    #[test]
    fn congruence_propagates_through_two_levels() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let fa = cc.term(f(), &[a]);
        let fb = cc.term(f(), &[b]);
        let gfa = cc.term(g(), &[fa]);
        let gfb = cc.term(g(), &[fb]);
        cc.merge(a, b);
        assert!(cc.eq(gfa, gfb));
    }

    #[test]
    fn nelson_oppen_classic_example() {
        // From f(f(f(a))) = a and f(f(f(f(f(a))))) = a conclude f(a) = a.
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let f1 = cc.term(f(), &[a]);
        let f2 = cc.term(f(), &[f1]);
        let f3 = cc.term(f(), &[f2]);
        let f4 = cc.term(f(), &[f3]);
        let f5 = cc.term(f(), &[f4]);
        cc.merge(f3, a);
        cc.merge(f5, a);
        assert!(cc.eq(f1, a));
        assert!(cc.eq(f2, a));
    }

    #[test]
    fn late_term_creation_sees_existing_equalities() {
        // Merge first, create the compound terms afterwards: the signature
        // table must still identify them.
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        cc.merge(a, b);
        let fa = cc.term(f(), &[a]);
        let fb = cc.term(f(), &[b]);
        assert!(cc.eq(fa, fb));
    }

    #[test]
    fn mixed_arity_same_op_does_not_collide() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let one = cc.term(f(), &[a]);
        let two = cc.term(f(), &[a, a]);
        assert!(!cc.eq(one, two));
    }

    #[test]
    fn different_ops_same_children_are_unequal() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let fa = cc.term(f(), &[a]);
        let ga = cc.term(g(), &[a]);
        assert!(!cc.eq(fa, ga));
    }

    #[test]
    fn clone_isolates_later_merges() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let snapshot = cc.clone();
        cc.merge(a, b);
        assert!(cc.eq(a, b));
        assert!(!snapshot.eq(a, b));
    }

    #[test]
    fn classes_partition_all_terms() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let c = cc.constant(Op(2));
        cc.merge(a, b);
        let classes = cc.classes();
        assert_eq!(classes.len(), 2);
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        let _ = c;
    }

    #[test]
    fn find_is_stable_for_class_members() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        cc.merge(a, b);
        assert_eq!(cc.find(a), cc.find(b));
        assert_eq!(cc.find_no_compress(a), cc.find_no_compress(b));
    }

    #[test]
    fn class_members_track_unions_and_match_classes() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let c = cc.constant(Op(2));
        let fa = cc.term(f(), &[a]);
        let fb = cc.term(f(), &[b]);
        // Singletons to start with.
        assert_eq!(cc.class_members(a), &[a]);
        cc.merge(a, b); // congruence also unions fa/fb
        let mut cls: Vec<TermId> = cc.class_members(a).to_vec();
        cls.sort();
        assert_eq!(cls, vec![a, b]);
        let mut fcls: Vec<TermId> = cc.class_members(fb).to_vec();
        fcls.sort();
        assert_eq!(fcls, vec![fa, fb]);
        assert_eq!(cc.class_members(c), &[c]);
        // The maintained lists agree with the O(n) enumeration.
        for class in cc.classes() {
            let mut got = cc.class_members(class[0]).to_vec();
            got.sort();
            assert_eq!(got, class);
        }
    }

    #[test]
    #[should_panic(expected = "foreign TermId")]
    fn foreign_term_id_panics() {
        let mut cc1 = Congruence::new();
        let mut cc2 = Congruence::new();
        let a = cc1.constant(Op(0));
        let fa = cc1.term(f(), &[a]);
        let _ = cc2.term(f(), &[fa]);
    }

    #[test]
    fn merge_chain_is_transitive() {
        let mut cc = Congruence::new();
        let ids: Vec<_> = (0..10).map(|i| cc.constant(Op(i))).collect();
        for w in ids.windows(2) {
            cc.merge(w[0], w[1]);
        }
        assert!(cc.eq(ids[0], ids[9]));
    }

    #[test]
    fn binary_congruence_requires_both_children_equal() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let c = cc.constant(Op(2));
        let fab = cc.term(f(), &[a, b]);
        let fac = cc.term(f(), &[a, c]);
        assert!(!cc.eq(fab, fac));
        cc.merge(b, c);
        assert!(cc.eq(fab, fac));
    }

    #[test]
    fn stats_count_operations() {
        let mut cc = Congruence::new();
        assert_eq!(cc.stats(), CcStats::default());
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let fa = cc.term(f(), &[a]);
        let fb = cc.term(f(), &[b]);
        let s0 = cc.stats();
        assert_eq!(s0.terms, 4);
        assert_eq!(s0.merges, 0);
        assert_eq!(s0.unions, 0);
        cc.merge(a, b);
        let s1 = cc.stats();
        assert_eq!(s1.merges, 1);
        // merging a~b unions two classes: {a,b} and, by congruence
        // propagation, {f(a), f(b)}.
        assert_eq!(s1.unions, 2);
        assert!(s1.finds > s0.finds);
        assert!(cc.eq(fa, fb));
    }

    #[test]
    fn union_log_is_off_by_default() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        cc.merge(a, b);
        assert!(cc.union_log().is_empty());
    }

    #[test]
    fn union_log_tags_asserted_vs_congruence() {
        let mut cc = Congruence::new();
        cc.set_union_logging(true);
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let fa = cc.term(f(), &[a]);
        let fb = cc.term(f(), &[b]);
        cc.merge(a, b);
        let log = cc.union_log().to_vec();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].cause, UnionCause::Asserted);
        assert_eq!((log[0].a, log[0].b), (a, b));
        assert_eq!(log[1].cause, UnionCause::Congruence);
        // The propagated union joins the parent terms f(a) and f(b).
        let pair = [log[1].a, log[1].b];
        assert!(pair.contains(&fa) && pair.contains(&fb));
        // Each recorded representative is current for its pair at the
        // time of the union (and, with no later merges, still is).
        for step in &log {
            assert_eq!(cc.find_no_compress(step.a), cc.find_no_compress(step.repr));
            assert_eq!(cc.find_no_compress(step.b), cc.find_no_compress(step.repr));
        }
    }

    #[test]
    fn union_log_records_hashcons_congruence_at_creation() {
        // Creating a term whose signature already exists (children merely
        // equal, not identical) merges immediately — logged as congruence.
        let mut cc = Congruence::new();
        cc.set_union_logging(true);
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        cc.merge(a, b);
        let fa = cc.term(f(), &[a]);
        let fb = cc.term(f(), &[b]);
        assert!(cc.eq(fa, fb));
        let causes: Vec<UnionCause> = cc.union_log().iter().map(|s| s.cause).collect();
        assert_eq!(causes, [UnionCause::Asserted, UnionCause::Congruence]);
    }

    #[test]
    fn drain_union_log_clears_it() {
        let mut cc = Congruence::new();
        cc.set_union_logging(true);
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        cc.merge(a, b);
        let drained = cc.drain_union_log();
        assert_eq!(drained.len(), 1);
        assert!(cc.union_log().is_empty());
        let c = cc.constant(Op(2));
        cc.merge(a, c);
        assert_eq!(cc.union_log().len(), 1);
    }

    #[test]
    fn stats_delta_since_subtracts_monotonic_counters() {
        let mut cc = Congruence::new();
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let base = cc.stats();
        cc.merge(a, b);
        cc.find(a);
        let delta = cc.stats().delta_since(&base);
        assert_eq!(delta.merges, 1);
        assert_eq!(delta.unions, 1);
        assert!(delta.finds > 0);
        // `terms` is a gauge: the delta carries the peak, not a difference.
        assert_eq!(delta.terms, 2);
        // A clone inherits the parent's counts, so deltas against the
        // parent's snapshot measure only the clone's own work.
        let snap = cc.stats();
        let mut scoped = cc.clone();
        let c = scoped.constant(Op(2));
        scoped.merge(a, c);
        let scoped_delta = scoped.stats().delta_since(&snap);
        assert_eq!(scoped_delta.merges, 1);
        assert_eq!(cc.stats().delta_since(&snap).merges, 0);
    }

    #[test]
    fn budget_latches_cc_term_and_fuel_charges() {
        use std::sync::Arc;
        use telemetry::limits::{Limits, Resource};

        let budget = Arc::new(Budget::new(Limits {
            max_cc_terms: Some(3),
            ..Limits::UNLIMITED
        }));
        let mut cc = Congruence::new();
        cc.set_budget(Arc::clone(&budget));
        let a = cc.constant(Op(0));
        let b = cc.constant(Op(1));
        let c = cc.constant(Op(2));
        assert!(budget.ok().is_ok());
        // Hash-cons hits are free: no new node, no charge.
        assert_eq!(cc.constant(Op(2)), c);
        assert!(budget.ok().is_ok());
        // Unions charge fuel against the shared budget.
        cc.merge(a, b);
        assert!(budget.fuel_spent() >= 1);
        // The fourth distinct term trips the cap, but term creation
        // itself stays infallible and consistent.
        let d = cc.constant(Op(3));
        assert_eq!(budget.ok().unwrap_err().resource, Resource::CcTerms);
        cc.merge(c, d);
        assert!(cc.eq(a, b));
        assert!(cc.eq(c, d));
        // Clones share the (already exhausted, hence frozen) budget:
        // new work in the clone still observes the latched record.
        let mut scoped = cc.clone();
        scoped.constant(Op(9));
        assert_eq!(budget.ok().unwrap_err().resource, Resource::CcTerms);
    }
}
