//! Type equality for F_G: the congruence of declared same-type constraints.
//!
//! §5.1 of the paper: "Type checking is complicated by the addition of
//! same-type constraints because type equality is no longer syntactic
//! equality … Deciding type equality is equivalent to the quantifier free
//! theory of equality with uninterpreted function symbols, for which there
//! is an efficient O(n log n) time algorithm" — Nelson–Oppen congruence
//! closure, provided by the [`congruence`] crate.
//!
//! F_G types are encoded as congruence terms over uninterpreted operators:
//! `int`/`bool`/type variables are constants, `list` is unary, `fn` of
//! arity *n* is an (n+1)-ary operator, and each associated-type projection
//! `C.s` is an operator applied to the concept's type arguments. Universal
//! types (`forall`) fall outside the first-order theory; they are compared
//! structurally (up to alpha-renaming), recursing through this same
//! procedure at every sub-position, and participate in the congruence as
//! opaque constants keyed by a canonical token spine.
//!
//! The engine works on hash-consed [`TyId`] handles of a [`TyInterner`]
//! arena it shares with the checker: the congruence encoding maps handles
//! to [`TermId`]s through a union-count-stamped cache, so repeated
//! encodings of the same type are a single hash lookup and the encoding
//! path allocates no strings.
//!
//! The translation to System F needs one extra operation beyond equality:
//! [`TypeEq::resolve`] rewrites a type to the *representative* of its
//! equivalence class (preferring concrete, projection-free types), which is
//! exactly how the paper collapses `Iterator<Iter1>.elt` and
//! `Iterator<Iter2>.elt` to the single type parameter `elt1` in the
//! translation of `merge` (§5.2).

use std::collections::HashMap;

use congruence::{Congruence, Op, TermId};
use system_f::Symbol;
use telemetry::trace::Tracer;

use crate::rty::{ConceptId, CtNode, InternStats, TyId, TyInterner, TyNode};

/// One token of the canonical spine for universal types. The spine is a
/// prefix rendering with explicit arities in every head token, so two
/// token slices are equal exactly when the old string renderings were.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PolyTok {
    /// A maximal closed first-order sub-term, by its current class root.
    Root(u32),
    /// A bound variable, by de Bruijn index.
    Bound(u32),
    /// A free variable under the binders.
    Free(Symbol),
    Int,
    Bool,
    ListOp,
    FnOp(u32),
    AssocOp(ConceptId, Symbol, u32),
    ForallOp(u32, u32),
    MdlOp(ConceptId, u32),
    SameTyOp,
}

/// Keys identifying uninterpreted operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OpKey {
    Int,
    Bool,
    List,
    Fn(usize),
    Var(Symbol),
    Assoc(ConceptId, Symbol),
    /// A universal type, keyed by canonical token spine.
    Poly(Box<[PolyTok]>),
}

/// Cache stamp meaning "valid regardless of union state": first-order
/// encodings are purely structural and hash-consed, so the same `TyId`
/// always maps to the same `TermId`.
const STAMP_FIRST_ORDER: u64 = u64::MAX;

/// The scoped type-equality state.
///
/// Cloning is cheap enough to give same-type constraints lexical scope: the
/// checker clones on entering a scope that asserts equalities and drops the
/// clone on exit. Clones share the interner arena, so `TyId` handles stay
/// stable across scopes.
#[derive(Debug, Clone, Default)]
pub struct TypeEq {
    cc: Congruence,
    ops: HashMap<OpKey, Op>,
    next_op: u32,
    /// Shared hash-consing arena for the types this engine has seen.
    interner: TyInterner,
    /// `decoded[t.index()]` is the interned type that first produced term
    /// `t`.
    decoded: Vec<TyId>,
    /// `TyId → TermId` encoding cache. The stamp is the union count at
    /// the *start* of the encoding ([`STAMP_FIRST_ORDER`] for first-order
    /// types): `forall` encodings embed current class roots, so any union
    /// invalidates them — exactly reproducing the old re-render-per-query
    /// semantics, minus the rendering cost when nothing changed.
    term_cache: HashMap<TyId, (TermId, u64)>,
    /// Type-alias names: never eligible as class representatives (they are
    /// not System F binders, so the translation must never emit them).
    banned: Vec<Symbol>,
    /// Query counters, plus counts absorbed from discarded scope clones
    /// (see [`TypeEq::absorb_scope`]).
    carried: TypeEqStats,
    /// Every equality asserted into this instance, in order. Scope clones
    /// carry their ancestors' assertions, so the log always lists exactly
    /// the equations in force — the raw material for [`TypeEq::explain`].
    asserted: Vec<(TyId, TyId)>,
    /// Trace sink for union/assertion events (disabled by default; the
    /// handle is shared, so scope clones keep reporting to the same
    /// collector).
    tracer: Tracer,
}

/// Aggregated equality-engine statistics: query counters of this instance
/// plus the underlying congruence-closure operation counts.
///
/// `terms` is a gauge (current term-bank size); `term_bank_peak` also
/// covers scope clones that were discarded on scope exit. Everything else
/// is monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeEqStats {
    /// `eq` queries answered.
    pub eq_queries: u64,
    /// `assert_eq` constraint assertions.
    pub assertions: u64,
    /// `resolve` canonicalization requests.
    pub resolves: u64,
    /// Congruence `merge` invocations.
    pub merges: u64,
    /// Congruence class unions performed.
    pub unions: u64,
    /// Union-find `find` operations.
    pub finds: u64,
    /// Current congruence term-bank size (gauge).
    pub terms: u64,
    /// Peak term-bank size observed, including discarded scopes (gauge).
    pub term_bank_peak: u64,
}

impl TypeEqStats {
    /// The counters accumulated since `base` was captured from the same
    /// (or an ancestor) instance; gauges carry the peak instead.
    pub fn delta_since(&self, base: &TypeEqStats) -> TypeEqStats {
        TypeEqStats {
            eq_queries: self.eq_queries.saturating_sub(base.eq_queries),
            assertions: self.assertions.saturating_sub(base.assertions),
            resolves: self.resolves.saturating_sub(base.resolves),
            merges: self.merges.saturating_sub(base.merges),
            unions: self.unions.saturating_sub(base.unions),
            finds: self.finds.saturating_sub(base.finds),
            terms: self.terms.max(base.terms),
            term_bank_peak: self.term_bank_peak.max(base.term_bank_peak),
        }
    }
}

/// Bound on `resolve` recursion, guarding against cyclic same-type
/// constraints such as `t == list t`.
const RESOLVE_DEPTH_LIMIT: usize = 64;

impl TypeEq {
    /// Creates an empty equality state (equality is syntactic) over a
    /// fresh arena.
    pub fn new() -> TypeEq {
        TypeEq::default()
    }

    /// Creates an empty equality state over `interner`'s arena, so handles
    /// from that arena can be asserted and queried.
    pub fn with_interner(interner: TyInterner) -> TypeEq {
        TypeEq {
            interner,
            ..TypeEq::default()
        }
    }

    /// Marks `name` as a type-alias variable: it may appear in programs but
    /// will never be chosen as a class representative by
    /// [`TypeEq::resolve`].
    pub fn ban_representative(&mut self, name: Symbol) {
        if !self.banned.contains(&name) {
            self.banned.push(name);
        }
    }

    /// Snapshot of the equality-engine statistics.
    pub fn stats(&self) -> TypeEqStats {
        let cc = self.cc.stats();
        let mut s = self.carried;
        s.merges += cc.merges;
        s.unions += cc.unions;
        s.finds += cc.finds;
        s.terms = cc.terms;
        s.term_bank_peak = s.term_bank_peak.max(cc.terms);
        s
    }

    /// Folds the statistics `delta` of a discarded scope clone into this
    /// instance, so counts stay monotonic across scoped save/restore:
    /// capture `child.stats().delta_since(&saved.stats())` before the
    /// restore and absorb it afterwards.
    pub fn absorb_scope(&mut self, delta: TypeEqStats) {
        self.carried.eq_queries += delta.eq_queries;
        self.carried.assertions += delta.assertions;
        self.carried.resolves += delta.resolves;
        self.carried.merges += delta.merges;
        self.carried.unions += delta.unions;
        self.carried.finds += delta.finds;
        self.carried.term_bank_peak = self.carried.term_bank_peak.max(delta.term_bank_peak);
    }

    /// Attaches a shared resource budget: congruence-node creation,
    /// interner arena growth, and class unions charge against it, so a
    /// blowup in the equality engine trips the budget instead of
    /// exhausting memory. Scope clones share the budget.
    pub fn set_budget(&mut self, budget: std::sync::Arc<telemetry::limits::Budget>) {
        self.interner.set_budget(budget.clone());
        self.cc.set_budget(budget);
    }

    /// Attaches a trace sink: every assertion and every congruence-class
    /// union (with its representative and asserted/propagated cause) is
    /// reported to it. Scope clones share the sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.cc.set_union_logging(tracer.is_enabled());
        self.tracer = tracer;
    }

    /// A shared handle to this engine's type interner (clones share the
    /// arena): every handle passed to or returned by the engine lives in
    /// it.
    pub fn interner(&self) -> TyInterner {
        self.interner.clone()
    }

    /// The interner this engine's handles live in.
    pub(crate) fn types(&self) -> &TyInterner {
        &self.interner
    }

    /// Counter snapshot of the shared interner arena.
    pub fn intern_stats(&self) -> InternStats {
        self.interner.stats()
    }

    /// Reports the congruence unions accumulated since the last flush as
    /// `cc_union` trace events, decoding each side and the class
    /// representative back to a type.
    fn flush_unions(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        for step in self.cc.drain_union_log() {
            let render = |te: &TypeEq, t: TermId| {
                te.decoded
                    .get(t.index())
                    .map(|&tid| te.interner.to_rty(tid).to_string())
                    .unwrap_or_else(|| t.to_string())
            };
            let (lhs, rhs, repr) = (
                render(self, step.a),
                render(self, step.b),
                render(self, self.cc.find_no_compress(step.repr)),
            );
            self.tracer.instant(
                "cc_union",
                vec![
                    ("lhs", lhs.into()),
                    ("rhs", rhs.into()),
                    ("repr", repr.into()),
                    ("cause", step.cause.to_string().into()),
                ],
            );
        }
    }

    /// Asserts `a == b`, closing under congruence.
    pub fn assert_eq(&mut self, a: TyId, b: TyId) {
        self.carried.assertions += 1;
        self.asserted.push((a, b));
        self.tracer.instant_with("assert_eq", || {
            vec![
                ("lhs", self.interner.to_rty(a).to_string().into()),
                ("rhs", self.interner.to_rty(b).to_string().into()),
            ]
        });
        let ta = self.encode(a);
        let tb = self.encode(b);
        self.cc.merge(ta, tb);
        self.flush_unions();
    }

    /// Decides `a == b` under the asserted constraints.
    pub fn eq(&mut self, a: TyId, b: TyId) -> bool {
        self.carried.eq_queries += 1;
        if a == b {
            return true;
        }
        let ta = self.encode(a);
        let tb = self.encode(b);
        let out = if self.cc.eq(ta, tb) {
            true
        } else {
            self.structural_eq(a, b, 0)
        };
        // Encoding fresh terms can itself union classes (hash-consing
        // congruence); attribute those to this query.
        self.flush_unions();
        out
    }

    /// Extracts a proof chain for `a == b`: a subset of the asserted
    /// equalities that (under congruence closure) already implies it, in
    /// assertion order. Returns `None` when the types are *not* equal, and
    /// an empty chain when the equality is syntactic/structural and needs
    /// no assertions.
    ///
    /// The chain is minimized greedily — dropping any single remaining
    /// assertion breaks the proof — and is validated by construction:
    /// every candidate subset is checked by replaying it into a fresh
    /// engine over the same arena. Every query runs in such a fresh
    /// engine, and the arena is rolled back afterwards, so explaining
    /// leaves this engine, the arena's counters and the budget as they
    /// were: a traced check counts and charges the same work as an
    /// untraced one.
    pub fn explain(&self, a: TyId, b: TyId) -> Option<Vec<(TyId, TyId)>> {
        self.interner.scratch(|| self.minimal_chain(a, b))
    }

    /// [`TypeEq::explain`]'s search, which interns into the shared arena.
    fn minimal_chain(&self, a: TyId, b: TyId) -> Option<Vec<(TyId, TyId)>> {
        let holds = |subset: &[(TyId, TyId)]| -> bool {
            let mut fresh = TypeEq::with_interner(self.interner.clone());
            for name in &self.banned {
                fresh.ban_representative(*name);
            }
            for &(x, y) in subset {
                fresh.assert_eq(x, y);
            }
            fresh.eq(a, b)
        };
        let mut kept = self.asserted.clone();
        if !holds(&kept) {
            return None;
        }
        let mut i = 0;
        while i < kept.len() {
            let mut trial = kept.clone();
            trial.remove(i);
            if holds(&trial) {
                kept = trial;
            } else {
                i += 1;
            }
        }
        Some(kept)
    }

    /// Structural comparison that recurses through [`TypeEq::eq`] at every
    /// sub-position, alpha-renaming `forall` binders to depth-indexed
    /// canonical names.
    fn structural_eq(&mut self, a: TyId, b: TyId, depth: usize) -> bool {
        match (self.interner.node(a), self.interner.node(b)) {
            (TyNode::List(x), TyNode::List(y)) => self.eq(x, y),
            (TyNode::Fn(ps, r), TyNode::Fn(qs, s)) => {
                ps.len() == qs.len()
                    && ps.iter().zip(qs.iter()).all(|(&p, &q)| self.eq(p, q))
                    && self.eq(r, s)
            }
            (
                TyNode::Assoc {
                    concept: ca,
                    args: aa,
                    name: na,
                    ..
                },
                TyNode::Assoc {
                    concept: cb,
                    args: ab,
                    name: nb,
                    ..
                },
            ) => {
                ca == cb
                    && na == nb
                    && aa.len() == ab.len()
                    && aa.iter().zip(ab.iter()).all(|(&x, &y)| self.eq(x, y))
            }
            (
                TyNode::Forall {
                    vars: va,
                    constraints: ca,
                    body: ba,
                },
                TyNode::Forall {
                    vars: vb,
                    constraints: cb,
                    body: bb,
                },
            ) => {
                if va.len() != vb.len() || ca.len() != cb.len() {
                    return false;
                }
                let canon: Vec<TyId> = (0..va.len())
                    .map(|i| {
                        self.interner
                            .var(Symbol::intern(&format!("#cmp{}_{}", depth, i)))
                    })
                    .collect();
                let rename = |vars: &[Symbol]| -> Vec<(Symbol, TyId)> {
                    vars.iter().copied().zip(canon.iter().copied()).collect()
                };
                let sa = self.interner.subst_id(&rename(&va));
                let sb = self.interner.subst_id(&rename(&vb));
                let ba2 = self.interner.subst(ba, sa);
                let bb2 = self.interner.subst(bb, sb);
                for (&x, &y) in ca.iter().zip(cb.iter()) {
                    let x2 = self.interner.subst_constraint(x, sa);
                    let y2 = self.interner.subst_constraint(y, sb);
                    let ok = match (
                        self.interner.constraint_node(x2),
                        self.interner.constraint_node(y2),
                    ) {
                        (
                            CtNode::Model {
                                concept: c1,
                                args: a1,
                                ..
                            },
                            CtNode::Model {
                                concept: c2,
                                args: a2,
                                ..
                            },
                        ) => {
                            c1 == c2
                                && a1.len() == a2.len()
                                && a1.iter().zip(a2.iter()).all(|(&p, &q)| self.eq(p, q))
                        }
                        (CtNode::SameTy(l1, r1), CtNode::SameTy(l2, r2)) => {
                            self.eq(l1, l2) && self.eq(r1, r2)
                        }
                        _ => false,
                    };
                    if !ok {
                        return false;
                    }
                }
                // Recurse with structural_eq at the next depth so nested
                // binders get distinct canonical names.
                if ba2 == bb2 {
                    return true;
                }
                let ta = self.encode(ba2);
                let tb = self.encode(bb2);
                if self.cc.eq(ta, tb) {
                    return true;
                }
                self.structural_eq(ba2, bb2, depth + 1)
            }
            _ => false,
        }
    }

    /// Rewrites `ty` to the best representative of its equivalence class,
    /// recursing into sub-terms. "Best" prefers (in order): types free of
    /// banned alias variables, types free of associated-type projections,
    /// smaller types, earlier-created terms. The result is deterministic
    /// for a given sequence of assertions.
    pub fn resolve(&mut self, ty: TyId) -> TyId {
        self.carried.resolves += 1;
        self.resolve_at(ty, 0)
    }

    fn resolve_at(&mut self, ty: TyId, depth: usize) -> TyId {
        if depth > RESOLVE_DEPTH_LIMIT {
            return ty;
        }
        let best = self.class_best(ty);
        let node = match self.interner.node(best) {
            TyNode::Var(_) | TyNode::Int | TyNode::Bool => return best,
            TyNode::List(t) => TyNode::List(self.resolve_at(t, depth + 1)),
            TyNode::Fn(ps, r) => {
                let ps: Vec<TyId> = ps.iter().map(|&p| self.resolve_at(p, depth + 1)).collect();
                TyNode::Fn(ps.into(), self.resolve_at(r, depth + 1))
            }
            // Resolve inside the body, but do not rewrite the binders.
            TyNode::Forall {
                vars,
                constraints,
                body,
            } => TyNode::Forall {
                vars,
                constraints,
                body: self.resolve_at(body, depth + 1),
            },
            TyNode::Assoc {
                concept,
                concept_name,
                args,
                name,
            } => TyNode::Assoc {
                concept,
                concept_name,
                args: args.iter().map(|&a| self.resolve_at(a, depth + 1)).collect(),
                name,
            },
        };
        self.interner.mk(node)
    }

    /// All known members of `ty`'s equivalence class (excluding `ty`
    /// itself unless it was separately encoded), in creation order. Used by
    /// the checker to view a type as a function or universal type through
    /// declared equalities.
    pub fn class_members(&mut self, ty: TyId) -> Vec<TyId> {
        let term = self.encode(ty);
        let root = self.cc.find(term);
        // The maintained class list is O(class size); sort to recover the
        // creation order the old full-bank scan produced.
        let mut members: Vec<TermId> = self.cc.class_members(root).to_vec();
        members.sort_unstable();
        let mut seen: Vec<TyId> = Vec::new();
        for m in members {
            let cand = self.decoded[m.index()];
            if !seen.contains(&cand) {
                seen.push(cand);
            }
        }
        seen
    }

    /// Picks the best member of `ty`'s equivalence class (possibly `ty`
    /// itself), without recursing into sub-terms.
    ///
    /// The ordering matters for the translation's type preservation:
    /// banned alias variables lose to everything, projection-containing
    /// types lose to projection-free ones, and — among projection-free
    /// members — a *bare type variable* loses to a structured type (a
    /// class `{t, fn(int) -> int}` from a `t == fn(int) -> int` constraint
    /// must translate `t`'s uses to the function type, or elimination
    /// forms in the System F output would be stuck on `t`).
    fn class_best(&mut self, tid: TyId) -> TyId {
        let term = self.encode(tid);
        let root = self.cc.find(term);
        let key_of = |te: &Self, t: TyId, idx: usize| {
            (
                te.score_id(t),
                u32::from(te.interner.is_var(t)),
                te.interner.size(t),
                idx,
            )
        };
        let mut best_key = key_of(self, tid, term.index());
        let mut best = tid;
        let mut members: Vec<TermId> = self.cc.class_members(root).to_vec();
        members.sort_unstable();
        for m in members {
            let cand = self.decoded[m.index()];
            let key = key_of(self, cand, m.index());
            if key < best_key {
                best_key = key;
                best = cand;
            }
        }
        best
    }

    fn score_id(&self, tid: TyId) -> u32 {
        let banned = self
            .interner
            .free_vars(tid)
            .iter()
            .any(|v| self.banned.contains(v));
        if banned {
            2
        } else if self.interner.has_assoc(tid) {
            1
        } else {
            0
        }
    }

    // --- begin congruence encoding (gate: no format!/new string keys) ---

    fn op(&mut self, key: OpKey) -> Op {
        if let Some(&op) = self.ops.get(&key) {
            return op;
        }
        let op = Op(self.next_op);
        self.next_op += 1;
        self.ops.insert(key, op);
        op
    }

    /// Encodes a type into the congruence term bank: `TyId → TermId`,
    /// through the stamped cache.
    fn encode(&mut self, tid: TyId) -> TermId {
        let unions_now = self.cc.stats().unions;
        if let Some(&(term, stamp)) = self.term_cache.get(&tid) {
            if stamp == STAMP_FIRST_ORDER || stamp == unions_now {
                return term;
            }
        }
        let term = match self.interner.node(tid) {
            TyNode::Var(v) => {
                let op = self.op(OpKey::Var(v));
                self.cc.constant(op)
            }
            TyNode::Int => {
                let op = self.op(OpKey::Int);
                self.cc.constant(op)
            }
            TyNode::Bool => {
                let op = self.op(OpKey::Bool);
                self.cc.constant(op)
            }
            TyNode::List(t) => {
                let c = self.encode(t);
                let op = self.op(OpKey::List);
                self.cc.term(op, &[c])
            }
            TyNode::Fn(ps, r) => {
                let mut children: Vec<TermId> =
                    ps.iter().map(|&p| self.encode(p)).collect();
                children.push(self.encode(r));
                let op = self.op(OpKey::Fn(ps.len()));
                self.cc.term(op, &children)
            }
            TyNode::Assoc {
                concept, args, name, ..
            } => {
                let children: Vec<TermId> =
                    args.iter().map(|&a| self.encode(a)).collect();
                let op = self.op(OpKey::Assoc(concept, name));
                self.cc.term(op, &children)
            }
            TyNode::Forall { .. } => {
                let mut toks = Vec::new();
                self.canon_tokens(tid, &mut Vec::new(), &mut toks);
                let op = self.op(OpKey::Poly(toks.into_boxed_slice()));
                self.cc.constant(op)
            }
        };
        while self.decoded.len() < self.cc.len() {
            // Any newly created term (including children) decodes to the
            // type that created it; children were pushed by their own
            // recursive `encode` calls, so only `term` can be missing.
            self.decoded.push(tid);
        }
        // Stamp with the union count from *before* this encoding: if
        // encoding itself unioned classes, a `forall` spine rendered
        // mid-flight may already be stale, and the next query must
        // re-render — exactly what the un-cached implementation did.
        let stamp = if self.interner.is_first_order(tid) {
            STAMP_FIRST_ORDER
        } else {
            unions_now
        };
        self.term_cache.insert(tid, (term, stamp));
        term
    }

    /// Canonical token spine for universal types: binders become de Bruijn
    /// indices; maximal closed first-order sub-terms become their current
    /// class root (so congruent sub-terms render identically).
    fn canon_tokens(&mut self, tid: TyId, bound: &mut Vec<Symbol>, out: &mut Vec<PolyTok>) {
        let closed_first_order = self.interner.is_first_order(tid)
            && self
                .interner
                .free_vars(tid)
                .iter()
                .all(|v| !bound.contains(v));
        if closed_first_order {
            let term = self.encode(tid);
            let root = self.cc.find(term);
            out.push(PolyTok::Root(
                u32::try_from(root.index()).expect("term bank exceeds u32"),
            ));
            return;
        }
        let arity = |n: usize| u32::try_from(n).expect("arity exceeds u32");
        match self.interner.node(tid) {
            TyNode::Var(v) => match bound.iter().rposition(|b| *b == v) {
                Some(i) => out.push(PolyTok::Bound(arity(i))),
                None => out.push(PolyTok::Free(v)),
            },
            TyNode::Int => out.push(PolyTok::Int),
            TyNode::Bool => out.push(PolyTok::Bool),
            TyNode::List(t) => {
                out.push(PolyTok::ListOp);
                self.canon_tokens(t, bound, out);
            }
            TyNode::Fn(ps, r) => {
                out.push(PolyTok::FnOp(arity(ps.len())));
                for &p in ps.iter() {
                    self.canon_tokens(p, bound, out);
                }
                self.canon_tokens(r, bound, out);
            }
            TyNode::Assoc {
                concept, args, name, ..
            } => {
                out.push(PolyTok::AssocOp(concept, name, arity(args.len())));
                for &a in args.iter() {
                    self.canon_tokens(a, bound, out);
                }
            }
            TyNode::Forall {
                vars,
                constraints,
                body,
            } => {
                out.push(PolyTok::ForallOp(arity(vars.len()), arity(constraints.len())));
                let n = bound.len();
                bound.extend_from_slice(&vars);
                for &c in constraints.iter() {
                    match self.interner.constraint_node(c) {
                        CtNode::Model { concept, args, .. } => {
                            out.push(PolyTok::MdlOp(concept, arity(args.len())));
                            for &a in args.iter() {
                                self.canon_tokens(a, bound, out);
                            }
                        }
                        CtNode::SameTy(a, b) => {
                            out.push(PolyTok::SameTyOp);
                            self.canon_tokens(a, bound, out);
                            self.canon_tokens(b, bound, out);
                        }
                    }
                }
                self.canon_tokens(body, bound, out);
                bound.truncate(n);
            }
        }
    }

    // --- end congruence encoding ---
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rty::RTy;

    /// The engine's queries on trees, interned into its own arena.
    trait Trees {
        fn assert_rty(&mut self, a: &RTy, b: &RTy);
        fn eq_rty(&mut self, a: &RTy, b: &RTy) -> bool;
        fn resolve_rty(&mut self, a: &RTy) -> RTy;
        fn explain_rty(&mut self, a: &RTy, b: &RTy) -> Option<Vec<(RTy, RTy)>>;
    }

    impl Trees for TypeEq {
        fn assert_rty(&mut self, a: &RTy, b: &RTy) {
            let (a, b) = (self.interner.intern(a), self.interner.intern(b));
            self.assert_eq(a, b);
        }
        fn eq_rty(&mut self, a: &RTy, b: &RTy) -> bool {
            let (a, b) = (self.interner.intern(a), self.interner.intern(b));
            self.eq(a, b)
        }
        fn resolve_rty(&mut self, a: &RTy) -> RTy {
            let a = self.interner.intern(a);
            let r = self.resolve(a);
            self.interner.to_rty(r)
        }
        fn explain_rty(&mut self, a: &RTy, b: &RTy) -> Option<Vec<(RTy, RTy)>> {
            let (a, b) = (self.interner.intern(a), self.interner.intern(b));
            let chain = self.explain(a, b)?;
            let it = &self.interner;
            Some(chain.iter().map(|&(x, y)| (it.to_rty(x), it.to_rty(y))).collect())
        }
    }

    fn s(n: &str) -> Symbol {
        Symbol::intern(n)
    }
    fn v(n: &str) -> RTy {
        RTy::Var(s(n))
    }
    fn assoc(concept: u32, args: Vec<RTy>, name: &str) -> RTy {
        RTy::Assoc {
            concept: ConceptId(concept),
            concept_name: s("C"),
            args,
            name: s(name),
        }
    }

    #[test]
    fn syntactic_equality_is_free() {
        let mut te = TypeEq::new();
        assert!(te.eq_rty(&RTy::Int, &RTy::Int));
        assert!(!te.eq_rty(&RTy::Int, &RTy::Bool));
        assert!(te.eq_rty(&v("t"), &v("t")));
        assert!(!te.eq_rty(&v("t"), &v("u")));
    }

    #[test]
    fn asserted_equalities_hold() {
        let mut te = TypeEq::new();
        te.assert_rty(&v("t"), &RTy::Int);
        assert!(te.eq_rty(&v("t"), &RTy::Int));
        assert!(!te.eq_rty(&v("t"), &RTy::Bool));
    }

    #[test]
    fn congruence_through_constructors() {
        let mut te = TypeEq::new();
        te.assert_rty(&v("t"), &v("u"));
        assert!(te.eq_rty(&RTy::list(v("t")), &RTy::list(v("u"))));
        assert!(te.eq_rty(
            &RTy::func(vec![v("t")], RTy::Int),
            &RTy::func(vec![v("u")], RTy::Int)
        ));
        assert!(!te.eq_rty(
            &RTy::func(vec![v("t")], RTy::Int),
            &RTy::func(vec![v("u"), v("u")], RTy::Int)
        ));
    }

    #[test]
    fn assoc_projections_are_congruent_in_args() {
        // Iterator<I1>.elt == Iterator<I2>.elt follows from I1 == I2.
        let mut te = TypeEq::new();
        te.assert_rty(&v("I1"), &v("I2"));
        assert!(te.eq_rty(
            &assoc(0, vec![v("I1")], "elt"),
            &assoc(0, vec![v("I2")], "elt")
        ));
        // But distinct concepts or names stay distinct.
        assert!(!te.eq_rty(
            &assoc(0, vec![v("I1")], "elt"),
            &assoc(1, vec![v("I1")], "elt")
        ));
    }

    #[test]
    fn merge_example_same_type_constraint() {
        // The paper's merge: Iterator<I1>.elt = Iterator<I2>.elt asserted
        // directly, with I1 and I2 unrelated.
        let mut te = TypeEq::new();
        let e1 = assoc(0, vec![v("I1")], "elt");
        let e2 = assoc(0, vec![v("I2")], "elt");
        te.assert_rty(&e1, &e2);
        assert!(te.eq_rty(&e1, &e2));
        assert!(!te.eq_rty(&v("I1"), &v("I2")));
        assert!(te.eq_rty(&RTy::list(e1), &RTy::list(e2)));
    }

    #[test]
    fn transitivity_through_concrete_types() {
        let mut te = TypeEq::new();
        let e1 = assoc(0, vec![v("I")], "elt");
        te.assert_rty(&e1, &RTy::Int);
        te.assert_rty(&v("x"), &e1);
        assert!(te.eq_rty(&v("x"), &RTy::Int));
    }

    #[test]
    fn resolve_prefers_concrete_types() {
        let mut te = TypeEq::new();
        let e1 = assoc(0, vec![v("I")], "elt");
        te.assert_rty(&e1, &RTy::Int);
        assert_eq!(te.resolve_rty(&e1), RTy::Int);
        assert_eq!(te.resolve_rty(&RTy::list(e1)), RTy::list(RTy::Int));
    }

    #[test]
    fn resolve_prefers_fresh_var_over_projection() {
        let mut te = TypeEq::new();
        let proj = assoc(0, vec![v("I")], "elt");
        te.assert_rty(&RTy::Var(s("elt1")), &proj);
        assert_eq!(te.resolve_rty(&proj), v("elt1"));
    }

    #[test]
    fn resolve_picks_first_created_on_ties() {
        // Both elt1 and elt2 are plain vars in the same class; the earlier
        // encoded one wins — the paper's "elt1 was chosen".
        let mut te = TypeEq::new();
        let p1 = assoc(0, vec![v("J1")], "elt");
        let p2 = assoc(0, vec![v("J2")], "elt");
        te.assert_rty(&RTy::Var(s("elt1")), &p1);
        te.assert_rty(&RTy::Var(s("elt2")), &p2);
        te.assert_rty(&p1, &p2);
        assert_eq!(te.resolve_rty(&p1), v("elt1"));
        assert_eq!(te.resolve_rty(&p2), v("elt1"));
        assert_eq!(te.resolve_rty(&v("elt2")), v("elt1"));
    }

    #[test]
    fn banned_alias_vars_are_never_representatives() {
        let mut te = TypeEq::new();
        te.ban_representative(s("alias"));
        te.assert_rty(&v("alias"), &RTy::list(RTy::Int));
        assert_eq!(te.resolve_rty(&v("alias")), RTy::list(RTy::Int));
        assert!(te.eq_rty(&v("alias"), &RTy::list(RTy::Int)));
    }

    #[test]
    fn alpha_equivalence_of_foralls() {
        let mut te = TypeEq::new();
        let f1 = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("a")], v("a"))),
        };
        let f2 = RTy::Forall {
            vars: vec![s("b")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("b")], v("b"))),
        };
        assert!(te.eq_rty(&f1, &f2));
        let f3 = RTy::Forall {
            vars: vec![s("b")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("b")], RTy::Int)),
        };
        assert!(!te.eq_rty(&f1, &f3));
    }

    #[test]
    fn foralls_respect_leaf_equalities() {
        let mut te = TypeEq::new();
        te.assert_rty(&v("t"), &RTy::Int);
        let f1 = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("a")], v("t"))),
        };
        let f2 = RTy::Forall {
            vars: vec![s("b")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("b")], RTy::Int)),
        };
        assert!(te.eq_rty(&f1, &f2));
    }

    #[test]
    fn foralls_see_equalities_asserted_after_first_encoding() {
        // Regression for the stamped encoding cache: a `forall` whose
        // spine embeds a class root must be re-encoded after a union
        // changes that root, not served stale from the cache.
        let mut te = TypeEq::new();
        let f1 = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("a")], v("t"))),
        };
        let f2 = RTy::Forall {
            vars: vec![s("b")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("b")], RTy::Int)),
        };
        assert!(!te.eq_rty(&f1, &f2), "not equal before the assertion");
        te.assert_rty(&v("t"), &RTy::Int);
        assert!(te.eq_rty(&f1, &f2), "equal after the assertion");
    }

    #[test]
    fn clone_scopes_equalities() {
        let mut outer = TypeEq::new();
        outer.assert_rty(&v("t"), &RTy::Int);
        let mut inner = outer.clone();
        inner.assert_rty(&v("u"), &RTy::Bool);
        assert!(inner.eq_rty(&v("t"), &RTy::Int));
        assert!(inner.eq_rty(&v("u"), &RTy::Bool));
        assert!(outer.eq_rty(&v("t"), &RTy::Int));
        assert!(!outer.eq_rty(&v("u"), &RTy::Bool));
    }

    #[test]
    fn scope_clones_share_the_interner_arena() {
        let mut outer = TypeEq::new();
        outer.assert_rty(&v("t"), &RTy::Int);
        let inner = outer.clone();
        assert!(outer.interner().same_arena(&inner.interner()));
    }

    #[test]
    fn cyclic_constraints_terminate() {
        let mut te = TypeEq::new();
        te.assert_rty(&v("t"), &RTy::list(v("t")));
        assert!(te.eq_rty(&v("t"), &RTy::list(v("t"))));
        // resolve must not hang.
        let _ = te.resolve_rty(&v("t"));
    }

    #[test]
    fn explain_returns_none_for_unequal_types() {
        let mut te = TypeEq::new();
        te.assert_rty(&v("t"), &RTy::Int);
        assert_eq!(te.explain_rty(&v("t"), &RTy::Bool), None);
    }

    #[test]
    fn explain_is_empty_for_syntactic_equality() {
        let mut te = TypeEq::new();
        te.assert_rty(&v("t"), &RTy::Int);
        assert_eq!(te.explain_rty(&RTy::Int, &RTy::Int), Some(Vec::new()));
    }

    #[test]
    fn explain_chain_replays_to_a_valid_equality() {
        // x == Iterator<I>.elt and Iterator<I>.elt == int prove x == int;
        // an unrelated u == bool assertion must be minimized away, and the
        // returned chain must replay to the judged equality in a fresh
        // engine (the validity check).
        let mut te = TypeEq::new();
        let proj = assoc(0, vec![v("I")], "elt");
        te.assert_rty(&v("u"), &RTy::Bool);
        te.assert_rty(&proj, &RTy::Int);
        te.assert_rty(&v("x"), &proj);
        let chain = te.explain_rty(&v("x"), &RTy::Int).expect("equal");
        assert_eq!(chain.len(), 2);
        assert!(!chain.iter().any(|(l, _)| *l == v("u")));
        let mut replay = TypeEq::new();
        for (l, r) in &chain {
            replay.assert_rty(l, r);
        }
        assert!(replay.eq_rty(&v("x"), &RTy::Int));
        // Minimality: dropping any single step breaks the replay.
        for skip in 0..chain.len() {
            let mut partial = TypeEq::new();
            for (i, (l, r)) in chain.iter().enumerate() {
                if i != skip {
                    partial.assert_rty(l, r);
                }
            }
            assert!(!partial.eq_rty(&v("x"), &RTy::Int), "step {skip} was redundant");
        }
    }

    #[test]
    fn explain_covers_congruence_propagation() {
        // list t == list u follows from t == u purely by congruence: the
        // chain is the single asserted equation, and replaying it makes
        // the *derived* equality hold.
        let mut te = TypeEq::new();
        te.assert_rty(&v("t"), &v("u"));
        let (lt, lu) = (RTy::list(v("t")), RTy::list(v("u")));
        let chain = te.explain_rty(&lt, &lu).expect("equal");
        assert_eq!(chain, vec![(v("t"), v("u"))]);
        let mut replay = TypeEq::new();
        for (l, r) in &chain {
            replay.assert_rty(l, r);
        }
        assert!(replay.eq_rty(&lt, &lu));
    }

    #[test]
    fn tracer_records_assertions_and_unions_with_causes() {
        use telemetry::trace::{AttrValue, Event};
        let tracer = Tracer::enabled();
        let mut te = TypeEq::new();
        te.set_tracer(tracer.clone());
        te.assert_rty(&v("t"), &v("u"));
        // Creating list(t)/list(u) during a query unions them by
        // congruence; the event must be tagged as such.
        assert!(te.eq_rty(&RTy::list(v("t")), &RTy::list(v("u"))));
        let events = tracer.events();
        let names: Vec<&str> = events.iter().map(Event::name).collect();
        assert!(names.contains(&"assert_eq"), "{names:?}");
        let unions: Vec<&Event> = events.iter().filter(|e| e.name() == "cc_union").collect();
        assert!(unions.len() >= 2, "{events:?}");
        let cause = |e: &Event| e.attr("cause").and_then(AttrValue::as_str).map(str::to_owned);
        assert_eq!(cause(unions[0]).as_deref(), Some("asserted"));
        assert!(
            unions.iter().any(|e| cause(e).as_deref() == Some("congruence")),
            "{events:?}"
        );
        // Representatives decode back to real types.
        assert!(unions.iter().all(|e| e.attr("repr").is_some()));
        // Scope clones keep reporting to the same collector.
        let before = tracer.events().len();
        let mut scoped = te.clone();
        scoped.assert_rty(&v("p"), &v("q"));
        assert!(tracer.events().len() > before);
    }

    #[test]
    fn nested_foralls_alpha() {
        let mut te = TypeEq::new();
        let mk = |outer: &str, inner: &str| RTy::Forall {
            vars: vec![s(outer)],
            constraints: vec![],
            body: Box::new(RTy::Forall {
                vars: vec![s(inner)],
                constraints: vec![],
                body: Box::new(RTy::func(vec![RTy::Var(s(outer))], RTy::Var(s(inner)))),
            }),
        };
        assert!(te.eq_rty(&mk("a", "b"), &mk("x", "y")));
        // Swapped uses are different.
        let swapped = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(RTy::Forall {
                vars: vec![s("b")],
                constraints: vec![],
                body: Box::new(RTy::func(vec![v("b")], v("a"))),
            }),
        };
        assert!(!te.eq_rty(&mk("a", "b"), &swapped));
    }
}
