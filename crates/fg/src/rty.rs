//! Resolved F_G types.
//!
//! The surface syntax refers to concepts by name; because concepts are
//! *expressions* with lexical scope (unlike Haskell's global type classes),
//! the same name may denote different concepts at different program points.
//! The checker therefore resolves every concept reference to a stable
//! [`ConceptId`] — an index into the checker's append-only concept table.
//!
//! The checker builds every type as a [`TyId`] handle of a hash-consing
//! [`TyInterner`] arena. The tree form [`RTy`] is what leaves the checker
//! (diagnostics, traces, a program's type) and what the direct
//! interpreter evaluates with; its [`subst`] is the reference the
//! interner's substitution is tested against.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use system_f::Symbol;
use telemetry::limits::Budget;

/// A resolved reference to a concept declaration.
///
/// Ids index the checker's append-only concept table; two references are
/// the same concept exactly when their ids are equal, regardless of
/// shadowing in the surface program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConceptId(pub u32);

/// A resolved type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RTy {
    /// A type variable.
    Var(Symbol),
    /// `int`.
    Int,
    /// `bool`.
    Bool,
    /// `list τ`.
    List(Box<RTy>),
    /// `fn(τ̄) -> τ`.
    Fn(Vec<RTy>, Box<RTy>),
    /// `forall t̄ where …. τ`.
    Forall {
        /// Bound type variables.
        vars: Vec<Symbol>,
        /// Resolved `where` clause.
        constraints: Vec<RConstraint>,
        /// Body.
        body: Box<RTy>,
    },
    /// An associated-type projection `C<τ̄>.s`.
    Assoc {
        /// The resolved concept.
        concept: ConceptId,
        /// The concept's (source) name, kept for display only.
        concept_name: Symbol,
        /// Type arguments.
        args: Vec<RTy>,
        /// The associated type's name.
        name: Symbol,
    },
}

/// A resolved `where`-clause constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RConstraint {
    /// A concept requirement `C<τ̄>`.
    Model {
        /// The resolved concept.
        concept: ConceptId,
        /// The concept's (source) name, for display.
        concept_name: Symbol,
        /// Type arguments.
        args: Vec<RTy>,
    },
    /// A same-type constraint `τ == τ′`.
    SameTy(RTy, RTy),
}

impl RTy {
    /// Convenience constructor for `fn(params…) -> ret`.
    pub fn func(params: Vec<RTy>, ret: RTy) -> RTy {
        RTy::Fn(params, Box::new(ret))
    }

    /// Convenience constructor for `list τ`.
    pub fn list(elem: RTy) -> RTy {
        RTy::List(Box::new(elem))
    }

    /// Collects the free type variables (binders in `Forall` excluded).
    pub fn free_vars_into(&self, bound: &mut Vec<Symbol>, out: &mut Vec<Symbol>) {
        match self {
            RTy::Var(v) => {
                if !bound.contains(v) && !out.contains(v) {
                    out.push(*v);
                }
            }
            RTy::Int | RTy::Bool => {}
            RTy::List(t) => t.free_vars_into(bound, out),
            RTy::Fn(ps, r) => {
                for p in ps {
                    p.free_vars_into(bound, out);
                }
                r.free_vars_into(bound, out);
            }
            RTy::Forall {
                vars,
                constraints,
                body,
            } => {
                let n = bound.len();
                bound.extend_from_slice(vars);
                for c in constraints {
                    match c {
                        RConstraint::Model { args, .. } => {
                            for a in args {
                                a.free_vars_into(bound, out);
                            }
                        }
                        RConstraint::SameTy(a, b) => {
                            a.free_vars_into(bound, out);
                            b.free_vars_into(bound, out);
                        }
                    }
                }
                body.free_vars_into(bound, out);
                bound.truncate(n);
            }
            RTy::Assoc { args, .. } => {
                for a in args {
                    a.free_vars_into(bound, out);
                }
            }
        }
    }

    /// The free type variables, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.free_vars_into(&mut Vec::new(), &mut out);
        out
    }
}

/// Simultaneous capture-avoiding substitution of type variables.
pub fn subst(ty: &RTy, map: &HashMap<Symbol, RTy>) -> RTy {
    if map.is_empty() {
        return ty.clone();
    }
    match ty {
        RTy::Var(v) => map.get(v).cloned().unwrap_or_else(|| ty.clone()),
        RTy::Int | RTy::Bool => ty.clone(),
        RTy::List(t) => RTy::List(Box::new(subst(t, map))),
        RTy::Fn(ps, r) => RTy::Fn(
            ps.iter().map(|p| subst(p, map)).collect(),
            Box::new(subst(r, map)),
        ),
        RTy::Forall {
            vars,
            constraints,
            body,
        } => {
            // A node with no free variable in the map's domain is a
            // fixpoint, left as it is (binder names included), exactly
            // as the interner's `subst` leaves it.
            let fvs = ty.free_vars();
            if !fvs.iter().any(|v| map.contains_key(v)) {
                return ty.clone();
            }
            let mut inner: HashMap<Symbol, RTy> = map
                .iter()
                .filter(|(k, _)| !vars.contains(k))
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            let range_fvs: Vec<Symbol> = inner.values().flat_map(RTy::free_vars).collect();
            let in_scope = |s| fvs.contains(&s);
            let new_vars = Symbol::rename_binders(vars, |s| range_fvs.contains(&s), in_scope);
            for (&v, &n) in vars.iter().zip(&new_vars).filter(|(v, n)| v != n) {
                inner.insert(v, RTy::Var(n));
            }
            RTy::Forall {
                vars: new_vars,
                constraints: constraints.iter().map(|c| subst_constraint(c, &inner)).collect(),
                body: Box::new(subst(body, &inner)),
            }
        }
        RTy::Assoc {
            concept,
            concept_name,
            args,
            name,
        } => RTy::Assoc {
            concept: *concept,
            concept_name: *concept_name,
            args: args.iter().map(|a| subst(a, map)).collect(),
            name: *name,
        },
    }
}

/// Substitution over a constraint.
pub fn subst_constraint(c: &RConstraint, map: &HashMap<Symbol, RTy>) -> RConstraint {
    match c {
        RConstraint::Model {
            concept,
            concept_name,
            args,
        } => RConstraint::Model {
            concept: *concept,
            concept_name: *concept_name,
            args: args.iter().map(|a| subst(a, map)).collect(),
        },
        RConstraint::SameTy(a, b) => RConstraint::SameTy(subst(a, map), subst(b, map)),
    }
}

/// A handle to an interned type node in a [`TyInterner`] arena.
///
/// Two handles from the same interner are equal exactly when the types
/// they denote are structurally equal (`RTy::eq`), so comparing `TyId`s
/// is an O(1) replacement for deep tree comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TyId(u32);

impl TyId {
    /// The arena index of this handle.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A handle to an interned constraint node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtId(u32);

/// A handle to an interned substitution (a sorted `Symbol → TyId` map).
///
/// Equal ids denote equal maps, so `(TyId, SubstId)` is an exact — not
/// fingerprinted — key for the substitution cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubstId(u32);

/// One interned type node: children are handles, not boxes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TyNode {
    /// A type variable.
    Var(Symbol),
    /// `int`.
    Int,
    /// `bool`.
    Bool,
    /// `list τ`.
    List(TyId),
    /// `fn(τ̄) -> τ`.
    Fn(Rc<[TyId]>, TyId),
    /// `forall t̄ where …. τ`.
    Forall {
        /// Bound type variables.
        vars: Rc<[Symbol]>,
        /// Interned `where` clause.
        constraints: Rc<[CtId]>,
        /// Body.
        body: TyId,
    },
    /// An associated-type projection `C<τ̄>.s`.
    Assoc {
        /// The resolved concept.
        concept: ConceptId,
        /// The concept's (source) name, kept for display only — but part
        /// of the hash-cons key, so `TyId` equality stays exactly
        /// `RTy::eq` (which compares the name too).
        concept_name: Symbol,
        /// Type arguments.
        args: Rc<[TyId]>,
        /// The associated type's name.
        name: Symbol,
    },
}

/// One interned constraint node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CtNode {
    /// A concept requirement `C<τ̄>`.
    Model {
        /// The resolved concept.
        concept: ConceptId,
        /// The concept's (source) name, for display.
        concept_name: Symbol,
        /// Type arguments.
        args: Rc<[TyId]>,
    },
    /// A same-type constraint `τ == τ′`.
    SameTy(TyId, TyId),
}

/// Metadata precomputed bottom-up when a node is interned, so the
/// tree-walking queries (`size`, `is_first_order`, `has_assoc`,
/// `free_vars`) become O(1) field reads.
#[derive(Debug, Clone)]
struct TyMeta {
    size: u32,
    first_order: bool,
    has_assoc: bool,
    /// Free variables in first-occurrence order — the same order
    /// [`RTy::free_vars`] produces.
    free_vars: Rc<[Symbol]>,
}

/// Counters for the interner, reported as the `intern.*` metrics group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Hash-cons lookups that found an existing node.
    pub hits: u64,
    /// Hash-cons lookups that allocated a fresh node.
    pub misses: u64,
    /// Substitution-cache hits.
    pub subst_hits: u64,
    /// Substitution-cache misses (substitutions actually computed).
    pub subst_misses: u64,
    /// Current number of type nodes in the arena.
    pub arena_types: u64,
    /// Current number of constraint nodes in the arena.
    pub arena_constraints: u64,
}

impl InternStats {
    /// The counters accumulated since `base` was captured from the same
    /// arena; the arena sizes stay gauges of the arena now.
    pub fn delta_since(&self, base: &InternStats) -> InternStats {
        InternStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            subst_hits: self.subst_hits.saturating_sub(base.subst_hits),
            subst_misses: self.subst_misses.saturating_sub(base.subst_misses),
            ..*self
        }
    }
}

/// A point in an interner's history to roll back to: see
/// [`TyInterner::mark`].
#[derive(Debug, Clone)]
pub struct InternMark {
    nodes: usize,
    cnodes: usize,
    substs: usize,
    subst_cached: usize,
    csubst_cached: usize,
    stats: InternStats,
}

#[derive(Debug, Default)]
struct Store {
    nodes: Vec<TyNode>,
    meta: Vec<TyMeta>,
    hashcons: HashMap<TyNode, TyId>,
    cnodes: Vec<CtNode>,
    chashcons: HashMap<CtNode, CtId>,
    substs: Vec<Rc<[(Symbol, TyId)]>>,
    subst_ids: HashMap<Rc<[(Symbol, TyId)]>, SubstId>,
    subst_cache: HashMap<(TyId, SubstId), TyId>,
    csubst_cache: HashMap<(CtId, SubstId), CtId>,
    /// The keys of `subst_cache` and `csubst_cache` in insertion order,
    /// so a rollback removes exactly the entries added since a mark.
    subst_cached: Vec<(TyId, SubstId)>,
    csubst_cached: Vec<(CtId, SubstId)>,
    stats: InternStats,
    /// Charged one cc-term per fresh node; a private unlimited budget
    /// until [`TyInterner::set_budget`].
    budget: Arc<Budget>,
}

impl Store {
    fn mk(&mut self, node: TyNode) -> TyId {
        if let Some(&id) = self.hashcons.get(&node) {
            self.stats.hits += 1;
            return id;
        }
        self.stats.misses += 1;
        // Arena growth is resource-governed: hash-consing must not be a
        // way to allocate unbounded term graphs past the PR-3 caps, so
        // every fresh node charges the same meter as a congruence term.
        // The charge is sticky inside the budget; callers poll `ok()`.
        let _ = self.budget.charge_cc_term();
        let meta = self.meta_for(&node);
        let id = TyId(u32::try_from(self.nodes.len()).expect("interner arena overflow"));
        self.nodes.push(node.clone());
        self.meta.push(meta);
        self.hashcons.insert(node, id);
        self.stats.arena_types = self.nodes.len() as u64;
        id
    }

    fn mkc(&mut self, node: CtNode) -> CtId {
        if let Some(&id) = self.chashcons.get(&node) {
            self.stats.hits += 1;
            return id;
        }
        self.stats.misses += 1;
        let _ = self.budget.charge_cc_term();
        let id = CtId(u32::try_from(self.cnodes.len()).expect("interner arena overflow"));
        self.cnodes.push(node.clone());
        self.chashcons.insert(node, id);
        self.stats.arena_constraints = self.cnodes.len() as u64;
        id
    }

    /// Bottom-up metadata: children are already interned, so their
    /// metadata is a field read.
    fn meta_for(&self, node: &TyNode) -> TyMeta {
        let mut fvs: Vec<Symbol> = Vec::new();
        let push_fvs = |fvs: &mut Vec<Symbol>, child: TyId, meta: &[TyMeta]| {
            for v in meta[child.index()].free_vars.iter() {
                if !fvs.contains(v) {
                    fvs.push(*v);
                }
            }
        };
        match node {
            TyNode::Var(v) => TyMeta {
                size: 1,
                first_order: true,
                has_assoc: false,
                free_vars: Rc::from(vec![*v]),
            },
            TyNode::Int | TyNode::Bool => TyMeta {
                size: 1,
                first_order: true,
                has_assoc: false,
                free_vars: Rc::from(Vec::new()),
            },
            TyNode::List(t) => {
                let m = &self.meta[t.index()];
                TyMeta {
                    size: 1 + m.size,
                    first_order: m.first_order,
                    has_assoc: m.has_assoc,
                    free_vars: Rc::clone(&m.free_vars),
                }
            }
            TyNode::Fn(ps, r) => {
                let mut size = 1u32;
                let mut first_order = true;
                let mut has_assoc = false;
                for &p in ps.iter().chain(std::iter::once(r)) {
                    let m = &self.meta[p.index()];
                    size = size.saturating_add(m.size);
                    first_order &= m.first_order;
                    has_assoc |= m.has_assoc;
                }
                for &p in ps.iter() {
                    push_fvs(&mut fvs, p, &self.meta);
                }
                push_fvs(&mut fvs, *r, &self.meta);
                TyMeta {
                    size,
                    first_order,
                    has_assoc,
                    free_vars: Rc::from(fvs),
                }
            }
            TyNode::Forall {
                vars,
                constraints,
                body,
            } => {
                let mut size = 1u32;
                let mut has_assoc = false;
                // Constraints first, then the body: the same traversal
                // order as `RTy::free_vars_into`, so first-occurrence
                // order matches the tree implementation exactly.
                for &c in constraints.iter() {
                    match &self.cnodes[c.0 as usize] {
                        CtNode::Model { args, .. } => {
                            size = size.saturating_add(1);
                            for &a in args.iter() {
                                let m = &self.meta[a.index()];
                                size = size.saturating_add(m.size);
                                has_assoc |= m.has_assoc;
                                push_fvs(&mut fvs, a, &self.meta);
                            }
                        }
                        CtNode::SameTy(a, b) => {
                            size = size.saturating_add(1);
                            for &t in [a, b] {
                                let m = &self.meta[t.index()];
                                size = size.saturating_add(m.size);
                                has_assoc |= m.has_assoc;
                                push_fvs(&mut fvs, t, &self.meta);
                            }
                        }
                    }
                }
                let bm = &self.meta[body.index()];
                size = size.saturating_add(bm.size);
                has_assoc |= bm.has_assoc;
                push_fvs(&mut fvs, *body, &self.meta);
                fvs.retain(|v| !vars.contains(v));
                TyMeta {
                    size,
                    first_order: false,
                    has_assoc,
                    free_vars: Rc::from(fvs),
                }
            }
            TyNode::Assoc { args, .. } => {
                let mut size = 1u32;
                let mut first_order = true;
                for &a in args.iter() {
                    let m = &self.meta[a.index()];
                    size = size.saturating_add(m.size);
                    first_order &= m.first_order;
                    push_fvs(&mut fvs, a, &self.meta);
                }
                TyMeta {
                    size,
                    first_order,
                    has_assoc: true,
                    free_vars: Rc::from(fvs),
                }
            }
        }
    }

    fn intern(&mut self, ty: &RTy) -> TyId {
        let node = match ty {
            RTy::Var(v) => TyNode::Var(*v),
            RTy::Int => TyNode::Int,
            RTy::Bool => TyNode::Bool,
            RTy::List(t) => TyNode::List(self.intern(t)),
            RTy::Fn(ps, r) => {
                let ps: Rc<[TyId]> = ps.iter().map(|p| self.intern(p)).collect();
                let r = self.intern(r);
                TyNode::Fn(ps, r)
            }
            RTy::Forall {
                vars,
                constraints,
                body,
            } => {
                let cs: Rc<[CtId]> = constraints.iter().map(|c| self.intern_ct(c)).collect();
                let body = self.intern(body);
                TyNode::Forall {
                    vars: Rc::from(vars.as_slice()),
                    constraints: cs,
                    body,
                }
            }
            RTy::Assoc {
                concept,
                concept_name,
                args,
                name,
            } => {
                let args: Rc<[TyId]> = args.iter().map(|a| self.intern(a)).collect();
                TyNode::Assoc {
                    concept: *concept,
                    concept_name: *concept_name,
                    args,
                    name: *name,
                }
            }
        };
        self.mk(node)
    }

    fn intern_ct(&mut self, c: &RConstraint) -> CtId {
        let node = match c {
            RConstraint::Model {
                concept,
                concept_name,
                args,
            } => {
                let args: Rc<[TyId]> = args.iter().map(|a| self.intern(a)).collect();
                CtNode::Model {
                    concept: *concept,
                    concept_name: *concept_name,
                    args,
                }
            }
            RConstraint::SameTy(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                CtNode::SameTy(a, b)
            }
        };
        self.mkc(node)
    }

    fn to_rty(&self, id: TyId) -> RTy {
        match &self.nodes[id.index()] {
            TyNode::Var(v) => RTy::Var(*v),
            TyNode::Int => RTy::Int,
            TyNode::Bool => RTy::Bool,
            TyNode::List(t) => RTy::List(Box::new(self.to_rty(*t))),
            TyNode::Fn(ps, r) => RTy::Fn(
                ps.iter().map(|p| self.to_rty(*p)).collect(),
                Box::new(self.to_rty(*r)),
            ),
            TyNode::Forall {
                vars,
                constraints,
                body,
            } => RTy::Forall {
                vars: vars.to_vec(),
                constraints: constraints.iter().map(|c| self.to_rconstraint(*c)).collect(),
                body: Box::new(self.to_rty(*body)),
            },
            TyNode::Assoc {
                concept,
                concept_name,
                args,
                name,
            } => RTy::Assoc {
                concept: *concept,
                concept_name: *concept_name,
                args: args.iter().map(|a| self.to_rty(*a)).collect(),
                name: *name,
            },
        }
    }

    fn to_rconstraint(&self, id: CtId) -> RConstraint {
        match &self.cnodes[id.0 as usize] {
            CtNode::Model {
                concept,
                concept_name,
                args,
            } => RConstraint::Model {
                concept: *concept,
                concept_name: *concept_name,
                args: args.iter().map(|a| self.to_rty(*a)).collect(),
            },
            CtNode::SameTy(a, b) => {
                RConstraint::SameTy(self.to_rty(*a), self.to_rty(*b))
            }
        }
    }

    fn subst_id(&mut self, map: &[(Symbol, TyId)]) -> SubstId {
        let mut sorted: Vec<(Symbol, TyId)> = map.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let key: Rc<[(Symbol, TyId)]> = Rc::from(sorted);
        if let Some(&id) = self.subst_ids.get(&key) {
            return id;
        }
        let id = SubstId(u32::try_from(self.substs.len()).expect("interner arena overflow"));
        self.substs.push(Rc::clone(&key));
        self.subst_ids.insert(key, id);
        id
    }

    fn subst_lookup(&self, sid: SubstId, v: Symbol) -> Option<TyId> {
        let map = &self.substs[sid.0 as usize];
        map.binary_search_by_key(&v, |&(k, _)| k)
            .ok()
            .map(|i| map[i].1)
    }

    fn subst(&mut self, id: TyId, sid: SubstId) -> TyId {
        if self.substs[sid.0 as usize].is_empty() {
            return id;
        }
        // A node with no free variable in the map's domain is a fixpoint;
        // this also keeps the cache small for ground types.
        {
            let fvs = &self.meta[id.index()].free_vars;
            let map = &self.substs[sid.0 as usize];
            if !fvs
                .iter()
                .any(|v| map.binary_search_by_key(v, |&(k, _)| k).is_ok())
            {
                return id;
            }
        }
        if let Some(&out) = self.subst_cache.get(&(id, sid)) {
            self.stats.subst_hits += 1;
            return out;
        }
        self.stats.subst_misses += 1;
        let out = match self.nodes[id.index()].clone() {
            TyNode::Var(v) => self.subst_lookup(sid, v).unwrap_or(id),
            TyNode::Int | TyNode::Bool => id,
            TyNode::List(t) => {
                let t = self.subst(t, sid);
                self.mk(TyNode::List(t))
            }
            TyNode::Fn(ps, r) => {
                let ps: Rc<[TyId]> = ps.iter().map(|&p| self.subst(p, sid)).collect();
                let r = self.subst(r, sid);
                self.mk(TyNode::Fn(ps, r))
            }
            TyNode::Forall {
                vars,
                constraints,
                body,
            } => {
                // The same capture-avoiding discipline as the tree-walking
                // `subst`: drop shadowed keys, then rename any binder that
                // collides with a free variable of the (restricted) range
                // to the name the tree walk picks.
                let mut inner: Vec<(Symbol, TyId)> = self.substs[sid.0 as usize]
                    .iter()
                    .filter(|(k, _)| !vars.contains(k))
                    .copied()
                    .collect();
                let meta = &self.meta;
                let range_fvs: Vec<Symbol> = inner
                    .iter()
                    .flat_map(|&(_, v)| meta[v.index()].free_vars.iter().copied())
                    .collect();
                let in_scope = |s| self.meta[id.index()].free_vars.contains(&s);
                let new_vars = Symbol::rename_binders(&vars, |s| range_fvs.contains(&s), in_scope);
                for (&v, &n) in vars.iter().zip(&new_vars).filter(|(v, n)| v != n) {
                    let var = self.mk(TyNode::Var(n));
                    inner.push((v, var));
                }
                let inner_sid = self.subst_id(&inner);
                let cs: Rc<[CtId]> = constraints
                    .iter()
                    .map(|&c| self.subst_ct(c, inner_sid))
                    .collect();
                let body = self.subst(body, inner_sid);
                self.mk(TyNode::Forall {
                    vars: Rc::from(new_vars),
                    constraints: cs,
                    body,
                })
            }
            TyNode::Assoc {
                concept,
                concept_name,
                args,
                name,
            } => {
                let args: Rc<[TyId]> = args.iter().map(|&a| self.subst(a, sid)).collect();
                self.mk(TyNode::Assoc {
                    concept,
                    concept_name,
                    args,
                    name,
                })
            }
        };
        self.subst_cache.insert((id, sid), out);
        self.subst_cached.push((id, sid));
        out
    }

    fn subst_ct(&mut self, id: CtId, sid: SubstId) -> CtId {
        if let Some(&out) = self.csubst_cache.get(&(id, sid)) {
            self.stats.subst_hits += 1;
            return out;
        }
        self.stats.subst_misses += 1;
        let out = match self.cnodes[id.0 as usize].clone() {
            CtNode::Model {
                concept,
                concept_name,
                args,
            } => {
                let args: Rc<[TyId]> = args.iter().map(|&a| self.subst(a, sid)).collect();
                self.mkc(CtNode::Model {
                    concept,
                    concept_name,
                    args,
                })
            }
            CtNode::SameTy(a, b) => {
                let a = self.subst(a, sid);
                let b = self.subst(b, sid);
                self.mkc(CtNode::SameTy(a, b))
            }
        };
        self.csubst_cache.insert((id, sid), out);
        self.csubst_cached.push((id, sid));
        out
    }
}

/// A hash-consing interner for [`RTy`]: an append-only arena of immutable
/// nodes addressed by [`TyId`] handles.
///
/// Structurally equal types always intern to the same handle, so `TyId`
/// equality is exact `RTy` equality at pointer-comparison cost, and the
/// structural hash of a node is computed once at interning time (child
/// hashes are just handle hashes). `size`/`is_first_order`/`has_assoc`/
/// `free_vars` are precomputed bottom-up and become O(1) reads.
///
/// Clones share the same arena (`Rc`), which is what lets every scope
/// clone of the checker's equality engine keep its `TyId`s stable. The
/// arena is deliberately `!Send`: a checker and its engines live on one
/// thread (the checker is built on the thread that runs it).
#[derive(Debug, Clone, Default)]
pub struct TyInterner(Rc<RefCell<Store>>);

impl TyInterner {
    /// A fresh, empty interner.
    pub fn new() -> TyInterner {
        TyInterner::default()
    }

    /// Returns `true` if the two interners share one arena.
    pub fn same_arena(&self, other: &TyInterner) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    /// Interns a type, returning its canonical handle.
    pub fn intern(&self, ty: &RTy) -> TyId {
        self.0.borrow_mut().intern(ty)
    }

    /// Reconstructs the tree form of `id`.
    pub fn to_rty(&self, id: TyId) -> RTy {
        self.0.borrow().to_rty(id)
    }

    /// Reconstructs the tree form of a constraint handle.
    pub fn to_rconstraint(&self, id: CtId) -> RConstraint {
        self.0.borrow().to_rconstraint(id)
    }

    /// The interned node for `id`. Child lists are shared slices, so
    /// reading a node copies no list.
    pub fn node(&self, id: TyId) -> TyNode {
        self.0.borrow().nodes[id.index()].clone()
    }

    /// The interned constraint node for `id` (child lists shared).
    pub fn constraint_node(&self, id: CtId) -> CtNode {
        self.0.borrow().cnodes[id.0 as usize].clone()
    }

    /// Interns `node`, whose children are handles of this arena.
    pub fn mk(&self, node: TyNode) -> TyId {
        self.0.borrow_mut().mk(node)
    }

    /// Interns a constraint node.
    pub fn mk_constraint(&self, node: CtNode) -> CtId {
        self.0.borrow_mut().mkc(node)
    }

    /// The type variable `v`.
    pub fn var(&self, v: Symbol) -> TyId {
        self.mk(TyNode::Var(v))
    }

    /// `int`.
    pub fn int(&self) -> TyId {
        self.mk(TyNode::Int)
    }

    /// `bool`.
    pub fn bool(&self) -> TyId {
        self.mk(TyNode::Bool)
    }

    /// `list elem`.
    pub fn list(&self, elem: TyId) -> TyId {
        self.mk(TyNode::List(elem))
    }

    /// `fn(params…) -> ret`.
    pub fn func(&self, params: &[TyId], ret: TyId) -> TyId {
        self.mk(TyNode::Fn(Rc::from(params), ret))
    }

    /// The projection `concept<args>.name`.
    pub fn assoc(&self, concept: ConceptId, concept_name: Symbol, args: &[TyId], name: Symbol) -> TyId {
        self.mk(TyNode::Assoc {
            concept,
            concept_name,
            args: Rc::from(args),
            name,
        })
    }

    /// Whether `id` is a type variable.
    pub fn is_var(&self, id: TyId) -> bool {
        matches!(self.0.borrow().nodes[id.index()], TyNode::Var(_))
    }

    /// O(1): the node count of `id`, counting one node per constraint.
    pub fn size(&self, id: TyId) -> usize {
        self.0.borrow().meta[id.index()].size as usize
    }

    /// O(1): whether `id` is `Forall`-free, the first-order fragment
    /// congruence closure handles natively.
    pub fn is_first_order(&self, id: TyId) -> bool {
        self.0.borrow().meta[id.index()].first_order
    }

    /// O(1): whether `id` contains an associated-type projection.
    pub fn has_assoc(&self, id: TyId) -> bool {
        self.0.borrow().meta[id.index()].has_assoc
    }

    /// The free variables of `id` in first-occurrence order (shared
    /// slice; the same list as [`RTy::free_vars`] of its tree).
    pub fn free_vars(&self, id: TyId) -> Rc<[Symbol]> {
        Rc::clone(&self.0.borrow().meta[id.index()].free_vars)
    }

    /// Interns a substitution map for use with [`TyInterner::subst`].
    pub fn subst_id(&self, map: &[(Symbol, TyId)]) -> SubstId {
        self.0.borrow_mut().subst_id(map)
    }

    /// Capture-avoiding substitution over handles, memoized per
    /// `(TyId, SubstId)` pair. The result is exactly the tree-walking
    /// [`subst`]'s, binder names included: both leave a node none of whose
    /// free variables the map touches as it is, and both rename a binder
    /// that would capture to the same fresh name.
    pub fn subst(&self, id: TyId, sid: SubstId) -> TyId {
        self.0.borrow_mut().subst(id, sid)
    }

    /// [`TyInterner::subst`] over a constraint.
    pub fn subst_constraint(&self, id: CtId, sid: SubstId) -> CtId {
        self.0.borrow_mut().subst_ct(id, sid)
    }

    /// Number of interned type nodes.
    pub fn len(&self) -> usize {
        self.0.borrow().nodes.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().nodes.is_empty()
    }

    /// Counter snapshot for the `intern.*` metrics group.
    pub fn stats(&self) -> InternStats {
        self.0.borrow().stats
    }

    /// The arena's current extent and counters, for [`TyInterner::truncate`].
    pub fn mark(&self) -> InternMark {
        let store = self.0.borrow();
        InternMark {
            nodes: store.nodes.len(),
            cnodes: store.cnodes.len(),
            substs: store.substs.len(),
            subst_cached: store.subst_cached.len(),
            csubst_cached: store.csubst_cached.len(),
            stats: store.stats,
        }
    }

    /// Rolls the arena back to `mark`: forgets every type, constraint,
    /// substitution and cached substitution interned since, restores the
    /// counters, and detaches the budget. Handles interned since the mark
    /// dangle afterwards; handles from before it stay valid. A checked
    /// prefix's arena is rolled back after each body, so it does not grow
    /// with the number of bodies checked against it.
    pub fn truncate(&self, mark: &InternMark) {
        let mut store = self.0.borrow_mut();
        if mark.nodes == 0 && mark.cnodes == 0 && mark.substs == 0 {
            *store = Store::default();
            return;
        }
        let Store {
            nodes,
            meta,
            hashcons,
            cnodes,
            chashcons,
            substs,
            subst_ids,
            subst_cache,
            csubst_cache,
            subst_cached,
            csubst_cached,
            stats,
            budget,
        } = &mut *store;
        for key in subst_cached.drain(mark.subst_cached..) {
            subst_cache.remove(&key);
        }
        for key in csubst_cached.drain(mark.csubst_cached..) {
            csubst_cache.remove(&key);
        }
        for key in substs.drain(mark.substs..) {
            subst_ids.remove(&key);
        }
        for node in cnodes.drain(mark.cnodes..) {
            chashcons.remove(&node);
        }
        for node in nodes.drain(mark.nodes..) {
            hashcons.remove(&node);
        }
        meta.truncate(mark.nodes);
        *stats = mark.stats;
        *budget = Arc::default();
    }

    /// Charges all *future* arena growth against `budget`'s max-terms
    /// meter (one unit per fresh node, exactly like a congruence term).
    pub fn set_budget(&self, budget: Arc<Budget>) {
        self.0.borrow_mut().budget = budget;
    }

    /// Runs `f` and then rolls the arena back to where it was, so the
    /// types `f` interns, the counters it moves and the cc-term charges
    /// it makes all vanish. Handles interned inside `f` dangle
    /// afterwards.
    pub(crate) fn scratch<R>(&self, f: impl FnOnce() -> R) -> R {
        let mark = self.mark();
        let budget = std::mem::take(&mut self.0.borrow_mut().budget);
        let out = f();
        self.truncate(&mark);
        self.0.borrow_mut().budget = budget;
        out
    }
}

impl fmt::Display for RTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RTy::Var(v) => write!(f, "{v}"),
            RTy::Int => write!(f, "int"),
            RTy::Bool => write!(f, "bool"),
            RTy::List(t) => {
                if matches!(**t, RTy::Var(_) | RTy::Int | RTy::Bool) {
                    write!(f, "list {t}")
                } else {
                    write!(f, "list ({t})")
                }
            }
            RTy::Fn(ps, r) => {
                write!(f, "fn(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") -> {r}")
            }
            RTy::Forall {
                vars,
                constraints,
                body,
            } => {
                write!(f, "forall ")?;
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                if !constraints.is_empty() {
                    write!(f, " where ")?;
                    for (i, c) in constraints.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c}")?;
                    }
                }
                write!(f, ". {body}")
            }
            RTy::Assoc {
                concept_name,
                args,
                name,
                ..
            } => {
                write!(f, "{concept_name}<")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ">.{name}")
            }
        }
    }
}

impl fmt::Display for RConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RConstraint::Model {
                concept_name, args, ..
            } => {
                write!(f, "{concept_name}<")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ">")
            }
            RConstraint::SameTy(a, b) => write!(f, "{a} == {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }
    fn v(name: &str) -> RTy {
        RTy::Var(s(name))
    }
    fn assoc(args: Vec<RTy>) -> RTy {
        RTy::Assoc {
            concept: ConceptId(0),
            concept_name: s("Iterator"),
            args,
            name: s("elt"),
        }
    }

    #[test]
    fn first_order_classification() {
        let it = TyInterner::new();
        assert!(it.is_first_order(it.intern(&v("t"))));
        assert!(it.is_first_order(it.intern(&assoc(vec![v("t")]))));
        let poly = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(v("a")),
        };
        assert!(!it.is_first_order(it.intern(&poly)));
        assert!(!it.is_first_order(it.intern(&RTy::func(vec![poly], RTy::Int))));
    }

    #[test]
    fn has_assoc_detection() {
        let it = TyInterner::new();
        assert!(!it.has_assoc(it.intern(&v("t"))));
        assert!(it.has_assoc(it.intern(&assoc(vec![v("t")]))));
        assert!(it.has_assoc(it.intern(&RTy::list(assoc(vec![RTy::Int])))));
    }

    #[test]
    fn free_vars_skip_binders_and_dedup() {
        let t = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![RConstraint::SameTy(v("a"), v("b"))],
            body: Box::new(RTy::func(vec![v("a"), v("b")], v("c"))),
        };
        assert_eq!(t.free_vars(), vec![s("b"), s("c")]);
    }

    #[test]
    fn subst_hits_assoc_args() {
        let t = assoc(vec![v("t")]);
        let mut map = HashMap::new();
        map.insert(s("t"), RTy::Int);
        assert_eq!(subst(&t, &map), assoc(vec![RTy::Int]));
    }

    #[test]
    fn subst_avoids_capture_in_forall() {
        let t = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("a")], v("b"))),
        };
        let mut map = HashMap::new();
        map.insert(s("b"), v("a"));
        let r = subst(&t, &map);
        // Substitution preserves the head constructor, so destructure with
        // let-else instead of panicking match arms.
        let RTy::Forall { vars, body, .. } = &r else {
            unreachable!("substitution must keep the forall shape, got {r:?}");
        };
        assert_ne!(vars[0], s("a"), "binder should have been renamed");
        let RTy::Fn(ps, ret) = &**body else {
            unreachable!("substitution must keep the body a function type, got {body:?}");
        };
        assert_eq!(ps[0], RTy::Var(vars[0]));
        assert_eq!(**ret, v("a"));
    }

    #[test]
    fn subst_preserves_head_constructors() {
        // Negative space of the capture test: substitution never changes
        // what kind of type it was given, even when renaming binders.
        let mut map = HashMap::new();
        map.insert(s("b"), v("a"));
        let cases = [
            RTy::Int,
            RTy::Bool,
            v("b"),
            RTy::list(v("b")),
            RTy::func(vec![v("b")], v("b")),
            assoc(vec![v("b")]),
            RTy::Forall {
                vars: vec![s("a")],
                constraints: vec![],
                body: Box::new(v("b")),
            },
        ];
        for t in &cases {
            let r = subst(t, &map);
            assert_eq!(
                std::mem::discriminant(t),
                std::mem::discriminant(&r),
                "subst changed the shape of {t} into {r}"
            );
        }
    }

    #[test]
    fn subst_renamed_binder_is_not_free_and_capture_is_impossible() {
        // After capture-avoiding renaming, the fresh binder must not leak
        // into the free variables, and the substituted `a` must stay free
        // (it would have been captured by a naive substitution).
        let t = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![RConstraint::SameTy(v("a"), v("b"))],
            body: Box::new(RTy::func(vec![v("a")], v("b"))),
        };
        let mut map = HashMap::new();
        map.insert(s("b"), v("a"));
        let r = subst(&t, &map);
        let free = r.free_vars();
        assert_eq!(free, vec![s("a")], "free vars after subst: {free:?} in {r}");
        let RTy::Forall { vars, .. } = &r else {
            unreachable!("substitution must keep the forall shape, got {r:?}");
        };
        assert!(!free.contains(&vars[0]), "renamed binder escaped: {r}");
    }

    #[test]
    fn subst_leaves_unrelated_binders_alone() {
        // When no capture threatens, the binder keeps its name.
        let t = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("a")], v("b"))),
        };
        let mut map = HashMap::new();
        map.insert(s("b"), RTy::Int);
        let r = subst(&t, &map);
        let RTy::Forall { vars, body, .. } = &r else {
            unreachable!("substitution must keep the forall shape, got {r:?}");
        };
        assert_eq!(vars[0], s("a"));
        assert_eq!(**body, RTy::func(vec![v("a")], RTy::Int));
    }

    #[test]
    fn subst_leaves_a_forall_it_cannot_reach_unchanged() {
        // `[a ↦ s]` over `forall s. fn() -> forall s, u. bool`: `a` occurs
        // nowhere, so neither `s` binder is renamed, as in the interner.
        let t = RTy::Forall {
            vars: vec![s("s")],
            constraints: vec![],
            body: Box::new(RTy::func(
                vec![],
                RTy::Forall {
                    vars: vec![s("s"), s("u")],
                    constraints: vec![],
                    body: Box::new(RTy::Bool),
                },
            )),
        };
        let mut map = HashMap::new();
        map.insert(s("a"), v("s"));
        assert_eq!(subst(&t, &map), t);
        let it = TyInterner::new();
        let sid = it.subst_id(&[(s("a"), it.intern(&v("s")))]);
        assert_eq!(it.to_rty(it.subst(it.intern(&t), sid)), t);
    }

    #[test]
    fn display_forms() {
        assert_eq!(assoc(vec![v("t")]).to_string(), "Iterator<t>.elt");
        let t = RTy::Forall {
            vars: vec![s("t")],
            constraints: vec![RConstraint::Model {
                concept: ConceptId(1),
                concept_name: s("Monoid"),
                args: vec![v("t")],
            }],
            body: Box::new(RTy::func(vec![RTy::list(v("t"))], v("t"))),
        };
        assert_eq!(t.to_string(), "forall t where Monoid<t>. fn(list t) -> t");
    }

    #[test]
    fn size_counts_nodes() {
        let it = TyInterner::new();
        assert_eq!(it.size(it.intern(&v("t"))), 1);
        assert_eq!(it.size(it.intern(&RTy::func(vec![v("t")], RTy::Int))), 3);
    }

    #[test]
    fn interner_hashcons_gives_one_id_per_structure() {
        let it = TyInterner::new();
        let a = it.intern(&RTy::func(vec![v("t"), RTy::Int], RTy::list(v("t"))));
        let b = it.intern(&RTy::func(vec![v("t"), RTy::Int], RTy::list(v("t"))));
        assert_eq!(a, b);
        let c = it.intern(&RTy::func(vec![v("u"), RTy::Int], RTy::list(v("u"))));
        assert_ne!(a, c);
        let stats = it.stats();
        assert!(stats.hits > 0, "re-interning must hit the hashcons table");
        assert_eq!(stats.arena_types, it.len() as u64);
    }

    #[test]
    fn interner_roundtrips_and_metadata_matches_tree_walk() {
        let it = TyInterner::new();
        // (type, size, first order, has a projection, free variables)
        let cases = [
            (RTy::Int, 1, true, false, vec![]),
            (v("t"), 1, true, false, vec![s("t")]),
            (RTy::list(assoc(vec![v("t")])), 3, true, true, vec![s("t")]),
            (RTy::Forall {
                vars: vec![s("a")],
                constraints: vec![
                    RConstraint::Model {
                        concept: ConceptId(3),
                        concept_name: s("Monoid"),
                        args: vec![v("a"), v("z")],
                    },
                    RConstraint::SameTy(v("a"), assoc(vec![v("w")])),
                ],
                body: Box::new(RTy::func(vec![v("a")], v("b"))),
            }, 11, false, true, vec![s("z"), s("w"), s("b")]),
        ];
        for (ty, size, first_order, has_assoc, free) in &cases {
            let id = it.intern(ty);
            assert_eq!(&it.to_rty(id), ty, "roundtrip must be exact");
            assert_eq!(it.size(id), *size, "{ty}");
            assert_eq!(it.is_first_order(id), *first_order, "{ty}");
            assert_eq!(it.has_assoc(id), *has_assoc, "{ty}");
            assert_eq!(it.free_vars(id).to_vec(), *free, "{ty}");
            assert_eq!(it.free_vars(id).to_vec(), ty.free_vars(), "{ty}");
        }
    }

    /// `ty[x := r]` through the interner, as a tree.
    fn subst_interned(it: &TyInterner, ty: &RTy, x: &str, r: &RTy) -> RTy {
        let sid = it.subst_id(&[(s(x), it.intern(r))]);
        it.to_rty(it.subst(it.intern(ty), sid))
    }

    #[test]
    fn interner_subst_agrees_with_tree_subst_and_avoids_capture() {
        let it = TyInterner::new();
        // The non-capturing case is exactly equal to the tree walk.
        let t = assoc(vec![RTy::list(v("t"))]);
        let r = RTy::func(vec![RTy::Int], v("u"));
        let mut map = HashMap::new();
        map.insert(s("t"), r.clone());
        assert_eq!(subst_interned(&it, &t, "t", &r), subst(&t, &map));

        // The capturing case renames the binder to the first free `a_k`,
        // as the tree walk does.
        let t = RTy::Forall {
            vars: vec![s("a")],
            constraints: vec![],
            body: Box::new(RTy::func(vec![v("a")], v("b"))),
        };
        let mut map = HashMap::new();
        map.insert(s("b"), v("a"));
        let r = subst_interned(&it, &t, "b", &v("a"));
        assert_eq!(r, subst(&t, &map));
        let RTy::Forall { vars, body, .. } = &r else {
            unreachable!("subst must keep the forall shape, got {r:?}");
        };
        assert_eq!(vars[0], s("a_0"), "binder should have been renamed");
        let RTy::Fn(ps, ret) = &**body else {
            unreachable!("body must stay a function type, got {body:?}");
        };
        assert_eq!(ps[0], RTy::Var(vars[0]));
        assert_eq!(**ret, v("a"));
        assert_eq!(r.free_vars(), vec![s("a")]);
    }

    #[test]
    fn interner_subst_cache_hits_on_repeat() {
        let it = TyInterner::new();
        let t = RTy::func(vec![v("t"), v("t"), v("t")], v("t"));
        let first = subst_interned(&it, &t, "t", &RTy::Int);
        let misses = it.stats().subst_misses;
        let second = subst_interned(&it, &t, "t", &RTy::Int);
        assert_eq!(first, second);
        assert_eq!(
            it.stats().subst_misses,
            misses,
            "second identical subst must be fully cached"
        );
        assert!(it.stats().subst_hits > 0);
    }
}
