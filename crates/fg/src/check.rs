//! The F_G typechecker and its type-directed translation to System F.
//!
//! This module implements the typing rules of Figure 9 (base F_G) and
//! Figure 13 (associated types and same-type constraints), producing a
//! System F term in the style of the paper's dictionary-passing
//! translation:
//!
//! * a `model` declaration becomes `let d = tuple(…) in …`, where the tuple
//!   nests the dictionaries of refined concepts followed by the member
//!   implementations (Figure 7);
//! * a constrained type abstraction `biglam t̄ where …` becomes a System F
//!   type abstraction over `t̄` *plus one fresh type variable per associated
//!   type introduced by the where clause*, whose body is a function over
//!   the required dictionaries (§5.2);
//! * instantiation `e[τ̄]` becomes type application at the translated
//!   arguments and the resolved associated types, followed by application
//!   to the dictionaries found in the lexical scope;
//! * model member access `C<τ̄>.x` becomes a chain of tuple projections
//!   (the paper's `nth` paths, computed by the β functions).
//!
//! Same-type constraints are decided by [`crate::typeeq::TypeEq`]
//! (congruence closure); the translation maps every type to the
//! representative of its equivalence class, which is how
//! `Iterator<Iter1>.elt` and `Iterator<Iter2>.elt` collapse to the single
//! type parameter the paper calls `elt1`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use system_f::{NameSupply, Prim, Symbol, Term};
use telemetry::fault::{self, FaultMode};
use telemetry::limits::{Budget, DepthGuard, Exhausted, Resource};
use telemetry::trace::{SpanId, Tracer};

use crate::ast::{ConceptDecl, ConceptItem, Constraint, Expr, ExprKind, FgTy, ModelDecl, ModelItem};
use crate::concepts::{ConceptInfo, ConceptTable, MemberSig};
use crate::error::{CheckError, ErrorKind};
use crate::rty::{subst, ConceptId, InternStats, RConstraint, RTy, TyId};
use crate::typeeq::{TypeEq, TypeEqStats};
use system_f::lexer::Span;

/// The result of checking a program: its F_G type and its System F
/// translation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The program's F_G type.
    pub ty: RTy,
    /// The dictionary-passing translation.
    pub term: Term,
    /// The elaborated surface program: the input with every implicit
    /// instantiation made explicit. Running this on the direct
    /// interpreter is equivalent to evaluating `term` on System F.
    pub elaborated: Expr,
    /// Model-lookup and dictionary-construction counters accumulated
    /// while checking.
    pub check_stats: CheckStats,
    /// Congruence-closure counters (queries, unions, finds, term-bank
    /// peak) accumulated while checking.
    pub type_eq_stats: TypeEqStats,
    /// Hash-consing interner counters (hit/miss, substitution cache,
    /// arena sizes) accumulated while checking.
    pub intern_stats: InternStats,
}

/// Counters describing the work a [`Checker`] performed. Monotonic over
/// the checker's lifetime: unlike the lexical environment, these survive
/// scope save/restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Model-requirement resolutions attempted ([`Checker::resolve_model`]
    /// calls, including recursive ones for parameterized-model
    /// constraints).
    pub model_lookups: u64,
    /// Lookups that found a model.
    pub model_hits: u64,
    /// Lookups that found none (also counts lookups abandoned at the
    /// recursion depth limit).
    pub model_misses: u64,
    /// Same-concept scope entries examined across all lookups (the
    /// inner scan is newest-first over the queried concept's index
    /// bucket; entries of other concepts are never touched).
    pub candidates_scanned: u64,
    /// Deepest model scope observed at any lookup (gauge, in entries).
    pub max_scope_depth: u64,
    /// Dictionaries assembled for `model` declarations.
    pub dicts_built: u64,
    /// Parameterized dictionary constructors instantiated at use sites.
    pub dict_instantiations: u64,
}

impl CheckStats {
    /// The counters accumulated since `base` was captured from the same
    /// checker; the `max_scope_depth` gauge carries the observed peak.
    pub fn delta_since(&self, base: &CheckStats) -> CheckStats {
        CheckStats {
            model_lookups: self.model_lookups.saturating_sub(base.model_lookups),
            model_hits: self.model_hits.saturating_sub(base.model_hits),
            model_misses: self.model_misses.saturating_sub(base.model_misses),
            candidates_scanned: self
                .candidates_scanned
                .saturating_sub(base.candidates_scanned),
            max_scope_depth: self.max_scope_depth,
            dicts_built: self.dicts_built.saturating_sub(base.dicts_built),
            dict_instantiations: self
                .dict_instantiations
                .saturating_sub(base.dict_instantiations),
        }
    }
}

/// Typechecks a closed F_G program and translates it to System F:
/// [`check_program_budgeted`] under a fresh unlimited budget, with
/// tracing off.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered.
///
/// ```
/// use fg::{check_program, parser::parse_expr};
///
/// let e = parse_expr(
///     "concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
///      model Semigroup<int> { binary_op = iadd; } in
///      Semigroup<int>.binary_op(20, 22)",
/// ).unwrap();
/// let compiled = check_program(&e)?;
/// assert_eq!(system_f::eval(&compiled.term).unwrap(), system_f::Value::Int(42));
/// # Ok::<(), fg::CheckError>(())
/// ```
pub fn check_program(e: &Expr) -> Result<Compiled, CheckError> {
    check_program_budgeted(e, Tracer::disabled(), Arc::new(Budget::unlimited()))
}

/// Typechecks and translates a closed F_G program under a shared resource
/// budget, reporting to a trace sink. The checker charges fuel per
/// expression node, bounds its recursion depth, and charges the budget
/// for every congruence node and dictionary-plan node it creates. When
/// any limit trips, checking stops with a structured
/// [`ErrorKind::ResourceExhausted`] error instead of looping or
/// overflowing the stack. An enabled `tracer` receives model-resolution
/// decisions, dictionary construction, where-clause discharge, and
/// congruence unions (see the `telemetry` crate's `trace` module for the
/// event model).
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered.
pub fn check_program_budgeted(
    e: &Expr,
    tracer: Tracer,
    budget: Arc<Budget>,
) -> Result<Compiled, CheckError> {
    // The checker recurses once per nested expression, and library-sized
    // programs (a prelude is a single deeply right-nested expression)
    // exceed small default thread stacks. Pool workers own big stacks,
    // and shallow programs fit any stack, so both check inline. Any
    // other caller (tests, doc tests, embedding code on a small stack)
    // gets a dedicated big-stack thread. The tracer handle is shared, so
    // the record is seamless across the thread boundary.
    let check = move || Checker::new().check_body(e, tracer, budget);
    if crate::pool::on_worker() || !depth_exceeds(e, INLINE_DEPTH) {
        return check();
    }
    std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name("fg-checker".to_owned())
            .stack_size(CHECKER_STACK_BYTES)
            .spawn_scoped(scope, check)
            .map_err(|e| {
                CheckError::new(
                    ErrorKind::Internal(format!("failed to spawn checker thread: {e}")),
                    Span::default(),
                )
            })?;
        handle.join().unwrap_or_else(|payload| Err(panic_to_error(&*payload)))
    })
}

/// Deepest expression tree checked inline on a thread that is not a
/// pool worker. 24 leaves ample headroom on a default 2 MiB thread even
/// for the checker's fattest debug-build frames (budget guard and fault
/// probe included).
pub(crate) const INLINE_DEPTH: usize = 24;

/// Stack reserve for deep-program checking off the pool (the checker
/// recurses once per nested expression; library-sized programs are a
/// single deeply right-nested expression).
const CHECKER_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Wraps a budget-exhaustion record as a spanned check error.
fn exhausted_err(x: Exhausted, phase: &'static str, span: Span) -> CheckError {
    CheckError::new(ErrorKind::ResourceExhausted { exhausted: x, phase }, span)
}

/// Converts a checker-thread panic payload into a structured
/// [`CheckError`] instead of re-panicking in the caller.
pub(crate) fn panic_to_error(payload: &(dyn std::any::Any + Send)) -> CheckError {
    let msg = crate::pool::panic_message(payload);
    CheckError::new(
        ErrorKind::Internal(format!("checker thread panicked: {msg}")),
        Span::default(),
    )
}

/// Returns `true` if the expression tree is deeper than `limit`
/// (iterative, early-exiting depth probe).
pub(crate) fn depth_exceeds(e: &Expr, limit: usize) -> bool {
    let mut stack: Vec<(&Expr, usize)> = vec![(e, 0)];
    while let Some((e, d)) = stack.pop() {
        if d > limit {
            return true;
        }
        let d = d + 1;
        match &e.kind {
            ExprKind::Var(_)
            | ExprKind::IntLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Prim(_)
            | ExprKind::MemberAccess { .. } => {}
            ExprKind::App(f, args) => {
                stack.push((f, d));
                stack.extend(args.iter().map(|a| (a, d)));
            }
            ExprKind::Lam(_, b)
            | ExprKind::TyAbs { body: b, .. }
            | ExprKind::TyApp(b, _)
            | ExprKind::Fix(_, _, b)
            | ExprKind::TypeAlias(_, _, b) => stack.push((b, d)),
            ExprKind::Let(_, a, b) => {
                stack.push((a, d));
                stack.push((b, d));
            }
            ExprKind::If(c, t, f) => {
                stack.push((c, d));
                stack.push((t, d));
                stack.push((f, d));
            }
            ExprKind::Concept(decl, b) => {
                for item in &decl.items {
                    if let crate::ast::ConceptItem::Member {
                        default: Some(def), ..
                    } = item
                    {
                        stack.push((def, d));
                    }
                }
                stack.push((b, d));
            }
            ExprKind::Model(decl, b) => {
                for item in &decl.items {
                    if let ModelItem::Member(_, me) = item {
                        stack.push((me, d));
                    }
                }
                stack.push((b, d));
            }
        }
    }
    false
}

/// A model in scope: where its dictionary lives in the translation, and
/// what its associated types are assigned to.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The modeled concept.
    pub concept: ConceptId,
    /// The type arguments at which it is modeled. For a parameterized
    /// model these are *patterns* over `params`.
    pub args: Vec<RTy>,
    /// The dictionary variable in the translated program. For a
    /// parameterized model it is bound to a dictionary *constructor*
    /// (a `biglam`, possibly returning a function over constraint
    /// dictionaries).
    pub dict: Symbol,
    /// Projection path from `dict` to this model's dictionary (empty for a
    /// model's own declaration; non-empty for refinement sub-dictionaries).
    pub path: Vec<usize>,
    /// Associated-type assignments (assignments for declared models, the
    /// projections themselves for where-clause proxies). Open in `params`
    /// for parameterized models.
    pub assoc: Vec<(Symbol, RTy)>,
    /// `Some` while the model's dictionary is being constructed (checking
    /// default bodies): member name → local `let` binding.
    pub under_construction: Option<Vec<(Symbol, Symbol)>>,
    /// Universally quantified parameters of a parameterized model (§6
    /// extension); empty for ordinary models.
    pub params: Vec<Symbol>,
    /// The parameterized model's own where clause (constraints on
    /// `params`), resolved; satisfied recursively at each use.
    pub constraints: Vec<RConstraint>,
    /// Where the entry came from: the `model` declaration's span, or the
    /// span of the where clause that introduced it as a proxy. Used by
    /// trace events and `fg explain` to name the selected model.
    pub decl_span: Span,
    /// `true` for where-clause proxy entries (hypothetical models standing
    /// for a constraint dictionary), `false` for declared models.
    pub is_proxy: bool,
}

/// The outcome of resolving a model requirement `C<τ̄>` against the models
/// in scope: a dictionary expression plus the instantiated associated-type
/// assignments.
#[derive(Debug, Clone)]
pub struct ResolvedModel {
    /// The dictionary expression in the translation (a variable plus `nth`
    /// projections for ordinary models; a type/dictionary application of
    /// the constructor for parameterized models).
    pub term: Term,
    /// Associated-type assignments, instantiated.
    pub assoc: Vec<(Symbol, RTy)>,
    /// Local member bindings if the model is still under construction.
    pub under_construction: Option<Vec<(Symbol, Symbol)>>,
    /// The modeled concept.
    pub concept: ConceptId,
}

/// Bound on mutually recursive model resolution / type normalization
/// (guards against pathological parameterized-model cycles such as
/// `model forall t where C<list t>. C<t>`).
const LOOKUP_DEPTH_LIMIT: usize = 32;

/// The head constructor of a model entry's (or query's) first type
/// argument, precomputed into the per-concept model index so lookups
/// can skip entries that cannot possibly match before the comparatively
/// expensive equality / pattern-match machinery runs. `Flex` marks
/// heads that may match anything — type variables, associated-type
/// projections (normalization can rewrite them to any constructor), and
/// empty argument lists — so pruning is only ever a sound
/// "rigid head vs different rigid head" rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadKey {
    Flex,
    Int,
    Bool,
    List,
    Fn(usize),
    Forall,
}

impl HeadKey {
    fn compatible(self, other: HeadKey) -> bool {
        self == HeadKey::Flex || other == HeadKey::Flex || self == other
    }
}

/// The head key of an argument list's first element.
fn head_key(args: &[RTy]) -> HeadKey {
    match args.first() {
        None | Some(RTy::Var(_)) | Some(RTy::Assoc { .. }) => HeadKey::Flex,
        Some(RTy::Int) => HeadKey::Int,
        Some(RTy::Bool) => HeadKey::Bool,
        Some(RTy::List(_)) => HeadKey::List,
        Some(RTy::Fn(ps, _)) => HeadKey::Fn(ps.len()),
        Some(RTy::Forall { .. }) => HeadKey::Forall,
    }
}

/// A memoized where-clause discharge: the resolved outcome plus the
/// stat deltas the original computation accumulated, replayed on a hit
/// so the final counters match a run without the memo table.
#[derive(Debug, Clone)]
struct MemoHit {
    result: Option<ResolvedModel>,
    check_delta: CheckStats,
    teq_delta: TypeEqStats,
}

/// A checkpoint of the checker's lexical environment.
struct Saved {
    vars: usize,
    ty_vars: usize,
    concept_names: usize,
    models: usize,
    teq: TypeEq,
}

/// Everything [`Checker::enter_where`] sets up for a constrained scope.
struct WhereScope {
    /// Fresh type binders, one per (deduplicated) associated type.
    assoc_binders: Vec<Symbol>,
    /// Fresh dictionary parameter names, one per concept constraint.
    dict_names: Vec<Symbol>,
    /// The System F types of those dictionaries.
    dict_tys: Vec<system_f::Ty>,
}

/// The instantiation-independent shape of a where clause: which
/// dictionaries it demands, which associated types it introduces (after
/// diamond deduplication), and which equalities it asserts.
struct WherePlan {
    dicts: Vec<DictPlan>,
    assoc_slots: Vec<AssocSlot>,
    /// Same-type requirements inherited from the constrained concepts.
    concept_equalities: Vec<(RTy, RTy)>,
    /// Same-type constraints written in the where clause itself.
    same_constraints: Vec<(RTy, RTy)>,
}

/// A dictionary's recursive shape: the concept, its arguments, and the
/// sub-dictionaries for refinements and nested requirements.
struct DictPlan {
    concept: ConceptId,
    concept_name: Symbol,
    args: Vec<RTy>,
    children: Vec<DictPlan>,
}

/// One associated type introduced by a where clause.
struct AssocSlot {
    concept: ConceptId,
    concept_name: Symbol,
    args: Vec<RTy>,
    name: Symbol,
}

/// The F_G typechecker. See [`check_program`] for the one-shot API.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    /// All concepts declared so far (append-only).
    pub concepts: ConceptTable,
    vars: Vec<(Symbol, RTy)>,
    /// Type names in scope: `None` for ordinary binders,
    /// `Some(expansion)` for transparent type aliases.
    ty_vars: Vec<(Symbol, Option<RTy>)>,
    concept_names: Vec<(Symbol, ConceptId)>,
    models: Vec<ModelEntry>,
    /// Per-concept index into `models`: entry indices (ascending, so a
    /// reverse walk is newest-first) with the precomputed head
    /// constructor of each entry's first argument. Maintained by
    /// [`Checker::push_model`] and truncated by [`Checker::restore`].
    model_index: HashMap<ConceptId, Vec<(u32, HeadKey)>>,
    /// Bumped on every model-scope push and on every restore that pops
    /// models; [`Checker::memo_validate`] discards the where-clause memo
    /// wholesale when the generation (or the equality state) moves.
    scope_gen: u64,
    /// Where-clause discharge memo, keyed by the interned constraint
    /// arguments plus the re-entrancy depth (the depth limit makes
    /// outcomes depth-dependent). Every entry is valid exactly at
    /// `memo_stamp`; see [`Checker::resolve_model_at`] for why a hit is
    /// observationally identical to re-running the lookup.
    resolve_memo: HashMap<(ConceptId, Vec<TyId>, bool, usize), MemoHit>,
    /// The (scope generation, `TypeEq` state stamp) at which every entry
    /// in `resolve_memo` is valid.
    memo_stamp: (u64, (u64, u64, usize, usize)),
    teq: TypeEq,
    /// While resolving a concept declaration's own items: its name, params
    /// and associated types, so self-projections `C<t̄>.s` resolve to `s`.
    current_concept: Option<(Symbol, Vec<Symbol>, Vec<Symbol>)>,
    /// Re-entrancy counter shared by model resolution and normalization.
    busy: usize,
    /// Lifetime-monotonic work counters (never rolled back by
    /// [`Checker::restore`]).
    stats: CheckStats,
    /// Trace sink for resolution/dictionary/where events (disabled by
    /// default; shared with `teq` once set).
    tracer: Tracer,
    /// Shared resource budget (unlimited by default; shared with `teq`
    /// once set). Charged per expression node, congruence node, and
    /// dictionary-plan node.
    budget: Arc<Budget>,
    /// Where the names this compilation binds come from; the program's
    /// own identifiers are reserved.
    pub(crate) names: NameSupply,
}

impl Checker {
    /// Creates a checker with an empty environment.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Attaches a trace sink; the type-equality engine shares it (union
    /// and assertion events interleave with the checker's own spans).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.teq.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a shared resource budget; the type-equality engine shares
    /// it (congruence nodes and unions charge the same pool as the
    /// checker's per-node fuel).
    pub fn set_budget(&mut self, budget: Arc<Budget>) {
        self.teq.set_budget(budget.clone());
        self.budget = budget;
    }

    /// Renders type arguments for trace attributes: `<int, list t>`.
    fn render_args(args: &[RTy]) -> String {
        let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        format!("<{}>", parts.join(", "))
    }

    /// Renders a projection path for trace attributes: `.0.1` (empty for
    /// a model's own dictionary).
    fn render_path(path: &[usize]) -> String {
        path.iter().fold(String::new(), |mut acc, i| {
            acc.push('.');
            acc.push_str(&i.to_string());
            acc
        })
    }

    /// The models currently in scope (newest last). Exposed for tests and
    /// tooling.
    pub fn models(&self) -> &[ModelEntry] {
        &self.models
    }

    /// Model-lookup and dictionary-construction counters accumulated so
    /// far (monotonic over the checker's lifetime).
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// Congruence-closure counters accumulated so far, including work
    /// done in scopes that have since been discarded by
    /// [`Checker::restore`].
    pub fn type_eq_stats(&self) -> TypeEqStats {
        self.teq.stats()
    }

    /// Hash-consing interner counters accumulated so far (shared arena:
    /// scope clones all report the same figures).
    pub fn intern_stats(&self) -> InternStats {
        self.teq.intern_stats()
    }

    /// The type interner this checker's equality engine shares.
    pub(crate) fn interner(&self) -> crate::rty::TyInterner {
        self.teq.interner()
    }

    /// Pushes a model entry, keeping the per-concept index in sync and
    /// bumping the scope generation (which lazily invalidates the
    /// where-clause memo).
    fn push_model(&mut self, entry: ModelEntry) {
        let idx = self.models.len() as u32;
        self.model_index
            .entry(entry.concept)
            .or_default()
            .push((idx, head_key(&entry.args)));
        self.scope_gen += 1;
        self.models.push(entry);
    }

    /// Clears the where-clause memo unless the world it was computed in
    /// — the model scope and the whole equality state (term bank,
    /// unions, assertions, bans) — is bit-identical to now.
    fn memo_validate(&mut self) {
        let cur = (self.scope_gen, self.teq.state_stamp());
        if cur != self.memo_stamp {
            self.resolve_memo.clear();
            self.memo_stamp = cur;
        }
    }

    /// Folds a memoized computation's counter delta back into the live
    /// stats (counters add; the scope-depth gauge maxes).
    fn replay_stats(&mut self, d: CheckStats) {
        self.stats.model_lookups += d.model_lookups;
        self.stats.model_hits += d.model_hits;
        self.stats.model_misses += d.model_misses;
        self.stats.candidates_scanned += d.candidates_scanned;
        self.stats.max_scope_depth = self.stats.max_scope_depth.max(d.max_scope_depth);
        self.stats.dicts_built += d.dicts_built;
        self.stats.dict_instantiations += d.dict_instantiations;
    }

    /// Head pruning is only sound while no equalities are in play (an
    /// asserted `int == bool` can equate distinct rigid heads) and only
    /// invisible while no tracer wants the per-candidate event stream.
    fn head_prune_ok(&self) -> bool {
        if self.tracer.is_enabled() {
            return false;
        }
        let (_terms, unions, asserted, banned) = self.teq.state_stamp();
        unions == 0 && asserted == 0 && banned == 0
    }

    fn save(&mut self) -> Saved {
        Saved {
            vars: self.vars.len(),
            ty_vars: self.ty_vars.len(),
            concept_names: self.concept_names.len(),
            models: self.models.len(),
            teq: self.teq.clone(),
        }
    }

    fn restore(&mut self, saved: Saved) {
        self.vars.truncate(saved.vars);
        self.ty_vars.truncate(saved.ty_vars);
        self.concept_names.truncate(saved.concept_names);
        // Pop models newest-first so the per-concept index (whose bucket
        // tails are exactly the popped entries) shrinks in lock-step.
        if self.models.len() > saved.models {
            while self.models.len() > saved.models {
                if let Some(e) = self.models.pop() {
                    if let Some(bucket) = self.model_index.get_mut(&e.concept) {
                        bucket.pop();
                    }
                }
            }
            self.scope_gen += 1;
        }
        // Replacing `teq` with the saved clone discards the scope's
        // equalities — but not the record of the work done in it: fold
        // the discarded scope's counters back in so stats stay
        // monotonic.
        let scope = self.teq.stats().delta_since(&saved.teq.stats());
        self.teq = saved.teq;
        self.teq.absorb_scope(scope);
    }

    fn lookup_concept(&self, name: Symbol) -> Option<ConceptId> {
        self.concept_names
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, id)| *id)
    }

    fn err<T>(&self, kind: ErrorKind, span: Span) -> Result<T, CheckError> {
        Err(CheckError::new(kind, span))
    }

    // ------------------------------------------------------------------
    // Surface-type resolution
    // ------------------------------------------------------------------

    /// Resolves a surface type against the lexical environment.
    pub fn resolve_ty(&mut self, ty: &FgTy, span: Span) -> Result<RTy, CheckError> {
        match ty {
            FgTy::Var(v) => {
                // Innermost binding wins; type aliases expand transparently
                // so they never escape their scope.
                if let Some((_, expansion)) = self.ty_vars.iter().rev().find(|(n, _)| n == v) {
                    return Ok(match expansion {
                        Some(rhs) => rhs.clone(),
                        None => RTy::Var(*v),
                    });
                }
                if let Some((_, params, assoc)) = &self.current_concept {
                    if params.contains(v) || assoc.contains(v) {
                        return Ok(RTy::Var(*v));
                    }
                }
                self.err(ErrorKind::UnboundTyVar(*v), span)
            }
            FgTy::Int => Ok(RTy::Int),
            FgTy::Bool => Ok(RTy::Bool),
            FgTy::List(t) => Ok(RTy::List(Box::new(self.resolve_ty(t, span)?))),
            FgTy::Fn(ps, r) => {
                let params = ps
                    .iter()
                    .map(|p| self.resolve_ty(p, span))
                    .collect::<Result<Vec<_>, _>>()?;
                let ret = self.resolve_ty(r, span)?;
                Ok(RTy::Fn(params, Box::new(ret)))
            }
            FgTy::Forall {
                vars,
                constraints,
                body,
            } => {
                distinct(vars, span)?;
                let n = self.ty_vars.len();
                self.ty_vars.extend(vars.iter().map(|v| (*v, None)));
                let result = (|| {
                    let rcs = constraints
                        .iter()
                        .map(|c| self.resolve_constraint(c, span))
                        .collect::<Result<Vec<_>, _>>()?;
                    let rbody = self.resolve_ty(body, span)?;
                    Ok(RTy::Forall {
                        vars: vars.clone(),
                        constraints: rcs,
                        body: Box::new(rbody),
                    })
                })();
                self.ty_vars.truncate(n);
                result
            }
            FgTy::Assoc {
                concept,
                args,
                name,
            } => {
                // A self-projection `C<t̄>.s` inside C's own declaration
                // denotes the bare associated type `s`.
                if let Some((cname, params, assoc)) = self.current_concept.clone() {
                    if cname == *concept {
                        let param_args: Vec<FgTy> =
                            params.iter().map(|p| FgTy::Var(*p)).collect();
                        if *args == param_args && assoc.contains(name) {
                            return Ok(RTy::Var(*name));
                        }
                    }
                }
                let cid = self
                    .lookup_concept(*concept)
                    .ok_or_else(|| CheckError::new(ErrorKind::UnknownConcept(*concept), span))?;
                let info = self.concepts.get(cid).clone();
                if info.params.len() != args.len() {
                    return self.err(
                        ErrorKind::ArityMismatch {
                            what: format!("concept `{concept}`"),
                            expected: info.params.len(),
                            found: args.len(),
                        },
                        span,
                    );
                }
                if !info.assoc_types.contains(name) {
                    return self.err(
                        ErrorKind::UnknownAssocType {
                            concept: *concept,
                            name: *name,
                        },
                        span,
                    );
                }
                let rargs = args
                    .iter()
                    .map(|a| self.resolve_ty(a, span))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(RTy::Assoc {
                    concept: cid,
                    concept_name: *concept,
                    args: rargs,
                    name: *name,
                })
            }
        }
    }

    fn resolve_constraint(
        &mut self,
        c: &Constraint,
        span: Span,
    ) -> Result<RConstraint, CheckError> {
        match c {
            Constraint::Model { concept, args } => {
                let cid = self
                    .lookup_concept(*concept)
                    .ok_or_else(|| CheckError::new(ErrorKind::UnknownConcept(*concept), span))?;
                let info_params = self.concepts.get(cid).params.len();
                if info_params != args.len() {
                    return self.err(
                        ErrorKind::ArityMismatch {
                            what: format!("concept `{concept}`"),
                            expected: info_params,
                            found: args.len(),
                        },
                        span,
                    );
                }
                let rargs = args
                    .iter()
                    .map(|a| self.resolve_ty(a, span))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(RConstraint::Model {
                    concept: cid,
                    concept_name: *concept,
                    args: rargs,
                })
            }
            Constraint::SameTy(a, b) => Ok(RConstraint::SameTy(
                self.resolve_ty(a, span)?,
                self.resolve_ty(b, span)?,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Concept instantiation helpers (the paper's ba / b / bm functions)
    // ------------------------------------------------------------------

    /// The substitution mapping a concept's parameters to `args` and its
    /// associated-type names to the projections `C<args>.s` (the paper's
    /// `ba` map composed with the parameter substitution).
    fn instantiation_subst(&self, info: &ConceptInfo, args: &[RTy]) -> HashMap<Symbol, RTy> {
        let mut map: HashMap<Symbol, RTy> = info
            .params
            .iter()
            .copied()
            .zip(args.iter().cloned())
            .collect();
        for &s in &info.assoc_types {
            map.insert(
                s,
                RTy::Assoc {
                    concept: info.id,
                    concept_name: info.name,
                    args: args.to_vec(),
                    name: s,
                },
            );
        }
        map
    }

    /// Computes the instantiation-independent plan of a where clause:
    /// dictionary shapes, deduplicated associated-type slots (diamond
    /// refinements yield a single slot, §5.2), and inherited equalities.
    fn where_plan(&mut self, constraints: &[RConstraint]) -> WherePlan {
        let mut plan = WherePlan {
            dicts: Vec::new(),
            assoc_slots: Vec::new(),
            concept_equalities: Vec::new(),
            same_constraints: Vec::new(),
        };
        let mut seen = HashSet::new();
        for c in constraints {
            match c {
                RConstraint::Model {
                    concept,
                    concept_name,
                    args,
                } => {
                    self.visit_concept(*concept, *concept_name, args, &mut plan, &mut seen);
                    plan.dicts.push(self.build_dict_plan(*concept, *concept_name, args));
                }
                RConstraint::SameTy(a, b) => {
                    plan.same_constraints.push((a.clone(), b.clone()));
                }
            }
        }
        plan
    }

    /// Depth-first discovery of associated types and equalities, skipping
    /// concept/argument pairs that were already processed. Stops early
    /// once the budget trips; [`Checker::enter_where`] polls it after.
    fn visit_concept(
        &mut self,
        cid: ConceptId,
        cname: Symbol,
        args: &[RTy],
        plan: &mut WherePlan,
        seen: &mut HashSet<(ConceptId, Vec<RTy>)>,
    ) {
        if self.charge_plan_node().is_err() {
            return;
        }
        if !seen.insert((cid, args.to_vec())) {
            return;
        }
        let info = self.concepts.get(cid).clone();
        let s = self.instantiation_subst(&info, args);
        for &a in &info.assoc_types {
            plan.assoc_slots.push(AssocSlot {
                concept: cid,
                concept_name: cname,
                args: args.to_vec(),
                name: a,
            });
        }
        for (lhs, rhs) in &info.same {
            plan.concept_equalities
                .push((subst(lhs, &s), subst(rhs, &s)));
        }
        for (rc, rargs) in info.refines.iter().chain(&info.requires) {
            let inst_args: Vec<RTy> = rargs.iter().map(|a| subst(a, &s)).collect();
            let rname = self.concepts.name(*rc);
            self.visit_concept(*rc, rname, &inst_args, plan, seen);
        }
    }

    /// Pure structural recursion building a dictionary's shape (no
    /// deduplication: diamonds duplicate sub-dictionaries, as in the
    /// paper's nested-tuple representation).
    fn build_dict_plan(&self, cid: ConceptId, cname: Symbol, args: &[RTy]) -> DictPlan {
        // A refinement diamond duplicates sub-plans, so this recursion is
        // worst-case exponential in the refinement depth. Charge one
        // dict-node per plan node; once the budget trips, degrade to a
        // childless leaf — the enclosing fallible caller polls the budget
        // and reports the exhaustion, so the truncated plan is never used.
        if self.budget.charge_dict_node().is_err() {
            return DictPlan {
                concept: cid,
                concept_name: cname,
                args: args.to_vec(),
                children: Vec::new(),
            };
        }
        let info = self.concepts.get(cid).clone();
        let s = self.instantiation_subst(&info, args);
        let children = info
            .refines
            .iter()
            .chain(&info.requires)
            .map(|(rc, rargs)| {
                let inst_args: Vec<RTy> = rargs.iter().map(|a| subst(a, &s)).collect();
                self.build_dict_plan(*rc, self.concepts.name(*rc), &inst_args)
            })
            .collect();
        DictPlan {
            concept: cid,
            concept_name: cname,
            args: args.to_vec(),
            children,
        }
    }

    /// The System F type of a dictionary for `plan` under the current
    /// equality state: sub-dictionary types followed by translated member
    /// types (with the concept's parameters and associated types
    /// instantiated).
    fn dict_ty(&mut self, plan: &DictPlan, span: Span) -> Result<system_f::Ty, CheckError> {
        self.charge_plan_node()
            .map_err(|x| exhausted_err(x, "check", span))?;
        let info = self.concepts.get(plan.concept).clone();
        let s = self.instantiation_subst(&info, &plan.args);
        let mut items = Vec::new();
        for child in &plan.children {
            items.push(self.dict_ty(child, span)?);
        }
        for m in &info.members {
            let mty = subst(&m.ty, &s);
            items.push(self.tr_ty(&mty, span)?);
        }
        Ok(system_f::Ty::Tuple(items))
    }

    /// Charges one visit to a dictionary-plan node (one fuel unit) and
    /// checks the wall-clock deadline. The dict-node meter counts each
    /// node once, when its plan is built, but the walks over a where
    /// clause's plans ([`Checker::visit_concept`], [`Checker::dict_ty`],
    /// [`Checker::register_proxy`]) do real work per node, and a deadline
    /// polled only every 1024 fuel units would let a wide refinement
    /// lattice run far past it.
    fn charge_plan_node(&self) -> Result<(), Exhausted> {
        self.budget.charge_fuel(1)?;
        self.budget.check_deadline()
    }

    /// Enters a where-clause scope: binds the type variables' associated
    /// types to fresh binders, asserts all equalities, and (optionally)
    /// registers proxy model entries for the translation of the body.
    fn enter_where(
        &mut self,
        constraints: &[RConstraint],
        register_models: bool,
        span: Span,
    ) -> Result<WhereScope, CheckError> {
        let sp = self.tracer.begin_with("where_enter", || {
            vec![
                ("constraints", constraints.len().into()),
                ("span_start", span.start.into()),
                ("span_end", span.end.into()),
            ]
        });
        let out = self.enter_where_inner(constraints, register_models, span);
        self.tracer.end(sp);
        out
    }

    fn enter_where_inner(
        &mut self,
        constraints: &[RConstraint],
        register_models: bool,
        span: Span,
    ) -> Result<WhereScope, CheckError> {
        match fault::hit("check.where_enter") {
            None => {}
            Some(FaultMode::Error) => {
                self.budget.trip(Resource::Injected, 0);
            }
            Some(FaultMode::Panic) => panic!("injected fault panic at check.where_enter"),
        }
        self.budget.ok().map_err(|x| exhausted_err(x, "check", span))?;
        let plan = self.where_plan(constraints);
        // `where_plan` degrades to truncated dictionary plans when the
        // dict-node budget trips mid-way; poll so the truncation surfaces
        // as a structured error rather than a wrong dictionary shape.
        self.budget.ok().map_err(|x| exhausted_err(x, "check", span))?;
        let mut assoc_binders = Vec::with_capacity(plan.assoc_slots.len());
        for slot in &plan.assoc_slots {
            let fresh = self.names.fresh(slot.name);
            self.ty_vars.push((fresh, None));
            assoc_binders.push(fresh);
            let proj = RTy::Assoc {
                concept: slot.concept,
                concept_name: slot.concept_name,
                args: slot.args.clone(),
                name: slot.name,
            };
            self.teq.assert_eq(&RTy::Var(fresh), &proj);
        }
        for (a, b) in plan
            .concept_equalities
            .iter()
            .chain(&plan.same_constraints)
        {
            self.teq.assert_eq(a, b);
        }
        let mut dict_names = Vec::with_capacity(plan.dicts.len());
        let mut dict_tys = Vec::with_capacity(plan.dicts.len());
        for dict in &plan.dicts {
            let name = self.names.fresh(dict.concept_name);
            if register_models {
                self.register_proxy(dict, name, Vec::new(), span)?;
            }
            dict_names.push(name);
            dict_tys.push(self.dict_ty(dict, span)?);
        }
        Ok(WhereScope {
            assoc_binders,
            dict_names,
            dict_tys,
        })
    }

    /// Registers proxy model entries for a dictionary and (recursively) its
    /// refinement/requirement sub-dictionaries, mirroring the paper's `bm`.
    fn register_proxy(
        &mut self,
        plan: &DictPlan,
        dict: Symbol,
        path: Vec<usize>,
        span: Span,
    ) -> Result<(), CheckError> {
        self.charge_plan_node()
            .map_err(|x| exhausted_err(x, "check", span))?;
        let info = self.concepts.get(plan.concept).clone();
        if self.tracer.is_enabled() {
            self.tracer.instant(
                "where_proxy",
                vec![
                    ("concept", info.name.to_string().into()),
                    ("args", Self::render_args(&plan.args).into()),
                    ("dict", dict.to_string().into()),
                    ("path", Self::render_path(&path).into()),
                ],
            );
        }
        // A proxy's associated types stand for themselves: each maps to
        // its own projection `C<args>.a` (exactly what
        // `instantiation_subst` would produce, built directly so there is
        // no map lookup to go wrong).
        let assoc = info
            .assoc_types
            .iter()
            .map(|&a| {
                (
                    a,
                    RTy::Assoc {
                        concept: plan.concept,
                        concept_name: info.name,
                        args: plan.args.clone(),
                        name: a,
                    },
                )
            })
            .collect();
        self.push_model(ModelEntry {
            concept: plan.concept,
            args: plan.args.clone(),
            dict,
            path: path.clone(),
            assoc,
            under_construction: None,
            params: Vec::new(),
            constraints: Vec::new(),
            decl_span: span,
            is_proxy: true,
        });
        for (i, child) in plan.children.iter().enumerate() {
            let mut child_path = path.clone();
            child_path.push(i);
            self.register_proxy(child, dict, child_path, span)?;
        }
        Ok(())
    }

    /// Semantic type equality: syntactic equality, declared same-type
    /// equalities (congruence closure), and associated-type normalization
    /// through parameterized models.
    pub fn types_equal(&mut self, a: &RTy, b: &RTy) -> bool {
        if a == b {
            return true;
        }
        let na = self.norm(a);
        let nb = self.norm(b);
        na == nb || self.teq.eq(&na, &nb)
    }

    /// Rewrites associated-type projections that are resolvable through
    /// *parameterized* models (ordinary models assert equalities into the
    /// congruence instead, so `TypeEq` handles them).
    fn norm(&mut self, ty: &RTy) -> RTy {
        // Fast path: only associated-type projections can be rewritten.
        if !ty.has_assoc() {
            return ty.clone();
        }
        if self.busy > LOOKUP_DEPTH_LIMIT {
            return ty.clone();
        }
        self.busy += 1;
        let out = self.norm_inner(ty);
        self.busy -= 1;
        out
    }

    fn norm_inner(&mut self, ty: &RTy) -> RTy {
        match ty {
            RTy::Var(_) | RTy::Int | RTy::Bool => ty.clone(),
            RTy::List(t) => RTy::List(Box::new(self.norm(t))),
            RTy::Fn(ps, r) => RTy::Fn(
                ps.iter().map(|p| self.norm(p)).collect(),
                Box::new(self.norm(r)),
            ),
            RTy::Forall {
                vars,
                constraints,
                body,
            } => RTy::Forall {
                vars: vars.clone(),
                constraints: constraints.clone(),
                body: Box::new(self.norm(body)),
            },
            RTy::Assoc {
                concept,
                concept_name,
                args,
                name,
            } => {
                let nargs: Vec<RTy> = args.iter().map(|a| self.norm(a)).collect();
                if let Some(assignment) =
                    self.param_assoc_assignment(*concept, &nargs, *name)
                {
                    return self.norm(&assignment);
                }
                RTy::Assoc {
                    concept: *concept,
                    concept_name: *concept_name,
                    args: nargs,
                    name: *name,
                }
            }
        }
    }

    /// If a *parameterized* model in scope matches `C<args>`, returns its
    /// assignment for associated type `name`.
    fn param_assoc_assignment(
        &mut self,
        cid: ConceptId,
        args: &[RTy],
        name: Symbol,
    ) -> Option<RTy> {
        let prune = self.head_prune_ok();
        let qhead = head_key(args);
        // Only parameterized models can assign here, and a scope holds
        // many parameterless ones (every where-clause proxy), so the
        // cheap tests run by reference and a skipped entry is never
        // cloned.
        let candidates: Vec<u32> = {
            let bucket = self.model_index.get(&cid).map_or(&[][..], Vec::as_slice);
            self.stats.candidates_scanned += bucket.len() as u64;
            bucket
                .iter()
                .rev()
                .filter(|&&(idx, ehead)| {
                    let entry = &self.models[idx as usize];
                    (!prune || ehead.compatible(qhead))
                        && entry.args.len() == args.len()
                        && !entry.params.is_empty()
                        && entry.under_construction.is_none()
                })
                .map(|&(idx, _)| idx)
                .collect()
        };
        for idx in candidates {
            let entry = self.models[idx as usize].clone();
            let Some(sigma) = self.match_entry(&entry, args) else {
                continue;
            };
            // Constraints must be satisfiable for the match to count.
            if !self.param_constraints_hold(&entry, &sigma) {
                continue;
            }
            if let Some((_, t)) = entry.assoc.iter().find(|(n, _)| *n == name) {
                return Some(subst(t, &sigma));
            }
        }
        None
    }

    fn param_constraints_hold(
        &mut self,
        entry: &ModelEntry,
        sigma: &HashMap<Symbol, RTy>,
    ) -> bool {
        for c in entry.constraints.clone() {
            match c {
                RConstraint::Model { concept, args, .. } => {
                    let inst: Vec<RTy> = args.iter().map(|a| subst(a, sigma)).collect();
                    if self
                        .resolve_model_at(concept, &inst, false, "constraint")
                        .is_none()
                    {
                        return false;
                    }
                }
                RConstraint::SameTy(a, b) => {
                    let (ia, ib) = (subst(&a, sigma), subst(&b, sigma));
                    if !self.types_equal(&ia, &ib) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Matches a model entry's argument patterns against concrete
    /// arguments, producing the parameter substitution.
    fn match_entry(
        &mut self,
        entry: &ModelEntry,
        args: &[RTy],
    ) -> Option<HashMap<Symbol, RTy>> {
        let mut sigma = HashMap::new();
        for (pat, tgt) in entry.args.iter().zip(args) {
            if !self.match_ty(pat, tgt, &entry.params, &mut sigma) {
                return None;
            }
        }
        if entry.params.iter().all(|p| sigma.contains_key(p)) {
            Some(sigma)
        } else {
            None
        }
    }

    /// One-way matching of a pattern (open in `params`) against a target
    /// type, modulo declared equalities on the target side.
    fn match_ty(
        &mut self,
        pat: &RTy,
        tgt: &RTy,
        params: &[Symbol],
        sigma: &mut HashMap<Symbol, RTy>,
    ) -> bool {
        if let RTy::Var(p) = pat {
            if params.contains(p) {
                if let Some(bound) = sigma.get(p).cloned() {
                    return self.types_equal(&bound, tgt);
                }
                sigma.insert(*p, tgt.clone());
                return true;
            }
        }
        let snapshot = sigma.clone();
        if self.match_structural(pat, tgt, params, sigma) {
            return true;
        }
        // Retry through the target's equivalence class (e.g. a type
        // variable declared equal to `list int` matching pattern `list t`).
        for m in self.teq.class_members(tgt) {
            if m == *tgt {
                continue;
            }
            *sigma = snapshot.clone();
            if self.match_structural(pat, &m, params, sigma) {
                return true;
            }
        }
        *sigma = snapshot;
        false
    }

    fn match_structural(
        &mut self,
        pat: &RTy,
        tgt: &RTy,
        params: &[Symbol],
        sigma: &mut HashMap<Symbol, RTy>,
    ) -> bool {
        match (pat, tgt) {
            (RTy::Int, RTy::Int) | (RTy::Bool, RTy::Bool) => true,
            (RTy::Var(a), RTy::Var(b)) => a == b,
            (RTy::List(x), RTy::List(y)) => self.match_ty(x, y, params, sigma),
            (RTy::Fn(ps, r), RTy::Fn(qs, s)) => {
                ps.len() == qs.len()
                    && ps
                        .iter()
                        .zip(qs)
                        .all(|(p, q)| self.match_ty(p, q, params, sigma))
                    && self.match_ty(r, s, params, sigma)
            }
            (
                RTy::Assoc {
                    concept: ca,
                    args: aa,
                    name: na,
                    ..
                },
                RTy::Assoc {
                    concept: cb,
                    args: ab,
                    name: nb,
                    ..
                },
            ) => {
                ca == cb
                    && na == nb
                    && aa.len() == ab.len()
                    && aa
                        .iter()
                        .zip(ab)
                        .all(|(x, y)| self.match_ty(x, y, params, sigma))
            }
            (RTy::Forall { .. }, _) => {
                // Quantified patterns only match when closed w.r.t. the
                // parameters (no higher-order matching).
                let fvs = pat.free_vars();
                if fvs.iter().any(|v| params.contains(v)) {
                    return false;
                }
                self.types_equal(pat, tgt)
            }
            _ => false,
        }
    }

    /// Resolves a model requirement `C<args>` against the models in scope
    /// (newest first). Ordinary models match via type equality; a
    /// parameterized model matches if its patterns match and its own
    /// constraints resolve recursively. Under-construction entries are
    /// only returned when `allow_uc`.
    pub fn resolve_model(
        &mut self,
        cid: ConceptId,
        args: &[RTy],
        allow_uc: bool,
    ) -> Option<ResolvedModel> {
        self.resolve_model_at(cid, args, allow_uc, "query")
    }

    /// [`Checker::resolve_model`] with a `site` tag describing *why* the
    /// lookup happened (`instantiate`, `model_decl`, `member`,
    /// `constraint`, `query`), carried on the emitted trace events so
    /// tooling can compare like-for-like decision sequences across lanes.
    fn resolve_model_at(
        &mut self,
        cid: ConceptId,
        args: &[RTy],
        allow_uc: bool,
        site: &'static str,
    ) -> Option<ResolvedModel> {
        self.stats.model_lookups += 1;
        self.stats.max_scope_depth = self.stats.max_scope_depth.max(self.models.len() as u64);
        let _ = self.budget.charge_fuel(1);
        match fault::hit("check.resolve_model") {
            None => {}
            Some(FaultMode::Error) => {
                // Trip the budget and report a miss: the callers poll the
                // budget on a miss and report the exhaustion.
                self.budget.trip(Resource::Injected, 0);
                self.stats.model_misses += 1;
                return None;
            }
            Some(FaultMode::Panic) => panic!("injected fault panic at check.resolve_model"),
        }
        if self.busy > LOOKUP_DEPTH_LIMIT {
            self.stats.model_misses += 1;
            self.tracer.instant_with("lookup_depth_limit", || {
                vec![("concept", self.concepts.name(cid).to_string().into())]
            });
            return None;
        }
        // Where-clause discharge memo: repeated constraint lookups at an
        // unchanged (model scope, equality state) are answered from
        // cache. A hit is observationally identical to re-running the
        // lookup: the stamp pins every input the computation reads
        // (models via `scope_gen`, the congruence term bank / unions /
        // assertions / bans via the `TypeEq` stamp, recursion depth via
        // the key), so a re-run could only replay hash-cons and
        // encode-cache hits and return the same value. Tracing and fault
        // injection disable the memo so event streams and fault visit
        // counts stay complete.
        let memo_key = if site == "constraint" && !self.tracer.is_enabled() && !fault::armed() {
            let interner = self.teq.interner();
            let key_args: Vec<TyId> = args.iter().map(|a| interner.intern(a)).collect();
            Some((cid, key_args, allow_uc, self.busy))
        } else {
            None
        };
        if let Some(key) = &memo_key {
            self.memo_validate();
            if let Some(hit) = self.resolve_memo.get(key) {
                let hit = hit.clone();
                self.replay_stats(hit.check_delta);
                self.teq.absorb_scope(hit.teq_delta);
                return hit.result;
            }
        }
        let cs_before = self.stats;
        let ts_before = self.teq.stats();
        let sp = self.tracer.begin_with("model_resolve", || {
            vec![
                ("concept", self.concepts.name(cid).to_string().into()),
                ("args", Self::render_args(args).into()),
                ("site", site.into()),
                ("scope_depth", self.models.len().into()),
            ]
        });
        self.busy += 1;
        let out = self.resolve_model_inner(cid, args, allow_uc, site, sp);
        self.busy -= 1;
        match &out {
            Some(_) => self.stats.model_hits += 1,
            None => self.stats.model_misses += 1,
        }
        self.tracer.end_with(
            sp,
            vec![(
                "outcome",
                if out.is_some() { "hit" } else { "miss" }.into(),
            )],
        );
        if let Some(key) = memo_key {
            let hit = MemoHit {
                result: out.clone(),
                check_delta: self.stats.delta_since(&cs_before),
                teq_delta: self.teq.stats().delta_since(&ts_before),
            };
            // The computation itself may have grown the equality state;
            // re-validate so the entry is stored against the stamp it is
            // actually valid at.
            self.memo_validate();
            self.resolve_memo.insert(key, hit);
        }
        out
    }

    /// Emits the `candidate_rejected` trace event for scope entry `index`.
    fn trace_rejected(&self, index: usize, reason: &'static str) {
        self.tracer.instant_with("candidate_rejected", || {
            vec![("index", index.into()), ("reason", reason.into())]
        });
    }

    /// Emits the `model_selected` trace event: scope entry `index` won the
    /// lookup for `C<nargs>` performed at `site`.
    fn trace_selected(&self, entry: &ModelEntry, index: usize, nargs: &[RTy], site: &'static str) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.instant(
            "model_selected",
            vec![
                ("concept", self.concepts.name(entry.concept).to_string().into()),
                ("args", Self::render_args(nargs).into()),
                ("head", Self::render_args(&entry.args).into()),
                ("site", site.into()),
                ("index", index.into()),
                ("dict", entry.dict.to_string().into()),
                ("path", Self::render_path(&entry.path).into()),
                ("parameterized", u64::from(!entry.params.is_empty()).into()),
                ("proxy", u64::from(entry.is_proxy).into()),
                ("decl_start", entry.decl_span.start.into()),
                ("decl_end", entry.decl_span.end.into()),
            ],
        );
    }

    /// Emits the `same_type` trace event for a discharged (or failed)
    /// same-type constraint, including the minimal chain of asserted
    /// equalities that proves it when one exists.
    fn trace_same_type(&mut self, a: &RTy, b: &RTy, holds: bool, site: &'static str) {
        if !self.tracer.is_enabled() {
            return;
        }
        let proof = if holds {
            match self.teq.explain(a, b) {
                Some(chain) if chain.is_empty() => "by normalization".to_string(),
                Some(chain) => chain
                    .iter()
                    .map(|(x, y)| format!("{x} = {y}"))
                    .collect::<Vec<_>>()
                    .join("; "),
                None => "by normalization".to_string(),
            }
        } else {
            String::new()
        };
        self.tracer.instant(
            "same_type",
            vec![
                ("lhs", a.to_string().into()),
                ("rhs", b.to_string().into()),
                ("holds", u64::from(holds).into()),
                ("site", site.into()),
                ("proof", proof.into()),
            ],
        );
    }

    fn resolve_model_inner(
        &mut self,
        cid: ConceptId,
        args: &[RTy],
        allow_uc: bool,
        site: &'static str,
        sp: SpanId,
    ) -> Option<ResolvedModel> {
        let _ = sp;
        let nargs: Vec<RTy> = args.iter().map(|a| self.norm(a)).collect();
        // Snapshot of the concept's index bucket: nested resolution may
        // push models mid-scan, and the old full scan likewise iterated
        // over the scope length captured at loop entry.
        let bucket: Vec<(u32, HeadKey)> =
            self.model_index.get(&cid).cloned().unwrap_or_default();
        let prune = self.head_prune_ok();
        let qhead = head_key(&nargs);
        for &(idx, ehead) in bucket.iter().rev() {
            let i = idx as usize;
            self.stats.candidates_scanned += 1;
            if prune && !ehead.compatible(qhead) {
                continue;
            }
            let entry = self.models[i].clone();
            if entry.args.len() != nargs.len() {
                continue;
            }
            // From here on the entry is a real candidate: same concept,
            // same arity. Record it (newest-first scan order: higher
            // indices are inner scopes).
            self.tracer.instant_with("candidate", || {
                vec![
                    ("index", i.into()),
                    ("head", Self::render_args(&entry.args).into()),
                    ("dict", entry.dict.to_string().into()),
                    ("parameterized", u64::from(!entry.params.is_empty()).into()),
                    ("proxy", u64::from(entry.is_proxy).into()),
                    ("decl_start", entry.decl_span.start.into()),
                ]
            });
            if entry.under_construction.is_some() && !allow_uc {
                self.trace_rejected(i, "under_construction");
                continue;
            }
            if entry.params.is_empty() {
                let matches = entry
                    .args
                    .iter()
                    .zip(&nargs)
                    .all(|(a, b)| self.types_equal(a, b));
                if !matches {
                    self.trace_rejected(i, "args_mismatch");
                    continue;
                }
                let mut term = Term::Var(entry.dict);
                for &k in &entry.path {
                    term = Term::nth(term, k);
                }
                self.trace_selected(&entry, i, &nargs, site);
                return Some(ResolvedModel {
                    term,
                    assoc: entry.assoc.clone(),
                    under_construction: entry.under_construction.clone(),
                    concept: cid,
                });
            }
            // Parameterized model.
            let Some(sigma) = self.match_entry(&entry, &nargs) else {
                self.trace_rejected(i, "pattern_mismatch");
                continue;
            };
            let plan = self.where_plan(&entry.constraints);
            let mut dict_terms = Vec::with_capacity(plan.dicts.len());
            let mut ok = true;
            for dict in &plan.dicts {
                let inst: Vec<RTy> = dict.args.iter().map(|a| subst(a, &sigma)).collect();
                match self.resolve_model_at(dict.concept, &inst, false, "constraint") {
                    Some(rm) if rm.under_construction.is_none() => dict_terms.push(rm.term),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                self.trace_rejected(i, "constraint_unsatisfied");
                continue;
            }
            for (a, b) in &plan.same_constraints {
                let (ia, ib) = (subst(a, &sigma), subst(b, &sigma));
                if !self.types_equal(&ia, &ib) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                self.trace_rejected(i, "same_type_unsatisfied");
                continue;
            }
            if let Some(locals) = entry.under_construction.clone() {
                self.trace_selected(&entry, i, &nargs, site);
                return Some(ResolvedModel {
                    term: Term::Var(entry.dict),
                    assoc: entry
                        .assoc
                        .iter()
                        .map(|(n, t)| (*n, subst(t, &sigma)))
                        .collect(),
                    under_construction: Some(locals),
                    concept: cid,
                });
            }
            // Instantiate the dictionary constructor: type arguments are
            // the matched parameters followed by the associated types of
            // the constraint plan, in the same order the declaration's
            // translation bound them.
            let span = Span::default();
            let mut ty_args = Vec::with_capacity(entry.params.len() + plan.assoc_slots.len());
            let mut translatable = true;
            for p in &entry.params {
                // `match_entry` only succeeds when every parameter is
                // bound, and declarations reject parameters absent from
                // the head (`UnusedModelParam`), so `sigma` has `p`; an
                // unbound parameter is treated as a non-match, not a
                // panic.
                let Some(arg) = sigma.get(p) else {
                    translatable = false;
                    break;
                };
                let arg = arg.clone();
                match self.tr_ty(&arg, span) {
                    Ok(t) => ty_args.push(t),
                    Err(_) => {
                        translatable = false;
                        break;
                    }
                }
            }
            if translatable {
                for slot in &plan.assoc_slots {
                    let proj = RTy::Assoc {
                        concept: slot.concept,
                        concept_name: slot.concept_name,
                        args: slot.args.iter().map(|a| subst(a, &sigma)).collect(),
                        name: slot.name,
                    };
                    match self.tr_ty(&proj, span) {
                        Ok(t) => ty_args.push(t),
                        Err(_) => {
                            translatable = false;
                            break;
                        }
                    }
                }
            }
            if !translatable {
                self.trace_rejected(i, "untranslatable");
                continue;
            }
            self.stats.dict_instantiations += 1;
            let mut term = Term::TyApp(Box::new(Term::Var(entry.dict)), ty_args);
            if !dict_terms.is_empty() {
                term = Term::App(Box::new(term), dict_terms);
            }
            let assoc = entry
                .assoc
                .iter()
                .map(|(n, t)| (*n, subst(t, &sigma)))
                .collect();
            self.trace_selected(&entry, i, &nargs, site);
            return Some(ResolvedModel {
                term,
                assoc,
                under_construction: None,
                concept: cid,
            });
        }
        None
    }

    // ------------------------------------------------------------------
    // Type translation to System F (Figures 8 and 12)
    // ------------------------------------------------------------------

    /// Translates an F_G type to System F, mapping every type to the
    /// representative of its same-type equivalence class.
    pub fn tr_ty(&mut self, ty: &RTy, span: Span) -> Result<system_f::Ty, CheckError> {
        let normed = self.norm(ty);
        let resolved = self.teq.resolve(&normed);
        self.tr_resolved(&resolved, span)
    }

    fn tr_resolved(&mut self, ty: &RTy, span: Span) -> Result<system_f::Ty, CheckError> {
        match ty {
            RTy::Var(v) => Ok(system_f::Ty::Var(*v)),
            RTy::Int => Ok(system_f::Ty::Int),
            RTy::Bool => Ok(system_f::Ty::Bool),
            RTy::List(t) => Ok(system_f::Ty::List(Box::new(self.tr_resolved(t, span)?))),
            RTy::Fn(ps, r) => Ok(system_f::Ty::Fn(
                ps.iter()
                    .map(|p| self.tr_resolved(p, span))
                    .collect::<Result<Vec<_>, _>>()?,
                Box::new(self.tr_resolved(r, span)?),
            )),
            RTy::Assoc { .. } => {
                // `resolve` found no better representative: no model (or
                // proxy) assignment for this projection is in scope.
                self.err(ErrorKind::CannotResolveAssoc(ty.clone()), span)
            }
            RTy::Forall {
                vars,
                constraints,
                body,
            } => {
                let saved = self.save();
                let result = (|| {
                    self.ty_vars.extend(vars.iter().map(|v| (*v, None)));
                    let scope = self.enter_where(constraints, false, span)?;
                    let body_ty = self.tr_ty(body, span)?;
                    let mut binders = vars.clone();
                    binders.extend(scope.assoc_binders.iter().copied());
                    let inner = if scope.dict_tys.is_empty() {
                        body_ty
                    } else {
                        system_f::Ty::Fn(scope.dict_tys, Box::new(body_ty))
                    };
                    Ok(system_f::Ty::Forall(binders, Box::new(inner)))
                })();
                self.restore(saved);
                result
            }
        }
    }

    // ------------------------------------------------------------------
    // Member access (the paper's b function / MEM rule)
    // ------------------------------------------------------------------

    /// Looks up `member` in concept `cid` instantiated at `args`, searching
    /// the concept's own members first, then refinements depth-first.
    /// Returns the member's instantiated type and the projection path
    /// relative to the concept's dictionary.
    fn find_member(
        &mut self,
        cid: ConceptId,
        args: &[RTy],
        member: Symbol,
    ) -> Option<(RTy, Vec<usize>)> {
        let info = self.concepts.get(cid).clone();
        let s = self.instantiation_subst(&info, args);
        if let Some((idx, m)) = info.member(member) {
            let ty = subst(&m.ty, &s);
            return Some((ty, vec![info.member_slot_base() + idx]));
        }
        for (i, (rc, rargs)) in info.refines.iter().enumerate() {
            let inst_args: Vec<RTy> = rargs.iter().map(|a| subst(a, &s)).collect();
            if let Some((ty, mut path)) = self.find_member(*rc, &inst_args, member) {
                path.insert(0, i);
                return Some((ty, path));
            }
        }
        None
    }

    /// Checks and translates a member access `C<τ̄>.x`.
    fn access_member(
        &mut self,
        cid: ConceptId,
        cname: Symbol,
        args: &[RTy],
        member: Symbol,
        span: Span,
    ) -> Result<(RTy, Term), CheckError> {
        let Some(resolved) = self.resolve_model_at(cid, args, true, "member") else {
            // A miss caused by an exhausted budget (or an injected fault)
            // reports that cause, not a missing model.
            self.budget.ok().map_err(|x| exhausted_err(x, "check", span))?;
            return self.err(
                ErrorKind::NoModel {
                    concept: cname,
                    args: args.to_vec(),
                },
                span,
            );
        };
        let Some((ty, relpath)) = self.find_member(cid, args, member) else {
            return self.err(
                ErrorKind::UnknownMember {
                    concept: cname,
                    member,
                },
                span,
            );
        };
        if let Some(locals) = &resolved.under_construction {
            let info = self.concepts.get(cid).clone();
            if info.member(member).is_some() {
                // Own member: must already have a local binding.
                let Some((_, local)) = locals.iter().find(|(m, _)| *m == member) else {
                    return self.err(
                        ErrorKind::DefaultUsesLaterMember {
                            concept: cname,
                            member,
                        },
                        span,
                    );
                };
                return Ok((ty, Term::Var(*local)));
            }
            // Inherited member: access it through the refined concept's own
            // (complete) model instead of the dictionary being built.
            let s = self.instantiation_subst(&info, args);
            for (rc, rargs) in info.refines.clone() {
                let inst_args: Vec<RTy> = rargs.iter().map(|a| subst(a, &s)).collect();
                if self.find_member(rc, &inst_args, member).is_some() {
                    let rname = self.concepts.name(rc);
                    return self.access_member(rc, rname, &inst_args, member, span);
                }
            }
            return self.err(
                ErrorKind::UnknownMember {
                    concept: cname,
                    member,
                },
                span,
            );
        }
        let mut term = resolved.term;
        for &i in &relpath {
            term = Term::nth(term, i);
        }
        Ok((ty, term))
    }

    // ------------------------------------------------------------------
    // Expression checking (Figures 9 and 13)
    // ------------------------------------------------------------------

    /// Checks an expression, returning its type and translation.
    pub fn check(&mut self, e: &Expr) -> Result<(RTy, Term), CheckError> {
        let (ty, term, _) = self.check_elab(e)?;
        Ok((ty, term))
    }

    /// Checks an expression, returning its type, its System F translation,
    /// and the *elaborated* surface expression — the input with implicit
    /// instantiations made explicit (every inferred `e[τ̄]` inserted), so
    /// the direct interpreter can execute exactly what was typechecked.
    pub fn check_elab(&mut self, e: &Expr) -> Result<(RTy, Term, Expr), CheckError> {
        let budget = self.budget.clone();
        let _depth = visit(&budget, e.span)?;
        self.check_elab_rec(e)
    }

    /// Checks a program body in this checker's environment — typically a
    /// snapshot's, at the hole of a checked prefix — leaving `self`
    /// untouched: the body is checked in a clone with `tracer` and
    /// `budget` attached. The counters in the result cover the body's
    /// work only.
    ///
    /// # Errors
    ///
    /// Returns the first [`CheckError`] in the body.
    pub fn check_body(
        &self,
        body: &Expr,
        tracer: Tracer,
        budget: Arc<Budget>,
    ) -> Result<Compiled, CheckError> {
        let mut checker = self.clone();
        checker.names.reserve(body.names());
        checker.stats = CheckStats::default();
        checker.set_tracer(tracer);
        checker.set_budget(budget);
        let intern_base = self.intern_stats();
        let (ty, term, elaborated) = checker.check_elab(body)?;
        Ok(Compiled {
            ty,
            term,
            elaborated,
            check_stats: checker.stats,
            type_eq_stats: checker.type_eq_stats().delta_since(&self.type_eq_stats()),
            intern_stats: checker.intern_stats().delta_since(&intern_base),
        })
    }

    /// Enters the declarations on `prefix`'s chain down to its hole
    /// ([`Expr::hole`]), leaving the checker in the scope a body there
    /// would be checked in. Each declaration is visited and entered
    /// exactly as [`Checker::check_elab`] enters it inside a whole
    /// program. Returns the declarations' frames, outermost first, and
    /// the trace spans still open at the hole (closed by
    /// [`Checker::close_spine`] once the body is checked).
    pub(crate) fn enter_spine(
        &mut self,
        prefix: &Expr,
    ) -> Result<(Vec<Frame>, Vec<SpanId>), CheckError> {
        let budget = self.budget.clone();
        // Depth is held down the chain, as the nested check holds it.
        let mut depth = Vec::new();
        let mut frames = Vec::new();
        let mut open = Vec::new();
        let mut e = prefix;
        while !e.is_hole() {
            let entered = visit(&budget, e.span).and_then(|guard| {
                depth.push(guard);
                self.enter_decl(e)
            });
            let (frame, undo, body) = match entered {
                Ok(entered) => entered,
                Err(err) => {
                    self.close_spine(&open, false);
                    return Err(err);
                }
            };
            if let Undo::Model(_, sp) = undo {
                open.push(sp);
            }
            frames.push(frame);
            e = body;
        }
        Ok((frames, open))
    }

    /// Closes the `dict_build` spans [`Checker::enter_spine`] left open,
    /// innermost first, with the outcome of the body checked inside them.
    pub(crate) fn close_spine(&self, open: &[SpanId], ok: bool) {
        for &sp in open.iter().rev() {
            self.tracer.end_with(sp, vec![("outcome", outcome(ok).into())]);
        }
    }

    fn check_elab_rec(&mut self, e: &Expr) -> Result<(RTy, Term, Expr), CheckError> {
        let span = e.span;
        match &e.kind {
            ExprKind::Var(x) => {
                let ty = self
                    .vars
                    .iter()
                    .rev()
                    .find(|(n, _)| n == x)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| CheckError::new(ErrorKind::UnboundVar(*x), span))?;
                Ok((ty, Term::Var(*x), e.clone()))
            }
            ExprKind::IntLit(n) => Ok((RTy::Int, Term::IntLit(*n), e.clone())),
            ExprKind::BoolLit(b) => Ok((RTy::Bool, Term::BoolLit(*b), e.clone())),
            ExprKind::Prim(p) => Ok((prim_rty(*p), Term::Prim(*p), e.clone())),
            ExprKind::App(f, args) => {
                let (fty, fterm, felab) = self.check_elab(f)?;
                if let Some((params, ret)) = self.as_fn(&fty) {
                    // Ordinary application.
                    if params.len() != args.len() {
                        return self.err(
                            ErrorKind::ArityMismatch {
                                what: "function".to_owned(),
                                expected: params.len(),
                                found: args.len(),
                            },
                            span,
                        );
                    }
                    let mut arg_terms = Vec::with_capacity(args.len());
                    let mut arg_elabs = Vec::with_capacity(args.len());
                    for (param, arg) in params.iter().zip(args) {
                        let (aty, aterm, aelab) = self.check_elab(arg)?;
                        if !self.types_equal(param, &aty) {
                            return self.err(
                                ErrorKind::ArgMismatch {
                                    expected: param.clone(),
                                    found: aty,
                                },
                                arg.span,
                            );
                        }
                        arg_terms.push(aterm);
                        arg_elabs.push(aelab);
                    }
                    return Ok((
                        ret,
                        Term::App(Box::new(fterm), arg_terms),
                        Expr::spanned(
                            ExprKind::App(Box::new(felab), arg_elabs),
                            span,
                        ),
                    ));
                }
                // §6 implicit instantiation: a polymorphic function applied
                // directly to value arguments — infer monomorphic type
                // arguments by matching the parameter types against the
                // argument types (Odersky–Läufer restriction [46]).
                let Some((vars, constraints, body)) = self.as_forall(&fty) else {
                    return self.err(ErrorKind::NotAFunction(fty), span);
                };
                let Some((params, _)) = self.as_fn(&body) else {
                    return self.err(ErrorKind::NotAFunction(fty), span);
                };
                if params.len() != args.len() {
                    return self.err(
                        ErrorKind::ArityMismatch {
                            what: "function".to_owned(),
                            expected: params.len(),
                            found: args.len(),
                        },
                        span,
                    );
                }
                let mut arg_tys = Vec::with_capacity(args.len());
                let mut arg_terms = Vec::with_capacity(args.len());
                let mut arg_elabs = Vec::with_capacity(args.len());
                for arg in args {
                    let (aty, aterm, aelab) = self.check_elab(arg)?;
                    arg_tys.push(aty);
                    arg_terms.push(aterm);
                    arg_elabs.push(aelab);
                }
                let mut sigma: HashMap<Symbol, RTy> = HashMap::new();
                for (param, aty) in params.iter().zip(&arg_tys) {
                    // Best-effort matching; the instantiated signature is
                    // re-verified below, so partial matches are safe.
                    let _ = self.match_ty(param, aty, &vars, &mut sigma);
                }
                let unbound: Vec<Symbol> = vars
                    .iter()
                    .copied()
                    .filter(|v| !sigma.contains_key(v))
                    .collect();
                if !unbound.is_empty() {
                    return self.err(
                        ErrorKind::CannotInferTypeArgs { vars: unbound },
                        span,
                    );
                }
                let rargs: Vec<RTy> = vars.iter().map(|v| sigma[v].clone()).collect();
                let (ity, iterm) =
                    self.instantiate(fterm, &vars, &constraints, &body, &rargs, span)?;
                let Some((iparams, iret)) = self.as_fn(&ity) else {
                    return self.err(ErrorKind::NotAFunction(ity), span);
                };
                for ((iparam, aty), arg) in iparams.iter().zip(&arg_tys).zip(args) {
                    if !self.types_equal(iparam, aty) {
                        return self.err(
                            ErrorKind::ArgMismatch {
                                expected: iparam.clone(),
                                found: aty.clone(),
                            },
                            arg.span,
                        );
                    }
                }
                let surface_args: Vec<FgTy> =
                    rargs.iter().map(|t| self.rty_to_surface(t)).collect();
                let felab = Expr::spanned(
                    ExprKind::TyApp(Box::new(felab), surface_args),
                    span,
                );
                Ok((
                    iret,
                    Term::App(Box::new(iterm), arg_terms),
                    Expr::spanned(ExprKind::App(Box::new(felab), arg_elabs), span),
                ))
            }
            ExprKind::Lam(params, body) => {
                distinct(
                    &params.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                    span,
                )?;
                let mut rparams = Vec::with_capacity(params.len());
                let mut sf_params = Vec::with_capacity(params.len());
                for (x, t) in params {
                    let rt = self.resolve_ty(t, span)?;
                    sf_params.push((*x, self.tr_ty(&rt, span)?));
                    rparams.push((*x, rt));
                }
                let n = self.vars.len();
                self.vars.extend(rparams.iter().cloned());
                let result = self.check_elab(body);
                self.vars.truncate(n);
                let (bty, bterm, belab) = result?;
                Ok((
                    RTy::Fn(
                        rparams.into_iter().map(|(_, t)| t).collect(),
                        Box::new(bty),
                    ),
                    Term::Lam(sf_params, Box::new(bterm)),
                    Expr::spanned(
                        ExprKind::Lam(params.clone(), Box::new(belab)),
                        span,
                    ),
                ))
            }
            ExprKind::TyAbs {
                vars,
                constraints,
                body,
            } => {
                distinct(vars, span)?;
                let saved = self.save();
                let result = (|| {
                    self.ty_vars.extend(vars.iter().map(|v| (*v, None)));
                    let rcs = constraints
                        .iter()
                        .map(|c| self.resolve_constraint(c, span))
                        .collect::<Result<Vec<_>, _>>()?;
                    let scope = self.enter_where(&rcs, true, span)?;
                    let (bty, bterm, belab) = self.check_elab(body)?;
                    let mut binders = vars.clone();
                    binders.extend(scope.assoc_binders.iter().copied());
                    let inner = if scope.dict_names.is_empty() {
                        bterm
                    } else {
                        Term::Lam(
                            scope
                                .dict_names
                                .iter()
                                .copied()
                                .zip(scope.dict_tys.iter().cloned())
                                .collect(),
                            Box::new(bterm),
                        )
                    };
                    Ok((
                        RTy::Forall {
                            vars: vars.clone(),
                            constraints: rcs,
                            body: Box::new(bty),
                        },
                        Term::TyAbs(binders, Box::new(inner)),
                        Expr::spanned(
                            ExprKind::TyAbs {
                                vars: vars.clone(),
                                constraints: constraints.clone(),
                                body: Box::new(belab),
                            },
                            span,
                        ),
                    ))
                })();
                self.restore(saved);
                result
            }
            ExprKind::TyApp(f, args) => {
                let (fty, fterm, felab) = self.check_elab(f)?;
                let Some((vars, constraints, body)) = self.as_forall(&fty) else {
                    return self.err(ErrorKind::NotAForall(fty), span);
                };
                if vars.len() != args.len() {
                    return self.err(
                        ErrorKind::ArityMismatch {
                            what: "polymorphic term".to_owned(),
                            expected: vars.len(),
                            found: args.len(),
                        },
                        span,
                    );
                }
                let rargs = args
                    .iter()
                    .map(|a| self.resolve_ty(a, span))
                    .collect::<Result<Vec<_>, _>>()?;
                let (ty, term) =
                    self.instantiate(fterm, &vars, &constraints, &body, &rargs, span)?;
                Ok((
                    ty,
                    term,
                    Expr::spanned(
                        ExprKind::TyApp(Box::new(felab), args.clone()),
                        span,
                    ),
                ))
            }
            ExprKind::Let(..)
            | ExprKind::Concept(..)
            | ExprKind::Model(..)
            | ExprKind::TypeAlias(..) => {
                let (frame, undo, body) = self.enter_decl(e)?;
                let result = self.check_elab(body);
                self.leave_decl(undo, result.is_ok());
                let (ty, term, elab) = result?;
                let (term, elab) = frame.wrap(term, elab);
                Ok((ty, term, elab))
            }
            ExprKind::If(c, t, f) => {
                let (cty, cterm, celab) = self.check_elab(c)?;
                if !self.types_equal(&cty, &RTy::Bool) {
                    return self.err(ErrorKind::CondNotBool(cty), c.span);
                }
                let (tty, tterm, telab) = self.check_elab(t)?;
                let (fty, fterm, felab) = self.check_elab(f)?;
                if !self.types_equal(&tty, &fty) {
                    return self.err(ErrorKind::BranchMismatch(tty, fty), span);
                }
                Ok((
                    tty,
                    Term::if_(cterm, tterm, fterm),
                    Expr::spanned(
                        ExprKind::If(Box::new(celab), Box::new(telab), Box::new(felab)),
                        span,
                    ),
                ))
            }
            ExprKind::Fix(x, ty, body) => {
                let rty = self.resolve_ty(ty, span)?;
                self.vars.push((*x, rty.clone()));
                let result = self.check_elab(body);
                self.vars.pop();
                let (bty, bterm, belab) = result?;
                if !self.types_equal(&bty, &rty) {
                    return self.err(
                        ErrorKind::FixMismatch {
                            annotated: rty,
                            found: bty,
                        },
                        span,
                    );
                }
                let sf_ty = self.tr_ty(&rty, span)?;
                Ok((
                    rty,
                    Term::Fix(*x, sf_ty, Box::new(bterm)),
                    Expr::spanned(
                        ExprKind::Fix(*x, ty.clone(), Box::new(belab)),
                        span,
                    ),
                ))
            }
            ExprKind::MemberAccess {
                concept,
                args,
                member,
            } => {
                let cid = self
                    .lookup_concept(*concept)
                    .ok_or_else(|| CheckError::new(ErrorKind::UnknownConcept(*concept), span))?;
                let nparams = self.concepts.get(cid).params.len();
                if nparams != args.len() {
                    return self.err(
                        ErrorKind::ArityMismatch {
                            what: format!("concept `{concept}`"),
                            expected: nparams,
                            found: args.len(),
                        },
                        span,
                    );
                }
                let rargs = args
                    .iter()
                    .map(|a| self.resolve_ty(a, span))
                    .collect::<Result<Vec<_>, _>>()?;
                let (ty, term) = self.access_member(cid, *concept, &rargs, *member, span)?;
                Ok((ty, term, e.clone()))
            }
        }
    }

    /// Instantiates a polymorphic term at the given type arguments: checks
    /// the where clause against the models in scope, resolves the
    /// dictionaries, and builds the System F type/dictionary application
    /// (the TAPP rule's translation, shared by explicit and implicit
    /// instantiation).
    fn instantiate(
        &mut self,
        fterm: Term,
        vars: &[Symbol],
        constraints: &[RConstraint],
        body: &RTy,
        rargs: &[RTy],
        span: Span,
    ) -> Result<(RTy, Term), CheckError> {
        let sp = self.tracer.begin_with("instantiate", || {
            vec![
                ("args", Self::render_args(rargs).into()),
                ("span_start", span.start.into()),
                ("span_end", span.end.into()),
            ]
        });
        let out = self.instantiate_inner(fterm, vars, constraints, body, rargs, span);
        self.tracer.end_with(
            sp,
            vec![(
                "outcome",
                if out.is_ok() { "ok" } else { "error" }.into(),
            )],
        );
        out
    }

    fn instantiate_inner(
        &mut self,
        fterm: Term,
        vars: &[Symbol],
        constraints: &[RConstraint],
        body: &RTy,
        rargs: &[RTy],
        span: Span,
    ) -> Result<(RTy, Term), CheckError> {
        let sigma: HashMap<Symbol, RTy> =
            vars.iter().copied().zip(rargs.iter().cloned()).collect();
        // The plan is computed on the *uninstantiated* constraints so the
        // slot order matches the abstraction's translation.
        let plan = self.where_plan(constraints);
        // A plan cut short by the budget must not read as a violation.
        self.budget.ok().map_err(|x| exhausted_err(x, "check", span))?;
        // Same-type constraints must hold at the instantiation.
        for (a, b) in &plan.same_constraints {
            let ia = subst(a, &sigma);
            let ib = subst(b, &sigma);
            let holds = self.types_equal(&ia, &ib);
            self.trace_same_type(&ia, &ib, holds, "instantiate");
            if !holds {
                return self.err(ErrorKind::SameTypeViolation(ia, ib), span);
            }
        }
        // Dictionary arguments from the models in scope.
        let mut dict_terms = Vec::with_capacity(plan.dicts.len());
        for dict in &plan.dicts {
            let inst_args: Vec<RTy> = dict.args.iter().map(|a| subst(a, &sigma)).collect();
            let Some(resolved) =
                self.resolve_model_at(dict.concept, &inst_args, false, "instantiate")
            else {
                self.budget.ok().map_err(|x| exhausted_err(x, "check", span))?;
                return self.err(
                    ErrorKind::NoModel {
                        concept: dict.concept_name,
                        args: inst_args,
                    },
                    span,
                );
            };
            dict_terms.push(resolved.term);
        }
        // Type arguments: the written ones plus the resolved associated
        // types, in plan order.
        let mut sf_ty_args = Vec::with_capacity(rargs.len() + plan.assoc_slots.len());
        for a in rargs {
            sf_ty_args.push(self.tr_ty(a, span)?);
        }
        for slot in &plan.assoc_slots {
            let proj = RTy::Assoc {
                concept: slot.concept,
                concept_name: slot.concept_name,
                args: slot.args.iter().map(|a| subst(a, &sigma)).collect(),
                name: slot.name,
            };
            sf_ty_args.push(self.tr_ty(&proj, span)?);
        }
        let mut term = Term::TyApp(Box::new(fterm), sf_ty_args);
        if !dict_terms.is_empty() {
            term = Term::App(Box::new(term), dict_terms);
        }
        Ok((subst(body, &sigma), term))
    }

    /// Renders a resolved type back to surface syntax (used when inserting
    /// inferred type arguments into the elaborated program).
    fn rty_to_surface(&self, t: &RTy) -> FgTy {
        match t {
            RTy::Var(v) => FgTy::Var(*v),
            RTy::Int => FgTy::Int,
            RTy::Bool => FgTy::Bool,
            RTy::List(x) => FgTy::List(Box::new(self.rty_to_surface(x))),
            RTy::Fn(ps, r) => FgTy::Fn(
                ps.iter().map(|p| self.rty_to_surface(p)).collect(),
                Box::new(self.rty_to_surface(r)),
            ),
            RTy::Forall {
                vars,
                constraints,
                body,
            } => FgTy::Forall {
                vars: vars.clone(),
                constraints: constraints
                    .iter()
                    .map(|c| match c {
                        RConstraint::Model {
                            concept_name, args, ..
                        } => Constraint::Model {
                            concept: *concept_name,
                            args: args.iter().map(|a| self.rty_to_surface(a)).collect(),
                        },
                        RConstraint::SameTy(a, b) => Constraint::SameTy(
                            self.rty_to_surface(a),
                            self.rty_to_surface(b),
                        ),
                    })
                    .collect(),
                body: Box::new(self.rty_to_surface(body)),
            },
            RTy::Assoc {
                concept_name,
                args,
                name,
                ..
            } => FgTy::Assoc {
                concept: *concept_name,
                args: args.iter().map(|a| self.rty_to_surface(a)).collect(),
                name: *name,
            },
        }
    }

    /// Views a type as a function type, searching its same-type equivalence
    /// class if the type itself is not syntactically a function.
    fn as_fn(&mut self, ty: &RTy) -> Option<(Vec<RTy>, RTy)> {
        let ty = &self.norm(ty);
        if let RTy::Fn(ps, r) = ty {
            return Some((ps.clone(), (**r).clone()));
        }
        for m in self.teq.class_members(ty) {
            if let RTy::Fn(ps, r) = m {
                return Some((ps, *r));
            }
        }
        None
    }

    /// Views a type as a universal type, searching its equivalence class.
    fn as_forall(&mut self, ty: &RTy) -> Option<(Vec<Symbol>, Vec<RConstraint>, RTy)> {
        let ty = &self.norm(ty);
        if let RTy::Forall {
            vars,
            constraints,
            body,
        } = ty
        {
            return Some((vars.clone(), constraints.clone(), (**body).clone()));
        }
        for m in self.teq.class_members(ty) {
            if let RTy::Forall {
                vars,
                constraints,
                body,
            } = m
            {
                return Some((vars, constraints, *body));
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    /// Checks a concept declaration (the CPT rule) and records it in the
    /// concept table, returning its id. The caller scopes the name binding.
    fn check_concept_decl(&mut self, decl: &ConceptDecl) -> Result<ConceptId, CheckError> {
        let span = decl.span;
        distinct(&decl.params, span)?;
        // Collect associated-type names first: items may reference them in
        // any order.
        let mut assoc_types: Vec<Symbol> = Vec::new();
        for item in &decl.items {
            if let ConceptItem::AssocTypes(names) = item {
                for &n in names {
                    if assoc_types.contains(&n) || decl.params.contains(&n) {
                        return self.err(ErrorKind::DuplicateConceptItem(n), span);
                    }
                    assoc_types.push(n);
                }
            }
        }
        let prev_current = self.current_concept.replace((
            decl.name,
            decl.params.clone(),
            assoc_types.clone(),
        ));
        let result = (|| {
            let mut refines = Vec::new();
            let mut requires = Vec::new();
            let mut members: Vec<MemberSig> = Vec::new();
            let mut same = Vec::new();
            for item in &decl.items {
                match item {
                    ConceptItem::AssocTypes(_) => {}
                    ConceptItem::Refines { concept, args }
                    | ConceptItem::Requires { concept, args } => {
                        let cid = self.lookup_concept(*concept).ok_or_else(|| {
                            CheckError::new(ErrorKind::UnknownConcept(*concept), span)
                        })?;
                        let nparams = self.concepts.get(cid).params.len();
                        if nparams != args.len() {
                            return self.err(
                                ErrorKind::ArityMismatch {
                                    what: format!("concept `{concept}`"),
                                    expected: nparams,
                                    found: args.len(),
                                },
                                span,
                            );
                        }
                        let rargs = args
                            .iter()
                            .map(|a| self.resolve_ty(a, span))
                            .collect::<Result<Vec<_>, _>>()?;
                        if matches!(item, ConceptItem::Refines { .. }) {
                            refines.push((cid, rargs));
                        } else {
                            requires.push((cid, rargs));
                        }
                    }
                    ConceptItem::Member { name, ty, default } => {
                        if members.iter().any(|m| m.name == *name) {
                            return self.err(ErrorKind::DuplicateConceptItem(*name), span);
                        }
                        let rty = self.resolve_ty(ty, span)?;
                        members.push(MemberSig {
                            name: *name,
                            ty: rty,
                            default: default.clone(),
                        });
                    }
                    ConceptItem::Same(a, b) => {
                        same.push((self.resolve_ty(a, span)?, self.resolve_ty(b, span)?));
                    }
                }
            }
            let id = self.concepts.next_id();
            self.concepts.push(ConceptInfo {
                id,
                name: decl.name,
                params: decl.params.clone(),
                assoc_types,
                refines,
                requires,
                members,
                same,
            });
            Ok(id)
        })();
        self.current_concept = prev_current;
        result
    }

    /// Enters a declaration expression (`concept`, `model`, `type` or
    /// `let`): checks the declaration itself and brings it into scope.
    /// Returns the frame its body's translation and elaboration are
    /// wrapped in, what [`Checker::leave_decl`] must undo once the body
    /// is checked, and the body.
    fn enter_decl<'e>(&mut self, e: &'e Expr) -> Result<(Frame, Undo, &'e Expr), CheckError> {
        let span = e.span;
        let (kind, undo, body) = match &e.kind {
            ExprKind::Concept(decl, body) => {
                let cid = self.check_concept_decl(decl)?;
                self.concept_names.push((decl.name, cid));
                (FrameKind::Concept(decl.clone()), Undo::ConceptName, body)
            }
            ExprKind::Model(decl, body) => {
                let (kind, undo) = self.enter_model(decl)?;
                (kind, undo, body)
            }
            ExprKind::TypeAlias(name, ty, body) => {
                // Aliases are fully transparent: occurrences expand at
                // resolution time, so the alias name never appears in any
                // type that escapes this scope.
                let rhs = self.resolve_ty(ty, span)?;
                let n = self.ty_vars.len();
                self.ty_vars.push((*name, Some(rhs)));
                (
                    FrameKind::TypeAlias(*name, ty.clone()),
                    Undo::TyVars(n),
                    body,
                )
            }
            ExprKind::Let(x, bound, body) => {
                let (bty, bterm, belab) = self.check_elab(bound)?;
                self.vars.push((*x, bty));
                (FrameKind::Let(*x, bterm, belab), Undo::Var, body)
            }
            _ => {
                return self.err(
                    ErrorKind::Internal("expected a declaration".to_owned()),
                    span,
                )
            }
        };
        Ok((Frame { kind, span }, undo, body))
    }

    /// Takes a declaration back out of scope once its body is checked;
    /// `ok` says whether the body checked.
    fn leave_decl(&mut self, undo: Undo, ok: bool) {
        match undo {
            Undo::ConceptName => {
                self.concept_names.pop();
            }
            Undo::TyVars(n) => self.ty_vars.truncate(n),
            Undo::Var => {
                self.vars.pop();
            }
            Undo::Model(saved, sp) => {
                self.restore(*saved);
                self.close_spine(&[sp], ok);
            }
        }
    }

    /// Enters a model declaration (the MDL rule): checks it, assembles
    /// its dictionary, and brings the model into scope. The
    /// `dict_build` span stays open over the body; `leave_decl` closes
    /// it.
    fn enter_model(&mut self, decl: &ModelDecl) -> Result<(FrameKind, Undo), CheckError> {
        let sp = self.tracer.begin_with("dict_build", || {
            vec![
                ("concept", decl.concept.to_string().into()),
                ("parameterized", u64::from(!decl.params.is_empty()).into()),
                ("span_start", decl.span.start.into()),
                ("span_end", decl.span.end.into()),
            ]
        });
        match self.enter_model_inner(decl) {
            Ok((kind, saved)) => Ok((kind, Undo::Model(Box::new(saved), sp))),
            Err(e) => {
                self.close_spine(&[sp], false);
                Err(e)
            }
        }
    }

    #[allow(clippy::redundant_closure_call)]
    fn enter_model_inner(&mut self, decl: &ModelDecl) -> Result<(FrameKind, Saved), CheckError> {
        let span = decl.span;
        let cid = self
            .lookup_concept(decl.concept)
            .ok_or_else(|| CheckError::new(ErrorKind::UnknownConcept(decl.concept), span))?;
        let info = self.concepts.get(cid).clone();
        if info.params.len() != decl.args.len() {
            return self.err(
                ErrorKind::ArityMismatch {
                    what: format!("concept `{}`", decl.concept),
                    expected: info.params.len(),
                    found: decl.args.len(),
                },
                span,
            );
        }
        distinct(&decl.params, span)?;
        let parameterized = !decl.params.is_empty();
        let dict_name = self.names.fresh(decl.concept);

        // Check the declaration inside its own scope: for a parameterized
        // model the parameters are in scope and the declaration's where
        // clause provides proxy models (exactly like a `biglam` body).
        let decl_saved = self.save();
        let decl_result = (|| {
            self.ty_vars.extend(decl.params.iter().map(|v| (*v, None)));
            let rconstraints = decl
                .constraints
                .iter()
                .map(|c| self.resolve_constraint(c, span))
                .collect::<Result<Vec<_>, _>>()?;
            let scope = self.enter_where(&rconstraints, true, span)?;
            let args = decl
                .args
                .iter()
                .map(|a| self.resolve_ty(a, span))
                .collect::<Result<Vec<_>, _>>()?;

            // Every quantified parameter must occur in the head
            // arguments: resolution binds parameters by first-order
            // matching against the head (§6), so an absent parameter can
            // never be determined and the model could never be used.
            for p in &decl.params {
                if !args.iter().any(|a| a.free_vars().contains(p)) {
                    return self.err(
                        ErrorKind::UnusedModelParam {
                            concept: decl.concept,
                            param: *p,
                        },
                        span,
                    );
                }
            }

            // Associated-type assignments and member bodies.
            let mut assoc: Vec<(Symbol, RTy)> = Vec::new();
            let mut member_bodies: Vec<(Symbol, &Expr)> = Vec::new();
            for item in &decl.items {
                match item {
                    ModelItem::AssocType(name, ty) => {
                        if !info.assoc_types.contains(name) {
                            return self.err(
                                ErrorKind::UnknownAssocType {
                                    concept: decl.concept,
                                    name: *name,
                                },
                                span,
                            );
                        }
                        if assoc.iter().any(|(n, _)| n == name) {
                            return self.err(ErrorKind::DuplicateModelItem(*name), span);
                        }
                        let rty = self.resolve_ty(ty, span)?;
                        assoc.push((*name, rty));
                    }
                    ModelItem::Member(name, e) => {
                        if info.member(*name).is_none() {
                            return self.err(
                                ErrorKind::UnknownMemberInModel {
                                    concept: decl.concept,
                                    member: *name,
                                },
                                span,
                            );
                        }
                        if member_bodies.iter().any(|(n, _)| n == name) {
                            return self.err(ErrorKind::DuplicateModelItem(*name), span);
                        }
                        member_bodies.push((*name, e));
                    }
                }
            }
            for &a in &info.assoc_types {
                if !assoc.iter().any(|(n, _)| *n == a) {
                    return self.err(
                        ErrorKind::MissingAssocAssignment {
                            concept: decl.concept,
                            name: a,
                        },
                        span,
                    );
                }
            }

            // The model substitution S: concept params → args, assoc names
            // → their assignments.
            let mut s: HashMap<Symbol, RTy> = info
                .params
                .iter()
                .copied()
                .zip(args.iter().cloned())
                .collect();
            for (n, t) in &assoc {
                s.insert(*n, t.clone());
            }

            // Refined and required concepts must have models in scope (the
            // declaration's own constraint proxies count).
            let mut child_terms: Vec<Term> = Vec::new();
            for (rc, rargs) in info.refines.iter().chain(&info.requires) {
                let inst_args: Vec<RTy> = rargs.iter().map(|a| subst(a, &s)).collect();
                let Some(rm) = self.resolve_model_at(*rc, &inst_args, false, "model_decl") else {
                    return self.err(
                        ErrorKind::MissingRefinedModel {
                            concept: self.concepts.name(*rc),
                            args: inst_args,
                        },
                        span,
                    );
                };
                child_terms.push(rm.term);
            }

            // Same-type requirements of the concept must hold.
            for (lhs, rhs) in &info.same {
                let il = subst(lhs, &s);
                let ir = subst(rhs, &s);
                let holds = self.types_equal(&il, &ir);
                self.trace_same_type(&il, &ir, holds, "model_decl");
                if !holds {
                    return self.err(ErrorKind::SameTypeViolation(il, ir), span);
                }
            }

            // Check each member (in concept order), building the let-chain
            // of member bindings for the dictionary.
            let mut locals: Vec<(Symbol, Symbol)> = Vec::new();
            let mut bindings: Vec<(Symbol, Term)> = Vec::new();
            let mut elab_members: Vec<(Symbol, Expr)> = Vec::new();
            for m in &info.members {
                let expected = subst(&m.ty, &s);
                let (found_ty, term) = if let Some((_, e)) =
                    member_bodies.iter().find(|(n, _)| *n == m.name)
                {
                    let (fty, ft, felab) = self.check_elab(e)?;
                    elab_members.push((m.name, felab));
                    (fty, ft)
                } else if let Some(default) = &m.default {
                    // Defaults were written inside the concept declaration,
                    // so they mention the concept's parameters and
                    // associated types by name. Bind those names as type
                    // variables equal to (but never chosen as
                    // representatives over) the model's arguments, and let
                    // the body see the under-construction model so it can
                    // use earlier members via `C<t̄>.x`.
                    let saved = self.save();
                    self.push_model(ModelEntry {
                        concept: cid,
                        args: args.clone(),
                        dict: dict_name,
                        path: Vec::new(),
                        assoc: assoc.clone(),
                        under_construction: Some(locals.clone()),
                        params: decl.params.clone(),
                        constraints: rconstraints.clone(),
                        decl_span: span,
                        is_proxy: false,
                    });
                    // Hygiene: the concept's parameter and associated-type
                    // names may collide with type variables in scope (in
                    // particular a parameterized model's own parameters),
                    // so bind *fresh* names and alpha-rename the default
                    // body accordingly.
                    let mut rename: HashMap<Symbol, Symbol> = HashMap::new();
                    for (p, a) in info.params.iter().zip(&args) {
                        let fresh = self.names.fresh(*p);
                        rename.insert(*p, fresh);
                        self.ty_vars.push((fresh, None));
                        self.teq.ban_representative(fresh);
                        self.teq.assert_eq(&RTy::Var(fresh), a);
                    }
                    for (n, t) in &assoc {
                        let fresh = self.names.fresh(*n);
                        rename.insert(*n, fresh);
                        self.ty_vars.push((fresh, None));
                        self.teq.ban_representative(fresh);
                        self.teq.assert_eq(&RTy::Var(fresh), t);
                    }
                    let default = crate::ast::rename_ty_vars_expr(default, &rename);
                    // Verify the member type while the parameter
                    // equalities are still in force, then report it as the
                    // instantiated concept type.
                    let result = self.check(&default).and_then(|(found, term)| {
                        if self.types_equal(&found, &expected) {
                            Ok((expected.clone(), term))
                        } else {
                            Err(CheckError::new(
                                ErrorKind::MemberTypeMismatch {
                                    member: m.name,
                                    expected: expected.clone(),
                                    found,
                                },
                                span,
                            ))
                        }
                    });
                    self.restore(saved);
                    result?
                } else {
                    return self.err(
                        ErrorKind::MissingMember {
                            concept: decl.concept,
                            member: m.name,
                        },
                        span,
                    );
                };
                if !self.types_equal(&found_ty, &expected) {
                    return self.err(
                        ErrorKind::MemberTypeMismatch {
                            member: m.name,
                            expected,
                            found: found_ty,
                        },
                        span,
                    );
                }
                let local = self.names.fresh(m.name);
                locals.push((m.name, local));
                bindings.push((local, term));
            }
            Ok((rconstraints, scope, args, assoc, child_terms, bindings, elab_members))
        })();
        self.restore(decl_saved);
        let (rconstraints, scope, args, assoc, child_terms, bindings, elab_members) =
            decl_result?;

        // Assemble the dictionary: let m_i = e_i in tuple(children…, m̄),
        // wrapped in a type/dictionary abstraction when parameterized.
        self.stats.dicts_built += 1;
        self.tracer.instant_with("dict_assembled", || {
            vec![
                ("dict", dict_name.to_string().into()),
                ("children", child_terms.len().into()),
                ("members", bindings.len().into()),
            ]
        });
        let mut dict_items: Vec<Term> =
            Vec::with_capacity(child_terms.len() + bindings.len());
        dict_items.extend(child_terms);
        for (local, _) in &bindings {
            dict_items.push(Term::Var(*local));
        }
        let mut inner = Term::Tuple(dict_items);
        for (local, binding) in bindings.into_iter().rev() {
            inner = Term::let_(local, binding, inner);
        }
        let dict_value = if parameterized {
            let mut binders = decl.params.clone();
            binders.extend(scope.assoc_binders.iter().copied());
            let with_dicts = if scope.dict_names.is_empty() {
                inner
            } else {
                Term::Lam(
                    scope
                        .dict_names
                        .iter()
                        .copied()
                        .zip(scope.dict_tys.iter().cloned())
                        .collect(),
                    Box::new(inner),
                )
            };
            Term::TyAbs(binders, Box::new(with_dicts))
        } else {
            inner
        };

        // Rebuild the declaration with elaborated member bodies (defaults
        // stay in the concept and are elaborated per model at check time).
        let items = decl
            .items
            .iter()
            .map(|item| match item {
                ModelItem::AssocType(n, t) => ModelItem::AssocType(*n, t.clone()),
                ModelItem::Member(n, orig) => {
                    match elab_members.iter().find(|(m, _)| m == n) {
                        Some((_, elab)) => ModelItem::Member(*n, elab.clone()),
                        None => ModelItem::Member(*n, orig.clone()),
                    }
                }
            })
            .collect();
        let elab_decl = ModelDecl {
            params: decl.params.clone(),
            constraints: decl.constraints.clone(),
            concept: decl.concept,
            args: decl.args.clone(),
            items,
            span: decl.span,
        };

        // Enter the model's scope for the body: ordinary models assert
        // their associated-type equalities (parameterized ones are handled
        // by normalization at lookup time), then register the entry.
        let saved = self.save();
        if !parameterized {
            for (n, t) in &assoc {
                let proj = RTy::Assoc {
                    concept: cid,
                    concept_name: decl.concept,
                    args: args.clone(),
                    name: *n,
                };
                self.teq.assert_eq(&proj, t);
            }
        }
        self.push_model(ModelEntry {
            concept: cid,
            args,
            dict: dict_name,
            path: Vec::new(),
            assoc,
            under_construction: None,
            params: decl.params.clone(),
            constraints: rconstraints,
            decl_span: span,
            is_proxy: false,
        });
        Ok((
            FrameKind::Model(dict_name, dict_value, Box::new(elab_decl)),
            saved,
        ))
    }
}

/// A checked declaration's share of the translation and the
/// elaboration: what [`Frame::wrap`] puts around its body's.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    kind: FrameKind,
    /// The declaration expression's span.
    span: Span,
}

#[derive(Debug, Clone)]
enum FrameKind {
    /// Concepts leave no trace in the translation.
    Concept(Box<ConceptDecl>),
    /// Type aliases leave no trace in the translation either.
    TypeAlias(Symbol, FgTy),
    /// `let x = e`: the translated and the elaborated bound term.
    Let(Symbol, Term, Expr),
    /// A model: its dictionary's name and value, and the declaration
    /// with elaborated member bodies.
    Model(Symbol, Term, Box<ModelDecl>),
}

impl Frame {
    /// The declaration's translation and elaboration around its body's.
    pub(crate) fn wrap(self, term: Term, elab: Expr) -> (Term, Expr) {
        match self.kind {
            FrameKind::Concept(decl) => (
                term,
                Expr::spanned(ExprKind::Concept(decl, Box::new(elab)), self.span),
            ),
            FrameKind::TypeAlias(name, ty) => (
                term,
                Expr::spanned(ExprKind::TypeAlias(name, ty, Box::new(elab)), self.span),
            ),
            FrameKind::Let(x, bterm, belab) => (
                Term::let_(x, bterm, term),
                Expr::spanned(ExprKind::Let(x, Box::new(belab), Box::new(elab)), self.span),
            ),
            FrameKind::Model(dict, value, decl) => (
                Term::let_(dict, value, term),
                Expr::spanned(ExprKind::Model(decl, Box::new(elab)), self.span),
            ),
        }
    }
}

/// What entering a declaration added to the checker's scope.
enum Undo {
    ConceptName,
    TyVars(usize),
    Var,
    /// The scope before the model, and its open `dict_build` span.
    Model(Box<Saved>, SpanId),
}

/// Charges one checked expression node against `budget`: a unit of
/// fuel, a level of depth (held while the guard lives), and a visit of
/// the `check.expr` fault point.
fn visit(budget: &Budget, span: Span) -> Result<DepthGuard<'_>, CheckError> {
    budget
        .charge_fuel(1)
        .map_err(|x| exhausted_err(x, "check", span))?;
    let depth = budget
        .enter()
        .map_err(|x| exhausted_err(x, "check", span))?;
    match fault::hit("check.expr") {
        None => Ok(depth),
        Some(FaultMode::Error) => Err(exhausted_err(
            budget.trip(Resource::Injected, 0),
            "check",
            span,
        )),
        Some(FaultMode::Panic) => panic!("injected fault panic at check.expr"),
    }
}

/// The `outcome` attribute of a closed checker span.
fn outcome(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "error"
    }
}

/// The F_G type scheme of a primitive (mirrors [`Prim::ty`]).
pub fn prim_rty(p: Prim) -> RTy {
    let t = Symbol::intern("t");
    let tv = || RTy::Var(t);
    let poly = |body: RTy| RTy::Forall {
        vars: vec![t],
        constraints: vec![],
        body: Box::new(body),
    };
    match p {
        Prim::IAdd | Prim::ISub | Prim::IMult => RTy::func(vec![RTy::Int, RTy::Int], RTy::Int),
        Prim::INeg => RTy::func(vec![RTy::Int], RTy::Int),
        Prim::IEq | Prim::ILt | Prim::ILe => RTy::func(vec![RTy::Int, RTy::Int], RTy::Bool),
        Prim::BNot => RTy::func(vec![RTy::Bool], RTy::Bool),
        Prim::BAnd | Prim::BOr | Prim::BEq => {
            RTy::func(vec![RTy::Bool, RTy::Bool], RTy::Bool)
        }
        Prim::Nil => poly(RTy::list(tv())),
        Prim::Cons => poly(RTy::func(vec![tv(), RTy::list(tv())], RTy::list(tv()))),
        Prim::Car => poly(RTy::func(vec![RTy::list(tv())], tv())),
        Prim::Cdr => poly(RTy::func(vec![RTy::list(tv())], RTy::list(tv()))),
        Prim::Null => poly(RTy::func(vec![RTy::list(tv())], RTy::Bool)),
    }
}

fn distinct(names: &[Symbol], span: Span) -> Result<(), CheckError> {
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            return Err(CheckError::new(ErrorKind::DuplicateBinder(*n), span));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_payloads_become_internal_errors() {
        // `check_program` converts a checker-thread panic into a
        // structured `Internal` error instead of re-panicking the
        // caller; both payload shapes `panic!` produces are handled.
        let from_str: Box<dyn std::any::Any + Send> = Box::new("str payload");
        let from_string: Box<dyn std::any::Any + Send> = Box::new("string payload".to_owned());
        let from_other: Box<dyn std::any::Any + Send> = Box::new(17u32);
        for (payload, needle) in [
            (from_str, "str payload"),
            (from_string, "string payload"),
            (from_other, "checker thread panicked"),
        ] {
            let err = panic_to_error(&*payload);
            assert!(
                matches!(&err.kind, ErrorKind::Internal(msg) if msg.contains(needle)),
                "{err}"
            );
        }
    }

    #[test]
    fn stats_survive_scope_restore() {
        // Checking a `biglam` body happens in a saved/restored scope;
        // the congruence work done inside must still be visible in the
        // final counters.
        let src = "
            concept S<t> { op : fn(t, t) -> t; } in
            model S<int> { op = iadd; } in
            (biglam t where S<t>. lam x: t. S<t>.op(x, x))[int](21)";
        let expr = crate::parser::parse_expr(src).unwrap();
        let compiled = check_program(&expr).unwrap();
        let cs = compiled.check_stats;
        assert!(cs.model_lookups > 0, "{cs:?}");
        assert_eq!(cs.model_lookups, cs.model_hits + cs.model_misses, "{cs:?}");
        // Every hit examined at least one same-concept index entry
        // (misses on concepts with no models in scope scan nothing).
        assert!(cs.candidates_scanned >= cs.model_hits, "{cs:?}");
        assert_eq!(cs.dicts_built, 1, "{cs:?}");
        assert!(cs.max_scope_depth >= 1, "{cs:?}");
        // The congruence work happens inside the biglam's saved/restored
        // scope; `restore` must fold it back in rather than dropping it.
        let ts = compiled.type_eq_stats;
        assert!(ts.finds > 0, "{ts:?}");
        assert!(ts.resolves > 0, "{ts:?}");
        assert!(ts.term_bank_peak > 0, "{ts:?}");
    }
}
