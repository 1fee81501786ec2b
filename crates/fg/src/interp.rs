//! A direct big-step interpreter for F_G.
//!
//! The paper gives F_G its semantics by translation to System F. This
//! module implements the *intended* semantics directly — models are
//! runtime records resolved at instantiation time by lexically scoped
//! lookup — so the two execution paths can be tested against each other:
//! for every well-typed program, [`run_direct`] and "translate, then
//! [`system_f::eval`]" must agree (see `tests/differential.rs` and the
//! differential property test).
//!
//! The interpreter assumes its input has already been typechecked; on
//! ill-typed input it fails with a [`RuntimeError`] rather than undefined
//! behaviour.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use system_f::{Prim, Symbol};
use telemetry::fault::{self, FaultMode};
use telemetry::limits::{Budget, Exhausted, Resource};
use telemetry::trace::Tracer;

use crate::ast::{ConceptItem, Constraint, Expr, ExprKind, FgTy, ModelItem};
use crate::concepts::{ConceptInfo, ConceptTable, MemberSig};
use crate::rty::{subst, ConceptId, RTy};

/// A runtime value of the direct interpreter.
#[derive(Debug, Clone)]
pub enum DValue {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A cons list.
    List(DList),
    /// A function closure.
    Closure {
        /// Parameter names.
        params: Vec<Symbol>,
        /// The body.
        body: Rc<Expr>,
        /// The captured environment.
        env: DEnv,
    },
    /// A recursive function from `fix x. lam …`: cycle-free — each
    /// application re-binds `name` rather than capturing itself.
    RecClosure {
        /// The `fix`-bound name.
        name: Symbol,
        /// Parameter names.
        params: Vec<Symbol>,
        /// The body.
        body: Rc<Expr>,
        /// The captured environment (without the recursive binding).
        env: DEnv,
    },
    /// A suspended type abstraction, capturing its where clause.
    TyClosure {
        /// Bound type variables.
        vars: Vec<Symbol>,
        /// The where clause (resolved at instantiation time).
        constraints: Vec<Constraint>,
        /// The body.
        body: Rc<Expr>,
        /// The captured environment.
        env: DEnv,
    },
    /// A primitive.
    Prim(Prim),
}

impl DValue {
    /// Structural agreement with a System F value (closures compare by
    /// shape only — use first-order results for definite answers).
    pub fn agrees_with(&self, other: &system_f::Value) -> bool {
        match (self, other) {
            (DValue::Int(a), system_f::Value::Int(b)) => a == b,
            (DValue::Bool(a), system_f::Value::Bool(b)) => a == b,
            (DValue::List(a), system_f::Value::List(b)) => {
                let av: Vec<&DValue> = a.iter().collect();
                let bv: Vec<&system_f::Value> = b.iter().collect();
                av.len() == bv.len() && av.iter().zip(bv).all(|(x, y)| x.agrees_with(y))
            }
            (
                DValue::Closure { .. } | DValue::RecClosure { .. } | DValue::TyClosure { .. },
                _,
            ) => matches!(
                other,
                system_f::Value::Closure { .. }
                    | system_f::Value::RecClosure { .. }
                    | system_f::Value::TyClosure { .. }
            ),
            (DValue::Prim(a), system_f::Value::Prim(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for DValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DValue::Int(n) => write!(f, "{n}"),
            DValue::Bool(b) => write!(f, "{b}"),
            DValue::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            DValue::Closure { .. } => write!(f, "<closure>"),
            DValue::RecClosure { .. } => write!(f, "<closure>"),
            DValue::TyClosure { .. } => write!(f, "<tyclosure>"),
            DValue::Prim(p) => write!(f, "{}", p.name()),
        }
    }
}

/// A persistent cons list of [`DValue`]s.
#[derive(Debug, Clone, Default)]
pub struct DList(Option<Rc<(DValue, DList)>>);

impl DList {
    /// The empty list.
    pub fn nil() -> DList {
        DList(None)
    }

    /// Prepends an element.
    pub fn cons(head: DValue, tail: DList) -> DList {
        DList(Some(Rc::new((head, tail))))
    }

    /// Head and tail, or `None` when empty.
    pub fn uncons(&self) -> Option<(&DValue, &DList)> {
        self.0.as_deref().map(|n| (&n.0, &n.1))
    }

    /// Whether the list is empty.
    pub fn is_nil(&self) -> bool {
        self.0.is_none()
    }

    /// Front-to-back iteration.
    pub fn iter(&self) -> DListIter<'_> {
        DListIter(self)
    }
}

/// Iterator over a [`DList`].
#[derive(Debug)]
pub struct DListIter<'a>(&'a DList);

impl<'a> Iterator for DListIter<'a> {
    type Item = &'a DValue;

    fn next(&mut self) -> Option<&'a DValue> {
        let (h, t) = self.0.uncons()?;
        self.0 = t;
        Some(h)
    }
}

/// A model at runtime: the direct-semantics analogue of a dictionary.
#[derive(Debug)]
pub struct RtModel {
    /// The modeled concept.
    pub concept: ConceptId,
    /// Closed, normalized type arguments.
    pub args: Vec<RTy>,
    /// Associated-type assignments (closed, normalized).
    pub assoc: Vec<(Symbol, RTy)>,
    /// Models of the refined / required concepts, in declaration order.
    pub children: Vec<Rc<RtModel>>,
    /// Member values in concept declaration order. `RefCell` so the record
    /// can be visible while defaults are still being evaluated.
    pub members: RefCell<Vec<(Symbol, DValue)>>,
}

/// A parameterized model at runtime: a model *template* capturing its
/// declaration environment, instantiated afresh at each matching lookup
/// (mirroring the translation's dictionary constructor).
#[derive(Debug)]
pub struct RtParamModel {
    /// The modeled concept.
    pub concept: ConceptId,
    /// The universally quantified parameters.
    pub params: Vec<Symbol>,
    /// The declaration's where clause (concept constraints are resolved at
    /// each use against the *use-site* models, as in the typechecker).
    pub constraints: Vec<Constraint>,
    /// Argument patterns, open in `params`.
    pub pattern: Vec<RTy>,
    /// The surface declaration (items re-elaborated per instantiation).
    pub decl: Rc<crate::ast::ModelDecl>,
    /// The captured declaration environment.
    pub env: DEnv,
}

/// A model-scope entry: either a ready model or a parameterized template.
#[derive(Debug, Clone)]
enum RtEntry {
    Concrete(Rc<RtModel>),
    Param(Rc<RtParamModel>),
}

/// The interpreter's lexical environment.
///
/// A closure captures it wholesale, which is what gives models and
/// concepts their lexical scope in the direct semantics.
#[derive(Debug, Clone, Default)]
pub struct DEnv {
    vals: ValChain,
    tyenv: Rc<Vec<(Symbol, RTy)>>,
    concepts: Rc<Vec<(Symbol, ConceptId)>>,
    models: Rc<Vec<RtEntry>>,
    table: Rc<RefCell<ConceptTable>>,
    /// Work counters shared by every environment derived from one root
    /// (closures capture the environment, so the whole run reports into
    /// the same cells).
    stats: Rc<StatsCell>,
    /// Structured-trace handle shared the same way; disabled by default.
    tracer: Tracer,
    /// Shared resource budget (unlimited by default): fuel per evaluated
    /// expression, recursion depth, and the wall-clock deadline.
    budget: Arc<Budget>,
}

/// Shared mutable counters behind [`EvalStats`]; `Cell` keeps the hot
/// interpreter loop free of borrow-flag bookkeeping.
#[derive(Debug, Default)]
struct StatsCell {
    eval_steps: Cell<u64>,
    model_lookups: Cell<u64>,
    model_hits: Cell<u64>,
    model_misses: Cell<u64>,
    candidates_scanned: Cell<u64>,
    max_scope_depth: Cell<u64>,
    dicts_built: Cell<u64>,
    dict_instantiations: Cell<u64>,
}

fn inc(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl StatsCell {
    fn snapshot(&self) -> EvalStats {
        EvalStats {
            eval_steps: self.eval_steps.get(),
            model_lookups: self.model_lookups.get(),
            model_hits: self.model_hits.get(),
            model_misses: self.model_misses.get(),
            candidates_scanned: self.candidates_scanned.get(),
            max_scope_depth: self.max_scope_depth.get(),
            dicts_built: self.dicts_built.get(),
            dict_instantiations: self.dict_instantiations.get(),
        }
    }
}

/// Work counters for one direct-interpreter run; the runtime analogue of
/// [`crate::check::CheckStats`] (the translated lane resolves models at
/// compile time, this lane at run time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Expressions evaluated.
    pub eval_steps: u64,
    /// Model lookups performed (member accesses, constraint satisfaction
    /// at instantiation, associated-type normalization, and recursive
    /// lookups for parameterized-model constraints).
    pub model_lookups: u64,
    /// Lookups that found a model.
    pub model_hits: u64,
    /// Lookups that found none (includes normalization probes for
    /// projections with no matching model in scope).
    pub model_misses: u64,
    /// Scope entries examined across all lookups.
    pub candidates_scanned: u64,
    /// Deepest model scope observed at any lookup (gauge, in entries).
    pub max_scope_depth: u64,
    /// Model dictionaries (runtime model records) built.
    pub dicts_built: u64,
    /// Parameterized-model templates instantiated at lookup sites.
    pub dict_instantiations: u64,
}

/// Persistent association list for values (the hot path).
#[derive(Debug, Clone, Default)]
struct ValChain(Option<Rc<ValNode>>);

#[derive(Debug)]
struct ValNode {
    name: Symbol,
    value: RefCell<Option<DValue>>,
    next: ValChain,
}

impl DEnv {
    fn bind(&self, name: Symbol, value: DValue) -> DEnv {
        let mut e = self.clone();
        e.vals = ValChain(Some(Rc::new(ValNode {
            name,
            value: RefCell::new(Some(value)),
            next: e.vals.clone(),
        })));
        e
    }

    fn bind_uninit(&self, name: Symbol) -> DEnv {
        let mut e = self.clone();
        e.vals = ValChain(Some(Rc::new(ValNode {
            name,
            value: RefCell::new(None),
            next: e.vals.clone(),
        })));
        e
    }

    fn lookup(&self, name: Symbol) -> Result<DValue, RuntimeError> {
        let mut cur = &self.vals;
        while let Some(node) = &cur.0 {
            if node.name == name {
                return node
                    .value
                    .borrow()
                    .clone()
                    .ok_or(RuntimeError::FixForcedEarly(name));
            }
            cur = &node.next;
        }
        Err(RuntimeError::UnboundVar(name))
    }

    fn bind_ty(&self, name: Symbol, ty: RTy) -> DEnv {
        let mut e = self.clone();
        let mut v = (*e.tyenv).clone();
        v.push((name, ty));
        e.tyenv = Rc::new(v);
        e
    }

    fn lookup_ty(&self, name: Symbol) -> Option<RTy> {
        self.tyenv
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t.clone())
    }

    fn bind_concept(&self, name: Symbol, id: ConceptId) -> DEnv {
        let mut e = self.clone();
        let mut v = (*e.concepts).clone();
        v.push((name, id));
        e.concepts = Rc::new(v);
        e
    }

    fn lookup_concept(&self, name: Symbol) -> Option<ConceptId> {
        self.concepts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, id)| *id)
    }

    fn push_model(&self, model: Rc<RtModel>) -> DEnv {
        let mut e = self.clone();
        let mut v = (*e.models).clone();
        v.push(RtEntry::Concrete(model));
        e.models = Rc::new(v);
        e
    }

    fn push_param_model(&self, model: Rc<RtParamModel>) -> DEnv {
        let mut e = self.clone();
        let mut v = (*e.models).clone();
        v.push(RtEntry::Param(model));
        e.models = Rc::new(v);
        e
    }

    /// Pushes a model and, transitively, all its children (the direct
    /// analogue of the translation's `bm` registering refinement proxies).
    fn push_model_tree(&self, model: Rc<RtModel>) -> DEnv {
        let mut env = self.push_model(Rc::clone(&model));
        for child in &model.children {
            env = env.push_model_tree(Rc::clone(child));
        }
        env
    }
}

/// A runtime failure of the direct interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Variable not in the environment.
    UnboundVar(Symbol),
    /// Applied a non-function.
    NotAFunction,
    /// Argument-count mismatch.
    ArityMismatch,
    /// Primitive applied to the wrong shape of value.
    PrimArg(Prim),
    /// `car`/`cdr` of the empty list.
    EmptyList(Prim),
    /// `if` on a non-boolean.
    CondNotBool,
    /// A `fix` body demanded its own value too early.
    FixForcedEarly(Symbol),
    /// Concept name not in scope (ill-typed input).
    UnknownConcept(Symbol),
    /// No model found at instantiation (ill-typed input).
    NoModel(Symbol),
    /// Member not found in a model (ill-typed input).
    UnknownMember(Symbol),
    /// A type variable escaped (ill-typed input).
    UnboundTyVar(Symbol),
    /// A configured resource budget (fuel, depth, or wall clock) was
    /// exhausted; evaluation stopped cleanly.
    ResourceExhausted(Exhausted),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            RuntimeError::NotAFunction => write!(f, "applied a non-function"),
            RuntimeError::ArityMismatch => write!(f, "wrong number of arguments"),
            RuntimeError::PrimArg(p) => write!(f, "bad argument to `{}`", p.name()),
            RuntimeError::EmptyList(p) => write!(f, "`{}` of empty list", p.name()),
            RuntimeError::CondNotBool => write!(f, "non-boolean condition"),
            RuntimeError::FixForcedEarly(x) => write!(f, "`{x}` forced before defined"),
            RuntimeError::UnknownConcept(c) => write!(f, "unknown concept `{c}`"),
            RuntimeError::NoModel(c) => write!(f, "no model for `{c}` at runtime"),
            RuntimeError::UnknownMember(m) => write!(f, "unknown member `{m}`"),
            RuntimeError::UnboundTyVar(t) => write!(f, "unbound type variable `{t}`"),
            RuntimeError::ResourceExhausted(x) => write!(f, "evaluation stopped: {x}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Runs a (well-typed) F_G program directly: [`run_direct_budgeted`]
/// under a fresh unlimited budget, with tracing off.
///
/// # Errors
///
/// As [`run_direct_budgeted`].
///
/// ```
/// use fg::interp::{run_direct, DValue};
/// use fg::parser::parse_expr;
///
/// let e = parse_expr("iadd(40, 2)").unwrap();
/// assert!(matches!(run_direct(&e), Ok(DValue::Int(42))));
/// ```
pub fn run_direct(e: &Expr) -> Result<DValue, RuntimeError> {
    run_direct_budgeted(e, Tracer::disabled(), Arc::new(Budget::unlimited())).map(|(v, _)| v)
}

/// Runs a (well-typed) F_G program directly under a shared resource
/// budget and reports the work done. Every evaluated expression charges
/// fuel, recursion depth is bounded, and the wall-clock deadline is
/// polled, so a divergent program (Ω) stops with
/// [`RuntimeError::ResourceExhausted`] instead of running forever. When
/// `tracer` is enabled, the run emits the same model-resolution event
/// vocabulary as the typechecker (`model_resolve` spans with `candidate`
/// / `candidate_rejected` / `model_selected` instants, `instantiate` and
/// `dict_build` spans), letting tooling diff decision sequences across
/// the two evaluation lanes.
///
/// # Errors
///
/// Returns a [`RuntimeError`] for partial primitives, ill-founded `fix`,
/// any failure caused by feeding it an ill-typed program, or
/// [`RuntimeError::ResourceExhausted`].
pub fn run_direct_budgeted(
    e: &Expr,
    tracer: Tracer,
    budget: Arc<Budget>,
) -> Result<(DValue, EvalStats), RuntimeError> {
    let env = DEnv {
        tracer,
        budget,
        ..DEnv::default()
    };
    let v = eval(e, &env)?;
    Ok((v, env.stats.snapshot()))
}

/// Renders type arguments for trace attributes exactly as the checker does
/// (`<int, list t>`), so cross-lane event sequences compare textually.
fn render_args(args: &[RTy]) -> String {
    let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    format!("<{}>", parts.join(", "))
}

/// Resolves a surface type to a *closed* normalized type under the runtime
/// environment: type variables are substituted from the instantiation
/// environment and associated-type projections are resolved through the
/// models in scope.
fn resolve_closed(ty: &FgTy, env: &DEnv) -> Result<RTy, RuntimeError> {
    let r = match ty {
        FgTy::Var(v) => env.lookup_ty(*v).ok_or(RuntimeError::UnboundTyVar(*v))?,
        FgTy::Int => RTy::Int,
        FgTy::Bool => RTy::Bool,
        FgTy::List(t) => RTy::list(resolve_closed(t, env)?),
        FgTy::Fn(ps, ret) => RTy::Fn(
            ps.iter()
                .map(|p| resolve_closed(p, env))
                .collect::<Result<Vec<_>, _>>()?,
            Box::new(resolve_closed(ret, env)?),
        ),
        FgTy::Forall {
            vars,
            constraints: _,
            body,
        } => {
            // Inside a binder only the outer variables are substituted;
            // constraint payloads do not matter for runtime equality.
            let mut inner = env.clone();
            for v in vars {
                inner = inner.bind_ty(*v, RTy::Var(*v));
            }
            RTy::Forall {
                vars: vars.clone(),
                constraints: vec![],
                body: Box::new(resolve_closed(body, &inner)?),
            }
        }
        FgTy::Assoc {
            concept,
            args,
            name,
        } => {
            let cid = env
                .lookup_concept(*concept)
                .ok_or(RuntimeError::UnknownConcept(*concept))?;
            let rargs = args
                .iter()
                .map(|a| resolve_closed(a, env))
                .collect::<Result<Vec<_>, _>>()?;
            RTy::Assoc {
                concept: cid,
                concept_name: *concept,
                args: rargs,
                name: *name,
            }
        }
    };
    Ok(normalize(&r, env))
}

/// Normalizes a closed type: resolves associated-type projections through
/// the models in scope until a fixed point (bounded for safety).
fn normalize(ty: &RTy, env: &DEnv) -> RTy {
    normalize_at(ty, env, 0)
}

fn normalize_at(ty: &RTy, env: &DEnv, depth: usize) -> RTy {
    if depth > 64 {
        return ty.clone();
    }
    match ty {
        RTy::Var(_) | RTy::Int | RTy::Bool => ty.clone(),
        RTy::List(t) => RTy::list(normalize_at(t, env, depth + 1)),
        RTy::Fn(ps, r) => RTy::Fn(
            ps.iter().map(|p| normalize_at(p, env, depth + 1)).collect(),
            Box::new(normalize_at(r, env, depth + 1)),
        ),
        RTy::Forall { .. } => ty.clone(),
        RTy::Assoc {
            concept,
            concept_name,
            args,
            name,
        } => {
            let nargs: Vec<RTy> = args
                .iter()
                .map(|a| normalize_at(a, env, depth + 1))
                .collect();
            if let Some(model) = find_model(env, *concept, &nargs, "normalize") {
                if let Some((_, t)) = model.assoc.iter().find(|(n, _)| n == name) {
                    return normalize_at(t, env, depth + 1);
                }
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

/// Newest-first model lookup with structural equality on normalized types.
/// Parameterized templates are matched against the arguments and
/// instantiated on the spot (evaluating their member bodies), so a `Some`
/// result is always a ready model. `site` tags the emitted trace events
/// with the reason for the lookup, mirroring the checker's vocabulary.
fn find_model(
    env: &DEnv,
    cid: ConceptId,
    args: &[RTy],
    site: &'static str,
) -> Option<Rc<RtModel>> {
    find_model_at(env, cid, args, 0, site)
}

fn find_model_at(
    env: &DEnv,
    cid: ConceptId,
    args: &[RTy],
    depth: usize,
    site: &'static str,
) -> Option<Rc<RtModel>> {
    inc(&env.stats.model_lookups);
    let scope_depth = env.models.len() as u64;
    if scope_depth > env.stats.max_scope_depth.get() {
        env.stats.max_scope_depth.set(scope_depth);
    }
    if depth > 32 {
        inc(&env.stats.model_misses);
        env.tracer.instant_with("lookup_depth_limit", || {
            vec![("concept", env.table.borrow().name(cid).to_string().into())]
        });
        return None;
    }
    let sp = env.tracer.begin_with("model_resolve", || {
        vec![
            ("concept", env.table.borrow().name(cid).to_string().into()),
            ("args", render_args(args).into()),
            ("site", site.into()),
            ("scope_depth", env.models.len().into()),
        ]
    });
    let out = find_model_scan(env, cid, args, depth, site);
    inc(if out.is_some() {
        &env.stats.model_hits
    } else {
        &env.stats.model_misses
    });
    env.tracer.end_with(
        sp,
        vec![(
            "outcome",
            if out.is_some() { "hit" } else { "miss" }.into(),
        )],
    );
    out
}

/// Emits the `model_selected` trace event: scope entry `index` won the
/// lookup for `C<args>` performed at `site`.
fn trace_selected(
    env: &DEnv,
    cid: ConceptId,
    args: &[RTy],
    head: &[RTy],
    site: &'static str,
    index: usize,
    parameterized: bool,
) {
    if !env.tracer.is_enabled() {
        return;
    }
    env.tracer.instant(
        "model_selected",
        vec![
            ("concept", env.table.borrow().name(cid).to_string().into()),
            ("args", render_args(args).into()),
            ("head", render_args(head).into()),
            ("site", site.into()),
            ("index", index.into()),
            ("parameterized", u64::from(parameterized).into()),
        ],
    );
}

fn find_model_scan(
    env: &DEnv,
    cid: ConceptId,
    args: &[RTy],
    depth: usize,
    site: &'static str,
) -> Option<Rc<RtModel>> {
    let reject = |i: usize, reason: &'static str| {
        env.tracer.instant_with("candidate_rejected", || {
            vec![("index", i.into()), ("reason", reason.into())]
        });
    };
    for (i, entry) in env.models.iter().enumerate().rev() {
        inc(&env.stats.candidates_scanned);
        match entry {
            RtEntry::Concrete(m) => {
                if m.concept != cid || m.args.len() != args.len() {
                    continue;
                }
                env.tracer.instant_with("candidate", || {
                    vec![
                        ("index", i.into()),
                        ("head", render_args(&m.args).into()),
                        ("parameterized", 0u64.into()),
                    ]
                });
                if m.args == args {
                    trace_selected(env, cid, args, &m.args, site, i, false);
                    return Some(Rc::clone(m));
                }
                reject(i, "args_mismatch");
            }
            RtEntry::Param(pm) => {
                if pm.concept != cid || pm.pattern.len() != args.len() {
                    continue;
                }
                env.tracer.instant_with("candidate", || {
                    vec![
                        ("index", i.into()),
                        ("head", render_args(&pm.pattern).into()),
                        ("parameterized", 1u64.into()),
                    ]
                });
                let mut sigma = HashMap::new();
                if !pm
                    .pattern
                    .iter()
                    .zip(args)
                    .all(|(p, t)| match_rty(p, t, &pm.params, &mut sigma))
                {
                    reject(i, "pattern_mismatch");
                    continue;
                }
                if !pm.params.iter().all(|p| sigma.contains_key(p)) {
                    reject(i, "pattern_mismatch");
                    continue;
                }
                if let Some(model) = instantiate_param_model(env, pm, &sigma, depth) {
                    trace_selected(env, cid, args, &pm.pattern, site, i, true);
                    return Some(model);
                }
                reject(i, "constraint_unsatisfied");
            }
        }
    }
    None
}

/// One-way structural matching of an open pattern against a closed type.
fn match_rty(
    pat: &RTy,
    tgt: &RTy,
    params: &[Symbol],
    sigma: &mut HashMap<Symbol, RTy>,
) -> bool {
    match pat {
        RTy::Var(p) if params.contains(p) => {
            if let Some(bound) = sigma.get(p) {
                bound == tgt
            } else {
                sigma.insert(*p, tgt.clone());
                true
            }
        }
        RTy::Var(a) => matches!(tgt, RTy::Var(b) if a == b),
        RTy::Int => matches!(tgt, RTy::Int),
        RTy::Bool => matches!(tgt, RTy::Bool),
        RTy::List(x) => match tgt {
            RTy::List(y) => match_rty(x, y, params, sigma),
            _ => false,
        },
        RTy::Fn(ps, r) => match tgt {
            RTy::Fn(qs, t) => {
                ps.len() == qs.len()
                    && ps.iter().zip(qs).all(|(p, q)| match_rty(p, q, params, sigma))
                    && match_rty(r, t, params, sigma)
            }
            _ => false,
        },
        RTy::Forall { .. } => pat == tgt,
        RTy::Assoc {
            concept: ca,
            args: aa,
            name: na,
            ..
        } => match tgt {
            RTy::Assoc {
                concept: cb,
                args: ab,
                name: nb,
                ..
            } => {
                ca == cb
                    && na == nb
                    && aa.len() == ab.len()
                    && aa.iter().zip(ab).all(|(x, y)| match_rty(x, y, params, sigma))
            }
            _ => false,
        },
    }
}

/// Builds a ready model from a parameterized template at a matched
/// substitution: constraint models come from the *use-site* environment,
/// member bodies evaluate in the *declaration* environment extended with
/// the parameters and those constraint models (mirroring the checker).
fn instantiate_param_model(
    use_env: &DEnv,
    pm: &RtParamModel,
    sigma: &HashMap<Symbol, RTy>,
    depth: usize,
) -> Option<Rc<RtModel>> {
    let mut env2 = pm.env.clone();
    for p in &pm.params {
        env2 = env2.bind_ty(*p, sigma[p].clone());
    }
    for c in &pm.constraints {
        if let Constraint::Model { concept, args } = c {
            let cid = env2.lookup_concept(*concept)?;
            let inst: Vec<RTy> = args
                .iter()
                .map(|a| resolve_closed(a, &env2).ok())
                .collect::<Option<Vec<_>>>()?;
            let inst: Vec<RTy> = inst.iter().map(|t| normalize(t, use_env)).collect();
            let model = find_model_at(use_env, cid, &inst, depth + 1, "constraint")?;
            env2 = env2.push_model_tree(model);
        }
    }
    let cid = pm.concept;
    let info = env2.table.borrow().get(cid).clone();
    let args: Vec<RTy> = pm.pattern.iter().map(|p| crate::rty::subst(p, sigma)).collect();
    let model = elaborate_model(&env2, cid, &info, &args, &pm.decl).ok()?;
    inc(&use_env.stats.dict_instantiations);
    Some(model)
}

/// Resolves a model declaration's items into a ready [`RtModel`]: assigns
/// associated types, locates children for refinements/requirements, and
/// evaluates member bodies (defaults see the partial model and the
/// concept's parameters bound to the arguments).
fn elaborate_model(
    env: &DEnv,
    cid: ConceptId,
    info: &ConceptInfo,
    args: &[RTy],
    decl: &crate::ast::ModelDecl,
) -> Result<Rc<RtModel>, RuntimeError> {
    let sp = env.tracer.begin_with("dict_build", || {
        vec![
            ("concept", env.table.borrow().name(cid).to_string().into()),
            ("parameterized", u64::from(!decl.params.is_empty()).into()),
            ("span_start", decl.span.start.into()),
            ("span_end", decl.span.end.into()),
        ]
    });
    let out = elaborate_model_inner(env, cid, info, args, decl);
    env.tracer.end_with(
        sp,
        vec![(
            "outcome",
            if out.is_ok() { "ok" } else { "error" }.into(),
        )],
    );
    out
}

fn elaborate_model_inner(
    env: &DEnv,
    cid: ConceptId,
    info: &ConceptInfo,
    args: &[RTy],
    decl: &crate::ast::ModelDecl,
) -> Result<Rc<RtModel>, RuntimeError> {
    let args: Vec<RTy> = args.iter().map(|t| normalize(t, env)).collect();
    let mut assoc = Vec::new();
    let mut provided: HashMap<Symbol, &Expr> = HashMap::new();
    for item in &decl.items {
        match item {
            ModelItem::AssocType(name, ty) => {
                assoc.push((*name, resolve_closed(ty, env)?));
            }
            ModelItem::Member(name, e2) => {
                provided.insert(*name, e2);
            }
        }
    }
    // Children: models of refined/required concepts, instantiated.
    let s: HashMap<Symbol, RTy> = info
        .params
        .iter()
        .copied()
        .zip(args.iter().cloned())
        .chain(assoc.iter().cloned())
        .collect();
    let mut children = Vec::new();
    for (rc, rargs) in info.refines.iter().chain(&info.requires) {
        let inst: Vec<RTy> = rargs
            .iter()
            .map(|a| normalize(&subst(a, &s), env))
            .collect();
        let name = env.table.borrow().name(*rc);
        let child = find_model(env, *rc, &inst, "model_decl").ok_or(RuntimeError::NoModel(name))?;
        children.push(child);
    }
    inc(&env.stats.dicts_built);
    env.tracer.instant_with("dict_assembled", || {
        vec![
            ("children", children.len().into()),
            ("members", info.members.len().into()),
        ]
    });
    let model = Rc::new(RtModel {
        concept: cid,
        args,
        assoc: assoc.clone(),
        children,
        members: RefCell::new(Vec::new()),
    });
    // Evaluate members in concept order; defaults see the partial model
    // plus the concept's type parameters bound to the arguments.
    for m in &info.members {
        let value = if let Some(e2) = provided.get(&m.name) {
            eval(e2, env)?
        } else if let Some(default) = &m.default {
            let mut denv = env.push_model_tree(Rc::clone(&model));
            for (p, a) in info.params.iter().zip(&model.args) {
                denv = denv.bind_ty(*p, a.clone());
            }
            for (n, t) in &assoc {
                denv = denv.bind_ty(*n, t.clone());
            }
            eval(default, &denv)?
        } else {
            return Err(RuntimeError::UnknownMember(m.name));
        };
        model.members.borrow_mut().push((m.name, value));
    }
    Ok(model)
}

/// Member lookup through a model's refinement tree, mirroring the
/// typechecker's search order: own members first, then refinement children
/// depth-first (requirement children are not searched).
fn find_member_value(table: &ConceptTable, model: &RtModel, member: Symbol) -> Option<DValue> {
    if let Some((_, v)) = model.members.borrow().iter().find(|(n, _)| *n == member) {
        return Some(v.clone());
    }
    let info = table.get(model.concept);
    for (i, _) in info.refines.iter().enumerate() {
        if let Some(v) = find_member_value(table, &model.children[i], member) {
            return Some(v);
        }
    }
    None
}

fn eval(e: &Expr, env: &DEnv) -> Result<DValue, RuntimeError> {
    inc(&env.stats.eval_steps);
    env.budget
        .charge_fuel(1)
        .map_err(RuntimeError::ResourceExhausted)?;
    let _depth = env.budget.enter().map_err(RuntimeError::ResourceExhausted)?;
    match fault::hit("interp.eval") {
        None => {}
        Some(FaultMode::Error) => {
            env.budget.trip(Resource::Injected, 0);
            return Err(RuntimeError::ResourceExhausted(Exhausted {
                resource: Resource::Injected,
                limit: 0,
            }));
        }
        Some(FaultMode::Panic) => panic!("injected fault panic at interp.eval"),
    }
    match &e.kind {
        ExprKind::Var(x) => env.lookup(*x),
        ExprKind::IntLit(n) => Ok(DValue::Int(*n)),
        ExprKind::BoolLit(b) => Ok(DValue::Bool(*b)),
        ExprKind::Prim(p) => Ok(DValue::Prim(*p)),
        ExprKind::App(f, args) => {
            let fv = eval(f, env)?;
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval(a, env)?);
            }
            apply(fv, argv)
        }
        ExprKind::Lam(params, body) => Ok(DValue::Closure {
            params: params.iter().map(|(n, _)| *n).collect(),
            body: Rc::new((**body).clone()),
            env: env.clone(),
        }),
        ExprKind::TyAbs {
            vars,
            constraints,
            body,
        } => Ok(DValue::TyClosure {
            vars: vars.clone(),
            constraints: constraints.clone(),
            body: Rc::new((**body).clone()),
            env: env.clone(),
        }),
        ExprKind::TyApp(f, args) => {
            let fv = eval(f, env)?;
            match fv {
                DValue::TyClosure {
                    vars,
                    constraints,
                    body,
                    env: closure_env,
                } => {
                    if vars.len() != args.len() {
                        return Err(RuntimeError::ArityMismatch);
                    }
                    // Closed type arguments, resolved at the call site.
                    let closed: Vec<RTy> = args
                        .iter()
                        .map(|a| resolve_closed(a, env))
                        .collect::<Result<Vec<_>, _>>()?;
                    let sp = env.tracer.begin_with("instantiate", || {
                        vec![
                            ("args", render_args(&closed).into()),
                            ("span_start", e.span.start.into()),
                            ("span_end", e.span.end.into()),
                        ]
                    });
                    let mut body_env = closure_env.clone();
                    for (v, t) in vars.iter().zip(&closed) {
                        body_env = body_env.bind_ty(*v, t.clone());
                    }
                    // For each concept constraint, find the model at the
                    // *call site* and pass it (with its refinement tree)
                    // into the body's scope — implicit model passing.
                    let out = (|| {
                        for c in &constraints {
                            if let Constraint::Model { concept, args } = c {
                                let cid = body_env
                                    .lookup_concept(*concept)
                                    .ok_or(RuntimeError::UnknownConcept(*concept))?;
                                let inst: Vec<RTy> = args
                                    .iter()
                                    .map(|a| resolve_closed(a, &body_env))
                                    .collect::<Result<Vec<_>, _>>()?;
                                // Normalize against the call-site models too.
                                let inst: Vec<RTy> =
                                    inst.iter().map(|t| normalize(t, env)).collect();
                                let model = find_model(env, cid, &inst, "instantiate")
                                    .ok_or(RuntimeError::NoModel(*concept))?;
                                body_env = body_env.push_model_tree(model);
                            }
                        }
                        eval(&body, &body_env)
                    })();
                    env.tracer.end_with(
                        sp,
                        vec![(
                            "outcome",
                            if out.is_ok() { "ok" } else { "error" }.into(),
                        )],
                    );
                    out
                }
                DValue::Prim(Prim::Nil) => Ok(DValue::List(DList::nil())),
                DValue::Prim(p) => Ok(DValue::Prim(p)),
                _ => Err(RuntimeError::NotAFunction),
            }
        }
        ExprKind::Let(x, bound, body) => {
            let v = eval(bound, env)?;
            eval(body, &env.bind(*x, v))
        }
        ExprKind::If(c, t, f) => match eval(c, env)? {
            DValue::Bool(true) => eval(t, env),
            DValue::Bool(false) => eval(f, env),
            _ => Err(RuntimeError::CondNotBool),
        },
        ExprKind::Fix(x, _ty, body) => {
            // Cycle-free recursion for the common fix-of-lambda case.
            if let ExprKind::Lam(params, lam_body) = &body.kind {
                return Ok(DValue::RecClosure {
                    name: *x,
                    params: params.iter().map(|(n, _)| *n).collect(),
                    body: Rc::new((**lam_body).clone()),
                    env: env.clone(),
                });
            }
            let env2 = env.bind_uninit(*x);
            let v = eval(body, &env2)?;
            if let Some(node) = &env2.vals.0 {
                *node.value.borrow_mut() = Some(v.clone());
            }
            Ok(v)
        }
        ExprKind::Concept(decl, body) => {
            // Register the concept in the shared table. Member types are
            // irrelevant at runtime; defaults are kept for model sites.
            let mut assoc_types = Vec::new();
            for item in &decl.items {
                if let ConceptItem::AssocTypes(names) = item {
                    assoc_types.extend(names.iter().copied());
                }
            }
            let mut refines = Vec::new();
            let mut requires = Vec::new();
            let mut members = Vec::new();
            for item in &decl.items {
                match item {
                    ConceptItem::Refines { concept, args }
                    | ConceptItem::Requires { concept, args } => {
                        let cid = env
                            .lookup_concept(*concept)
                            .ok_or(RuntimeError::UnknownConcept(*concept))?;
                        // Args stay *open*: parameters and associated
                        // names remain variables for the model site.
                        let open = args
                            .iter()
                            .map(|a| open_rty(a, env, &decl.params, &assoc_types, decl.name))
                            .collect::<Result<Vec<_>, _>>()?;
                        if matches!(item, ConceptItem::Refines { .. }) {
                            refines.push((cid, open));
                        } else {
                            requires.push((cid, open));
                        }
                    }
                    ConceptItem::Member { name, default, .. } => {
                        members.push(MemberSig {
                            name: *name,
                            // Types are not used by the interpreter.
                            ty: RTy::Int,
                            default: default.clone(),
                        });
                    }
                    ConceptItem::AssocTypes(_) | ConceptItem::Same(..) => {}
                }
            }
            let id = {
                let mut table = env.table.borrow_mut();
                let id = table.next_id();
                table.push(ConceptInfo {
                    id,
                    name: decl.name,
                    params: decl.params.clone(),
                    assoc_types,
                    refines,
                    requires,
                    members,
                    same: vec![],
                });
                id
            };
            eval(body, &env.bind_concept(decl.name, id))
        }
        ExprKind::Model(decl, body) => {
            let cid = env
                .lookup_concept(decl.concept)
                .ok_or(RuntimeError::UnknownConcept(decl.concept))?;
            if !decl.params.is_empty() {
                // Parameterized model: capture a template; instantiation
                // happens at each matching lookup.
                let mut penv = env.clone();
                for p in &decl.params {
                    penv = penv.bind_ty(*p, RTy::Var(*p));
                }
                let pattern = decl
                    .args
                    .iter()
                    .map(|a| resolve_closed(a, &penv))
                    .collect::<Result<Vec<_>, _>>()?;
                let template = Rc::new(RtParamModel {
                    concept: cid,
                    params: decl.params.clone(),
                    constraints: decl.constraints.clone(),
                    pattern,
                    decl: Rc::new((**decl).clone()),
                    env: env.clone(),
                });
                return eval(body, &env.push_param_model(template));
            }
            let info = env.table.borrow().get(cid).clone();
            let args = decl
                .args
                .iter()
                .map(|a| resolve_closed(a, env))
                .collect::<Result<Vec<_>, _>>()?;
            let model = elaborate_model(env, cid, &info, &args, decl)?;
            eval(body, &env.push_model_tree(model))
        }
        ExprKind::TypeAlias(name, ty, body) => {
            let rhs = resolve_closed(ty, env)?;
            eval(body, &env.bind_ty(*name, rhs))
        }
        ExprKind::MemberAccess {
            concept,
            args,
            member,
        } => {
            let cid = env
                .lookup_concept(*concept)
                .ok_or(RuntimeError::UnknownConcept(*concept))?;
            let rargs = args
                .iter()
                .map(|a| resolve_closed(a, env))
                .collect::<Result<Vec<_>, _>>()?;
            let model =
                find_model(env, cid, &rargs, "member").ok_or(RuntimeError::NoModel(*concept))?;
            let table = env.table.borrow();
            find_member_value(&table, &model, *member).ok_or(RuntimeError::UnknownMember(*member))
        }
    }
}

/// Resolves a concept-declaration-internal type to an *open* [`RTy`]: the
/// concept's parameters and associated names stay variables so the model
/// site can substitute them.
fn open_rty(
    ty: &FgTy,
    env: &DEnv,
    params: &[Symbol],
    assoc: &[Symbol],
    self_name: Symbol,
) -> Result<RTy, RuntimeError> {
    match ty {
        FgTy::Var(v) => Ok(RTy::Var(*v)),
        FgTy::Int => Ok(RTy::Int),
        FgTy::Bool => Ok(RTy::Bool),
        FgTy::List(t) => Ok(RTy::list(open_rty(t, env, params, assoc, self_name)?)),
        FgTy::Fn(ps, r) => Ok(RTy::Fn(
            ps.iter()
                .map(|p| open_rty(p, env, params, assoc, self_name))
                .collect::<Result<Vec<_>, _>>()?,
            Box::new(open_rty(r, env, params, assoc, self_name)?),
        )),
        FgTy::Forall { .. } => Ok(RTy::Int), // not consulted at runtime
        FgTy::Assoc {
            concept,
            args,
            name,
        } => {
            // A self-projection C<params>.s denotes the bare assoc name.
            if *concept == self_name {
                let param_args: Vec<FgTy> = params.iter().map(|p| FgTy::Var(*p)).collect();
                if *args == param_args && assoc.contains(name) {
                    return Ok(RTy::Var(*name));
                }
            }
            let cid = env
                .lookup_concept(*concept)
                .ok_or(RuntimeError::UnknownConcept(*concept))?;
            Ok(RTy::Assoc {
                concept: cid,
                concept_name: *concept,
                args: args
                    .iter()
                    .map(|a| open_rty(a, env, params, assoc, self_name))
                    .collect::<Result<Vec<_>, _>>()?,
                name: *name,
            })
        }
    }
}

fn apply(f: DValue, args: Vec<DValue>) -> Result<DValue, RuntimeError> {
    match f {
        DValue::Closure { params, body, env } => {
            if params.len() != args.len() {
                return Err(RuntimeError::ArityMismatch);
            }
            let mut env = env;
            for (p, a) in params.iter().zip(args) {
                env = env.bind(*p, a);
            }
            eval(&body, &env)
        }
        DValue::RecClosure {
            name,
            params,
            body,
            env,
        } => {
            if params.len() != args.len() {
                return Err(RuntimeError::ArityMismatch);
            }
            let mut env2 = env.bind(
                name,
                DValue::RecClosure {
                    name,
                    params: params.clone(),
                    body: Rc::clone(&body),
                    env: env.clone(),
                },
            );
            for (p, a) in params.iter().zip(args) {
                env2 = env2.bind(*p, a);
            }
            eval(&body, &env2)
        }
        DValue::Prim(p) => apply_prim(p, args),
        _ => Err(RuntimeError::NotAFunction),
    }
}

fn apply_prim(p: Prim, args: Vec<DValue>) -> Result<DValue, RuntimeError> {
    fn int2(p: Prim, args: &[DValue]) -> Result<(i64, i64), RuntimeError> {
        match args {
            [DValue::Int(a), DValue::Int(b)] => Ok((*a, *b)),
            _ => Err(RuntimeError::PrimArg(p)),
        }
    }
    fn bool2(p: Prim, args: &[DValue]) -> Result<(bool, bool), RuntimeError> {
        match args {
            [DValue::Bool(a), DValue::Bool(b)] => Ok((*a, *b)),
            _ => Err(RuntimeError::PrimArg(p)),
        }
    }
    match p {
        Prim::IAdd => int2(p, &args).map(|(a, b)| DValue::Int(a.wrapping_add(b))),
        Prim::ISub => int2(p, &args).map(|(a, b)| DValue::Int(a.wrapping_sub(b))),
        Prim::IMult => int2(p, &args).map(|(a, b)| DValue::Int(a.wrapping_mul(b))),
        Prim::INeg => match args.as_slice() {
            [DValue::Int(a)] => Ok(DValue::Int(a.wrapping_neg())),
            _ => Err(RuntimeError::PrimArg(p)),
        },
        Prim::IEq => int2(p, &args).map(|(a, b)| DValue::Bool(a == b)),
        Prim::ILt => int2(p, &args).map(|(a, b)| DValue::Bool(a < b)),
        Prim::ILe => int2(p, &args).map(|(a, b)| DValue::Bool(a <= b)),
        Prim::BNot => match args.as_slice() {
            [DValue::Bool(a)] => Ok(DValue::Bool(!a)),
            _ => Err(RuntimeError::PrimArg(p)),
        },
        Prim::BAnd => bool2(p, &args).map(|(a, b)| DValue::Bool(a && b)),
        Prim::BOr => bool2(p, &args).map(|(a, b)| DValue::Bool(a || b)),
        Prim::BEq => bool2(p, &args).map(|(a, b)| DValue::Bool(a == b)),
        Prim::Nil => Err(RuntimeError::NotAFunction),
        Prim::Cons => match args.as_slice() {
            [head, DValue::List(tail)] => {
                Ok(DValue::List(DList::cons(head.clone(), tail.clone())))
            }
            _ => Err(RuntimeError::PrimArg(p)),
        },
        Prim::Car => match args.as_slice() {
            [DValue::List(l)] => l
                .uncons()
                .map(|(h, _)| h.clone())
                .ok_or(RuntimeError::EmptyList(p)),
            _ => Err(RuntimeError::PrimArg(p)),
        },
        Prim::Cdr => match args.as_slice() {
            [DValue::List(l)] => l
                .uncons()
                .map(|(_, t)| DValue::List(t.clone()))
                .ok_or(RuntimeError::EmptyList(p)),
            _ => Err(RuntimeError::PrimArg(p)),
        },
        Prim::Null => match args.as_slice() {
            [DValue::List(l)] => Ok(DValue::Bool(l.is_nil())),
            _ => Err(RuntimeError::PrimArg(p)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn run(src: &str) -> DValue {
        run_direct(&parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn arithmetic_and_lists() {
        assert!(matches!(run("iadd(1, 2)"), DValue::Int(3)));
        assert!(matches!(
            run("car[int](cons[int](7, nil[int]))"),
            DValue::Int(7)
        ));
    }

    #[test]
    fn member_access_resolves_models() {
        let v = run(
            "concept S<t> { op : fn(t, t) -> t; } in
             model S<int> { op = imult; } in
             S<int>.op(6, 7)",
        );
        assert!(matches!(v, DValue::Int(42)));
    }

    #[test]
    fn instantiation_passes_models_lexically() {
        // Figure 6: the model in force at the *instantiation* wins.
        let v = run(
            "concept S<t> { op : fn(t, t) -> t; } in
             let f = biglam t where S<t>. lam x: t. S<t>.op(x, x) in
             let double =
               model S<int> { op = iadd; } in f[int]
             in
             let square =
               model S<int> { op = imult; } in f[int]
             in
             iadd(double(10), square(10))",
        );
        assert!(matches!(v, DValue::Int(120)));
    }

    #[test]
    fn refinement_member_through_child() {
        let v = run(
            "concept S<t> { op : fn(t, t) -> t; } in
             concept M<t> { refines S<t>; unit : t; } in
             model S<int> { op = iadd; } in
             model M<int> { unit = 0; } in
             M<int>.op(M<int>.unit, 5)",
        );
        assert!(matches!(v, DValue::Int(5)));
    }

    #[test]
    fn assoc_types_resolve_through_models() {
        let v = run(
            "concept It<i> { types elt; curr : fn(i) -> It<i>.elt; } in
             model It<list int> { types elt = int; curr = lam l: list int. car[int](l); } in
             It<list int>.curr(cons[int](9, nil[int]))",
        );
        assert!(matches!(v, DValue::Int(9)));
    }

    #[test]
    fn fix_recursion() {
        let v = run(
            "let f = fix go: fn(int) -> int.
               lam n: int. if ile(n, 0) then 0 else iadd(n, go(isub(n, 1)))
             in f(10)",
        );
        assert!(matches!(v, DValue::Int(55)));
    }

    #[test]
    fn parameterized_models_instantiate_at_runtime() {
        let v = run(
            "concept Size<t> { size : fn(t) -> int; } in
             model forall t. Size<list t> { size = lam ls: list t. 7; } in
             iadd(Size<list int>.size(nil[int]), Size<list bool>.size(nil[bool]))",
        );
        assert!(matches!(v, DValue::Int(14)));
    }

    #[test]
    fn constrained_parameterized_models_resolve_recursively() {
        let v = run(
            "concept Eq<t> { equal : fn(t, t) -> bool; } in
             model Eq<int> { equal = ieq; } in
             model forall t where Eq<t>. Eq<list t> {
                 equal = lam a: list t, b: list t.
                     if null[t](a) then null[t](b)
                     else if null[t](b) then false
                     else Eq<t>.equal(car[t](a), car[t](b));
             } in
             Eq<list (list int)>.equal(nil[list int], nil[list int])",
        );
        assert!(matches!(v, DValue::Bool(true)));
    }

    #[test]
    fn type_aliases_resolve_at_runtime() {
        let v = run(
            "concept C<t> { op : t; } in
             model C<list int> { op = cons[int](3, nil[int]); } in
             type ints = list int in
             car[int](C<ints>.op)",
        );
        assert!(matches!(v, DValue::Int(3)));
    }

    #[test]
    fn defaults_evaluate_at_model_sites() {
        let v = run(
            "concept Eq<t> {
                 equal : fn(t, t) -> bool;
                 ne : fn(t, t) -> bool = lam a: t, b: t. bnot(Eq<t>.equal(a, b));
             } in
             model Eq<int> { equal = ieq; } in
             Eq<int>.ne(1, 2)",
        );
        assert!(matches!(v, DValue::Bool(true)));
    }

    #[test]
    fn agrees_with_compares_structurally() {
        assert!(DValue::Int(3).agrees_with(&system_f::Value::Int(3)));
        assert!(!DValue::Int(3).agrees_with(&system_f::Value::Int(4)));
        let dl = DValue::List(DList::cons(DValue::Int(1), DList::nil()));
        let sl = system_f::Value::List(system_f::VList::from_ints(&[1]));
        assert!(dl.agrees_with(&sl));
    }
}
