//! A call-by-value big-step evaluator for System F.
//!
//! This is the machine that *runs* translated F_G programs: dictionaries
//! become tuple values, model member access becomes tuple projection, and
//! implicit model passing becomes ordinary application. Type abstraction
//! and application are evaluated (not erased): `biglam` suspends its body
//! and `e[τ]` forces it, matching the instantiate-then-run reading in the
//! paper.

use crate::{Prim, Symbol, Term};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use telemetry::fault::{self, FaultMode};
use telemetry::limits::{Budget, Exhausted, Resource};

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A (persistent, shared-tail) list.
    List(VList),
    /// A tuple — in translated code, usually a concept dictionary.
    Tuple(Vec<Value>),
    /// A function closure.
    Closure {
        /// Parameter names (types are erased at runtime).
        params: Vec<Symbol>,
        /// The function body.
        body: Rc<Term>,
        /// The captured environment.
        env: Env,
    },
    /// A recursive function created by `fix x:τ. lam …`. Unlike
    /// [`Value::Closure`] it does **not** capture itself (which would tie
    /// an `Rc` cycle and leak); instead each application re-binds `name`
    /// to a fresh copy of this value.
    RecClosure {
        /// The `fix`-bound name the body uses to recurse.
        name: Symbol,
        /// Parameter names.
        params: Vec<Symbol>,
        /// The function body.
        body: Rc<Term>,
        /// The captured environment (without the recursive binding).
        env: Env,
    },
    /// A suspended type abstraction.
    TyClosure {
        /// The abstracted type variables.
        vars: Vec<Symbol>,
        /// The suspended body.
        body: Rc<Term>,
        /// The captured environment.
        env: Env,
    },
    /// A primitive, possibly awaiting application (primitives are
    /// first-class: dictionaries store `iadd` directly).
    Prim(Prim),
}

impl PartialEq for Value {
    /// Structural equality on first-order values; closures (and primitives
    /// wrapped in closures) compare unequal except for identical primitives.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::List(a), Value::List(b)) => a.iter().eq(b.iter()),
            (Value::Tuple(a), Value::Tuple(b)) => a == b,
            (Value::Prim(a), Value::Prim(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Tuple(items) => {
                write!(f, "tuple(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Closure { .. } => write!(f, "<closure>"),
            Value::RecClosure { .. } => write!(f, "<closure>"),
            Value::TyClosure { .. } => write!(f, "<tyclosure>"),
            Value::Prim(p) => write!(f, "{}", p.name()),
        }
    }
}

impl Value {
    /// Extracts an integer, or `None`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts a boolean, or `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A persistent cons-list value with shared tails (so `cdr` is O(1), as the
/// recursive algorithms of the paper assume).
#[derive(Debug, Clone, Default)]
pub struct VList(Option<Rc<(Value, VList)>>);

impl VList {
    /// The empty list.
    pub fn nil() -> VList {
        VList(None)
    }

    /// Prepends `head`.
    pub fn cons(head: Value, tail: VList) -> VList {
        VList(Some(Rc::new((head, tail))))
    }

    /// Returns `true` for the empty list.
    pub fn is_nil(&self) -> bool {
        self.0.is_none()
    }

    /// Head and tail, or `None` for the empty list.
    pub fn uncons(&self) -> Option<(&Value, &VList)> {
        self.0.as_deref().map(|n| (&n.0, &n.1))
    }

    /// Iterates over the elements front to back.
    pub fn iter(&self) -> VListIter<'_> {
        VListIter(self)
    }

    /// Builds a list from a slice of integers.
    pub fn from_ints(items: &[i64]) -> VList {
        let mut l = VList::nil();
        for &x in items.iter().rev() {
            l = VList::cons(Value::Int(x), l);
        }
        l
    }
}

/// Iterator over a [`VList`], yielded by [`VList::iter`].
#[derive(Debug, Clone)]
pub struct VListIter<'a>(&'a VList);

impl<'a> Iterator for VListIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        let (head, tail) = self.0.uncons()?;
        self.0 = tail;
        Some(head)
    }
}

/// A runtime environment: a persistent association list with mutable cells
/// (the cells exist solely so `fix` can tie its knot).
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: Symbol,
    value: RefCell<Option<Value>>,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// Extends with a binding, returning the new environment.
    pub fn bind(&self, name: Symbol, value: Value) -> Env {
        Env(Some(Rc::new(EnvNode {
            name,
            value: RefCell::new(Some(value)),
            next: self.clone(),
        })))
    }

    /// Extends with an uninitialized binding for `fix`.
    fn bind_uninit(&self, name: Symbol) -> Env {
        Env(Some(Rc::new(EnvNode {
            name,
            value: RefCell::new(None),
            next: self.clone(),
        })))
    }

    fn lookup(&self, name: Symbol) -> Result<Value, EvalError> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if node.name == name {
                return node
                    .value
                    .borrow()
                    .clone()
                    .ok_or(EvalError::FixForcedEarly(name));
            }
            cur = &node.next;
        }
        Err(EvalError::UnboundVar(name))
    }
}

/// A runtime error.
///
/// A term that passed [`crate::typecheck`] only raises
/// [`EvalError::FixForcedEarly`] (for ill-founded `fix` bodies) or
/// [`EvalError::EmptyList`] (`car`/`cdr` of `nil`); the other variants can
/// only arise when evaluating unchecked terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Reference to a variable not in the environment.
    UnboundVar(Symbol),
    /// Applied a value that is not a function.
    NotAFunction(String),
    /// Wrong number of (type) arguments.
    ArityMismatch {
        /// Expected count.
        expected: usize,
        /// Supplied count.
        found: usize,
    },
    /// A primitive received an argument of the wrong shape.
    PrimArg(Prim),
    /// `car` or `cdr` of the empty list.
    EmptyList(Prim),
    /// Projection from a non-tuple or out of bounds.
    BadProjection,
    /// `if` on a non-boolean.
    CondNotBool,
    /// The body of a `fix` demanded the recursive value while still
    /// computing it.
    FixForcedEarly(Symbol),
    /// The shared resource budget ran out (fuel, depth, or deadline) —
    /// see [`eval_budgeted`]. Divergent terms such as Ω surface here
    /// instead of overflowing the stack.
    ResourceExhausted(Exhausted),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(x) => write!(f, "unbound variable `{x}` at runtime"),
            EvalError::NotAFunction(v) => write!(f, "cannot apply non-function {v}"),
            EvalError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} argument(s), found {found}")
            }
            EvalError::PrimArg(p) => write!(f, "bad argument to primitive `{}`", p.name()),
            EvalError::EmptyList(p) => write!(f, "`{}` applied to the empty list", p.name()),
            EvalError::BadProjection => write!(f, "invalid tuple projection"),
            EvalError::CondNotBool => write!(f, "condition did not evaluate to a boolean"),
            EvalError::FixForcedEarly(x) => {
                write!(f, "recursive binding `{x}` forced before it was defined")
            }
            EvalError::ResourceExhausted(e) => write!(f, "evaluation stopped: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates a closed term.
///
/// # Errors
///
/// See [`EvalError`]. Well-typed terms only fail on partial primitives
/// (`car`/`cdr` of `nil`) or ill-founded `fix`.
///
/// ```
/// use system_f::{eval, Term, Value, Prim};
///
/// let e = Term::app(Term::Prim(Prim::IMult), vec![Term::IntLit(6), Term::IntLit(7)]);
/// assert_eq!(eval(&e)?, Value::Int(42));
/// # Ok::<(), system_f::EvalError>(())
/// ```
pub fn eval(term: &Term) -> Result<Value, EvalError> {
    eval_in(term, &Env::new())
}

/// Evaluates a closed term against a resource budget: each node charges
/// one fuel unit and one recursion level, so divergent terms terminate
/// with [`EvalError::ResourceExhausted`] instead of overflowing the
/// stack or spinning past the deadline.
pub fn eval_budgeted(term: &Term, budget: &Budget) -> Result<Value, EvalError> {
    eval_in_b(term, &Env::new(), budget)
}

/// Evaluates a term in a caller-supplied environment.
pub fn eval_in(term: &Term, env: &Env) -> Result<Value, EvalError> {
    eval_in_b(term, env, Budget::unlimited_ref())
}

/// Checks the `sf.eval` fault-injection point (see `telemetry::fault`).
fn fault_point(budget: &Budget) -> Result<(), EvalError> {
    match fault::hit("sf.eval") {
        None => Ok(()),
        Some(FaultMode::Error) => Err(EvalError::ResourceExhausted(
            budget.trip(Resource::Injected, 0),
        )),
        Some(FaultMode::Panic) => panic!("injected fault panic at sf.eval"),
    }
}

/// [`eval_in`] with an explicit budget: the recursive workhorse.
pub fn eval_in_b(term: &Term, env: &Env, budget: &Budget) -> Result<Value, EvalError> {
    budget.charge_fuel(1).map_err(EvalError::ResourceExhausted)?;
    let _depth = budget.enter().map_err(EvalError::ResourceExhausted)?;
    fault_point(budget)?;
    match term {
        Term::Var(x) => env.lookup(*x),
        Term::IntLit(n) => Ok(Value::Int(*n)),
        Term::BoolLit(b) => Ok(Value::Bool(*b)),
        Term::Prim(p) => Ok(Value::Prim(*p)),
        Term::App(f, args) => {
            let fv = eval_in_b(f, env, budget)?;
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_in_b(a, env, budget)?);
            }
            apply_b(fv, argv, budget)
        }
        Term::Lam(params, body) => Ok(Value::Closure {
            params: params.iter().map(|(n, _)| *n).collect(),
            body: Rc::new((**body).clone()),
            env: env.clone(),
        }),
        Term::TyAbs(vars, body) => Ok(Value::TyClosure {
            vars: vars.clone(),
            body: Rc::new((**body).clone()),
            env: env.clone(),
        }),
        Term::TyApp(f, args) => {
            let fv = eval_in_b(f, env, budget)?;
            match fv {
                Value::TyClosure { vars, body, env } => {
                    if vars.len() != args.len() {
                        return Err(EvalError::ArityMismatch {
                            expected: vars.len(),
                            found: args.len(),
                        });
                    }
                    // Types are computationally irrelevant: just run the body.
                    eval_in_b(&body, &env, budget)
                }
                // `nil[τ]` is the empty list; other polymorphic primitives
                // ignore their type arguments.
                Value::Prim(Prim::Nil) => Ok(Value::List(VList::nil())),
                Value::Prim(p) => Ok(Value::Prim(p)),
                other => Err(EvalError::NotAFunction(other.to_string())),
            }
        }
        Term::Let(x, bound, body) => {
            let v = eval_in_b(bound, env, budget)?;
            eval_in_b(body, &env.bind(*x, v), budget)
        }
        Term::Tuple(items) => {
            let mut vs = Vec::with_capacity(items.len());
            for e in items {
                vs.push(eval_in_b(e, env, budget)?);
            }
            Ok(Value::Tuple(vs))
        }
        Term::Nth(e, i) => match eval_in_b(e, env, budget)? {
            Value::Tuple(items) => items.get(*i).cloned().ok_or(EvalError::BadProjection),
            _ => Err(EvalError::BadProjection),
        },
        Term::If(c, t, e) => match eval_in_b(c, env, budget)? {
            Value::Bool(true) => eval_in_b(t, env, budget),
            Value::Bool(false) => eval_in_b(e, env, budget),
            _ => Err(EvalError::CondNotBool),
        },
        Term::Fix(x, _ty, body) => {
            // The common, well-founded case — `fix x. lam …` — gets a
            // cycle-free representation: the closure does not capture
            // itself; application re-binds `x` instead. (A self-capturing
            // environment cell would be an Rc cycle and leak on every
            // recursive function evaluated.)
            if let Term::Lam(params, lam_body) = &**body {
                return Ok(Value::RecClosure {
                    name: *x,
                    params: params.iter().map(|(n, _)| *n).collect(),
                    body: Rc::new((**lam_body).clone()),
                    env: env.clone(),
                });
            }
            // General case (rare): tie the knot through a mutable cell.
            let env2 = env.bind_uninit(*x);
            let v = eval_in_b(body, &env2, budget)?;
            if let Some(node) = &env2.0 {
                *node.value.borrow_mut() = Some(v.clone());
            }
            Ok(v)
        }
    }
}

/// Evaluates the bound terms of `term`'s chain of `let`s in `env`, each
/// binding in scope of the ones after it, and returns the environment
/// the chain's innermost body runs in, with that body (not evaluated).
/// Every `let` node is charged and probed exactly as [`eval_in_b`]
/// charges it inside the whole term, and its depth is held down the
/// chain.
///
/// # Errors
///
/// Returns the first [`EvalError`] of a bound term or of the budget.
pub fn eval_lets<'t>(
    mut term: &'t Term,
    env: &Env,
    budget: &Budget,
) -> Result<(Env, &'t Term), EvalError> {
    let mut env = env.clone();
    let mut depth = Vec::new();
    while let Term::Let(x, bound, body) = term {
        budget
            .charge_fuel(1)
            .map_err(EvalError::ResourceExhausted)?;
        depth.push(budget.enter().map_err(EvalError::ResourceExhausted)?);
        fault_point(budget)?;
        let v = eval_in_b(bound, &env, budget)?;
        env = env.bind(*x, v);
        term = body;
    }
    Ok((env, term))
}

/// Applies a function value to evaluated arguments.
pub fn apply(f: Value, args: Vec<Value>) -> Result<Value, EvalError> {
    apply_b(f, args, Budget::unlimited_ref())
}

/// [`apply`] against an explicit budget (the application itself is free;
/// the applied body's nodes charge as they evaluate).
pub fn apply_b(f: Value, args: Vec<Value>, budget: &Budget) -> Result<Value, EvalError> {
    match f {
        Value::Closure { params, body, env } => {
            if params.len() != args.len() {
                return Err(EvalError::ArityMismatch {
                    expected: params.len(),
                    found: args.len(),
                });
            }
            let mut env = env;
            for (p, a) in params.iter().zip(args) {
                env = env.bind(*p, a);
            }
            eval_in_b(&body, &env, budget)
        }
        Value::RecClosure {
            name,
            params,
            body,
            env,
        } => {
            if params.len() != args.len() {
                return Err(EvalError::ArityMismatch {
                    expected: params.len(),
                    found: args.len(),
                });
            }
            // Re-bind the recursive name to a fresh copy (no cycle).
            let mut env2 = env.bind(
                name,
                Value::RecClosure {
                    name,
                    params: params.clone(),
                    body: Rc::clone(&body),
                    env: env.clone(),
                },
            );
            for (p, a) in params.iter().zip(args) {
                env2 = env2.bind(*p, a);
            }
            eval_in_b(&body, &env2, budget)
        }
        Value::Prim(p) => apply_prim(p, args),
        other => Err(EvalError::NotAFunction(other.to_string())),
    }
}

fn apply_prim(p: Prim, args: Vec<Value>) -> Result<Value, EvalError> {
    fn int2(p: Prim, args: &[Value]) -> Result<(i64, i64), EvalError> {
        match args {
            [Value::Int(a), Value::Int(b)] => Ok((*a, *b)),
            _ => Err(EvalError::PrimArg(p)),
        }
    }
    fn bool2(p: Prim, args: &[Value]) -> Result<(bool, bool), EvalError> {
        match args {
            [Value::Bool(a), Value::Bool(b)] => Ok((*a, *b)),
            _ => Err(EvalError::PrimArg(p)),
        }
    }
    match p {
        Prim::IAdd => int2(p, &args).map(|(a, b)| Value::Int(a.wrapping_add(b))),
        Prim::ISub => int2(p, &args).map(|(a, b)| Value::Int(a.wrapping_sub(b))),
        Prim::IMult => int2(p, &args).map(|(a, b)| Value::Int(a.wrapping_mul(b))),
        Prim::INeg => match args.as_slice() {
            [Value::Int(a)] => Ok(Value::Int(a.wrapping_neg())),
            _ => Err(EvalError::PrimArg(p)),
        },
        Prim::IEq => int2(p, &args).map(|(a, b)| Value::Bool(a == b)),
        Prim::ILt => int2(p, &args).map(|(a, b)| Value::Bool(a < b)),
        Prim::ILe => int2(p, &args).map(|(a, b)| Value::Bool(a <= b)),
        Prim::BNot => match args.as_slice() {
            [Value::Bool(a)] => Ok(Value::Bool(!a)),
            _ => Err(EvalError::PrimArg(p)),
        },
        Prim::BAnd => bool2(p, &args).map(|(a, b)| Value::Bool(a && b)),
        Prim::BOr => bool2(p, &args).map(|(a, b)| Value::Bool(a || b)),
        Prim::BEq => bool2(p, &args).map(|(a, b)| Value::Bool(a == b)),
        Prim::Nil => {
            // `nil` is a constant; reaching here means it was applied.
            Err(EvalError::NotAFunction("nil".to_owned()))
        }
        Prim::Cons => match args.as_slice() {
            [head, Value::List(tail)] => {
                Ok(Value::List(VList::cons(head.clone(), tail.clone())))
            }
            _ => Err(EvalError::PrimArg(p)),
        },
        Prim::Car => match args.as_slice() {
            [Value::List(l)] => l
                .uncons()
                .map(|(h, _)| h.clone())
                .ok_or(EvalError::EmptyList(p)),
            _ => Err(EvalError::PrimArg(p)),
        },
        Prim::Cdr => match args.as_slice() {
            [Value::List(l)] => l
                .uncons()
                .map(|(_, t)| Value::List(t.clone()))
                .ok_or(EvalError::EmptyList(p)),
            _ => Err(EvalError::PrimArg(p)),
        },
        Prim::Null => match args.as_slice() {
            [Value::List(l)] => Ok(Value::Bool(l.is_nil())),
            _ => Err(EvalError::PrimArg(p)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ty;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn arithmetic() {
        let e = Term::app(
            Term::Prim(Prim::IAdd),
            vec![
                Term::IntLit(1),
                Term::app(Term::Prim(Prim::IMult), vec![Term::IntLit(2), Term::IntLit(3)]),
            ],
        );
        assert_eq!(eval(&e), Ok(Value::Int(7)));
    }

    #[test]
    fn comparisons_and_booleans() {
        let lt = Term::app(Term::Prim(Prim::ILt), vec![Term::IntLit(1), Term::IntLit(2)]);
        assert_eq!(eval(&lt), Ok(Value::Bool(true)));
        let not = Term::app(Term::Prim(Prim::BNot), vec![lt]);
        assert_eq!(eval(&not), Ok(Value::Bool(false)));
    }

    #[test]
    fn closures_capture_their_environment() {
        // let y = 10 in (lam x. x + y)(5)
        let e = Term::let_(
            s("y"),
            Term::IntLit(10),
            Term::app(
                Term::lam(
                    vec![(s("x"), Ty::Int)],
                    Term::app(
                        Term::Prim(Prim::IAdd),
                        vec![Term::var("x"), Term::var("y")],
                    ),
                ),
                vec![Term::IntLit(5)],
            ),
        );
        assert_eq!(eval(&e), Ok(Value::Int(15)));
    }

    #[test]
    fn type_application_forces_tyabs() {
        let id = Term::TyAbs(
            vec![s("t")],
            Box::new(Term::lam(vec![(s("x"), Ty::Var(s("t")))], Term::var("x"))),
        );
        let e = Term::app(Term::tyapp(id, vec![Ty::Int]), vec![Term::IntLit(9)]);
        assert_eq!(eval(&e), Ok(Value::Int(9)));
    }

    #[test]
    fn list_primitives() {
        let l = Term::int_list(&[4, 5, 6]);
        let car = Term::app(Term::tyapp(Term::Prim(Prim::Car), vec![Ty::Int]), vec![l.clone()]);
        assert_eq!(eval(&car), Ok(Value::Int(4)));
        let cdr = Term::app(Term::tyapp(Term::Prim(Prim::Cdr), vec![Ty::Int]), vec![l.clone()]);
        assert_eq!(eval(&cdr), Ok(Value::List(VList::from_ints(&[5, 6]))));
        let null = Term::app(Term::tyapp(Term::Prim(Prim::Null), vec![Ty::Int]), vec![l]);
        assert_eq!(eval(&null), Ok(Value::Bool(false)));
    }

    #[test]
    fn car_of_nil_is_a_runtime_error() {
        let e = Term::app(
            Term::tyapp(Term::Prim(Prim::Car), vec![Ty::Int]),
            vec![Term::int_list(&[])],
        );
        assert_eq!(eval(&e), Err(EvalError::EmptyList(Prim::Car)));
    }

    #[test]
    fn fix_computes_recursive_functions() {
        // sum of a list via fix — the engine of Figure 3.
        let t = Ty::Int;
        let fty = Ty::func(vec![Ty::list(t.clone())], t.clone());
        let body = Term::lam(
            vec![(s("ls"), Ty::list(t.clone()))],
            Term::if_(
                Term::app(
                    Term::tyapp(Term::Prim(Prim::Null), vec![t.clone()]),
                    vec![Term::var("ls")],
                ),
                Term::IntLit(0),
                Term::app(
                    Term::Prim(Prim::IAdd),
                    vec![
                        Term::app(
                            Term::tyapp(Term::Prim(Prim::Car), vec![t.clone()]),
                            vec![Term::var("ls")],
                        ),
                        Term::app(
                            Term::var("go"),
                            vec![Term::app(
                                Term::tyapp(Term::Prim(Prim::Cdr), vec![t.clone()]),
                                vec![Term::var("ls")],
                            )],
                        ),
                    ],
                ),
            ),
        );
        let f = Term::Fix(s("go"), fty, Box::new(body));
        let e = Term::app(f, vec![Term::int_list(&[1, 2, 3, 4])]);
        assert_eq!(eval(&e), Ok(Value::Int(10)));
    }

    #[test]
    fn fix_forced_early_is_detected() {
        let e = Term::Fix(s("x"), Ty::Int, Box::new(Term::var("x")));
        assert_eq!(eval(&e), Err(EvalError::FixForcedEarly(s("x"))));
    }

    #[test]
    fn dictionaries_evaluate_to_tuples() {
        // Fig. 7: let Semigroup_61 = (iadd) in let Monoid_67 = (Semigroup_61, 0) in ...
        let e = Term::let_(
            s("Semigroup_61"),
            Term::Tuple(vec![Term::Prim(Prim::IAdd)]),
            Term::let_(
                s("Monoid_67"),
                Term::Tuple(vec![Term::var("Semigroup_61"), Term::IntLit(0)]),
                Term::app(
                    Term::nth(Term::nth(Term::var("Monoid_67"), 0), 0),
                    vec![Term::IntLit(20), Term::nth(Term::var("Monoid_67"), 1)],
                ),
            ),
        );
        assert_eq!(eval(&e), Ok(Value::Int(20)));
    }

    #[test]
    fn value_display_is_readable() {
        let v = Value::Tuple(vec![
            Value::Int(1),
            Value::List(VList::from_ints(&[2, 3])),
            Value::Prim(Prim::IAdd),
        ]);
        assert_eq!(v.to_string(), "tuple(1, [2, 3], iadd)");
    }

    #[test]
    fn shadowing_at_runtime_is_innermost() {
        let e = Term::let_(
            s("x"),
            Term::IntLit(1),
            Term::let_(s("x"), Term::IntLit(2), Term::var("x")),
        );
        assert_eq!(eval(&e), Ok(Value::Int(2)));
    }
}
