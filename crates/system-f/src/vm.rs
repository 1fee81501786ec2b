//! A bytecode compiler and stack virtual machine for System F.
//!
//! The tree-walking evaluator ([`crate::eval`]) recurses on the Rust
//! stack; this module compiles terms to flat-closure bytecode and runs
//! them on an iterative VM with an explicit call stack — the execution
//! engine a production implementation of the paper's translation would
//! use. Dictionaries compile to tuples, member projection to a `GetField`
//! instruction, and implicit model passing to ordinary closure calls, so
//! the cost model of the dictionary-passing translation is directly
//! visible in the instruction stream.
//!
//! The VM is differential-tested against the evaluator on every corpus
//! program and on randomly generated terms, and benchmarked against it in
//! the `dictionary_overhead` group of `bench::runner` (`fg bench-json`).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use telemetry::limits::{Budget, Exhausted, Resource};

use crate::{Prim, Symbol, Term};

/// A compiled program: a pool of function bodies; the entry point is
/// function 0 (zero parameters, zero captures).
#[derive(Debug, Clone)]
pub struct Program {
    funcs: Vec<Func>,
}

#[derive(Debug, Clone)]
struct Func {
    /// Number of parameters (locals `captures.len()..captures.len()+arity`).
    arity: usize,
    /// Number of captured values (locals `0..n_captures`).
    n_captures: usize,
    /// Recursive functions receive themselves as the local slot right
    /// after the captures (cycle-free `fix`: no self-capture).
    rec: bool,
    code: Vec<Instr>,
}

/// VM instructions.
#[derive(Debug, Clone, PartialEq)]
enum Instr {
    /// Push an integer constant.
    Int(i64),
    /// Push a boolean constant.
    Bool(bool),
    /// Push the empty list.
    Nil,
    /// Push a primitive as a value.
    PrimVal(Prim),
    /// Push local slot `n` (captures, then parameters, then lets).
    Load(u32),
    /// Push local slot `n`, dereferencing a recursion cell.
    LoadRec(u32),
    /// Pop the top of stack into a fresh local slot.
    Store,
    /// Drop the newest `n` local slots.
    PopLocals(u32),
    /// Allocate an empty recursion cell as a fresh local slot.
    NewRecCell,
    /// Patch the newest recursion cell at slot `n` with the top of stack
    /// (leaves the value on the stack).
    SetRecCell(u32),
    /// Make a closure of function `func`, capturing the listed slots.
    Closure {
        /// Index into the function pool.
        func: u32,
        /// Local slots to capture, in order.
        captures: Vec<u32>,
    },
    /// Call the callee under `nargs` arguments on the stack.
    Call(u32),
    /// Return the top of stack from the current frame.
    Ret,
    /// Apply a primitive to the top `nargs` stack values directly.
    CallPrim(Prim, u32),
    /// Build a tuple from the top `n` stack values.
    Tuple(u32),
    /// Project field `i` from the tuple on top of the stack.
    GetField(u32),
    /// Unconditional jump to code offset.
    Jump(u32),
    /// Jump to code offset when the popped top of stack is `false`.
    JumpIfFalse(u32),
}

/// Opcode names, indexed by [`Instr::opcode`]. Stable: these are the keys
/// of the `vm_dispatch` group in the `fg-metrics/1` JSON schema.
pub const OPCODE_NAMES: [&str; 18] = [
    "int",
    "bool",
    "nil",
    "prim_val",
    "load",
    "load_rec",
    "store",
    "pop_locals",
    "new_rec_cell",
    "set_rec_cell",
    "closure",
    "call",
    "ret",
    "call_prim",
    "tuple",
    "get_field",
    "jump",
    "jump_if_false",
];

impl Instr {
    /// Dense opcode index into [`OPCODE_NAMES`].
    fn opcode(&self) -> usize {
        match self {
            Instr::Int(_) => 0,
            Instr::Bool(_) => 1,
            Instr::Nil => 2,
            Instr::PrimVal(_) => 3,
            Instr::Load(_) => 4,
            Instr::LoadRec(_) => 5,
            Instr::Store => 6,
            Instr::PopLocals(_) => 7,
            Instr::NewRecCell => 8,
            Instr::SetRecCell(_) => 9,
            Instr::Closure { .. } => 10,
            Instr::Call(_) => 11,
            Instr::Ret => 12,
            Instr::CallPrim(..) => 13,
            Instr::Tuple(_) => 14,
            Instr::GetField(_) => 15,
            Instr::Jump(_) => 16,
            Instr::JumpIfFalse(_) => 17,
        }
    }
}

/// A VM runtime value.
#[derive(Debug, Clone)]
pub enum VmValue {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A cons list.
    List(VmList),
    /// A tuple (dictionary).
    Tuple(Rc<Vec<VmValue>>),
    /// A closure: function index plus captured values.
    Closure {
        /// Function-pool index.
        func: u32,
        /// Captured environment.
        captured: Rc<Vec<VmValue>>,
    },
    /// A first-class primitive.
    Prim(Prim),
    /// A recursion cell (only observable if a `fix` body demands itself).
    RecCell(Rc<RefCell<Option<VmValue>>>),
}

/// A persistent cons list of VM values.
#[derive(Debug, Clone, Default)]
pub struct VmList(Option<Rc<(VmValue, VmList)>>);

impl VmList {
    /// The empty list.
    pub fn nil() -> VmList {
        VmList(None)
    }

    /// Prepends an element.
    pub fn cons(head: VmValue, tail: VmList) -> VmList {
        VmList(Some(Rc::new((head, tail))))
    }

    /// Head and tail, or `None` when empty.
    pub fn uncons(&self) -> Option<(&VmValue, &VmList)> {
        self.0.as_deref().map(|n| (&n.0, &n.1))
    }

    /// Whether the list is empty.
    pub fn is_nil(&self) -> bool {
        self.0.is_none()
    }
}

impl VmValue {
    /// Structural agreement with an evaluator value.
    pub fn agrees_with(&self, other: &crate::Value) -> bool {
        match (self, other) {
            (VmValue::Int(a), crate::Value::Int(b)) => a == b,
            (VmValue::Bool(a), crate::Value::Bool(b)) => a == b,
            (VmValue::Prim(a), crate::Value::Prim(b)) => a == b,
            (VmValue::Tuple(xs), crate::Value::Tuple(ys)) => {
                xs.len() == ys.len()
                    && xs.iter().zip(ys.iter()).all(|(x, y)| x.agrees_with(y))
            }
            (VmValue::List(xs), crate::Value::List(ys)) => {
                let mut a = xs.clone();
                let mut rest = ys.clone();
                loop {
                    match (a.uncons().map(|(h, t)| (h.clone(), t.clone())), rest.uncons())
                    {
                        (None, None) => return true,
                        (Some((h, t)), Some((h2, t2))) => {
                            if !h.agrees_with(h2) {
                                return false;
                            }
                            let t2 = t2.clone();
                            a = t;
                            rest = t2;
                        }
                        _ => return false,
                    }
                }
            }
            (VmValue::Closure { .. }, crate::Value::Closure { .. }) => true,
            (VmValue::Closure { .. }, crate::Value::RecClosure { .. }) => true,
            (VmValue::Closure { .. }, crate::Value::TyClosure { .. }) => true,
            _ => false,
        }
    }
}

impl fmt::Display for VmValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmValue::Int(n) => write!(f, "{n}"),
            VmValue::Bool(b) => write!(f, "{b}"),
            VmValue::List(l) => {
                write!(f, "[")?;
                let mut cur = l.clone();
                let mut first = true;
                while let Some((h, t)) = cur.uncons().map(|(h, t)| (h.clone(), t.clone())) {
                    if !first {
                        write!(f, ", ")?;
                    }
                    first = false;
                    write!(f, "{h}")?;
                    cur = t;
                }
                write!(f, "]")
            }
            VmValue::Tuple(items) => {
                write!(f, "tuple(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            VmValue::Closure { .. } => write!(f, "<closure>"),
            VmValue::Prim(p) => write!(f, "{}", p.name()),
            VmValue::RecCell(_) => write!(f, "<reccell>"),
        }
    }
}

/// A VM runtime error. Well-typed programs only produce
/// [`VmError::EmptyList`] and [`VmError::FixForcedEarly`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// `car`/`cdr` of the empty list.
    EmptyList(Prim),
    /// A recursion cell was demanded before its `fix` completed.
    FixForcedEarly,
    /// Applied a non-function (ill-typed input).
    NotAFunction,
    /// Primitive received the wrong shape of value (ill-typed input).
    BadPrimArg(Prim),
    /// Arity mismatch at a call (ill-typed input).
    ArityMismatch,
    /// Projection from a non-tuple or out of bounds (ill-typed input).
    BadProjection,
    /// Branch on a non-boolean (ill-typed input).
    CondNotBool,
    /// A variable was not resolvable at compile time.
    UnboundVar(String),
    /// The shared resource budget ran out (see [`run_budgeted`]).
    ResourceExhausted(Exhausted),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::EmptyList(p) => write!(f, "`{}` of empty list", p.name()),
            VmError::FixForcedEarly => write!(f, "recursive value forced too early"),
            VmError::NotAFunction => write!(f, "applied a non-function"),
            VmError::BadPrimArg(p) => write!(f, "bad argument to `{}`", p.name()),
            VmError::ArityMismatch => write!(f, "wrong number of arguments"),
            VmError::BadProjection => write!(f, "invalid tuple projection"),
            VmError::CondNotBool => write!(f, "non-boolean condition"),
            VmError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            VmError::ResourceExhausted(e) => write!(f, "execution stopped: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Compile-time binding of a variable to a local slot.
#[derive(Debug, Clone)]
struct Binding {
    name: Symbol,
    slot: u32,
    is_rec: bool,
}

struct Compiler {
    funcs: Vec<Func>,
}

struct Scope {
    bindings: Vec<Binding>,
    next_slot: u32,
}

impl Scope {
    fn lookup(&self, name: Symbol) -> Option<&Binding> {
        self.bindings.iter().rev().find(|b| b.name == name)
    }
}

/// Compiles a closed term into a [`Program`].
///
/// # Errors
///
/// Returns [`VmError::UnboundVar`] for terms with free variables.
pub fn compile(term: &Term) -> Result<Program, VmError> {
    let mut c = Compiler { funcs: Vec::new() };
    // Reserve the entry function slot.
    c.funcs.push(Func {
        arity: 0,
        n_captures: 0,
        rec: false,
        code: Vec::new(),
    });
    let mut scope = Scope {
        bindings: Vec::new(),
        next_slot: 0,
    };
    let mut code = Vec::new();
    c.emit(term, &mut scope, &mut code)?;
    code.push(Instr::Ret);
    c.funcs[0].code = code;
    Ok(Program { funcs: c.funcs })
}

impl Compiler {
    fn emit(
        &mut self,
        term: &Term,
        scope: &mut Scope,
        code: &mut Vec<Instr>,
    ) -> Result<(), VmError> {
        match term {
            Term::Var(x) => {
                let b = scope
                    .lookup(*x)
                    .ok_or_else(|| VmError::UnboundVar(x.as_str().to_owned()))?;
                code.push(if b.is_rec {
                    Instr::LoadRec(b.slot)
                } else {
                    Instr::Load(b.slot)
                });
                Ok(())
            }
            Term::IntLit(n) => {
                code.push(Instr::Int(*n));
                Ok(())
            }
            Term::BoolLit(b) => {
                code.push(Instr::Bool(*b));
                Ok(())
            }
            Term::Prim(p) => {
                code.push(Instr::PrimVal(*p));
                Ok(())
            }
            Term::App(f, args) => {
                // Direct primitive application compiles to CallPrim.
                if let Some(p) = direct_prim(f) {
                    for a in args {
                        self.emit(a, scope, code)?;
                    }
                    code.push(Instr::CallPrim(p, args.len() as u32));
                    return Ok(());
                }
                self.emit(f, scope, code)?;
                for a in args {
                    self.emit(a, scope, code)?;
                }
                code.push(Instr::Call(args.len() as u32));
                Ok(())
            }
            Term::Lam(params, body) => {
                self.emit_closure(params.iter().map(|(n, _)| *n).collect(), body, scope, code)
            }
            Term::TyAbs(_, body) => {
                // A type abstraction is a zero-argument closure; type
                // application forces it.
                self.emit_closure(Vec::new(), body, scope, code)
            }
            Term::TyApp(f, _tys) => {
                match &**f {
                    // nil[τ] is the empty list; other primitives are
                    // type-erased to themselves.
                    Term::Prim(Prim::Nil) => {
                        code.push(Instr::Nil);
                        Ok(())
                    }
                    Term::Prim(p) => {
                        code.push(Instr::PrimVal(*p));
                        Ok(())
                    }
                    _ => {
                        self.emit(f, scope, code)?;
                        code.push(Instr::Call(0));
                        Ok(())
                    }
                }
            }
            Term::Let(x, bound, body) => {
                self.emit(bound, scope, code)?;
                code.push(Instr::Store);
                let slot = scope.next_slot;
                scope.next_slot += 1;
                scope.bindings.push(Binding {
                    name: *x,
                    slot,
                    is_rec: false,
                });
                self.emit(body, scope, code)?;
                scope.bindings.pop();
                scope.next_slot -= 1;
                code.push(Instr::PopLocals(1));
                Ok(())
            }
            Term::Tuple(items) => {
                for i in items {
                    self.emit(i, scope, code)?;
                }
                code.push(Instr::Tuple(items.len() as u32));
                Ok(())
            }
            Term::Nth(e, i) => {
                self.emit(e, scope, code)?;
                code.push(Instr::GetField(*i as u32));
                Ok(())
            }
            Term::If(c, t, e) => {
                self.emit(c, scope, code)?;
                let jf = code.len();
                code.push(Instr::JumpIfFalse(0));
                self.emit(t, scope, code)?;
                let jend = code.len();
                code.push(Instr::Jump(0));
                let else_at = code.len() as u32;
                code[jf] = Instr::JumpIfFalse(else_at);
                self.emit(e, scope, code)?;
                let end_at = code.len() as u32;
                code[jend] = Instr::Jump(end_at);
                Ok(())
            }
            Term::Fix(x, _ty, body) => {
                // Cycle-free recursion for fix-of-lambda: the function's
                // frame receives the closure itself as a local.
                if let Term::Lam(params, lam_body) = &**body {
                    return self.emit_rec_closure(
                        *x,
                        params.iter().map(|(n, _)| *n).collect(),
                        lam_body,
                        scope,
                        code,
                    );
                }
                code.push(Instr::NewRecCell);
                let slot = scope.next_slot;
                scope.next_slot += 1;
                scope.bindings.push(Binding {
                    name: *x,
                    slot,
                    is_rec: true,
                });
                self.emit(body, scope, code)?;
                scope.bindings.pop();
                scope.next_slot -= 1;
                code.push(Instr::SetRecCell(slot));
                // SetRecCell leaves the value; drop the cell local.
                code.push(Instr::PopLocals(1));
                Ok(())
            }
        }
    }

    /// Compiles `fix f. lam params. body`: like [`Compiler::emit_closure`]
    /// but the function is marked recursive and `f` resolves to the
    /// self-value slot the VM pushes between captures and parameters.
    fn emit_rec_closure(
        &mut self,
        fix_name: Symbol,
        params: Vec<Symbol>,
        body: &Term,
        scope: &mut Scope,
        code: &mut Vec<Instr>,
    ) -> Result<(), VmError> {
        let fvs = crate::smallstep::free_vars(body);
        let mut captures: Vec<Binding> = Vec::new();
        for fv in fvs {
            if params.contains(&fv) || fv == fix_name {
                continue;
            }
            if let Some(b) = scope.lookup(fv) {
                if !captures.iter().any(|c| c.name == fv) {
                    captures.push(b.clone());
                }
            }
        }
        let func_idx = self.funcs.len() as u32;
        self.funcs.push(Func {
            arity: params.len(),
            n_captures: captures.len(),
            rec: true,
            code: Vec::new(),
        });
        let mut inner = Scope {
            bindings: Vec::new(),
            next_slot: 0,
        };
        for cap in &captures {
            let slot = inner.next_slot;
            inner.next_slot += 1;
            inner.bindings.push(Binding {
                name: cap.name,
                slot,
                is_rec: cap.is_rec,
            });
        }
        // The self slot sits between captures and parameters.
        let self_slot = inner.next_slot;
        inner.next_slot += 1;
        inner.bindings.push(Binding {
            name: fix_name,
            slot: self_slot,
            is_rec: false,
        });
        for &p in &params {
            let slot = inner.next_slot;
            inner.next_slot += 1;
            inner.bindings.push(Binding {
                name: p,
                slot,
                is_rec: false,
            });
        }
        let mut body_code = Vec::new();
        self.emit(body, &mut inner, &mut body_code)?;
        body_code.push(Instr::Ret);
        self.funcs[func_idx as usize].code = body_code;
        code.push(Instr::Closure {
            func: func_idx,
            captures: captures.iter().map(|c| c.slot).collect(),
        });
        Ok(())
    }

    /// Compiles a lambda/tyabs to a fresh function and a `Closure`
    /// instruction capturing its free variables.
    fn emit_closure(
        &mut self,
        params: Vec<Symbol>,
        body: &Term,
        scope: &mut Scope,
        code: &mut Vec<Instr>,
    ) -> Result<(), VmError> {
        // Free variables of the body minus the parameters, resolved in the
        // enclosing scope, become the captures.
        let fvs = crate::smallstep::free_vars(body);
        let mut captures: Vec<Binding> = Vec::new();
        for fv in fvs {
            if params.contains(&fv) {
                continue;
            }
            if let Some(b) = scope.lookup(fv) {
                if !captures.iter().any(|c| c.name == fv) {
                    captures.push(b.clone());
                }
            }
            // Variables not in scope can only be dead code in well-typed
            // terms (e.g. under a shadowing binder); leave them to fail at
            // inner resolution if actually used.
        }
        let func_idx = self.funcs.len() as u32;
        self.funcs.push(Func {
            arity: params.len(),
            n_captures: captures.len(),
            rec: false,
            code: Vec::new(),
        });
        // Compile the body with captures first, then parameters.
        let mut inner = Scope {
            bindings: Vec::new(),
            next_slot: 0,
        };
        for cap in &captures {
            let slot = inner.next_slot;
            inner.next_slot += 1;
            inner.bindings.push(Binding {
                name: cap.name,
                slot,
                // A captured rec cell is captured *by value* after
                // patching… but captures can happen during fix evaluation,
                // so keep the deref behaviour.
                is_rec: cap.is_rec,
            });
        }
        for &p in &params {
            let slot = inner.next_slot;
            inner.next_slot += 1;
            inner.bindings.push(Binding {
                name: p,
                slot,
                is_rec: false,
            });
        }
        let mut body_code = Vec::new();
        self.emit(body, &mut inner, &mut body_code)?;
        body_code.push(Instr::Ret);
        self.funcs[func_idx as usize].code = body_code;
        code.push(Instr::Closure {
            func: func_idx,
            captures: captures.iter().map(|c| c.slot).collect(),
        });
        Ok(())
    }
}

/// Recognizes `prim` or `prim[τ]` in call position.
fn direct_prim(f: &Term) -> Option<Prim> {
    match f {
        Term::Prim(p) => Some(*p),
        Term::TyApp(g, _) => match &**g {
            Term::Prim(p) => Some(*p),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

struct Frame {
    func: u32,
    ip: usize,
    locals: Vec<VmValue>,
    /// Operand-stack height at frame entry (for returns).
    stack_base: usize,
}

/// Per-instruction observation hook for [`run_inner`]. The dispatch loop
/// is generic over this, so the disabled path ([`NoProfile`])
/// monomorphizes to the unobserved loop — zero cost, verified by the
/// C1–C4 benchmarks.
trait Profiler {
    /// Called once per dispatched instruction, before it executes.
    fn dispatch(&mut self, instr: &Instr, frames: usize, stack: usize);
}

/// The no-op profiler behind [`run_budgeted`].
struct NoProfile;

impl Profiler for NoProfile {
    #[inline(always)]
    fn dispatch(&mut self, _instr: &Instr, _frames: usize, _stack: usize) {}
}

/// The counting profiler behind [`run_profiled_budgeted`].
#[derive(Default)]
struct Counting {
    by_opcode: [u64; OPCODE_NAMES.len()],
    max_frame_depth: u64,
    max_stack_depth: u64,
}

impl Profiler for Counting {
    #[inline]
    fn dispatch(&mut self, instr: &Instr, frames: usize, stack: usize) {
        self.by_opcode[instr.opcode()] += 1;
        self.max_frame_depth = self.max_frame_depth.max(frames as u64);
        self.max_stack_depth = self.max_stack_depth.max(stack as u64);
    }
}

/// Instructions per batched fuel charge in [`run_inner`]: the atomic
/// add and deadline poll are amortized over this many dispatches.
const FUEL_BATCH: u32 = 1024;

/// Execution counters reported by [`run_profiled_budgeted`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions dispatched, by opcode name (all of [`OPCODE_NAMES`],
    /// in that order, including zero entries).
    pub by_opcode: Vec<(&'static str, u64)>,
    /// Deepest call stack reached (frames).
    pub max_frame_depth: u64,
    /// Highest operand stack reached (values).
    pub max_stack_depth: u64,
}

impl VmStats {
    /// Total instructions dispatched.
    pub fn instructions(&self) -> u64 {
        self.by_opcode.iter().map(|(_, n)| n).sum()
    }

    /// Dispatch count for one opcode name (0 for unknown names).
    pub fn count(&self, opcode: &str) -> u64 {
        self.by_opcode
            .iter()
            .find(|(n, _)| *n == opcode)
            .map_or(0, |(_, n)| *n)
    }
}

/// Runs a compiled program against a resource budget: every 1024
/// instructions charge batched fuel and re-check the
/// wall-clock deadline, and every call checks the frame count against
/// the depth cap, so divergent bytecode terminates with
/// [`VmError::ResourceExhausted`].
///
/// # Errors
///
/// See [`VmError`]; well-typed programs only fail on `car`/`cdr` of `nil`,
/// ill-founded recursion, or [`VmError::ResourceExhausted`].
pub fn run_budgeted(program: &Program, budget: &Budget) -> Result<VmValue, VmError> {
    fault_point(budget)?;
    run_inner(program, &mut NoProfile, budget)
}

/// Checks the `vm.run` fault-injection point, latching the budget when an
/// error is injected.
fn fault_point(budget: &Budget) -> Result<(), VmError> {
    match telemetry::fault::hit("vm.run") {
        None => Ok(()),
        Some(telemetry::fault::FaultMode::Error) => Err(VmError::ResourceExhausted(
            budget.trip(Resource::Injected, 0),
        )),
        Some(telemetry::fault::FaultMode::Panic) => panic!("injected fault panic at vm.run"),
    }
}

/// [`run_budgeted`], also counting instruction dispatches per opcode
/// and tracking peak stack depths.
///
/// # Errors
///
/// Same as [`run_budgeted`].
pub fn run_profiled_budgeted(
    program: &Program,
    budget: &Budget,
) -> Result<(VmValue, VmStats), VmError> {
    fault_point(budget)?;
    let mut prof = Counting::default();
    let v = run_inner(program, &mut prof, budget)?;
    Ok((
        v,
        VmStats {
            by_opcode: OPCODE_NAMES
                .iter()
                .copied()
                .zip(prof.by_opcode.iter().copied())
                .collect(),
            max_frame_depth: prof.max_frame_depth,
            max_stack_depth: prof.max_stack_depth,
        },
    ))
}

fn run_inner<P: Profiler>(
    program: &Program,
    prof: &mut P,
    budget: &Budget,
) -> Result<VmValue, VmError> {
    // The depth cap bounds the frame count; it is read once here, so a
    // call compares two integers instead of touching the budget.
    let max_frames = budget
        .limits()
        .max_depth
        .map_or(usize::MAX, |d| usize::try_from(d).unwrap_or(usize::MAX));
    let mut fuel_countdown = 0u32;
    let mut stack: Vec<VmValue> = Vec::new();
    let mut frames = vec![Frame {
        func: 0,
        ip: 0,
        locals: Vec::new(),
        stack_base: 0,
    }];
    loop {
        let frame_depth = frames.len();
        let frame = frames.last_mut().expect("frame stack underflow");
        let func = &program.funcs[frame.func as usize];
        if frame.ip >= func.code.len() {
            return Err(VmError::NotAFunction);
        }
        let instr = func.code[frame.ip].clone();
        frame.ip += 1;
        prof.dispatch(&instr, frame_depth, stack.len());
        if fuel_countdown == 0 {
            fuel_countdown = FUEL_BATCH;
            budget
                .charge_fuel(u64::from(FUEL_BATCH))
                .and_then(|()| budget.check_deadline())
                .map_err(VmError::ResourceExhausted)?;
        }
        fuel_countdown -= 1;
        match instr {
            Instr::Int(n) => stack.push(VmValue::Int(n)),
            Instr::Bool(b) => stack.push(VmValue::Bool(b)),
            Instr::Nil => stack.push(VmValue::List(VmList::nil())),
            Instr::PrimVal(p) => stack.push(VmValue::Prim(p)),
            Instr::Load(n) => {
                let v = frame.locals[n as usize].clone();
                stack.push(v);
            }
            Instr::LoadRec(n) => {
                let v = match &frame.locals[n as usize] {
                    VmValue::RecCell(cell) => cell
                        .borrow()
                        .clone()
                        .ok_or(VmError::FixForcedEarly)?,
                    other => other.clone(),
                };
                stack.push(v);
            }
            Instr::Store => {
                let v = stack.pop().ok_or(VmError::ArityMismatch)?;
                frame.locals.push(v);
            }
            Instr::PopLocals(n) => {
                for _ in 0..n {
                    frame.locals.pop();
                }
            }
            Instr::NewRecCell => {
                frame
                    .locals
                    .push(VmValue::RecCell(Rc::new(RefCell::new(None))));
            }
            Instr::SetRecCell(slot) => {
                let v = stack.last().cloned().ok_or(VmError::ArityMismatch)?;
                if let VmValue::RecCell(cell) = &frame.locals[slot as usize] {
                    *cell.borrow_mut() = Some(v);
                }
            }
            Instr::Closure { func, captures } => {
                let captured: Vec<VmValue> = captures
                    .iter()
                    .map(|&slot| frame.locals[slot as usize].clone())
                    .collect();
                stack.push(VmValue::Closure {
                    func,
                    captured: Rc::new(captured),
                });
            }
            Instr::Call(nargs) => {
                let nargs = nargs as usize;
                let callee_at = stack.len() - nargs - 1;
                let callee = stack[callee_at].clone();
                match callee {
                    VmValue::Closure { func, captured } => {
                        let target = &program.funcs[func as usize];
                        if target.arity != nargs {
                            return Err(VmError::ArityMismatch);
                        }
                        if frame_depth >= max_frames {
                            return Err(VmError::ResourceExhausted(
                                budget.trip(Resource::Depth, max_frames as u64),
                            ));
                        }
                        let mut locals: Vec<VmValue> =
                            Vec::with_capacity(target.n_captures + nargs + 1);
                        locals.extend(captured.iter().cloned());
                        if target.rec {
                            // Self slot between captures and parameters.
                            locals.push(VmValue::Closure {
                                func,
                                captured: Rc::clone(&captured),
                            });
                        }
                        locals.extend(stack.drain(callee_at + 1..));
                        stack.pop(); // the callee
                        frames.push(Frame {
                            func,
                            ip: 0,
                            locals,
                            stack_base: stack.len(),
                        });
                    }
                    VmValue::Prim(p) => {
                        let args: Vec<VmValue> = stack.drain(callee_at + 1..).collect();
                        stack.pop();
                        stack.push(apply_prim(p, args)?);
                    }
                    _ => return Err(VmError::NotAFunction),
                }
            }
            Instr::CallPrim(p, nargs) => {
                let at = stack.len() - nargs as usize;
                let args: Vec<VmValue> = stack.drain(at..).collect();
                stack.push(apply_prim(p, args)?);
            }
            Instr::Ret => {
                let frame = frames.pop().expect("frame stack underflow");
                let result = stack.pop().ok_or(VmError::ArityMismatch)?;
                stack.truncate(frame.stack_base);
                stack.push(result);
                if frames.is_empty() {
                    return stack.pop().ok_or(VmError::ArityMismatch);
                }
            }
            Instr::Tuple(n) => {
                let at = stack.len() - n as usize;
                let items: Vec<VmValue> = stack.drain(at..).collect();
                stack.push(VmValue::Tuple(Rc::new(items)));
            }
            Instr::GetField(i) => {
                let v = stack.pop().ok_or(VmError::BadProjection)?;
                match v {
                    VmValue::Tuple(items) => {
                        let item =
                            items.get(i as usize).cloned().ok_or(VmError::BadProjection)?;
                        stack.push(item);
                    }
                    _ => return Err(VmError::BadProjection),
                }
            }
            Instr::Jump(target) => frame.ip = target as usize,
            Instr::JumpIfFalse(target) => {
                match stack.pop().ok_or(VmError::CondNotBool)? {
                    VmValue::Bool(true) => {}
                    VmValue::Bool(false) => frame.ip = target as usize,
                    _ => return Err(VmError::CondNotBool),
                }
            }
        }
    }
}

fn apply_prim(p: Prim, args: Vec<VmValue>) -> Result<VmValue, VmError> {
    fn int2(p: Prim, args: &[VmValue]) -> Result<(i64, i64), VmError> {
        match args {
            [VmValue::Int(a), VmValue::Int(b)] => Ok((*a, *b)),
            _ => Err(VmError::BadPrimArg(p)),
        }
    }
    fn bool2(p: Prim, args: &[VmValue]) -> Result<(bool, bool), VmError> {
        match args {
            [VmValue::Bool(a), VmValue::Bool(b)] => Ok((*a, *b)),
            _ => Err(VmError::BadPrimArg(p)),
        }
    }
    match p {
        Prim::IAdd => int2(p, &args).map(|(a, b)| VmValue::Int(a.wrapping_add(b))),
        Prim::ISub => int2(p, &args).map(|(a, b)| VmValue::Int(a.wrapping_sub(b))),
        Prim::IMult => int2(p, &args).map(|(a, b)| VmValue::Int(a.wrapping_mul(b))),
        Prim::INeg => match args.as_slice() {
            [VmValue::Int(a)] => Ok(VmValue::Int(a.wrapping_neg())),
            _ => Err(VmError::BadPrimArg(p)),
        },
        Prim::IEq => int2(p, &args).map(|(a, b)| VmValue::Bool(a == b)),
        Prim::ILt => int2(p, &args).map(|(a, b)| VmValue::Bool(a < b)),
        Prim::ILe => int2(p, &args).map(|(a, b)| VmValue::Bool(a <= b)),
        Prim::BNot => match args.as_slice() {
            [VmValue::Bool(a)] => Ok(VmValue::Bool(!a)),
            _ => Err(VmError::BadPrimArg(p)),
        },
        Prim::BAnd => bool2(p, &args).map(|(a, b)| VmValue::Bool(a && b)),
        Prim::BOr => bool2(p, &args).map(|(a, b)| VmValue::Bool(a || b)),
        Prim::BEq => bool2(p, &args).map(|(a, b)| VmValue::Bool(a == b)),
        Prim::Nil => Ok(VmValue::List(VmList::nil())),
        Prim::Cons => match args.as_slice() {
            [head, VmValue::List(tail)] => {
                Ok(VmValue::List(VmList::cons(head.clone(), tail.clone())))
            }
            _ => Err(VmError::BadPrimArg(p)),
        },
        Prim::Car => match args.as_slice() {
            [VmValue::List(l)] => l
                .uncons()
                .map(|(h, _)| h.clone())
                .ok_or(VmError::EmptyList(p)),
            _ => Err(VmError::BadPrimArg(p)),
        },
        Prim::Cdr => match args.as_slice() {
            [VmValue::List(l)] => l
                .uncons()
                .map(|(_, t)| VmValue::List(t.clone()))
                .ok_or(VmError::EmptyList(p)),
            _ => Err(VmError::BadPrimArg(p)),
        },
        Prim::Null => match args.as_slice() {
            [VmValue::List(l)] => Ok(VmValue::Bool(l.is_nil())),
            _ => Err(VmError::BadPrimArg(p)),
        },
    }
}

impl fmt::Display for Program {
    /// Disassembles the program: one block per function, `fN(arity)` with
    /// capture counts, one instruction per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.funcs.iter().enumerate() {
            writeln!(
                f,
                "fn f{i} (arity {}, captures {}):",
                func.arity, func.n_captures
            )?;
            for (pc, instr) in func.code.iter().enumerate() {
                write!(f, "  {pc:4}  ")?;
                match instr {
                    Instr::Int(n) => writeln!(f, "int       {n}")?,
                    Instr::Bool(b) => writeln!(f, "bool      {b}")?,
                    Instr::Nil => writeln!(f, "nil")?,
                    Instr::PrimVal(p) => writeln!(f, "prim      {}", p.name())?,
                    Instr::Load(n) => writeln!(f, "load      {n}")?,
                    Instr::LoadRec(n) => writeln!(f, "loadrec   {n}")?,
                    Instr::Store => writeln!(f, "store")?,
                    Instr::PopLocals(n) => writeln!(f, "poplocals {n}")?,
                    Instr::NewRecCell => writeln!(f, "newrec")?,
                    Instr::SetRecCell(n) => writeln!(f, "setrec    {n}")?,
                    Instr::Closure { func, captures } => {
                        writeln!(f, "closure   f{func} captures {captures:?}")?
                    }
                    Instr::Call(n) => writeln!(f, "call      {n}")?,
                    Instr::Ret => writeln!(f, "ret")?,
                    Instr::CallPrim(p, n) => {
                        writeln!(f, "callprim  {} {n}", p.name())?
                    }
                    Instr::Tuple(n) => writeln!(f, "tuple     {n}")?,
                    Instr::GetField(i2) => writeln!(f, "getfield  {i2}")?,
                    Instr::Jump(t) => writeln!(f, "jump      {t}")?,
                    Instr::JumpIfFalse(t) => writeln!(f, "jumpfalse {t}")?,
                }
            }
        }
        Ok(())
    }
}

/// The number of instructions in a compiled program (all functions).
pub fn instruction_count(program: &Program) -> usize {
    program.funcs.iter().map(|f| f.code.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, parse_term, typecheck};
    use telemetry::limits::Limits;

    fn vm_run(t: &Term) -> Result<VmValue, VmError> {
        run_budgeted(&compile(t)?, &Budget::unlimited())
    }

    fn vm(src: &str) -> VmValue {
        let t = parse_term(src).unwrap();
        typecheck(&t).unwrap();
        vm_run(&t).unwrap()
    }

    fn agree(src: &str) {
        let t = parse_term(src).unwrap();
        typecheck(&t).unwrap();
        let big = eval(&t).unwrap();
        let v = vm_run(&t).unwrap();
        assert!(v.agrees_with(&big), "{src}: vm {v} vs eval {big}");
    }

    #[test]
    fn arithmetic_and_branches() {
        assert!(matches!(vm("iadd(40, 2)"), VmValue::Int(42)));
        assert!(matches!(
            vm("if ilt(1, 2) then 10 else 20"),
            VmValue::Int(10)
        ));
    }

    #[test]
    fn closures_capture() {
        agree("let y = 10 in (lam x: int. iadd(x, y))(5)");
        agree(
            "let make = lam y: int. lam x: int. iadd(x, y) in
             let add3 = make(3) in let add5 = make(5) in
             iadd(add3(1), add5(1))",
        );
    }

    #[test]
    fn polymorphism_erases() {
        agree("(biglam t. lam x: t. x)[int](9)");
        agree("let id = biglam t. lam x: t. x in iadd(id[int](1), 2)");
    }

    #[test]
    fn tuples_and_projection() {
        agree("tuple(1, tuple(true, 3)).1.0");
        agree("let d = tuple(iadd, 0) in d.0(d.1, 42)");
    }

    #[test]
    fn lists() {
        agree("car[int](cons[int](7, nil[int]))");
        agree("null[int](cdr[int](cons[int](7, nil[int])))");
    }

    #[test]
    fn fix_recursion() {
        agree(
            "(fix go: fn(int) -> int.
               lam n: int. if ile(n, 0) then 0 else iadd(n, go(isub(n, 1))))(100)",
        );
    }

    #[test]
    fn deep_recursion_does_not_blow_the_host_stack() {
        // 100k recursive calls — far beyond what the tree-walker could
        // do on a 2 MB thread stack.
        let src = "(fix go: fn(int) -> int.
               lam n: int. if ile(n, 0) then 0 else iadd(1, go(isub(n, 1))))(100000)";
        assert!(matches!(vm(src), VmValue::Int(100000)));
    }

    #[test]
    fn figure_3_on_the_vm() {
        agree(
            "let sum = biglam t.
               fix sum: fn(list t, fn(t, t) -> t, t) -> t.
                 lam ls: list t, add: fn(t, t) -> t, zero: t.
                   if null[t](ls) then zero
                   else add(car[t](ls), sum(cdr[t](ls), add, zero))
             in
             let ls = cons[int](1, cons[int](2, nil[int])) in
             sum[int](ls, iadd, 0)",
        );
    }

    #[test]
    fn car_of_nil_errors() {
        let t = parse_term("car[int](nil[int])").unwrap();
        assert!(matches!(
            vm_run(&t),
            Err(VmError::EmptyList(Prim::Car))
        ));
    }

    #[test]
    fn shadowing_and_let_nesting() {
        agree("let x = 1 in let x = iadd(x, 1) in imult(x, 10)");
        agree("let f = lam x: int. x in let f = lam x: int. iadd(x, 1) in f(1)");
    }

    #[test]
    fn higher_order_dictionaries() {
        // Dictionary-passing shape: a generic function as a closure taking
        // a dictionary tuple.
        agree(
            "let accumulate = biglam t. lam d: tuple(fn(t, t) -> t, t).
               fix accum: fn(list t) -> t.
                 lam ls: list t.
                   if null[t](ls) then d.1
                   else d.0(car[t](ls), accum(cdr[t](ls)))
             in accumulate[int](tuple(iadd, 0))(cons[int](1, cons[int](2, nil[int])))",
        );
    }

    #[test]
    fn instruction_count_is_positive() {
        let t = parse_term("iadd(1, 2)").unwrap();
        let p = compile(&t).unwrap();
        assert!(instruction_count(&p) >= 3);
    }

    #[test]
    fn profiled_run_agrees_and_counts_dispatches() {
        let t = parse_term(
            "let f = fix go: fn(int) -> int.
               lam n: int. if ile(n, 0) then 0 else iadd(n, go(isub(n, 1)))
             in f(10)",
        )
        .unwrap();
        let p = compile(&t).unwrap();
        let plain = run_budgeted(&p, &Budget::unlimited()).unwrap();
        let (profiled, stats) = run_profiled_budgeted(&p, &Budget::unlimited()).unwrap();
        assert!(profiled.agrees_with(&crate::eval(&t).unwrap()), "{profiled}");
        assert_eq!(format!("{plain}"), format!("{profiled}"));
        // One `ret` per call, plus the entry frame's own return.
        assert!(stats.count("call") >= 10, "{stats:?}");
        assert_eq!(stats.count("ret"), stats.count("call") + 1, "{stats:?}");
        assert!(stats.instructions() > stats.count("call"), "{stats:?}");
        assert!(stats.max_frame_depth >= 10, "{stats:?}");
        assert_eq!(stats.by_opcode.len(), OPCODE_NAMES.len());
        assert_eq!(stats.count("no_such_opcode"), 0);
    }

    #[test]
    fn the_depth_cap_bounds_the_frame_count() {
        // Ω never returns: every call pushes a frame. The depth cap stops
        // it long before the fuel cap would.
        let t = parse_term("(fix f: fn(int) -> int. lam x: int. f(x))(0)").unwrap();
        let p = compile(&t).unwrap();
        let budget = Budget::new(Limits {
            fuel: Some(50_000_000),
            max_depth: Some(64),
            ..Limits::UNLIMITED
        });
        let err = run_budgeted(&p, &budget).unwrap_err();
        let VmError::ResourceExhausted(x) = err else {
            panic!("{err:?}");
        };
        assert_eq!((x.resource, x.limit), (Resource::Depth, 64));
        assert!(budget.fuel_spent() < 10_000, "{}", budget.fuel_spent());
        // 63 nested calls under the entry frame fill the cap exactly.
        let t = parse_term(
            "(fix go: fn(int) -> int.
               lam n: int. if ile(n, 0) then 0 else iadd(1, go(isub(n, 1))))(62)",
        )
        .unwrap();
        let budget = Budget::new(Limits {
            max_depth: Some(64),
            ..Limits::UNLIMITED
        });
        let (v, stats) = run_profiled_budgeted(&compile(&t).unwrap(), &budget).unwrap();
        assert!(matches!(v, VmValue::Int(62)), "{v}");
        assert_eq!(stats.max_frame_depth, 64);
    }

    #[test]
    fn disassembly_is_readable() {
        let t = parse_term("let f = lam x: int. iadd(x, 1) in f(41)").unwrap();
        let p = compile(&t).unwrap();
        let asm = p.to_string();
        assert!(asm.contains("fn f0"), "{asm}");
        assert!(asm.contains("closure   f1"), "{asm}");
        assert!(asm.contains("callprim  iadd 2"), "{asm}");
        assert!(asm.contains("ret"), "{asm}");
    }
}
