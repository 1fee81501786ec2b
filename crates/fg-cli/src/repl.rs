//! An interactive read–eval–print loop for F_G.
//!
//! F_G is expression-oriented — declarations are `concept … in e`,
//! `model … in e`, `let x = … in e` — so the REPL works by accumulating a
//! declaration *prefix*: entering a declaration (without its `in`) appends
//! it to the prefix after validation; entering an expression compiles and
//! runs `prefix + expression`.
//!
//! Commands: `:type e`, `:translate e`, `:elaborate e`, `:decls`,
//! `:reset`, `:help`, `:quit`.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use telemetry::limits::{Budget, Limits};

/// The accumulated REPL session state.
pub struct Repl {
    /// Declaration prefix, each entry a complete `… in`-terminated chunk.
    decls: Vec<String>,
    /// Per-interaction resource caps (defaults + env, overridable by
    /// CLI flags via [`Repl::set_limits`]).
    limits: Limits,
}

impl Repl {
    /// Creates a session, optionally preloaded with the stdlib prelude.
    pub fn new(with_prelude: bool) -> Repl {
        let mut decls = Vec::new();
        if with_prelude {
            decls.push(fg::stdlib::PRELUDE.to_owned());
        }
        Repl {
            decls,
            limits: Limits::DEFAULT_CAPS.with_env(),
        }
    }

    /// Overrides the per-interaction resource caps.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    fn prefix(&self) -> String {
        self.decls.concat()
    }

    fn program(&self, body: &str) -> String {
        format!("{}\n{}\n", self.prefix(), body)
    }

    /// A fresh budget for one interaction, so one exhausted entry never
    /// poisons the session.
    fn budget(&self) -> Arc<Budget> {
        Arc::new(Budget::new(self.limits))
    }

    fn compile_with(&self, body: &str, budget: &Arc<Budget>) -> Result<fg::Compiled, String> {
        let src = self.program(body);
        let expr = fg::parser::parse_expr_budgeted(&src, budget.clone())
            .map_err(|e| format!("parse error: {e}"))?;
        fg::check::check_program_budgeted(&expr, telemetry::trace::Tracer::disabled(), budget.clone())
            .map_err(|e| e.render(&src))
    }

    fn compile(&self, body: &str) -> Result<fg::Compiled, String> {
        self.compile_with(body, &self.budget())
    }

    /// Handles one input line, returning the text to print (or `None` to
    /// quit). Panic-isolated: any crash in the pipeline (a bug in `fg`,
    /// or an injected `:panic` fault) is caught and reported as a line of
    /// output, and the session keeps serving.
    pub fn handle(&mut self, line: &str) -> Option<String> {
        // The declaration list is only pushed to after a successful
        // validation compile, so a mid-pipeline panic cannot leave it
        // half-updated.
        match catch_unwind(AssertUnwindSafe(|| self.handle_inner(line))) {
            Ok(reply) => reply,
            Err(payload) => {
                let msg = fg::pool::panic_message(&*payload);
                Some(format!("internal error: {msg} (session preserved)"))
            }
        }
    }

    fn handle_inner(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return Some(String::new());
        }
        if let Some(cmd) = line.strip_prefix(':') {
            return self.command(cmd);
        }
        // Declarations: a leading keyword and no `in` continuation makes
        // this a prefix entry. `prefix + line + " in 0"` must typecheck.
        let first = line.split_whitespace().next().unwrap_or("");
        if matches!(first, "concept" | "model" | "type" | "let") {
            let candidate = format!("{line} in");
            let probe = format!("{candidate} 0");
            match self.compile(&probe) {
                Ok(_) => {
                    self.decls.push(format!("{candidate}\n"));
                    return Some(format!("defined ({first})"));
                }
                Err(first_err) => {
                    // It may have been a complete expression after all
                    // (e.g. `let x = 1 in x`); fall through and report the
                    // declaration error only if that also fails.
                    if self.compile(line).is_err() {
                        return Some(first_err);
                    }
                }
            }
        }
        let budget = self.budget();
        match self.compile_with(line, &budget) {
            Ok(compiled) => match system_f::eval_budgeted(&compiled.term, &budget) {
                Ok(v) => Some(format!("{v} : {}", compiled.ty)),
                Err(e) => Some(format!("runtime error: {e}")),
            },
            Err(e) => Some(e),
        }
    }

    fn command(&mut self, cmd: &str) -> Option<String> {
        let (name, rest) = match cmd.split_once(char::is_whitespace) {
            Some((n, r)) => (n, r.trim()),
            None => (cmd, ""),
        };
        match name {
            "q" | "quit" | "exit" => None,
            "help" => Some(
                "enter an expression to evaluate it, or a declaration\n\
                 (concept …, model …, let x = …, type t = …) to add it to the session\n\
                 :type e       show the F_G type of e\n\
                 :translate e  show the System F translation of e\n\
                 :elaborate e  show e with inferred type arguments inserted\n\
                 :decls        list session declarations\n\
                 :reset        drop all session declarations\n\
                 :quit         leave"
                    .to_owned(),
            ),
            "type" => Some(match self.compile(rest) {
                Ok(c) => format!("{}", c.ty),
                Err(e) => e,
            }),
            "translate" => Some(match self.compile(rest) {
                Ok(c) => format!("{}", c.term),
                Err(e) => e,
            }),
            "elaborate" => Some(match self.compile(rest) {
                Ok(c) => format!("{}", c.elaborated),
                Err(e) => e,
            }),
            "decls" => Some(if self.decls.is_empty() {
                "(no declarations)".to_owned()
            } else {
                self.decls
                    .iter()
                    .map(|d| d.trim().lines().next().unwrap_or("").to_owned())
                    .collect::<Vec<_>>()
                    .join("\n")
            }),
            "reset" => {
                self.decls.clear();
                Some("session cleared".to_owned())
            }
            other => Some(format!("unknown command `:{other}` (try :help)")),
        }
    }
}

/// Runs the REPL over the given reader/writer until EOF or `:quit`.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn run_repl(
    input: impl BufRead,
    mut output: impl Write,
    with_prelude: bool,
    limits: Limits,
) -> std::io::Result<()> {
    let mut repl = Repl::new(with_prelude);
    repl.set_limits(limits);
    writeln!(output, "F_G repl — :help for commands, :quit to leave")?;
    write!(output, "fg> ")?;
    output.flush()?;
    for line in input.lines() {
        let line = line?;
        match repl.handle(&line) {
            Some(reply) => {
                if !reply.is_empty() {
                    writeln!(output, "{reply}")?;
                }
            }
            None => break,
        }
        write!(output, "fg> ")?;
        output.flush()?;
    }
    writeln!(output)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Repl;

    #[test]
    fn evaluates_expressions() {
        let mut r = Repl::new(false);
        assert_eq!(r.handle("iadd(40, 2)").unwrap(), "42 : int");
        assert_eq!(r.handle("true").unwrap(), "true : bool");
    }

    #[test]
    fn accumulates_declarations() {
        let mut r = Repl::new(false);
        assert_eq!(
            r.handle("concept S<t> { op : fn(t, t) -> t; }").unwrap(),
            "defined (concept)"
        );
        assert_eq!(
            r.handle("model S<int> { op = imult; }").unwrap(),
            "defined (model)"
        );
        assert_eq!(r.handle("let six = 6").unwrap(), "defined (let)");
        assert_eq!(r.handle("S<int>.op(six, 7)").unwrap(), "42 : int");
    }

    #[test]
    fn complete_let_expressions_still_evaluate() {
        let mut r = Repl::new(false);
        assert_eq!(r.handle("let x = 1 in iadd(x, 1)").unwrap(), "2 : int");
    }

    #[test]
    fn prelude_session() {
        let mut r = Repl::new(true);
        assert_eq!(
            r.handle("accumulate(range(1, 5))").unwrap(),
            "10 : int"
        );
    }

    #[test]
    fn type_and_reset_commands() {
        let mut r = Repl::new(false);
        assert_eq!(r.handle(":type lam x: int. x").unwrap(), "fn(int) -> int");
        r.handle("let y = 5").unwrap();
        assert_eq!(r.handle("y").unwrap(), "5 : int");
        assert_eq!(r.handle(":reset").unwrap(), "session cleared");
        assert!(r.handle("y").unwrap().contains("unbound variable"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut r = Repl::new(false);
        assert!(r.handle("ghost").unwrap().contains("unbound variable"));
        assert_eq!(r.handle("1").unwrap(), "1 : int");
        assert!(r
            .handle("model Nope<int> { }")
            .unwrap()
            .contains("unknown concept"));
    }

    #[test]
    fn quit_ends_the_session() {
        let mut r = Repl::new(false);
        assert!(r.handle(":quit").is_none());
    }

    #[test]
    fn crash_then_continue_scripted_session() {
        // A scripted (rustyline-free) session: a line that panics inside
        // the pipeline is reported and the session keeps serving, with all
        // earlier declarations intact.
        let plan = telemetry::fault::FaultPlan::parse("check.expr:panic").unwrap();
        let mut r = Repl::new(false);
        r.handle("concept S<t> { op : fn(t, t) -> t; }").unwrap();
        r.handle("model S<int> { op = iadd; }").unwrap();
        r.handle("let forty = 40").unwrap();

        let crashed = telemetry::fault::with_plan(plan, || r.handle("S<int>.op(forty, 2)"));
        let msg = crashed.unwrap();
        assert!(
            msg.contains("internal error") && msg.contains("session preserved"),
            "expected a caught-crash report, got: {msg}"
        );

        // The very next line evaluates normally against the same bindings.
        assert_eq!(r.handle("S<int>.op(forty, 2)").unwrap(), "42 : int");
    }

    #[test]
    fn budget_exhaustion_returns_to_the_prompt() {
        // A diverging expression dies on the per-interaction budget (as a
        // diagnostic, not a hang) and the session continues. The depth cap
        // backstops fuel because Ω deepens the stack as it burns.
        let mut r = Repl::new(false);
        r.set_limits(telemetry::limits::Limits {
            fuel: Some(10_000),
            max_depth: Some(64),
            ..telemetry::limits::Limits::UNLIMITED
        });
        let msg = r
            .handle("(fix f: fn(int) -> int. lam x: int. f(x))(0)")
            .unwrap();
        assert!(
            msg.contains("exhausted") || msg.contains("budget"),
            "expected an exhaustion diagnostic, got: {msg}"
        );
        assert_eq!(r.handle("iadd(40, 2)").unwrap(), "42 : int");
    }

    #[test]
    fn elaborate_command_shows_inference() {
        let mut r = Repl::new(false);
        r.handle("let id = biglam t. lam x: t. x").unwrap();
        let out = r.handle(":elaborate id(3)").unwrap();
        assert!(out.contains("id[int](3)"), "{out}");
    }
}
