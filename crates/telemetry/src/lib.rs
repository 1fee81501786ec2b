//! Pipeline telemetry for the F_G reproduction: a dependency-free metrics
//! registry with phase wall-clock timers, grouped monotonic counters and
//! gauges, a stable JSON emitter, and a human-readable profile table.
//!
//! The pipeline crates (`fg`, `system-f`, `congruence`) each keep their own
//! plain-integer statistics structs on their hot paths — an always-cheap
//! design where an increment is a single add, and the genuinely hot VM
//! dispatch loop is generic over a profiler so the disabled path
//! monomorphizes to no-ops. This crate is the *sink*: drivers (the CLI, the
//! bench harness, tests) collect those raw statistics into a [`Metrics`]
//! value and render it.
//!
//! # JSON schemas
//!
//! Two stable, versioned schemas share one emitter:
//!
//! * `fg-metrics/1` ([`Metrics::to_json`]) — one pipeline run:
//!
//!   ```json
//!   {
//!     "schema": "fg-metrics/1",
//!     "command": "run",
//!     "source": "examples/fig5_accumulate.fg",
//!     "phases_ns": { "parse": 12345, "check_translate": 67890 },
//!     "counters": {
//!       "check":      { "model_lookups": 3, "model_hits": 3 },
//!       "congruence": { "unions": 4, "finds": 120, "terms": 31 }
//!     }
//!   }
//!   ```
//!
//!   Phase and counter keys appear in insertion order; group and key names
//!   are lower_snake_case. Values are non-negative integers (nanoseconds
//!   for phases).
//!
//! * `fg-bench/1` ([`BenchReport::to_json`]) — one benchmark-suite run:
//!
//!   ```json
//!   {
//!     "schema": "fg-bench/1",
//!     "harness": "fg-bench-json",
//!     "benches": [
//!       { "group": "congruence_scaling", "id": "nelson_oppen", "param": "1024",
//!         "iters": 55, "total_ns": 31000000, "mean_ns": 563636 }
//!     ]
//!   }
//!   ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod json;
pub mod limits;
pub mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// Version tag emitted by [`Metrics::to_json`].
pub const METRICS_SCHEMA: &str = "fg-metrics/1";
/// Version tag emitted by [`BenchReport::to_json`].
pub const BENCH_SCHEMA: &str = "fg-bench/1";

/// A metrics registry for one pipeline run: ordered phase timers plus
/// grouped counters.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    command: Option<String>,
    source: Option<String>,
    phases: Vec<(String, u64)>,
    groups: Vec<(String, Vec<(String, u64)>)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records which CLI command (or driver) produced this run.
    pub fn set_command(&mut self, command: &str) {
        self.command = Some(command.to_owned());
    }

    /// Records the program source identifier (path, `-`, or corpus id).
    pub fn set_source(&mut self, source: &str) {
        self.source = Some(source.to_owned());
    }

    /// Times `f` as phase `name`, accumulating into any existing entry.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add_phase_ns(name, saturating_ns(start.elapsed().as_nanos()));
        out
    }

    /// Adds `ns` nanoseconds to phase `name` (creating it at the end of
    /// the phase list if new).
    pub fn add_phase_ns(&mut self, name: &str, ns: u64) {
        if let Some((_, v)) = self.phases.iter_mut().find(|(n, _)| n == name) {
            *v = v.saturating_add(ns);
        } else {
            self.phases.push((name.to_owned(), ns));
        }
    }

    /// The accumulated nanoseconds of phase `name`, if recorded.
    pub fn phase_ns(&self, name: &str) -> Option<u64> {
        self.phases.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Adds `value` to counter `group.key` (creating group and key in
    /// insertion order if new).
    pub fn add_counter(&mut self, group: &str, key: &str, value: u64) {
        let entries = match self.groups.iter_mut().position(|(g, _)| g == group) {
            Some(i) => &mut self.groups[i].1,
            None => {
                self.groups.push((group.to_owned(), Vec::new()));
                &mut self.groups.last_mut().expect("just pushed").1
            }
        };
        if let Some((_, v)) = entries.iter_mut().find(|(k, _)| k == key) {
            *v = v.saturating_add(value);
        } else {
            entries.push((key.to_owned(), value));
        }
    }

    /// Overwrites counter `group.key` with `value` (a gauge write).
    pub fn set_counter(&mut self, group: &str, key: &str, value: u64) {
        self.add_counter(group, key, 0);
        let entries = &mut self
            .groups
            .iter_mut()
            .find(|(g, _)| g == group)
            .expect("group just ensured")
            .1;
        let slot = entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key just ensured");
        slot.1 = value;
    }

    /// Merges another registry into this one: phase times and counters
    /// accumulate (saturating), with `other`'s groups and keys appended
    /// in their own insertion order when new. This is the aggregation
    /// primitive behind `fg --jobs N` and `fg serve`: each pooled worker
    /// collects into a private `Metrics` on its own thread, and the
    /// driver folds the per-worker sinks into one `fg-metrics/1` report.
    /// The command/source labels of `self` win; `other`'s fill in only
    /// if unset.
    pub fn merge(&mut self, other: &Metrics) {
        if self.command.is_none() {
            self.command.clone_from(&other.command);
        }
        if self.source.is_none() {
            self.source.clone_from(&other.source);
        }
        for (name, ns) in &other.phases {
            self.add_phase_ns(name, *ns);
        }
        for (group, entries) in &other.groups {
            for (key, value) in entries {
                self.add_counter(group, key, *value);
            }
        }
    }

    /// Reads counter `group.key`, if present.
    pub fn counter(&self, group: &str, key: &str) -> Option<u64> {
        self.groups
            .iter()
            .find(|(g, _)| g == group)
            .and_then(|(_, entries)| entries.iter().find(|(k, _)| k == key))
            .map(|&(_, v)| v)
    }

    /// The counter groups in insertion order (group, entries).
    pub fn groups(&self) -> impl Iterator<Item = (&str, &[(String, u64)])> {
        self.groups.iter().map(|(g, e)| (g.as_str(), e.as_slice()))
    }

    /// Renders the `fg-metrics/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_str("schema", METRICS_SCHEMA);
        if let Some(c) = &self.command {
            w.field_str("command", c);
        }
        if let Some(s) = &self.source {
            w.field_str("source", s);
        }
        w.key("phases_ns");
        w.open_object();
        for (name, ns) in &self.phases {
            w.field_u64(name, *ns);
        }
        w.close_object();
        w.key("counters");
        w.open_object();
        for (group, entries) in &self.groups {
            w.key(group);
            w.open_object();
            for (key, value) in entries {
                w.field_u64(key, *value);
            }
            w.close_object();
        }
        w.close_object();
        w.close_object();
        w.finish()
    }

    /// Renders the human-readable profile table printed by `--profile`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let label = match (&self.command, &self.source) {
            (Some(c), Some(s)) => format!("{c} {s}"),
            (Some(c), None) => c.clone(),
            (None, Some(s)) => s.clone(),
            (None, None) => "run".to_owned(),
        };
        let _ = writeln!(out, "== fg profile: {label} ==");
        if !self.phases.is_empty() {
            let total: u64 = self.phases.iter().map(|&(_, ns)| ns).sum();
            let _ = writeln!(out, "phase                        time      share");
            for (name, ns) in &self.phases {
                let share = if total == 0 {
                    0.0
                } else {
                    *ns as f64 * 100.0 / total as f64
                };
                let _ = writeln!(out, "  {:<26} {:>9} {:>5.1}%", name, fmt_ns(*ns), share);
            }
            let _ = writeln!(out, "  {:<26} {:>9} 100.0%", "total", fmt_ns(total));
        }
        for (group, entries) in &self.groups {
            let _ = writeln!(out, "{group}");
            for (key, value) in entries {
                let _ = writeln!(out, "  {key:<26} {value:>12}");
            }
        }
        out
    }
}

fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One measured benchmark in a [`BenchReport`].
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// The benchmark group name.
    pub group: String,
    /// The benchmark id within the group.
    pub id: String,
    /// The parameter rendering, if parameterized (else empty).
    pub param: String,
    /// Timed iterations executed.
    pub iters: u64,
    /// Total wall-clock nanoseconds across the timed iterations.
    pub total_ns: u64,
}

impl BenchEntry {
    /// Mean nanoseconds per iteration.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.iters).unwrap_or(0)
    }
}

/// A whole benchmark-suite run, serialized as `fg-bench/1`.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// The name of the harness that ran the suite.
    pub harness: String,
    /// Measured entries, in execution order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Renders the `fg-bench/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_str("schema", BENCH_SCHEMA);
        w.field_str("harness", &self.harness);
        w.key("benches");
        w.open_array();
        for e in &self.entries {
            w.open_object();
            w.field_str("group", &e.group);
            w.field_str("id", &e.id);
            w.field_str("param", &e.param);
            w.field_u64("iters", e.iters);
            w.field_u64("total_ns", e.total_ns);
            w.field_u64("mean_ns", e.mean_ns());
            w.close_object();
        }
        w.close_array();
        w.close_object();
        w.finish()
    }
}

/// A minimal streaming JSON writer with two-space indentation and stable
/// key order (whatever order the caller emits).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    depth: usize,
    /// Whether the current container already has an element (needs a comma).
    needs_comma: Vec<bool>,
    /// Set after a `key()`: the next value belongs to that key, so its
    /// comma/newline handling is suppressed.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn pre_element(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
            self.newline();
        }
    }

    /// Starts a `{` object (as a value or document root).
    pub fn open_object(&mut self) {
        self.pre_element();
        self.out.push('{');
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost object.
    pub fn close_object(&mut self) {
        let had = self.needs_comma.pop().unwrap_or(false);
        self.depth -= 1;
        if had {
            self.newline();
        }
        self.out.push('}');
    }

    /// Starts a `[` array (as a value).
    pub fn open_array(&mut self) {
        self.pre_element();
        self.out.push('[');
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost array.
    pub fn close_array(&mut self) {
        let had = self.needs_comma.pop().unwrap_or(false);
        self.depth -= 1;
        if had {
            self.newline();
        }
        self.out.push(']');
    }

    /// Emits `"key": ` and arranges for the next emitted value to follow
    /// it (suppressing that value's own comma/newline handling).
    pub fn key(&mut self, key: &str) {
        self.pre_element();
        json::push_escaped(&mut self.out, key);
        self.out.push_str(": ");
        self.after_key = true;
    }

    /// Emits a string field.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.value_str(value);
    }

    /// Emits an integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.value_u64(value);
    }

    /// Emits a bare string value.
    pub fn value_str(&mut self, value: &str) {
        self.pre_element();
        json::push_escaped(&mut self.out, value);
    }

    /// Emits a bare integer value.
    pub fn value_u64(&mut self, value: u64) {
        self.pre_element();
        let _ = write!(self.out, "{value}");
    }

    /// Finishes the document (with a trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_str("k\"ey", "a\\b\n\t\r\u{1}end");
        w.close_object();
        assert_eq!(
            w.finish(),
            "{\n  \"k\\\"ey\": \"a\\\\b\\n\\t\\r\\u0001end\"\n}\n"
        );
    }

    #[test]
    fn json_writer_nests_objects_and_arrays() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.key("xs");
        w.open_array();
        w.value_u64(1);
        w.open_object();
        w.field_str("a", "b");
        w.close_object();
        w.close_array();
        w.field_u64("n", 2);
        w.close_object();
        assert_eq!(
            w.finish(),
            "{\n  \"xs\": [\n    1,\n    {\n      \"a\": \"b\"\n    }\n  ],\n  \"n\": 2\n}\n"
        );
    }

    #[test]
    fn counters_accumulate_and_overwrite() {
        let mut m = Metrics::new();
        m.add_counter("g", "k", 2);
        m.add_counter("g", "k", 3);
        assert_eq!(m.counter("g", "k"), Some(5));
        m.set_counter("g", "k", 7);
        assert_eq!(m.counter("g", "k"), Some(7));
        assert_eq!(m.counter("g", "absent"), None);
        assert_eq!(m.counter("absent", "k"), None);
        // Group and key insertion order is preserved.
        m.add_counter("first_seen_second", "z", 1);
        m.add_counter("g", "a", 1);
        let groups: Vec<&str> = m.groups().map(|(g, _)| g).collect();
        assert_eq!(groups, ["g", "first_seen_second"]);
        let (_, entries) = m.groups().next().unwrap();
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["k", "a"]);
    }

    #[test]
    fn phases_accumulate_and_time_closures() {
        let mut m = Metrics::new();
        m.add_phase_ns("parse", 10);
        m.add_phase_ns("parse", 5);
        assert_eq!(m.phase_ns("parse"), Some(15));
        assert_eq!(m.phase_ns("absent"), None);
        let out = m.phase("work", || 41 + 1);
        assert_eq!(out, 42);
        assert!(m.phase_ns("work").is_some());
    }

    #[test]
    fn merge_accumulates_phases_and_counters() {
        let mut a = Metrics::new();
        a.set_command("check");
        a.add_phase_ns("parse", 10);
        a.add_counter("check", "model_lookups", 2);

        let mut b = Metrics::new();
        b.set_command("ignored");
        b.set_source("worker-1");
        b.add_phase_ns("parse", 5);
        b.add_phase_ns("check_translate", 7);
        b.add_counter("check", "model_lookups", 3);
        b.add_counter("pool", "panics", 1);

        a.merge(&b);
        // Existing labels win; unset ones fill in.
        assert_eq!(a.command.as_deref(), Some("check"));
        assert_eq!(a.source.as_deref(), Some("worker-1"));
        assert_eq!(a.phase_ns("parse"), Some(15));
        assert_eq!(a.phase_ns("check_translate"), Some(7));
        assert_eq!(a.counter("check", "model_lookups"), Some(5));
        assert_eq!(a.counter("pool", "panics"), Some(1));
        // New groups land after existing ones.
        let groups: Vec<&str> = a.groups().map(|(g, _)| g).collect();
        assert_eq!(groups, ["check", "pool"]);
    }

    #[test]
    fn metrics_json_is_golden() {
        let mut m = Metrics::new();
        m.set_command("check");
        m.set_source("prog.fg");
        m.add_phase_ns("parse", 100);
        m.add_counter("check", "dicts_built", 2);
        assert_eq!(
            m.to_json(),
            "{\n  \"schema\": \"fg-metrics/1\",\n  \"command\": \"check\",\n  \
             \"source\": \"prog.fg\",\n  \"phases_ns\": {\n    \"parse\": 100\n  },\n  \
             \"counters\": {\n    \"check\": {\n      \"dicts_built\": 2\n    }\n  }\n}\n"
        );
    }

    #[test]
    fn render_table_lists_phases_and_counters() {
        let mut m = Metrics::new();
        m.set_command("check");
        m.set_source("prog.fg");
        m.add_phase_ns("parse", 1_500);
        m.add_phase_ns("check_translate", 500);
        m.add_counter("check", "dicts_built", 2);
        let table = m.render_table();
        assert!(table.contains("== fg profile: check prog.fg =="), "{table}");
        assert!(table.contains("parse"), "{table}");
        assert!(table.contains("1.50us"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert!(table.contains("dicts_built"), "{table}");
    }

    #[test]
    fn bench_report_json_is_golden() {
        let report = BenchReport {
            harness: "congruence_scaling".to_owned(),
            entries: vec![BenchEntry {
                group: "g".to_owned(),
                id: "flat".to_owned(),
                param: "64".to_owned(),
                iters: 4,
                total_ns: 10,
            }],
        };
        assert_eq!(report.entries[0].mean_ns(), 2);
        assert_eq!(
            BenchEntry { iters: 0, ..report.entries[0].clone() }.mean_ns(),
            0
        );
        assert_eq!(
            report.to_json(),
            "{\n  \"schema\": \"fg-bench/1\",\n  \"harness\": \"congruence_scaling\",\n  \
             \"benches\": [\n    {\n      \"group\": \"g\",\n      \"id\": \"flat\",\n      \
             \"param\": \"64\",\n      \"iters\": 4,\n      \"total_ns\": 10,\n      \
             \"mean_ns\": 2\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
