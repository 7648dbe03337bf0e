//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! library's public functions; nothing inside the library is instrumented.
//! Every span is aggregated per name (calls, total, self time and every
//! duration, for exact percentiles). Raw spans (id, parent, trial, start,
//! duration) are kept only for the first few traced trials and written as
//! CSV when the run ends.

use crate::stats::percentile;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// A registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(usize);

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations of their direct children, ns.
    pub child_ns: u64,
    /// Every duration, ns, in closing order.
    pub durations: Vec<u64>,
}

impl SpanStats {
    /// Time inside these spans not covered by a child span, ns.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }

    /// Nearest-rank percentile of the durations, ns (0 with no calls).
    pub fn duration_percentile(&self, p: f64) -> u64 {
        if self.durations.is_empty() {
            return 0;
        }
        let mut sorted = self.durations.clone();
        sorted.sort_unstable();
        percentile(&sorted, p)
    }
}

/// One raw span, as written to the spans CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSpan {
    /// 1-based span id, in opening order.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Span name.
    pub name: &'static str,
    /// Trial (or run) the span belongs to.
    pub trial: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

struct Open {
    id: u64,
    name: usize,
    start: u64,
    child: u64,
}

/// The span recorder of one traced run. Single-threaded by design: the
/// traced run replays the workload on one thread.
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    stats: Vec<SpanStats>,
    stack: Vec<Open>,
    next_id: u64,
    root_ns: u64,
    raw: Vec<RawSpan>,
    raw_trials_left: u64,
    trial: Option<u64>,
}

impl Tracer {
    /// A tracer that keeps raw spans of the first `raw_trials` trials.
    pub fn new(raw_trials: u64) -> Self {
        Self {
            origin: Instant::now(),
            names: Vec::new(),
            stats: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            root_ns: 0,
            raw: Vec::new(),
            raw_trials_left: raw_trials,
            trial: None,
        }
    }

    /// Registers (or looks up) a span name.
    pub fn name(&mut self, name: &'static str) -> SpanName {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return SpanName(i);
        }
        self.names.push(name);
        self.stats.push(SpanStats::default());
        SpanName(self.names.len() - 1)
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn enter(&mut self, name: SpanName) {
        let t = self.now();
        self.enter_at(name, t);
    }

    /// Closes the innermost open span now.
    pub fn exit(&mut self) {
        let t = self.now();
        self.exit_at(t);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: SpanName, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Opens a span that started at `t` ns.
    pub fn enter_at(&mut self, name: SpanName, t: u64) {
        self.stack.push(Open {
            id: self.next_id,
            name: name.0,
            start: t,
            child: 0,
        });
        self.next_id += 1;
    }

    /// Closes the innermost open span at `t` ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit_at(&mut self, t: u64) {
        let open = self.stack.pop().expect("exit without an open span");
        let dur = t.saturating_sub(open.start);
        let s = &mut self.stats[open.name];
        s.calls += 1;
        s.total_ns += dur;
        s.child_ns += open.child;
        s.durations.push(dur);
        match self.stack.last_mut() {
            Some(parent) => parent.child += dur,
            None => self.root_ns += dur,
        }
        if let Some(trial) = self.trial {
            self.raw.push(RawSpan {
                id: open.id,
                parent: self.stack.last().map_or(0, |p| p.id),
                name: self.names[open.name],
                trial,
                start_ns: open.start,
                dur_ns: dur,
            });
        }
    }

    /// Marks the start of a trial's spans: raw spans are kept while the
    /// raw-trial budget lasts.
    pub fn begin_trial(&mut self, trial: u64) {
        self.trial = (self.raw_trials_left > 0).then_some(trial);
        self.raw_trials_left = self.raw_trials_left.saturating_sub(1);
    }

    /// Ends the current trial's raw capture.
    pub fn end_trial(&mut self) {
        self.trial = None;
    }

    /// Aggregate of one span name (empty if it never closed).
    pub fn stats(&self, name: &str) -> SpanStats {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.stats[i].clone())
            .unwrap_or_default()
    }

    /// Summed duration of every root span, ns: the traced run's total.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// The raw spans kept so far.
    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    /// Writes the raw spans as CSV.
    ///
    /// # Errors
    ///
    /// Reports directory-creation and write failures.
    pub fn write_csv(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("id,parent,name,trial,start_ns,dur_ns\n");
        for s in &self.raw {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.name, s.trial, s.start_ns, s.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // a [0,100] ⊃ b [10,40], c [50,90] ⊃ d [60,70]; then a second root
        // b [200,205].
        let mut t = Tracer::new(1);
        let (a, b, c, d) = (t.name("a"), t.name("b"), t.name("c"), t.name("d"));
        t.begin_trial(7);
        t.enter_at(a, 0);
        t.enter_at(b, 10);
        t.exit_at(40);
        t.enter_at(c, 50);
        t.enter_at(d, 60);
        t.exit_at(70);
        t.exit_at(90);
        t.exit_at(100);
        t.end_trial();
        t.enter_at(b, 200);
        t.exit_at(205);

        assert_eq!(t.stats("a").self_ns(), 100 - 30 - 40);
        assert_eq!(t.stats("b").calls, 2);
        assert_eq!(t.stats("b").self_ns(), 35);
        assert_eq!(t.stats("c").total_ns, 40);
        assert_eq!(t.stats("c").self_ns(), 30);
        assert_eq!(t.stats("d").self_ns(), 10);
        assert_eq!(t.stats("missing").calls, 0);
        // Roots: a (100) and the second b (5).
        assert_eq!(t.root_ns(), 105);
        // The self times of all spans add up to the root total.
        let self_sum: u64 = ["a", "b", "c", "d"]
            .iter()
            .map(|n| t.stats(n).self_ns())
            .sum();
        assert_eq!(self_sum, t.root_ns());
        // Raw spans were kept for the one budgeted trial only, with
        // parents resolved.
        let raw = t.raw();
        assert_eq!(raw.len(), 4);
        let d_raw = raw.iter().find(|s| s.name == "d").unwrap();
        let c_raw = raw.iter().find(|s| s.name == "c").unwrap();
        assert_eq!(d_raw.parent, c_raw.id);
        assert_eq!(c_raw.parent, raw.iter().find(|s| s.name == "a").unwrap().id);
        assert!(raw.iter().all(|s| s.trial == 7));
    }

    #[test]
    fn percentiles_of_durations() {
        let mut t = Tracer::new(0);
        let x = t.name("x");
        for d in 1..=100 {
            t.enter_at(x, 0);
            t.exit_at(d);
        }
        let s = t.stats("x");
        assert_eq!(s.duration_percentile(50.0), 50);
        assert_eq!(s.duration_percentile(99.0), 99);
        assert_eq!(SpanStats::default().duration_percentile(50.0), 0);
        assert!(t.raw().is_empty());
    }
}
