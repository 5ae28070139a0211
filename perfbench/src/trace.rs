//! Host-clock spans around the public calls the benchmark makes.
//!
//! Every timed call goes through a [`Tracer`]. Untraced, it only returns
//! the call's host CPU seconds. Traced, it also keeps a span (name,
//! session, wall-clock start and end, parent) in memory; the spans are
//! written out once the run ends, and self time is a span minus the child
//! spans recorded inside it.
//!
//! The returned figure is the CPU time of the whole process (every pool
//! worker included), not wall time: on a host shared with other work, a
//! call's wall time mostly measures how long the scheduler kept the
//! process off the cores. On an idle host with one worker busy at a time
//! the two are the same; work spread across pool workers is counted once
//! per worker, so the figure is the work a call costs, not its latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Public call (or benchmark phase) name, e.g. `Session::write_iteration`.
    pub name: &'static str,
    /// Session the call belongs to (`0` outside any session).
    pub session: u64,
    /// Host wall seconds since the tracer was created.
    pub start: f64,
    /// Host wall seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An open span, closed with [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
    cpu_started: f64,
}

/// CPU seconds this process has used so far, on all of its threads.
pub fn cpu_now() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Span recorder; a disabled tracer only measures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals over a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of span durations minus their recorded children, seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, session: u64) -> Open {
        let started = Instant::now();
        let cpu_started = cpu_now();
        let index = self.enabled.then(|| {
            let start = started.duration_since(self.origin).as_secs_f64();
            self.spans.push(Span {
                name,
                session,
                start,
                end: start,
                parent: self.stack.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open {
            index,
            started,
            cpu_started,
        }
    }

    /// Close a span and return the CPU seconds the process used in it.
    pub fn end(&mut self, open: Open) -> f64 {
        let cpu_s = cpu_now() - open.cpu_started;
        if let Some(i) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(i), "spans close innermost first");
            self.spans[i].end = self.spans[i].start + open.started.elapsed().as_secs_f64();
        }
        cpu_s
    }

    /// Time `f` as one span; returns its CPU seconds.
    pub fn time<R>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, session);
        let r = f();
        (r, self.end(open))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.end - s.start;
            t.self_s += (s.end - s.start - child).max(0.0);
        }
        out
    }

    /// The spans as JSON lines: `{"id","name","session","start_us","end_us","parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"session\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name,
                s.session,
                s.start * 1e6,
                s.end * 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let _ = t.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let _ = t.end(outer);
        let totals = t.totals();
        let wall = |s: &Span| s.end - s.start;
        let (outer, inner) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!(inner.parent, Some(0));
        assert!(wall(inner) >= 0.005);
        assert!((totals["outer"].self_s - (wall(outer) - wall(inner))).abs() < 1e-9);
        assert_eq!(totals["inner"].count, 1);
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn timed_calls_report_cpu_not_wall_time() {
        let mut t = Tracer::new(false);
        let (_, slept) = t.time("sleep", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(50))
        });
        assert!(slept < 0.025, "a sleep costs no CPU, got {slept} s");
        let (_, busy) = t.time("spin", 0, || {
            let start = cpu_now();
            while cpu_now() - start < 0.02 {}
        });
        assert!(busy >= 0.02, "a spin costs its CPU, got {busy} s");
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
