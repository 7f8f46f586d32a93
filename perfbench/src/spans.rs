//! Benchmark-side spans around the calls into each layer.
//!
//! Spans are kept in memory and summarized when the run ends. A span's
//! self time is its duration minus the time its child spans cover. When
//! the recorder is disabled, opening a span costs one branch and reads no
//! clock, which is how the untraced half of a traced run is measured.

use std::cell::RefCell;
use std::time::Instant;

struct Record {
    name: &'static str,
    tag: &'static str,
    start_ns: u64,
    dur_ns: u64,
    child_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder for one thread.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    records: RefCell<Vec<Record>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    index: Option<usize>,
}

impl Spans {
    /// A recorder; `enabled: false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            records: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span named `name`, tagged with `tag` (`""` for none),
    /// nested under the innermost open span.
    pub fn open(&self, name: &'static str, tag: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard { spans: self, index: None };
        }
        let parent = self.stack.borrow().last().copied();
        let mut records = self.records.borrow_mut();
        records.push(Record { name, tag, start_ns: self.now_ns(), dur_ns: 0, child_ns: 0, parent });
        let index = records.len() - 1;
        self.stack.borrow_mut().push(index);
        Guard { spans: self, index: Some(index) }
    }

    /// Runs `f` inside an untagged span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.open(name, "");
        f()
    }

    fn close(&self, index: usize) {
        let end = self.now_ns();
        let mut records = self.records.borrow_mut();
        let dur = end - records[index].start_ns;
        records[index].dur_ns = dur;
        if let Some(parent) = records[index].parent {
            records[parent].child_ns += dur;
        }
        let popped = self.stack.borrow_mut().pop();
        assert_eq!(popped, Some(index), "spans close in LIFO order");
    }

    fn fold(&self, keep: impl Fn(&Record) -> bool, value: impl Fn(&Record) -> u64) -> f64 {
        let ns: u64 = self.records.borrow().iter().filter(|r| keep(r)).map(value).sum();
        ns as f64 / 1e9
    }

    /// Total self seconds of spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.fold(|r| r.name == name, |r| r.dur_ns - r.child_ns)
    }

    /// Total self seconds of spans named `name` tagged `tag`.
    pub fn self_s_tagged(&self, name: &str, tag: &str) -> f64 {
        self.fold(|r| r.name == name && r.tag == tag, |r| r.dur_ns - r.child_ns)
    }

    /// Seconds covered by top-level spans.
    pub fn root_s(&self) -> f64 {
        self.fold(|r| r.parent.is_none(), |r| r.dur_ns)
    }

    /// Inclusive durations of spans named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        let records = self.records.borrow();
        records.iter().filter(|r| r.name == name).map(|r| r.dur_ns as f64 / 1e9).collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.records.borrow().iter().filter(|r| r.name == name).count()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            self.spans.close(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new(true);
        spans.time("outer", || {
            std::thread::sleep(Duration::from_millis(20));
            spans.time("inner", || std::thread::sleep(Duration::from_millis(30)));
        });
        let outer = spans.durations_s("outer")[0];
        let inner = spans.durations_s("inner")[0];
        assert!(inner >= 0.030 && outer >= inner + 0.020);
        assert!((spans.self_s("outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(spans.root_s(), outer);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        spans.time("outer", || spans.time("inner", || ()));
        assert_eq!(spans.count("outer") + spans.count("inner"), 0);
        assert_eq!(spans.root_s(), 0.0);
    }
}
