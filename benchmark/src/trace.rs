//! Bench-side spans with a self-time fold.
//!
//! The benchmark times each layer from outside, around the public call
//! that enters it. Spans nest — the MUSIC stage calls back into the
//! tracker for every finished column — so a layer's *self* time is its
//! span's duration minus the time its child spans cover. Self times of
//! every span plus the unattributed remainder add up to the traced wall
//! time by construction.
//!
//! A disabled tracer records nothing; its `enter`/`exit` are a branch.

use std::time::Instant;

struct Open {
    slot: usize,
    start_s: f64,
    child_s: f64,
}

/// Accumulates self time per span name.
pub struct Tracer {
    on: bool,
    origin: Instant,
    names: Vec<&'static str>,
    self_s: Vec<f64>,
    calls: Vec<u64>,
    stack: Vec<Open>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            names: Vec::new(),
            self_s: Vec::new(),
            calls: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// `true` if spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name`, nested in the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let now = self.origin.elapsed().as_secs_f64();
            self.enter_at(name, now);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            let now = self.origin.elapsed().as_secs_f64();
            self.exit_at(now);
        }
    }

    fn slot(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.self_s.push(0.0);
                self.calls.push(0);
                self.names.len() - 1
            }
        }
    }

    fn enter_at(&mut self, name: &'static str, now_s: f64) {
        let slot = self.slot(name);
        self.stack.push(Open {
            slot,
            start_s: now_s,
            child_s: 0.0,
        });
    }

    fn exit_at(&mut self, now_s: f64) {
        let open = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = now_s - open.start_s;
        self.self_s[open.slot] += dur - open.child_s;
        self.calls[open.slot] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += dur;
        }
    }

    /// Total self time of `name`, seconds (0 if it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.names
            .iter()
            .position(|&n| n == name)
            .map_or(0.0, |i| self.self_s[i])
    }

    /// Times `name` was closed.
    pub fn calls(&self, name: &str) -> u64 {
        self.names
            .iter()
            .position(|&n| n == name)
            .map_or(0, |i| self.calls[i])
    }

    /// Sum of every span's self time, seconds.
    pub fn total_self_s(&self) -> f64 {
        assert!(self.stack.is_empty(), "spans still open");
        self.self_s.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_child_time_is_subtracted_from_the_parent() {
        // core.music [0, 10] with two track.column children [2, 3] and
        // [6, 8]; a sibling sdr.observe [10, 12].
        let mut t = Tracer::new(true);
        t.enter_at("core.music", 0.0);
        t.enter_at("track.column", 2.0);
        t.exit_at(3.0);
        t.enter_at("track.column", 6.0);
        t.exit_at(8.0);
        t.exit_at(10.0);
        t.enter_at("sdr.observe", 10.0);
        t.exit_at(12.0);
        assert_eq!(t.self_s("core.music"), 7.0);
        assert_eq!(t.self_s("track.column"), 3.0);
        assert_eq!(t.self_s("sdr.observe"), 2.0);
        assert_eq!(t.calls("track.column"), 2);
        // Self times tile the covered wall exactly.
        assert_eq!(t.total_self_s(), 12.0);
        assert_eq!(t.self_s("image.window"), 0.0);
    }

    #[test]
    fn grandchildren_are_charged_only_to_their_own_parent() {
        let mut t = Tracer::new(true);
        t.enter_at("a", 0.0);
        t.enter_at("b", 1.0);
        t.enter_at("c", 2.0);
        t.exit_at(4.0);
        t.exit_at(5.0);
        t.exit_at(9.0);
        assert_eq!(t.self_s("a"), 5.0);
        assert_eq!(t.self_s("b"), 2.0);
        assert_eq!(t.self_s("c"), 2.0);
        assert_eq!(t.total_self_s(), 9.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("core.music");
        t.exit();
        assert_eq!(t.calls("core.music"), 0);
        assert_eq!(t.total_self_s(), 0.0);
    }

    #[test]
    fn real_clock_spans_are_non_negative_and_nested() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.enter("inner");
        std::hint::black_box((0..1000).sum::<u64>());
        t.exit();
        t.exit();
        assert!(t.self_s("outer") >= 0.0 && t.self_s("inner") >= 0.0);
        assert_eq!(t.calls("outer"), 1);
    }
}
