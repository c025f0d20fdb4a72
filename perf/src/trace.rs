//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the traced pass ends. A
//! span's self time is its duration minus the part of it that its child spans
//! cover, so the self times of a pass add up to its wall time exactly; what is
//! left on the root span is benchmark glue that no layer accounts for, and
//! `coverage` is the rest. Nothing here runs inside the program under test.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Tracer::spans`]; the root has
/// none. `batch` is the input batch the call served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub batch: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub name: &'static str,
    pub calls: u64,
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records, or one whose `enter`/`exit` do nothing so the
    /// same driving loop serves the untraced pass.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, batch: u32) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            batch,
        });
        self.stack.push(id);
        Open(id)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in first-seen order.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<LayerTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match out.iter_mut().find(|l| l.name == s.name) {
                Some(l) => {
                    l.calls += 1;
                    l.self_ns += self_ns;
                }
                None => out.push(LayerTime {
                    name: s.name,
                    calls: 1,
                    self_ns,
                }),
            }
        }
        out
    }

    /// Self time of `name` (0 if it never ran).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.layer_times()
            .iter()
            .find(|l| l.name == name)
            .map_or(0, |l| l.self_ns)
    }

    /// Share of the root span's wall time spent inside a named layer call.
    pub fn coverage(&self) -> f64 {
        let Some(root) = self.spans.first() else {
            return 0.0;
        };
        let wall = (root.end_ns - root.start_ns) as f64;
        let root_self = self.layer_times()[0].self_ns as f64;
        if wall == 0.0 {
            0.0
        } else {
            1.0 - root_self / wall
        }
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + 2);
        s.push_str("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.batch
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_root_and_children_are_subtracted() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("loop", 0);
        for b in 0..3 {
            let a = tr.enter("a", b);
            spin(200_000);
            let inner = tr.enter("b", b);
            spin(100_000);
            tr.exit(inner);
            tr.exit(a);
        }
        tr.exit(root);
        let lt = tr.layer_times();
        assert_eq!(
            lt.iter().map(|l| (l.name, l.calls)).collect::<Vec<_>>(),
            vec![("loop", 1), ("a", 3), ("b", 3)]
        );
        let root_span = tr.spans()[0];
        let total: u64 = lt.iter().map(|l| l.self_ns).sum();
        assert_eq!(total, root_span.end_ns - root_span.start_ns);
        assert!(tr.self_ns("a") >= 600_000 && tr.self_ns("b") >= 300_000);
        assert!(tr.coverage() > 0.9, "coverage {}", tr.coverage());
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert!(tr.to_json().contains("\"name\":\"b\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.enter("x", 1);
        tr.exit(o);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.coverage(), 0.0);
    }
}
