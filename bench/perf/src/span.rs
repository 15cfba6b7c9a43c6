//! The benchmark's own span recorder: one span per call into a layer's public
//! API, kept in memory per thread and dumped when the run ends. Spans of one
//! operation share its `op` id; a span's parent is the span open when it began.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based id, unique within the recorder (0 means "no parent").
    pub id: u32,
    pub parent: u32,
    /// Operation the span belongs to (a root span opens a new one).
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to [`Recorder::end`].
#[must_use]
pub struct Open(u32);

pub struct Recorder {
    epoch: Instant,
    /// Added to every span id so recorders of different threads never clash.
    id_base: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    ops: u32,
}

impl Recorder {
    /// `epoch` is shared by every recorder of a run so their clocks line up.
    pub fn new(epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            epoch,
            id_base: thread << 24,
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len() as u32;
        let (parent, op) = match self.stack.last() {
            Some(&p) => (self.spans[p as usize].id, self.spans[p as usize].op),
            None => {
                self.ops += 1;
                (0, self.id_base + self.ops)
            }
        };
        let start_ns = self.now();
        self.spans.push(Span {
            id: self.id_base + idx + 1,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        let end_ns = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", Json::Num(f64::from(s.parent))),
                    ("op", Json::Num(f64::from(s.op))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 70),
            span(4, 3, 45, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 110, 150),
            span(3, 1, 140, 160), // overlaps span 2 by 10
            span(4, 1, 190, 250), // sticks out past the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - (40 + 10 + 10));
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let mut r = Recorder::new(Instant::now(), 1);
        let a = r.begin("op");
        r.time("child", || ());
        let b = r.begin("child2");
        r.time("grandchild", || ());
        r.end(b);
        r.end(a);
        r.time("op", || ());
        let s = r.into_spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, 0);
        assert_eq!(s[1].parent, s[0].id);
        assert_eq!(s[3].parent, s[2].id);
        assert!(s[..4].iter().all(|x| x.op == s[0].op));
        assert_ne!(s[4].op, s[0].op);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s[0].id > 1 << 24, "ids carry the thread base");
    }
}
