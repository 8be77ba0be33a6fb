//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public entry point (the layers are timed from outside; spans
//! inside the program are a later change). They stay in memory and are
//! written as Chrome `trace_event` JSON once the run has ended.

use crate::json::escape;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Layer the called entry point belongs to (`sim`, `core`, ...).
    pub layer: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Shared by every span of one operation (app run, request, tuned app).
    pub op: u64,
    /// Recording thread (0 = main, 1.. = load-generating clients).
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer; client threads record into their own and the
/// main thread [`Recorder::absorb`]s them after joining.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span under whichever span is currently open.
    pub fn open(&mut self, name: &str, layer: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            tid: self.tid,
        });
        self.open.push(id);
        id
    }

    /// End span `id` (and any span still open inside it).
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (overlapping or abutting children
    /// are merged first, and children are clipped to the parent).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (start, end) in kids {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Self time summed per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by_layer.entry(s.layer).or_insert(0) += ns;
        }
        by_layer
    }

    /// Write the spans as Chrome `trace_event` JSON (open in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                escape(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                i,
                parent,
                s.op
            )?;
        }
        out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")?;
        out.flush()
    }
}

/// Run `f`, returning its result and its wall time in seconds; with a
/// recorder the call is also recorded as a span. This is the one primitive
/// every layer call goes through, traced or not, so the traced and the
/// untraced run execute the same code around the call.
pub fn timed<T>(
    rec: &mut Option<Recorder>,
    name: &str,
    layer: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = rec.as_mut().map(|r| r.open(name, layer, op));
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.close(id);
    }
    (out, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_with(spans: &[(u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new(Instant::now(), 0);
        for &(start_ns, end_ns, parent) in spans {
            r.spans.push(Span {
                name: "s".into(),
                layer: "sim",
                start_ns,
                end_ns,
                parent,
                op: 0,
                tid: 0,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with its own grandchild 20..30.
        let r = rec_with(&[(0, 100, None), (10, 60, Some(0)), (20, 30, Some(1))]);
        assert_eq!(r.self_ns(), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_abutting_and_overlapping_children() {
        // Abutting 10..20 + 20..30, overlapping 50..70 + 60..80, and one
        // child that sticks out past the parent's end (clipped to 100).
        let r = rec_with(&[
            (0, 100, None),
            (10, 20, Some(0)),
            (20, 30, Some(0)),
            (50, 70, Some(0)),
            (60, 80, Some(0)),
            (95, 120, Some(0)),
        ]);
        // covered = 10 + 10 + 20 + 10 + 5 = 55
        assert_eq!(r.self_ns()[0], 45);
    }

    #[test]
    fn open_close_nests_under_the_open_span() {
        let mut r = Recorder::new(Instant::now(), 3);
        let a = r.open("a", "serve", 7);
        let b = r.open("b", "sim", 7);
        r.close(b);
        let c = r.open("c", "core", 7);
        r.close(c);
        r.close(a);
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(r.spans().iter().all(|s| s.tid == 3 && s.op == 7));
        assert!(r.spans()[0].end_ns >= r.spans()[2].end_ns);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut main = rec_with(&[(0, 10, None)]);
        let other = rec_with(&[(0, 10, None), (2, 4, Some(0))]);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_ns(), vec![10, 8, 2]);
    }

    #[test]
    fn timed_records_only_with_a_recorder() {
        let mut off = None;
        let (v, secs) = timed(&mut off, "x", "sim", 1, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let mut on = Some(Recorder::new(Instant::now(), 0));
        timed(&mut on, "x", "sim", 1, || ());
        assert_eq!(on.unwrap().spans().len(), 1);
    }
}
