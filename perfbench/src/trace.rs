//! Outside-in spans: the benchmark wraps each public call it makes into
//! the program in a span (name, start, end, parent) and never times
//! anything inside the program itself.
//!
//! An untraced [`Tracer`] still measures every span (the decision
//! latencies need the same clock), but keeps no records; a traced one
//! keeps every span in memory and writes them out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Id of the enclosing open span, if any.
    pub parent: Option<usize>,
    /// Which workload pass (or set-up repetition) the span belongs to.
    pub pass: usize,
    /// For a decision span: the build + solve + certify time the program
    /// reported for it.
    pub phases_ms: Option<f64>,
}

/// An open span, returned by [`Tracer::begin`] and closed by
/// [`Tracer::end`].
pub struct Open {
    id: usize,
    at: Instant,
}

pub struct Tracer {
    record: bool,
    origin: Instant,
    next_id: usize,
    stack: Vec<usize>,
    pass: usize,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(record: bool) -> Self {
        Tracer {
            record,
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            pass: 0,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off between passes; open spans must be
    /// closed first.
    pub fn set_recording(&mut self, on: bool, pass: usize) {
        assert!(self.stack.is_empty(), "span still open");
        self.record = on;
        self.pass = pass;
    }

    pub fn begin(&mut self) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        if self.record {
            self.stack.push(id);
        }
        Open {
            id,
            at: Instant::now(),
        }
    }

    /// Close `open` under `name`; returns its duration in milliseconds.
    pub fn end(&mut self, open: Open, name: &'static str) -> f64 {
        let end = Instant::now();
        let ms = end.duration_since(open.at).as_secs_f64() * 1e3;
        if self.record {
            let top = self.stack.pop();
            assert_eq!(top, Some(open.id), "spans must nest");
            let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                id: open.id,
                name,
                start_us: us(open.at),
                end_us: us(end),
                parent: self.stack.last().copied(),
                pass: self.pass,
                phases_ms: None,
            });
        }
        ms
    }

    /// Time `f` as one span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin();
        let r = f();
        let ms = self.end(open, name);
        (r, ms)
    }

    /// Attach the program's reported phases to the span closed last.
    pub fn set_phases(&mut self, ms: f64) {
        if let Some(s) = self.spans.last_mut().filter(|_| self.record) {
            s.phases_ms = Some(ms);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the recorded spans as JSON lines, in closing order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let phases = s
                .phases_ms
                .map_or(String::new(), |ms| format!(",\"phases_ms\":{ms:.3}"));
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"pass\":{}{phases}}}",
                s.id, s.name, s.start_us, s.end_us, parent, s.pass
            )?;
        }
        w.flush()
    }
}
