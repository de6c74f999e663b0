//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, name, start, end)` in nanoseconds since the
//! recorder was created, plus an optional free-form label. Spans are kept
//! in memory and written out once, at the end, as JSON lines. A disabled
//! recorder hands out inert guards and records nothing, which is what the
//! untraced runs use so that both runs execute the same code.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    label: String,
    start: u64,
    end: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; `end` closes it. Id 0 is "no span" (the root's parent,
/// and every id a disabled recorder hands out).
pub struct Open {
    id: u64,
    parent: u64,
    name: String,
    label: String,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &str, parent: u64) -> Open {
        self.begin_labeled(name, "", parent)
    }

    pub fn begin_labeled(&self, name: &str, label: &str, parent: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                name: String::new(),
                label: String::new(),
                start: 0,
            };
        }
        Open {
            // Ids only need to be unique; they order nothing.
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            label: label.to_string(),
            start: self.now(),
        }
    }

    pub fn end(&self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.spans.lock().expect("span log lock").push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            label: open.label,
            start: open.start,
            end,
        });
    }

    /// Write every recorded span as one JSON object per line.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"label\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                crate::json_str(&s.name),
                crate::json_str(&s.label),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
