//! In-memory spans recorded from the benchmark's own side of each call
//! into the program: name, start, end, parent span and request id. Each
//! thread records into its own [`Recorder`]; recorders are merged and
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's spans. Span ids are unique across recorders that share an
/// epoch but have distinct `thread` numbers; id 0 means "no parent".
pub struct Recorder {
    epoch: Instant,
    next: u64,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            next: (thread << 40) | 1,
            spans: Vec::new(),
        }
    }

    /// A span id and its start, for a span closed later with [`Recorder::close`].
    pub fn open(&mut self) -> (u64, u64) {
        let id = self.next;
        self.next += 1;
        (id, self.epoch.elapsed().as_nanos() as u64)
    }

    pub fn close(&mut self, opened: (u64, u64), name: &'static str, parent: u64, request: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            id: opened.0,
            parent,
            name,
            request,
            start_ns: opened.1,
            end_ns,
        });
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let opened = self.open();
        let out = f();
        self.close(opened, name, parent, request);
        out
    }

    /// Durations in ms of every span called `name`.
    pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::ms)
            .collect()
    }
}

/// Write spans as JSON lines, sorted by start time.
pub fn write_spans(path: &Path, spans: &mut [SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
