//! The benchmark's own spans: name, start, end, parent and request id,
//! kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;

/// Parent index of a span with no parent.
pub const ROOT: u32 = u32::MAX;
/// Request id of a span that belongs to no planned request.
pub const NO_REQUEST: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the span log's clock
/// started (each phase has its own clock).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    /// Index of the parent span in the same log, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Records a closed span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of span `index` (a parent recorded before its
    /// children, then closed after them).
    pub fn close(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Appends another log, re-pointing its parent indices.
    pub fn extend(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children of one span never overlap here: every
    /// span is recorded by one thread, sequentially).
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Writes the log as tab-separated rows.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\trequest\tparent\tstart_ns\tend_ns")?;
        let id = |v: u32| {
            if v == u32::MAX {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                id(s.request),
                id(s.parent),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        let root = log.record("request", 0, ROOT, 0, 100);
        log.record("a", 0, root, 10, 40);
        log.record("b", 0, root, 50, 90);
        let by = log.self_ns_by_name();
        assert_eq!(by["request"], 30);
        assert_eq!(by["a"], 30);
        assert_eq!(by["b"], 40);

        let mut other = SpanLog::default();
        let r = other.record("request", 1, ROOT, 0, 10);
        other.record("a", 1, r, 0, 5);
        log.extend(other);
        assert_eq!(log.spans[4].parent, 3);
        assert_eq!(log.self_ns_by_name()["request"], 35);
    }
}
