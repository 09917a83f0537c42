//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the traced
//! run began), the span that caused it (`0` for a root) and the id of the
//! unit of work it belongs to. Each worker thread records into its own
//! [`Track`]; the tracks are merged and written out once the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub unit: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer. Ids are unique across the tracks of a run
/// because each track owns the id range of its `tid`.
#[derive(Debug)]
pub struct Track {
    t0: Instant,
    tid: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Track {
    pub fn new(t0: Instant, tid: u64) -> Track {
        Track {
            t0,
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the track and the new span's
    /// id, to open child spans under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        unit: u64,
        f: impl FnOnce(&mut Track, u64) -> T,
    ) -> T {
        self.next += 1;
        let id = (self.tid << 40) | self.next;
        let start_ns = self.now_ns();
        let out = f(self, id);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            unit,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span whose interval was measured elsewhere, such as a
    /// request's time on the wire; `end` before `start` records an empty
    /// span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        unit: u64,
        start: Instant,
        end: Instant,
    ) {
        self.next += 1;
        let id = (self.tid << 40) | self.next;
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
        };
        let start_ns = ns(start);
        self.spans.push(Span {
            id,
            parent,
            unit,
            name,
            start_ns,
            end_ns: ns(end).max(start_ns),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name aggregate: instances, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name. A span's self time is its duration minus the
/// durations of its children; children never overlap on one track, so this
/// is the part of its interval no child covers.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Summed self time of the named spans, in milliseconds.
pub fn self_ms(totals: &BTreeMap<&'static str, NameTotal>, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.self_ns as f64 / 1e6)
        .sum()
}

/// Writes the spans as tab-separated lines sorted by start time, under a
/// one-line `#` header.
pub fn write_tsv(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "id\tparent\tunit\tname\tstart_ns\tend_ns")?;
    for s in sorted {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.unit, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                unit: 0,
                name: "unit",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                unit: 0,
                name: "walk",
                start_ns: 10,
                end_ns: 70,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["unit"].self_ns, 40);
        assert_eq!(t["walk"].self_ns, 60);
        assert_eq!(t["unit"].total_ns, 100);
    }
}
