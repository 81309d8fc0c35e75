//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into each layer's public functions; the program itself carries no
//! span. Every span has a name, start and end (ns since the run's epoch),
//! its parent span, the run id it belongs to, and — for per-domain
//! spans — the domain id. Spans are kept in memory and written out once,
//! when the run ends, together with each span's self time (its duration
//! minus the part of it that child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub domain: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    domain: Option<u32>,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Shared clock and id source of one workload run. Threads record into
/// their own `Vec<Span>` and hand it back when they finish.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, domain: Option<u32>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            domain,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open`, appends it to `out`, and returns its duration in ns.
    pub fn close(&self, open: Open, out: &mut Vec<Span>) -> u64 {
        let end_ns = self.now_ns().max(open.start_ns);
        out.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            domain: open.domain,
            start_ns: open.start_ns,
            end_ns,
        });
        end_ns - open.start_ns
    }
}

/// Self time of every span, by span index: duration minus the union of
/// its children's intervals (children on parallel threads may overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes every span as one JSON object per line to `spans.jsonl` and a
/// per-name roll-up (count, total and self time) to `spans_summary.tsv`
/// in `dir`. Returns the roll-up rows.
pub fn write_spans(
    dir: &Path,
    tracer: &Tracer,
    spans: &[Span],
) -> std::io::Result<Vec<(&'static str, u64, u64, u64)>> {
    std::fs::create_dir_all(dir)?;
    let selfs = self_times(spans);
    let mut file = std::io::BufWriter::new(std::fs::File::create(dir.join("spans.jsonl"))?);
    let mut line = String::new();
    let mut rollup: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        line.clear();
        let _ = write!(
            line,
            "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"domain\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            tracer.run_id,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.domain.map_or("null".to_string(), |d| d.to_string()),
            s.start_ns,
            s.end_ns,
            self_ns
        );
        line.push('\n');
        file.write_all(line.as_bytes())?;
        let e = rollup.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
    }
    file.flush()?;
    let rows: Vec<_> = rollup
        .into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect();
    let mut summary = String::from("name\tcount\ttotal_ns\tself_ns\n");
    for (name, n, total, own) in &rows {
        let _ = writeln!(summary, "{name}\t{n}\t{total}\t{own}");
    }
    std::fs::write(dir.join("spans_summary.tsv"), summary)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            domain: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 10, 20),
        ];
        // Children cover 10..60 and 90..100 of the root.
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }
}
