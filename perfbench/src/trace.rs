//! In-memory spans recorded by the benchmark's own code around the calls
//! it makes into each layer, written out when the benchmark ends.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! benchmark's origin), the span that caused it, and the run or request
//! it belongs to. A layer's *self time* is its span's duration minus the
//! part of that interval its direct child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span id 0 means "no parent".
pub const ROOT: u32 = 0;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within one benchmark process.
    pub id: u32,
    /// The enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer-qualified name, e.g. `core.runtime.on_epoch`.
    pub name: &'static str,
    /// The run (simulation workloads) or request (serve) id.
    pub run: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer for one thread. Threads get disjoint id ranges through
/// `id_base`, so buffers merge by concatenation.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start above `id_base`.
    pub fn new(origin: Instant, id_base: u32) -> Tracer {
        Tracer {
            origin,
            next_id: id_base + 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span whose children are recorded before it
    /// closes.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn push(&mut self, id: u32, name: &'static str, parent: u32, run: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            run,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished leaf span with explicit bounds.
    pub fn leaf(&mut self, name: &'static str, parent: u32, run: u64, start_ns: u64, end_ns: u64) {
        let id = self.reserve();
        self.spans.push(Span {
            id,
            parent,
            name,
            run,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.leaf(name, parent, run, start, end);
        out
    }

    /// Appends spans recorded by another tracer (with a disjoint id base).
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Moves the spans out, leaving the buffer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl LayerStat {
    /// Mean duration per span, microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, by id: its duration minus the part of its
/// interval covered by its direct children (overlapping children count
/// once; parts of a child outside its parent count for nothing).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let cover = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - cover)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let selves = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for s in spans {
        let stat = out.entry(s.name).or_default();
        stat.count += 1;
        stat.total_ns += s.dur_ns();
        stat.self_ns += selves[&s.id];
    }
    out
}

/// Writes spans as tab-separated `id parent name run start_ns end_ns`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\trun\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.run, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            run: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = [
            span(1, ROOT, "run", 0, 100),
            span(2, 1, "on_epoch", 10, 20),
            span(3, 1, "on_epoch", 30, 45),
            // Overlaps child 3: the shared 40..45 counts once.
            span(4, 1, "lookup", 40, 50),
            // A grandchild is covered by its own parent, not by `run`.
            span(5, 4, "digest", 41, 49),
        ];
        let selves = self_times(&spans);
        assert_eq!(selves[&1], 100 - 10 - 20);
        assert_eq!(selves[&2], 10);
        assert_eq!(selves[&4], 10 - 8);
        assert_eq!(selves[&5], 8);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, ROOT, "request", 100, 200),
            span(2, 1, "early", 50, 120),
            span(3, 1, "late", 190, 260),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 20 - 10);
    }

    #[test]
    fn by_name_sums_counts_totals_and_self() {
        let spans = [
            span(1, ROOT, "run", 0, 100),
            span(2, 1, "on_epoch", 10, 20),
            span(3, ROOT, "run", 200, 250),
            span(4, 3, "on_epoch", 200, 210),
        ];
        let stats = by_name(&spans);
        assert_eq!(
            stats["run"],
            LayerStat {
                count: 2,
                total_ns: 150,
                self_ns: 130
            }
        );
        assert_eq!(stats["on_epoch"].count, 2);
        assert!((stats["on_epoch"].mean_us() - 0.01).abs() < 1e-12);
        assert_eq!(LayerStat::default().mean_us(), 0.0);
    }

    #[test]
    fn tracers_with_disjoint_bases_merge_without_id_clashes() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0);
        let mut b = Tracer::new(origin, 1 << 24);
        let pa = a.reserve();
        a.time("child", pa, 7, || ());
        a.push(pa, "parent", ROOT, 7, 0);
        b.time("other", ROOT, 8, || ());
        let mut all = a.take();
        all.extend(b.take());
        let mut ids: Vec<u32> = all.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        let selves = self_times(&all);
        let parent = all.iter().find(|s| s.name == "parent").unwrap();
        assert!(selves[&parent.id] <= parent.dur_ns());
    }
}
