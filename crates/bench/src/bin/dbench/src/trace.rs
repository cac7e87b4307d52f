//! In-memory span recording for traced runs.
//!
//! A span is one call into a layer, timed from the benchmark's side:
//! name, start, end, the span that caused it, and the allocation calls
//! made inside it. Spans of one press (or one cell, one campaign) share
//! a trace id. They stay in memory while the workload runs and are
//! written out once it has finished.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The press, cell or campaign the span belongs to.
    pub trace: u64,
    /// 1-based span id (its index in the recording plus one).
    pub span: u32,
    /// The enclosing span's id; 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls made while the span was open, children included.
    pub allocs: u64,
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: (index, allocation count at entry).
    open: Vec<(usize, u64)>,
    trace: u64,
}

impl Tracer {
    /// A tracer with room for `spans` spans. Reserving up front keeps
    /// the recording's own growth out of the allocation counts of the
    /// spans it records.
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(16),
            trace: 0,
        }
    }

    /// Starts a new trace: spans entered from now on share a fresh id.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&(i, _)| i as u32 + 1);
        self.spans.push(Span {
            trace: self.trace,
            span: index as u32 + 1,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push((index, alloc::total()));
        self.spans[index].start_ns = self.now_ns();
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let allocs = alloc::total();
        let (index, allocs_at_entry) = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = allocs - allocs_at_entry;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What a span cost by itself, once its children are taken out.
#[derive(Debug, Clone, Copy)]
pub struct SelfCost {
    /// Duration minus the part of the span's interval that its
    /// children cover.
    pub ns: u64,
    /// Allocation calls minus those made inside its children.
    pub allocs: u64,
}

/// The self cost of every span, index-aligned with `spans`. Child
/// intervals are clipped to their parent and merged before being
/// subtracted, so overlapping or overhanging children are never
/// counted twice.
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    let mut children: Vec<(usize, u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| (s.parent as usize - 1, s.start_ns, s.end_ns, s.allocs))
        .collect();
    children.sort_unstable();
    let mut costs: Vec<SelfCost> = spans
        .iter()
        .map(|s| SelfCost {
            ns: s.end_ns - s.start_ns,
            allocs: s.allocs,
        })
        .collect();
    for group in children.chunk_by(|a, b| a.0 == b.0) {
        let parent = &spans[group[0].0];
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for &(_, start, end, _) in group {
            let (start, end) = (start.max(reach), end.min(parent.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let cost = &mut costs[group[0].0];
        cost.ns -= covered;
        let child_allocs: u64 = group.iter().map(|c| c.3).sum();
        cost.allocs = cost.allocs.saturating_sub(child_allocs);
    }
    costs
}

/// Self cost summed per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

/// Sums self costs per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut table: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, cost) in spans.iter().zip(self_costs(spans)) {
        let layer = table.entry(span.name).or_default();
        layer.calls += 1;
        layer.self_ns += cost.ns;
        layer.self_allocs += cost.allocs;
    }
    table
}

/// Total duration of the root spans.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Writes every span as one JSON object per line, followed by one line
/// per layer with its summed self cost.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
            s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns, s.allocs
        )?;
    }
    for (name, layer) in layers(spans) {
        writeln!(
            out,
            "{{\"layer\":\"{name}\",\"calls\":{},\"self_ns\":{},\"self_allocs\":{}}}",
            layer.calls, layer.self_ns, layer.self_allocs
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: u32, name: &'static str, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            trace: 1,
            span,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_nested_tree() {
        // press [0,100] ─┬─ a [10,40] ── a1 [15,25]
        //                ├─ b [50,70]
        //                └─ b [80,90]
        let spans = [
            span(1, 0, "press", 0, 100, 10),
            span(2, 1, "a", 10, 40, 6),
            span(3, 2, "a1", 15, 25, 2),
            span(4, 1, "b", 50, 70, 1),
            span(5, 1, "b", 80, 90, 0),
        ];
        let costs = self_costs(&spans);
        let ns: Vec<u64> = costs.iter().map(|c| c.ns).collect();
        let allocs: Vec<u64> = costs.iter().map(|c| c.allocs).collect();
        assert_eq!(ns, [40, 20, 10, 20, 10]);
        assert_eq!(allocs, [3, 4, 2, 1, 0]);
        // Self times partition the root exactly.
        assert_eq!(ns.iter().sum::<u64>(), root_ns(&spans));
        let table = layers(&spans);
        assert_eq!(
            table["b"],
            Layer {
                calls: 2,
                self_ns: 30,
                self_allocs: 1
            }
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, 0, "root", 0, 100, 0),
            span(2, 1, "x", 10, 40, 0),
            span(3, 1, "y", 30, 60, 0),
            span(4, 1, "z", 90, 120, 0),
        ];
        // Covered: [10,60] and [90,100] = 60.
        assert_eq!(self_costs(&spans)[0].ns, 40);
    }

    #[test]
    fn tracer_nests_and_counts_allocations() {
        let mut tracer = Tracer::with_capacity(8);
        tracer.next_trace();
        tracer.enter("outer");
        let v = tracer.span("inner", || vec![1u8; 64]);
        tracer.exit();
        drop(v);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, 1));
        assert_eq!(spans[1].trace, 1);
        assert!(spans[1].allocs >= 1);
        assert!(spans[0].allocs >= spans[1].allocs);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
