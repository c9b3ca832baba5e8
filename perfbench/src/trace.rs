//! In-memory spans recorded around calls into the program's layers, and
//! self time computed from them.
//!
//! A span's self time is its interval minus the union of its direct
//! children's intervals. Children may run on pool threads and overlap
//! each other, so they are merged as intervals, never summed. A layer's
//! time in one run is the measure of the union of the self parts of all
//! its spans in that run: sequential spans add up, concurrent ones count
//! once.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc;

/// A half-open interval `[start, end)` in nanoseconds since the epoch of
/// its tracer.
type Interval = (u64, u64);

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocator calls in the process while the span was open.
    pub allocs: u64,
}

/// Sorts `intervals` and merges overlapping or touching ones.
fn merge(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the union of `intervals`.
fn union_ns(intervals: Vec<Interval>) -> u64 {
    merge(intervals).iter().map(|&(s, e)| e - s).sum()
}

/// The parts of `outer` not covered by any of `holes`.
fn subtract(outer: Interval, holes: Vec<Interval>) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut cursor = outer.0;
    for (s, e) in merge(holes) {
        let (s, e) = (s.clamp(outer.0, outer.1), e.clamp(outer.0, outer.1));
        if s > cursor {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if cursor < outer.1 {
        out.push((cursor, outer.1));
    }
    out
}

fn self_parts(span: &Span, spans: &[Span]) -> Vec<Interval> {
    let children = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    subtract((span.start_ns, span.end_ns), children)
}

/// Self time of one span: its duration minus the union of its direct
/// children's intervals.
fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    self_parts(span, spans).iter().map(|&(s, e)| e - s).sum()
}

/// Wall time layer `name` spent in run `run`: the union of the self
/// parts of every span of that name in the run.
pub fn layer_self_ns(spans: &[Span], run: u32, name: &str) -> u64 {
    let parts = spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .flat_map(|s| self_parts(s, spans))
        .collect();
    union_ns(parts)
}

/// Share of `root`'s interval covered by its direct children.
pub fn coverage(root: &Span, spans: &[Span]) -> f64 {
    let len = root.end_ns - root.start_ns;
    if len == 0 {
        return 1.0;
    }
    1.0 - self_ns(root, spans) as f64 / len as f64
}

/// Collects spans from any thread. Ids are unique per tracer; the run id
/// is set by the caller before each traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    run: u32,
    name: &'static str,
    start_ns: u64,
    allocs_at_start: u64,
}

impl Open<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            run: self.run,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            allocs: alloc::calls() - self.allocs_at_start,
        };
        // A poisoned lock means a span-holding thread panicked; the run is
        // already failing, so losing this span is harmless.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::SeqCst);
    }

    /// Opens a span named `name` under `parent`, in the current run.
    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            run: self.run.load(Ordering::SeqCst),
            name,
            start_ns: self.now_ns(),
            allocs_at_start: alloc::calls(),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let _span = self.open(name, parent);
        f()
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panicked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start_ns: start,
            end_ns: end,
            allocs: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_drops_empty_intervals() {
        assert_eq!(
            merge(vec![(5, 9), (0, 3), (2, 4), (9, 10), (7, 7)]),
            vec![(0, 4), (5, 10)]
        );
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
    }

    #[test]
    fn subtract_clips_holes_to_the_outer_interval() {
        assert_eq!(
            subtract((10, 20), vec![(0, 12), (15, 16), (18, 40)]),
            vec![(12, 15), (16, 18)]
        );
        assert_eq!(subtract((0, 5), vec![]), vec![(0, 5)]);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_pool_children() {
        // A parent on the main thread with three children from two pool
        // threads: [10, 40) and [20, 50) overlap, [70, 80) does not.
        // Summing the children (60) would leave a self time of 40; their
        // union is 50, so the self time is 100 − 50 = 50.
        let spans = vec![
            span(0, None, "campaign.checkpoint_write", 0, 100),
            span(1, Some(0), "campaign.shard", 10, 40),
            span(2, Some(0), "campaign.shard", 20, 50),
            span(3, Some(0), "campaign.merge", 70, 80),
            // A grandchild does not reduce the parent's self time twice.
            span(4, Some(1), "inner", 12, 14),
        ];
        assert_eq!(self_ns(&spans[0], &spans), 50);
        assert_eq!(self_ns(&spans[1], &spans), 28);
        // The shard layer counts the concurrent spans once: [10, 50)
        // minus the grandchild's [12, 14).
        assert_eq!(layer_self_ns(&spans, 0, "campaign.shard"), 38);
        assert!((coverage(&spans[0], &spans) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn layer_time_adds_sequential_spans_within_one_run_only() {
        let mut spans = vec![
            span(0, None, "tomography.mle", 0, 10),
            span(1, None, "tomography.mle", 20, 25),
        ];
        let mut other = span(2, None, "tomography.mle", 30, 90);
        other.run = 1;
        spans.push(other);
        assert_eq!(layer_self_ns(&spans, 0, "tomography.mle"), 15);
        assert_eq!(layer_self_ns(&spans, 1, "tomography.mle"), 60);
        assert_eq!(layer_self_ns(&spans, 0, "core.plan"), 0);
    }

    #[test]
    fn tracer_records_parents_runs_and_allocations() {
        let tracer = Tracer::new();
        tracer.set_run(3);
        let v = crate::alloc::counting(|| {
            let outer = tracer.open("outer", None);
            tracer.time("inner", Some(outer.id()), || vec![1u8; 64])
        });
        assert_eq!(v.len(), 64);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(spans.iter().all(|s| s.run == 3));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(inner.allocs >= 1);
        assert!(tracer.take().is_empty());
    }
}
