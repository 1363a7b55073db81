//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! the benchmark wraps calls into the library's public functions, so a
//! span's duration is the layer's cost as a caller sees it. Each span
//! keeps its name, start, end, parent span and an id shared by every
//! span of one request, job or repetition. Nothing is written until the
//! run ends; [`summary`] then reports, per span name, total and *self*
//! time — a span's duration minus the part of it its children cover.
//!
//! With tracing off every entry point is a no-op that takes no clock
//! reading, so the untraced run measures the program alone.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread: (index into `SPANS`, id).
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn ns(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// An open span; closed when dropped.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end = ns(Instant::now());
            SPANS.lock().expect("span store")[index].end_ns = end;
            STACK.with(|s| s.borrow_mut().pop());
        }
    }
}

/// Opens a span nested in this thread's innermost open span. `id`
/// `None` inherits the parent's id.
pub fn enter(name: &'static str, id: Option<u64>) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let (parent, inherited) =
        STACK.with(|s| s.borrow().last().map_or((None, 0), |&(i, id)| (Some(i), id)));
    let id = id.unwrap_or(inherited);
    let start = ns(Instant::now());
    let index = {
        let mut spans = SPANS.lock().expect("span store");
        spans.push(SpanRec { name, id, parent, start_ns: start, end_ns: start });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push((index, id)));
    Guard(Some(index))
}

/// Records a finished span with explicit bounds (for intervals that
/// start before the recording thread saw them, like a request's due
/// time). Returns its index, usable as a `parent`.
pub fn record(
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    let mut spans = SPANS.lock().expect("span store");
    spans.push(SpanRec { name, id, parent, start_ns: ns(start), end_ns: ns(end) });
    Some(spans.len() - 1)
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Vec<u64>,
    pub self_durations: Vec<u64>,
}

/// Every recorded span.
pub fn spans() -> Vec<SpanRec> {
    SPANS.lock().expect("span store").clone()
}

/// Per-name totals and self times. A span's self time is its duration
/// minus the union of its children's intervals clipped to it.
pub fn summary(spans: &[SpanRec]) -> BTreeMap<&'static str, NameStats> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut intervals: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (a, b) in intervals {
            match current {
                Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    current = Some((a, b));
                }
                None => current = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = current {
            covered += cb - ca;
        }
        let own = dur.saturating_sub(covered);
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += own;
        entry.durations.push(dur);
        entry.self_durations.push(own);
    }
    out
}
