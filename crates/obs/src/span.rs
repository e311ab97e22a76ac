//! Hierarchical span tracing with per-thread bounded rings.
//!
//! A span is an RAII guard: creating one stamps a monotonic start time
//! and pushes itself as the thread's current parent; dropping it stamps
//! the end time and appends a [`SpanRecord`] to the *recording thread's
//! own ring buffer*. The hot path therefore touches only thread-local
//! state plus one uncontended mutex push — no global lock is shared
//! between worker threads while they record ("lock-free-ish"), and the
//! ring is bounded, so recording is O(1) per span with a hard memory
//! ceiling; overflow overwrites the oldest span and counts the drop.
//!
//! Parent/child links are span ids. Within a thread the parent is
//! tracked implicitly (the innermost live span); across threads —
//! sweep cells fanned over the pool — the spawning side captures
//! [`current_span`] and the worker opens its span with
//! [`span_under`], which reparents the worker's subtree under the
//! caller's span so the inspector can render one connected tree.
//!
//! Timestamps are nanoseconds from a process-wide monotonic epoch
//! (`Instant`), so they order correctly across threads but carry no
//! wall-clock meaning. They are *observations*: nothing in the
//! workspace may read them back into an analysis result.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fcm_substrate::pool::Mutex;

use crate::enabled;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique span id (process-wide, starts at 1).
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Deterministic span name (static, so identical runs emit
    /// identical name sets).
    pub name: &'static str,
    /// Optional detail index (e.g. the sweep cell number).
    pub idx: Option<u64>,
    /// Recording thread (dense index in registration order).
    pub thread: u64,
    /// Start, nanoseconds from the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the process epoch.
    pub end_ns: u64,
}

/// A per-thread bounded ring of finished spans.
struct Ring {
    thread: u64,
    inner: Mutex<RingInner>,
}

struct RingInner {
    buf: Vec<SpanRecord>,
    /// Next overwrite position once the buffer is full.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&self, rec: SpanRecord, capacity: usize) {
        let mut inner = self.inner.lock();
        if inner.buf.len() < capacity {
            inner.buf.push(rec);
        } else if capacity > 0 {
            let head = inner.head;
            inner.buf[head] = rec;
            inner.head = (head + 1) % capacity;
            inner.dropped += 1;
        } else {
            inner.dropped += 1;
        }
    }

    /// Oldest-first drain; resets the ring.
    fn drain(&self) -> (Vec<SpanRecord>, u64) {
        let mut inner = self.inner.lock();
        let head = inner.head;
        let mut out: Vec<SpanRecord> = inner.buf[head..].to_vec();
        out.extend_from_slice(&inner.buf[..head]);
        inner.buf.clear();
        inner.head = 0;
        let dropped = std::mem::take(&mut inner.dropped);
        (out, dropped)
    }

    /// Oldest-first copy without resetting the ring (flight dumps peek
    /// mid-run; a regular export remains the only cut point).
    fn peek(&self) -> (Vec<SpanRecord>, u64) {
        let inner = self.inner.lock();
        let head = inner.head;
        let mut out: Vec<SpanRecord> = inner.buf[head..].to_vec();
        out.extend_from_slice(&inner.buf[..head]);
        (out, inner.dropped)
    }
}

/// All thread rings ever registered (rings outlive their threads so a
/// drain after a scoped pool joins still sees the workers' spans).
fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
    &REGISTRY
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Ring capacity; set once by [`crate::init`], read on every push.
pub(crate) static RING_CAPACITY: AtomicU64 = AtomicU64::new(65_536);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch (monotonic).
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Tls {
    ring: Arc<Ring>,
    current_parent: u64,
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

fn with_tls<R>(f: impl FnOnce(&mut Tls) -> R) -> R {
    TLS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let tls = slot.get_or_insert_with(|| {
            let ring = Arc::new(Ring {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                inner: Mutex::new(RingInner {
                    buf: Vec::new(),
                    head: 0,
                    dropped: 0,
                }),
            });
            registry().lock().push(Arc::clone(&ring));
            Tls {
                ring,
                current_parent: 0,
            }
        });
        f(tls)
    })
}

/// The innermost live span id on this thread (0 when none). Capture it
/// before fanning work out to other threads and pass it to
/// [`span_under`] so the workers' spans attach to the caller's tree.
#[must_use]
pub fn current_span() -> u64 {
    if !enabled() {
        return 0;
    }
    with_tls(|tls| tls.current_parent)
}

/// An RAII span guard: records a [`SpanRecord`] when dropped. A no-op
/// (`None` inside) while observability is disabled.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: u64,
    prev_parent: u64,
    name: &'static str,
    idx: Option<u64>,
    start_ns: u64,
}

impl Span {
    fn open(name: &'static str, parent: Option<u64>, idx: Option<u64>) -> Span {
        if !enabled() {
            return Span { active: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, prev_parent) = with_tls(|tls| {
            let prev = tls.current_parent;
            let parent = parent.unwrap_or(prev);
            tls.current_parent = id;
            (parent, prev)
        });
        Span {
            active: Some(ActiveSpan {
                id,
                parent,
                prev_parent,
                name,
                idx,
                start_ns: now_ns(),
            }),
        }
    }

    /// This span's id (0 when recording is disabled).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end_ns = now_ns();
        let capacity = usize::try_from(RING_CAPACITY.load(Ordering::Relaxed)).unwrap_or(usize::MAX);
        with_tls(|tls| {
            tls.current_parent = active.prev_parent;
            tls.ring.push(
                SpanRecord {
                    id: active.id,
                    parent: active.parent,
                    name: active.name,
                    idx: active.idx,
                    thread: tls.ring.thread,
                    start_ns: active.start_ns,
                    end_ns,
                },
                capacity,
            );
        });
    }
}

/// Opens a span named `name` under this thread's current span.
pub fn span(name: &'static str) -> Span {
    Span::open(name, None, None)
}

/// Opens a span with a detail index (e.g. a sweep cell number).
pub fn span_idx(name: &'static str, idx: u64) -> Span {
    Span::open(name, None, Some(idx))
}

/// Opens a span explicitly parented under `parent` (use a
/// [`current_span`] id captured on the spawning thread).
pub fn span_under(name: &'static str, parent: u64, idx: Option<u64>) -> Span {
    Span::open(name, Some(parent), idx)
}

/// Drains every thread's ring: all finished spans ordered by
/// `(start_ns, id)` plus the total number of spans lost to ring
/// overflow since the previous drain.
#[must_use]
pub fn drain() -> (Vec<SpanRecord>, u64) {
    let (spans, by_thread) = drain_detailed();
    let dropped = by_thread.iter().map(|&(_, d)| d).sum();
    (spans, dropped)
}

/// [`drain`] with the drop count broken out per recording thread
/// (`(thread, dropped)` pairs in thread order, zero entries included).
#[must_use]
pub fn drain_detailed() -> (Vec<SpanRecord>, Vec<(u64, u64)>) {
    let rings: Vec<Arc<Ring>> = registry().lock().clone();
    let mut spans = Vec::new();
    let mut by_thread = Vec::new();
    for ring in rings {
        let (mut part, d) = ring.drain();
        spans.append(&mut part);
        by_thread.push((ring.thread, d));
    }
    by_thread.sort_unstable();
    spans.sort_unstable_by_key(|s| (s.start_ns, s.id));
    (spans, by_thread)
}

/// Copies every thread's ring without resetting anything: spans ordered
/// by `(start_ns, id)` plus the cumulative overflow count. Used by the
/// flight recorder, whose dumps must not disturb a later real export.
#[must_use]
pub fn peek() -> (Vec<SpanRecord>, u64) {
    let rings: Vec<Arc<Ring>> = registry().lock().clone();
    let mut spans = Vec::new();
    let mut dropped = 0u64;
    for ring in rings {
        let (mut part, d) = ring.peek();
        spans.append(&mut part);
        dropped += d;
    }
    spans.sort_unstable_by_key(|s| (s.start_ns, s.id));
    (spans, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, set_enabled, ObsConfig};

    // The obs globals are process-wide, so every test here serialises on
    // the crate-wide test lock and drains before/after to avoid cross-talk.
    use crate::TEST_GATE as GATE;

    fn with_obs(f: impl FnOnce()) {
        let _g = GATE.lock();
        init(ObsConfig::default());
        let _ = drain();
        f();
        let _ = drain();
        set_enabled(false);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = GATE.lock();
        set_enabled(false);
        let s = span("nothing");
        assert_eq!(s.id(), 0);
        drop(s);
        // No ring activity is observable through a drain.
        let before = drain().0.len();
        drop(span("still_nothing"));
        assert_eq!(drain().0.len(), before);
    }

    #[test]
    fn nested_spans_link_parent_to_child() {
        with_obs(|| {
            {
                let outer = span("outer");
                let outer_id = outer.id();
                assert_eq!(current_span(), outer_id);
                let inner = span_idx("inner", 7);
                assert_ne!(inner.id(), outer_id);
                drop(inner);
                drop(outer);
            }
            let (spans, dropped) = drain();
            assert_eq!(dropped, 0);
            assert_eq!(spans.len(), 2);
            let outer = spans.iter().find(|s| s.name == "outer").unwrap();
            let inner = spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(outer.parent, 0);
            assert_eq!(inner.parent, outer.id);
            assert_eq!(inner.idx, Some(7));
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.end_ns <= outer.end_ns);
            assert!(outer.end_ns >= outer.start_ns);
        });
    }

    #[test]
    fn sibling_spans_restore_the_parent() {
        with_obs(|| {
            let root = span("root");
            let root_id = root.id();
            drop(span("a"));
            drop(span("b"));
            drop(root);
            let (spans, _) = drain();
            for name in ["a", "b"] {
                let s = spans.iter().find(|s| s.name == name).unwrap();
                assert_eq!(s.parent, root_id, "{name} hangs off the root");
            }
        });
    }

    #[test]
    fn cross_thread_spans_attach_via_span_under() {
        with_obs(|| {
            let root = span("fanout_root");
            let root_id = root.id();
            fcm_substrate::pool::par_map_threads(&[0u64, 1, 2, 3], 4, |&i| {
                let _cell = span_under("cell", root_id, Some(i));
            });
            drop(root);
            let (spans, _) = drain();
            let cells: Vec<_> = spans.iter().filter(|s| s.name == "cell").collect();
            assert_eq!(cells.len(), 4);
            assert!(cells.iter().all(|c| c.parent == root_id));
            let mut idxs: Vec<_> = cells.iter().map(|c| c.idx.unwrap()).collect();
            idxs.sort_unstable();
            assert_eq!(idxs, [0, 1, 2, 3]);
        });
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        with_obs(|| {
            RING_CAPACITY.store(4, Ordering::Relaxed);
            for _ in 0..10 {
                drop(span("burst"));
            }
            RING_CAPACITY.store(65_536, Ordering::Relaxed);
            let (spans, dropped) = drain();
            let burst = spans.iter().filter(|s| s.name == "burst").count();
            assert_eq!(burst, 4, "ring bounded at capacity");
            assert_eq!(dropped, 6);
            // Survivors are the newest (largest ids) in oldest-first order.
            let ids: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == "burst")
                .map(|s| s.id)
                .collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        });
    }

    #[test]
    fn drain_is_ordered_and_resets() {
        with_obs(|| {
            drop(span("one"));
            drop(span("two"));
            let (spans, _) = drain();
            assert!(spans.len() >= 2);
            assert!(spans
                .windows(2)
                .all(|w| (w[0].start_ns, w[0].id) <= (w[1].start_ns, w[1].id)));
            assert!(drain().0.is_empty(), "drain resets the rings");
        });
    }
}
