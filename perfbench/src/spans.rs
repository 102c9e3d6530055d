//! In-memory span recorder for the traced run.
//!
//! A span is a named host-time interval with a parent. Spans are recorded
//! only by this benchmark, around its calls into each layer; nothing inside
//! the simulator crates is instrumented. Self time is a span's duration
//! minus the time its direct children cover (children never overlap: the
//! traced run is single-threaded at every span boundary).

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

const NO_PARENT: SpanId = SpanId::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// Records spans against one origin instant; kept in memory until the run
/// ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    on: bool,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            on: true,
        }
    }

    /// A recorder that records nothing: the same code path with no span
    /// cost, so that traced and untraced rounds run the same loop.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.open(name);
        let r = f(self);
        self.close(id);
        r
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) summed per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }
}

/// The `q`-quantile (nearest rank) of `values`; 0 for an empty slice.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        let root = s.open("root");
        s.scope("child", |s| {
            s.scope("grandchild", |_| std::hint::black_box(0))
        });
        s.close(root);
        let selfs = s.self_times();
        let total = s.total_ns("root");
        let sum: u64 = selfs.values().sum();
        assert_eq!(sum, total, "self times partition the root span");
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut s = Spans::off();
        s.scope("root", |s| s.scope("child", |_| std::hint::black_box(0)));
        assert!(s.self_times().is_empty());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
