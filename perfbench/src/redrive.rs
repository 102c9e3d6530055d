//! The µop-stream recorder and the bare re-drives of the timing layers.
//!
//! A [`Recorder`] sink is attached to a TCMalloc driver (the only driver
//! with a tracer hook) for a recording pass at full detail. Its stream is
//! then pushed again through a fresh [`Engine`] (full and sampled), its
//! memory µops are re-issued to a fresh [`Hierarchy`], and its call-start
//! cycles feed a fresh [`OffloadQueue`]. The re-push cannot recover the
//! original register dataflow (trace events carry no register names), so
//! every value-producing µop depends on the previous one: host cost per
//! push is what is measured, not simulated timing.

use std::any::Any;
use std::time::Instant;

use mallacc_cache::{AccessKind, Hierarchy, HierarchyConfig, Level};
use mallacc_offload::{service_cycles, OffloadConfig, OffloadQueue, ServicePath};
use mallacc_ooo::{CoreConfig, Engine, OpKind, OpMeta, SamplingPlan, TraceSink, Uop, UopEvent};

/// Records the µop kinds and call windows one engine retires.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Recorded µops of driver calls (app traffic between calls is not
    /// recorded), up to `cap`.
    pub uops: Vec<OpKind>,
    /// `(start cycle, is_malloc)` of each driver call.
    pub calls: Vec<(u64, bool)>,
    /// µops retired (all of them, beyond the cap too).
    pub retired: u64,
    /// µops retired inside driver calls, beyond the cap too (app traffic
    /// between calls excluded).
    pub call_uops: u64,
    /// Loads retired.
    pub loads: u64,
    /// Memory accesses retired per serving level (L1, L2, L3, memory).
    pub levels: [u64; 4],
    /// Latest commit cycle seen.
    pub last_commit: u64,
    /// Cycles skipped past retirement (app compute, contention).
    pub skipped: u64,
    cap: usize,
    in_call: bool,
}

impl Recorder {
    pub fn with_cap(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }
}

impl TraceSink for Recorder {
    fn on_retire(&mut self, event: &UopEvent) {
        self.retired += 1;
        self.last_commit = self.last_commit.max(event.timing.commit);
        if matches!(event.kind, OpKind::Load { .. }) {
            self.loads += 1;
        }
        if let Some(m) = event.timing.mem {
            let i = match m.level {
                Level::L1 => 0,
                Level::L2 => 1,
                Level::L3 => 2,
                Level::Memory => 3,
            };
            self.levels[i] += 1;
        }
        if self.in_call {
            self.call_uops += 1;
            if self.uops.len() < self.cap {
                self.uops.push(event.kind);
            }
        }
    }

    fn on_skip(&mut self, from: u64, to: u64) {
        self.skipped += to.saturating_sub(from);
    }

    fn on_op_begin(&mut self, _cycle: u64) {
        self.in_call = true;
    }

    fn on_op_end(&mut self, op: &OpMeta<'_>) {
        self.in_call = false;
        self.calls.push((op.start, op.is_malloc));
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Recorded streams of one workload.
#[derive(Debug, Default)]
pub struct Streams {
    /// µop kinds, concatenated over the recorded cells.
    pub uops: Vec<OpKind>,
    /// Call starts, one list per recorded cell (cycles restart per cell).
    pub calls: Vec<Vec<(u64, bool)>>,
}

impl Streams {
    /// Moves `rec`'s stream into this set, leaving its counters.
    pub fn add(&mut self, rec: &mut Recorder) {
        self.uops.append(&mut rec.uops);
        self.calls.push(std::mem::take(&mut rec.calls));
    }

    fn memory_accesses(&self) -> impl Iterator<Item = (u64, AccessKind)> + '_ {
        self.uops.iter().filter_map(|k| match *k {
            OpKind::Load { addr } => Some((addr, AccessKind::Read)),
            OpKind::Store { addr } => Some((addr, AccessKind::Write)),
            OpKind::Prefetch { addr } => Some((addr, AccessKind::Prefetch)),
            _ => None,
        })
    }

    /// Memory µops in the stream.
    pub fn access_count(&self) -> u64 {
        self.memory_accesses().count() as u64
    }

    /// Driver calls across the recorded cells.
    pub fn call_count(&self) -> u64 {
        self.calls.iter().map(|c| c.len() as u64).sum()
    }
}

fn fresh_engine() -> Engine {
    Engine::new(
        CoreConfig::haswell(),
        Hierarchy::new(HierarchyConfig::haswell()),
    )
}

/// Pushes the stream through a fresh engine under `plan`; returns host
/// seconds spent in `Engine::push` alone (µop construction is untimed).
pub fn engine_push(streams: &Streams, plan: Option<SamplingPlan>) -> f64 {
    const CHUNK: usize = 4096;
    let mut cpu = fresh_engine();
    cpu.set_sampling(plan);
    let mut last = None;
    let mut chunk: Vec<Uop> = Vec::with_capacity(CHUNK);
    let mut secs = 0.0;
    for kinds in streams.uops.chunks(CHUNK) {
        chunk.clear();
        for &kind in kinds {
            let dst = match kind {
                OpKind::Alu { .. } | OpKind::Load { .. } => Some(cpu.alloc_reg()),
                _ => None,
            };
            chunk.push(Uop {
                kind,
                srcs: [last, None, None],
                dst,
            });
            if dst.is_some() {
                last = dst;
            }
        }
        let t = Instant::now();
        for u in chunk.drain(..) {
            std::hint::black_box(cpu.push(u));
        }
        secs += t.elapsed().as_secs_f64();
    }
    std::hint::black_box(cpu.stats());
    secs
}

/// Re-issues the stream's memory µops to a fresh hierarchy; returns host
/// seconds.
pub fn cache_access(streams: &Streams) -> f64 {
    let mut mem = Hierarchy::new(HierarchyConfig::haswell());
    let t = Instant::now();
    for (addr, kind) in streams.memory_accesses() {
        std::hint::black_box(mem.access(addr, kind));
    }
    t.elapsed().as_secs_f64()
}

/// Enqueues one fast-path request per recorded call, at its recorded start
/// cycle, into a fresh SpeedMalloc-default queue per cell; returns host
/// seconds.
pub fn offload_enqueue(streams: &Streams) -> f64 {
    let cfg = OffloadConfig::speedmalloc_default();
    let malloc = service_cycles(ServicePath::MallocFast, false, &cfg);
    let free = service_cycles(
        ServicePath::FreeFast {
            unsized_walk: false,
        },
        false,
        &cfg,
    );
    let t = Instant::now();
    for cell in &streams.calls {
        let mut q = OffloadQueue::new(cfg);
        for &(start, is_malloc) in cell {
            std::hint::black_box(q.enqueue(start, if is_malloc { malloc } else { free }));
        }
        std::hint::black_box(q.stats());
    }
    t.elapsed().as_secs_f64()
}
