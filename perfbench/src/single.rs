//! The single-core workloads: `paper-macro` and `substrate-sweep`.
//!
//! One *round* regenerates every input from the seed, then for each cell
//! builds a fresh simulator, replays the warm-up trace and resets the
//! totals (set-up), and replays the measured trace (timed). Rounds are
//! identical, so each one's digest must match and memory stays bounded.

use std::time::Instant;

use mallacc::{MallocCacheStats, MallocSim, Mode};
use mallacc_cache::CacheStats;
use mallacc_offload::OffloadStats;
use mallacc_ooo::SamplingPlan;
use mallacc_substrate::{AnySim, SubstrateKind};
use mallacc_tcmalloc::AllocStats;
use mallacc_workloads::{AnyWorkload, MacroWorkload, Op, SimBackend, Trace};

use crate::digest::Fnv;
use crate::ops::{self, FOp, Heap};
use crate::redrive::{Recorder, Streams};
use crate::run::Summary;
use crate::spans::Spans;

/// Which public replay entry point the timed phase calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayPath {
    /// `Trace::replay` on `MallocSim` (the figure experiments).
    Stats,
    /// `Trace::replay_on` on `AnySim` (`repro substrate`).
    Generic,
}

/// One simulator configuration replaying one input.
#[derive(Debug, Clone)]
pub struct Cell {
    pub substrate: SubstrateKind,
    pub mode: Mode,
    pub input: usize,
}

/// A single-core workload definition.
#[derive(Debug, Clone)]
pub struct SingleWorkload {
    pub inputs: Vec<AnyWorkload>,
    pub cells: Vec<Cell>,
    pub warmup: usize,
    pub calls: usize,
    pub sampling: Option<SamplingPlan>,
    replay: ReplayPath,
}

/// Mallocs of each cell's measured trace that the recording pass replays.
const RECORD_CALLS: usize = 600;

impl SingleWorkload {
    /// The 8 macro workloads × {baseline, Mallacc} on `MallocSim`, full
    /// detail, at the figure experiments' full scale.
    pub fn paper_macro() -> Self {
        let inputs: Vec<AnyWorkload> = MacroWorkload::all()
            .into_iter()
            .map(AnyWorkload::Macro)
            .collect();
        let mut cells = Vec::new();
        for input in 0..inputs.len() {
            for mode in [Mode::Baseline, Mode::mallacc_default()] {
                cells.push(Cell {
                    substrate: SubstrateKind::TcMalloc,
                    mode,
                    input,
                });
            }
        }
        Self {
            inputs,
            cells,
            warmup: 2_000,
            calls: 12_000,
            sampling: None,
            replay: ReplayPath::Stats,
        }
    }

    /// 4 substrates × 4 accelerator modes × 4 workloads on `AnySim`, under
    /// the default sampling plan.
    pub fn substrate_sweep() -> Self {
        let inputs: Vec<AnyWorkload> = ["tp_small", "gauss_free", "sized_deletes", "xapian.pages"]
            .iter()
            .map(|n| AnyWorkload::by_name(n).expect("workload exists"))
            .collect();
        let mut cells = Vec::new();
        for substrate in SubstrateKind::ALL {
            for mode in [
                Mode::Baseline,
                Mode::mallacc_default(),
                Mode::offload_default(),
                Mode::offload_both(),
            ] {
                for input in 0..inputs.len() {
                    cells.push(Cell {
                        substrate,
                        mode,
                        input,
                    });
                }
            }
        }
        Self {
            inputs,
            cells,
            warmup: 2_000,
            calls: 12_000,
            sampling: Some(SamplingPlan::default_plan()),
            replay: ReplayPath::Generic,
        }
    }

    /// At `tiny`, a few hundred calls per cell instead of the full scale.
    pub fn scaled(mut self, tiny: bool) -> Self {
        if tiny {
            self.warmup = 100;
            self.calls = 300;
        }
        self
    }

    /// Generates every input of a round.
    pub fn generate(&self, seed: u64) -> Vec<Input> {
        self.inputs
            .iter()
            .map(|w| {
                let warm = w.trace(self.warmup, seed);
                let measure = w.trace(self.calls, seed.wrapping_add(1));
                let expected = ops::counts(&ops::from_trace(&measure));
                Input {
                    warm,
                    measure,
                    expected,
                }
            })
            .collect()
    }

    fn build(&self, cell: &Cell) -> AnySim {
        let mut sim = AnySim::new(cell.substrate, cell.mode);
        sim.set_sampling(self.sampling);
        sim
    }

    /// One untraced round: set-up is timed apart from the measured replays.
    pub fn round(&self, seed: u64) -> Round {
        let t = Instant::now();
        let inputs = self.generate(seed);
        let mut setup_s = t.elapsed().as_secs_f64();
        let gen_s = setup_s;
        let mut timed_s = 0.0;
        let mut cells = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let input = &inputs[cell.input];
            let t = Instant::now();
            let mut sim = self.build(cell);
            self.replay(&mut sim, &input.warm);
            sim.reset_totals();
            let before = sim.engine().stats().uops;
            setup_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            self.replay(&mut sim, &input.measure);
            timed_s += t.elapsed().as_secs_f64();
            cells.push(CellStats::read(&sim, before, input));
        }
        Round::new(setup_s, gen_s, timed_s, cells)
    }

    fn replay(&self, sim: &mut AnySim, trace: &Trace) {
        match (self.replay, sim) {
            (ReplayPath::Stats, AnySim::TcMalloc(s)) => {
                std::hint::black_box(trace.replay(s));
            }
            (_, sim) => {
                std::hint::black_box(trace.replay_on(sim));
            }
        }
    }

    /// One traced round: the same work as [`SingleWorkload::round`], with a
    /// span around every call into a layer and the heap checked. Returns
    /// the round and the heap violations found.
    pub fn traced_round(&self, seed: u64, spans: &mut Spans) -> (Round, u64) {
        let mut violations = 0;
        let t = Instant::now();
        let inputs = spans.scope("workloads.gen", |_| self.generate(seed));
        let gen_s = t.elapsed().as_secs_f64();
        let mut setup_s = gen_s;
        let mut timed_s = 0.0;
        let mut cells = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let input = &inputs[cell.input];
            let mut heap = Heap::default();
            let t = Instant::now();
            let (mut sim, before) = spans.scope("core.setup", |sp| {
                let mut sim = self.build(cell);
                traced_replay(&mut sim, &input.warm, sp, &mut heap, false);
                sim.reset_totals();
                let before = sim.engine().stats().uops;
                (sim, before)
            });
            setup_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            spans.scope("core.replay", |sp| {
                traced_replay(&mut sim, &input.measure, sp, &mut heap, true)
            });
            timed_s += t.elapsed().as_secs_f64();
            violations += heap.violations;
            cells.push(CellStats::read(&sim, before, input));
        }
        (Round::new(setup_s, gen_s, timed_s, cells), violations)
    }

    /// Functional op lists of every input's measured trace.
    pub fn functional_ops(&self, seed: u64) -> Vec<Vec<FOp>> {
        self.generate(seed)
            .iter()
            .map(|i| ops::from_trace(&i.measure))
            .collect()
    }

    /// Recording pass: every TCMalloc cell at full detail, a recorder
    /// attached after warm-up, over the first [`RECORD_CALLS`] mallocs of
    /// the measured trace.
    pub fn record(&self, seed: u64) -> Streams {
        let inputs = self.generate(seed);
        let mut streams = Streams::default();
        for cell in self
            .cells
            .iter()
            .filter(|c| c.substrate == SubstrateKind::TcMalloc)
        {
            let input = &inputs[cell.input];
            let mut sim = MallocSim::new(cell.mode);
            input.warm.replay_on(&mut sim);
            sim.attach_tracer(Box::new(Recorder::with_cap(usize::MAX)));
            prefix(&input.measure, RECORD_CALLS).replay_on(&mut sim);
            let mut rec = sim
                .detach_tracer()
                .expect("recorder attached")
                .into_any()
                .downcast::<Recorder>()
                .expect("the attached sink is a Recorder");
            streams.add(&mut rec);
        }
        streams
    }
}

/// The ops of `trace` up to (and including) its `mallocs`-th malloc.
fn prefix(trace: &Trace, mallocs: usize) -> Trace {
    let mut seen = 0;
    trace
        .ops()
        .iter()
        .take_while(|op| {
            if matches!(op, Op::Malloc { .. }) {
                seen += 1;
            }
            seen <= mallocs
        })
        .copied()
        .collect()
}

/// The replay loop of `Trace::replay_on`, with a span around each backend
/// call and every returned pointer checked against the live heap.
fn traced_replay<B: SimBackend>(
    sim: &mut B,
    trace: &Trace,
    spans: &mut Spans,
    heap: &mut Heap,
    span_calls: bool,
) {
    const APP_BASE: u64 = 0x7000_0000;
    let mut pool: Vec<u64> = Vec::new();
    let mut touch_cursor = 0u64;
    let mut addrs: Vec<u64> = Vec::new();
    let span = |spans: &mut Spans, name, f: &mut dyn FnMut()| {
        if span_calls {
            let id = spans.open(name);
            f();
            spans.close(id);
        } else {
            f();
        }
    };
    for &op in trace.ops() {
        match op {
            Op::Malloc { size } => {
                let mut ptr = 0;
                span(spans, "core.malloc", &mut || {
                    ptr = sim.backend_malloc(size).0
                });
                heap.alloc(ptr, size);
                pool.push(ptr);
            }
            Op::Free { index, sized } => {
                if pool.is_empty() {
                    continue;
                }
                let ptr = pool.swap_remove((index % pool.len() as u64) as usize);
                heap.free(ptr);
                span(spans, "core.free", &mut || {
                    sim.backend_free(ptr, sized);
                });
            }
            Op::FreeNewest { sized } => {
                if let Some(ptr) = pool.pop() {
                    heap.free(ptr);
                    span(spans, "core.free", &mut || {
                        sim.backend_free(ptr, sized);
                    });
                }
            }
            Op::Antagonize { per_mille } => span(spans, "core.app", &mut || {
                sim.backend_antagonize(f64::from(per_mille.min(1000)) / 1000.0)
            }),
            Op::ContextSwitch { quantum } => span(spans, "core.app", &mut || {
                sim.backend_context_switch(u64::from(quantum))
            }),
            Op::AppRun { cycles } => span(spans, "core.app", &mut || {
                sim.backend_app_run(u64::from(cycles))
            }),
            Op::AppTouch {
                lines,
                working_set_lines,
            } => {
                let ws = u64::from(working_set_lines.max(1));
                addrs.clear();
                addrs.extend(
                    (0..u64::from(lines)).map(|i| APP_BASE + ((touch_cursor + i) % ws) * 64),
                );
                touch_cursor = (touch_cursor + u64::from(lines)) % ws;
                span(spans, "core.app", &mut || sim.backend_app_touch(&addrs));
            }
        }
    }
}

/// One round's generated input for one workload.
#[derive(Debug)]
pub struct Input {
    pub warm: Trace,
    pub measure: Trace,
    /// `(mallocs, frees)` the measured replay must report.
    pub expected: (u64, u64),
}

/// Simulated outcome of one cell, read after its measured replay.
#[derive(Debug, Clone, Copy)]
pub struct CellStats {
    pub mallocs: u64,
    pub frees: u64,
    pub expected: (u64, u64),
    pub alloc_cycles: u64,
    /// µops the measured replay pushed, app touches included.
    pub measured_uops: u64,
    /// App-touch loads the measured replay pushed.
    pub app_uops: u64,
    pub uops: u64,
    pub loads: u64,
    pub busy_cycles: u64,
    pub ff_uops: u64,
    pub mem: (CacheStats, CacheStats, CacheStats),
    pub tlb_walks: u64,
    pub mc: MallocCacheStats,
    pub tc: Option<AllocStats>,
    pub offload: Option<OffloadStats>,
}

impl CellStats {
    fn read(sim: &AnySim, uops_before: u64, input: &Input) -> Self {
        let engine = sim.engine();
        let stats = engine.stats();
        let (mallocs, frees) = sim.call_counts();
        let app_uops = input
            .measure
            .ops()
            .iter()
            .map(|op| match op {
                Op::AppTouch { lines, .. } => u64::from(*lines),
                _ => 0,
            })
            .sum();
        let mc = match sim {
            AnySim::TcMalloc(s) => s.malloc_cache().stats(),
            AnySim::JeMalloc(s) => s.malloc_cache().stats(),
            AnySim::Rpmalloc(s) => s.malloc_cache().stats(),
            AnySim::PerCpu(s) => s.malloc_cache().stats(),
        };
        let tc = match sim {
            AnySim::TcMalloc(s) => Some(s.allocator().stats()),
            _ => None,
        };
        Self {
            mallocs,
            frees,
            expected: input.expected,
            alloc_cycles: sim.allocator_cycles(),
            measured_uops: stats.uops - uops_before,
            app_uops,
            uops: stats.uops,
            loads: stats.loads,
            busy_cycles: engine.now() - engine.skipped_cycles(),
            ff_uops: engine.sampling_report().map_or(0, |r| r.ff_uops),
            mem: engine.mem().stats(),
            tlb_walks: engine.mem().tlb_stats().walks,
            mc,
            tc,
            offload: sim.offload_stats(),
        }
    }

    fn fold(&self, h: &mut Fnv) {
        for v in [
            self.mallocs,
            self.frees,
            self.alloc_cycles,
            self.uops,
            self.mem.0.misses,
            self.mem.1.misses,
            self.mem.2.misses,
        ] {
            h.add(v);
        }
    }
}

/// The result of one round of a single-core workload.
#[derive(Debug, Clone)]
pub struct Round {
    pub summary: Summary,
    pub cells: Vec<CellStats>,
}

impl Round {
    fn new(setup_s: f64, gen_s: f64, timed_s: f64, cells: Vec<CellStats>) -> Self {
        let mut h = Fnv::new();
        for c in &cells {
            c.fold(&mut h);
        }
        Self {
            summary: Summary {
                setup_s,
                gen_s,
                timed_s,
                calls: cells.iter().map(|c| c.mallocs + c.frees).sum(),
                counts_ok: cells.iter().all(|c| (c.mallocs, c.frees) == c.expected),
                digest: h.finish(),
            },
            cells,
        }
    }
}
