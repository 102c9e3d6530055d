//! The `fleet-2core` workload: fleet scenario streams through
//! `MulticoreSim::run_stream` at 2 simulated cores.
//!
//! A round materialises each scenario's stream from the seed and builds
//! one simulator per cell (set-up), then runs each stream under baseline
//! and Mallacc (timed). `run_stream` builds its cores cold on every call,
//! so there is no modelled warm-up to move into set-up.

use std::time::Instant;

use mallacc::Mode;
use mallacc_fleet::Scenario;
use mallacc_multicore::{capture_stream, MtRunResult, MulticoreSim};
use mallacc_tcmalloc::{TcMalloc, TcMallocConfig};
use mallacc_workloads::MtOp;

use crate::digest::Fnv;
use crate::ops::{self, FOp, Heap};
use crate::redrive::{Recorder, Streams};
use crate::run::Summary;
use crate::spans::Spans;

/// Simulated cores (and host replay threads).
pub const CORES: usize = 2;

/// Per-core recording cap of the recording pass, in µops.
const RECORD_UOPS_PER_CORE: usize = 80_000;

/// The fleet workload definition.
#[derive(Debug, Clone)]
pub struct FleetWorkload {
    pub scenarios: Vec<&'static Scenario>,
    pub modes: [Mode; 2],
    pub requests: u64,
}

/// One scenario's materialised stream.
#[derive(Debug)]
pub struct FleetInput {
    pub ops: Vec<(usize, MtOp)>,
    /// `(mallocs, frees)` the run must report.
    pub expected: (u64, u64),
}

/// The result of one round.
#[derive(Debug, Clone)]
pub struct Round {
    pub summary: Summary,
    pub cells: Vec<MtRunResult>,
}

fn scenario_seed(seed: u64, name: &str) -> u64 {
    let mut h = Fnv::new();
    for b in name.bytes() {
        h.add(u64::from(b));
    }
    seed ^ h.finish()
}

impl FleetWorkload {
    pub fn new() -> Self {
        Self {
            scenarios: ["rpc-fanout", "tenant-mix"]
                .iter()
                .map(|n| Scenario::by_name(n).expect("scenario exists"))
                .collect(),
            modes: [Mode::Baseline, Mode::mallacc_default()],
            requests: 3_000,
        }
    }

    /// At `tiny`, 100 requests per scenario instead of the full scale.
    pub fn scaled(mut self, tiny: bool) -> Self {
        if tiny {
            self.requests = 100;
        }
        self
    }

    /// Materialises every scenario stream of a round.
    pub fn generate(&self, seed: u64) -> Vec<FleetInput> {
        self.scenarios
            .iter()
            .map(|s| {
                let ops: Vec<(usize, MtOp)> = s
                    .stream(CORES, self.requests, scenario_seed(seed, s.name))
                    .collect();
                let expected = ops::counts(&ops::from_stream(&ops));
                FleetInput { ops, expected }
            })
            .collect()
    }

    fn cells<'a>(
        &'a self,
        inputs: &'a [FleetInput],
    ) -> impl Iterator<Item = (&'a FleetInput, Mode)> {
        inputs
            .iter()
            .flat_map(move |i| self.modes.iter().map(move |&m| (i, m)))
    }

    /// One round, with an optional span around each `run_stream` call.
    pub fn round(&self, seed: u64, mut spans: Option<&mut Spans>) -> Round {
        let t = Instant::now();
        let inputs = match spans.as_deref_mut() {
            Some(sp) => sp.scope("workloads.gen", |_| self.generate(seed)),
            None => self.generate(seed),
        };
        let gen_s = t.elapsed().as_secs_f64();
        let mut setup_s = gen_s;
        let mut timed_s = 0.0;
        let mut cells = Vec::new();
        let mut counts_ok = true;
        for (input, mode) in self.cells(&inputs) {
            let t = Instant::now();
            let sim = MulticoreSim::new(mode, CORES);
            setup_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let r = match spans.as_deref_mut() {
                Some(sp) => sp.scope("multicore.run_stream", |_| {
                    sim.run_stream(input.ops.iter().copied())
                }),
                None => sim.run_stream(input.ops.iter().copied()),
            };
            timed_s += t.elapsed().as_secs_f64();
            let agg = r.aggregate();
            counts_ok &= (agg.malloc_calls, agg.free_calls) == input.expected;
            cells.push(r);
        }
        let mut h = Fnv::new();
        for r in &cells {
            let t = r.aggregate();
            for v in [
                t.malloc_calls,
                t.free_calls,
                t.malloc_cycles,
                t.free_cycles,
                t.app_cycles,
                r.epochs,
                r.shared_l3_accesses,
                r.steal_invalidates,
            ] {
                h.add(v);
            }
            for c in &r.per_core {
                h.add(c.l3.misses);
                h.add(c.mc.pop_hits);
            }
        }
        Round {
            summary: Summary {
                setup_s,
                gen_s,
                timed_s,
                calls: cells
                    .iter()
                    .map(|r| {
                        let t = r.aggregate();
                        t.malloc_calls + t.free_calls
                    })
                    .sum(),
                counts_ok,
                digest: h.finish(),
            },
            cells,
        }
    }

    /// Host seconds of `capture_stream` alone over every cell of a round.
    pub fn capture_s(&self, inputs: &[FleetInput], spans: &mut Spans) -> f64 {
        let mut secs = 0.0;
        for (input, _) in self.cells(inputs) {
            let t = Instant::now();
            spans.scope("multicore.capture", |_| {
                std::hint::black_box(capture_stream(
                    CORES,
                    input.ops.iter().copied(),
                    TcMallocConfig::default(),
                ))
            });
            secs += t.elapsed().as_secs_f64();
        }
        secs
    }

    /// Drains every scenario stream without simulating; returns
    /// `(host seconds, ops drained)`.
    pub fn drain(&self, seed: u64, spans: &mut Spans) -> (f64, u64) {
        let t = Instant::now();
        let n: usize = spans.scope("fleet.drain", |_| {
            self.scenarios
                .iter()
                .map(|s| {
                    s.stream(CORES, self.requests, scenario_seed(seed, s.name))
                        .map(std::hint::black_box)
                        .count()
                })
                .sum()
        });
        (t.elapsed().as_secs_f64(), n as u64)
    }

    /// Functional op lists of every scenario stream.
    pub fn functional_ops(inputs: &[FleetInput]) -> Vec<Vec<FOp>> {
        inputs.iter().map(|i| ops::from_stream(&i.ops)).collect()
    }

    /// Replays every stream on the shared functional allocator the capture
    /// phase uses and returns the heap violations.
    pub fn heap_check(inputs: &[FleetInput]) -> u64 {
        let mut violations = 0;
        for input in inputs {
            let mut alloc = TcMalloc::with_threads(TcMallocConfig::default(), CORES);
            let mut heap = Heap::default();
            let mut blocks = std::collections::HashMap::new();
            for &(core, op) in &input.ops {
                match op {
                    MtOp::Malloc { size, token } => {
                        let ptr = alloc.malloc_on(core, size).ptr;
                        heap.alloc(ptr, size);
                        blocks.insert(token, ptr);
                    }
                    MtOp::Free { token, sized } => match blocks.remove(&token) {
                        Some(ptr) => {
                            heap.free(ptr);
                            alloc.free_on(core, ptr, sized);
                        }
                        None => heap.violations += 1,
                    },
                    _ => {}
                }
            }
            violations += heap.violations;
        }
        violations
    }

    /// Recording pass: every cell with a recorder on each core.
    pub fn record(&self, inputs: &[FleetInput]) -> (Streams, Vec<Recorder>) {
        let mut streams = Streams::default();
        let mut totals = Vec::new();
        for (input, mode) in self.cells(inputs) {
            let sinks: Vec<Box<dyn mallacc::TraceSink>> = (0..CORES)
                .map(|_| Box::new(Recorder::with_cap(RECORD_UOPS_PER_CORE)) as _)
                .collect();
            let (_, sinks) = MulticoreSim::new(mode, CORES)
                .run_stream_with_sinks(input.ops.iter().copied(), sinks);
            for s in sinks {
                let mut rec = *s
                    .into_any()
                    .downcast::<Recorder>()
                    .expect("the attached sinks are Recorders");
                streams.add(&mut rec);
                totals.push(rec);
            }
        }
        (streams, totals)
    }
}

impl Default for FleetWorkload {
    fn default() -> Self {
        Self::new()
    }
}
