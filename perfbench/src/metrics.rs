//! Metric catalogue and the one-line JSON result the benchmark prints last.
//!
//! The catalogue is the single source of truth for metric names and
//! units: the run prints exactly these, and a test checks that
//! `BENCHMARK.json` lists the same names with the same units.

/// A catalogue entry: `(name, unit, better, help)`.
pub type Spec = (&'static str, &'static str, &'static str, &'static str);

/// End-to-end metrics (untraced run).
#[rustfmt::skip]
pub const END_TO_END: &[Spec] = &[
    ("sim_calls_per_s", "1/s", "higher", "simulated malloc+free calls retired per host second over the timed rounds"),
    ("setup_s", "s", "lower", "input generation + simulator construction + warm-up, median over rounds"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory (VmHWM): the run's own at its end; fleet-2core: median of fresh one-round processes"),
];

/// Per-layer metrics (traced run).
#[rustfmt::skip]
pub const PER_LAYER: &[Spec] = &[
    // Host time per layer.
    ("workloads.gen_s", "s", "lower", "trace/stream generation per round"),
    ("fleet.ns_per_op", "ns", "lower", "draining Scenario::stream alone, per op"),
    ("core.malloc_ns_p50", "ns", "lower", "driver malloc call, median"),
    ("core.malloc_ns_p99", "ns", "lower", "driver malloc call, 99th percentile"),
    ("core.free_ns_p50", "ns", "lower", "driver free call, median"),
    ("core.free_ns_p99", "ns", "lower", "driver free call, 99th percentile"),
    ("core.app_ns_per_op", "ns", "lower", "app_run/app_touch/antagonize/context_switch"),
    ("core.residual_ns_per_call", "ns", "lower", "driver call minus the layer ledger"),
    ("tcmalloc.ns_per_call", "ns", "lower", "bare TcMalloc re-drive"),
    ("jemalloc.ns_per_call", "ns", "lower", "bare JeMalloc re-drive"),
    ("substrate.rpmalloc.ns_per_call", "ns", "lower", "bare RpMalloc re-drive"),
    ("substrate.percpu.ns_per_call", "ns", "lower", "bare PerCpuMalloc re-drive"),
    ("ooo-sim.ns_per_uop", "ns", "lower", "bare Engine::push re-push, full detail"),
    ("ooo-sim.ns_per_uop_sampled", "ns", "lower", "bare Engine::push re-push, default sampling plan"),
    ("cache-sim.ns_per_access", "ns", "lower", "bare Hierarchy::access re-issue"),
    ("offload.ns_per_enqueue", "ns", "lower", "bare OffloadQueue::enqueue re-drive"),
    ("multicore.capture_s", "s", "lower", "capture_stream alone, per round"),
    ("multicore.replay_s", "s", "lower", "run_stream minus capture, per round"),
    ("multicore.us_per_epoch", "us", "lower", "replay time per synchronisation epoch"),
    // Ledger and tracing cost.
    ("ledger.sum_ns_per_call", "ns", "lower", "sum of layer ns x layer count per driver call"),
    ("ledger.measured_ns_per_call", "ns", "lower", "measured host ns per driver call"),
    ("ledger.residual_pct", "%", "lower", "residual as a share of the measured time"),
    ("trace.overhead_pct", "%", "lower", "untraced over traced sim_calls_per_s of the same replay loop, minus one: span recording alone"),
    ("trace.sim_calls_per_s", "1/s", "higher", "sim_calls_per_s with spans recorded"),
    // Self time per span, summed over the traced pass.
    ("self.workloads.gen_s", "s", "lower", "self time of input generation"),
    ("self.core.setup_s", "s", "lower", "self time of construction + warm-up"),
    ("self.core.replay_s", "s", "lower", "self time of the replay loop itself"),
    ("self.core.malloc_s", "s", "lower", "self time of driver malloc calls"),
    ("self.core.free_s", "s", "lower", "self time of driver free calls"),
    ("self.core.app_s", "s", "lower", "self time of app/antagonist/context-switch calls"),
    ("self.multicore.run_stream_s", "s", "lower", "self time of MulticoreSim::run_stream"),
    ("self.multicore.capture_s", "s", "lower", "self time of the capture_stream re-drive"),
    ("self.fleet.drain_s", "s", "lower", "self time of the Scenario::stream drain"),
    ("self.tcmalloc.redrive_s", "s", "lower", "self time of the TcMalloc re-drive"),
    ("self.jemalloc.redrive_s", "s", "lower", "self time of the JeMalloc re-drive"),
    ("self.substrate.rpmalloc.redrive_s", "s", "lower", "self time of the RpMalloc re-drive"),
    ("self.substrate.percpu.redrive_s", "s", "lower", "self time of the PerCpuMalloc re-drive"),
    ("self.ooo-sim.redrive_s", "s", "lower", "self time of the full-detail engine re-push"),
    ("self.ooo-sim.redrive_sampled_s", "s", "lower", "self time of the sampled engine re-push"),
    ("self.cache-sim.redrive_s", "s", "lower", "self time of the hierarchy re-issue"),
    ("self.offload.redrive_s", "s", "lower", "self time of the offload-queue re-drive"),
    ("self.bench.record_s", "s", "lower", "self time of the µop-stream recording pass"),
    // Counts: repeat exactly at a fixed seed.
    ("core.calls", "count", "higher", "simulated calls per round"),
    ("core.uops_per_call", "uops", "lower", "driver µops per simulated call"),
    ("core.mc_lookup_hit_rate", "ratio", "higher", "malloc-cache size-lookup hits / lookups"),
    ("core.mc_pop_hit_rate", "ratio", "higher", "malloc-cache head-pop hits / pops"),
    ("ooo-sim.uops", "count", "lower", "µops pushed per round"),
    ("ooo-sim.loads", "count", "lower", "loads executed per round"),
    ("ooo-sim.ff_uop_share", "ratio", "higher", "fast-forwarded µops / µops"),
    ("ooo-sim.ipc", "uops/cycle", "higher", "simulated µops per simulated core cycle"),
    ("cache-sim.l1_accesses", "count", "lower", "L1 accesses per round"),
    ("cache-sim.l1_miss_rate", "ratio", "lower", "L1 misses / L1 accesses"),
    ("cache-sim.l2_miss_rate", "ratio", "lower", "L2 misses / L2 accesses"),
    ("cache-sim.l3_miss_rate", "ratio", "lower", "L3 misses / L3 accesses"),
    ("cache-sim.tlb_walks", "count", "lower", "page walks per round"),
    ("tcmalloc.fast_hit_rate", "ratio", "higher", "thread-cache hits / mallocs"),
    ("tcmalloc.central_refills", "count", "lower", "central free-list refills per round"),
    ("offload.enqueued", "count", "lower", "offload requests per round"),
    ("offload.queue_full_stalls", "count", "lower", "enqueues that met a full queue"),
    ("multicore.epochs", "count", "lower", "synchronisation epochs per round"),
    ("multicore.shared_l3_accesses", "count", "lower", "L3 accesses committed to the master"),
    ("multicore.steal_invalidates", "count", "lower", "steal-induced malloc-cache invalidations"),
    ("model.alloc_improvement_pct", "%", "higher", "simulated Mallacc allocator-time gain"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A set of metrics filled by name against one catalogue.
#[derive(Debug, Clone)]
pub struct MetricSet {
    catalogue: &'static [Spec],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn new(catalogue: &'static [Spec]) -> Self {
        Self {
            catalogue,
            values: vec![None; catalogue.len()],
        }
    }

    /// Sets `name`. Panics on a name outside the catalogue: that is a bug
    /// in the benchmark, not in its input.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// Every catalogue metric in order (unset ones read 0).
    pub fn metrics(&self) -> Vec<Metric> {
        self.catalogue
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit, _, _), v)| Metric {
                name,
                unit,
                value: v.unwrap_or(0.0),
            })
            .collect()
    }

    /// One-line descriptions, in catalogue order.
    pub fn help(&self) -> impl Iterator<Item = &'static str> {
        self.catalogue.iter().map(|(_, _, _, help)| *help)
    }

    /// Names of catalogue metrics that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalogue
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|((n, _, _, _), _)| *n)
            .collect()
    }
}

/// True when `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// True when `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Formats a number for JSON with all its digits (`{}` on f64 is the
/// shortest exact round-trip form); non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}
