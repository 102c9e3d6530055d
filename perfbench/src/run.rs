//! Orchestration: rounds for `--seconds`, the correctness gate, the traced
//! pass with its re-drives, the ledger, and the metric values.

use std::process::Command;
use std::time::Instant;

use mallacc_jemalloc::JeMalloc;
use mallacc_ooo::SamplingPlan;
use mallacc_substrate::{Allocator, PerCpuMalloc, RpMalloc, SubstrateKind};
use mallacc_tcmalloc::TcMalloc;

use crate::digest;
use crate::fleet::{self, FleetWorkload};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::ops::{self, FOp};
use crate::redrive::{self, Recorder, Streams};
use crate::single::{self, SingleWorkload};
use crate::spans::{quantile, Spans};

/// The paper's Figure 13 average allocator-time improvement from Mallacc.
pub const PAPER_FIG13_AVG_PCT: f64 = 18.0;

/// Timed rounds a run makes at least, however long they take.
const MIN_ROUNDS: usize = 3;

/// Fresh processes whose peak resident memory is `fleet-2core`'s
/// `peak_rss_mb`: their median. With glibc's default malloc arenas, that
/// peak depends on which arenas the threads `MulticoreSim` starts every
/// epoch land in: it differs from process to process (46–70 MB after one
/// round) and creeps up over the rounds of a long-lived one (57–115 MB
/// after two). Each probe runs one round, set-up and measured replay, so
/// the run's length does not set what the peak covers. A single-core
/// workload's peak settles by its second round (`paper-macro`: 22–29 MB
/// after one round, by seed; 28–32 MB from the second on), so its run
/// reads its own peak at the end.
const RSS_PROBES: usize = 5;

/// Input scale: `Full` is the benchmark; `Tiny` keeps every code path at
/// a fraction of the work, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMacro,
    SubstrateSweep,
    Fleet2Core,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMacro,
        Workload::SubstrateSweep,
        Workload::Fleet2Core,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMacro => "paper-macro",
            Workload::SubstrateSweep => "substrate-sweep",
            Workload::Fleet2Core => "fleet-2core",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What every round reports, whatever the workload.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub setup_s: f64,
    pub gen_s: f64,
    pub timed_s: f64,
    pub calls: u64,
    pub counts_ok: bool,
    pub digest: u64,
}

impl Summary {
    pub fn calls_per_s(&self) -> f64 {
        self.calls as f64 / self.timed_s
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// Human-readable report lines, printed before the result line.
    pub text: Vec<String>,
}

/// The workload's round runner, untraced or traced.
enum Runner {
    Single(SingleWorkload),
    Fleet(FleetWorkload),
}

/// A round's full result.
enum RoundResult {
    Single(single::Round),
    Fleet(fleet::Round),
}

impl RoundResult {
    fn summary(&self) -> Summary {
        match self {
            RoundResult::Single(r) => r.summary,
            RoundResult::Fleet(r) => r.summary,
        }
    }
}

impl Runner {
    fn new(w: Workload, scale: Scale) -> Self {
        let tiny = scale == Scale::Tiny;
        match w {
            Workload::PaperMacro => Runner::Single(SingleWorkload::paper_macro().scaled(tiny)),
            Workload::SubstrateSweep => {
                Runner::Single(SingleWorkload::substrate_sweep().scaled(tiny))
            }
            Workload::Fleet2Core => Runner::Fleet(FleetWorkload::new().scaled(tiny)),
        }
    }

    fn round(&self, seed: u64) -> RoundResult {
        match self {
            Runner::Single(w) => RoundResult::Single(w.round(seed)),
            Runner::Fleet(w) => RoundResult::Fleet(w.round(seed, None)),
        }
    }

    /// A traced round; returns it with the heap violations it found.
    fn traced_round(&self, seed: u64, spans: &mut Spans) -> (RoundResult, u64) {
        match self {
            Runner::Single(w) => {
                let (r, v) = w.traced_round(seed, spans);
                (RoundResult::Single(r), v)
            }
            Runner::Fleet(w) => (RoundResult::Fleet(w.round(seed, Some(spans))), 0),
        }
    }
}

/// Runs one round of `w` and returns its digest.
pub fn digest_of(w: Workload, seed: u64, scale: Scale) -> u64 {
    Runner::new(w, scale).round(seed).summary().digest
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one full-scale round of `w` and returns the process's peak
/// resident memory in MB: the body of a `--rss-probe` process.
pub fn rss_probe(w: Workload, seed: u64) -> f64 {
    std::hint::black_box(Runner::new(w, Scale::Full).round(seed).summary());
    peak_rss_mb()
}

/// Median peak resident memory of [`RSS_PROBES`] fresh `--rss-probe`
/// processes, started one after another from this executable.
fn probed_peak_rss_mb(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("rss probe: {e}"))?;
    let mut peaks = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                w.name(),
                "--seed",
                &seed.to_string(),
                "--rss-probe",
            ])
            .output()
            .map_err(|e| format!("rss probe: {e}"))?;
        let peak = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        match peak {
            Ok(mb) if out.status.success() && mb > 0.0 => peaks.push(mb),
            _ => return Err(format!("rss probe failed: {}", out.status)),
        }
    }
    Ok(median(&peaks))
}

/// The correctness gate over a run's rounds: counts must match the inputs
/// in every round, every round must reproduce the first round's digest,
/// and that digest must equal the recorded one when the seed has one.
struct Gate {
    /// The digest recorded for this workload and seed at full scale.
    recorded: Option<u64>,
    first: Option<u64>,
    errors: Vec<String>,
}

impl Gate {
    fn new(workload: Workload, seed: u64, scale: Scale) -> Self {
        Self {
            recorded: match scale {
                Scale::Full => digest::recorded(workload.name(), seed),
                Scale::Tiny => None,
            },
            first: None,
            errors: Vec::new(),
        }
    }

    fn check(&mut self, s: &Summary) {
        if !s.counts_ok {
            self.errors
                .push("simulated call counts differ from the generated inputs".into());
        }
        match self.first {
            None => {
                self.first = Some(s.digest);
                if let Some(want) = self.recorded {
                    if want != s.digest {
                        self.errors.push(format!(
                            "digest {:016x} differs from the recorded {want:016x}",
                            s.digest
                        ));
                    }
                }
            }
            Some(d) if d != s.digest => self.errors.push(format!(
                "round digest {:016x} differs from {d:016x}",
                s.digest
            )),
            Some(_) => {}
        }
    }

    fn lines(&self) -> Vec<String> {
        let recorded = self.recorded.is_some();
        let mut out = vec![format!(
            "correctness: digest {:016x} ({}); {} error(s)",
            self.first.unwrap_or(0),
            if recorded {
                "checked against the recorded digest for this seed"
            } else {
                "no digest recorded for this seed: counts and round-to-round repeatability checked"
            },
            self.errors.len()
        )];
        out.extend(self.errors.iter().map(|e| format!("  FAIL {e}")));
        out
    }
}

/// Runs `w` for at least `seconds` of timed rounds.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let runner = Runner::new(w, scale);
    let gate = Gate::new(w, seed, scale);
    if trace {
        traced_run(w, runner, gate, seed, seconds)
    } else {
        plain_run(w, runner, gate, seed, seconds, scale)
    }
}

fn plain_run(
    w: Workload,
    runner: Runner,
    mut gate: Gate,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Outcome {
    // Round 0 warms the host (allocator arenas, page tables, branch
    // predictors); its set-up counts, its throughput does not.
    let warm = runner.round(seed).summary();
    gate.check(&warm);
    let mut setups = vec![warm.setup_s];
    let mut rates = Vec::new();
    let (mut attempted, mut timed_s) = (0, 0.0);
    let start = Instant::now();
    while rates.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let s = runner.round(seed).summary();
        gate.check(&s);
        setups.push(s.setup_s);
        rates.push(s.calls_per_s());
        attempted += s.calls;
        timed_s += s.timed_s;
    }
    let peak_rss = match (&runner, scale) {
        (Runner::Fleet(_), Scale::Full) => probed_peak_rss_mb(w, seed).unwrap_or_else(|e| {
            gate.errors.push(e);
            peak_rss_mb()
        }),
        // Tiny runs live in the test harness, whose executable cannot
        // serve as a probe.
        _ => peak_rss_mb(),
    };
    let failed = if gate.errors.is_empty() { 0 } else { attempted };
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.set("sim_calls_per_s", attempted as f64 / timed_s);
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", peak_rss);
    let mut text = vec![format!(
        "workload {} seed {seed}: {} timed rounds of {} simulated calls",
        w.name(),
        rates.len(),
        warm.calls
    )];
    text.push(format!(
        "per-round calls/s: {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    text.extend(gate.lines());
    Outcome {
        attempted,
        failed,
        metrics,
        text,
    }
}

/// Median host seconds of `f` over three calls.
fn median_of_3(mut f: impl FnMut() -> f64) -> f64 {
    median(&[f(), f(), f()])
}

/// Host ns per unit of every isolated re-drive.
struct Redrives {
    /// Functional models, in `SubstrateKind::ALL` order, per call.
    functional: [f64; 4],
    engine_full: f64,
    engine_sampled: f64,
    cache: f64,
    offload: f64,
}

impl Redrives {
    /// Re-drives the functional models over `fops` and the timing layers
    /// over `streams`, each inside its own span.
    fn run(fops: &[Vec<FOp>], streams: &Streams, spans: &mut Spans) -> Self {
        fn functional<A: Allocator>(
            fops: &[Vec<FOp>],
            spans: &mut Spans,
            name: &'static str,
            mut make: impl FnMut() -> A,
        ) -> f64 {
            let calls: usize = fops.iter().map(Vec::len).sum();
            let secs = spans.scope(name, |_| {
                median_of_3(|| {
                    let t = Instant::now();
                    for f in fops {
                        ops::redrive(&mut make(), f);
                    }
                    t.elapsed().as_secs_f64()
                })
            });
            secs * 1e9 / calls.max(1) as f64
        }
        let uops = streams.uops.len().max(1) as f64;
        let mut timed = |name, f: &dyn Fn() -> f64| spans.scope(name, |_| median_of_3(f));
        let engine_full =
            timed("ooo-sim.redrive", &|| redrive::engine_push(streams, None)) * 1e9 / uops;
        let engine_sampled = timed("ooo-sim.redrive_sampled", &|| {
            redrive::engine_push(streams, Some(SamplingPlan::default_plan()))
        }) * 1e9
            / uops;
        let cache = timed("cache-sim.redrive", &|| redrive::cache_access(streams)) * 1e9
            / streams.access_count().max(1) as f64;
        let offload = timed("offload.redrive", &|| redrive::offload_enqueue(streams)) * 1e9
            / streams.call_count().max(1) as f64;
        Self {
            functional: [
                functional(fops, spans, "tcmalloc.redrive", TcMalloc::default),
                functional(fops, spans, "jemalloc.redrive", JeMalloc::new),
                functional(fops, spans, "substrate.rpmalloc.redrive", || {
                    RpMalloc::new(1)
                }),
                functional(fops, spans, "substrate.percpu.redrive", || {
                    PerCpuMalloc::new(1)
                }),
            ],
            engine_full,
            engine_sampled,
            cache,
            offload,
        }
    }

    fn set(&self, m: &mut MetricSet) {
        m.set("tcmalloc.ns_per_call", self.functional[0]);
        m.set("jemalloc.ns_per_call", self.functional[1]);
        m.set("substrate.rpmalloc.ns_per_call", self.functional[2]);
        m.set("substrate.percpu.ns_per_call", self.functional[3]);
        m.set("ooo-sim.ns_per_uop", self.engine_full);
        m.set("ooo-sim.ns_per_uop_sampled", self.engine_sampled);
        m.set("cache-sim.ns_per_access", self.cache);
        m.set("offload.ns_per_enqueue", self.offload);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `100 × (1 − geomean(mallacc / baseline))` over paired allocator cycles.
fn improvement_pct(pairs: &[(u64, u64)]) -> f64 {
    let logs: Vec<f64> = pairs
        .iter()
        .filter(|(b, _)| *b > 0)
        .map(|&(b, m)| (m as f64 / b as f64).ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    100.0 * (1.0 - (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

fn substrate_index(kind: SubstrateKind) -> usize {
    SubstrateKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

fn traced_run(w: Workload, runner: Runner, mut gate: Gate, seed: u64, seconds: f64) -> Outcome {
    let mut heap_violations = 0;
    let warm = runner.round(seed);
    gate.check(&warm.summary());

    // Alternate untraced and traced rounds so host drift hits both alike.
    // Both run the traced loop, heap check included; the untraced rounds
    // record no spans, so the overhead is the span recording alone.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut gens = vec![warm.summary().gen_s];
    let mut spans: Option<Spans> = None;
    let mut attempted = 0;
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let (r, v) = runner.traced_round(seed, &mut Spans::off());
        let s = r.summary();
        gate.check(&s);
        heap_violations += v;
        plain.push(s.calls_per_s());
        gens.push(s.gen_s);
        attempted += s.calls;
        let mut sp = Spans::new();
        let (r, v) = runner.traced_round(seed, &mut sp);
        let s = r.summary();
        gate.check(&s);
        heap_violations += v;
        traced.push(s.calls_per_s());
        attempted += s.calls;
        spans.get_or_insert(sp);
    }
    let mut spans = spans.expect("at least one traced round");
    if heap_violations > 0 {
        gate.errors.push(format!(
            "{heap_violations} heap violation(s): overlapping live blocks or frees of non-live blocks"
        ));
    }

    let mut m = MetricSet::new(PER_LAYER);
    let mut text = vec![format!(
        "workload {} seed {seed}: traced run, {} untraced + {} traced rounds",
        w.name(),
        plain.len(),
        traced.len()
    )];
    m.set("workloads.gen_s", median(&gens));
    let (plain_cps, traced_cps) = (median(&plain), median(&traced));
    m.set("trace.sim_calls_per_s", traced_cps);
    m.set("trace.overhead_pct", 100.0 * (plain_cps / traced_cps - 1.0));

    let ledger = match (&runner, &warm) {
        (Runner::Single(sw), RoundResult::Single(round)) => {
            single_layers(sw, round, seed, &mut spans, &mut m, &mut text)
        }
        (Runner::Fleet(fw), RoundResult::Fleet(round)) => {
            let (l, v) = fleet_layers(fw, round, seed, &mut spans, &mut m, &mut text);
            if v > 0 {
                gate.errors
                    .push(format!("{v} heap violation(s) in the fleet streams"));
            }
            l
        }
        _ => unreachable!("a runner yields its own round kind"),
    };
    ledger.report(&mut m, &mut text);

    let selfs = spans.self_times();
    text.push("self time per span, first traced round and re-drives (s):".into());
    for (name, ns) in &selfs {
        text.push(format!("  {name:<28} {:>10.6}", *ns as f64 / 1e9));
    }
    for &(metric, _, _, _) in PER_LAYER {
        if let Some(span) = metric
            .strip_prefix("self.")
            .and_then(|s| s.strip_suffix("_s"))
        {
            m.set(metric, selfs.get(span).copied().unwrap_or(0) as f64 / 1e9);
        }
    }
    text.push(format!(
        "tracing overhead: {plain_cps:.0} calls/s untraced vs {traced_cps:.0} traced ({:+.2}%)",
        100.0 * (plain_cps / traced_cps - 1.0)
    ));
    text.extend(gate.lines());
    let missing = m.missing();
    assert!(
        missing.is_empty(),
        "per-layer metrics left unset: {missing:?}"
    );
    let failed = if gate.errors.is_empty() { 0 } else { attempted };
    Outcome {
        attempted,
        failed,
        metrics: m,
        text,
    }
}

/// Σ (layer ns × layer count) per driver call against the measured time.
struct Ledger {
    rows: Vec<(&'static str, f64)>,
    measured_ns: f64,
    formula: &'static str,
}

impl Ledger {
    fn report(&self, m: &mut MetricSet, text: &mut Vec<String>) {
        let sum: f64 = self.rows.iter().map(|(_, v)| v).sum();
        let residual = self.measured_ns - sum;
        let pct = if self.measured_ns > 0.0 {
            100.0 * residual / self.measured_ns
        } else {
            0.0
        };
        m.set("ledger.sum_ns_per_call", sum);
        m.set("ledger.measured_ns_per_call", self.measured_ns);
        m.set("ledger.residual_pct", pct);
        m.set("core.residual_ns_per_call", residual);
        text.push(format!(
            "ledger, host ns per simulated call ({}):",
            self.formula
        ));
        for (name, v) in &self.rows {
            text.push(format!("  {name:<34} {v:>10.1}"));
        }
        text.push(format!("  {:<34} {sum:>10.1}", "sum of layers"));
        text.push(format!("  {:<34} {:>10.1}", "measured", self.measured_ns));
        text.push(format!(
            "  {:<34} {residual:>10.1} ({pct:+.1}% of measured)",
            "residual"
        ));
    }
}

fn single_layers(
    sw: &SingleWorkload,
    round: &single::Round,
    seed: u64,
    spans: &mut Spans,
    m: &mut MetricSet,
    text: &mut Vec<String>,
) -> Ledger {
    let mut calls = spans.durations("core.malloc");
    let mut frees = spans.durations("core.free");
    let call_ns: u64 = calls.iter().sum::<u64>() + frees.iter().sum::<u64>();
    let n_calls = (calls.len() + frees.len()) as u64;
    m.set("core.malloc_ns_p50", quantile(&mut calls, 0.5));
    m.set("core.malloc_ns_p99", quantile(&mut calls, 0.99));
    m.set("core.free_ns_p50", quantile(&mut frees, 0.5));
    m.set("core.free_ns_p99", quantile(&mut frees, 0.99));
    let app = spans.durations("core.app");
    m.set(
        "core.app_ns_per_op",
        ratio(app.iter().sum(), app.len() as u64),
    );
    m.set("fleet.ns_per_op", 0.0);
    m.set("multicore.capture_s", 0.0);
    m.set("multicore.replay_s", 0.0);
    m.set("multicore.us_per_epoch", 0.0);

    let streams = spans.scope("bench.record", |_| sw.record(seed));
    let r = Redrives::run(&sw.functional_ops(seed), &streams, spans);
    r.set(m);

    // Counts, from the deterministic first round.
    let cells = &round.cells;
    let sum = |f: &dyn Fn(&single::CellStats) -> u64| cells.iter().map(f).sum::<u64>();
    let calls_total = round.summary.calls;
    let driver_uops = sum(&|c| c.measured_uops - c.app_uops);
    let uops_per_call = ratio(driver_uops, calls_total);
    m.set("core.calls", calls_total as f64);
    m.set("core.uops_per_call", uops_per_call);
    m.set(
        "core.mc_lookup_hit_rate",
        ratio(
            sum(&|c| c.mc.lookup_hits),
            sum(&|c| c.mc.lookup_hits + c.mc.lookup_misses),
        ),
    );
    m.set(
        "core.mc_pop_hit_rate",
        ratio(
            sum(&|c| c.mc.pop_hits),
            sum(&|c| c.mc.pop_hits + c.mc.pop_misses),
        ),
    );
    let uops = sum(&|c| c.uops);
    m.set("ooo-sim.uops", uops as f64);
    m.set("ooo-sim.loads", sum(&|c| c.loads) as f64);
    m.set("ooo-sim.ff_uop_share", ratio(sum(&|c| c.ff_uops), uops));
    m.set("ooo-sim.ipc", ratio(uops, sum(&|c| c.busy_cycles)));
    let l1 = sum(&|c| c.mem.0.hits + c.mem.0.misses);
    m.set("cache-sim.l1_accesses", l1 as f64);
    m.set(
        "cache-sim.l1_miss_rate",
        ratio(sum(&|c| c.mem.0.misses), l1),
    );
    m.set(
        "cache-sim.l2_miss_rate",
        ratio(
            sum(&|c| c.mem.1.misses),
            sum(&|c| c.mem.1.hits + c.mem.1.misses),
        ),
    );
    m.set(
        "cache-sim.l3_miss_rate",
        ratio(
            sum(&|c| c.mem.2.misses),
            sum(&|c| c.mem.2.hits + c.mem.2.misses),
        ),
    );
    m.set("cache-sim.tlb_walks", sum(&|c| c.tlb_walks) as f64);
    let tc = |f: &dyn Fn(&mallacc_tcmalloc::AllocStats) -> u64| {
        cells
            .iter()
            .filter_map(|c| c.tc.as_ref())
            .map(f)
            .sum::<u64>()
    };
    m.set(
        "tcmalloc.fast_hit_rate",
        ratio(tc(&|s| s.fast_hits), tc(&|s| s.mallocs)),
    );
    m.set(
        "tcmalloc.central_refills",
        tc(&|s| s.central_refills) as f64,
    );
    let enqueued = sum(&|c| c.offload.map_or(0, |o| o.enqueued));
    m.set("offload.enqueued", enqueued as f64);
    m.set(
        "offload.queue_full_stalls",
        sum(&|c| c.offload.map_or(0, |o| o.queue_full_stalls)) as f64,
    );
    m.set("multicore.epochs", 0.0);
    m.set("multicore.shared_l3_accesses", 0.0);
    m.set("multicore.steal_invalidates", 0.0);

    // Model accuracy: Mallacc over baseline, per (substrate, input).
    let mut pairs = Vec::new();
    for (i, cell) in sw.cells.iter().enumerate() {
        if !matches!(cell.mode, mallacc::Mode::Mallacc(_)) {
            continue;
        }
        let base = sw.cells.iter().position(|b| {
            b.substrate == cell.substrate
                && b.input == cell.input
                && matches!(b.mode, mallacc::Mode::Baseline)
        });
        if let Some(b) = base {
            pairs.push((cells[b].alloc_cycles, cells[i].alloc_cycles));
        }
    }
    let impr = improvement_pct(&pairs);
    m.set("model.alloc_improvement_pct", impr);
    if sw.sampling.is_none() {
        text.push(format!(
            "model accuracy: simulated Mallacc allocator-time improvement {impr:.1}% (geomean of {} workloads) vs the paper's Fig. 13 average {PAPER_FIG13_AVG_PCT:.0}%: difference {:+.1} points",
            pairs.len(),
            impr - PAPER_FIG13_AVG_PCT
        ));
    } else {
        text.push(format!(
            "model: simulated Mallacc allocator-time improvement {impr:.1}% (geomean of {} substrate x workload pairs); this sweep goes beyond the paper, so no reference exists",
            pairs.len()
        ));
    }

    // Ledger: functional model + engine (self) + cache + offload per call.
    let func_ns = cells
        .iter()
        .zip(&sw.cells)
        .map(|(c, spec)| {
            (c.mallocs + c.frees) as f64 * r.functional[substrate_index(spec.substrate)]
        })
        .sum::<f64>()
        / calls_total.max(1) as f64;
    let engine_ns = if sw.sampling.is_some() {
        r.engine_sampled
    } else {
        r.engine_full
    };
    let accesses_per_uop = ratio(streams.access_count(), streams.uops.len() as u64);
    let cache_per_call = uops_per_call * accesses_per_uop * r.cache;
    Ledger {
        rows: vec![
            ("functional model (re-drive)", func_ns),
            (
                "ooo-sim self (push minus cache)",
                uops_per_call * engine_ns - cache_per_call,
            ),
            ("cache-sim (accesses x ns)", cache_per_call),
            (
                "offload (enqueues x ns)",
                ratio(enqueued, calls_total) * r.offload,
            ),
        ],
        measured_ns: ratio(call_ns, n_calls),
        formula: "F + U x E + Q x O over the traced round's driver calls",
    }
}

fn fleet_layers(
    fw: &FleetWorkload,
    round: &fleet::Round,
    seed: u64,
    spans: &mut Spans,
    m: &mut MetricSet,
    text: &mut Vec<String>,
) -> (Ledger, u64) {
    for name in [
        "core.malloc_ns_p50",
        "core.malloc_ns_p99",
        "core.free_ns_p50",
        "core.free_ns_p99",
        "core.app_ns_per_op",
    ] {
        m.set(name, 0.0);
    }
    let inputs = fw.generate(seed);
    let violations = FleetWorkload::heap_check(&inputs);
    let run_stream_ns = spans.total_ns("multicore.run_stream") as f64;
    let capture_s = fw.capture_s(&inputs, spans);
    let (drain_s, drained) = fw.drain(seed, spans);
    m.set("fleet.ns_per_op", drain_s * 1e9 / drained.max(1) as f64);
    let (streams, recs) = spans.scope("bench.record", |_| fw.record(&inputs));
    let r = Redrives::run(&FleetWorkload::functional_ops(&inputs), &streams, spans);
    r.set(m);
    let epochs: u64 = round.cells.iter().map(|r| r.epochs).sum();
    let replay_s = (run_stream_ns / 1e9 - capture_s).max(0.0);
    m.set("multicore.capture_s", capture_s);
    m.set("multicore.replay_s", replay_s);
    m.set(
        "multicore.us_per_epoch",
        replay_s * 1e6 / epochs.max(1) as f64,
    );
    m.set("multicore.epochs", epochs as f64);
    m.set(
        "multicore.shared_l3_accesses",
        round
            .cells
            .iter()
            .map(|r| r.shared_l3_accesses)
            .sum::<u64>() as f64,
    );
    m.set(
        "multicore.steal_invalidates",
        round.cells.iter().map(|r| r.steal_invalidates).sum::<u64>() as f64,
    );

    // Counts.
    let rsum = |f: &dyn Fn(&Recorder) -> u64| recs.iter().map(f).sum::<u64>();
    let calls = round.summary.calls;
    let uops = rsum(&|r| r.retired);
    let driver_uops = rsum(&|r| r.call_uops);
    let uops_per_call = ratio(driver_uops, calls);
    m.set("core.calls", calls as f64);
    m.set("core.uops_per_call", uops_per_call);
    let mc = |f: &dyn Fn(&mallacc::MallocCacheStats) -> u64| {
        round
            .cells
            .iter()
            .flat_map(|r| &r.per_core)
            .map(|c| f(&c.mc))
            .sum::<u64>()
    };
    m.set(
        "core.mc_lookup_hit_rate",
        ratio(
            mc(&|s| s.lookup_hits),
            mc(&|s| s.lookup_hits + s.lookup_misses),
        ),
    );
    m.set(
        "core.mc_pop_hit_rate",
        ratio(mc(&|s| s.pop_hits), mc(&|s| s.pop_hits + s.pop_misses)),
    );
    m.set("ooo-sim.uops", uops as f64);
    m.set("ooo-sim.loads", rsum(&|r| r.loads) as f64);
    m.set("ooo-sim.ff_uop_share", 0.0);
    m.set(
        "ooo-sim.ipc",
        ratio(uops, rsum(&|r| r.last_commit.saturating_sub(r.skipped))),
    );
    let level = |i: usize| rsum(&|r| r.levels[i]);
    let l1 = level(0) + level(1) + level(2) + level(3);
    m.set("cache-sim.l1_accesses", l1 as f64);
    m.set("cache-sim.l1_miss_rate", ratio(l1 - level(0), l1));
    m.set(
        "cache-sim.l2_miss_rate",
        ratio(level(2) + level(3), l1 - level(0)),
    );
    m.set(
        "cache-sim.l3_miss_rate",
        ratio(level(3), level(2) + level(3)),
    );
    // Page walks are not observable through run_stream.
    m.set("cache-sim.tlb_walks", 0.0);
    let alloc = |f: &dyn Fn(&mallacc_tcmalloc::AllocStats) -> u64| {
        round.cells.iter().map(|r| f(&r.alloc)).sum::<u64>()
    };
    m.set(
        "tcmalloc.fast_hit_rate",
        ratio(alloc(&|s| s.fast_hits), alloc(&|s| s.mallocs)),
    );
    m.set(
        "tcmalloc.central_refills",
        alloc(&|s| s.central_refills) as f64,
    );
    m.set("offload.enqueued", 0.0);
    m.set("offload.queue_full_stalls", 0.0);

    let pairs: Vec<(u64, u64)> = round
        .cells
        .chunks(fw.modes.len())
        .map(|c| {
            (
                c[0].aggregate().allocator_cycles(),
                c[1].aggregate().allocator_cycles(),
            )
        })
        .collect();
    let impr = improvement_pct(&pairs);
    m.set("model.alloc_improvement_pct", impr);
    text.push(format!(
        "model: simulated Mallacc allocator-time improvement {impr:.1}% at {} cores (geomean of {} scenarios); fleet scenarios go beyond the paper, so no reference exists",
        fleet::CORES,
        pairs.len()
    ));

    // Ledger per simulated call: serial capture, then the driver µop work
    // split over the replay threads. As on a single core, app µops between
    // calls are left to the residual.
    let capture_ns = capture_s * 1e9 / calls.max(1) as f64;
    let accesses_per_uop = ratio(streams.access_count(), streams.uops.len() as u64);
    let per_thread = fleet::CORES as f64;
    let cache_per_call = uops_per_call * accesses_per_uop * r.cache / per_thread;
    (
        Ledger {
            rows: vec![
                ("multicore capture (serial)", capture_ns),
                (
                    "ooo-sim self (push minus cache) / 2",
                    uops_per_call * r.engine_full / per_thread - cache_per_call,
                ),
                ("cache-sim (accesses x ns) / 2", cache_per_call),
            ],
            measured_ns: run_stream_ns / calls.max(1) as f64,
            formula: "capture + U x E / 2 host threads over the traced round's run_stream calls",
        },
        violations,
    )
}
