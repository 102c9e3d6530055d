//! Property suite over sampled execution: for arbitrary seeds ×
//! workloads × cadences, sampling never perturbs functional state, the
//! sampled clock stays inside the error the run itself claims (or the
//! fixed differential band), degenerate plans are the identity on the
//! full detailed run, and the `repro sample` report is byte-identical
//! for every `--jobs` value.
//!
//! Cadences come from the shared
//! [`mallacc_test_support::arb_sampling_plan`] generator, so this suite
//! draws from the same plan distribution as the generator's own unit
//! tests and the sweep-point strategies.

use proptest::prelude::*;

use mallacc::{MallocSim, Mode, SamplingPlan};
use mallacc_bench::sample_cli::{sample_report, SampleArgs};
use mallacc_stats::{mean_ci95, tol};
use mallacc_test_support::arb_sampling_plan;
use mallacc_workloads::{AnyWorkload, MacroWorkload};

/// One run of `workload` under `mode`, optionally sampled: attributed
/// cycles, execution stats, malloc/free call counts, and (when sampled)
/// the run's own CI95 over window CPIs.
struct RunOutcome {
    cycles: u64,
    stats: mallacc_ooo::CoreStats,
    malloc_calls: u64,
    free_calls: u64,
    ci95_rel: Option<f64>,
}

fn run_workload(
    workload: &MacroWorkload,
    mallocs: usize,
    seed: u64,
    mode: Mode,
    plan: Option<SamplingPlan>,
) -> RunOutcome {
    let trace = AnyWorkload::by_name(workload.name)
        .expect("macro workloads are always resolvable")
        .trace(mallocs, seed);
    let mut sim = MallocSim::new(mode);
    sim.set_sampling(plan);
    trace.replay(&mut sim);
    let ci95_rel = sim.sampling_report().map(|r| {
        let ci = mean_ci95(&r.window_cpis());
        ci.relative()
    });
    RunOutcome {
        cycles: sim.cpi_stack().total(),
        stats: sim.engine().stats(),
        malloc_calls: sim.totals().malloc_calls,
        free_calls: sim.totals().free_calls,
        ci95_rel,
    }
}

/// Strategy: a (workload, mode, mallocs, seed) tuple small enough that a
/// property case simulates in milliseconds even unoptimized.
fn arb_run() -> impl Strategy<Value = (usize, bool, usize, u64)> {
    let n = MacroWorkload::all().len();
    (0..n, any::<bool>(), 150usize..500, any::<u64>())
}

fn mode_of(accel: bool) -> Mode {
    if accel {
        Mode::mallacc_default()
    } else {
        Mode::Baseline
    }
}

/// Conditions an arbitrary generated plan into one whose error estimate
/// is statistically meaningful on a trace of `uops` µops: at least 96
/// warmup µops per window (below that the post-fast-forward pipeline
/// transient dominates the window) and at least ~6 measured windows (a
/// Student-t interval over fewer windows is too noisy to be a usable
/// error claim). The same conditioning the validation crate's
/// sampled-differential fuzzer applies to its drawn plans.
fn conditioned(plan: SamplingPlan, uops: u64) -> SamplingPlan {
    let warmup = plan.warmup_uops.max(96);
    let detailed = plan.detailed_uops.max(96);
    let window = warmup + detailed;
    let period = plan.period.max(window).min((uops / 6).max(window));
    SamplingPlan::new(warmup, detailed, period)
        .expect("conditioned plan keeps a non-empty window and period")
        .with_startup(plan.startup_uops.min(period))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sampling is a pure timing-fidelity axis: under *any* cadence —
    /// including aggressive ones whose timing error would be large —
    /// the µop mix, memory-op counts, branch outcomes and allocator
    /// call counts are bit-identical to the full detailed run.
    #[test]
    fn sampling_never_perturbs_functional_state(
        run in arb_run(),
        plan in arb_sampling_plan(),
    ) {
        let (w, accel, mallocs, seed) = run;
        let workload = &MacroWorkload::all()[w];
        let full = run_workload(workload, mallocs, seed, mode_of(accel), None);
        let sampled = run_workload(workload, mallocs, seed, mode_of(accel), Some(plan));
        prop_assert_eq!(full.stats, sampled.stats, "µop stats drifted under sampling");
        prop_assert_eq!(full.malloc_calls, sampled.malloc_calls);
        prop_assert_eq!(full.free_calls, sampled.free_calls);
    }

    /// A degenerate plan (warmup + window covers the whole period, so
    /// nothing is ever fast-forwarded) reproduces the full detailed run
    /// exactly — same clock, cycle for cycle. Every generated plan is
    /// collapsed to its degenerate counterpart; plans the generator
    /// already drew degenerate must also be exact as-is.
    #[test]
    fn degenerate_plans_reproduce_the_full_run_exactly(
        run in arb_run(),
        plan in arb_sampling_plan(),
    ) {
        let (w, accel, mallocs, seed) = run;
        let workload = &MacroWorkload::all()[w];
        let full = run_workload(workload, mallocs, seed, mode_of(accel), None);

        let degenerate = SamplingPlan::new(plan.warmup_uops, plan.period, plan.period)
            .expect("window and period stay non-zero");
        let run = run_workload(workload, mallocs, seed, mode_of(accel), Some(degenerate));
        prop_assert_eq!(full.cycles, run.cycles, "degenerate plan changed the clock");
        prop_assert_eq!(full.stats, run.stats);

        if plan.is_degenerate() {
            let as_is = run_workload(workload, mallocs, seed, mode_of(accel), Some(plan));
            prop_assert_eq!(full.cycles, as_is.cycles, "drawn degenerate plan changed the clock");
        }
    }

    /// The oracle-bounded accuracy property: under any statistically
    /// meaningful cadence, the sampled clock lands inside the fixed
    /// differential band (±10% + 64 cycles) **or** inside the error the
    /// sampled run itself claims via its window-CPI CI95. What must
    /// never happen is a miss the run did not predict.
    #[test]
    fn sampled_cpi_stays_inside_its_own_error_claim(
        run in arb_run(),
        plan in arb_sampling_plan(),
    ) {
        let (w, accel, mallocs, seed) = run;
        let workload = &MacroWorkload::all()[w];
        let mode = mode_of(accel);
        let full = run_workload(workload, mallocs, seed, mode, None);
        let plan = conditioned(plan, full.stats.uops);
        let sampled = run_workload(workload, mallocs, seed, mode, Some(plan));

        let error_pct = if full.cycles == 0 {
            0.0
        } else {
            100.0 * (sampled.cycles as f64 - full.cycles as f64) / full.cycles as f64
        };
        let in_band = tol::within_band(
            full.cycles as f64,
            sampled.cycles as f64,
            tol::SAMPLED_DIFF_REL_TOL,
            tol::SAMPLED_DIFF_ABS_TOL_CYCLES,
        );
        let within_ci = sampled
            .ci95_rel
            .is_some_and(|rel| error_pct.abs() <= 100.0 * rel);
        prop_assert!(
            in_band || within_ci,
            "unpredicted sampling error on {} ({mode:?}, mallocs={mallocs}, seed={seed}): \
             plan {} missed by {error_pct:+.2}% with ci95 ±{:.2}%",
            workload.name,
            plan.canonical_string(),
            100.0 * sampled.ci95_rel.unwrap_or(0.0),
        );
    }
}

proptest! {
    // Each case runs the full 2-mode report for one workload at two jobs
    // values; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The `repro sample` report is a pure function of its arguments:
    /// re-running it changes nothing, and neither does the `--jobs`
    /// value — rows are computed as pure functions of their index, so
    /// parallel and sequential schedules must agree byte for byte.
    #[test]
    fn sample_reports_are_deterministic_and_jobs_invariant(
        w in 0..MacroWorkload::all().len(),
        mallocs in 200usize..600,
        seed in any::<u64>(),
    ) {
        let args = |jobs| SampleArgs {
            workloads: vec![MacroWorkload::all()[w].name.to_string()],
            mallocs,
            seed,
            jobs,
            ..SampleArgs::default()
        };
        let seq = sample_report(&args(1));
        let rerun = sample_report(&args(1));
        let par = sample_report(&args(3));
        prop_assert_eq!(seq.pass, rerun.pass, "verdict drifted across reruns");
        prop_assert_eq!(&seq.text, &rerun.text, "report drifted across reruns");
        prop_assert_eq!(seq.pass, par.pass, "verdict depends on --jobs");
        prop_assert_eq!(&seq.text, &par.text, "--jobs changed a report byte");
    }
}
