//! The declarative parameter grid and its expansion into config points.

use crate::point::{AccelKind, ConfigPoint, RunScale, Substrate};
use mallacc::{SimMode, DEFAULT_QUEUE_DEPTH};
use mallacc_workloads::{AnyWorkload, Microbenchmark};

/// A declarative sweep specification: one value list per axis. The grid's
/// cross product, minus combinations the simulator stack cannot express,
/// is the set of [`ConfigPoint`]s a sweep executes.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGrid {
    /// Malloc-cache entry counts (the paper's Figure 17 axis).
    pub entries: Vec<usize>,
    /// Extra malloc-cache lookup latencies in cycles.
    pub extra_latency: Vec<u32>,
    /// Prefetch on/off.
    pub prefetch: Vec<bool>,
    /// Class-index keying on/off.
    pub index_opt: Vec<bool>,
    /// Sampling counter on/off.
    pub sampling: Vec<bool>,
    /// Accelerator kinds to pit against baseline.
    pub accel: Vec<AccelKind>,
    /// Offload request-queue depths (queue-using kinds only; collapsed
    /// to the default for `none`/`mallacc` points).
    pub queue_depth: Vec<usize>,
    /// Allocator substrates.
    pub substrates: Vec<Substrate>,
    /// Workload names (micro or macro).
    pub workloads: Vec<String>,
    /// Simulated core counts.
    pub cores: Vec<usize>,
    /// Timing execution modes (full detailed and/or sampled plans).
    pub sim: Vec<SimMode>,
    /// Base trace seed for every point.
    pub seed: u64,
    /// Run sizing for every point.
    pub scale: RunScale,
}

impl Default for ParamGrid {
    /// A single point: the paper's recommended configuration on
    /// `tp_small`. `--grid` overrides start from here.
    fn default() -> Self {
        Self {
            entries: vec![16],
            extra_latency: vec![0],
            prefetch: vec![true],
            index_opt: vec![true],
            sampling: vec![true],
            accel: vec![AccelKind::Mallacc],
            queue_depth: vec![DEFAULT_QUEUE_DEPTH],
            substrates: vec![Substrate::TcMalloc],
            workloads: vec!["tp_small".to_string()],
            cores: vec![1],
            sim: vec![SimMode::Full],
            seed: 0,
            scale: RunScale::full(),
        }
    }
}

impl ParamGrid {
    /// The two-point CI smoke grid.
    pub fn smoke() -> Self {
        Self {
            entries: vec![4, 16],
            scale: RunScale::quick(),
            ..Self::default()
        }
    }

    /// The micro-benchmark grid: the Figure 17 cache-size sweep (extended
    /// to 64 entries) over all six microbenchmarks.
    pub fn micro_entries() -> Self {
        Self {
            entries: vec![2, 4, 6, 8, 12, 16, 24, 32, 48, 64],
            workloads: Microbenchmark::ALL
                .iter()
                .map(|m| m.name().to_string())
                .collect(),
            ..Self::default()
        }
    }

    /// An entries-axis sweep over one named workload (the
    /// `cache_size_sweep` example's grid).
    pub fn entries_sweep(workload: &str) -> Self {
        Self {
            entries: vec![2, 4, 8, 12, 16, 24, 32, 48, 64],
            workloads: vec![workload.to_string()],
            ..Self::default()
        }
    }

    /// Parses a `--grid` spec: semicolon-separated `axis=v1,v2,…`
    /// overrides applied to the default single-point grid. Axes:
    /// `entries`, `xlat`, `prefetch`, `index`, `sampling` (`on`/`off`),
    /// `accel` (`none`/`mallacc`/`offload`/`both`), `qdepth` (offload
    /// queue depths), `substrate`
    /// (`tcmalloc`/`jemalloc`/`rpmalloc`/`percpu`), `workload`
    /// (names, the families `micro`/`macro`/`all`, the `fleet` family,
    /// or individual `fleet:NAME` scenarios), `cores`, `sim` (`full`,
    /// `sampled`, or `sampled:W:D:P[:S]` plans).
    pub fn parse(spec: &str) -> Result<ParamGrid, String> {
        let mut grid = ParamGrid::default();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (axis, values) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad grid clause {clause:?}: expected axis=v1,v2"))?;
            let values: Vec<&str> = values.split(',').map(str::trim).collect();
            let parse_usizes = || -> Result<Vec<usize>, String> {
                values
                    .iter()
                    .map(|v| {
                        v.parse::<usize>()
                            .map_err(|_| format!("bad {axis} value {v:?}"))
                    })
                    .collect()
            };
            let parse_bools = || -> Result<Vec<bool>, String> {
                values
                    .iter()
                    .map(|v| match *v {
                        "on" | "true" | "1" => Ok(true),
                        "off" | "false" | "0" => Ok(false),
                        _ => Err(format!("bad {axis} value {v:?}: use on/off")),
                    })
                    .collect()
            };
            match axis.trim() {
                "entries" => {
                    grid.entries = parse_usizes()?;
                    if grid.entries.iter().any(|&n| n == 0 || n > 64) {
                        return Err("entries must be in 1..=64".to_string());
                    }
                }
                "xlat" => {
                    grid.extra_latency = values
                        .iter()
                        .map(|v| {
                            v.parse::<u32>()
                                .map_err(|_| format!("bad xlat value {v:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "prefetch" => grid.prefetch = parse_bools()?,
                "index" => grid.index_opt = parse_bools()?,
                "sampling" => grid.sampling = parse_bools()?,
                "accel" => {
                    grid.accel = values
                        .iter()
                        .map(|v| {
                            AccelKind::by_name(v).ok_or_else(|| {
                                format!("bad accel {v:?}: use none/mallacc/offload/both")
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "qdepth" => {
                    grid.queue_depth = parse_usizes()?;
                    if grid.queue_depth.iter().any(|&d| d == 0 || d > 64) {
                        return Err("qdepth must be in 1..=64".to_string());
                    }
                }
                "substrate" => {
                    grid.substrates = values
                        .iter()
                        .map(|v| {
                            Substrate::by_name(v).ok_or_else(|| format!("bad substrate {v:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "workload" => {
                    let mut names = Vec::new();
                    for v in &values {
                        match *v {
                            "micro" => names
                                .extend(Microbenchmark::ALL.iter().map(|m| m.name().to_string())),
                            "macro" => names.extend(
                                mallacc_workloads::MacroWorkload::all()
                                    .iter()
                                    .map(|w| w.name.to_string()),
                            ),
                            "all" => {
                                names.extend(AnyWorkload::all_names().iter().map(|n| n.to_string()))
                            }
                            "fleet" => names.extend(
                                mallacc_fleet::Scenario::all()
                                    .iter()
                                    .map(|s| format!("fleet:{}", s.name)),
                            ),
                            name => names.push(name.to_string()),
                        }
                    }
                    grid.workloads = names;
                }
                "cores" => {
                    grid.cores = parse_usizes()?;
                    if grid.cores.iter().any(|&c| c == 0 || c > 64) {
                        return Err("cores must be in 1..=64".to_string());
                    }
                }
                "sim" => {
                    grid.sim = values
                        .iter()
                        .map(|v| SimMode::parse(v))
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown grid axis {other:?}")),
            }
        }
        Ok(grid)
    }

    /// Workload names in the grid that resolve to no suite: neither a
    /// micro/macro workload nor a `fleet:NAME` scenario.
    pub fn unknown_workloads(&self) -> Vec<String> {
        self.workloads
            .iter()
            .filter(|n| match n.strip_prefix("fleet:") {
                Some(scenario) => mallacc_fleet::Scenario::by_name(scenario).is_none(),
                None => AnyWorkload::by_name(n).is_none(),
            })
            .cloned()
            .collect()
    }

    /// Expands the grid into configuration points, in a deterministic
    /// order (workload-major, then substrate, cores, accel, queue depth,
    /// entries, latency, index, prefetch, sampling, sim mode).
    ///
    /// Combinations the simulator stack cannot express are skipped:
    /// multi-core microbenchmark points (microbenchmarks have no
    /// multi-threaded trace generator). Every substrate runs every
    /// accelerator kind, fleet scenario, and macro multi-core point, all
    /// on the shared-heap multi-core simulator. The queue-depth axis is
    /// collapsed to the default for kinds that have no queue, so a
    /// `qdepth` sweep does not duplicate `none`/`mallacc` points.
    pub fn expand(&self) -> Vec<ConfigPoint> {
        let mut points = Vec::new();
        for workload in &self.workloads {
            let is_micro = AnyWorkload::by_name(workload).is_some_and(|w| w.is_micro());
            let is_fleet = workload.starts_with("fleet:");
            for &substrate in &self.substrates {
                for &cores in &self.cores {
                    if cores > 1 && !is_fleet && is_micro {
                        continue;
                    }
                    for &accel in &self.accel {
                        let default_depth = [DEFAULT_QUEUE_DEPTH];
                        let depths: &[usize] = if accel.uses_queue() {
                            &self.queue_depth
                        } else {
                            &default_depth
                        };
                        for &queue_depth in depths {
                            for &entries in &self.entries {
                                for &extra_latency in &self.extra_latency {
                                    for &index_opt in &self.index_opt {
                                        for &prefetch in &self.prefetch {
                                            for &sampling in &self.sampling {
                                                for &sim in &self.sim {
                                                    points.push(ConfigPoint {
                                                        entries,
                                                        extra_latency,
                                                        prefetch,
                                                        index_opt,
                                                        sampling,
                                                        accel,
                                                        queue_depth,
                                                        substrate,
                                                        workload: workload.clone(),
                                                        cores,
                                                        seed: self.seed,
                                                        scale: self.scale,
                                                        sim,
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_one_point() {
        let pts = ParamGrid::default().expand();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].entries, 16);
        assert_eq!(pts[0].workload, "tp_small");
    }

    #[test]
    fn smoke_grid_is_two_points() {
        assert_eq!(ParamGrid::smoke().expand().len(), 2);
    }

    #[test]
    fn parse_overrides_named_axes_only() {
        let g = ParamGrid::parse("entries=2,4,8;prefetch=on,off").unwrap();
        assert_eq!(g.entries, vec![2, 4, 8]);
        assert_eq!(g.prefetch, vec![true, false]);
        assert_eq!(g.workloads, vec!["tp_small".to_string()]);
        assert_eq!(g.expand().len(), 6);
    }

    #[test]
    fn parse_expands_workload_families() {
        let g = ParamGrid::parse("workload=micro").unwrap();
        assert_eq!(g.workloads.len(), 6);
        let g = ParamGrid::parse("workload=all").unwrap();
        assert_eq!(g.workloads.len(), 14);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "entries=0",
            "entries=128",
            "nope=1",
            "prefetch=maybe",
            "substrate=dlmalloc",
            "cores=0",
            "cores=65",
            "accel=warp",
            "qdepth=0",
            "qdepth=128",
            "entries",
            "sim=fast",
            "sim=sampled:512:0:8192",
        ] {
            assert!(ParamGrid::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_the_lifted_core_cap() {
        let g = ParamGrid::parse("cores=1,32,64").unwrap();
        assert_eq!(g.cores, vec![1, 32, 64]);
    }

    #[test]
    fn accel_axis_parses_and_qdepth_collapses_for_cacheless_kinds() {
        let g = ParamGrid::parse("accel=none,mallacc,offload,both;qdepth=4,16").unwrap();
        assert_eq!(g.accel.len(), 4);
        let pts = g.expand();
        // none and mallacc take one point each (qdepth pinned to the
        // default); offload and both sweep both depths.
        assert_eq!(pts.len(), 1 + 1 + 2 + 2);
        for p in &pts {
            if p.accel.uses_queue() {
                assert!(p.queue_depth == 4 || p.queue_depth == 16);
            } else {
                assert_eq!(p.queue_depth, mallacc::DEFAULT_QUEUE_DEPTH);
            }
        }
    }

    #[test]
    fn offload_kinds_run_on_every_substrate() {
        let g =
            ParamGrid::parse("accel=mallacc,offload;substrate=tcmalloc,jemalloc,rpmalloc,percpu")
                .unwrap();
        let pts = g.expand();
        // Full cross product: 2 accel kinds × 4 substrates.
        assert_eq!(pts.len(), 8);
        for &substrate in &Substrate::ALL {
            assert!(pts
                .iter()
                .any(|p| p.accel.uses_queue() && p.substrate == substrate));
        }
    }

    #[test]
    fn expand_skips_inexpressible_multicore_combos() {
        let g = ParamGrid::parse(
            "workload=tp_small,483.xalancbmk;substrate=tcmalloc,jemalloc;cores=1,4",
        )
        .unwrap();
        let pts = g.expand();
        // tp_small (micro): single-core only, both substrates. xalancbmk:
        // both substrates × both core counts (jemalloc shards per core).
        assert_eq!(pts.len(), 6);
        assert!(pts
            .iter()
            .all(|p| p.cores == 1 || p.workload == "483.xalancbmk"));
    }

    #[test]
    fn unknown_workloads_are_reported() {
        let g = ParamGrid::parse("workload=tp_small,bogus").unwrap();
        assert_eq!(g.unknown_workloads(), vec!["bogus".to_string()]);
    }

    #[test]
    fn fleet_family_expands_to_prefixed_scenarios() {
        let g = ParamGrid::parse("workload=fleet").unwrap();
        assert_eq!(g.workloads.len(), mallacc_fleet::Scenario::all().len());
        assert!(g.workloads.iter().all(|w| w.starts_with("fleet:")));
        assert!(g.unknown_workloads().is_empty());
        assert_eq!(
            ParamGrid::parse("workload=fleet:bogus")
                .unwrap()
                .unknown_workloads(),
            vec!["fleet:bogus".to_string()]
        );
    }

    #[test]
    fn fleet_points_expand_on_every_substrate() {
        let g =
            ParamGrid::parse("workload=fleet:rpc-fanout;substrate=tcmalloc,jemalloc;cores=1,4,16")
                .unwrap();
        let pts = g.expand();
        // Both substrates survive at every core count.
        assert_eq!(pts.len(), 6);
        for &substrate in &[Substrate::TcMalloc, Substrate::JeMalloc] {
            assert_eq!(
                pts.iter()
                    .filter(|p| p.substrate == substrate)
                    .map(|p| p.cores)
                    .collect::<Vec<_>>(),
                vec![1, 4, 16]
            );
        }
    }
}
