//! Simulation modes: baseline, Mallacc, allocation offload, and the
//! paper's limit studies.

use mallacc_offload::OffloadConfig;
use mallacc_ooo::SamplingPlan;

use crate::malloc_cache::MallocCacheConfig;

/// Version of the simulation code model, for memoisation keys.
///
/// Bump this whenever a change alters *simulated numbers* (timing model,
/// allocator model, workload generators) so that memoised design-space
/// results from older binaries are invalidated rather than silently
/// reused. Purely additive or cosmetic changes keep the version.
pub const CODE_MODEL_VERSION: u32 = 3;

/// Which Mallacc optimisations are enabled (§4).
///
/// The paper's headline configuration enables all four; the per-component
/// bars of Figure 4 and the ablations of §6.2 toggle subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelConfig {
    /// Malloc cache geometry.
    pub cache: MallocCacheConfig,
    /// `mcszlookup`/`mcszupdate`: accelerate size-class computation.
    pub size_class_opt: bool,
    /// `mchdpop`/`mchdpush`: cache the free-list head and next.
    pub list_opt: bool,
    /// Dedicate a performance counter to sampling (§4.2).
    pub sampling_opt: bool,
    /// Issue `mcnxtprefetch` after pops to keep `Next` warm.
    pub prefetch: bool,
}

impl AccelConfig {
    /// The paper's full configuration with the default 16-entry cache.
    pub fn paper_default() -> Self {
        Self {
            cache: MallocCacheConfig::paper_default(),
            size_class_opt: true,
            list_opt: true,
            sampling_opt: true,
            prefetch: true,
        }
    }

    /// Full configuration with an `entries`-entry malloc cache (the
    /// Figure 17 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn with_entries(entries: usize) -> Self {
        let mut c = Self::paper_default();
        c.cache.entries = entries;
        c
    }

    /// True when any optimisation needs malloc-cache entries to exist.
    pub fn needs_cache(&self) -> bool {
        self.size_class_opt || self.list_opt
    }

    /// A canonical, stable textual form of the full accelerator
    /// configuration — one axis per `key=value` pair. Two configs map to
    /// the same string iff they are equal, so the string (together with
    /// [`CODE_MODEL_VERSION`]) is a sound memoisation key component.
    pub fn canonical_string(&self) -> String {
        format!(
            "{};szclass={};list={};sampling={};prefetch={}",
            self.cache.canonical_string(),
            u8::from(self.size_class_opt),
            u8::from(self.list_opt),
            u8::from(self.sampling_opt),
            u8::from(self.prefetch)
        )
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Which fast-path components a limit study removes from performance
/// simulation (§5: "the instructions comprising the three steps from
/// Section 3.3 are simply ignored").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LimitRemove {
    /// Remove the size-class computation µops.
    pub size_class: bool,
    /// Remove the sampling µops.
    pub sampling: bool,
    /// Remove the free-list push/pop µops.
    pub push_pop: bool,
}

impl LimitRemove {
    /// Remove all three components — the paper's "Combined"/limit bars.
    pub fn all() -> Self {
        Self {
            size_class: true,
            sampling: true,
            push_pop: true,
        }
    }
}

/// The simulated machine variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The unmodified out-of-order core running stock TCMalloc.
    Baseline,
    /// The core augmented with Mallacc.
    Mallacc(AccelConfig),
    /// An idealised upper bound: the selected component µops vanish.
    Limit(LimitRemove),
    /// Allocation offload: malloc/free retire on a SpeedMalloc-style
    /// helper core behind a bounded queue while the main core speculates
    /// past the result. Functionally identical to baseline — only timing
    /// changes.
    Offload(OffloadConfig),
}

impl Mode {
    /// The paper's headline accelerated configuration.
    pub fn mallacc_default() -> Self {
        Mode::Mallacc(AccelConfig::paper_default())
    }

    /// The paper's full limit study.
    pub fn limit_all() -> Self {
        Mode::Limit(LimitRemove::all())
    }

    /// The SpeedMalloc-style offload reference configuration.
    pub fn offload_default() -> Self {
        Mode::Offload(OffloadConfig::speedmalloc_default())
    }

    /// Offload with a malloc-cache-equipped helper (the combined design).
    pub fn offload_both() -> Self {
        Mode::Offload(OffloadConfig::both_default())
    }
}

/// How the timing engine executes the µop stream: every µop through the
/// detailed pipeline model, or SMARTS-style sampled with detailed windows
/// and extrapolated fast-forward regions.
///
/// Sampling is a pure timing-fidelity axis: functional state (heap,
/// malloc-cache contents, branch history) is identical in both modes, so a
/// sampled run allocates the exact same objects as a full run and only its
/// cycle numbers carry sampling error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Detailed simulation of every µop.
    #[default]
    Full,
    /// Sampled simulation under the given cadence.
    Sampled(SamplingPlan),
}

impl SimMode {
    /// Sampled mode with the default plan.
    pub fn sampled_default() -> Self {
        SimMode::Sampled(SamplingPlan::default_plan())
    }

    /// The sampling plan to install on an engine (`None` for full runs).
    pub fn plan(&self) -> Option<SamplingPlan> {
        match self {
            SimMode::Full => None,
            SimMode::Sampled(p) => Some(*p),
        }
    }

    /// Parses `"full"`, `"sampled"` (default plan) or
    /// `"sampled:<warmup>:<detailed>:<period>[:<startup>]"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let s = spec.trim();
        if s == "full" {
            return Ok(SimMode::Full);
        }
        if s == "sampled" {
            return Ok(SimMode::sampled_default());
        }
        if let Some(plan) = s.strip_prefix("sampled:") {
            return Ok(SimMode::Sampled(SamplingPlan::parse(plan)?));
        }
        Err(format!(
            "bad sim mode {spec:?}: use full, sampled, or sampled:<warmup>:<detailed>:<period>"
        ))
    }

    /// Canonical, stable textual form (`full` / `sampled:W:D:P[:S]`);
    /// [`SimMode::parse`] round-trips it. Injective, so it is a sound
    /// memoisation key component.
    pub fn canonical_string(&self) -> String {
        match self {
            SimMode::Full => "full".to_string(),
            SimMode::Sampled(p) => format!("sampled:{}", p.canonical_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let a = AccelConfig::paper_default();
        assert!(a.size_class_opt && a.list_opt && a.sampling_opt && a.prefetch);
        assert_eq!(a.cache.entries, 16);
        assert!(a.needs_cache());
    }

    #[test]
    fn with_entries_overrides_only_size() {
        let a = AccelConfig::with_entries(4);
        assert_eq!(a.cache.entries, 4);
        assert!(a.prefetch);
    }

    #[test]
    fn canonical_string_is_injective_over_the_flag_axes() {
        let base = AccelConfig::paper_default();
        let mut seen = std::collections::HashSet::new();
        for bits in 0u8..16 {
            let cfg = AccelConfig {
                size_class_opt: bits & 1 != 0,
                list_opt: bits & 2 != 0,
                sampling_opt: bits & 4 != 0,
                prefetch: bits & 8 != 0,
                ..base
            };
            assert!(seen.insert(cfg.canonical_string()), "collision at {bits}");
        }
    }

    #[test]
    fn sim_mode_parses_and_round_trips() {
        assert_eq!(SimMode::parse("full").unwrap(), SimMode::Full);
        assert_eq!(SimMode::default(), SimMode::Full);
        assert_eq!(
            SimMode::parse("sampled").unwrap(),
            SimMode::sampled_default()
        );
        let m = SimMode::parse("sampled:64:256:4096").unwrap();
        match m {
            SimMode::Sampled(p) => {
                assert_eq!((p.warmup_uops, p.detailed_uops, p.period), (64, 256, 4096));
                assert_eq!(p.startup_uops, 4096);
            }
            SimMode::Full => panic!("expected sampled"),
        }
        for mode in [SimMode::Full, SimMode::sampled_default(), m] {
            assert_eq!(SimMode::parse(&mode.canonical_string()).unwrap(), mode);
        }
        assert!(SimMode::parse("sampled:1:2").is_err());
        assert!(SimMode::parse("fast").is_err());
        assert_eq!(SimMode::Full.plan(), None);
        assert!(m.plan().is_some());
    }

    #[test]
    fn limit_all_removes_all() {
        let l = LimitRemove::all();
        assert!(l.size_class && l.sampling && l.push_pop);
        assert_eq!(
            LimitRemove::default(),
            LimitRemove {
                size_class: false,
                sampling: false,
                push_pop: false
            }
        );
    }
}
