//! Per-component cycle attribution through every substrate's driver.
//!
//! A profiler attached to any driver must see each fast-path call split
//! into its prologue/epilogue, size-class, sampling and list-operation
//! components, with the sampling countdown taking only its own few µops
//! and the accelerated components shrinking under Mallacc.

use mallacc::{Component, Mode};
use mallacc_prof::Profiler;
use mallacc_substrate::{AnySim, SubstrateKind};

/// Cycles per component over every `malloc_fast` call of a warm run of
/// malloc/free pairs rotating over four size classes.
fn fast_malloc_split(kind: SubstrateKind, mode: Mode) -> [u64; Component::COUNT] {
    let mut sim = AnySim::new(kind, mode);
    let pairs = |sim: &mut AnySim, n: u64| {
        for i in 0..n {
            let ptr = sim.malloc(32 + (i % 4) * 32).ptr;
            sim.free(ptr, true);
        }
    };
    pairs(&mut sim, 100);
    sim.attach_tracer(Box::new(Profiler::new(0)));
    pairs(&mut sim, 400);
    let prof = Profiler::from_sink(sim.detach_tracer().expect("attached")).expect("a profiler");
    assert_eq!(prof.conservation_violations(), 0, "{kind:?}/{mode:?}");
    prof.aggregates()
        .iter()
        .find(|a| a.name == "malloc_fast")
        .unwrap_or_else(|| panic!("{kind:?}/{mode:?}: no fast mallocs"))
        .components
}

#[test]
fn every_driver_splits_fast_mallocs_by_component() {
    for kind in SubstrateKind::ALL {
        let base = fast_malloc_split(kind, Mode::Baseline);
        let accel = fast_malloc_split(kind, Mode::mallacc_default());
        for (mode, split) in [("baseline", base), ("mallacc", accel)] {
            let total: u64 = split.iter().sum();
            let at = |c: Component| split[c.index()];
            assert!(at(Component::Overhead) > 0, "{kind:?}/{mode}: {split:?}");
            assert!(at(Component::ListOp) > 0, "{kind:?}/{mode}: {split:?}");
            assert!(
                at(Component::Sampling) * 4 < total,
                "{kind:?}/{mode}: sampling dominates {split:?}"
            );
            assert_eq!(at(Component::Offload), 0, "{kind:?}/{mode}");
        }
        let (sc, smp) = (Component::SizeClass.index(), Component::Sampling.index());
        assert!(base[sc] > 0, "{kind:?}: baseline size class {base:?}");
        assert!(accel[sc] <= base[sc], "{kind:?}: {base:?} -> {accel:?}");
        // rpmalloc has no sampler; the others count down in software until
        // the dedicated counter takes the µops off the fast path.
        assert_eq!(base[smp] > 0, kind != SubstrateKind::Rpmalloc, "{kind:?}");
        assert_eq!(accel[smp], 0, "{kind:?}: {accel:?}");
    }
}
