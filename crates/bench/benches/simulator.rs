//! Criterion benchmarks of the simulation substrate itself: how fast the
//! reproduction simulates. Useful for spotting regressions in the hot
//! per-call paths (functional allocator, µop engine, malloc cache).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mallacc::{MallocCache, MallocCacheConfig, MallocSim, Mode};
use mallacc_cache::{AccessKind, Hierarchy};
use mallacc_ooo::{CoreConfig, Engine, Uop};
use mallacc_tcmalloc::TcMalloc;

fn cache_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("layer/cache");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("l1_hit_access", |b| {
        let mut h = Hierarchy::default();
        for i in 0..64u64 {
            h.warm(i * 64);
        }
        b.iter(|| {
            for i in 0..1024u64 {
                h.access((i % 64) * 64, AccessKind::Read);
            }
        })
    });
    g.bench_function("striding_misses", |b| {
        let mut h = Hierarchy::default();
        let mut cursor = 0u64;
        b.iter(|| {
            for _ in 0..1024u64 {
                h.access(cursor, AccessKind::Read);
                cursor += 64;
            }
        })
    });
    g.finish();
}

fn ooo_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("layer/ooo");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("alu_uop_push", |b| {
        let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
        b.iter(|| {
            for _ in 0..1024 {
                let d = cpu.alloc_reg();
                cpu.push(Uop::alu(1, Some(d), &[]));
            }
        })
    });
    g.bench_function("load_uop_push", |b| {
        let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
        for i in 0..64u64 {
            cpu.mem_mut().warm(i * 64);
        }
        b.iter(|| {
            for i in 0..1024u64 {
                let d = cpu.alloc_reg();
                cpu.push(Uop::load((i % 64) * 64, d, &[]));
            }
        })
    });
    g.finish();
}

fn functional_allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("layer/tcmalloc");
    g.throughput(Throughput::Elements(256));
    g.bench_function("malloc_free_pair", |b| {
        let mut a = TcMalloc::default();
        b.iter(|| {
            for i in 0..256u64 {
                let o = a.malloc(16 + (i % 16) * 8);
                a.free(o.ptr, true);
            }
        })
    });
    g.finish();
}

fn malloc_cache_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("layer/malloc_cache");
    g.throughput(Throughput::Elements(256));
    g.bench_function("lookup_hit", |b| {
        let mut mc = MallocCache::new(MallocCacheConfig::paper_default());
        mc.update(64, 64, 9);
        b.iter(|| {
            for i in 0..256 {
                let _ = mc.lookup(64, i);
            }
        })
    });
    g.bench_function("push_pop_cycle", |b| {
        let mut mc = MallocCache::new(MallocCacheConfig::paper_default());
        mc.update(64, 64, 9);
        b.iter(|| {
            for i in 0..256u64 {
                mc.push(9, 0x1000 + i * 64, i);
                mc.push(9, 0x9000 + i * 64, i);
                let _ = mc.pop(9, i);
            }
        })
    });
    g.finish();
}

fn end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulated_calls");
    g.throughput(Throughput::Elements(256));
    for (name, mode) in [
        ("baseline", Mode::Baseline),
        ("mallacc", Mode::mallacc_default()),
        ("limit", Mode::limit_all()),
    ] {
        g.bench_function(name, |b| {
            let mut sim = MallocSim::new(mode);
            for i in 0..200u64 {
                let r = sim.malloc(32 + (i % 4) * 32);
                sim.free(r.ptr, true);
            }
            b.iter(|| {
                for i in 0..256u64 {
                    let r = sim.malloc(32 + (i % 4) * 32);
                    sim.free(r.ptr, true);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    cache_hierarchy,
    ooo_engine,
    functional_allocator,
    malloc_cache_ops,
    end_to_end
);
criterion_main!(benches);
