//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **pair pruning** (§4.3.1 "compose only participants that exchange
//!   traffic") vs. the naive quadratic cross product;
//! * **memoization** of raw policy compilations vs. recompiling;
//! * **FEC grouping** (§4.2 VNH/VMAC compression) vs. one group per
//!   prefix — measured in both time and resulting rule count;
//! * **two-stage incremental** (§4.3.2 fast path) vs. a full pipeline
//!   re-run per update.
//!
//! Every timed compile starts with the phase-A shard cache cleared, so it
//! is a from-scratch run rather than a replay of cached units.

use criterion::{criterion_group, criterion_main, Criterion};
use sdx_bench::Workbench;
use sdx_core::vnh::VnhAllocator;
use sdx_net::Prefix;

fn ablation_pair_pruning(c: &mut Criterion) {
    // The optimization targets the *composition* step specifically, so the
    // bench times `compose_time` (via iter_custom) rather than the whole
    // pipeline — VNH computation would otherwise bury the difference.
    let mut g = c.benchmark_group("ablation_pair_pruning_compose");
    g.sample_size(10);
    let wb = Workbench::new(100, 10_000, 6400, 21);
    g.bench_function("optimized", |b| {
        let mut compiler = wb.compiler();
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                compiler.clear_shard_cache();
                let mut vnh = VnhAllocator::default();
                let r = compiler.compile_all(&wb.rs, &mut vnh).expect("compiles");
                total += r.stats.compose_time;
            }
            total
        })
    });
    g.bench_function("naive_cross_product", |b| {
        let mut compiler = wb.compiler();
        compiler.options.pair_pruning = false;
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                compiler.clear_shard_cache();
                let mut vnh = VnhAllocator::default();
                let r = compiler.compile_all(&wb.rs, &mut vnh).expect("compiles");
                total += r.stats.compose_time;
            }
            total
        })
    });
    g.finish();
}

fn ablation_memoization(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_memoization");
    g.sample_size(10);
    let wb = Workbench::new(100, 10_000, 6400, 22);
    g.bench_function("memoized", |b| {
        let mut compiler = wb.compiler();
        b.iter(|| {
            compiler.clear_shard_cache();
            let mut vnh = VnhAllocator::default();
            compiler.compile_all(&wb.rs, &mut vnh).expect("compiles")
        })
    });
    g.bench_function("no_memo", |b| {
        let mut compiler = wb.compiler();
        compiler.options.memoize = false;
        b.iter(|| {
            compiler.clear_shard_cache();
            let mut vnh = VnhAllocator::default();
            compiler.compile_all(&wb.rs, &mut vnh).expect("compiles")
        })
    });
    g.finish();
}

fn ablation_fec_grouping(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fec_grouping");
    g.sample_size(10);
    let wb = Workbench::new(100, 10_000, 6400, 23);
    // Report the rule-count impact once, outside the timed loop.
    {
        let mut compiler = wb.compiler();
        let mut vnh = VnhAllocator::default();
        let grouped = compiler.compile_all(&wb.rs, &mut vnh).expect("compiles");
        let mut compiler2 = wb.compiler();
        compiler2.options.fec_grouping = false;
        let mut vnh2 = VnhAllocator::default();
        let ungrouped = compiler2.compile_all(&wb.rs, &mut vnh2).expect("compiles");
        eprintln!(
            "[ablation_fec_grouping] rules with grouping: {}, without: {} ({:.1}x)",
            grouped.stats.forwarding_rules,
            ungrouped.stats.forwarding_rules,
            ungrouped.stats.forwarding_rules as f64 / grouped.stats.forwarding_rules.max(1) as f64,
        );
    }
    g.bench_function("grouped", |b| {
        let mut compiler = wb.compiler();
        b.iter(|| {
            compiler.clear_shard_cache();
            let mut vnh = VnhAllocator::default();
            compiler.compile_all(&wb.rs, &mut vnh).expect("compiles")
        })
    });
    g.bench_function("per_prefix", |b| {
        let mut compiler = wb.compiler();
        compiler.options.fec_grouping = false;
        b.iter(|| {
            compiler.clear_shard_cache();
            let mut vnh = VnhAllocator::default();
            compiler.compile_all(&wb.rs, &mut vnh).expect("compiles")
        })
    });
    g.finish();
}

fn ablation_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_incremental");
    g.sample_size(10);
    let wb = Workbench::new(100, 10_000, 6400, 24);
    let mut compiler = wb.compiler();
    let mut vnh = VnhAllocator::default();
    let base = compiler.compile_all(&wb.rs, &mut vnh).expect("base");
    let target: Prefix = *base.vnh_of.keys().map(|(_, p)| p).next().expect("affected");

    g.bench_function("fast_path_per_update", |b| {
        b.iter(|| {
            compiler
                .fast_update(&wb.rs, &mut vnh, target)
                .expect("delta")
        })
    });
    g.bench_function("full_recompile_per_update", |b| {
        b.iter(|| {
            compiler.clear_shard_cache();
            let mut vnh = VnhAllocator::default();
            compiler.compile_all(&wb.rs, &mut vnh).expect("compiles")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_pair_pruning,
    ablation_memoization,
    ablation_fec_grouping,
    ablation_incremental
);
criterion_main!(benches);
