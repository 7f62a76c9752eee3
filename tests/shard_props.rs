//! Shard-invariance property tests: on random exchanges from
//! [`sdx_oracle::synth`], a sharded compile — any shard count, any mode —
//! must produce *the same fabric* as the one-shard pipeline.
//!
//! "The same" is checked rule-for-rule after canonical relabeling
//! ([`canonicalize_report`]): the one observable difference sharding is
//! allowed to introduce is VNH id numbering (fresh ids draw from disjoint
//! per-shard sub-ranges), and the relabeling quotients exactly that away
//! — ids renumbered 1..N in (viewer, group-position) order, VNH addresses
//! and VMACs rewritten to follow, in the classifier's matches and action
//! mods included. Anything else that differs — rule order, group
//! membership, group count, ARP bindings, the route server's VNH rewrite
//! map — is a real divergence and fails the test.
//!
//! Counts (groups, classifier rules) are additionally compared raw,
//! before canonicalization, so a relabeling bug cannot mask a size skew.

use proptest::prelude::*;
use sdx::core::compiler::CompileReport;
use sdx::core::{canonicalize_report, SdxCompiler, Sharding, VnhAllocator};
use sdx_oracle::synth;

/// Compiles the seed's exchange under `sharding` on a fresh allocator.
fn compile_with(seed: u64, sharding: Sharding) -> (SdxCompiler, CompileReport) {
    let mut ex = synth::exchange(seed);
    ex.compiler.options.sharding = sharding;
    let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
    let report = ex
        .compiler
        .compile_all(&ex.rs, &mut vnh)
        .unwrap_or_else(|e| panic!("seed {seed} failed to compile under {sharding:?}: {e:?}"));
    (ex.compiler, report)
}

fn assert_equivalent(seed: u64, sharding: Sharding, base: &CompileReport, sharded: &CompileReport) {
    let what = format!("seed {seed} under {sharding:?}");
    // Raw counts first: sizes must match before any relabeling.
    assert_eq!(
        sharded.classifier.rules().len(),
        base.classifier.rules().len(),
        "{what}: classifier size differs"
    );
    let group_count = |r: &CompileReport| -> usize { r.groups.values().map(Vec::len).sum() };
    assert_eq!(
        group_count(sharded),
        group_count(base),
        "{what}: total group count differs"
    );
    for (viewer, groups) in &base.groups {
        assert_eq!(
            sharded.groups.get(viewer).map_or(0, Vec::len),
            groups.len(),
            "{what}: group count for viewer {viewer} differs"
        );
    }
    // Then full rule-for-rule identity modulo VNH id renumbering.
    let pool = VnhAllocator::default_pool();
    let a = canonicalize_report(sharded, pool);
    let b = canonicalize_report(base, pool);
    assert_eq!(a.classifier, b.classifier, "{what}: classifier differs");
    assert_eq!(a.groups, b.groups, "{what}: FEC groups differ");
    assert_eq!(
        a.arp_bindings, b.arp_bindings,
        "{what}: ARP bindings differ"
    );
    assert_eq!(a.vnh_of, b.vnh_of, "{what}: VNH rewrite map differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shards(1) ≡ Shards(2) ≡ Shards(8) ≡ Auto on arbitrary exchanges.
    #[test]
    fn sharded_compile_is_invariant_under_shard_count(seed in 0u64..1_000_000) {
        let (_c, base) = compile_with(seed, Sharding::Shards(1));
        for sharding in [Sharding::Shards(2), Sharding::Shards(8), Sharding::Auto] {
            let (_c, sharded) = compile_with(seed, sharding);
            assert_equivalent(seed, sharding, &base, &sharded);
        }
    }

    /// A second sharded compile of the *same* compiler (warm shard cache,
    /// nothing dirty) serves every unit from cache and still matches the
    /// one-shard baseline — the cache cannot go stale silently.
    #[test]
    fn warm_cache_recompile_is_still_invariant(seed in 0u64..1_000_000) {
        let (_c, base) = compile_with(seed, Sharding::Shards(1));
        let mut ex = synth::exchange(seed);
        ex.compiler.options.sharding = Sharding::Shards(4);
        let mut vnh = VnhAllocator::new(VnhAllocator::default_pool());
        ex.compiler.compile_all(&ex.rs, &mut vnh).expect("cold compile");
        let warm = ex.compiler.compile_all(&ex.rs, &mut vnh).expect("warm compile");
        assert_equivalent(seed, Sharding::Shards(4), &base, &warm);
    }
}
