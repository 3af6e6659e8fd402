//! Integration tests for the disk-I/O simulation: the access patterns the
//! paper's cost argument rests on must show up in the counters — nested
//! iteration pays random probes proportional to the outer block, the
//! set-oriented plans pay sequential scans only.

use nra_engine::baseline::nested_iter::NestedIterPlan;
use nra_engine::baseline::{self, BaselineChoice};
use nra_storage::iosim::{self, IoConfig, IoStats};
use nra_tpch::{generate, q1_sql, TpchConfig};

fn measure<F: FnOnce()>(cfg: IoConfig, f: F) -> IoStats {
    iosim::enable(cfg);
    f();
    iosim::disable().unwrap()
}

fn small_cache() -> IoConfig {
    IoConfig {
        cache_pages: 16,
        ..IoConfig::default()
    }
}

#[test]
fn nested_iteration_pays_random_io_proportional_to_outer_block() {
    let cat = generate(&TpchConfig::scaled(0.02).nullable_links(0.0));
    let sizes = [100usize, 400];
    let mut misses = Vec::new();
    for &outer in &sizes {
        let bq = nra_sql::parse_and_bind(&q1_sql(&cat, outer), &cat).unwrap();
        assert_eq!(baseline::choose(&bq, &cat), BaselineChoice::NestedIteration);
        let plan = NestedIterPlan::prepare(&bq, &cat).unwrap();
        let stats = measure(small_cache(), || {
            plan.run().unwrap();
        });
        assert!(stats.rand_misses > 0, "probes must hit the disk model");
        misses.push(stats.rand_misses);
    }
    // 4x the outer block => roughly 4x the probes (within slack).
    assert!(
        misses[1] > misses[0] * 2,
        "random I/O must grow with the outer block: {misses:?}"
    );
}

#[test]
fn nr_strategies_do_only_sequential_io() {
    let cat = generate(&TpchConfig::scaled(0.02));
    let bq = nra_sql::parse_and_bind(&q1_sql(&cat, 300), &cat).unwrap();
    for (name, stats) in [
        (
            "original",
            measure(small_cache(), || {
                nra_core::execute(&bq, &cat, nra_core::Strategy::Original).unwrap();
            }),
        ),
        (
            "optimized",
            measure(small_cache(), || {
                nra_core::execute(&bq, &cat, nra_core::Strategy::Optimized).unwrap();
            }),
        ),
    ] {
        assert_eq!(stats.total_random(), 0, "{name} must not probe");
        assert!(stats.seq_pages > 0, "{name} scans its base tables");
    }
}

#[test]
fn cascade_baseline_matches_nr_io() {
    // With NOT NULL, the native Q1 plan is a cascade: same scans as NR.
    let cat = generate(&TpchConfig::scaled(0.02));
    let bq = nra_sql::parse_and_bind(&q1_sql(&cat, 300), &cat).unwrap();
    assert_eq!(baseline::choose(&bq, &cat), BaselineChoice::SemiAntiCascade);
    let native = measure(small_cache(), || {
        baseline::execute(&bq, &cat).unwrap();
    });
    let nr = measure(small_cache(), || {
        nra_core::execute(&bq, &cat, nra_core::Strategy::Optimized).unwrap();
    });
    assert_eq!(native.total_random(), 0);
    assert_eq!(native.seq_pages, nr.seq_pages, "identical scan footprint");
}

#[test]
fn larger_cache_means_more_hits() {
    let cat = generate(&TpchConfig::scaled(0.02).nullable_links(0.0));
    let bq = nra_sql::parse_and_bind(&q1_sql(&cat, 400), &cat).unwrap();
    let plan = NestedIterPlan::prepare(&bq, &cat).unwrap();
    let small = measure(small_cache(), || {
        plan.run().unwrap();
    });
    let big = measure(
        IoConfig {
            cache_pages: 1 << 20,
            ..IoConfig::default()
        },
        || {
            plan.run().unwrap();
        },
    );
    assert!(
        big.rand_misses < small.rand_misses,
        "a cache covering everything turns repeats into hits: {} vs {}",
        big.rand_misses,
        small.rand_misses
    );
    assert_eq!(
        big.total_random(),
        small.total_random(),
        "same accesses either way"
    );
}

#[test]
fn simulation_is_off_by_default_and_does_not_leak() {
    let cat = generate(&TpchConfig::scaled(0.01));
    let bq = nra_sql::parse_and_bind(&q1_sql(&cat, 100), &cat).unwrap();
    nra_core::execute(&bq, &cat, nra_core::Strategy::Optimized).unwrap();
    assert!(!iosim::is_enabled());
    assert_eq!(iosim::stats(), IoStats::default());
}
