//! K-core byte-identity and golden regression tests.
//!
//! `K = 1` is the degenerate single-switch case: a
//! [`MultiSunflowBackend`] with one core routes every flow to core 0
//! (every placement policy must — there is nowhere else), and the
//! replay must be *byte-identical* to the single-switch path under
//! every configuration the replay goldens pin. These tests replay the
//! exact 40-Coflow fixture of `replay_regression.rs` through the K-core
//! path and assert the very same golden fingerprints.
//!
//! A separate golden pins the `K = 4` least-loaded replay, so placement
//! and multi-shard planning changes are caught too. One port group
//! (`portgroups:1`) is the same degenerate case for the port-group
//! router and is checked alongside `K = 1`.

use ocs_model::{Bandwidth, Coflow, Dur, Fabric, KCoreFabric, Time};
use ocs_sim::{
    simulate_circuit, ActiveCircuitPolicy, FullService, MultiSunflowBackend, OnlineConfig,
    PortGroupBackend, ReplayResult, SchedulingBackend,
};
use proptest::prelude::*;
use std::collections::HashMap;
use sunflow_core::{
    ClassThenShortest, CoreAssignKind, ExplicitOrder, FirstComeFirstServed, GuardConfig,
    LongestFirst, PriorityPolicy, ShortestFirst,
};

fn fabric() -> Fabric {
    Fabric::new(8, Bandwidth::GBPS, Dur::from_millis(10))
}

/// xorshift64* so the workload is deterministic without pulling `rand`
/// into the fixture (same generator and seed as `replay_regression.rs`).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// The dense 40-Coflow workload of `replay_regression.rs`, byte for
/// byte — the goldens asserted below were captured on it.
fn workload() -> Vec<Coflow> {
    let mut s = 0x5af1_0e5e_ed00_0001u64;
    let mut coflows = Vec::new();
    for id in 0..40u64 {
        let arrival = Time::from_millis(xorshift(&mut s) % 2_000);
        let mut b = Coflow::builder(id).arrival(arrival);
        let flows = 1 + (xorshift(&mut s) % 4) as usize;
        for _ in 0..flows {
            let src = (xorshift(&mut s) % 8) as usize;
            let dst = (xorshift(&mut s) % 8) as usize;
            let bytes = (1 + xorshift(&mut s) % 24) * 1_000_000;
            b = b.flow(src, dst, bytes);
        }
        coflows.push(b.build());
    }
    coflows
}

/// FNV-1a over every observable field of the replay result (identical
/// to `replay_regression.rs`).
fn fingerprint(r: &ReplayResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in &r.outcomes {
        eat(o.coflow);
        eat(o.start.as_ps());
        eat(o.finish.as_ps());
        eat(o.circuit_setups);
        for f in &o.flow_finish {
            eat(f.as_ps());
        }
    }
    eat(r.guard_windows);
    h
}

/// Replay `coflows` on a `K`-core fabric under `assign`.
fn run_multicore(
    coflows: &[Coflow],
    base: &Fabric,
    cores: usize,
    assign: CoreAssignKind,
    cfg: &OnlineConfig,
    prio: &dyn PriorityPolicy,
) -> ReplayResult {
    let k = KCoreFabric::new(*base, cores);
    let mut backend = MultiSunflowBackend::new(&k, cfg, Box::new(prio), assign.build());
    replay(coflows, &mut backend)
}

/// Drain `coflows` through `backend`, reassembling a [`ReplayResult`]
/// with outcomes in input order.
fn replay(coflows: &[Coflow], backend: &mut dyn SchedulingBackend) -> ReplayResult {
    for c in coflows {
        backend.submit(c.clone()).expect("fixture fits the fabric");
    }
    backend.advance_to(Time::MAX, &mut FullService);
    assert!(backend.is_idle(), "replay must drain");
    let mut outcomes: Vec<_> = backend
        .drain_completions()
        .into_iter()
        .map(|c| c.outcome)
        .collect();
    let input_pos: HashMap<u64, usize> = coflows
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id(), i))
        .collect();
    outcomes.sort_by_key(|o| input_pos[&o.coflow]);
    ReplayResult {
        outcomes,
        guard_windows: backend.guard_windows(),
        stats: backend.stats().expect("sunflow keeps stats"),
    }
}

/// Every golden configuration of `replay_regression.rs`, as
/// (name, online config, golden fingerprint) rows; FCFS swaps the
/// priority policy instead.
fn golden_configs() -> [(&'static str, OnlineConfig, u64); 4] {
    let guard = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    [
        (
            "yield",
            OnlineConfig::default().active_policy(ActiveCircuitPolicy::Yield),
            GOLDEN_YIELD,
        ),
        (
            "keep",
            OnlineConfig::default().active_policy(ActiveCircuitPolicy::Keep),
            GOLDEN_KEEP,
        ),
        (
            "preempt",
            OnlineConfig::default().active_policy(ActiveCircuitPolicy::Preempt),
            GOLDEN_PREEMPT,
        ),
        (
            "guarded",
            OnlineConfig::default()
                .active_policy(ActiveCircuitPolicy::Yield)
                .guard(Some(guard)),
            GOLDEN_GUARDED,
        ),
    ]
}

/// `K = 1` replays byte-identical to every single-switch golden, under
/// every placement policy — placement is vacuous with one core, and the
/// sharded backend must not perturb a single event.
#[test]
fn k1_reproduces_every_golden_under_every_placement() {
    let coflows = workload();
    let f = fabric();
    for assign in CoreAssignKind::ALL {
        for (name, cfg, golden) in golden_configs() {
            let r = run_multicore(&coflows, &f, 1, assign, &cfg, &ShortestFirst);
            assert_eq!(
                fingerprint(&r),
                golden,
                "K=1 {assign} diverged from the {name} golden"
            );
        }
        let fcfs = run_multicore(
            &coflows,
            &f,
            1,
            assign,
            &OnlineConfig::default(),
            &FirstComeFirstServed,
        );
        assert_eq!(
            fingerprint(&fcfs),
            GOLDEN_FCFS,
            "K=1 {assign} diverged from the fcfs golden"
        );
    }
}

/// The `K = 4` least-loaded replay on the fixture, pinned: a placement
/// or shard-planning change that shifts one timestamp fails here.
#[test]
fn k4_least_loaded_matches_golden() {
    let r = run_multicore(
        &workload(),
        &fabric(),
        4,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    assert_eq!(fingerprint(&r), GOLDEN_K4_LEAST_LOADED);
}

/// More cores can only help this contended fixture: aggregate CCT under
/// `K = 4` must beat `K = 1` (each core is a full-bandwidth plane).
#[test]
fn k4_improves_total_cct_on_the_fixture() {
    let coflows = workload();
    let f = fabric();
    let total = |r: &ReplayResult| -> Dur {
        r.outcomes
            .iter()
            .map(|o| o.finish.since(o.start))
            .sum::<Dur>()
    };
    let k1 = run_multicore(
        &coflows,
        &f,
        1,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    let k4 = run_multicore(
        &coflows,
        &f,
        4,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    assert!(
        total(&k4) < total(&k1),
        "K=4 total CCT {:?} must beat K=1 {:?}",
        total(&k4),
        total(&k1)
    );
}

/// Prints the K-core fingerprints so they can be (re)captured:
/// `cargo test -p ocs-sim --test kcore_regression capture -- --ignored --nocapture`.
#[test]
#[ignore = "golden capture helper, not a check"]
fn capture() {
    let r = run_multicore(
        &workload(),
        &fabric(),
        4,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    println!("GOLDEN_K4_LEAST_LOADED: {:#018x}", fingerprint(&r));
}

/// A small random workload: up to 12 Coflows, 1–4 flows each, on the
/// 8-port fixture fabric.
fn arb_workload() -> impl Strategy<Value = Vec<Coflow>> {
    proptest::collection::vec(
        (
            0u64..500,
            proptest::collection::vec((0usize..8, 0usize..8, 1u64..20_000_000), 1..=4),
        ),
        1..=12,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(id, (arrival_ms, flows))| {
                let mut b = Coflow::builder(id as u64).arrival(Time::from_millis(arrival_ms));
                for (s, d, z) in flows {
                    b = b.flow(s, d, z);
                }
                b.build()
            })
            .collect()
    })
}

/// The five priority policies, boxed for uniform iteration.
fn policies(coflows: &[Coflow]) -> Vec<(&'static str, Box<dyn PriorityPolicy>)> {
    let classes: HashMap<u64, u32> = coflows
        .iter()
        .map(|c| (c.id(), (c.id() % 3) as u32))
        .collect();
    let order: Vec<u64> = coflows.iter().map(|c| c.id()).rev().collect();
    vec![
        ("shortest", Box::new(ShortestFirst)),
        ("longest", Box::new(LongestFirst)),
        ("fcfs", Box::new(FirstComeFirstServed)),
        ("class", Box::new(ClassThenShortest::new(classes, 9))),
        ("explicit", Box::new(ExplicitOrder::new(order))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `K = 1` equivalence, property-tested: on random workloads, every
    /// placement policy × every priority policy replays the K-core path
    /// byte-identical to `simulate_circuit`, and so does one port group
    /// (`portgroups:1`).
    #[test]
    fn k1_equivalence(coflows in arb_workload()) {
        let f = fabric();
        let cfg = OnlineConfig::default();
        for (pname, prio) in policies(&coflows) {
            let single = simulate_circuit(&coflows, &f, &cfg, prio.as_ref());
            let mut one_group = PortGroupBackend::new(&f, 1, &cfg, Box::new(prio.as_ref()));
            prop_assert_eq!(
                fingerprint(&replay(&coflows, &mut one_group)),
                fingerprint(&single),
                "portgroups:1 diverged from simulate_circuit under {}",
                pname
            );
            for assign in CoreAssignKind::ALL {
                let multi = run_multicore(&coflows, &f, 1, assign, &cfg, prio.as_ref());
                prop_assert_eq!(
                    fingerprint(&multi),
                    fingerprint(&single),
                    "K=1 {} diverged from simulate_circuit under {}",
                    assign,
                    pname
                );
            }
        }
    }
}

// Golden fingerprints: the five single-switch constants are copied from
// `replay_regression.rs` (same fixture, same hash); the K=4 constant was
// captured from the `capture` test above.
const GOLDEN_YIELD: u64 = 0x99c7ea2f62e9f5a6;
const GOLDEN_KEEP: u64 = 0x1f488db3af7cffdc;
const GOLDEN_PREEMPT: u64 = 0xac667ca4f8f67d86;
const GOLDEN_GUARDED: u64 = 0x4824bb0ab880aa60;
const GOLDEN_FCFS: u64 = 0xba96a2fc5cd01dc5;
const GOLDEN_K4_LEAST_LOADED: u64 = 0x9c508101fa3f204a;
