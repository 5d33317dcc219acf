//! Correctness checks on a replay's outcomes, the CCT statistics, and the
//! FNV fingerprint of the sorted outcomes.

use ocs_model::{circuit_lower_bound, packet_lower_bound, Coflow, Fabric, ScheduleOutcome};
use std::collections::HashMap;

/// The physical lower bound every CCT must respect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// `CCT ≥ T_cL` (Eq. 4): every flow pays δ on a circuit.
    Circuit,
    /// `CCT ≥ T_pL / (1 + f)` for a hybrid whose packet network runs at
    /// `f = permille / 1000` of the link rate beside full-rate circuits.
    HybridPacket { permille: u32 },
}

/// What checking one replay found.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checked {
    /// Coflows that never completed, completed twice, completed without
    /// being submitted, or beat their lower bound.
    pub failed: u64,
    /// CCT in virtual seconds of every completed Coflow, sorted.
    pub ccts: Vec<f64>,
    /// FNV-1a over the outcomes sorted by Coflow id.
    pub fingerprint: u64,
}

/// Check `outcomes` against the submitted `coflows`.
pub fn check(
    coflows: &[Coflow],
    outcomes: &[ScheduleOutcome],
    fabric: &Fabric,
    bound: Bound,
) -> Checked {
    let by_id: HashMap<u64, &Coflow> = coflows.iter().map(|c| (c.id(), c)).collect();
    let mut seen: HashMap<u64, u32> = HashMap::with_capacity(outcomes.len());
    let mut failed = 0u64;
    let mut ccts = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        *seen.entry(o.coflow).or_default() += 1;
        let Some(c) = by_id.get(&o.coflow) else {
            failed += 1;
            continue;
        };
        if o.finish < c.arrival() {
            failed += 1;
            continue;
        }
        let cct = o.finish.since(c.arrival());
        let holds = match bound {
            Bound::Circuit => cct >= circuit_lower_bound(c, fabric),
            Bound::HybridPacket { permille } => {
                let tpl = packet_lower_bound(c, fabric).as_ps() as u128;
                cct.as_ps() as u128 * (1000 + permille as u128) >= tpl * 1000
            }
        };
        if !holds {
            failed += 1;
        }
        ccts.push(cct.as_secs_f64());
    }
    failed += seen.values().filter(|&&n| n > 1).count() as u64;
    failed += coflows
        .iter()
        .filter(|c| !seen.contains_key(&c.id()))
        .count() as u64;
    ccts.sort_by(f64::total_cmp);
    Checked {
        failed,
        ccts,
        fingerprint: fingerprint(outcomes),
    }
}

/// FNV-1a (64-bit) over every outcome field, outcomes sorted by Coflow id.
pub fn fingerprint(outcomes: &[ScheduleOutcome]) -> u64 {
    let mut sorted: Vec<&ScheduleOutcome> = outcomes.iter().collect();
    sorted.sort_by_key(|o| o.coflow);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in sorted {
        eat(o.coflow);
        eat(o.start.as_ps());
        eat(o.finish.as_ps());
        eat(o.circuit_setups);
        for f in &o.flow_finish {
            eat(f.as_ps());
        }
    }
    h
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank quantile of ascending `sorted` (`q` in `[0, 1]`): at
/// `q = 0.98` on 526 samples it leaves 10 beyond it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{Dur, Time};

    fn outcome(id: u64, finish_ms: u64) -> ScheduleOutcome {
        ScheduleOutcome {
            coflow: id,
            start: Time::ZERO,
            finish: Time::from_millis(finish_ms),
            flow_finish: vec![Time::from_millis(finish_ms)],
            circuit_setups: 1,
        }
    }

    #[test]
    fn flags_missing_duplicate_and_too_fast_coflows() {
        let fabric = Fabric::new(4, Fabric::GBPS, Dur::from_millis(10));
        // 1 MB at 1 Gbps is 8 ms; T_cL adds δ: 18 ms.
        let cs: Vec<Coflow> = (0..3)
            .map(|id| Coflow::builder(id).flow(0, 1, 1_000_000).build())
            .collect();
        let ok = check(
            &cs,
            &[outcome(0, 18), outcome(1, 40), outcome(2, 50)],
            &fabric,
            Bound::Circuit,
        );
        assert_eq!(ok.failed, 0);
        assert_eq!(ok.ccts, vec![0.018, 0.04, 0.05]);
        let bad = check(
            &cs,
            &[outcome(0, 17), outcome(1, 40), outcome(1, 40)],
            &fabric,
            Bound::Circuit,
        );
        assert_eq!(bad.failed, 3, "too fast, duplicate, missing");
        // The hybrid bound only asks for T_pL / 1.1 = 7.27 ms.
        let hybrid = Bound::HybridPacket { permille: 100 };
        assert_eq!(check(&cs[..1], &[outcome(0, 8)], &fabric, hybrid).failed, 0);
        assert_eq!(check(&cs[..1], &[outcome(0, 7)], &fabric, hybrid).failed, 1);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=526).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 500.0, "26 samples beyond p95");
        assert_eq!(quantile(&v, 0.98), 516.0, "10 samples beyond p98");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let a = [outcome(0, 18), outcome(1, 40)];
        let b = [outcome(1, 40), outcome(0, 18)];
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(
            fingerprint(&a),
            fingerprint(&[outcome(0, 18), outcome(1, 41)])
        );
    }
}
