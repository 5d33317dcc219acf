//! Deterministic seeded fault injection for the scheduling service.
//!
//! Real optical switches occasionally fail to establish a circuit, drop
//! a port mid-transmission, or take longer than the nominal δ to retune.
//! [`FaultInjector`] models all three as a [`SettleHook`]: every settling
//! circuit rolls a pseudo-random hash of
//! `(seed, coflow, flow_idx, src, start)`, so a given reservation either
//! always faults or never does — replaying a trace with the same seed
//! reproduces the same fault sequence bit-for-bit, no RNG state to
//! thread through checkpoints.
//!
//! Shortfalls feed the stepper's deferral machinery: the shorted flow is
//! retried after an exponential backoff (`base * 2^(attempt-1)`, capped),
//! and per-flow attempt counts reset on the first fault-free settlement.
//! Faults never touch starvation-guard windows (the stepper settles
//! those outside the hook), so the §4.2 liveness floor survives any
//! fault rate.

use ocs_model::{Dur, Reservation, Time};
use ocs_sim::{SettleHook, SettleVerdict};
use std::collections::HashMap;

/// Probabilities (per mille) and backoff schedule of the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// ‰ chance a circuit's setup failed: no data moves.
    pub setup_failure_per_mille: u16,
    /// ‰ chance a port flapped mid-transmission: half the data moves.
    pub port_flap_per_mille: u16,
    /// ‰ chance reconfiguration took 2δ: one extra δ of transmit lost.
    pub delta_inflation_per_mille: u16,
    /// First retry backoff.
    pub base_backoff: Dur,
    /// Backoff ceiling.
    pub max_backoff: Dur,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            setup_failure_per_mille: 0,
            port_flap_per_mille: 0,
            delta_inflation_per_mille: 0,
            base_backoff: Dur::from_millis(5),
            max_backoff: Dur::from_millis(640),
        }
    }
}

impl FaultConfig {
    /// Total fault probability in per mille (must be ≤ 1000).
    pub fn total_per_mille(&self) -> u32 {
        self.setup_failure_per_mille as u32
            + self.port_flap_per_mille as u32
            + self.delta_inflation_per_mille as u32
    }

    /// True when every probability is zero (the injector is a no-op).
    pub fn is_fault_free(&self) -> bool {
        self.total_per_mille() == 0
    }
}

/// Counters of what the injector did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Circuits whose setup failed outright.
    pub setup_failures: u64,
    /// Circuits that lost half their transmit to a port flap.
    pub port_flaps: u64,
    /// Circuits that lost one δ of transmit to slow retuning.
    pub delta_inflations: u64,
    /// Retries scheduled (equals total faults on non-degenerate flows).
    pub retries: u64,
    /// Flows that recovered (settled fault-free after ≥ 1 fault).
    pub recoveries: u64,
    /// Largest consecutive-fault streak seen on any single flow.
    pub max_attempts: u32,
    /// Total backoff time imposed across all retries.
    pub backoff_total: Dur,
}

/// splitmix64 finalizer — a well-mixed 64-bit hash step.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultKind {
    SetupFailure,
    PortFlap,
    DeltaInflation,
}

/// The deterministic fault-injecting [`SettleHook`].
#[derive(Clone, Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    delta: Dur,
    /// Consecutive faults per flow, for exponential backoff.
    attempts: HashMap<(u64, usize), u32>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector for a fabric with reconfiguration delay `delta`.
    ///
    /// # Panics
    /// Panics if the per-mille probabilities sum above 1000.
    pub fn new(config: FaultConfig, delta: Dur) -> FaultInjector {
        assert!(
            config.total_per_mille() <= 1000,
            "fault probabilities sum to more than 1000 per mille"
        );
        FaultInjector {
            config,
            delta,
            attempts: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Flows currently carrying a non-zero consecutive-fault streak.
    pub fn flows_in_backoff(&self) -> usize {
        self.attempts.len()
    }

    /// The deterministic roll for one reservation, in `[0, 1000)`.
    fn roll(&self, r: &Reservation) -> u32 {
        let mut h = mix(self.config.seed);
        h = mix(h ^ r.flow.coflow);
        h = mix(h ^ r.flow.flow_idx as u64);
        h = mix(h ^ r.src as u64);
        h = mix(h ^ r.start.as_ps());
        (h % 1000) as u32
    }

    fn kind_for(&self, r: &Reservation) -> Option<FaultKind> {
        let roll = self.roll(r);
        let setup = self.config.setup_failure_per_mille as u32;
        let flap = setup + self.config.port_flap_per_mille as u32;
        let inflate = flap + self.config.delta_inflation_per_mille as u32;
        if roll < setup {
            Some(FaultKind::SetupFailure)
        } else if roll < flap {
            Some(FaultKind::PortFlap)
        } else if roll < inflate {
            Some(FaultKind::DeltaInflation)
        } else {
            None
        }
    }

    /// `base * 2^(attempt-1)`, saturating at the configured ceiling.
    fn backoff(&self, attempt: u32) -> Dur {
        let base = self.config.base_backoff.as_ps().max(1);
        let max = self.config.max_backoff.as_ps().max(base);
        let exp = attempt.saturating_sub(1);
        // A shift that would push bits out the top has already passed
        // any plausible ceiling; clamp instead of wrapping.
        let shifted = if exp >= base.leading_zeros() {
            max
        } else {
            base << exp
        };
        Dur::from_ps(shifted.min(max))
    }
}

impl SettleHook for FaultInjector {
    fn on_settle(&mut self, resv: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        if self.config.is_fault_free() || available.is_zero() {
            // Nothing to lose (already-cut circuits settle with zero
            // transmit); don't charge a fault or touch the streak.
            return SettleVerdict::full(available);
        }
        let key = (resv.flow.coflow, resv.flow.flow_idx);
        let Some(kind) = self.kind_for(resv) else {
            if self.attempts.remove(&key).is_some() {
                self.stats.recoveries += 1;
            }
            return SettleVerdict::full(available);
        };
        let served = match kind {
            FaultKind::SetupFailure => {
                self.stats.setup_failures += 1;
                Dur::ZERO
            }
            FaultKind::PortFlap => {
                self.stats.port_flaps += 1;
                Dur::from_ps(available.as_ps() / 2)
            }
            FaultKind::DeltaInflation => {
                self.stats.delta_inflations += 1;
                available.saturating_sub(self.delta)
            }
        };
        if served >= available {
            // The inflation was absorbed by slack (transmit longer than
            // one δ of loss could matter): effectively fault-free.
            return SettleVerdict::full(available);
        }
        let attempt = {
            let a = self.attempts.entry(key).or_insert(0);
            *a += 1;
            *a
        };
        self.stats.retries += 1;
        self.stats.max_attempts = self.stats.max_attempts.max(attempt);
        let backoff = self.backoff(attempt);
        self.stats.backoff_total += backoff;
        SettleVerdict::shorted(served, backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::FlowRef;

    fn resv(coflow: u64, flow_idx: usize, src: usize, start_ms: u64) -> Reservation {
        Reservation {
            src,
            dst: 0,
            start: Time::from_millis(start_ms),
            end: Time::from_millis(start_ms + 20),
            flow: FlowRef { coflow, flow_idx },
        }
    }

    fn injector(setup: u16, flap: u16, inflate: u16) -> FaultInjector {
        FaultInjector::new(
            FaultConfig {
                seed: 7,
                setup_failure_per_mille: setup,
                port_flap_per_mille: flap,
                delta_inflation_per_mille: inflate,
                ..FaultConfig::default()
            },
            Dur::from_millis(10),
        )
    }

    #[test]
    fn verdicts_are_deterministic_per_seed() {
        let mut a = injector(100, 100, 100);
        let mut b = injector(100, 100, 100);
        let avail = Dur::from_millis(15);
        for i in 0..200u64 {
            let r = resv(i % 10, (i % 3) as usize, (i % 4) as usize, i * 7);
            assert_eq!(
                a.on_settle(&r, avail, r.end),
                b.on_settle(&r, avail, r.end),
                "iteration {i}"
            );
        }
        assert_eq!(a.stats(), b.stats());
        // A different seed produces a different fault pattern.
        let mut c = FaultInjector::new(
            FaultConfig {
                seed: 8,
                setup_failure_per_mille: 100,
                port_flap_per_mille: 100,
                delta_inflation_per_mille: 100,
                ..FaultConfig::default()
            },
            Dur::from_millis(10),
        );
        let mut diverged = false;
        for i in 0..200u64 {
            let r = resv(i % 10, (i % 3) as usize, (i % 4) as usize, i * 7);
            if a.kind_for(&r) != c.kind_for(&r) {
                diverged = true;
            }
            let _ = c.on_settle(&r, avail, r.end);
        }
        assert!(diverged, "seed change must alter the fault stream");
    }

    #[test]
    fn fault_rates_track_configuration() {
        let mut inj = injector(200, 0, 0); // 20 % setup failures
        let avail = Dur::from_millis(15);
        for i in 0..2_000u64 {
            let r = resv(i, 0, (i % 8) as usize, i * 3);
            let _ = inj.on_settle(&r, avail, r.end);
        }
        let failures = inj.stats().setup_failures;
        assert!(
            (250..=550).contains(&failures),
            "20% of 2000 ≈ 400, got {failures}"
        );
        assert_eq!(inj.stats().port_flaps, 0);
        assert_eq!(inj.stats().retries, failures);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let inj = injector(1000, 0, 0);
        let b = FaultConfig::default().base_backoff;
        assert_eq!(inj.backoff(1), b);
        assert_eq!(inj.backoff(2), Dur::from_ps(b.as_ps() * 2));
        assert_eq!(inj.backoff(3), Dur::from_ps(b.as_ps() * 4));
        assert_eq!(inj.backoff(64), FaultConfig::default().max_backoff);
        assert_eq!(inj.backoff(1_000_000), FaultConfig::default().max_backoff);
    }

    #[test]
    fn streaks_reset_on_success_and_count_recoveries() {
        let mut inj = injector(1000, 0, 0); // always fault...
        let avail = Dur::from_millis(15);
        let r = resv(1, 0, 0, 100);
        let v1 = inj.on_settle(&r, avail, r.end);
        assert_eq!(v1.served, Dur::ZERO);
        let r2 = resv(1, 0, 0, 150);
        let v2 = inj.on_settle(&r2, avail, r2.end);
        assert!(
            v2.retry_after.unwrap() > v1.retry_after.unwrap(),
            "backoff grows"
        );
        // ...then stop faulting: the next settlement recovers the flow.
        inj.config.setup_failure_per_mille = 0;
        inj.config.port_flap_per_mille = 0;
        inj.config.delta_inflation_per_mille = 0;
        let r3 = resv(1, 0, 0, 300);
        let v3 = inj.on_settle(&r3, avail, r3.end);
        assert_eq!(v3, SettleVerdict::full(avail));
        assert_eq!(
            inj.stats().recoveries,
            0,
            "fault-free config short-circuits"
        );
        assert_eq!(
            inj.flows_in_backoff(),
            1,
            "streak map untouched by no-op path"
        );
    }

    #[test]
    fn zero_config_is_transparent() {
        let mut inj = injector(0, 0, 0);
        let avail = Dur::from_millis(15);
        for i in 0..50u64 {
            let r = resv(i, 0, 0, i * 11);
            assert_eq!(inj.on_settle(&r, avail, r.end), SettleVerdict::full(avail));
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn inflation_absorbed_by_long_transmits() {
        let mut inj = injector(0, 0, 1000); // always inflate δ
                                            // Transmit far longer than δ: the inflation shows as a shortfall.
        let r = resv(1, 0, 0, 0);
        let v = inj.on_settle(&r, Dur::from_millis(50), r.end);
        assert_eq!(v.served, Dur::from_millis(40));
        assert!(v.retry_after.is_some());
    }
}
