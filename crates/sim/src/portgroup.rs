//! Port-group sharded serving: Sunflow over disjoint host partitions.
//!
//! [`PortGroupBackend`] partitions the fabric's hosts into `G`
//! contiguous **port groups** and runs one independent Sunflow shard
//! per group over a sub-fabric of that group's ports. Traffic must be
//! group-local — a flow whose endpoints fall in different groups is
//! refused with the typed [`SubmitError::CrossesPortGroups`] — which is
//! exactly the regime of rack-, pod- or tenant-partitioned clusters
//! where arrivals never cross the partition boundary. The groups share
//! nothing but the clock and the priority policy: no PRT, no priority
//! rank interleaving, no load gauge.
//!
//! Selector: `portgroups:<G>`. The selector is intentionally **not** in
//! [`BackendKind::ALL`]: every entry there must accept arbitrary
//! cross-port traffic, which a partitioned backend refuses by design.
//!
//! [`BackendKind::ALL`]: crate::BackendKind::ALL

use crate::backend::{SchedulingBackend, SunflowBackend};
use crate::online::OnlineConfig;
use crate::partitioned::{Division, Partitioned, Router};
use crate::stepper::SubmitError;
use ocs_model::{Coflow, Fabric};
use std::rc::Rc;
use sunflow_core::PriorityPolicy;

/// Sunflow sharded across `G` disjoint port groups — the daemon's
/// scale-out serving backend (selector `portgroups:<G>`).
///
/// With `G = 1` the single shard covers the whole fabric and the replay
/// is byte-identical to [`SunflowBackend`] (pinned by
/// `one_group_matches_single_sunflow` below and the `k1_equivalence`
/// proptest).
pub type PortGroupBackend<'p> = Partitioned<PortGroupRouter<'p>>;

/// The `Router` of [`PortGroupBackend`]: renumbers each flow into its
/// group's local port range.
pub struct PortGroupRouter<'p> {
    groups: Vec<SunflowBackend<'p>>,
    /// Ports per group (`ceil(ports / G)`); a port's group is
    /// `port / group_ports`.
    group_ports: usize,
}

impl<'p> PortGroupBackend<'p> {
    /// A `groups`-way partitioned backend over `fabric`. `groups` is
    /// clamped to `[1, ports]`; uneven divisions give the last group the
    /// remainder.
    pub fn new(
        fabric: &Fabric,
        groups: usize,
        config: &OnlineConfig,
        policy: Box<dyn PriorityPolicy + 'p>,
    ) -> PortGroupBackend<'p> {
        let group_ports = fabric.ports().div_ceil(groups.clamp(1, fabric.ports()));
        let policy: Rc<dyn PriorityPolicy + 'p> = Rc::from(policy);
        let router = PortGroupRouter {
            groups: (0..fabric.ports())
                .step_by(group_ports)
                .map(|base| {
                    let ports = group_ports.min(fabric.ports() - base);
                    let sub = Fabric::new(ports, fabric.bandwidth(), fabric.delta());
                    SunflowBackend::shared(&sub, config, policy.clone())
                })
                .collect(),
            group_ports,
        };
        Partitioned::with_router(fabric, router)
    }

    /// Number of port groups.
    pub fn groups(&self) -> usize {
        self.router.groups.len()
    }

    /// The group a global port belongs to.
    pub fn group_of(&self, port: usize) -> usize {
        port / self.router.group_ports
    }
}

impl Router for PortGroupRouter<'_> {
    fn parts(&self) -> usize {
        self.groups.len()
    }

    fn part(&self, i: usize) -> &dyn SchedulingBackend {
        &self.groups[i]
    }

    fn part_mut(&mut self, i: usize) -> &mut dyn SchedulingBackend {
        &mut self.groups[i]
    }

    fn check(&self, coflow: &Coflow) -> Result<(), SubmitError> {
        let gp = self.group_ports;
        match coflow.flows().iter().find(|f| f.src / gp != f.dst / gp) {
            Some(f) => Err(SubmitError::CrossesPortGroups {
                id: coflow.id(),
                src: f.src,
                dst: f.dst,
                group_ports: gp,
            }),
            None => Ok(()),
        }
    }

    fn route(&mut self, coflow: &Coflow) -> Division {
        let mut flows = vec![Vec::new(); self.groups.len()];
        let mut map = Vec::with_capacity(coflow.num_flows());
        for f in coflow.flows() {
            let g = f.src / self.group_ports;
            let base = g * self.group_ports;
            map.push((g, flows[g].len()));
            flows[g].push((f.src - base, f.dst - base, f.bytes));
        }
        let parts = flows
            .into_iter()
            .map(|local| {
                let b = Coflow::builder(coflow.id()).arrival(coflow.arrival());
                local
                    .into_iter()
                    .fold(b, |b, (s, d, z)| b.flow(s, d, z))
                    .try_build()
            })
            .collect();
        Division::whole_flows(parts, &map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_trace;
    use crate::online::simulate_circuit;
    use crate::stepper::SettleHook;
    use ocs_model::{Bandwidth, Dur, Time};
    use sunflow_core::ShortestFirst;

    fn fabric(ports: usize) -> Fabric {
        Fabric::new(ports, Bandwidth::from_gbps(1), Dur::from_micros(20))
    }

    /// A deterministic group-local workload: every Coflow's flows stay
    /// inside one group of `group_ports` consecutive ports.
    fn group_local_trace(ports: usize, group_ports: usize, n: u64) -> Vec<Coflow> {
        let groups = ports / group_ports;
        (0..n)
            .map(|i| {
                let g = (i as usize * 7 + 3) % groups;
                let base = g * group_ports;
                let s = base + (i as usize) % group_ports;
                let d = base + (i as usize + 1 + (i as usize / group_ports)) % group_ports;
                let d = if d == s {
                    base + (s - base + 1) % group_ports
                } else {
                    d
                };
                let mut b = Coflow::builder(i).arrival(Time::from_millis(i * 3)).flow(
                    s,
                    d,
                    1_000_000 + i * 50_000,
                );
                if i % 3 == 0 {
                    let s2 = base + (i as usize + 2) % group_ports;
                    let d2 = base + (i as usize + 3) % group_ports;
                    if s2 != d2 {
                        b = b.flow(s2, d2, 500_000);
                    }
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn one_group_matches_single_sunflow() {
        let f = fabric(8);
        let trace = group_local_trace(8, 8, 24);
        let config = OnlineConfig::default();
        let want = simulate_circuit(&trace, &f, &config, &ShortestFirst);
        let mut pg = PortGroupBackend::new(&f, 1, &config, Box::new(ShortestFirst));
        let got = run_trace(&trace, &mut pg);
        assert_eq!(want.outcomes, got);
    }

    #[test]
    fn grouped_trace_matches_per_group_independent_replays() {
        let f = fabric(12);
        let trace = group_local_trace(12, 4, 30);
        let config = OnlineConfig::default();
        let mut pg = PortGroupBackend::new(&f, 3, &config, Box::new(ShortestFirst));
        let got = run_trace(&trace, &mut pg);

        // Reference: each group is an independent Sunflow fabric.
        let sub = fabric(4);
        for g in 0..3 {
            let base = g * 4;
            let local: Vec<Coflow> = trace
                .iter()
                .filter(|c| c.flows().iter().all(|fl| fl.src / 4 == g))
                .map(|c| {
                    let mut b = Coflow::builder(c.id()).arrival(c.arrival());
                    for fl in c.flows() {
                        b = b.flow(fl.src - base, fl.dst - base, fl.bytes);
                    }
                    b.build()
                })
                .collect();
            let want = simulate_circuit(&local, &sub, &config, &ShortestFirst);
            for (w, c) in want.outcomes.iter().zip(&local) {
                let g_out = got
                    .iter()
                    .find(|o| o.coflow == c.id())
                    .expect("every coflow completes");
                assert_eq!(w.finish, g_out.finish, "coflow {}", c.id());
                assert_eq!(w.flow_finish, g_out.flow_finish, "coflow {}", c.id());
                assert_eq!(w.circuit_setups, g_out.circuit_setups, "coflow {}", c.id());
            }
        }
    }

    #[test]
    fn cross_group_flows_get_a_typed_reject() {
        let f = fabric(8);
        let config = OnlineConfig::default();
        let mut pg = PortGroupBackend::new(&f, 2, &config, Box::new(ShortestFirst));
        let crossing = Coflow::builder(1).flow(0, 5, 1_000).build();
        assert_eq!(
            pg.submit(crossing),
            Err(SubmitError::CrossesPortGroups {
                id: 1,
                src: 0,
                dst: 5,
                group_ports: 4,
            })
        );
        // The id was not retained: a corrected resubmission succeeds.
        let local = Coflow::builder(1).flow(0, 3, 1_000).build();
        assert_eq!(pg.submit(local), Ok(()));
    }

    /// A stateful hook sees every settlement of every group.
    #[test]
    fn non_inert_hooks_advance_sequentially() {
        struct Spy(u64);
        impl SettleHook for Spy {
            fn on_settle(
                &mut self,
                _resv: &ocs_model::Reservation,
                available: Dur,
                _now: Time,
            ) -> crate::SettleVerdict {
                self.0 += 1;
                crate::SettleVerdict::full(available)
            }
        }
        let f = fabric(8);
        let trace = group_local_trace(8, 4, 16);
        let config = OnlineConfig::default().replan_threads(4);
        let mut pg = PortGroupBackend::new(&f, 2, &config, Box::new(ShortestFirst));
        for c in &trace {
            pg.submit(c.clone()).unwrap();
        }
        let mut spy = Spy(0);
        pg.advance_to(Time::MAX, &mut spy);
        assert!(spy.0 > 0, "every settlement funneled through the hook");
    }
}
