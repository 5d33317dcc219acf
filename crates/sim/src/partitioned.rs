//! One backend for every fabric that divides a Coflow across parallel
//! parts: `K` switch cores (`sunflow:<K>`), disjoint port groups
//! (`portgroups:<G>`), or a circuit and a packet network
//! (`hybrid:<split>`).
//!
//! [`Partitioned`] owns the submit path and the merge; a [`Router`] owns
//! the parts and decides, at each Coflow's arrival, which part carries
//! which bytes. Each part is advanced only at its own event instants —
//! the rule [`crate::engine::run_backends_to_idle`] applies to composed
//! backends — so every part observes exactly the `advance_to` sequence
//! it would produce running alone. A Coflow completes when its last
//! part does: each flow finishes at the max over its subflows, the
//! Coflow at the max over its parts, its circuit setups are summed and
//! its first service is the earliest of any part.

use crate::admission::Admission;
use crate::backend::{CoreStatus, SchedulingBackend};
use crate::online::ReplayStats;
use crate::stepper::{Completion, SettleHook, SubmitError};
use ocs_model::{Coflow, Dur, Fabric, ScheduleOutcome, Time};
use std::collections::HashMap;

/// An arriving Coflow divided across a [`Partitioned`] backend's parts.
pub struct Division {
    /// One slot per part: the sub-Coflow it runs (same id and arrival as
    /// the original), or `None` when the part carries none of its bytes.
    pub parts: Vec<Option<Coflow>>,
    /// Every subflow as `(original flow, part, index within the part's
    /// Coflow)`. A flow carved across two parts appears twice.
    pub subflows: Vec<(usize, usize, usize)>,
}

impl Division {
    /// A division that routes every flow whole: `map[f]` is
    /// `(part, index within the part)` of original flow `f`.
    pub fn whole_flows(parts: Vec<Option<Coflow>>, map: &[(usize, usize)]) -> Division {
        Division {
            parts,
            subflows: map
                .iter()
                .enumerate()
                .map(|(f, &(part, i))| (f, part, i))
                .collect(),
        }
    }
}

/// How a [`Partitioned`] backend divides Coflows. The router owns the
/// parts, so it can read whatever live state its policy needs from
/// their concrete types.
pub trait Router {
    /// True when each part is a switch core with its own telemetry
    /// ([`SchedulingBackend::core_status`]); false reports one core.
    const CORES: bool = true;

    /// The backend's scheduler name (by default, Sunflow on every part).
    fn name(&self) -> &'static str {
        "Sunflow"
    }

    /// The backend's switch model.
    fn switch_model(&self) -> &'static str {
        "not-all-stop"
    }

    /// Number of parts.
    fn parts(&self) -> usize;

    /// Part `i`.
    fn part(&self, i: usize) -> &dyn SchedulingBackend;

    /// Part `i`, mutably.
    fn part_mut(&mut self, i: usize) -> &mut dyn SchedulingBackend;

    /// A router-specific submit check, run after the fabric check and
    /// before the id is recorded.
    fn check(&self, _coflow: &Coflow) -> Result<(), SubmitError> {
        Ok(())
    }

    /// Divide `coflow` at its arrival instant.
    fn route(&mut self, coflow: &Coflow) -> Division;

    /// Coflow `id` has completed on every part.
    fn release(&mut self, _id: u64) {}

    /// The router's own counters, merged into the backend's stats.
    fn stats(&self) -> ReplayStats {
        ReplayStats::default()
    }
}

/// Per-Coflow reassembly state while its parts run.
struct MergeState {
    arrival: Time,
    subflows: Vec<(usize, usize, usize)>,
    parts_left: usize,
    flow_finish: Vec<Time>,
    finish: Time,
    setups: u64,
    first_service: Option<Time>,
}

/// A Coflow scheduler over parallel parts, divided by a `Router`.
///
/// Division happens at *admission*, not submission: the router sees the
/// live state of its parts as it is when the Coflow arrives, and
/// admission in `(arrival, id)` order matches batch submission.
pub struct Partitioned<R> {
    pub(crate) router: R,
    queue: Admission,
    now: Time,
    merge: HashMap<u64, MergeState>,
    completions: Vec<Completion>,
    /// Per-core processing time admitted so far at the full link rate
    /// (telemetry gauge; empty unless the router's parts are cores).
    admitted: Vec<Dur>,
}

impl<R: Router> Partitioned<R> {
    /// A partitioned backend validating submissions against `fabric`.
    pub(crate) fn with_router(fabric: &Fabric, router: R) -> Partitioned<R> {
        Partitioned {
            admitted: vec![Dur::ZERO; if R::CORES { router.parts() } else { 0 }],
            router,
            queue: Admission::new(fabric),
            now: Time::ZERO,
            merge: HashMap::new(),
            completions: Vec::new(),
        }
    }

    /// Divide and submit every queued Coflow due at or before `t`.
    fn admit_due(&mut self, t: Time) -> u64 {
        let mut n = 0u64;
        while let Some(c) = self.queue.pop_due(t) {
            let division = self.router.route(&c);
            self.merge.insert(
                c.id(),
                MergeState {
                    arrival: c.arrival(),
                    subflows: division.subflows,
                    parts_left: division.parts.iter().flatten().count(),
                    flow_finish: vec![Time::ZERO; c.num_flows()],
                    finish: c.arrival(),
                    setups: 0,
                    first_service: None,
                },
            );
            for (i, part) in division.parts.into_iter().enumerate() {
                let Some(part) = part else { continue };
                if let Some(gauge) = self.admitted.get_mut(i) {
                    let fabric = self.queue.fabric();
                    *gauge += part
                        .flows()
                        .iter()
                        .map(|f| fabric.processing_time(f.bytes))
                        .sum::<Dur>();
                }
                self.router
                    .part_mut(i)
                    .submit(part)
                    .expect("part was validated at submission");
                n += 1;
            }
        }
        n
    }

    /// Drain every part's completions into the merge states, emitting
    /// one merged [`Completion`] per Coflow once its last part lands.
    /// Parts drain in index order, so emission order is deterministic.
    fn absorb_completions(&mut self) {
        for i in 0..self.router.parts() {
            for done in self.router.part_mut(i).drain_completions() {
                let id = done.outcome.coflow;
                let st = self
                    .merge
                    .get_mut(&id)
                    .expect("completion for an unknown part");
                for &(f, _, pi) in st.subflows.iter().filter(|s| s.1 == i) {
                    st.flow_finish[f] = st.flow_finish[f].max(done.outcome.flow_finish[pi]);
                }
                st.finish = st.finish.max(done.outcome.finish);
                st.setups += done.outcome.circuit_setups;
                st.first_service = st.first_service.into_iter().chain(done.first_service).min();
                st.parts_left -= 1;
                if st.parts_left == 0 {
                    let st = self.merge.remove(&id).expect("present");
                    self.router.release(id);
                    self.completions.push(Completion {
                        outcome: ScheduleOutcome {
                            coflow: id,
                            start: st.arrival,
                            finish: st.finish,
                            flow_finish: st.flow_finish,
                            circuit_setups: st.setups,
                        },
                        first_service: st.first_service,
                    });
                }
            }
        }
    }

    /// Every part, in index order.
    fn parts(&self) -> impl Iterator<Item = &dyn SchedulingBackend> {
        (0..self.router.parts()).map(|i| self.router.part(i))
    }
}

impl<R: Router> SchedulingBackend for Partitioned<R> {
    fn name(&self) -> &'static str {
        self.router.name()
    }

    fn switch_model(&self) -> &'static str {
        self.router.switch_model()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        let router = &self.router;
        self.queue.submit(coflow, self.now, |c| router.check(c))
    }

    fn next_event_time(&self) -> Option<Time> {
        let inner = self.parts().filter_map(|p| p.next_event_time()).min();
        [self.queue.next_arrival(), inner]
            .into_iter()
            .flatten()
            .min()
    }

    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            // Admit first so a part sees arrivals due at `t` before it
            // plans at `t` — identical to batch submission, where the
            // arrival already sits in its queue.
            processed += self.admit_due(t);
            for i in 0..self.router.parts() {
                let part = self.router.part_mut(i);
                if part.next_event_time().is_some_and(|e| e <= t) {
                    processed += part.advance_to(t, hook);
                }
            }
            self.absorb_completions();
            self.now = self.now.max(t);
        }
        if deadline != Time::MAX {
            // Nothing happens strictly between events. Only this clock
            // floats, so later submissions cannot rewrite the span; the
            // parts stay at their own last event (floating the packet
            // part would split its fluid drain into more `progress`
            // steps and perturb its floating-point remainders).
            self.now = self.now.max(deadline);
        }
        processed
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.merge.is_empty()
    }

    fn active_coflows(&self) -> usize {
        self.merge.len()
    }

    fn queued_arrivals(&self) -> usize {
        self.queue.len() + self.parts().map(|p| p.queued_arrivals()).sum::<usize>()
    }

    fn outstanding_demand(&self) -> Dur {
        self.parts().map(|p| p.outstanding_demand()).sum()
    }

    fn deferred_flows(&self) -> usize {
        self.parts().map(|p| p.deferred_flows()).sum()
    }

    fn guard_windows(&self) -> u64 {
        self.parts().map(|p| p.guard_windows()).sum()
    }

    fn stats(&self) -> Option<ReplayStats> {
        let mut total = self.router.stats();
        for s in self.parts().filter_map(|p| p.stats()) {
            total.absorb(&s);
        }
        Some(total)
    }

    fn compact_history(&mut self) -> usize {
        (0..self.router.parts())
            .map(|i| self.router.part_mut(i).compact_history())
            .sum()
    }

    fn cores(&self) -> usize {
        if R::CORES {
            self.router.parts()
        } else {
            1
        }
    }

    fn core_status(&self, core: usize) -> Option<CoreStatus> {
        // The gauge has one entry per core, and none unless parts are cores.
        let demand_admitted = *self.admitted.get(core)?;
        let part = self.router.part(core);
        Some(CoreStatus {
            active_coflows: part.active_coflows(),
            outstanding_demand: part.outstanding_demand(),
            demand_admitted,
            reservations_made: part.stats().map_or(0, |s| s.reservations_made),
        })
    }
}
