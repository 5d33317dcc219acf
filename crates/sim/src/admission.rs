//! The submit path shared by every backend that queues its own
//! arrivals: the fabric, duplicate-id and clock checks, the set of ids
//! ever accepted, and the future arrivals in `(arrival, id)` order.

use crate::stepper::SubmitError;
use ocs_model::{Coflow, Fabric, Time};
use std::collections::{BTreeMap, HashSet};

/// Submitted Coflows waiting for their arrival instant.
///
/// Arrivals leave in `(arrival, id)` order — the order batch submission
/// admits them in — so a backend that admits at arrival time replays
/// exactly like one handed the whole trace up front.
pub(crate) struct Admission {
    fabric: Fabric,
    /// Every id ever accepted (duplicate rejection).
    ids: HashSet<u64>,
    pending: BTreeMap<(Time, u64), Coflow>,
}

impl Admission {
    /// An empty queue validating submissions against `fabric`.
    pub(crate) fn new(fabric: &Fabric) -> Admission {
        Admission {
            fabric: *fabric,
            ids: HashSet::new(),
            pending: BTreeMap::new(),
        }
    }

    /// The fabric submissions are validated against.
    pub(crate) fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Queue `coflow` after the fabric check, the caller's own `check`,
    /// the duplicate-id check and the clock check against `now`, in that
    /// order. A refused Coflow's id is not retained, so a corrected
    /// resubmission succeeds.
    pub(crate) fn submit(
        &mut self,
        coflow: Coflow,
        now: Time,
        check: impl FnOnce(&Coflow) -> Result<(), SubmitError>,
    ) -> Result<(), SubmitError> {
        if !self.fabric.fits(&coflow) {
            return Err(SubmitError::ExceedsFabric {
                id: coflow.id(),
                ports: self.fabric.ports(),
            });
        }
        check(&coflow)?;
        if self.ids.contains(&coflow.id()) {
            return Err(SubmitError::DuplicateId(coflow.id()));
        }
        if coflow.arrival() < now {
            return Err(SubmitError::ArrivalInPast {
                arrival: coflow.arrival(),
                now,
            });
        }
        self.ids.insert(coflow.id());
        self.pending.insert((coflow.arrival(), coflow.id()), coflow);
        Ok(())
    }

    /// The earliest queued arrival.
    pub(crate) fn next_arrival(&self) -> Option<Time> {
        self.pending.keys().next().map(|&(a, _)| a)
    }

    /// Take the next Coflow arriving at or before `t`.
    pub(crate) fn pop_due(&mut self, t: Time) -> Option<Coflow> {
        if self.next_arrival()? > t {
            return None;
        }
        self.pending.pop_first().map(|(_, c)| c)
    }

    /// The queued Coflows, in admission order.
    pub(crate) fn queued(&self) -> impl Iterator<Item = &Coflow> {
        self.pending.values()
    }

    /// Number of queued Coflows.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}
