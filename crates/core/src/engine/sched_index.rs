//! The per-instance schedule index the scheduling pass reads.
//!
//! Each instance keeps two ordered sets, updated in place at the few
//! lifecycle edges that change them:
//!
//! * the **candidate index** — every member not in flight out of the
//!   instance (`Migrating`, `OffloadingToCpu`), ordered by
//!   `(PriorityKey, ReqHandle)`. The key is a total order ending in the
//!   request id, so iterating the index yields exactly the order a
//!   rebuild-and-sort of the members would;
//! * the **resident set** — the members whose KV is on the GPU, in
//!   ascending request id order (the order the pass preempts them in).
//!
//! A request is *filed* under at most one instance at a time, and the
//! [`Filing`] it was filed under is cached per slab slot. [`ScheduleIndex::refile`]
//! compares that cache with the filing the request's current state asks
//! for and applies only the difference — a key change is a remove plus a
//! reinsert (PASCAL's keys move both ways: quanta grow, and reset at the
//! phase flip), a residency change touches only the resident set, a
//! vacated slot drops out of both. The scheduling pass therefore costs
//! O(desired + residents + log n) instead of O(members).

use std::collections::BTreeSet;

use pascal_cluster::{Members, ReqHandle};
use pascal_sched::PriorityKey;
use pascal_telemetry::SchedPassCounters;
use pascal_workload::RequestId;

/// Where a request is filed: its instance, the key it sits under in that
/// instance's candidate index, and whether it is in the resident set.
/// Requests outside the candidate set are not filed at all, and every
/// resident is a candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct Filing {
    pub(super) instance: u32,
    pub(super) key: PriorityKey,
    pub(super) resident: bool,
}

/// One instance's half of the index.
#[derive(Default)]
struct InstanceIndex {
    cands: BTreeSet<(PriorityKey, ReqHandle)>,
    residents: Members,
}

/// The shard's schedule index: one [`InstanceIndex`] per local instance,
/// the per-slot filing cache, and the scheduling-pass work counters.
pub(crate) struct ScheduleIndex {
    instances: Vec<InstanceIndex>,
    filed: Vec<Option<Filing>>,
    pub(super) counters: SchedPassCounters,
}

impl ScheduleIndex {
    pub(super) fn new(instances: usize) -> Self {
        ScheduleIndex {
            instances: (0..instances).map(|_| InstanceIndex::default()).collect(),
            filed: Vec::new(),
            counters: SchedPassCounters::default(),
        }
    }

    /// Moves `handle`'s entries from where they are filed to `want`
    /// (`None` = file nowhere), touching only the parts that differ.
    pub(super) fn refile(&mut self, handle: ReqHandle, want: Option<Filing>) {
        let slot = handle.index();
        if self.filed.len() <= slot {
            self.filed.resize(slot + 1, None);
        }
        let had = self.filed[slot];
        if had == want {
            return;
        }
        // The candidate entry moves when the instance or key changes; the
        // resident entry when GPU residency on an instance starts or ends.
        let entry = |f: Option<Filing>| f.map(|f| (f.instance, f.key));
        let resident_at = |f: Option<Filing>| f.filter(|f| f.resident).map(|f| f.instance);
        if entry(had) != entry(want) {
            if let Some(old) = had {
                let cands = &mut self.instances[old.instance as usize].cands;
                cands.remove(&(old.key, handle));
                self.counters.index_updates += 1;
            }
            if let Some(new) = want {
                let cands = &mut self.instances[new.instance as usize].cands;
                cands.insert((new.key, handle));
                self.counters.index_updates += 1;
            }
        }
        if resident_at(had) != resident_at(want) {
            if let Some(old) = had.filter(|f| f.resident) {
                let residents = &mut self.instances[old.instance as usize].residents;
                residents.remove(RequestId(old.key.id));
                self.counters.index_updates += 1;
            }
            if let Some(new) = want.filter(|f| f.resident) {
                let residents = &mut self.instances[new.instance as usize].residents;
                residents.insert(RequestId(new.key.id), handle);
                self.counters.index_updates += 1;
            }
        }
        self.filed[slot] = want;
    }

    /// `instance`'s candidates, highest priority first.
    pub(super) fn candidates(&self, instance: u32) -> impl Iterator<Item = ReqHandle> + '_ {
        self.instances[instance as usize]
            .cands
            .iter()
            .map(|&(_, handle)| handle)
    }

    /// `instance`'s GPU residents, in ascending request id order.
    pub(super) fn residents(&self, instance: u32) -> &Members {
        &self.instances[instance as usize].residents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_cluster::{RequestSlab, RequestState};
    use pascal_sim::{SimDuration, SimTime};
    use pascal_workload::RequestSpec;
    use proptest::prelude::*;

    const INSTANCES: usize = 3;

    proptest! {
        /// The incrementally maintained index equals a rebuild-and-sort
        /// reference after every step of a random sequence of arrivals,
        /// departures, key changes (up and down), exclusions,
        /// re-inclusions, residency flips and instance moves.
        ///
        /// Each op is `((opcode, slot), operand)`: opcodes below 20 file an
        /// unfiled slot, 20..=34 vacate a slot, 35..=64 rekey it (operand
        /// picks class and quanta), 65..=79 exclude it (in flight), 80..=89
        /// flip its residency, the rest move it to instance
        /// `operand % INSTANCES`.
        #[test]
        fn prop_index_matches_rebuild_and_sort(
            ops in proptest::collection::vec(((0u32..100, 0usize..24), 0u32..64), 1..300)
        ) {
            // Slab handles for 24 slots; the index only needs the handles.
            let mut slab = RequestSlab::new();
            let handles: Vec<ReqHandle> = (0..24u64)
                .map(|id| {
                    let spec = RequestSpec::new(RequestId(id), SimTime::ZERO, 16, 2, 2);
                    slab.insert(RequestState::new(spec, 0, SimDuration::from_millis(100)))
                })
                .collect();
            // The reference model: each slot's wanted filing, by value.
            let mut model: Vec<Option<Filing>> = vec![None; handles.len()];
            let mut index = ScheduleIndex::new(INSTANCES);
            let key_of = |slot: usize, operand: u32| PriorityKey {
                class: (operand % 2) as u8,
                quanta: operand / 2,
                // Arrival order deliberately disagrees with id order.
                arrival_nanos: ((slot * 7) % 24) as u64,
                id: slot as u64,
            };
            for ((opcode, slot), operand) in ops {
                let current = model[slot];
                let next = match opcode {
                    0..=19 => current.or(Some(Filing {
                        instance: operand % INSTANCES as u32,
                        key: key_of(slot, operand),
                        resident: operand % 3 == 0,
                    })),
                    20..=34 | 65..=79 => None,
                    35..=64 => current.map(|f| Filing { key: key_of(slot, operand), ..f }),
                    80..=89 => current.map(|f| Filing { resident: !f.resident, ..f }),
                    _ => current.map(|f| Filing { instance: operand % INSTANCES as u32, ..f }),
                };
                model[slot] = next;
                index.refile(handles[slot], next);

                for instance in 0..INSTANCES as u32 {
                    let mut expected: Vec<(PriorityKey, ReqHandle)> = model
                        .iter()
                        .zip(&handles)
                        .filter_map(|(f, &h)| f.filter(|f| f.instance == instance).map(|f| (f.key, h)))
                        .collect();
                    expected.sort_unstable();
                    let actual: Vec<ReqHandle> = index.candidates(instance).collect();
                    let expected_order: Vec<ReqHandle> = expected.iter().map(|&(_, h)| h).collect();
                    prop_assert_eq!(actual, expected_order);

                    let expected_residents: Vec<u64> = (0..handles.len())
                        .filter(|&s| model[s].is_some_and(|f| f.instance == instance && f.resident))
                        .map(|s| s as u64)
                        .collect();
                    let residents: Vec<u64> =
                        index.residents(instance).iter().map(|(id, _)| id.0).collect();
                    prop_assert_eq!(residents, expected_residents);
                }
            }
        }
    }

    #[test]
    fn refile_touches_only_what_changed() {
        let mut slab = RequestSlab::new();
        let spec = RequestSpec::new(RequestId(5), SimTime::ZERO, 16, 2, 2);
        let h = slab.insert(RequestState::new(spec, 0, SimDuration::from_millis(100)));
        let key = PriorityKey {
            class: 0,
            quanta: 0,
            arrival_nanos: 0,
            id: 5,
        };
        let mut index = ScheduleIndex::new(2);
        let waiting = Filing {
            instance: 0,
            key,
            resident: false,
        };
        index.refile(h, Some(waiting));
        assert_eq!(index.counters.index_updates, 1);
        // Same filing again: a no-op.
        index.refile(h, Some(waiting));
        assert_eq!(index.counters.index_updates, 1);
        // Becoming resident touches only the resident set.
        index.refile(
            h,
            Some(Filing {
                resident: true,
                ..waiting
            }),
        );
        assert_eq!(index.counters.index_updates, 2);
        assert_eq!(index.residents(0).len(), 1);
        // Vacating removes both entries.
        index.refile(h, None);
        assert_eq!(index.counters.index_updates, 4);
        assert_eq!(index.candidates(0).count(), 0);
        assert!(index.residents(0).is_empty());
    }
}
