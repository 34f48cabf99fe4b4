//! The per-instance tallies the instance-monitor rows are built from.
//!
//! Every request in the slab counts toward the monitor row of the instance
//! whose member list holds it. Of what the row reports, three inputs
//! depend on the members, and each is kept up to date here instead of
//! being re-derived by a member sweep:
//!
//! * `r_i` — a counter of reasoning members that are not demoted;
//! * `a_i` — a counter of answering members with no quantum used yet;
//! * `t_i` — a dense **pace column** holding `(on_pace_until, handle)` for
//!   every answering member whose pacer has started. The instance is on
//!   pace while `now` is below the column's minimum, so one min-scan over
//!   the started streams gives both `slo_ok` and the row's cache expiry.
//!
//! Like the [schedule index](super::sched_index), each request's [`Tally`]
//! is cached per slab slot, and [`MonitorTallies::refile`] applies only the
//! difference between that cache and the tally the request's state asks
//! for. The one input that moves at every token — an answering stream's
//! pacer deadline — is written in place by [`MonitorTallies::set_pace`].

use std::cell::Cell;

use pascal_cluster::ReqHandle;
use pascal_sim::SimTime;
use pascal_telemetry::MonitorCounters;

/// What one request contributes to its instance's monitor row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct Tally {
    pub(super) instance: u32,
    /// Counted in `reasoning_count`: reasoning and not demoted.
    pub(super) reasoning: bool,
    /// Counted in `fresh_answering_count`: answering, no quantum used.
    pub(super) fresh_answering: bool,
    /// The pacer deadline of an answering member whose stream started —
    /// its entry in the pace column.
    pub(super) pace_until: Option<SimTime>,
}

/// One instance's tallies.
#[derive(Default)]
struct InstanceTally {
    reasoning: u32,
    fresh_answering: u32,
    pace: Vec<(SimTime, ReqHandle)>,
}

/// The member-dependent part of one instance's monitor row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct TallyRow {
    pub(super) reasoning: u32,
    pub(super) fresh_answering: u32,
    /// Whether every started answering stream is on pace at the query time.
    pub(super) slo_ok: bool,
    /// When `slo_ok` flips with no further event (the earliest pacer
    /// deadline); `None` when nothing is paced or the row is already off
    /// pace — an off-pace row cannot heal with time alone.
    pub(super) valid_until: Option<SimTime>,
}

/// The shard's monitor tallies: one [`InstanceTally`] per local instance,
/// the per-slot tally cache, and the monitor work counters.
pub(crate) struct MonitorTallies {
    instances: Vec<InstanceTally>,
    filed: Vec<Option<Tally>>,
    /// Each paced slot's position in its instance's pace column.
    pace_at: Vec<u32>,
    /// A `Cell` because rows are read inside the `&self` monitor sweep.
    pub(super) counters: Cell<MonitorCounters>,
}

impl MonitorTallies {
    pub(super) fn new(instances: usize) -> Self {
        MonitorTallies {
            instances: (0..instances).map(|_| InstanceTally::default()).collect(),
            filed: Vec::new(),
            pace_at: Vec::new(),
            counters: Cell::new(MonitorCounters::default()),
        }
    }

    /// Moves `handle`'s contribution from where it is tallied to `want`
    /// (`None` = counted nowhere), touching only what differs.
    pub(super) fn refile(&mut self, handle: ReqHandle, want: Option<Tally>) {
        let slot = handle.index();
        if self.filed.len() <= slot {
            self.filed.resize(slot + 1, None);
            self.pace_at.resize(slot + 1, 0);
        }
        let had = self.filed[slot];
        if had == want {
            return;
        }
        if let Some(old) = had {
            let tally = &mut self.instances[old.instance as usize];
            tally.reasoning -= u32::from(old.reasoning);
            tally.fresh_answering -= u32::from(old.fresh_answering);
        }
        if let Some(new) = want {
            let tally = &mut self.instances[new.instance as usize];
            tally.reasoning += u32::from(new.reasoning);
            tally.fresh_answering += u32::from(new.fresh_answering);
        }
        // The pace entry stays put (and only its deadline moves) while the
        // stream stays paced on the same instance.
        let paced = |f: Option<Tally>| f.and_then(|f| Some((f.instance, f.pace_until?)));
        match (paced(had), paced(want)) {
            (Some((old, _)), Some((new, until))) if old == new => {
                let at = self.pace_at[slot] as usize;
                self.instances[new as usize].pace[at].0 = until;
            }
            (old, new) => {
                if let Some((old, _)) = old {
                    let pace = &mut self.instances[old as usize].pace;
                    let at = self.pace_at[slot] as usize;
                    pace.swap_remove(at);
                    if let Some(&(_, moved)) = pace.get(at) {
                        self.pace_at[moved.index()] = at as u32;
                    }
                }
                if let Some((new, until)) = new {
                    let pace = &mut self.instances[new as usize].pace;
                    self.pace_at[slot] = pace.len() as u32;
                    pace.push((until, handle));
                }
            }
        }
        self.filed[slot] = want;
    }

    /// Moves an already paced `handle`'s deadline to `until` in place —
    /// the per-token update of an answering stream.
    pub(super) fn set_pace(&mut self, handle: ReqHandle, until: SimTime) {
        let slot = handle.index();
        let tally = self.filed[slot]
            .as_mut()
            .filter(|f| f.pace_until.is_some())
            .expect("set_pace on a stream that is not in the pace column");
        tally.pace_until = Some(until);
        let at = self.pace_at[slot] as usize;
        self.instances[tally.instance as usize].pace[at].0 = until;
    }

    /// Applies `f` to the work counters.
    pub(super) fn count(&self, f: impl FnOnce(&mut MonitorCounters)) {
        let mut counters = self.counters.get();
        f(&mut counters);
        self.counters.set(counters);
    }

    /// `instance`'s member-dependent row at `now`: the two counters and
    /// one min-scan over the pace column.
    pub(super) fn row(&self, instance: u32, now: SimTime) -> TallyRow {
        let tally = &self.instances[instance as usize];
        self.count(|c| c.pace_entries_scanned += tally.pace.len() as u64);
        let earliest = tally.pace.iter().map(|&(until, _)| until).min();
        let slo_ok = earliest.is_none_or(|until| now < until);
        TallyRow {
            reasoning: tally.reasoning,
            fresh_answering: tally.fresh_answering,
            slo_ok,
            valid_until: earliest.filter(|_| slo_ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_cluster::{RequestSlab, RequestState};
    use pascal_sim::SimDuration;
    use pascal_workload::{RequestId, RequestSpec};
    use proptest::prelude::*;

    const INSTANCES: usize = 3;
    const SLOTS: usize = 24;

    /// The reference: each instance's row recounted from every slot's
    /// wanted tally, the way the member sweep derives it.
    fn recount(model: &[Option<Tally>], instance: u32, now: SimTime) -> TallyRow {
        let mine = || model.iter().flatten().filter(|f| f.instance == instance);
        let earliest = mine().filter_map(|f| f.pace_until).min();
        let slo_ok = mine().all(|f| f.pace_until.is_none_or(|until| now < until));
        TallyRow {
            reasoning: mine().filter(|f| f.reasoning).count() as u32,
            fresh_answering: mine().filter(|f| f.fresh_answering).count() as u32,
            slo_ok,
            valid_until: earliest.filter(|_| slo_ok),
        }
    }

    proptest! {
        /// The incrementally maintained tallies and pace column equal a
        /// recount after every step of a random sequence of joins,
        /// departures, phase flips, demotions, quantum crossings, first
        /// answering tokens, answering tokens and instance moves.
        ///
        /// Each op is `((opcode, slot), operand)`: opcodes below 15 join an
        /// absent slot as a reasoning member, 15..=24 leave, 25..=34 flip a
        /// reasoning member to answering (fresh or not, per operand),
        /// 35..=44 demote it, 45..=54 cross a quantum, 55..=64 start an
        /// answering stream's pacer, 65..=84 emit an answering token (an
        /// in-place deadline write), the rest move the slot to instance
        /// `operand % INSTANCES`. Ops that do not apply to the slot's state
        /// leave it unchanged.
        #[test]
        fn prop_tallies_match_recount(
            ops in proptest::collection::vec(((0u32..100, 0usize..SLOTS), 0u32..64), 1..300)
        ) {
            let mut slab = RequestSlab::new();
            let handles: Vec<ReqHandle> = (0..SLOTS as u64)
                .map(|id| {
                    let spec = RequestSpec::new(RequestId(id), SimTime::ZERO, 16, 2, 2);
                    slab.insert(RequestState::new(spec, 0, SimDuration::from_millis(100)))
                })
                .collect();
            let mut model: Vec<Option<Tally>> = vec![None; SLOTS];
            let mut tallies = MonitorTallies::new(INSTANCES);
            let deadline = |operand: u32| Some(SimTime::from_nanos(u64::from(operand) * 1_000));
            for (step, ((opcode, slot), operand)) in ops.into_iter().enumerate() {
                let current = model[slot];
                let next = match opcode {
                    0..=14 => current.or(Some(Tally {
                        instance: operand % INSTANCES as u32,
                        reasoning: true,
                        fresh_answering: false,
                        pace_until: None,
                    })),
                    15..=24 => None,
                    25..=34 => current.filter(|f| f.reasoning).map(|f| Tally {
                        reasoning: false,
                        fresh_answering: operand % 2 == 0,
                        ..f
                    }),
                    35..=44 => current.filter(|f| f.reasoning).map(|f| Tally { reasoning: false, ..f }),
                    45..=54 => current.map(|f| Tally { fresh_answering: false, ..f }),
                    55..=64 => current
                        .filter(|f| !f.reasoning && f.pace_until.is_none())
                        .map(|f| Tally { pace_until: deadline(operand), ..f }),
                    65..=84 if current.is_some_and(|f| f.pace_until.is_some()) => {
                        tallies.set_pace(handles[slot], deadline(operand).unwrap());
                        current.map(|f| Tally { pace_until: deadline(operand), ..f })
                    }
                    65..=84 => current,
                    _ => current.map(|f| Tally { instance: operand % INSTANCES as u32, ..f }),
                };
                model[slot] = next;
                tallies.refile(handles[slot], next);

                let now = SimTime::from_nanos((step as u64 % 64) * 1_000);
                for instance in 0..INSTANCES as u32 {
                    prop_assert_eq!(tallies.row(instance, now), recount(&model, instance, now));
                    let mut column: Vec<(SimTime, ReqHandle)> =
                        tallies.instances[instance as usize].pace.clone();
                    column.sort_unstable();
                    let mut expected: Vec<(SimTime, ReqHandle)> = model
                        .iter()
                        .zip(&handles)
                        .filter_map(|(f, &h)| {
                            f.filter(|f| f.instance == instance)
                                .and_then(|f| f.pace_until)
                                .map(|until| (until, h))
                        })
                        .collect();
                    expected.sort_unstable();
                    prop_assert_eq!(column, expected);
                }
            }
        }
    }

    #[test]
    fn row_flips_off_pace_at_the_earliest_deadline() {
        let mut slab = RequestSlab::new();
        let mut handle = |id| {
            let spec = RequestSpec::new(RequestId(id), SimTime::ZERO, 16, 2, 2);
            slab.insert(RequestState::new(spec, 0, SimDuration::from_millis(100)))
        };
        let (a, b) = (handle(0), handle(1));
        let mut tallies = MonitorTallies::new(1);
        let paced = |until| Tally {
            instance: 0,
            reasoning: false,
            fresh_answering: false,
            pace_until: Some(SimTime::from_nanos(until)),
        };
        tallies.refile(a, Some(paced(50)));
        tallies.refile(b, Some(paced(80)));
        let row = tallies.row(0, SimTime::from_nanos(10));
        assert!(row.slo_ok);
        assert_eq!(row.valid_until, Some(SimTime::from_nanos(50)));
        let row = tallies.row(0, SimTime::from_nanos(50));
        assert!(!row.slo_ok);
        assert_eq!(row.valid_until, None);
        // A token moves `a`'s deadline past `b`'s.
        tallies.set_pace(a, SimTime::from_nanos(150));
        assert_eq!(
            tallies.row(0, SimTime::from_nanos(60)).valid_until,
            Some(SimTime::from_nanos(80))
        );
        // Leaving swaps the last entry into the vacated position.
        tallies.refile(a, None);
        tallies.set_pace(b, SimTime::from_nanos(90));
        assert_eq!(
            tallies.row(0, SimTime::from_nanos(60)).valid_until,
            Some(SimTime::from_nanos(90))
        );
        assert_eq!(tallies.counters.get().pace_entries_scanned, 2 + 2 + 2 + 1);
    }
}
