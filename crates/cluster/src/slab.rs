//! Slab storage for in-flight request state, indexed by dense handles.
//!
//! The engine's hot path touches per-request state on every event; hashing
//! a `RequestId` into a `HashMap` on each touch (and re-hashing on every
//! lifecycle edge) was the dominant per-event cost. [`RequestSlab`] stores
//! the states in a plain vector with a free list; a [`ReqHandle`] is the
//! slot index, so every access is one bounds-checked array index.
//!
//! Handles are *shard-local and lifetime-scoped*: a handle is valid from
//! [`RequestSlab::insert`] until the matching [`RequestSlab::remove`], and
//! slots are reused afterwards. The engine only stores handles in places
//! whose lifetime is covered by the request's residency on the shard
//! (queued events, the current batch, membership lists); the one
//! deliberately defensive consumer — cross-shard escape candidates — pairs
//! the handle with the [`RequestId`] and re-checks identity before acting.
//!
//! [`Members`] is the companion membership list: the set of requests
//! assigned to an instance, kept sorted by request id so iteration yields
//! the same deterministic ascending-id order the previous
//! `BTreeSet<RequestId>` did, while carrying each request's handle so
//! membership walks skip the id→state lookup entirely.

use pascal_workload::RequestId;

use crate::state::RequestState;

/// Dense handle to a request state stored in a [`RequestSlab`].
///
/// Valid from insertion until the matching removal; slots are reused, so a
/// handle held across a removal may alias a different request (see the
/// module docs for the engine's validity discipline). Ordered by slot, so
/// handles can serve as a deterministic tie-break in ordered sets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqHandle(u32);

impl ReqHandle {
    /// The raw slot index — for engine-side scratch tables indexed by slot.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Arena of [`RequestState`]s with free-list slot reuse.
#[derive(Default, Debug)]
pub struct RequestSlab {
    entries: Vec<Option<RequestState>>,
    free: Vec<u32>,
    len: usize,
}

impl RequestSlab {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        RequestSlab::default()
    }

    /// Stores `state` and returns its handle.
    pub fn insert(&mut self, state: RequestState) -> ReqHandle {
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.entries[slot as usize].is_none());
                self.entries[slot as usize] = Some(state);
                ReqHandle(slot)
            }
            None => {
                let slot = u32::try_from(self.entries.len()).expect("slab slot overflow");
                self.entries.push(Some(state));
                ReqHandle(slot)
            }
        }
    }

    /// Removes and returns the state at `handle`, freeing the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (double remove / stale handle).
    pub fn remove(&mut self, handle: ReqHandle) -> RequestState {
        let state = self.entries[handle.index()]
            .take()
            .expect("removed a vacant slab slot");
        self.free.push(handle.0);
        self.len -= 1;
        state
    }

    /// The state at `handle`, or `None` if the slot is vacant.
    #[must_use]
    pub fn get(&self, handle: ReqHandle) -> Option<&RequestState> {
        self.entries.get(handle.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the state at `handle`, or `None` if vacant.
    pub fn get_mut(&mut self, handle: ReqHandle) -> Option<&mut RequestState> {
        self.entries
            .get_mut(handle.index())
            .and_then(Option::as_mut)
    }

    /// Number of live states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no live states remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (live + free) — the sizing bound for
    /// slot-indexed scratch tables.
    #[must_use]
    pub fn slot_capacity(&self) -> usize {
        self.entries.len()
    }

    /// Iterates the live states in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ReqHandle, &RequestState)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|st| (ReqHandle(i as u32), st)))
    }
}

impl std::ops::Index<ReqHandle> for RequestSlab {
    type Output = RequestState;

    fn index(&self, handle: ReqHandle) -> &RequestState {
        self.entries[handle.index()]
            .as_ref()
            .expect("indexed a vacant slab slot")
    }
}

impl std::ops::IndexMut<ReqHandle> for RequestSlab {
    fn index_mut(&mut self, handle: ReqHandle) -> &mut RequestState {
        self.entries[handle.index()]
            .as_mut()
            .expect("indexed a vacant slab slot")
    }
}

/// An instance's membership list: `(id, handle)` pairs kept sorted by
/// request id, so iteration is deterministic ascending-id order and each
/// entry already carries the slab handle.
#[derive(Clone, Debug, Default)]
pub struct Members {
    entries: Vec<(RequestId, ReqHandle)>,
}

impl Members {
    /// Adds a request.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `id` is already a member.
    pub fn insert(&mut self, id: RequestId, handle: ReqHandle) {
        let at = self.entries.partition_point(|&(m, _)| m < id);
        debug_assert!(
            self.entries.get(at).is_none_or(|&(m, _)| m != id),
            "{id} inserted twice"
        );
        self.entries.insert(at, (id, handle));
    }

    /// Removes a request, returning its handle (`None` if absent).
    pub fn remove(&mut self, id: RequestId) -> Option<ReqHandle> {
        let at = self.entries.binary_search_by_key(&id, |&(m, _)| m).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// Iterates `(id, handle)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, ReqHandle)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the instance has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::{SimDuration, SimTime};
    use pascal_workload::RequestSpec;

    fn state(id: u64) -> RequestState {
        let spec = RequestSpec::new(RequestId(id), SimTime::ZERO, 16, 2, 2);
        RequestState::new(spec, 0, SimDuration::from_millis(100))
    }

    #[test]
    fn slab_reuses_slots_and_tracks_len() {
        let mut slab = RequestSlab::new();
        let a = slab.insert(state(1));
        let b = slab.insert(state(2));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab[a].spec.id, RequestId(1));
        let removed = slab.remove(a);
        assert_eq!(removed.spec.id, RequestId(1));
        assert_eq!(slab.len(), 1);
        assert!(slab.get(a).is_none());
        // The freed slot is reused; capacity does not grow.
        let c = slab.insert(state(3));
        assert_eq!(c.index(), a.index());
        assert_eq!(slab.slot_capacity(), 2);
        assert_eq!(slab[b].spec.id, RequestId(2));
        assert_eq!(slab[c].spec.id, RequestId(3));
    }

    #[test]
    #[should_panic(expected = "vacant slab slot")]
    fn slab_double_remove_panics() {
        let mut slab = RequestSlab::new();
        let a = slab.insert(state(1));
        let _ = slab.remove(a);
        let _ = slab.remove(a);
    }

    #[test]
    fn members_iterate_in_ascending_id_order() {
        let mut slab = RequestSlab::new();
        let mut members = Members::default();
        for id in [5u64, 1, 9, 3] {
            let h = slab.insert(state(id));
            members.insert(RequestId(id), h);
        }
        let ids: Vec<u64> = members.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        assert_eq!(members.len(), 4);
        let h3 = members.remove(RequestId(3)).expect("member exists");
        assert_eq!(slab[h3].spec.id, RequestId(3));
        assert_eq!(members.remove(RequestId(3)), None);
        let ids: Vec<u64> = members.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 5, 9]);
    }
}
