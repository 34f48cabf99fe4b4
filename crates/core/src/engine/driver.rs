//! The shared event-loop driver.
//!
//! The single-region [`Engine`](super::cluster::Engine) and the
//! [`FederationEngine`](super::federation::FederationEngine) run the same
//! outer loop: pop the globally earliest pending event, and — when series
//! telemetry is on — emit gauge samples at every `k·interval` strictly
//! before the next event, so a row at time `s` reflects every event with
//! timestamp `<= s` (the engine state is piecewise-constant between
//! events). The loop lives here once; the engines supply the three
//! operations it is parameterized over.

use pascal_sim::{SimDuration, SimTime};

/// The globally next event, as both engines pick it: the next trace
/// arrival wins timestamp ties against shard events; `S` locates the shard
/// (`usize` in a cluster, `(region, shard)` in a federation).
pub(super) enum NextEvent<S> {
    /// The next trace arrival, at this time.
    Arrival(SimTime),
    /// The earliest shard event: its time and its shard.
    Shard(SimTime, S),
}

impl<S> NextEvent<S> {
    /// Races the next arrival against the earliest shard event.
    pub(super) fn pick(arrival: Option<SimTime>, shard: Option<(SimTime, S)>) -> Option<Self> {
        match shard {
            Some((t, s)) if arrival.is_none_or(|at| at > t) => Some(NextEvent::Shard(t, s)),
            _ => arrival.map(NextEvent::Arrival),
        }
    }

    /// When the event fires.
    pub(super) fn time(&self) -> SimTime {
        match *self {
            NextEvent::Arrival(t) | NextEvent::Shard(t, _) => t,
        }
    }
}

/// The engine operations the shared loop drives. Implemented by both the
/// cluster and federation engines; also the seam the windowed parallel
/// executor plugs into (see [`super::parallel`]).
pub(super) trait EventDriver {
    /// Timestamp of the globally next pending event (arrival or shard
    /// event), if any — the horizon the series sampler fills up to.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Fires the globally earliest pending event. Returns `false` once
    /// everything has drained.
    fn step(&mut self) -> bool;

    /// Emits one series gauge sample at `at`. Read-only with respect to
    /// simulation state: sampling must not perturb the run.
    fn sample(&mut self, at: SimTime);
}

/// Runs `driver` to completion, interleaving series samples at
/// `interval` when one is configured.
pub(super) fn drive<D: EventDriver>(driver: &mut D, interval: Option<SimDuration>) {
    if let Some(interval) = interval {
        let mut next_sample = SimTime::ZERO + interval;
        while let Some(horizon) = driver.next_event_time() {
            while next_sample < horizon {
                driver.sample(next_sample);
                next_sample += interval;
            }
            driver.step();
        }
    } else {
        while driver.step() {}
    }
}
