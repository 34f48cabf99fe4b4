//! Quality-of-Experience, the Andes-style metric of §II-C / Fig. 3.
//!
//! QoE compares the *digested*-token curve (what the user has consumed,
//! reading at the target TPOT pace from the token pacer's buffer) with the
//! *expected* curve (tokens arriving exactly on schedule). The score is the
//! ratio of the areas under the two step curves; 1.0 means the user never
//! starved.
//!
//! Two variants are used in the paper:
//!
//! * **Characterization** (Fig. 5): the expected curve starts a target-TTFAT
//!   after the phase transition, so a slow transition also costs QoE.
//! * **Evaluation** (§V-A "Metric"): reasoning lengths are too variable for
//!   a fixed TTFT target, so QoE is computed from TPOT only, starting at the
//!   first answering token; TTFT is reported separately.

use pascal_sim::{SimDuration, SimTime};

use crate::record::RequestRecord;

/// Parameters of the QoE computation.
///
/// # Examples
///
/// ```
/// use pascal_metrics::QoeParams;
///
/// let eval = QoeParams::paper_eval();
/// assert_eq!(eval.target_tpot.as_millis_f64(), 100.0);
/// assert!(eval.target_ttfat.is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QoeParams {
    /// Target time-per-output-token (the user's reading pace).
    pub target_tpot: SimDuration,
    /// Target time from phase transition to the first answering token. When
    /// set, the expected curve starts at `transition + target_ttfat`
    /// (characterization mode); when `None`, it starts at the first actual
    /// answering token (evaluation mode).
    pub target_ttfat: Option<SimDuration>,
}

impl QoeParams {
    /// §V-A evaluation settings: TPOT 100 ms, no TTFAT term.
    #[must_use]
    pub fn paper_eval() -> Self {
        QoeParams {
            target_tpot: SimDuration::from_millis(100),
            target_ttfat: None,
        }
    }

    /// §III characterization settings (after DistServe \[54\]): TTFAT 0.25 s,
    /// TPOT 100 ms.
    #[must_use]
    pub fn characterization() -> Self {
        QoeParams {
            target_tpot: SimDuration::from_millis(100),
            target_ttfat: Some(SimDuration::from_millis(250)),
        }
    }
}

/// QoE of a token stream generated at `gen_times`, against an expected
/// schedule starting at `expected_start` with one token per `tpot`.
///
/// Digestion model (Fig. 3): the pacer buffers bursts; the user consumes at
/// the target pace whenever the buffer is non-empty and starves otherwise.
/// Token `i` is digested at `d_i = max(g_i, d_{i-1} + tpot)` with
/// `d_0 = max(g_0, expected_start)`; it was expected at
/// `e_i = expected_start + i·tpot`. QoE is the ratio of areas under the two
/// cumulative step curves up to the horizon `max(d_n, e_n)`.
///
/// Returns 1.0 for an empty stream (nothing to starve on).
///
/// # Panics
///
/// Panics if `gen_times` is not sorted or `tpot` is zero.
#[must_use]
pub fn qoe_of_stream(gen_times: &[SimTime], expected_start: SimTime, tpot: SimDuration) -> f64 {
    assert!(tpot > SimDuration::ZERO, "tpot must be positive");
    assert!(
        gen_times.windows(2).all(|w| w[0] <= w[1]),
        "token times must be sorted"
    );
    let n = gen_times.len();
    if n == 0 {
        return 1.0;
    }

    // The digestion recurrence, replayed lazily: once for the last digest
    // time (the horizon), once more for the area — no buffer.
    let digest_times = || {
        gen_times
            .iter()
            .scan(None, |prev: &mut Option<SimTime>, &g| {
                let pace_ready = match *prev {
                    None => expected_start,
                    Some(p) => p + tpot,
                };
                let d = if g > pace_ready { g } else { pace_ready };
                *prev = Some(d);
                Some(d)
            })
    };

    let last_expected = expected_start + tpot * (n as u64 - 1);
    let last_digested = digest_times().last().expect("n > 0");
    let horizon = last_digested.max(last_expected);

    // Area under a cumulative step curve = Σ (horizon - step_time).
    let digested_area: f64 = digest_times()
        .map(|d| horizon.saturating_since(d).as_secs_f64())
        .sum();
    let expected_area: f64 = (0..n)
        .map(|i| {
            let e = expected_start + tpot * i as u64;
            horizon.saturating_since(e).as_secs_f64()
        })
        .sum();

    if expected_area <= 0.0 {
        // Degenerate single-token case where digestion was exactly on time.
        return 1.0;
    }
    (digested_area / expected_area).clamp(0.0, 1.0)
}

/// QoE of a request's answering phase under `params`.
///
/// Returns `None` for requests with no answering tokens (e.g. the Fig. 4
/// characterization workload) — they have no user-visible stream to score.
#[must_use]
pub fn answering_qoe(record: &RequestRecord, params: &QoeParams) -> Option<f64> {
    let answers = record.answer_token_times();
    if answers.is_empty() {
        return None;
    }
    let expected_start = match params.target_ttfat {
        Some(ttfat) => record.phase_transition_time()? + ttfat,
        None => answers[0],
    };
    Some(qoe_of_stream(answers, expected_start, params.target_tpot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn stream(start: f64, gap: f64, n: usize) -> Vec<SimTime> {
        (0..n).map(|i| secs(start + gap * i as f64)).collect()
    }

    #[test]
    fn on_pace_generation_scores_one() {
        let tokens = stream(0.0, 0.1, 50);
        let qoe = qoe_of_stream(&tokens, secs(0.0), SimDuration::from_millis(100));
        assert!((qoe - 1.0).abs() < 1e-9, "qoe {qoe}");
    }

    #[test]
    fn faster_than_pace_is_still_one() {
        // Burst generation: the pacer buffers, the user reads on schedule.
        let tokens = stream(0.0, 0.01, 50);
        let qoe = qoe_of_stream(&tokens, secs(0.0), SimDuration::from_millis(100));
        assert!((qoe - 1.0).abs() < 1e-9, "qoe {qoe}");
    }

    #[test]
    fn stall_mid_stream_costs_qoe() {
        // 10 on-pace tokens, then a 2 s stall, then 10 more (Fig. 3(iii)).
        let mut tokens = stream(0.0, 0.1, 10);
        tokens.extend(stream(3.0, 0.1, 10));
        let qoe = qoe_of_stream(&tokens, secs(0.0), SimDuration::from_millis(100));
        assert!(qoe < 0.95, "stalled stream should violate: {qoe}");
        assert!(qoe > 0.2, "but not collapse to zero: {qoe}");
    }

    #[test]
    fn slower_pace_generation_degrades_gradually() {
        let on_pace = qoe_of_stream(
            &stream(0.0, 0.1, 50),
            secs(0.0),
            SimDuration::from_millis(100),
        );
        let slow_10 = qoe_of_stream(
            &stream(0.0, 0.11, 50),
            secs(0.0),
            SimDuration::from_millis(100),
        );
        let slow_50 = qoe_of_stream(
            &stream(0.0, 0.15, 50),
            secs(0.0),
            SimDuration::from_millis(100),
        );
        assert!(on_pace > slow_10 && slow_10 > slow_50);
    }

    #[test]
    fn empty_stream_is_perfect() {
        assert_eq!(
            qoe_of_stream(&[], secs(0.0), SimDuration::from_millis(100)),
            1.0
        );
    }

    #[test]
    fn single_on_time_token_is_perfect() {
        let qoe = qoe_of_stream(&[secs(1.0)], secs(1.0), SimDuration::from_millis(100));
        assert_eq!(qoe, 1.0);
    }

    #[test]
    fn ttfat_target_mode_charges_late_transition() {
        use pascal_workload::{RequestId, RequestSpec};
        // Transition at t=1.0; first answer only at t=2.0 (late by 0.75 s
        // against the 0.25 s TTFAT target), then on pace.
        let spec = RequestSpec::new(RequestId(0), secs(0.0), 128, 1, 10);
        let mut token_times = vec![secs(1.0)];
        token_times.extend(stream(2.0, 0.1, 10));
        let record = crate::record::RequestRecord {
            spec,
            token_times,
            completion: secs(2.9),
            executed: SimDuration::from_secs_f64(2.9),
            blocked: SimDuration::ZERO,
            preempted: SimDuration::ZERO,
            num_preemptions: 0,
            answer_resume_time: Some(secs(2.0)),
            migration: None,
            instances_visited: vec![0],
        };
        let eval = answering_qoe(&record, &QoeParams::paper_eval()).unwrap();
        let charac = answering_qoe(&record, &QoeParams::characterization()).unwrap();
        assert!(
            (eval - 1.0).abs() < 1e-9,
            "TPOT-only mode ignores TTFAT: {eval}"
        );
        assert!(charac < 0.9, "characterization mode charges it: {charac}");
    }

    /// The buffered form of [`qoe_of_stream`]: digest times collected into
    /// a vector, then summed.
    fn qoe_buffered(gen_times: &[SimTime], expected_start: SimTime, tpot: SimDuration) -> f64 {
        let n = gen_times.len();
        if n == 0 {
            return 1.0;
        }
        let mut digest_times = Vec::with_capacity(n);
        let mut prev: Option<SimTime> = None;
        for &g in gen_times {
            let pace_ready = prev.map_or(expected_start, |p| p + tpot);
            let d = g.max(pace_ready);
            digest_times.push(d);
            prev = Some(d);
        }
        let last_expected = expected_start + tpot * (n as u64 - 1);
        let horizon = digest_times[n - 1].max(last_expected);
        let digested_area: f64 = digest_times
            .iter()
            .map(|d| horizon.saturating_since(*d).as_secs_f64())
            .sum();
        let expected_area: f64 = (0..n)
            .map(|i| {
                horizon
                    .saturating_since(expected_start + tpot * i as u64)
                    .as_secs_f64()
            })
            .sum();
        if expected_area <= 0.0 {
            return 1.0;
        }
        (digested_area / expected_area).clamp(0.0, 1.0)
    }

    proptest! {
        /// The allocation-free recurrence replay is bit-identical to the
        /// buffered computation.
        #[test]
        fn prop_matches_buffered_digest(
            gaps in proptest::collection::vec(0.0f64..0.4, 0..80),
            start_offset in 0.0f64..2.0,
        ) {
            let mut t = 1.0;
            let tokens: Vec<SimTime> = gaps.iter().map(|g| { t += g; secs(t) }).collect();
            let start = secs(start_offset);
            let tpot = SimDuration::from_millis(100);
            prop_assert_eq!(
                qoe_of_stream(&tokens, start, tpot).to_bits(),
                qoe_buffered(&tokens, start, tpot).to_bits()
            );
        }

        /// QoE is always within [0, 1].
        #[test]
        fn prop_qoe_bounded(gaps in proptest::collection::vec(0.0f64..1.0, 1..100)) {
            let mut t = 0.0;
            let tokens: Vec<SimTime> = gaps.iter().map(|g| { t += g; secs(t) }).collect();
            let qoe = qoe_of_stream(&tokens, tokens[0], SimDuration::from_millis(100));
            prop_assert!((0.0..=1.0).contains(&qoe));
        }

        /// Delaying every token after the first can never raise QoE.
        #[test]
        fn prop_delay_never_helps(
            n in 2usize..50,
            delay_ms in 1u64..5000,
        ) {
            let base = stream(0.0, 0.1, n);
            let mut delayed = base.clone();
            let extra = SimDuration::from_millis(delay_ms);
            for t in delayed.iter_mut().skip(1) {
                *t += extra;
            }
            let q_base = qoe_of_stream(&base, base[0], SimDuration::from_millis(100));
            let q_delayed = qoe_of_stream(&delayed, delayed[0], SimDuration::from_millis(100));
            prop_assert!(q_delayed <= q_base + 1e-12);
        }
    }
}
