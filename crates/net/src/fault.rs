//! Fault injection: scheduled network outages.
//!
//! The paper's *reliable* streaming mode exists precisely to survive
//! "temporal network failures" (§4). A [`FaultSchedule`] is a sorted list of
//! `[start, end)` outage windows that links consult before delivering.

use cg_sim::{SimDuration, SimRng, SimTime};

/// A set of non-overlapping outage windows, sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// `(start, end)` pairs, `start < end`, non-overlapping, sorted.
    windows: Vec<(SimTime, SimTime)>,
}

impl FaultSchedule {
    /// A schedule with no outages.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Builds from explicit windows; sorts, validates, and merges overlaps.
    pub fn from_windows(mut windows: Vec<(SimTime, SimTime)>) -> Self {
        windows.retain(|&(s, e)| s < e);
        windows.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        FaultSchedule { windows: merged }
    }

    /// Periodic outages: down for `down` every `period`, starting at `first`.
    /// Generates windows up to `horizon`.
    ///
    /// Degenerate parameters are clamped instead of panicking: a `down`
    /// that reaches or exceeds `period` (or a zero `period`, which would
    /// otherwise never advance) collapses into one continuous outage
    /// `[first, horizon)`, and a zero `down` yields no outages at all.
    pub fn periodic(
        first: SimTime,
        period: SimDuration,
        down: SimDuration,
        horizon: SimTime,
    ) -> Self {
        if down.is_zero() || first >= horizon {
            return FaultSchedule::none();
        }
        if period.is_zero() || down >= period {
            // Windows would touch or overlap: the link is just down.
            return FaultSchedule::from_windows(vec![(first, horizon)]);
        }
        let mut windows = Vec::new();
        let mut t = first;
        while t < horizon {
            windows.push((t, t + down));
            t += period;
        }
        FaultSchedule::from_windows(windows)
    }

    /// Random outages: exponential up-times with mean `mean_up`, outage
    /// lengths exponential with mean `mean_down`, up to `horizon`.
    pub fn random(
        rng: &mut SimRng,
        mean_up: SimDuration,
        mean_down: SimDuration,
        horizon: SimTime,
    ) -> Self {
        let mut windows = Vec::new();
        let mut t = SimTime::ZERO + rng.exp(mean_up.as_secs_f64());
        while t < horizon {
            let down = rng
                .exp(mean_down.as_secs_f64())
                .max(SimDuration::from_millis(1));
            windows.push((t, t + down));
            t = t + down + rng.exp(mean_up.as_secs_f64());
        }
        FaultSchedule::from_windows(windows)
    }

    /// Is the link down at instant `t`?
    pub fn is_down(&self, t: SimTime) -> bool {
        // Binary search the last window starting at or before t.
        match self.windows.partition_point(|&(s, _)| s <= t) {
            0 => false,
            i => t < self.windows[i - 1].1,
        }
    }

    /// If down at `t`, the instant the current outage ends; otherwise `None`.
    pub fn up_at(&self, t: SimTime) -> Option<SimTime> {
        match self.windows.partition_point(|&(s, _)| s <= t) {
            0 => None,
            i => {
                let (_, end) = self.windows[i - 1];
                (t < end).then_some(end)
            }
        }
    }

    /// The next outage starting strictly after `t`, if any.
    pub fn next_outage_after(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        let i = self.windows.partition_point(|&(s, _)| s <= t);
        self.windows.get(i).copied()
    }

    /// The next instant strictly after `t` at which the up/down state
    /// changes: while down, the end of the current outage; while up, the
    /// start of the next one. `None` once the schedule is exhausted — the
    /// link stays up forever after its last window.
    pub fn next_transition(&self, t: SimTime) -> Option<SimTime> {
        match self.up_at(t) {
            Some(end) => Some(end),
            None => self.next_outage_after(t).map(|(s, _)| s),
        }
    }

    /// True if the whole span `[start, end)` is outage-free.
    pub fn clear_between(&self, start: SimTime, end: SimTime) -> bool {
        if self.is_down(start) {
            return false;
        }
        match self.next_outage_after(start) {
            Some((s, _)) => s >= end,
            None => true,
        }
    }

    /// The outage windows.
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_schedule_is_always_up() {
        let f = FaultSchedule::none();
        assert!(!f.is_down(t(0)));
        assert!(!f.is_down(t(1_000_000)));
        assert_eq!(f.up_at(t(5)), None);
        assert!(f.clear_between(t(0), t(100)));
    }

    #[test]
    fn window_membership_is_half_open() {
        let f = FaultSchedule::from_windows(vec![(t(10), t(20))]);
        assert!(!f.is_down(t(9)));
        assert!(f.is_down(t(10)));
        assert!(f.is_down(t(19)));
        assert!(!f.is_down(t(20)));
        assert_eq!(f.up_at(t(15)), Some(t(20)));
        assert_eq!(f.up_at(t(25)), None);
    }

    #[test]
    fn overlapping_windows_merge() {
        let f = FaultSchedule::from_windows(vec![(t(10), t(20)), (t(15), t(30)), (t(40), t(50))]);
        assert_eq!(f.windows(), &[(t(10), t(30)), (t(40), t(50))]);
        // Inverted windows are dropped.
        let g = FaultSchedule::from_windows(vec![(t(5), t(5)), (t(7), t(6))]);
        assert!(g.windows().is_empty());
    }

    #[test]
    fn periodic_generates_expected_windows() {
        let f = FaultSchedule::periodic(
            t(100),
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
            t(300),
        );
        assert_eq!(
            f.windows(),
            &[
                (t(100), t(105)),
                (t(160), t(165)),
                (t(220), t(225)),
                (t(280), t(285))
            ]
        );
    }

    #[test]
    fn periodic_clamps_degenerate_parameters() {
        // down == period: back-to-back windows are one continuous outage.
        let f = FaultSchedule::periodic(
            t(10),
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
            t(100),
        );
        assert_eq!(f.windows(), &[(t(10), t(100))]);
        // down > period likewise (used to assert/panic).
        let f = FaultSchedule::periodic(
            t(10),
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            t(100),
        );
        assert_eq!(f.windows(), &[(t(10), t(100))]);
        assert!(f.is_down(t(50)) && !f.is_down(t(100)));
        // Zero period must not loop forever; it is a continuous outage too.
        let f = FaultSchedule::periodic(t(0), SimDuration::ZERO, SimDuration::from_secs(1), t(40));
        assert_eq!(f.windows(), &[(t(0), t(40))]);
        // Zero down means no outages; first at/after horizon likewise.
        assert!(
            FaultSchedule::periodic(t(0), SimDuration::from_secs(5), SimDuration::ZERO, t(40))
                .windows()
                .is_empty()
        );
        assert!(FaultSchedule::periodic(
            t(40),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
            t(40)
        )
        .windows()
        .is_empty());
    }

    #[test]
    fn next_outage_and_clear_between() {
        let f = FaultSchedule::from_windows(vec![(t(10), t(20)), (t(40), t(50))]);
        assert_eq!(f.next_outage_after(t(0)), Some((t(10), t(20))));
        assert_eq!(f.next_outage_after(t(10)), Some((t(40), t(50))));
        assert_eq!(f.next_outage_after(t(60)), None);
        assert!(f.clear_between(t(20), t(40)));
        assert!(!f.clear_between(t(20), t(41)));
        assert!(!f.clear_between(t(15), t(16)));
        assert!(f.clear_between(t(50), t(1000)));
    }

    #[test]
    fn random_schedule_respects_horizon_and_sorting() {
        let mut rng = SimRng::new(9);
        let f = FaultSchedule::random(
            &mut rng,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            t(10_000),
        );
        assert!(!f.windows().is_empty());
        for w in f.windows().windows(2) {
            assert!(w[0].1 <= w[1].0, "windows overlap or unsorted");
        }
        for &(s, e) in f.windows() {
            assert!(s < e);
            assert!(s < t(10_000));
        }
    }

    #[test]
    fn next_transition_walks_the_edges() {
        let f = FaultSchedule::from_windows(vec![(t(10), t(20)), (t(40), t(50))]);
        // Up before the first window: the next flip is its start.
        assert_eq!(f.next_transition(t(0)), Some(t(10)));
        // Down inside a window: the flip is its end — including at the
        // start instant itself.
        assert_eq!(f.next_transition(t(10)), Some(t(20)));
        assert_eq!(f.next_transition(t(19)), Some(t(20)));
        // Up in the gap: the next window's start.
        assert_eq!(f.next_transition(t(20)), Some(t(40)));
        // Past the last window: the state never changes again.
        assert_eq!(f.next_transition(t(50)), None);
        assert_eq!(FaultSchedule::none().next_transition(t(0)), None);
    }
}
