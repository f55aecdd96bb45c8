//! The daemon's notion of "now".
//!
//! Batch simulation needs no clock: time *is* the event queue, and the
//! loop jumps from instant to instant. A long-running daemon serving the
//! same schedulers needs the opposite — an external "now" that decides
//! which queued events are due and how long to sleep until the next
//! one. [`Clock`] is that notion, in the two regimes the engine runs
//! under:
//!
//! * [`Clock::Virtual`] — `now` only moves when the owner calls
//!   [`Clock::advance_to`], so a test can submit from many concurrent
//!   clients and then advance deterministically; the resulting schedule
//!   is bit-identical to a batch `simulate` run.
//! * [`Clock::Wall`] — real time with a configurable *time-scale*: one
//!   real second equals `scale` simulated seconds. At `scale = 86_400` a
//!   ten-month CTC trace replays in about six minutes, while the paper's
//!   day/night switching still fires at the right simulated instants.
//!
//! A plain enum: the engine swaps regimes by assignment when a restore
//! replays its log on virtual time and then re-anchors the wall clock.

use jobsched_workload::Time;
use std::time::{Duration, Instant};

/// Simulated time in the same `u64` seconds the rest of the system
/// uses. Monotone: [`Clock::now`] never decreases.
#[derive(Clone, Copy, Debug)]
pub enum Clock {
    /// Virtual time: advances only when told to.
    Virtual {
        /// The current simulated instant.
        now: Time,
    },
    /// Real time, scaled: one real second elapsed since `origin` is
    /// `scale` simulated seconds on top of `base`.
    Wall {
        /// The real instant at which simulated time read `base`.
        origin: Instant,
        /// Simulated instant at `origin`, so a restored checkpoint
        /// resumes where it left off rather than at zero.
        base: Time,
        /// Simulated seconds per real second.
        scale: f64,
    },
}

impl Clock {
    /// A virtual clock at instant `t`.
    pub fn virtual_at(t: Time) -> Self {
        Clock::Virtual { now: t }
    }

    /// A wall clock whose simulated time starts at `base` *now* — how a
    /// restored daemon resumes a checkpoint taken at simulated `base`.
    pub fn wall_starting_at(base: Time, scale: f64) -> Self {
        Clock::wall_with_origin(Instant::now(), base, scale)
    }

    /// A wall clock anchored at an explicit real `origin`. Engine shards
    /// of one daemon share a single origin so their notions of "now"
    /// agree exactly, instead of skewing by their construction order.
    pub fn wall_with_origin(origin: Instant, base: Time, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "time-scale must be positive and finite, got {scale}"
        );
        Clock::Wall {
            origin,
            base,
            scale,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> Time {
        match *self {
            Clock::Virtual { now } => now,
            Clock::Wall {
                origin,
                base,
                scale,
            } => {
                let elapsed = origin.elapsed().as_secs_f64() * scale;
                // Saturating add: a pathological scale cannot wrap simulated time.
                base.saturating_add(elapsed as Time)
            }
        }
    }

    /// Move virtual time forward to `t` (panics if `t` is in the past).
    /// Wall time advances on its own and ignores this; due-ness is
    /// decided by [`Clock::now`].
    pub fn advance_to(&mut self, t: Time) {
        if let Clock::Virtual { now } = self {
            assert!(t >= *now, "virtual time cannot go backwards ({now} -> {t})");
            *now = t;
        }
    }

    /// `true` when time only moves via [`Clock::advance_to`] — i.e. the
    /// owner controls the schedule deterministically.
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual { .. })
    }

    /// How long to sleep (in *real* time) until simulated instant `t` is
    /// due. Zero for virtual clocks and for instants already past.
    pub fn real_delay_until(&self, t: Time) -> Duration {
        match *self {
            Clock::Wall {
                origin,
                base,
                scale,
            } if t > base => {
                // Real instant at which simulated `t` becomes due, relative
                // to the origin, minus real time already elapsed.
                let target = Duration::from_secs_f64((t - base) as f64 / scale);
                target.saturating_sub(origin.elapsed())
            }
            _ => Duration::ZERO,
        }
    }

    /// The simulated-seconds-per-real-second factor of a wall clock;
    /// `None` on virtual time.
    pub fn scale(&self) -> Option<f64> {
        match *self {
            Clock::Wall { scale, .. } => Some(scale),
            Clock::Virtual { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_moves_only_when_advanced() {
        let mut c = Clock::virtual_at(0);
        assert_eq!(c.now(), 0);
        assert!(c.is_virtual());
        assert_eq!(c.scale(), None);
        assert_eq!(c.real_delay_until(1_000_000), Duration::ZERO);
        c.advance_to(50);
        c.advance_to(50); // idempotent
        assert_eq!(c.now(), 50);
        assert_eq!(Clock::virtual_at(99).now(), 99);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn sim_clock_rejects_time_travel() {
        let mut c = Clock::virtual_at(10);
        c.advance_to(9);
    }

    #[test]
    fn wall_clock_scales_real_time() {
        // 1e9 simulated seconds per real second: any measurable real
        // delay covers decades of simulated time.
        let mut c = Clock::wall_starting_at(0, 1e9);
        assert!(!c.is_virtual());
        let t0 = c.now();
        c.advance_to(0); // ignored: wall time moves itself
        std::thread::sleep(Duration::from_millis(5));
        let t1 = c.now();
        assert!(t1 > t0, "scaled wall time must move ({t0} -> {t1})");
        assert!(t1 - t0 >= 1_000_000, "5ms at 1e9x is >= 1e6 simulated s");
    }

    #[test]
    fn wall_clock_delay_is_zero_for_due_instants() {
        let c = Clock::wall_starting_at(100, 1000.0);
        assert_eq!(c.real_delay_until(100), Duration::ZERO);
        assert_eq!(c.real_delay_until(0), Duration::ZERO);
        // 1000 simulated seconds ahead at 1000x is about one real second.
        let d = c.real_delay_until(c.now() + 1000);
        assert!(d <= Duration::from_secs(1), "{d:?}");
        assert!(d >= Duration::from_millis(900), "{d:?}");
    }

    #[test]
    fn wall_clock_resumes_from_base() {
        let c = Clock::wall_starting_at(5_000, 60.0);
        assert!(c.now() >= 5_000);
        assert_eq!(c.scale(), Some(60.0));
    }

    #[test]
    fn wall_clocks_sharing_an_origin_agree() {
        // Two shards built at different real instants but anchored at
        // the same origin read the same simulated time.
        let origin = Instant::now();
        let a = Clock::wall_with_origin(origin, 0, 1000.0);
        std::thread::sleep(Duration::from_millis(2));
        let b = Clock::wall_with_origin(origin, 0, 1000.0);
        let (ta, tb) = (a.now(), b.now());
        assert!(
            ta.abs_diff(tb) <= 1,
            "shared-origin clocks skewed: {ta} vs {tb}"
        );
    }

    #[test]
    #[should_panic(expected = "time-scale")]
    fn wall_clock_rejects_bad_scale() {
        Clock::wall_starting_at(0, 0.0);
    }
}
