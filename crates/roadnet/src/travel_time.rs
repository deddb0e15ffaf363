//! Historical travel-time model.
//!
//! XAR estimates arrival times "from historical travel times" (§VI).
//! Free-flow edge speeds are a poor estimate at 8:30 am in Manhattan;
//! this model captures the standard diurnal congestion profile as an
//! hour-of-day multiplier on free-flow travel time, with linear
//! interpolation between hours. The engine samples the profile at a
//! ride's departure time and scales all of the ride's ETAs by it.

/// Hour-of-day travel-time multipliers (1.0 = free flow).
#[derive(Debug, Clone, PartialEq)]
pub struct HistoricalSpeeds {
    /// `hourly[h]` multiplies free-flow travel time for departures at
    /// hour `h` (0-23). Values must be ≥ 1.0 (congestion never makes
    /// roads faster than free flow).
    hourly: [f64; 24],
}

impl HistoricalSpeeds {
    /// Build from explicit multipliers.
    ///
    /// # Panics
    ///
    /// Panics if any multiplier is below 1.0 or not finite.
    pub fn new(hourly: [f64; 24]) -> Self {
        for (h, &m) in hourly.iter().enumerate() {
            assert!(
                m.is_finite() && m >= 1.0,
                "multiplier for hour {h} must be >= 1, got {m}"
            );
        }
        Self { hourly }
    }

    /// Flat profile: free flow all day (the default behaviour when no
    /// history is configured).
    pub fn flat() -> Self {
        Self { hourly: [1.0; 24] }
    }

    /// A typical weekday urban congestion profile: quiet nights,
    /// a morning peak around 8-9 am (~1.8x free flow) and a heavier
    /// evening peak around 5-7 pm (~2.0x).
    pub fn weekday_urban() -> Self {
        let mut h = [1.0f64; 24];
        let profile = [
            (6, 1.2),
            (7, 1.5),
            (8, 1.8),
            (9, 1.7),
            (10, 1.4),
            (11, 1.3),
            (12, 1.35),
            (13, 1.35),
            (14, 1.4),
            (15, 1.5),
            (16, 1.7),
            (17, 2.0),
            (18, 1.9),
            (19, 1.6),
            (20, 1.3),
            (21, 1.15),
            (22, 1.05),
        ];
        for (hour, m) in profile {
            h[hour] = m;
        }
        Self { hourly: h }
    }

    /// The multiplier at an absolute time (seconds since midnight),
    /// linearly interpolated between hour marks, wrapping at midnight.
    pub fn multiplier_at(&self, time_s: f64) -> f64 {
        let day = 86_400.0;
        let t = time_s.rem_euclid(day);
        let hf = t / 3_600.0;
        let h0 = hf.floor() as usize % 24;
        let h1 = (h0 + 1) % 24;
        let frac = hf - hf.floor();
        self.hourly[h0] * (1.0 - frac) + self.hourly[h1] * frac
    }

    /// Historical travel time for a leg with free-flow duration
    /// `free_flow_s` departing at `depart_s`.
    pub fn travel_time_s(&self, free_flow_s: f64, depart_s: f64) -> f64 {
        free_flow_s * self.multiplier_at(depart_s)
    }
}

impl Default for HistoricalSpeeds {
    fn default() -> Self {
        Self::flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_identity() {
        let h = HistoricalSpeeds::flat();
        for t in [0.0, 3.33 * 3600.0, 12.0 * 3600.0, 23.99 * 3600.0] {
            assert_eq!(h.multiplier_at(t), 1.0);
        }
        assert_eq!(h.travel_time_s(600.0, 8.5 * 3600.0), 600.0);
    }

    #[test]
    fn weekday_peaks_at_rush_hours() {
        let h = HistoricalSpeeds::weekday_urban();
        let morning = h.multiplier_at(8.0 * 3600.0);
        let night = h.multiplier_at(3.0 * 3600.0);
        let evening = h.multiplier_at(17.0 * 3600.0);
        assert!(morning > 1.5, "morning {morning}");
        assert!(evening > morning, "evening {evening} vs morning {morning}");
        assert_eq!(night, 1.0);
    }

    #[test]
    fn interpolation_is_continuous() {
        let h = HistoricalSpeeds::weekday_urban();
        // Just before and after an hour boundary differ by a hair.
        let before = h.multiplier_at(7.999 * 3600.0);
        let after = h.multiplier_at(8.001 * 3600.0);
        assert!((before - after).abs() < 0.01, "{before} vs {after}");
        // Midpoint is the average of hour marks.
        let mid = h.multiplier_at(7.5 * 3600.0);
        assert!((mid - (1.5 + 1.8) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn wraps_at_midnight() {
        let h = HistoricalSpeeds::weekday_urban();
        assert_eq!(h.multiplier_at(0.0), h.multiplier_at(86_400.0));
        assert_eq!(h.multiplier_at(-3_600.0), h.multiplier_at(23.0 * 3600.0));
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_speedups() {
        let mut m = [1.0; 24];
        m[5] = 0.5;
        let _ = HistoricalSpeeds::new(m);
    }
}
