//! Transit network model: stops and headway-scheduled lines.

use xar_geo::GeoPoint;
use xar_roadnet::NodeId;

/// Identifier of a transit stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StopId(pub u32);

impl StopId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a transit line (a GTFS route with a single stop
/// pattern, scheduled by headway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(pub u32);

impl LineId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Mode of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// Heavy rail: fast, frequent, few stops.
    Subway,
    /// Bus: slower, denser stops.
    Bus,
}

impl LineKind {
    /// In-vehicle cruising speed, m/s.
    pub fn speed_mps(self) -> f64 {
        match self {
            LineKind::Subway => 14.0, // ~50 km/h including stops spacing
            LineKind::Bus => 6.0,     // ~22 km/h in traffic
        }
    }
}

/// A transit stop, snapped to the road network for walking access.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Dense id.
    pub id: StopId,
    /// Location.
    pub point: GeoPoint,
    /// Nearest road way-point (walk legs are routed on the road graph).
    pub node: NodeId,
}

/// How vehicles of a line are dispatched from its first stop — the two
/// scheduling styles of a GTFS feed: `frequencies.txt` (headways) and
/// `stop_times.txt` (an explicit timetable).
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Vehicles depart every `headway_s` seconds from
    /// `first_departure_s` through `last_departure_s`.
    Headway {
        /// Seconds between consecutive vehicles.
        headway_s: f64,
        /// First departure, absolute seconds.
        first_departure_s: f64,
        /// Last departure, absolute seconds.
        last_departure_s: f64,
    },
    /// Explicit departure times from the first stop, sorted ascending.
    Timetable {
        /// Absolute departure seconds, sorted.
        departures_s: Vec<f64>,
    },
}

impl Schedule {
    /// The earliest departure `>= earliest_s`, if any service remains.
    pub fn next_departure(&self, earliest_s: f64) -> Option<f64> {
        match self {
            Schedule::Headway {
                headway_s,
                first_departure_s,
                last_departure_s,
            } => {
                let dep = if earliest_s <= *first_departure_s {
                    *first_departure_s
                } else {
                    let k = ((earliest_s - first_departure_s) / headway_s).ceil();
                    first_departure_s + k * headway_s
                };
                (dep <= *last_departure_s + 1e-9).then_some(dep)
            }
            Schedule::Timetable { departures_s } => {
                let idx = departures_s.partition_point(|&d| d < earliest_s - 1e-9);
                departures_s.get(idx).copied()
            }
        }
    }
}

/// A one-directional transit line with a schedule anchored at its
/// first stop.
#[derive(Debug, Clone)]
pub struct Line {
    /// Dense id.
    pub id: LineId,
    /// Mode.
    pub kind: LineKind,
    /// Visited stops in order (at least 2).
    pub stops: Vec<StopId>,
    /// Travel time between consecutive stops, seconds
    /// (`len == stops.len() - 1`).
    pub leg_times_s: Vec<f64>,
    /// Dwell time at each intermediate stop, seconds.
    pub dwell_s: f64,
    /// Dispatch schedule at the first stop.
    pub schedule: Schedule,
}

impl Line {
    /// Convenience constructor for a headway-scheduled line.
    #[allow(clippy::too_many_arguments)]
    pub fn with_headway(
        id: LineId,
        kind: LineKind,
        stops: Vec<StopId>,
        leg_times_s: Vec<f64>,
        dwell_s: f64,
        headway_s: f64,
        first_departure_s: f64,
        last_departure_s: f64,
    ) -> Self {
        Self {
            id,
            kind,
            stops,
            leg_times_s,
            dwell_s,
            schedule: Schedule::Headway {
                headway_s,
                first_departure_s,
                last_departure_s,
            },
        }
    }

    /// Offset from a vehicle's departure (at the first stop) to its
    /// arrival at `stop_pos` (index into `self.stops`).
    pub fn offset_to_stop_s(&self, stop_pos: usize) -> f64 {
        let mut t = 0.0;
        for i in 0..stop_pos {
            t += self.leg_times_s[i];
            if i + 1 < stop_pos {
                t += self.dwell_s;
            }
        }
        t
    }

    /// The next vehicle departure (measured at the *first* stop) whose
    /// arrival at `stop_pos` is at or after `earliest_s`. `None` if the
    /// service day is over.
    pub fn next_departure_for(&self, stop_pos: usize, earliest_s: f64) -> Option<f64> {
        let offset = self.offset_to_stop_s(stop_pos);
        self.schedule.next_departure(earliest_s - offset)
    }

    /// Arrival time at `stop_pos` for the vehicle departing the first
    /// stop at `departure_s`.
    pub fn arrival_at(&self, departure_s: f64, stop_pos: usize) -> f64 {
        departure_s + self.offset_to_stop_s(stop_pos)
    }
}

/// The full network: stops, lines, and the stop → lines inverted index.
#[derive(Debug, Clone)]
pub struct TransitNetwork {
    /// All stops, indexed by [`StopId`].
    pub stops: Vec<Stop>,
    /// All lines, indexed by [`LineId`].
    pub lines: Vec<Line>,
    /// For each stop: the `(line, position-on-line)` pairs serving it.
    pub lines_at_stop: Vec<Vec<(LineId, usize)>>,
}

impl TransitNetwork {
    /// Assemble a network, building the inverted index.
    ///
    /// # Panics
    ///
    /// Panics if a line references an unknown stop or has inconsistent
    /// leg times.
    pub fn new(stops: Vec<Stop>, lines: Vec<Line>) -> Self {
        let mut lines_at_stop = vec![Vec::new(); stops.len()];
        for line in &lines {
            assert!(
                line.stops.len() >= 2,
                "line {:?} has fewer than 2 stops",
                line.id
            );
            assert_eq!(
                line.leg_times_s.len(),
                line.stops.len() - 1,
                "line {:?} leg times inconsistent",
                line.id
            );
            for (pos, s) in line.stops.iter().enumerate() {
                assert!(
                    s.index() < stops.len(),
                    "line {:?} references unknown stop",
                    line.id
                );
                lines_at_stop[s.index()].push((line.id, pos));
            }
        }
        Self {
            stops,
            lines,
            lines_at_stop,
        }
    }

    /// Number of stops.
    pub fn stop_count(&self) -> usize {
        self.stops.len()
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Line {
        Line::with_headway(
            LineId(0),
            LineKind::Subway,
            vec![StopId(0), StopId(1), StopId(2)],
            vec![120.0, 180.0],
            30.0,
            600.0,
            6.0 * 3600.0,
            22.0 * 3600.0,
        )
    }

    #[test]
    fn timetable_schedule_next_departure() {
        let s = Schedule::Timetable {
            departures_s: vec![100.0, 400.0, 900.0],
        };
        assert_eq!(s.next_departure(0.0), Some(100.0));
        assert_eq!(s.next_departure(100.0), Some(100.0));
        assert_eq!(s.next_departure(100.1), Some(400.0));
        assert_eq!(s.next_departure(899.9), Some(900.0));
        assert_eq!(s.next_departure(901.0), None);
    }

    #[test]
    fn timetable_line_boards_exact_trips() {
        let mut l = line();
        l.schedule = Schedule::Timetable {
            departures_s: vec![7.0 * 3600.0, 7.5 * 3600.0],
        };
        // Board at stop 1 (offset 120 s) at 7:05: the 7:00 trip passed
        // (arrives 7:02), so the 7:30 one is next.
        assert_eq!(
            l.next_departure_for(1, 7.0 * 3600.0 + 300.0),
            Some(7.5 * 3600.0)
        );
        assert_eq!(l.next_departure_for(1, 8.0 * 3600.0), None);
    }

    #[test]
    fn offsets_accumulate_leg_and_dwell() {
        let l = line();
        assert_eq!(l.offset_to_stop_s(0), 0.0);
        assert_eq!(l.offset_to_stop_s(1), 120.0);
        assert_eq!(l.offset_to_stop_s(2), 120.0 + 30.0 + 180.0);
    }

    #[test]
    fn next_departure_rounds_up_to_headway() {
        let l = line();
        // Want to board at stop 1 (offset 120 s) at 6:05:00 = 21900 s.
        // Candidate departures: 21600, 22200, ... ; dep + 120 >= 21900
        // ⇒ dep >= 21780 ⇒ 22200.
        let dep = l.next_departure_for(1, 6.0 * 3600.0 + 300.0).unwrap();
        assert_eq!(dep, 6.0 * 3600.0 + 600.0);
        // Before service start: first departure.
        assert_eq!(l.next_departure_for(0, 0.0).unwrap(), 6.0 * 3600.0);
    }

    #[test]
    fn service_day_ends() {
        let l = line();
        assert!(l.next_departure_for(0, 23.0 * 3600.0).is_none());
    }

    #[test]
    fn arrival_combines_departure_and_offset() {
        let l = line();
        let dep = 7.0 * 3600.0;
        assert_eq!(l.arrival_at(dep, 2), dep + 330.0);
    }

    #[test]
    fn network_builds_inverted_index() {
        let stops: Vec<Stop> = (0..3)
            .map(|i| Stop {
                id: StopId(i),
                point: GeoPoint::new(40.7 + 0.01 * i as f64, -74.0),
                node: NodeId(i),
            })
            .collect();
        let net = TransitNetwork::new(stops, vec![line()]);
        assert_eq!(net.lines_at_stop[1], vec![(LineId(0), 1)]);
        assert_eq!(net.stop_count(), 3);
        assert_eq!(net.line_count(), 1);
    }

    #[test]
    #[should_panic(expected = "leg times inconsistent")]
    fn bad_leg_times_panic() {
        let stops: Vec<Stop> = (0..3)
            .map(|i| Stop {
                id: StopId(i),
                point: GeoPoint::new(40.7 + 0.01 * i as f64, -74.0),
                node: NodeId(i),
            })
            .collect();
        let mut l = line();
        l.leg_times_s.pop();
        let _ = TransitNetwork::new(stops, vec![l]);
    }
}
