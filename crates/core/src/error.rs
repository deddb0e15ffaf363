//! Error type for the XAR runtime operations, plus the closed
//! rejection-reason taxonomy the event plane attributes unserved
//! requests with.

use crate::ride::RideId;

/// Closed taxonomy of request outcomes for the per-request decision
/// log: every path that fails to book a request maps to exactly one
/// variant, so `xar logs` can answer *why* any given request was not
/// served. The set is deliberately closed — adding a variant without
/// wiring an emitter fails the exhaustiveness tests in this module and
/// in `xar-workload`'s event-conservation tests.
///
/// [`Reason::Unknown`] exists only as a parse fallback for forward
/// compatibility of the on-disk format; no runtime path emits it
/// (property-tested in `xar-workload`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Reason {
    /// The request was served (booked onto an existing ride).
    Served,
    /// Search found no candidate rides at all: the ETA range queries on
    /// the walkable clusters produced an empty `R1`, or no ride
    /// appeared on both the source and destination side (`R1 ∩ R2 = ∅`).
    NoClusterCandidates,
    /// Candidates existed, but in every (source, destination) pairing
    /// the pick-up did not strictly precede the drop-off along the
    /// ride.
    OrderingInfeasible,
    /// Candidates existed, but every pairing exceeded the rider's
    /// combined walking limit.
    WalkLimitExceeded,
    /// A candidate ride's remaining detour budget was smaller than the
    /// detour the match would cause — at search time or when booking
    /// re-checked it.
    DetourBudgetExceeded,
    /// The ride had no free seat left when booking checked it (a book
    /// failure only: search never meets a full ride, which is listed
    /// nowhere).
    CapacityFull,
    /// The ride the match was searched against was gone by the time
    /// booking was attempted (retired between search and commit —
    /// [`XarError::UnknownRide`]), or the T-Share baseline's schedule
    /// re-validation refused the insertion.
    StaleCommit,
    /// The ride had already driven past the pick-up point by the time
    /// booking was attempted.
    WindowExpired,
    /// An end-point lies outside the serviceable discretized region
    /// (no walkable cluster within the rider's limit).
    NotServable,
    /// No driving route exists between the requested end-points.
    NoRoute,
    /// A request parameter was invalid (e.g. an empty time window).
    InvalidRequest,
    /// Parse fallback only — never emitted by the runtime.
    Unknown,
}

impl Reason {
    /// Every variant, in a fixed order (used to pre-resolve labeled
    /// counters and to render stable histograms).
    pub const ALL: [Reason; 12] = [
        Reason::Served,
        Reason::NoClusterCandidates,
        Reason::OrderingInfeasible,
        Reason::WalkLimitExceeded,
        Reason::DetourBudgetExceeded,
        Reason::CapacityFull,
        Reason::StaleCommit,
        Reason::WindowExpired,
        Reason::NotServable,
        Reason::NoRoute,
        Reason::InvalidRequest,
        Reason::Unknown,
    ];

    /// Stable snake_case wire code, used in event JSONL, metric labels
    /// and the `xar logs --reason` filter.
    pub const fn code(self) -> &'static str {
        match self {
            Reason::Served => "served",
            Reason::NoClusterCandidates => "no_cluster_candidates",
            Reason::OrderingInfeasible => "ordering_infeasible",
            Reason::WalkLimitExceeded => "walk_limit_exceeded",
            Reason::DetourBudgetExceeded => "detour_budget_exceeded",
            Reason::CapacityFull => "capacity_full",
            Reason::StaleCommit => "stale_commit",
            Reason::WindowExpired => "window_expired",
            Reason::NotServable => "not_servable",
            Reason::NoRoute => "no_route",
            Reason::InvalidRequest => "invalid_request",
            Reason::Unknown => "unknown",
        }
    }

    /// Inverse of [`Reason::code`]; unrecognised codes decode to
    /// [`Reason::Unknown`] so old binaries can read newer logs.
    pub fn from_code(code: &str) -> Reason {
        Reason::ALL
            .into_iter()
            .find(|r| r.code() == code)
            .unwrap_or(Reason::Unknown)
    }

    /// Position of the variant in [`Reason::ALL`] (for counter arrays).
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Errors returned by the runtime operations.
#[derive(Debug, Clone, PartialEq)]
pub enum XarError {
    /// No driving route exists between the requested end-points.
    NoRoute,
    /// A location falls outside the discretized region and cannot be
    /// served (neither associated with a landmark within `Δ` nor within
    /// walking distance `W` of any cluster).
    NotServable,
    /// The ride id is unknown (never created, or already completed and
    /// retired).
    UnknownRide(RideId),
    /// The ride has no free seats left.
    NoSeats(RideId),
    /// The ride can no longer serve the match: its remaining detour
    /// budget is smaller than the detour the booking would cause.
    DetourExceeded {
        /// The ride that was asked to serve the booking.
        ride: RideId,
        /// Detour the booking would add, metres.
        needed_m: f64,
        /// Remaining detour budget, metres.
        remaining_m: f64,
    },
    /// The match being booked is stale: the ride has already passed the
    /// pick-up point.
    AlreadyPassed(RideId),
    /// A request parameter is invalid (e.g. an empty or negative time
    /// window).
    InvalidRequest(&'static str),
}

impl std::fmt::Display for XarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XarError::NoRoute => write!(f, "no driving route between the requested end-points"),
            XarError::NotServable => {
                write!(f, "location is outside the serviceable discretized region")
            }
            XarError::UnknownRide(id) => write!(f, "unknown ride {id:?}"),
            XarError::NoSeats(id) => write!(f, "ride {id:?} has no free seats"),
            XarError::DetourExceeded { ride, needed_m, remaining_m } => write!(
                f,
                "ride {ride:?} cannot absorb a {needed_m:.0} m detour ({remaining_m:.0} m budget left)"
            ),
            XarError::AlreadyPassed(id) => {
                write!(f, "ride {id:?} has already passed the pick-up point")
            }
            XarError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for XarError {}

impl XarError {
    /// The rejection-reason code this error attributes a failed
    /// request to. Total over the enum — a new `XarError` variant
    /// without a mapping fails to compile.
    pub const fn reason(&self) -> Reason {
        match self {
            XarError::NoRoute => Reason::NoRoute,
            XarError::NotServable => Reason::NotServable,
            XarError::UnknownRide(_) => Reason::StaleCommit,
            XarError::NoSeats(_) => Reason::CapacityFull,
            XarError::DetourExceeded { .. } => Reason::DetourBudgetExceeded,
            XarError::AlreadyPassed(_) => Reason::WindowExpired,
            XarError::InvalidRequest(_) => Reason::InvalidRequest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = XarError::DetourExceeded {
            ride: RideId(7),
            needed_m: 1234.5,
            remaining_m: 100.0,
        };
        let s = e.to_string();
        assert!(s.contains("1234") && s.contains("100"), "{s}");
        assert!(XarError::NoRoute.to_string().contains("no driving route"));
        assert!(XarError::UnknownRide(RideId(3))
            .to_string()
            .contains("RideId(3)"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&XarError::NoRoute);
    }

    #[test]
    fn reason_codes_round_trip_and_are_distinct() {
        for (i, r) in Reason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i, "ALL order must match discriminant order");
            assert_eq!(Reason::from_code(r.code()), r);
        }
        let mut codes: Vec<_> = Reason::ALL.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Reason::ALL.len(), "codes must be distinct");
        assert_eq!(Reason::from_code("certainly-not-a-reason"), Reason::Unknown);
    }

    #[test]
    fn every_error_maps_to_a_specific_reason() {
        // One probe per XarError variant; `reason()` itself is a total
        // match, so this pins the *values*, not just coverage.
        let cases = [
            (XarError::NoRoute, Reason::NoRoute),
            (XarError::NotServable, Reason::NotServable),
            (XarError::UnknownRide(RideId(1)), Reason::StaleCommit),
            (XarError::NoSeats(RideId(1)), Reason::CapacityFull),
            (
                XarError::DetourExceeded {
                    ride: RideId(1),
                    needed_m: 2.0,
                    remaining_m: 1.0,
                },
                Reason::DetourBudgetExceeded,
            ),
            (XarError::AlreadyPassed(RideId(1)), Reason::WindowExpired),
            (XarError::InvalidRequest("x"), Reason::InvalidRequest),
        ];
        for (err, want) in cases {
            assert_eq!(err.reason(), want, "{err}");
            assert_ne!(err.reason(), Reason::Unknown);
            assert_ne!(err.reason(), Reason::Served);
        }
    }
}
