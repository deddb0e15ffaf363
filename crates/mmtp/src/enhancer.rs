//! Enhancer mode (§IX.B): XAR enhances an entire MMTP trip plan by
//! substituting shared rides for combinations of its segments.
//!
//! For a plan with `k ≤ 4` intermediate hops, XAR issues search
//! requests for the `C(k+1, 2)` non-adjacent combinations of {source,
//! hop₁, …, hop_k, destination} (adjacent pairs are the plan's existing
//! legs and are skipped — footnote 4 of the paper). For `k > 4`
//! ("extremely unlikely in a trip plan") only the `2k+1` combinations
//! of source→hop and hop→destination plus the full journey are tried,
//! keeping the search volume linear so that "the search operation for a
//! particular trip request is completed within a reasonable amount of
//! time".

use xar_core::{RideMatch, RideRequest, XarEngine};
use xar_geo::GeoPoint;
use xar_roadnet::WALK_SPEED_MPS;
use xar_transit::{Leg, TransitNetwork, TransitRouter, TripPlan};

use crate::segments::hop_points;

/// Enhancer-mode parameters.
#[derive(Debug, Clone)]
pub struct EnhancerConfig {
    /// Walking threshold passed to the XAR searches, metres.
    pub ride_walk_limit_m: f64,
    /// Pick-up window width offered to XAR, seconds.
    pub window_s: f64,
    /// Above this hop count, fall back to the linear `2k+1` scheme.
    pub combinatorial_hop_limit: usize,
    /// Whether the chosen enhancement is booked.
    pub book: bool,
}

impl Default for EnhancerConfig {
    fn default() -> Self {
        Self {
            ride_walk_limit_m: 800.0,
            window_s: 1_200.0,
            combinatorial_hop_limit: 4,
            book: true,
        }
    }
}

/// The result of an enhancement attempt.
#[derive(Debug, Clone)]
pub struct EnhancerOutcome {
    /// The enhanced (or original, if nothing helped) plan.
    pub plan: TripPlan,
    /// Which hop-point pair `(i, j)` the substituted ride covers, if
    /// any.
    pub substituted: Option<(usize, usize)>,
    /// How many XAR search requests were generated — the quantity the
    /// paper's look-to-book arithmetic counts.
    pub searches: usize,
}

/// Enumerate the hop-point index pairs the Enhancer tries, in the
/// paper's scheme. Exposed for the look-to-book arithmetic tests.
pub fn candidate_pairs(n_points: usize, combinatorial_hop_limit: usize) -> Vec<(usize, usize)> {
    let k = n_points.saturating_sub(2); // intermediate hops
    let mut out = Vec::new();
    if k <= combinatorial_hop_limit {
        // All non-adjacent pairs: C(k+2, 2) − (k+1) = C(k+1, 2).
        for i in 0..n_points {
            for j in (i + 2)..n_points {
                out.push((i, j));
            }
        }
    } else {
        // Linear fallback (2k+1 requests): source → every intermediate
        // hop, every intermediate hop → destination, plus the entire
        // journey.
        for j in 1..=k {
            out.push((0, j));
        }
        for i in 1..=k {
            out.push((i, n_points - 1));
        }
        out.push((0, n_points - 1));
    }
    out
}

/// Run enhancer mode over a base plan. The substitution that reduces
/// hop count the most (tie-break: earliest arrival) wins.
pub fn enhance_plan(
    base: &TripPlan,
    origin: GeoPoint,
    destination: GeoPoint,
    net: &TransitNetwork,
    router: &TransitRouter<'_>,
    xar: &mut XarEngine,
    cfg: &EnhancerConfig,
) -> EnhancerOutcome {
    let hops = hop_points(base, net, origin, destination);
    let pairs = candidate_pairs(hops.len(), cfg.combinatorial_hop_limit);
    let mut searches = 0usize;

    // Collect the best feasible substitution per candidate pair.
    let mut best: Option<(usize, usize, RideMatch, TripPlan)> = None;
    for (i, j) in pairs {
        let (from, t_from) = hops[i];
        let (to, _) = hops[j];
        let req = RideRequest {
            source: from,
            destination: to,
            window_start_s: t_from,
            window_end_s: t_from + cfg.window_s,
            walk_limit_m: cfg.ride_walk_limit_m,
        };
        searches += 1;
        let Ok(matches) = xar.search(&req, 1) else {
            continue;
        };
        let Some(m) = matches.first().copied() else {
            continue;
        };
        let Some(candidate) = compose(base, &hops, (i, j), &m, origin, destination, router, xar)
        else {
            continue;
        };
        let better = match &best {
            None => true,
            Some((_, _, _, cur)) => {
                candidate.hops() < cur.hops()
                    || (candidate.hops() == cur.hops() && candidate.arrival_s < cur.arrival_s)
            }
        };
        if better {
            best = Some((i, j, m, candidate));
        }
    }

    match best {
        Some((i, j, m, plan))
            if plan.hops() < base.hops()
                || (plan.hops() == base.hops() && plan.arrival_s < base.arrival_s) =>
        {
            if cfg.book {
                // Booking can fail if the ride filled up meanwhile; fall
                // back to the original plan in that case.
                if xar.book_checked(&m).is_err() {
                    return EnhancerOutcome {
                        plan: base.clone(),
                        substituted: None,
                        searches,
                    };
                }
            }
            EnhancerOutcome {
                plan,
                substituted: Some((i, j)),
                searches,
            }
        }
        _ => EnhancerOutcome {
            plan: base.clone(),
            substituted: None,
            searches,
        },
    }
}

/// Compose the enhanced plan: prefix (replanned up to hop `i`), walk +
/// ride + walk, then the remainder replanned from hop `j`.
#[allow(clippy::too_many_arguments)]
fn compose(
    base: &TripPlan,
    hops: &[(GeoPoint, f64)],
    (i, j): (usize, usize),
    m: &RideMatch,
    origin: GeoPoint,
    destination: GeoPoint,
    router: &TransitRouter<'_>,
    xar: &XarEngine,
) -> Option<TripPlan> {
    let region = xar.region();
    let pickup_pt = region.landmark(m.pickup_landmark).point;
    let dropoff_pt = region.landmark(m.dropoff_landmark).point;
    let (hop_i_pt, hop_i_t) = hops[i];
    let (hop_j_pt, _) = hops[j];

    // Prefix: the original journey up to hop i. Replanned when i > 0 to
    // get clean legs; empty when the ride starts at the origin.
    let mut legs: Vec<Leg> = Vec::new();
    let mut clock = base.departure_s;
    if i > 0 {
        let prefix = router.plan(&origin, &hop_i_pt, base.departure_s)?;
        clock = prefix.arrival_s;
        legs.extend(prefix.legs);
    }
    let _ = hop_i_t;

    // Walk to the pick-up landmark, wait, ride, walk back to hop j.
    let walk_in_dur = m.walk_pickup_m / WALK_SPEED_MPS;
    legs.push(Leg::Walk {
        from: hop_i_pt,
        to: pickup_pt,
        dist_m: m.walk_pickup_m,
        duration_s: walk_in_dur,
    });
    clock += walk_in_dur;
    if m.eta_pickup_s > clock {
        legs.push(Leg::WaitAt {
            point: pickup_pt,
            duration_s: m.eta_pickup_s - clock,
        });
        clock = m.eta_pickup_s;
    }
    let alight = m.eta_dropoff_s.max(clock);
    legs.push(Leg::SharedRide {
        from: pickup_pt,
        to: dropoff_pt,
        board_s: clock,
        alight_s: alight,
    });
    clock = alight;
    let walk_out_dur = m.walk_dropoff_m / WALK_SPEED_MPS;
    legs.push(Leg::Walk {
        from: dropoff_pt,
        to: hop_j_pt,
        dist_m: m.walk_dropoff_m,
        duration_s: walk_out_dur,
    });
    clock += walk_out_dur;

    // Suffix: replanned remainder from hop j (empty if j is the
    // destination).
    if j + 1 < hops.len() {
        let rest = router.plan(&hop_j_pt, &destination, clock)?;
        clock = rest.arrival_s;
        legs.extend(rest.legs);
    }
    Some(TripPlan {
        departure_s: base.departure_s,
        arrival_s: clock,
        legs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_count_matches_paper_formula() {
        // k intermediate hops => n_points = k + 2 => C(k+1, 2) pairs.
        // The paper's count: C(k+2, 2) combinations of the k+2 points
        // minus the k+1 adjacent pairs, which it writes as C(k+1, 2).
        for k in 0..=4usize {
            let n = k + 2;
            let pairs = candidate_pairs(n, 4);
            let formula = (n * (n - 1)) / 2 - (n - 1);
            assert_eq!(pairs.len(), formula, "k={k}");
            assert_eq!(formula, (k + 1) * k / 2, "C(k+1,2) identity, k={k}");
        }
        // k = 3 (the Go-LA case): C(4, 2) = 6 searches.
        assert_eq!(candidate_pairs(5, 4).len(), 6);
    }

    #[test]
    fn pairs_skip_adjacent() {
        for (i, j) in candidate_pairs(6, 4) {
            assert!(j >= i + 2, "adjacent pair ({i},{j}) included");
        }
    }

    #[test]
    fn linear_fallback_above_limit() {
        // k = 6 hops => n = 8 points => 2k+1 = 13 requests.
        let pairs = candidate_pairs(8, 4);
        assert_eq!(pairs.len(), 13);
        // All pairs touch an endpoint.
        for (i, j) in pairs {
            assert!(i == 0 || j == 7, "interior pair ({i},{j}) in fallback");
        }
    }

    #[test]
    fn degenerate_plans() {
        // n = 2 (direct journey, k = 0): no non-adjacent pairs.
        assert!(candidate_pairs(2, 4).is_empty());
        // n = 3 (one hop): exactly the full journey (0, 2).
        assert_eq!(candidate_pairs(3, 4), vec![(0, 2)]);
    }
}
