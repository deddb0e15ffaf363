//! Synthetic taxi-trip generator (the NYC dataset substitute).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xar_geo::GeoPoint;
use xar_roadnet::{NodeId, RoadGraph};

/// One taxi trip = one ride-share request: "every trip in the dataset
/// has a pickup time, a pickup location and a dropoff location".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trip {
    /// Dense trip id.
    pub id: u64,
    /// Request (pickup) time, seconds since midnight.
    pub pickup_s: f64,
    /// Pickup location.
    pub pickup: GeoPoint,
    /// Drop-off location.
    pub dropoff: GeoPoint,
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct TripGenConfig {
    /// Number of trips for the simulated day.
    pub count: usize,
    /// Number of spatial hotspots (transport hubs, business districts).
    pub hotspots: usize,
    /// Zipf exponent of the hotspot popularity distribution.
    pub zipf_exponent: f64,
    /// Fraction of trip end-points drawn from hotspots (the rest are
    /// uniform over the network).
    pub hotspot_fraction: f64,
    /// Scatter radius around a hotspot, metres.
    pub hotspot_scatter_m: f64,
    /// Minimum crow-flies trip length, metres (NYC taxi trips are not
    /// one-block hops).
    pub min_trip_m: f64,
    /// Maximum crow-flies trip length, metres (`f64::INFINITY` = no
    /// cap). A finite cap keeps trip lengths — and therefore ride
    /// routes and their cluster fan-out — constant as the city grows,
    /// which the write micro-bench's constant-density sweep relies on.
    pub max_trip_m: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TripGenConfig {
    fn default() -> Self {
        Self {
            count: 10_000,
            hotspots: 12,
            zipf_exponent: 1.0,
            hotspot_fraction: 0.6,
            hotspot_scatter_m: 300.0,
            min_trip_m: 800.0,
            max_trip_m: f64::INFINITY,
            seed: 0x7A11,
        }
    }
}

/// Sample a pickup time with the classic bimodal rush-hour profile:
/// morning peak around 08:30, evening peak around 18:00, plus a uniform
/// daytime base.
fn sample_time_s(rng: &mut StdRng) -> f64 {
    let roll = rng.random::<f64>();
    // Approximate normal via the sum of 4 uniforms (Irwin–Hall).
    let gauss = |rng: &mut StdRng| (0..4).map(|_| rng.random::<f64>()).sum::<f64>() / 2.0 - 1.0; // ~N(0, 0.29)
    let t = if roll < 0.35 {
        8.5 * 3600.0 + gauss(rng) * 4_500.0
    } else if roll < 0.70 {
        18.0 * 3600.0 + gauss(rng) * 5_400.0
    } else {
        5.0 * 3600.0 + rng.random::<f64>() * 18.0 * 3600.0
    };
    t.clamp(0.0, 86_399.0)
}

/// Generate a day of trips over `graph`, sorted by pickup time.
pub fn generate_trips(graph: &RoadGraph, cfg: &TripGenConfig) -> Vec<Trip> {
    assert!(graph.node_count() > 1, "need a road network");
    assert!(
        (0.0..=1.0).contains(&cfg.hotspot_fraction),
        "hotspot fraction must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = graph.node_count() as u32;

    // Hotspot centres: random nodes; popularity ~ Zipf(rank).
    let hotspots: Vec<NodeId> = (0..cfg.hotspots)
        .map(|_| NodeId(rng.random_range(0..n)))
        .collect();
    let weights: Vec<f64> = (1..=cfg.hotspots.max(1))
        .map(|r| 1.0 / (r as f64).powf(cfg.zipf_exponent))
        .collect();
    let total_w: f64 = weights.iter().sum();

    let pick_endpoint = |rng: &mut StdRng| -> GeoPoint {
        if !hotspots.is_empty() && rng.random::<f64>() < cfg.hotspot_fraction {
            let x = rng.random::<f64>() * total_w;
            let mut acc = 0.0;
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                acc += w;
                if x <= acc {
                    idx = i;
                    break;
                }
            }
            let base = graph.point(hotspots[idx]);
            let bearing = rng.random::<f64>() * 360.0;
            let dist = rng.random::<f64>() * cfg.hotspot_scatter_m;
            base.destination(bearing, dist)
        } else {
            graph.point(NodeId(rng.random_range(0..n)))
        }
    };

    assert!(
        cfg.max_trip_m > cfg.min_trip_m,
        "max_trip_m ({}) must exceed min_trip_m ({})",
        cfg.max_trip_m,
        cfg.min_trip_m
    );
    let mut trips = Vec::with_capacity(cfg.count);
    let mut id = 0u64;
    let mut attempts = 0usize;
    while trips.len() < cfg.count {
        attempts += 1;
        assert!(
            attempts <= cfg.count.saturating_mul(10_000),
            "trip length band [{}, {}] m rejects virtually every sampled pair on this network",
            cfg.min_trip_m,
            cfg.max_trip_m
        );
        let pickup = pick_endpoint(&mut rng);
        let dropoff = pick_endpoint(&mut rng);
        let len_m = pickup.haversine_m(&dropoff);
        if len_m < cfg.min_trip_m || len_m > cfg.max_trip_m {
            continue;
        }
        trips.push(Trip {
            id,
            pickup_s: sample_time_s(&mut rng),
            pickup,
            dropoff,
        });
        id += 1;
    }
    trips.sort_by(|a, b| a.pickup_s.total_cmp(&b.pickup_s).then(a.id.cmp(&b.id)));
    trips
}

/// The trips whose pickup time falls in `[from_s, to_s)` — e.g. the
/// paper's "100,000 trips ... requesting pick-ups between 6am - 12pm"
/// subset.
pub fn time_slice(trips: &[Trip], from_s: f64, to_s: f64) -> Vec<Trip> {
    trips
        .iter()
        .copied()
        .filter(|t| t.pickup_s >= from_s && t.pickup_s < to_s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_roadnet::CityConfig;

    fn graph() -> RoadGraph {
        CityConfig::test_city(17).generate()
    }

    #[test]
    fn count_and_ordering() {
        let g = graph();
        let trips = generate_trips(
            &g,
            &TripGenConfig {
                count: 2_000,
                ..Default::default()
            },
        );
        assert_eq!(trips.len(), 2_000);
        for w in trips.windows(2) {
            assert!(w[0].pickup_s <= w[1].pickup_s);
        }
    }

    #[test]
    fn trip_length_band_is_respected() {
        let g = graph();
        let trips = generate_trips(
            &g,
            &TripGenConfig {
                count: 300,
                min_trip_m: 600.0,
                max_trip_m: 1_500.0,
                ..Default::default()
            },
        );
        assert_eq!(trips.len(), 300);
        for t in &trips {
            let d = t.pickup.haversine_m(&t.dropoff);
            assert!(
                (600.0..=1_500.0).contains(&d),
                "trip length {d} m outside band"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = graph();
        let a = generate_trips(
            &g,
            &TripGenConfig {
                count: 500,
                ..Default::default()
            },
        );
        let b = generate_trips(
            &g,
            &TripGenConfig {
                count: 500,
                ..Default::default()
            },
        );
        assert_eq!(a, b);
        let c = generate_trips(
            &g,
            &TripGenConfig {
                count: 500,
                seed: 9,
                ..Default::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn trips_respect_min_length() {
        let g = graph();
        let cfg = TripGenConfig {
            count: 1_000,
            min_trip_m: 900.0,
            ..Default::default()
        };
        for t in generate_trips(&g, &cfg) {
            assert!(t.pickup.haversine_m(&t.dropoff) >= 900.0);
        }
    }

    #[test]
    fn times_are_within_the_day_and_bimodal() {
        let g = graph();
        let trips = generate_trips(
            &g,
            &TripGenConfig {
                count: 20_000,
                ..Default::default()
            },
        );
        let mut morning = 0usize; // 7-10 am
        let mut night = 0usize; // 1-4 am
        for t in &trips {
            assert!((0.0..86_400.0).contains(&t.pickup_s));
            if (7.0 * 3600.0..10.0 * 3600.0).contains(&t.pickup_s) {
                morning += 1;
            }
            if (1.0 * 3600.0..4.0 * 3600.0).contains(&t.pickup_s) {
                night += 1;
            }
        }
        // Rush hour must be several times denser than the small hours.
        assert!(morning > night * 3, "morning {morning} vs night {night}");
    }

    #[test]
    fn hotspots_skew_the_spatial_distribution() {
        let g = graph();
        let cfg = TripGenConfig {
            count: 5_000,
            hotspot_fraction: 0.9,
            ..Default::default()
        };
        let trips = generate_trips(&g, &cfg);
        // Bucket pickups into a coarse grid; the max bucket should hold
        // far more than a uniform share.
        use std::collections::HashMap;
        let mut buckets: HashMap<(i64, i64), usize> = HashMap::new();
        for t in &trips {
            let key = ((t.pickup.lat * 200.0) as i64, (t.pickup.lon * 200.0) as i64);
            *buckets.entry(key).or_default() += 1;
        }
        let max = buckets.values().max().copied().unwrap_or(0);
        let uniform_share = trips.len() / buckets.len().max(1);
        assert!(
            max > uniform_share * 3,
            "max bucket {max}, uniform {uniform_share}"
        );
    }

    #[test]
    fn time_slice_selects_window() {
        let g = graph();
        let trips = generate_trips(
            &g,
            &TripGenConfig {
                count: 3_000,
                ..Default::default()
            },
        );
        let slice = time_slice(&trips, 6.0 * 3600.0, 12.0 * 3600.0);
        assert!(!slice.is_empty());
        assert!(slice.len() < trips.len());
        for t in &slice {
            assert!((6.0 * 3600.0..12.0 * 3600.0).contains(&t.pickup_s));
        }
    }
}
