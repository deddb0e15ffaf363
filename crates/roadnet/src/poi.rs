//! Point-of-interest sampler.
//!
//! The paper extracts ~30 000 landmarks from the Google Places API,
//! prunes insignificant ones (small stores) down to ~16 000, and feeds
//! the remainder to the landmark filter. We reproduce the same pipeline
//! with a seeded sampler: POIs are scattered near road nodes, weighted
//! by local connectivity (intersections of big roads attract more
//! amenities), with a significance class that the caller can use to
//! prune exactly like the paper does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xar_geo::GeoPoint;

use crate::graph::{NodeId, RoadGraph};

/// Category of a point of interest, ordered by significance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PoiKind {
    /// Transit infrastructure (bus stop, railway station, taxi stand) —
    /// always significant.
    TransitStop,
    /// Major destination (mall, big store, important building).
    MajorDestination,
    /// Small store / minor amenity — pruned by the paper's filter.
    MinorAmenity,
}

impl PoiKind {
    /// Whether the paper's pruning step keeps this POI ("pruned to
    /// remove insignificant landmarks (e.g., small stores)", §X.A.3).
    pub fn is_significant(self) -> bool {
        !matches!(self, PoiKind::MinorAmenity)
    }
}

/// A sampled point of interest, snapped to its nearest road node.
#[derive(Debug, Clone, Copy)]
pub struct Poi {
    /// Geographic location (near, not exactly on, the road node).
    pub point: GeoPoint,
    /// The road-graph node this POI snaps to.
    pub node: NodeId,
    /// Significance category.
    pub kind: PoiKind,
}

/// Configuration of the POI sampler.
#[derive(Debug, Clone)]
pub struct PoiConfig {
    /// Expected number of POIs to sample (before significance pruning).
    pub count: usize,
    /// Fraction that are transit stops.
    pub transit_fraction: f64,
    /// Fraction that are major destinations.
    pub major_fraction: f64,
    /// Maximum offset of the POI from its road node, metres.
    pub scatter_m: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PoiConfig {
    fn default() -> Self {
        Self {
            count: 2_000,
            transit_fraction: 0.25,
            major_fraction: 0.35,
            scatter_m: 40.0,
            seed: 0xA11CE,
        }
    }
}

/// Sample POIs over the road network.
///
/// Nodes with higher out-degree (bigger intersections) are
/// proportionally more likely to host POIs, mimicking real amenity
/// distributions. Deterministic in the seed.
pub fn sample_pois(graph: &RoadGraph, cfg: &PoiConfig) -> Vec<Poi> {
    assert!(
        graph.node_count() > 0,
        "cannot sample POIs on an empty graph"
    );
    assert!(
        cfg.transit_fraction + cfg.major_fraction <= 1.0 + 1e-9,
        "fractions must sum to at most 1"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Degree-weighted cumulative distribution over nodes.
    let weights: Vec<f64> = graph
        .node_ids()
        .map(|n| 1.0 + graph.out_degree(n) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cum = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cum.push(acc);
    }
    let mut out = Vec::with_capacity(cfg.count);
    for _ in 0..cfg.count {
        let x = rng.random::<f64>() * total;
        let idx = cum.partition_point(|&c| c < x).min(weights.len() - 1);
        let node = NodeId(idx as u32);
        let base = graph.point(node);
        let bearing = rng.random::<f64>() * 360.0;
        let dist = rng.random::<f64>() * cfg.scatter_m;
        let point = base.destination(bearing, dist);
        let roll = rng.random::<f64>();
        let kind = if roll < cfg.transit_fraction {
            PoiKind::TransitStop
        } else if roll < cfg.transit_fraction + cfg.major_fraction {
            PoiKind::MajorDestination
        } else {
            PoiKind::MinorAmenity
        };
        out.push(Poi { point, node, kind });
    }
    out
}

/// The paper's significance pruning: keep transit stops and major
/// destinations, drop minor amenities.
pub fn prune_insignificant(pois: &[Poi]) -> Vec<Poi> {
    pois.iter()
        .copied()
        .filter(|p| p.kind.is_significant())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::CityConfig;

    #[test]
    fn sampling_is_deterministic() {
        let g = CityConfig::test_city(1).generate();
        let a = sample_pois(&g, &PoiConfig::default());
        let b = sample_pois(&g, &PoiConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn count_is_respected() {
        let g = CityConfig::test_city(1).generate();
        let pois = sample_pois(
            &g,
            &PoiConfig {
                count: 500,
                ..Default::default()
            },
        );
        assert_eq!(pois.len(), 500);
    }

    #[test]
    fn kinds_roughly_match_fractions() {
        let g = CityConfig::test_city(2).generate();
        let cfg = PoiConfig {
            count: 4_000,
            ..Default::default()
        };
        let pois = sample_pois(&g, &cfg);
        let transit = pois
            .iter()
            .filter(|p| p.kind == PoiKind::TransitStop)
            .count() as f64;
        let frac = transit / pois.len() as f64;
        assert!(
            (frac - cfg.transit_fraction).abs() < 0.05,
            "transit fraction {frac}"
        );
    }

    #[test]
    fn pois_are_near_their_nodes() {
        let g = CityConfig::test_city(3).generate();
        let cfg = PoiConfig {
            scatter_m: 40.0,
            ..Default::default()
        };
        for p in sample_pois(&g, &cfg) {
            assert!(p.point.haversine_m(&g.point(p.node)) <= cfg.scatter_m + 1.0);
        }
    }

    #[test]
    fn pruning_removes_only_minor() {
        let g = CityConfig::test_city(4).generate();
        let pois = sample_pois(&g, &PoiConfig::default());
        let kept = prune_insignificant(&pois);
        assert!(kept.len() < pois.len());
        assert!(kept.iter().all(|p| p.kind.is_significant()));
        let significant = pois.iter().filter(|p| p.kind.is_significant()).count();
        assert_eq!(kept.len(), significant);
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn invalid_fractions_panic() {
        let g = CityConfig::test_city(1).generate();
        let _ = sample_pois(
            &g,
            &PoiConfig {
                transit_fraction: 0.8,
                major_fraction: 0.5,
                ..Default::default()
            },
        );
    }
}
