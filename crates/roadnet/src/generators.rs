//! Synthetic city generators.
//!
//! The paper evaluates on the New York City OSM extract. These
//! generators produce road networks with the structural properties XAR's
//! data structures are sensitive to:
//!
//! * a **Manhattan lattice** with fast avenues, slower cross streets,
//!   alternating one-way directions (as in the real Manhattan), random
//!   missing links, and coordinate jitter — driving distance and walking
//!   distance genuinely diverge, detours are realistic;
//! * a **radial** city (ring roads + spokes) for topology-sensitivity
//!   tests;
//! * a **random geometric** network (k-nearest-neighbour connections)
//!   as an adversarial irregular topology.
//!
//! Every generator is fully deterministic in its seed, and restricts the
//! result to its largest strongly connected component so that all
//! pairwise driving routes exist.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xar_geo::GeoPoint;

use crate::graph::{NodeId, RoadClass, RoadGraph, RoadGraphBuilder};
use crate::scc::largest_scc_mask;

/// Which synthetic topology to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityKind {
    /// Rectangular lattice with avenues/streets and one-ways (NYC-like).
    Manhattan,
    /// Concentric rings connected by radial spokes.
    Radial,
    /// Uniform random points connected to their k nearest neighbours.
    RandomGeometric,
}

/// Configuration of a synthetic city.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Topology family.
    pub kind: CityKind,
    /// Grid rows (Manhattan), rings (Radial), or `rows * cols` node
    /// budget (RandomGeometric).
    pub rows: usize,
    /// Grid columns (Manhattan), spokes (Radial).
    pub cols: usize,
    /// Base block edge length in metres.
    pub block_m: f64,
    /// Every `avenue_every`-th column is a fast two-way avenue
    /// (Manhattan only; 0 disables avenues).
    pub avenue_every: usize,
    /// Fraction of street edges removed at random (roadworks, gaps).
    pub missing_edge_fraction: f64,
    /// Standard deviation of node coordinate jitter, metres.
    pub jitter_m: f64,
    /// Fraction of streets that are one-way (alternating direction).
    /// Avenues are always present in both directions every
    /// `avenue_every` columns but individually one-way in between.
    pub one_way_fraction: f64,
    /// South-west anchor of the city.
    pub origin: GeoPoint,
    /// RNG seed; equal seeds give identical cities.
    pub seed: u64,
}

impl CityConfig {
    /// A Manhattan-style city of `rows x cols` intersections with 100 m
    /// blocks.
    pub fn manhattan(rows: usize, cols: usize, seed: u64) -> Self {
        Self {
            kind: CityKind::Manhattan,
            rows,
            cols,
            block_m: 100.0,
            avenue_every: 5,
            missing_edge_fraction: 0.03,
            jitter_m: 8.0,
            one_way_fraction: 0.5,
            origin: GeoPoint::new(40.70, -74.02),
            seed,
        }
    }

    /// A small, fast-to-build city for unit tests (≈ 400 intersections,
    /// ~2 km on a side).
    pub fn test_city(seed: u64) -> Self {
        Self::manhattan(20, 20, seed)
    }

    /// A medium benchmark city (≈ 10k intersections, ~10 km x 10 km —
    /// the XAR data structures see Manhattan-scale geometry).
    pub fn bench_city(seed: u64) -> Self {
        Self::manhattan(100, 100, seed)
    }

    /// Radial city with `rings` rings and `spokes` spokes.
    pub fn radial(rings: usize, spokes: usize, seed: u64) -> Self {
        Self {
            kind: CityKind::Radial,
            rows: rings,
            cols: spokes,
            block_m: 300.0,
            avenue_every: 0,
            missing_edge_fraction: 0.0,
            jitter_m: 5.0,
            one_way_fraction: 0.0,
            origin: GeoPoint::new(40.75, -73.98),
            seed,
        }
    }

    /// Random geometric city with `n` nodes over a ~6 km square.
    pub fn random_geometric(n: usize, seed: u64) -> Self {
        Self {
            kind: CityKind::RandomGeometric,
            rows: n,
            cols: 1,
            block_m: 6000.0, // interpreted as the square side
            avenue_every: 0,
            missing_edge_fraction: 0.0,
            jitter_m: 0.0,
            one_way_fraction: 0.2,
            origin: GeoPoint::new(40.72, -74.00),
            seed,
        }
    }

    /// Generate the road network.
    pub fn generate(&self) -> RoadGraph {
        let raw = match self.kind {
            CityKind::Manhattan => generate_manhattan(self),
            CityKind::Radial => generate_radial(self),
            CityKind::RandomGeometric => generate_random_geometric(self),
        };
        // Restrict to the largest SCC so every driving route exists.
        let mask = largest_scc_mask(&raw);
        let (g, _) = raw.subgraph(&mask);
        g
    }
}

/// Gaussian-ish jitter from two uniforms (Irwin–Hall with n=2, scaled);
/// avoids pulling in a normal-distribution dependency.
fn jitter(rng: &mut StdRng, sigma_m: f64) -> f64 {
    if sigma_m <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.random::<f64>() + rng.random::<f64>() - 1.0; // mean 0, in [-1,1]
    u * sigma_m * 1.7 // roughly unit variance before scaling
}

fn generate_manhattan(cfg: &CityConfig) -> RoadGraph {
    assert!(
        cfg.rows >= 2 && cfg.cols >= 2,
        "need at least a 2x2 lattice"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let proj = xar_geo::LocalProjection::new(cfg.origin);
    let mut b = RoadGraphBuilder::with_capacity(cfg.rows * cfg.cols, 4 * cfg.rows * cfg.cols);
    let mut ids = Vec::with_capacity(cfg.rows * cfg.cols);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let x = c as f64 * cfg.block_m + jitter(&mut rng, cfg.jitter_m);
            let y = r as f64 * cfg.block_m + jitter(&mut rng, cfg.jitter_m);
            ids.push(b.add_node(proj.from_xy(x, y)));
        }
    }
    let at = |r: usize, c: usize| ids[r * cfg.cols + c];
    let is_avenue = |c: usize| cfg.avenue_every > 0 && c.is_multiple_of(cfg.avenue_every);

    // North-south links (along columns).
    for c in 0..cfg.cols {
        let class = if is_avenue(c) {
            RoadClass::Avenue
        } else {
            RoadClass::Street
        };
        for r in 0..cfg.rows - 1 {
            if rng.random::<f64>() < cfg.missing_edge_fraction {
                continue;
            }
            let (lo, hi) = (at(r, c), at(r + 1, c));
            let one_way = rng.random::<f64>() < cfg.one_way_fraction;
            if one_way {
                // Alternate direction by column (like real avenues).
                if c % 2 == 0 {
                    b.add_edge(lo, hi, class, None);
                } else {
                    b.add_edge(hi, lo, class, None);
                }
            } else {
                b.add_two_way(lo, hi, class, None);
            }
        }
    }
    // East-west links (along rows) — always streets.
    for r in 0..cfg.rows {
        for c in 0..cfg.cols - 1 {
            if rng.random::<f64>() < cfg.missing_edge_fraction {
                continue;
            }
            let (lo, hi) = (at(r, c), at(r, c + 1));
            let one_way = rng.random::<f64>() < cfg.one_way_fraction;
            if one_way {
                if r % 2 == 0 {
                    b.add_edge(lo, hi, RoadClass::Street, None);
                } else {
                    b.add_edge(hi, lo, RoadClass::Street, None);
                }
            } else {
                b.add_two_way(lo, hi, RoadClass::Street, None);
            }
        }
    }
    b.build()
}

fn generate_radial(cfg: &CityConfig) -> RoadGraph {
    assert!(
        cfg.rows >= 1 && cfg.cols >= 3,
        "need >= 1 ring and >= 3 spokes"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let proj = xar_geo::LocalProjection::new(cfg.origin);
    let mut b = RoadGraphBuilder::new();
    let center = b.add_node(cfg.origin);
    let mut rings: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.rows);
    for ring in 1..=cfg.rows {
        let radius = ring as f64 * cfg.block_m;
        let mut nodes = Vec::with_capacity(cfg.cols);
        for s in 0..cfg.cols {
            let theta = 2.0 * std::f64::consts::PI * s as f64 / cfg.cols as f64;
            let x = radius * theta.cos() + jitter(&mut rng, cfg.jitter_m);
            let y = radius * theta.sin() + jitter(&mut rng, cfg.jitter_m);
            nodes.push(b.add_node(proj.from_xy(x, y)));
        }
        // Ring road (two-way street).
        for s in 0..cfg.cols {
            b.add_two_way(nodes[s], nodes[(s + 1) % cfg.cols], RoadClass::Street, None);
        }
        rings.push(nodes);
    }
    // Spokes (two-way avenues).
    #[allow(clippy::needless_range_loop)] // rings indexed by the same spoke id
    for s in 0..cfg.cols {
        b.add_two_way(center, rings[0][s], RoadClass::Avenue, None);
        for ring in 1..cfg.rows {
            b.add_two_way(rings[ring - 1][s], rings[ring][s], RoadClass::Avenue, None);
        }
    }
    b.build()
}

fn generate_random_geometric(cfg: &CityConfig) -> RoadGraph {
    let n = cfg.rows.max(4);
    let side = cfg.block_m;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let proj = xar_geo::LocalProjection::new(cfg.origin);
    let mut b = RoadGraphBuilder::new();
    let mut xy = Vec::with_capacity(n);
    for _ in 0..n {
        let x = rng.random::<f64>() * side;
        let y = rng.random::<f64>() * side;
        xy.push((x, y));
        b.add_node(proj.from_xy(x, y));
    }
    // Connect each node to its k = 4 nearest neighbours.
    let k = 4.min(n - 1);
    for i in 0..n {
        let mut near: Vec<(usize, f64)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let dx = xy[i].0 - xy[j].0;
                let dy = xy[i].1 - xy[j].1;
                (j, (dx * dx + dy * dy).sqrt())
            })
            .collect();
        near.sort_by(|a, b| a.1.total_cmp(&b.1));
        // Only the lower id materializes a pair, so k-NN asymmetry does
        // not create duplicate parallel roads; stranded nodes are
        // handled by the SCC-restriction pass in `generate`.
        for &(j, _) in near.iter().take(k) {
            if i < j {
                if rng.random::<f64>() < cfg.one_way_fraction {
                    b.add_edge(NodeId(i as u32), NodeId(j as u32), RoadClass::Street, None);
                } else {
                    b.add_two_way(NodeId(i as u32), NodeId(j as u32), RoadClass::Street, None);
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_path::ShortestPaths;

    #[test]
    fn manhattan_is_deterministic() {
        let a = CityConfig::test_city(7).generate();
        let b = CityConfig::test_city(7).generate();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (n1, n2) in a.node_ids().zip(b.node_ids()) {
            assert_eq!(a.point(n1).lat, b.point(n2).lat);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CityConfig::test_city(1).generate();
        let b = CityConfig::test_city(2).generate();
        // Jitter means coordinates differ even if counts coincide.
        let pa = a.point(NodeId(0));
        let pb = b.point(NodeId(0));
        assert!(pa.lat != pb.lat || pa.lon != pb.lon);
    }

    #[test]
    fn manhattan_is_strongly_connected() {
        let g = CityConfig::test_city(42).generate();
        assert!(
            g.node_count() > 300,
            "SCC restriction dropped too much: {}",
            g.node_count()
        );
        let (_, count) = crate::scc::strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn manhattan_all_pairs_sample_reachable() {
        let g = CityConfig::test_city(3).generate();
        let sp = ShortestPaths::driving(&g);
        let n = g.node_count() as u32;
        for i in 0..5 {
            let src = NodeId((i * 37) % n);
            let dst = NodeId((i * 91 + 13) % n);
            assert!(
                sp.cost(src, dst).is_some(),
                "{src:?} -> {dst:?} unreachable"
            );
        }
    }

    #[test]
    fn manhattan_has_one_ways() {
        let g = CityConfig::test_city(5).generate();
        let mut one_way = 0;
        let mut checked = 0;
        for e in g.edges().take(500) {
            checked += 1;
            if g.find_edge(e.to, e.from).is_none() {
                one_way += 1;
            }
        }
        assert!(
            one_way > checked / 10,
            "expected a sizeable one-way fraction, got {one_way}/{checked}"
        );
    }

    #[test]
    fn manhattan_has_avenues_and_streets() {
        let g = CityConfig::test_city(5).generate();
        let has_avenue = g.edges().any(|e| e.class == RoadClass::Avenue);
        let has_street = g.edges().any(|e| e.class == RoadClass::Street);
        assert!(has_avenue && has_street);
    }

    #[test]
    fn radial_is_strongly_connected() {
        let g = CityConfig::radial(5, 8, 11).generate();
        assert_eq!(g.node_count(), 1 + 5 * 8);
        let (_, count) = crate::scc::strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn random_geometric_scc_restricted() {
        let g = CityConfig::random_geometric(300, 9).generate();
        assert!(g.node_count() >= 150, "kept {}", g.node_count());
        let (_, count) = crate::scc::strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn walking_vs_driving_distances_diverge_somewhere() {
        // The one-way structure must make driving distance exceed
        // walking distance for some pair — the property the paper's
        // walkable-cluster machinery exists for.
        let g = CityConfig::test_city(13).generate();
        let drive = ShortestPaths::driving(&g);
        let walk = ShortestPaths::walking(&g);
        let n = g.node_count() as u32;
        let mut diverged = false;
        for i in 0..40 {
            let src = NodeId((i * 53) % n);
            let dst = NodeId((i * 101 + 7) % n);
            if let (Some(d), Some(w)) = (drive.cost(src, dst), walk.cost(src, dst)) {
                if d > w + 50.0 {
                    diverged = true;
                    break;
                }
            }
        }
        assert!(diverged, "driving never exceeded walking distance");
    }

    #[test]
    fn block_length_is_respected() {
        let g = CityConfig::manhattan(5, 5, 1).generate();
        // Average edge length should be near the 100 m block size
        // (jitter adds a little).
        let avg = g.total_edge_length_m() / g.edge_count() as f64;
        assert!((80.0..140.0).contains(&avg), "avg edge {avg}");
    }
}
