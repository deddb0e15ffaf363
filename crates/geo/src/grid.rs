//! The implicit square grid of Definition 1.
//!
//! > *"A grid is defined as a bounded square geographical region. All
//! > point locations whose latitude and longitude map to the region
//! > bounded by the square defining a grid, are associated or mapped to
//! > the specific grid."* (§IV, Definition 1)
//!
//! The grid is *implicit*: no storage is allocated per cell. A
//! [`GridSpec`] holds only the region bounding box and the cell side
//! length; [`GridSpec::grid_of`] maps any point to its [`GridId`]
//! numerically, and [`GridSpec::centroid`] recovers the cell centroid
//! that stands in for the cell in all distance computations ("we
//! identify a grid by its centroid", §IV).
//!
//! What the paper *stores* per grid — its landmark and walkable
//! clusters — hangs off the way-point nearest the cell's centroid, a
//! constant of the cell. `xar_discretize`'s `RegionIndex` therefore
//! keeps one 4-byte way-point id per cell beside its `GridSpec`, so
//! "identify the grid" at search time is `grid_of` plus one read, not
//! a nearest-node search per end-point.

use crate::{BoundingBox, GeoPoint, LocalProjection};

/// Identifier of one cell of the implicit grid: `(column, row)` counted
/// from the south-west corner of the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridId {
    /// Column index (west → east).
    pub col: u32,
    /// Row index (south → north).
    pub row: u32,
}

impl GridId {
    /// Pack into a single `u64` (row-major), useful as a compact map key.
    #[inline]
    pub fn packed(self) -> u64 {
        (u64::from(self.row) << 32) | u64::from(self.col)
    }

    /// Inverse of [`GridId::packed`].
    #[inline]
    pub fn from_packed(v: u64) -> Self {
        Self {
            col: (v & 0xFFFF_FFFF) as u32,
            row: (v >> 32) as u32,
        }
    }
}

/// The implicit grid over a region: a bounding box partitioned into
/// square cells of a fixed side length (100 m in the paper: "we consider
/// very small grids of size 100 m²", §IV).
///
/// ```
/// use xar_geo::{BoundingBox, GeoPoint, GridSpec};
/// let bbox = BoundingBox::new(GeoPoint::new(40.70, -74.02), GeoPoint::new(40.80, -73.93));
/// let grid = GridSpec::new(bbox, 100.0);
/// let p = GeoPoint::new(40.7512, -73.9876);
/// let cell = grid.grid_of(&p);                     // unique total mapping
/// assert_eq!(grid.grid_of(&grid.centroid(cell)), cell); // centroid stays inside
/// ```
#[derive(Debug, Clone)]
pub struct GridSpec {
    bbox: BoundingBox,
    proj: LocalProjection,
    cell_m: f64,
    cols: u32,
    rows: u32,
    /// Projected coordinates of the bbox south-west corner.
    sw_xy: (f64, f64),
}

impl GridSpec {
    /// Create a grid over `bbox` with cells of side `cell_m` metres.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not strictly positive and finite.
    pub fn new(bbox: BoundingBox, cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "cell size must be positive, got {cell_m}"
        );
        let proj = LocalProjection::new(bbox.center());
        let (sw_x, sw_y) = proj.to_xy(&bbox.min);
        let (ne_x, ne_y) = proj.to_xy(&bbox.max);
        let cols = (((ne_x - sw_x) / cell_m).ceil() as u32).max(1);
        let rows = (((ne_y - sw_y) / cell_m).ceil() as u32).max(1);
        Self {
            bbox,
            proj,
            cell_m,
            cols,
            rows,
            sw_xy: (sw_x, sw_y),
        }
    }

    /// The region covered by the grid.
    #[inline]
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Cell side length in metres.
    #[inline]
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells in the grid.
    #[inline]
    pub fn cell_count(&self) -> u64 {
        u64::from(self.cols) * u64::from(self.rows)
    }

    /// Map a point to its grid cell.
    ///
    /// Points outside the region are clamped to the nearest boundary
    /// cell, so the mapping is total — every point location maps to a
    /// unique grid, as Definition 1 requires.
    pub fn grid_of(&self, p: &GeoPoint) -> GridId {
        let (x, y) = self.proj.to_xy(p);
        let col = ((x - self.sw_xy.0) / self.cell_m).floor();
        let row = ((y - self.sw_xy.1) / self.cell_m).floor();
        GridId {
            col: (col.max(0.0) as u32).min(self.cols - 1),
            row: (row.max(0.0) as u32).min(self.rows - 1),
        }
    }

    /// The centroid of a grid cell — the point that represents the cell
    /// in every distance computation.
    pub fn centroid(&self, id: GridId) -> GeoPoint {
        let x = self.sw_xy.0 + (f64::from(id.col) + 0.5) * self.cell_m;
        let y = self.sw_xy.1 + (f64::from(id.row) + 0.5) * self.cell_m;
        self.proj.from_xy(x, y)
    }

    /// Whether `id` addresses a cell inside this grid.
    #[inline]
    pub fn is_valid(&self, id: GridId) -> bool {
        id.col < self.cols && id.row < self.rows
    }

    /// The up-to-8 neighbouring cells of `id` (fewer on the boundary).
    pub fn neighbors(&self, id: GridId) -> Vec<GridId> {
        let mut out = Vec::with_capacity(8);
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let r = i64::from(id.row) + dr;
                let c = i64::from(id.col) + dc;
                if r >= 0 && c >= 0 && (r as u32) < self.rows && (c as u32) < self.cols {
                    out.push(GridId {
                        col: c as u32,
                        row: r as u32,
                    });
                }
            }
        }
        out
    }

    /// Cells in the square "ring" at Chebyshev distance `radius` around
    /// `center` (radius 0 is the centre cell itself). This is the
    /// expansion order used by grid-based searches such as T-Share's.
    pub fn ring(&self, center: GridId, radius: u32) -> Vec<GridId> {
        let mut out = Vec::with_capacity((8 * radius.max(1)) as usize);
        self.for_ring(center, radius, |id| out.push(id));
        out
    }

    /// Visit the cells of [`GridSpec::ring`] without allocating — hot
    /// paths (the spatial locator's nearest-node search runs for every
    /// stop of every ride offer) use this to stay allocation-free.
    pub fn for_ring(&self, center: GridId, radius: u32, mut visit: impl FnMut(GridId)) {
        if radius == 0 {
            if self.is_valid(center) {
                visit(center);
            }
            return;
        }
        let r = i64::from(radius);
        let (cc, cr) = (i64::from(center.col), i64::from(center.row));
        let mut push = |c: i64, row: i64| {
            if c >= 0 && row >= 0 && (c as u32) < self.cols && (row as u32) < self.rows {
                visit(GridId {
                    col: c as u32,
                    row: row as u32,
                });
            }
        };
        for dc in -r..=r {
            push(cc + dc, cr - r);
            push(cc + dc, cr + r);
        }
        for dr in (-r + 1)..r {
            push(cc - r, cr + dr);
            push(cc + r, cr + dr);
        }
    }

    /// Iterate over every cell of the grid, row-major from the
    /// south-west corner.
    pub fn iter_cells(&self) -> impl Iterator<Item = GridId> + '_ {
        let cols = self.cols;
        (0..self.rows).flat_map(move |row| (0..cols).map(move |col| GridId { col, row }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        let bbox = BoundingBox::new(GeoPoint::new(40.70, -74.02), GeoPoint::new(40.80, -73.93));
        GridSpec::new(bbox, 100.0)
    }

    #[test]
    fn dimensions_match_extent() {
        let g = spec();
        // ~7.6 km wide, ~11.1 km tall at 100 m cells.
        assert!((70..=80).contains(&g.cols()), "cols {}", g.cols());
        assert!((105..=115).contains(&g.rows()), "rows {}", g.rows());
        assert_eq!(g.cell_count(), u64::from(g.cols()) * u64::from(g.rows()));
    }

    #[test]
    fn every_point_maps_to_unique_cell_containing_it() {
        let g = spec();
        let p = GeoPoint::new(40.7512, -73.9876);
        let id = g.grid_of(&p);
        let c = g.centroid(id);
        // Point must be within half a cell diagonal of its centroid.
        let d = p.haversine_m(&c);
        assert!(
            d <= 100.0 * std::f64::consts::SQRT_2 / 2.0 + 1.0,
            "distance {d}"
        );
    }

    #[test]
    fn centroid_round_trips_to_same_cell() {
        let g = spec();
        for id in [
            GridId { col: 0, row: 0 },
            GridId { col: 10, row: 42 },
            GridId {
                col: g.cols() - 1,
                row: g.rows() - 1,
            },
        ] {
            assert_eq!(g.grid_of(&g.centroid(id)), id);
        }
    }

    #[test]
    fn out_of_region_points_clamp_to_boundary() {
        let g = spec();
        let far_sw = GeoPoint::new(40.0, -75.0);
        let id = g.grid_of(&far_sw);
        assert_eq!(id, GridId { col: 0, row: 0 });
        let far_ne = GeoPoint::new(41.0, -73.0);
        let id = g.grid_of(&far_ne);
        assert_eq!(
            id,
            GridId {
                col: g.cols() - 1,
                row: g.rows() - 1
            }
        );
    }

    #[test]
    fn neighbors_interior_has_eight() {
        let g = spec();
        assert_eq!(g.neighbors(GridId { col: 5, row: 5 }).len(), 8);
    }

    #[test]
    fn neighbors_corner_has_three() {
        let g = spec();
        assert_eq!(g.neighbors(GridId { col: 0, row: 0 }).len(), 3);
    }

    #[test]
    fn ring_counts() {
        let g = spec();
        let c = GridId { col: 20, row: 20 };
        assert_eq!(g.ring(c, 0), vec![c]);
        assert_eq!(g.ring(c, 1).len(), 8);
        assert_eq!(g.ring(c, 2).len(), 16);
        // Rings partition the neighbourhood: no duplicates.
        let mut all: Vec<_> = (0..=3).flat_map(|r| g.ring(c, r)).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn ring_clips_at_boundary() {
        let g = spec();
        let c = GridId { col: 0, row: 0 };
        assert_eq!(g.ring(c, 1).len(), 3);
    }

    #[test]
    fn packed_round_trip() {
        let id = GridId {
            col: 123,
            row: 4567,
        };
        assert_eq!(GridId::from_packed(id.packed()), id);
    }

    #[test]
    fn iter_cells_covers_all_once() {
        let bbox = BoundingBox::new(GeoPoint::new(40.70, -74.02), GeoPoint::new(40.705, -74.015));
        let g = GridSpec::new(bbox, 100.0);
        let cells: Vec<_> = g.iter_cells().collect();
        assert_eq!(cells.len() as u64, g.cell_count());
        let mut dedup = cells.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), cells.len());
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let bbox = BoundingBox::new(GeoPoint::new(40.70, -74.02), GeoPoint::new(40.80, -73.93));
        let _ = GridSpec::new(bbox, 0.0);
    }
}
