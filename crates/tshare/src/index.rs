//! T-Share's grid-level spatio-temporal index.
//!
//! Each grid cell keeps the list of taxis scheduled to pass through it,
//! "temporally-ordered" by estimated arrival time. This is the
//! grid-only representation the XAR paper contrasts with its
//! hierarchical clusters: "state-of-the-art dynamic ride share systems
//! like T-Share store the region information in terms of grids only,
//! hence require shortest path computation in real-time" (§I).

use std::collections::{BTreeMap, HashMap};

use xar_geo::GridId;

use crate::taxi::TaxiId;

/// Total-ordered `f64` key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One cell entry: a taxi and its arrival metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellEntry {
    /// The taxi.
    pub taxi: TaxiId,
    /// Estimated arrival at the cell, absolute seconds.
    pub eta_s: f64,
    /// Route way-point index where the taxi enters the cell.
    pub route_idx: usize,
}

/// Sparse map from grid cells to their temporally-ordered taxi lists.
#[derive(Debug, Default, Clone)]
pub struct GridTaxiIndex {
    cells: HashMap<u64, BTreeMap<(OrdF64, TaxiId), CellEntry>>,
    entries: usize,
}

impl GridTaxiIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total entries across all cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Insert a visit. A taxi may legitimately appear several times in
    /// one cell (route re-entry); each visit is its own entry.
    pub fn insert(&mut self, cell: GridId, entry: CellEntry) {
        self.cells
            .entry(cell.packed())
            .or_default()
            .insert((OrdF64(entry.eta_s), entry.taxi), entry);
        self.entries += 1;
    }

    /// Remove every entry of `taxi` in `cell`. Returns how many were
    /// removed.
    pub fn remove_taxi(&mut self, cell: GridId, taxi: TaxiId) -> usize {
        let Some(list) = self.cells.get_mut(&cell.packed()) else {
            return 0;
        };
        let keys: Vec<(OrdF64, TaxiId)> = list
            .iter()
            .filter(|((_, t), _)| *t == taxi)
            .map(|(k, _)| *k)
            .collect();
        let removed = keys.len();
        for k in keys {
            list.remove(&k);
        }
        if list.is_empty() {
            self.cells.remove(&cell.packed());
        }
        self.entries -= removed;
        removed
    }

    /// Taxis arriving in `cell` within `[from_s, to_s]`, ETA order.
    pub fn range_eta(
        &self,
        cell: GridId,
        from_s: f64,
        to_s: f64,
    ) -> impl Iterator<Item = &CellEntry> {
        self.cells
            .get(&cell.packed())
            .into_iter()
            .flat_map(move |list| {
                list.range((OrdF64(from_s), TaxiId(0))..=(OrdF64(to_s), TaxiId(u64::MAX)))
                    .map(|(_, v)| v)
            })
    }

    /// All entries of `cell` in ETA order.
    pub fn entries_of(&self, cell: GridId) -> impl Iterator<Item = &CellEntry> {
        self.cells
            .get(&cell.packed())
            .into_iter()
            .flat_map(|l| l.values())
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<((OrdF64, TaxiId), CellEntry)>() + 16;
        let per_cell = std::mem::size_of::<(u64, BTreeMap<(OrdF64, TaxiId), CellEntry>)>() + 16;
        self.cells.len() * per_cell + self.entries * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(c: u32, r: u32) -> GridId {
        GridId { col: c, row: r }
    }

    fn entry(t: u64, eta: f64) -> CellEntry {
        CellEntry {
            taxi: TaxiId(t),
            eta_s: eta,
            route_idx: 0,
        }
    }

    #[test]
    fn insert_and_range() {
        let mut idx = GridTaxiIndex::new();
        idx.insert(cell(1, 1), entry(1, 100.0));
        idx.insert(cell(1, 1), entry(2, 200.0));
        idx.insert(cell(2, 2), entry(3, 150.0));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.cell_count(), 2);
        let got: Vec<u64> = idx
            .range_eta(cell(1, 1), 0.0, 150.0)
            .map(|e| e.taxi.0)
            .collect();
        assert_eq!(got, vec![1]);
        let all: Vec<u64> = idx
            .range_eta(cell(1, 1), 0.0, 1e9)
            .map(|e| e.taxi.0)
            .collect();
        assert_eq!(all, vec![1, 2]);
    }

    #[test]
    fn multiple_visits_of_same_taxi() {
        let mut idx = GridTaxiIndex::new();
        idx.insert(cell(0, 0), entry(7, 100.0));
        idx.insert(
            cell(0, 0),
            CellEntry {
                taxi: TaxiId(7),
                eta_s: 300.0,
                route_idx: 20,
            },
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.remove_taxi(cell(0, 0), TaxiId(7)), 2);
        assert!(idx.is_empty());
        assert_eq!(idx.cell_count(), 0);
    }

    #[test]
    fn remove_from_missing_cell_is_zero() {
        let mut idx = GridTaxiIndex::new();
        assert_eq!(idx.remove_taxi(cell(9, 9), TaxiId(1)), 0);
    }

    #[test]
    fn empty_cell_ranges_are_empty() {
        let idx = GridTaxiIndex::new();
        assert_eq!(idx.range_eta(cell(0, 0), 0.0, 1e9).count(), 0);
        assert_eq!(idx.entries_of(cell(0, 0)).count(), 0);
    }
}
