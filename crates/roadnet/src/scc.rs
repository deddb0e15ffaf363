//! Strongly connected components (iterative Kosaraju).
//!
//! The synthetic city generators use this to restrict a generated
//! network to its largest strongly connected component, so that every
//! ride request has a driving route — one-way streets and deleted links
//! can otherwise strand nodes.

use crate::graph::{NodeId, RoadGraph};

/// Assign every node a component id; ids are arbitrary but dense
/// (`0..component_count`). Returns `(component_of_node, component_count)`.
pub fn strongly_connected_components(g: &RoadGraph) -> (Vec<u32>, usize) {
    let n = g.node_count();
    // Pass 1: iterative DFS on the forward graph recording finish order.
    let mut visited = vec![false; n];
    let mut finish_order = Vec::with_capacity(n);
    // Stack frames: (node, out-edge iterator position).
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
        visited[start] = true;
        while let Some(&mut (node, ref mut pos)) = stack.last_mut() {
            let succs: Vec<NodeId> = g.out_edges(NodeId(node)).map(|e| e.to).collect();
            if *pos < succs.len() {
                let next = succs[*pos];
                *pos += 1;
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next.0, 0));
                }
            } else {
                finish_order.push(node);
                stack.pop();
            }
        }
    }
    // Pass 2: DFS on the reverse graph in decreasing finish order.
    let mut component = vec![u32::MAX; n];
    let mut count = 0usize;
    for &start in finish_order.iter().rev() {
        if component[start as usize] != u32::MAX {
            continue;
        }
        let id = count as u32;
        count += 1;
        let mut stack = vec![start];
        component[start as usize] = id;
        while let Some(node) = stack.pop() {
            for e in g.in_edges(NodeId(node)) {
                let p = e.from;
                if component[p.index()] == u32::MAX {
                    component[p.index()] = id;
                    stack.push(p.0);
                }
            }
        }
    }
    (component, count)
}

/// Boolean mask of the nodes belonging to the largest strongly
/// connected component of `g`.
pub fn largest_scc_mask(g: &RoadGraph) -> Vec<bool> {
    let (comp, count) = strongly_connected_components(g);
    if count == 0 {
        return vec![];
    }
    let mut sizes = vec![0usize; count];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|(_, &s)| s)
        .map(|(i, _)| i as u32)
        .expect("non-empty");
    comp.iter().map(|&c| c == best).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use xar_geo::GeoPoint;

    fn pt(i: usize) -> GeoPoint {
        GeoPoint::new(40.70 + 0.001 * i as f64, -74.00)
    }

    #[test]
    fn single_cycle_is_one_component() {
        let mut b = RoadGraphBuilder::new();
        let ids: Vec<_> = (0..5).map(|i| b.add_node(pt(i))).collect();
        for i in 0..5 {
            b.add_edge(ids[i], ids[(i + 1) % 5], RoadClass::Street, Some(10.0));
        }
        let g = b.build();
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn chain_is_all_singletons() {
        let mut b = RoadGraphBuilder::new();
        let ids: Vec<_> = (0..4).map(|i| b.add_node(pt(i))).collect();
        for i in 0..3 {
            b.add_edge(ids[i], ids[i + 1], RoadClass::Street, Some(10.0));
        }
        let g = b.build();
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 4);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // cycle {0,1,2}, cycle {3,4}, one-way bridge 2 -> 3.
        let mut b = RoadGraphBuilder::new();
        let ids: Vec<_> = (0..5).map(|i| b.add_node(pt(i))).collect();
        b.add_edge(ids[0], ids[1], RoadClass::Street, Some(10.0));
        b.add_edge(ids[1], ids[2], RoadClass::Street, Some(10.0));
        b.add_edge(ids[2], ids[0], RoadClass::Street, Some(10.0));
        b.add_edge(ids[3], ids[4], RoadClass::Street, Some(10.0));
        b.add_edge(ids[4], ids[3], RoadClass::Street, Some(10.0));
        b.add_edge(ids[2], ids[3], RoadClass::Street, Some(10.0));
        let g = b.build();
        let (comp, count) = strongly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        // Largest is the 3-cycle.
        let mask = largest_scc_mask(&g);
        assert_eq!(mask, vec![true, true, true, false, false]);
    }

    #[test]
    fn empty_graph() {
        let g = RoadGraphBuilder::new().build();
        let (comp, count) = strongly_connected_components(&g);
        assert!(comp.is_empty());
        assert_eq!(count, 0);
        assert!(largest_scc_mask(&g).is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 100k-node path; recursion would blow the stack, iteration must not.
        let mut b = RoadGraphBuilder::new();
        let n = 100_000;
        let mut prev = b.add_node(GeoPoint::new(40.0, -74.0));
        for i in 1..n {
            let cur = b.add_node(GeoPoint::new(40.0 + 1e-6 * i as f64, -74.0));
            b.add_edge(prev, cur, RoadClass::Street, Some(1.0));
            prev = cur;
        }
        let g = b.build();
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, n);
    }
}
