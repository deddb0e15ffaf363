//! Binary serialization of road graphs.
//!
//! The paper's pre-processing "needs to be done once before deploying
//! the system for each region" (§III); persisting the network (and,
//! one level up, the whole region index) lets a deployment skip it on
//! restart. The format is a small versioned little-endian codec — no
//! external dependencies, stable across runs.

use std::io::{self, Read, Write};

use xar_geo::GeoPoint;

use crate::graph::{NodeId, RoadClass, RoadGraph, RoadGraphBuilder};

/// Magic bytes prefixing a serialized road graph.
pub const GRAPH_MAGIC: &[u8; 4] = b"XARG";
/// Current format version.
pub const GRAPH_VERSION: u16 = 1;

fn w_u16(w: &mut impl Write, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn r_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}
fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn class_tag(c: RoadClass) -> u8 {
    match c {
        RoadClass::Highway => 0,
        RoadClass::Avenue => 1,
        RoadClass::Street => 2,
        RoadClass::Lane => 3,
    }
}

fn class_from_tag(t: u8) -> io::Result<RoadClass> {
    Ok(match t {
        0 => RoadClass::Highway,
        1 => RoadClass::Avenue,
        2 => RoadClass::Street,
        3 => RoadClass::Lane,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown road class tag {other}"),
            ))
        }
    })
}

/// Serialize `graph` to `w`.
pub fn write_graph(w: &mut impl Write, graph: &RoadGraph) -> io::Result<()> {
    w.write_all(GRAPH_MAGIC)?;
    w_u16(w, GRAPH_VERSION)?;
    w_u32(w, graph.node_count() as u32)?;
    for n in graph.node_ids() {
        let p = graph.point(n);
        w_f64(w, p.lat)?;
        w_f64(w, p.lon)?;
    }
    w_u32(w, graph.edge_count() as u32)?;
    for e in graph.edges() {
        w_u32(w, e.from.0)?;
        w_u32(w, e.to.0)?;
        w_f64(w, e.len_m)?;
        w.write_all(&[class_tag(e.class)])?;
    }
    Ok(())
}

/// Deserialize a road graph from `r`.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic/version or malformed content.
pub fn read_graph(r: &mut impl Read) -> io::Result<RoadGraph> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != GRAPH_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a XAR road graph",
        ));
    }
    let version = r_u16(r)?;
    if version != GRAPH_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported graph version {version}"),
        ));
    }
    let n = r_u32(r)? as usize;
    // Counts come from untrusted bytes: cap the up-front reservation so
    // a corrupt header cannot force a multi-gigabyte allocation; pushes
    // beyond the cap just grow normally (truncated input fails at
    // read_exact long before that).
    let mut b = RoadGraphBuilder::with_capacity(n.min(1 << 20), 0);
    for _ in 0..n {
        let lat = r_f64(r)?;
        let lon = r_f64(r)?;
        if !((-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "coordinate out of range",
            ));
        }
        b.add_node(GeoPoint::new(lat, lon));
    }
    let m = r_u32(r)? as usize;
    for _ in 0..m {
        let from = r_u32(r)?;
        let to = r_u32(r)?;
        let len = r_f64(r)?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let class = class_from_tag(tag[0])?;
        if from as usize >= n || to as usize >= n || !(len.is_finite() && len > 0.0) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed edge"));
        }
        b.add_edge(NodeId(from), NodeId(to), class, Some(len));
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::CityConfig;

    #[test]
    fn round_trip_preserves_graph() {
        let g = CityConfig::test_city(3).generate();
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        let g2 = read_graph(&mut buf.as_slice()).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for n in g.node_ids() {
            assert_eq!(g.point(n).lat, g2.point(n).lat);
            assert_eq!(g.point(n).lon, g2.point(n).lon);
        }
        for (a, b) in g.edges().zip(g2.edges()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert_eq!(a.len_m, b.len_m);
            assert_eq!(a.class, b.class);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_graph(&mut &b"NOPE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_input() {
        let g = CityConfig::test_city(4).generate();
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_graph(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let g = CityConfig::test_city(5).generate();
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        buf[4] = 99; // version little-endian low byte
        assert!(read_graph(&mut buf.as_slice()).is_err());
    }
}
