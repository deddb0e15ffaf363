//! Property tests for the profile export format: any profile built
//! from arbitrary stack-path entries must round-trip **exactly**
//! through its own collapsed-stack serializer and parser.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xar_obs::profile::{parse_collapsed, Profile};

/// Frame-name strategy: plain identifier-ish names (real span names are
/// `&'static str` literals like `search` / `snapshot.publish`), plus a
/// few with characters the collapsed format must sanitize.
fn frame_name() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
    let ident = (0usize..26, proptest::collection::vec(0usize..CHARS.len(), 0..12)).prop_map(
        |(first, rest)| {
            let mut s = String::new();
            s.push(CHARS[first] as char);
            for i in rest {
                s.push(CHARS[i] as char);
            }
            s
        },
    );
    prop_oneof![
        8 => ident,
        1 => Just("with space".to_string()),
        1 => Just("semi;colon".to_string()),
    ]
}

/// A set of weighted stack paths: depth 1..=6, weight ≥ 1 (zero-weight
/// paths are dropped by the exporter, so the canonical form excludes
/// them).
fn entries() -> impl Strategy<Value = Vec<(Vec<String>, u64)>> {
    proptest::collection::vec(
        (proptest::collection::vec(frame_name(), 1..6), 1u64..1 << 40),
        1..20,
    )
}

/// The canonical form both sides are compared in: summed weight per
/// *sanitized* path (duplicate generated paths merge in the profile,
/// and sanitization may alias `with space` with `with_space`).
fn canon(entries: &[(Vec<String>, u64)]) -> BTreeMap<Vec<String>, u64> {
    let mut m = BTreeMap::new();
    for (path, w) in entries {
        let path: Vec<String> = path
            .iter()
            .map(|f| f.replace([';', ' ', '\n', '\t', '\r'], "_"))
            .collect();
        *m.entry(path).or_insert(0) += w;
    }
    m
}

proptest! {
    /// collapsed: serialize → parse reproduces the exact per-path
    /// self-time multiset.
    #[test]
    fn collapsed_round_trips_exactly(entries in entries()) {
        let profile = Profile::from_entries(&entries);
        let text = profile.to_collapsed();
        let parsed = parse_collapsed(&text).expect("own exposition parses");
        prop_assert_eq!(canon(&parsed), canon(&entries));
    }

    /// Totals are conserved: the profile's total self-time equals the
    /// sum of the input weights (u64 arithmetic, no float drift).
    #[test]
    fn total_is_sum_of_weights(entries in entries()) {
        let profile = Profile::from_entries(&entries);
        let expected: u64 = entries.iter().map(|(_, w)| w).sum();
        prop_assert_eq!(profile.total_ns(), expected);
    }
}
