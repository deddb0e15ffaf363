//! Criterion micro-benchmarks of the four runtime operations (search /
//! create / book / track) and the shortest-path engines they rest on.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use xar_bench::BenchCity;
use xar_core::{EngineConfig, RideOffer, RideRequest, XarEngine};
use xar_roadnet::{NodeId, ShortestPaths};
use xar_workload::{generate_trips, TripGenConfig};

fn setup() -> (BenchCity, Arc<xar_discretize::RegionIndex>) {
    let city = BenchCity::sized(40, 40);
    let region = city.region_delta(250.0);
    (city, region)
}

/// An engine pre-loaded with `n` cross-town rides.
fn loaded_engine(city: &BenchCity, region: &Arc<xar_discretize::RegionIndex>, n: usize) -> XarEngine {
    let mut eng = XarEngine::new(Arc::clone(region), EngineConfig::default());
    let trips = generate_trips(&city.graph, &TripGenConfig { count: n, ..Default::default() });
    for t in &trips {
        let _ = eng.create_ride(&RideOffer {
            source: t.pickup,
            destination: t.dropoff,
            departure_s: t.pickup_s,
            seats: 3,
            detour_limit_m: 4_000.0, driver: None, via: Vec::new(),
        });
    }
    eng
}

fn bench_ops(c: &mut Criterion) {
    let (city, region) = setup();
    let eng = loaded_engine(&city, &region, 1_000);
    let trips = generate_trips(&city.graph, &TripGenConfig { count: 512, seed: 99, ..Default::default() });

    let mut group = c.benchmark_group("xar_ops");

    group.bench_function("search_all_matches", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let t = &trips[i % trips.len()];
            i += 1;
            let req = RideRequest {
                source: t.pickup,
                destination: t.dropoff,
                window_start_s: t.pickup_s,
                window_end_s: t.pickup_s + 1_200.0,
                walk_limit_m: 800.0,
            };
            std::hint::black_box(eng.search(&req, usize::MAX).unwrap_or_default())
        })
    });

    group.bench_function("create_ride", |b| {
        b.iter_batched(
            || XarEngine::new(Arc::clone(&region), EngineConfig::default()),
            |mut fresh| {
                let t = &trips[0];
                let offer = RideOffer {
                    source: t.pickup,
                    destination: t.dropoff,
                    departure_s: t.pickup_s,
                    seats: 3,
                    detour_limit_m: 4_000.0, driver: None, via: Vec::new(),
                };
                std::hint::black_box(fresh.create_ride(&offer).ok())
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("book_first_match", |b| {
        b.iter_batched(
            || {
                let eng = loaded_engine(&city, &region, 200);
                let t = trips
                    .iter()
                    .find_map(|t| {
                        let req = RideRequest {
                            source: t.pickup,
                            destination: t.dropoff,
                            window_start_s: t.pickup_s,
                            window_end_s: t.pickup_s + 1_200.0,
                            walk_limit_m: 800.0,
                        };
                        eng.search(&req, 1).ok().and_then(|m| m.first().copied())
                    })
                    .expect("some trip matches in a 200-ride pool");
                (eng, t)
            },
            |(mut eng, m)| std::hint::black_box(eng.book(&m).ok()),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("track_all_600s", |b| {
        b.iter_batched(
            || loaded_engine(&city, &region, 200),
            |mut eng| {
                eng.track_all(9.0 * 3600.0);
                std::hint::black_box(eng.ride_count())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    let mut sp_group = c.benchmark_group("shortest_path");
    let g = &city.graph;
    let n = g.node_count() as u32;
    sp_group.bench_function("dijkstra_cross_city", |b| {
        let sp = ShortestPaths::driving(g);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(97);
            std::hint::black_box(sp.cost(NodeId(i % n), NodeId((i * 31 + 7) % n)))
        })
    });
    sp_group.bench_function("router_cross_city", |b| {
        let router = region.router();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(97);
            std::hint::black_box(router.path(NodeId(i % n), NodeId((i * 31 + 7) % n)).map(|p| p.dist_m))
        })
    });
    sp_group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ops
}
criterion_main!(benches);
