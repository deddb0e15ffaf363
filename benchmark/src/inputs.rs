//! Makes a run's inputs from `--seed`: the same seed gives the same
//! inputs, and the program under test sees only the generated inputs.

use std::path::Path;
use std::time::Instant;

use crate::adapter::{City, Region, Trip, Xar, DATASET_SEED};
use crate::cli;
use crate::spec::Workload;

/// The dataset is this many times the day drawn from it.
const POOL_FACTOR: usize = 2;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Draw exactly `n` of `pool` (selection sampling), keeping time order.
fn sample_day(pool: &[Trip], n: usize, seed: u64) -> Vec<Trip> {
    let mut rng = SplitMix64(seed);
    let mut day = Vec::with_capacity(n);
    for (i, trip) in pool.iter().enumerate() {
        let (need, left) = ((n - day.len()) as u64, (pool.len() - i) as u64);
        if rng.next() % left < need {
            day.push(*trip);
        }
    }
    day
}

/// For every request, the trips whose pick-up its looks search from:
/// another trip each.
fn pick_looks(trips: usize, looks: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64(seed ^ 0x100C_5EED);
    let n = trips as u64;
    (0..n)
        .flat_map(|i| std::iter::repeat_n(i, looks))
        .map(|i| ((i + 1 + rng.next() % (n - 1)) % n) as u32)
        .collect()
}

/// The generated inputs of one run and how long each part took.
pub struct Setup {
    pub city: City,
    pub region: Region,
    pub trips: Vec<Trip>,
    pub look_from: Vec<u32>,
    pub build_s: f64,
    pub tripgen_s: f64,
    /// What `setup_s` reports for this set-up.
    pub total_s: f64,
}

/// The day's trips: a seeded sample of the dataset, which is the
/// repository generator's output under its fixed seed. Drawing the
/// sample, not the dataset, from `--seed` keeps the hotspot geography
/// fixed — as it is for the paper's one NYC dataset — so that runs
/// with different seeds measure the same city and differ only by
/// sampling noise.
fn generate_day(city: &City, w: &Workload, trips: usize, seed: u64) -> (Vec<Trip>, Vec<u32>) {
    let pool = city.trips(trips * POOL_FACTOR, DATASET_SEED);
    (
        sample_day(&pool, trips, seed),
        pick_looks(trips, w.looks, seed),
    )
}

impl Setup {
    /// City + POIs + region build + trip generation, all in process.
    pub fn in_process(w: &Workload, trips: usize, seed: u64) -> Setup {
        let t0 = Instant::now();
        let city = City::generate(w.side);
        let t1 = Instant::now();
        let region = city.build_region();
        let t2 = Instant::now();
        let (day, look_from) = generate_day(&city, w, trips, seed);
        let t3 = Instant::now();
        Setup {
            city,
            region,
            trips: day,
            look_from,
            build_s: (t2 - t1).as_secs_f64(),
            tripgen_s: (t3 - t2).as_secs_f64(),
            total_s: (t3 - t0).as_secs_f64(),
        }
    }

    /// `day_obs`: the region comes from `xar build-region` (that wall
    /// is the set-up time) and is loaded from the file it wrote.
    pub fn from_cli(
        w: &Workload,
        xar: &Xar,
        region_file: &Path,
        trips: usize,
        seed: u64,
    ) -> Result<Setup, String> {
        let (build_s, out) =
            cli::timed("xar build-region", || xar.build_region(w.side, region_file));
        out?;
        let region =
            Region::load(region_file).map_err(|e| format!("cannot load the region: {e}"))?;
        let city = City::generate(w.side);
        let t0 = Instant::now();
        let (day, look_from) = generate_day(&city, w, trips, seed);
        let tripgen_s = t0.elapsed().as_secs_f64();
        Ok(Setup {
            city,
            region,
            trips: day,
            look_from,
            build_s,
            tripgen_s,
            total_s: build_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn looks_never_pick_the_request_itself_and_repeat_per_seed() {
        let a = pick_looks(50, 3, 7);
        assert_eq!(a.len(), 150);
        assert!(a
            .iter()
            .enumerate()
            .all(|(k, &from)| from as usize != k / 3 && from < 50));
        assert_eq!(a, pick_looks(50, 3, 7));
        assert_ne!(a, pick_looks(50, 3, 8));
    }
}
