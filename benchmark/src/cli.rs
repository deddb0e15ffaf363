//! The `day_obs` half that drives the shipped `xar` binary: build it,
//! run `simulate` with every file-producing telemetry plane off and on
//! in alternating order, and validate the files it wrote.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Instant;

use crate::adapter::{Xar, DATASET_SEED};

/// The repository root: the directory above this package.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
}

/// Build `xar` (a no-op when fresh) into the target directory this
/// benchmark was built into, and return the binary's path.
pub fn ensure_xar() -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => repo_root().join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "xar",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the xar binary failed: {status}"));
    }
    Ok(target.join("release").join("xar"))
}

/// What the four alternated `xar simulate` runs measured.
#[derive(Default)]
pub struct ObsRuns {
    /// Walls of the two runs with the planes off, in run order.
    pub off_wall_s: [f64; 2],
    /// Walls of the two runs with the planes on, in run order.
    pub on_wall_s: [f64; 2],
    pub trace_file_mb: f64,
    pub events_file_mb: f64,
    /// Bookings the binary reported (identical in all four runs).
    pub booked: u64,
    /// Non-zero exit codes and disagreeing outputs.
    pub violations: Vec<String>,
}

impl ObsRuns {
    /// Mean of (wall on ÷ wall off) over the two alternated pairs.
    pub fn overhead_ratio(&self) -> f64 {
        (self.on_wall_s[0] / self.off_wall_s[0] + self.on_wall_s[1] / self.off_wall_s[1]) / 2.0
    }

    pub fn mean_on_wall_s(&self) -> f64 {
        (self.on_wall_s[0] + self.on_wall_s[1]) / 2.0
    }

    pub fn mean_off_wall_s(&self) -> f64 {
        (self.off_wall_s[0] + self.off_wall_s[1]) / 2.0
    }
}

/// Wall seconds of `run`, and its output when it exited 0.
pub fn timed(
    what: &str,
    run: impl FnOnce() -> std::io::Result<Output>,
) -> (f64, Result<Output, String>) {
    let t0 = Instant::now();
    let out = run();
    let wall_s = t0.elapsed().as_secs_f64();
    let out = match out {
        Ok(o) if o.status.success() => Ok(o),
        Ok(o) => Err(format!(
            "{what}: {} {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Err(e) => Err(format!("{what}: {e}")),
    };
    (wall_s, out)
}

/// The `booked : N (..)` line of `xar simulate`.
fn booked_of(stdout: &[u8]) -> Option<u64> {
    String::from_utf8_lossy(stdout)
        .lines()
        .find_map(|l| l.strip_prefix("booked"))
        .and_then(|rest| {
            rest.trim_start_matches([' ', ':'])
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6)
}

/// Run `simulate` off, on, on, off — alternating order cancels drift —
/// over the day the binary generates from the dataset seed, then check the planes' files outside the timed walls and delete them.
pub fn obs_alternation(xar: &Xar, region: &Path, trips: usize, out_dir: &Path) -> ObsRuns {
    let trace = out_dir.join("day_obs.trace-plane.json");
    let events = out_dir.join("day_obs.events-plane.jsonl");
    let mut runs = ObsRuns::default();
    let mut booked = Vec::new();
    for (i, on) in [false, true, true, false].into_iter().enumerate() {
        let planes = on.then_some((trace.as_path(), events.as_path()));
        let (wall_s, out) = timed("xar simulate", || {
            xar.simulate(region, trips, DATASET_SEED, planes)
        });
        let slot = usize::from(i >= 2);
        if on {
            runs.on_wall_s[slot] = wall_s;
        } else {
            runs.off_wall_s[slot] = wall_s;
        }
        match out {
            Ok(o) => booked.push(booked_of(&o.stdout)),
            Err(e) => runs.violations.push(e),
        }
    }
    match booked.first().copied().flatten() {
        Some(b) if booked.iter().all(|x| *x == Some(b)) => runs.booked = b,
        _ => runs.violations.push(format!(
            "xar simulate runs disagree on bookings: {booked:?}"
        )),
    }
    runs.trace_file_mb = file_mb(&trace);
    runs.events_file_mb = file_mb(&events);
    for out in [
        timed("xar trace --check", || xar.trace_check(&trace)).1,
        timed("xar logs --top 1", || xar.logs_top(&events)).1,
    ] {
        if let Err(e) = out {
            runs.violations.push(e);
        }
    }
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&events);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booked_line_parses() {
        let out =
            b"trips          : 15000\nbooked         : 10540 (70.3% share rate)\ncreated : 4460\n";
        assert_eq!(booked_of(out), Some(10540));
        assert_eq!(booked_of(b"nothing here"), None);
    }
}
