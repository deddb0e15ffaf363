//! Pin the `xar` binary's exit-code contract: CI and operators branch
//! on these, so a renumbering is a breaking change. 0 = ok (also when
//! the reader of stdout exits early), 1 = generic error (including a
//! flag the subcommand does not read, or a value that cannot mean
//! anything), 2 = unreadable / invalid trace JSON,
//! 3 = trace with no complete request timeline, 4 = trace missing the
//! drop counter, 9 = invalid `--threads` / `--shards` / `xar logs`
//! filter value. `xar logs` reuses 2 (unreadable / invalid events file)
//! and 3 (no events, or none matching the filters). The full table
//! lives in README.md § Exit codes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use xar_obs::chrome::{parse_chrome, Timeline};

fn xar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xar"))
        .args(args)
        .output()
        .expect("spawn xar")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).expect("write fixture");
}

/// A per-test scratch directory under the target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

#[test]
fn trace_check_exit_codes_are_distinct_per_failure_class() {
    let dir = scratch("trace_codes");

    // 2: file unreadable.
    let out = xar(&[
        "trace",
        "--check",
        "--in",
        dir.join("missing.json").to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 2: not valid Chrome JSON.
    let bad = dir.join("bad.json");
    write(&bad, "this is not json");
    let out = xar(&["trace", "--check", "--in", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 3: valid JSON, drop counter present, but no request timeline.
    let empty = dir.join("empty.json");
    write(&empty, r#"{"traceEvents":[],"xar":{"dropped_events":0}}"#);
    let out = xar(&["trace", "--check", "--in", empty.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{out:?}");

    // 4: a complete request timeline but no "xar" drop-counter block.
    let nodrop = dir.join("nodrop.json");
    write(
        &nodrop,
        r#"{"traceEvents":[
            {"name":"request","ph":"B","ts":0,"pid":1,"tid":1,"args":{"trace":1,"span":1}},
            {"name":"request","ph":"E","ts":100,"pid":1,"tid":1}
        ]}"#,
    );
    let out = xar(&["trace", "--check", "--in", nodrop.to_str().unwrap()]);
    assert_eq!(code(&out), 4, "{out:?}");

    // 1: generic CLI error (missing required flag).
    let out = xar(&["trace", "--check"]);
    assert_eq!(code(&out), 1, "{out:?}");

    // 0: the healthy path — a real `simulate` trace passes --check.
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region",
        "--rows",
        "14",
        "--cols",
        "14",
        "--seed",
        "5",
        "--clusters",
        "10",
        "--out",
        region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "build-region failed: {out:?}");
    let trace = dir.join("trace.json");
    let out = xar(&[
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--trips",
        "300",
        "--trace-out",
        trace.to_str().unwrap(),
        "--trace-sample",
        "1.0",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let out = xar(&["trace", "--check", "--in", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");

    // 0: a trace written before the recorder merged with the wide
    // event (it carries `request.*` instants, lifecycle milestones and
    // the removed `adopted_segments` counter) still passes — the reader
    // skips instants and ignores keys it does not know.
    let old = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trace_before_one_recorder.json"
    );
    let out = xar(&["trace", "--check", "--in", old]);
    assert_eq!(code(&out), 0, "{out:?}");
}

#[test]
fn invalid_threads_or_shards_exit_9_with_a_clear_message() {
    // Concurrency flags are validated before the region file is even
    // opened, so none of these need a fixture. Each failure names the
    // offending flag and the accepted range.
    for args in [
        ["simulate", "--threads", "0"],
        ["simulate", "--threads", "2"],
        ["simulate", "--threads", "abc"],
        ["simulate", "--threads", "-4"],
        ["simulate", "--shards", "0"],
        ["simulate", "--shards", "999"],
    ] {
        let out = xar(&args);
        assert_eq!(code(&out), 9, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(
            msg.contains(args[1].trim_start_matches('-')),
            "{args:?}: {msg}"
        );
    }

    // A valid value on the same flags does not trip the validator: the
    // run gets as far as the (missing) region file, a generic error.
    let out = xar(&[
        "simulate",
        "--region",
        "/nonexistent.xarr",
        "--threads",
        "1",
        "--shards",
        "2",
    ]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read"),
        "{out:?}"
    );
}

// The name predates the removal of `xar profile` and is listed in the
// tier-1 floor. A profile is now a fold of a trace file: record every
// request, then `xar trace --collapsed`.
#[test]
fn profile_writes_validated_artifacts_in_both_formats() {
    let dir = scratch("profile_cli");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region",
        "--rows",
        "14",
        "--cols",
        "14",
        "--seed",
        "11",
        "--clusters",
        "10",
        "--out",
        region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "build-region failed: {out:?}");
    let trace = dir.join("trace.json");
    let out = xar(&[
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--trips",
        "300",
        "--trace-out",
        trace.to_str().unwrap(),
        "--trace-sample",
        "1",
        "--trace-slow-ms",
        "0",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");

    let collapsed = dir.join("xar.collapsed");
    let out = xar(&[
        "trace",
        "--in",
        trace.to_str().unwrap(),
        "--collapsed",
        collapsed.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("collapsed      : "),
        "{out:?}"
    );
    let text = std::fs::read_to_string(&collapsed).expect("collapsed artifact");
    // Every line is `frame;frame;... weight` with a positive weight.
    let weights: Vec<u64> = text
        .lines()
        .map(|l| {
            let (stack, w) = l
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("no weight: {l}"));
            assert!(!stack.split(';').any(str::is_empty), "empty frame: {l}");
            w.parse().unwrap_or_else(|_| panic!("bad weight: {l}"))
        })
        .collect();
    assert!(weights.iter().all(|&w| w > 0), "zero weight kept:\n{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("request;sim.search;search ")),
        "no search stack:\n{text}"
    );

    // The fold conserves time: the weights add up to the timelines'
    // root durations, within the 1 ns rounding of each span.
    let timelines =
        Timeline::build(&parse_chrome(&std::fs::read_to_string(&trace).unwrap()).unwrap());
    let spans: usize = timelines.iter().map(Timeline::span_count).sum();
    let root_ns: f64 = timelines.iter().map(|t| t.root.dur_us * 1000.0).sum();
    let folded: u64 = weights.iter().sum();
    assert!(
        (folded as f64 - root_ns).abs() <= spans as f64,
        "folded {folded} ns vs roots {root_ns} ns over {spans} spans"
    );

    // An unreadable trace exits 2, as under --check.
    let missing = dir.join("missing.json");
    let out = xar(&[
        "trace",
        "--in",
        missing.to_str().unwrap(),
        "--collapsed",
        collapsed.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2, "{out:?}");

    // The private profiling run is gone with its command.
    let out = xar(&["profile", "--out", collapsed.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "{out:?}");
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(msg.contains("unknown command 'profile'"), "{msg}");
}

#[test]
fn logs_exit_codes_are_distinct_per_failure_class() {
    let dir = scratch("logs_codes");

    // 2: file unreadable.
    let out = xar(&["logs", "--in", dir.join("missing.jsonl").to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 2: not a valid events file.
    let bad = dir.join("bad.jsonl");
    write(&bad, "this is not an events file");
    let out = xar(&["logs", "--in", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 3: structurally valid file with zero events.
    let empty = dir.join("empty.jsonl");
    write(
        &empty,
        "{\"type\":\"meta\",\"version\":1,\"segment_len\":4096}\n\
         {\"type\":\"drops\",\"emitted\":0,\"dropped\":0,\"kept\":0}\n",
    );
    let out = xar(&["logs", "--in", empty.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{out:?}");

    // 9: invalid filter values, each naming the offending flag. These
    // are validated before the file is opened.
    let missing = dir.join("missing.jsonl").to_str().unwrap().to_string();
    for args in [
        ["logs", "--in", &missing, "--outcome", "rejected"],
        ["logs", "--in", &missing, "--reason", "bad_luck"],
        ["logs", "--in", &missing, "--slower-than", "fast"],
        ["logs", "--in", &missing, "--slower-than", "-5"],
        ["logs", "--in", &missing, "--request", "abc"],
        ["logs", "--in", &missing, "--top", "-1"],
    ] {
        let out = xar(&args);
        assert_eq!(code(&out), 9, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(
            msg.contains(args[3].trim_start_matches('-')),
            "{args:?}: {msg}"
        );
    }

    // 1: missing required flag.
    let out = xar(&["logs"]);
    assert_eq!(code(&out), 1, "{out:?}");
}

/// `--slower-than` and the slowest-first order read a record's wall
/// time (`dur_ns`: every search, booking attempt and create), not
/// `search_ns + book_ns`, which misses create time and failed attempts.
#[test]
fn logs_slower_than_reads_the_request_wall_time() {
    let dir = scratch("logs_dur");
    let events = dir.join("events.jsonl");
    let line = |id: u64, dur_ns: u64| {
        format!(
            "{{\"type\":\"event\",\"id\":{id},\"t_s\":0,\"outcome\":\"created\",\
             \"reason\":\"no_cluster_candidates\",\"tier\":1,\"candidates\":0,\"matches\":0,\
             \"searches\":1,\"stale\":0,\"ride\":null,\"search_ns\":10000,\"book_ns\":0,\
             \"walk_m\":0,\"detour_m\":0,\"wait_s\":0,\"dur_ns\":{dur_ns}}}\n"
        )
    };
    write(
        &events,
        &format!(
            "{{\"type\":\"meta\",\"version\":1,\"segment_len\":4096}}\n{}{}\
             {{\"type\":\"drops\",\"emitted\":2,\"dropped\":0,\"kept\":2}}\n",
            line(1, 20_000),
            line(2, 5_000_000),
        ),
    );
    let out = xar(&[
        "logs",
        "--in",
        events.to_str().unwrap(),
        "--slower-than",
        "1",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matched        : 1 event(s)"), "{stdout}");
    assert!(stdout.contains("req 2 "), "{stdout}");
    // Without the filter, the 5 ms create comes first.
    let out = xar(&["logs", "--in", events.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("req "))
        .unwrap_or("");
    assert!(first.contains("req 2 "), "{stdout}");
}

#[test]
fn logs_answers_why_for_every_unserved_request_of_a_real_run() {
    let dir = scratch("logs_real");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region",
        "--rows",
        "14",
        "--cols",
        "14",
        "--seed",
        "21",
        "--clusters",
        "10",
        "--out",
        region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "build-region failed: {out:?}");

    // A run with `--events-out` writes the JSONL file and reports
    // conserved accounting on stdout.
    let events = dir.join("events.jsonl");
    let out = xar(&[
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--trips",
        "1500",
        "--events-out",
        events.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events         :"), "{stdout}");

    // The healthy path: the file parses, histograms print, exit 0.
    let out = xar(&["logs", "--in", events.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("outcomes       :"), "{summary}");
    assert!(summary.contains("layers         : search "), "{summary}");

    // The acceptance property: every unserved request carries a typed
    // reason — filtering for reason=unknown matches nothing (exit 3).
    let out = xar(&[
        "logs",
        "--in",
        events.to_str().unwrap(),
        "--reason",
        "unknown",
    ]);
    assert_eq!(
        code(&out),
        3,
        "unknown reasons leaked into a real run: {out:?}"
    );

    // And any single request id can be interrogated (exit 0 when the
    // id exists in the file, with its full record printed).
    let out = xar(&["logs", "--in", events.to_str().unwrap(), "--request", "0"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let record = String::from_utf8_lossy(&out.stdout);
    assert!(record.contains("req 0"), "{record}");

    // A reader that stops early (`xar logs ... | head -1`) ends the
    // command quietly. `--top 0` prints every record: far more than a
    // pipe buffer holds, so the writer must meet the closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_xar"))
        .args(["logs", "--in", events.to_str().unwrap(), "--top", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xar");
    let mut first = String::new();
    let stdout = child.stdout.take().unwrap();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read a line");
    assert!(first.contains("events kept"), "{first}");
    let out = child.wait_with_output().expect("wait for xar");
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("panicked"),
        "{out:?}"
    );
}

/// The flags of one subcommand as `xar help` lists them: every
/// `--flag` token on the usage line that starts with `xar <cmd>`.
fn usage_flags(usage: &str, cmd: &str) -> Vec<String> {
    let prefix = format!("  xar {cmd} ");
    let line = usage
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no usage line for `xar {cmd}`"));
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|tok| tok.strip_prefix("--"))
        .map(str::to_string)
        .collect()
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_rejected_before_any_work() {
    // The three options removed with batch dispatch, the gate removed
    // with the retire backlog it watched, the three removed with the
    // SLO engine and its rolling windows, the two removed with the live
    // plane's HTTP server, and a typo of a live one:
    // each fails with exit 1 and names flag and subcommand — before the
    // (missing) region file would be looked at.
    for flag in [
        "--dispatch",
        "--compress-day-s",
        "--publish-coalesce-us",
        "--max-backlog",
        "--slo",
        "--slo-fail",
        "--tick-ms",
        "--serve",
        "--linger-s",
        "--trps",
    ] {
        let out = xar(&["simulate", "--region", "/nonexistent.xarr", flag, "100"]);
        assert_eq!(code(&out), 1, "{flag} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(
            msg.contains(&format!("unknown flag {flag} for `xar simulate`")),
            "{flag}: {msg}"
        );
        assert!(
            !msg.contains("cannot read"),
            "{flag} was checked after the region load: {msg}"
        );
    }
    // A flag of one subcommand is not a flag of another.
    let out = xar(&["inspect", "--trips", "5"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(
        msg.contains("unknown flag --trips for `xar inspect`"),
        "{msg}"
    );
    // The dashboard went with the rolling windows it drew, and `xar
    // bench` with its baselines: `benchmark/` is the one performance
    // measurement.
    for args in [
        &["top", "--connect", "127.0.0.1:1"][..],
        &["bench", "--search"][..],
    ] {
        let out = xar(args);
        assert_eq!(code(&out), 1, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(
            msg.contains(&format!("unknown command '{}'", args[0])),
            "{args:?}: {msg}"
        );
    }

    // Every flag `xar help` documents is still accepted: pass them all
    // (dummy values) followed by one bogus flag — the validator walks
    // left to right and must name the bogus one, nothing before it.
    let help = xar(&["help"]);
    assert_eq!(code(&help), 0, "{help:?}");
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    const SWITCHES: [&str; 1] = ["check"];
    for cmd in ["build-region", "inspect", "simulate", "logs", "trace"] {
        let flags = usage_flags(&usage, cmd);
        assert!(!flags.is_empty(), "`xar {cmd}` documents no flags");
        let mut args = vec![cmd.to_string()];
        for f in &flags {
            args.push(format!("--{f}"));
            if !SWITCHES.contains(&f.as_str()) {
                args.push("1".to_string());
            }
        }
        args.extend(["--no-such-flag".to_string(), "1".to_string()]);
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = xar(&argv);
        assert_eq!(code(&out), 1, "{cmd}: {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(
            msg.contains(&format!("unknown flag --no-such-flag for `xar {cmd}`")),
            "`xar {cmd}` rejected a documented flag: {msg}"
        );
    }
}

// The name predates the removal of `--linger-s` and `--serve` (now
// unknown flags, pinned above) and is listed in the tier-1 floor.
#[test]
fn linger_without_serve_is_rejected_before_any_work() {
    // A value that cannot mean anything fails with exit 1 before the
    // (missing) region file would be looked at: a negative or
    // non-finite distance, window or time, a top-k of zero, a sampling
    // probability above 1 (with or without `--trace-out`) and a
    // baseline that does not exist. Each is named, and none waits for a
    // whole run (or panics after it).
    for args in [
        &["--walk", "-5"][..],
        &["--detour", "-1"],
        &["--window", "NaN"],
        &["--k", "0"],
        &["--trace-slow-ms", "-3"],
        &["--trace-sample", "7"],
        &["--trace-buffer", "0"],
        &["--baseline", "uber"],
    ] {
        let mut argv = vec!["simulate", "--region", "/nonexistent.xarr"];
        argv.extend_from_slice(args);
        let out = xar(&argv);
        assert_eq!(code(&out), 1, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(args[args.len() - 2]), "{args:?}: {msg}");
        assert!(
            !msg.contains("cannot read"),
            "{args:?} read the region: {msg}"
        );
    }
}

#[test]
fn serial_driver_says_when_it_ignores_shards() {
    // `--threads 1` (the default) runs the serial engine, which has
    // nothing to shard: the flag is still validated, but a valid value
    // must be reported as ignored — on stderr only, so stdout and the
    // exit code are what they are without the flag.
    let dir = scratch("serial_shards");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region",
        "--rows",
        "10",
        "--cols",
        "10",
        "--seed",
        "7",
        "--out",
        region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let simulate = |extra: &[&str]| {
        let mut args = vec![
            "simulate",
            "--region",
            region.to_str().unwrap(),
            "--trips",
            "120",
        ];
        args.extend_from_slice(extra);
        let out = xar(&args);
        assert_eq!(code(&out), 0, "{args:?} -> {out:?}");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    const NOTICE: &str =
        "--shards ignored on the serial driver (the multi-worker replay was removed)";
    // The seeded outcome lines (timings aside) of a run's stdout.
    let outcomes = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| {
                ["trips", "booked", "created", "unservable"]
                    .iter()
                    .any(|k| l.starts_with(k))
            })
            .map(str::to_string)
            .collect()
    };

    let (plain_out, plain_err) = simulate(&[]);
    assert!(
        !plain_err.contains(NOTICE),
        "no flag, no notice: {plain_err}"
    );
    let (out, err) = simulate(&["--threads", "1", "--shards", "8"]);
    assert_eq!(err.matches(NOTICE).count(), 1, "one stderr line: {err}");
    assert!(
        !out.contains("ignored"),
        "stdout must stay machine-readable: {out}"
    );
    assert_eq!(outcomes(&out), outcomes(&plain_out));
    assert_eq!(outcomes(&out).len(), 4, "{out}");
    // The multi-worker replay is gone: `--threads 2` is refused.
    let args = [
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--threads",
        "2",
        "--shards",
        "2",
    ];
    assert_eq!(code(&xar(&args)), 9);
}

#[test]
fn build_region_rejects_bad_values_before_any_work() {
    // Past the CLI, each value trips an assert deep in the build (exit
    // 101): the lattice generator's 2x2 floor, GREEDY's positive k,
    // GREEDYSEARCH's non-negative delta. Each is exit 1 naming the flag,
    // before the city is generated.
    let dir = scratch("build_region_values");
    let file = dir.join("never.xarr");
    for (flag, value) in [
        ("--rows", "1"),
        ("--cols", "0"),
        ("--clusters", "0"),
        ("--delta", "-5"),
        ("--delta", "nan"),
    ] {
        let out = xar(&["build-region", flag, value, "--out", file.to_str().unwrap()]);
        assert_eq!(code(&out), 1, "{flag} {value} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(flag), "{flag} {value}: {msg}");
        assert!(!msg.contains("generating"), "{flag} {value}: {msg}");
        assert!(!file.exists(), "{flag} {value} wrote a region");
    }
}
