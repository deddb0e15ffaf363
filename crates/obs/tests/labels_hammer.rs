//! Concurrency hammer for labeled-metric interning.
//!
//! The label contract (DESIGN.md §5b): interning is get-or-create
//! under the registry lock, but *recording* happens through `Arc`
//! handles that never touch the lock. So N threads racing to create
//! the same series must converge on one metric (counts conserved, one
//! series in the snapshot), distinct label sets must land in distinct
//! series, and recording must proceed while another thread is stuck
//! creating new series (i.e. holding the write lock).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xar_obs::{MetricSnapshot, Registry};

const THREADS: usize = 8;
const ROUNDS: usize = 2_000;

#[test]
fn same_label_set_from_many_threads_is_one_metric() {
    let reg = Arc::new(Registry::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                for i in 0..ROUNDS {
                    // Alternate pair order: interning is order-insensitive.
                    let c = if (t + i) % 2 == 0 {
                        reg.counter_with("hammer.ops", &[("tier", "t1"), ("cluster", "b2")])
                    } else {
                        reg.counter_with("hammer.ops", &[("cluster", "b2"), ("tier", "t1")])
                    };
                    c.inc();
                }
            });
        }
    });
    let series: Vec<_> = reg
        .snapshot()
        .into_iter()
        .filter(|(k, _)| k.starts_with("hammer.ops"))
        .collect();
    assert_eq!(series.len(), 1, "racing creators must intern to one series");
    assert_eq!(
        series[0].0, "hammer.ops{cluster=\"b2\",tier=\"t1\"}",
        "keys sort label pairs"
    );
    assert_eq!(
        series[0].1,
        MetricSnapshot::Counter((THREADS * ROUNDS) as u64),
        "every increment must land on the single interned counter"
    );
}

#[test]
fn distinct_label_sets_get_distinct_metrics() {
    let reg = Arc::new(Registry::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                let tier = format!("t{t}");
                let c = reg.counter_with("hammer.sharded", &[("tier", &tier)]);
                for _ in 0..ROUNDS {
                    c.inc();
                }
            });
        }
    });
    let series: Vec<_> = reg
        .snapshot()
        .into_iter()
        .filter(|(k, _)| k.starts_with("hammer.sharded{"))
        .collect();
    assert_eq!(series.len(), THREADS);
    for (key, value) in &series {
        assert_eq!(*value, MetricSnapshot::Counter(ROUNDS as u64), "{key}");
    }
}

#[test]
fn recording_needs_no_lock_while_creators_churn() {
    // One thread keeps creating brand-new series (hammering the write
    // lock); recorder threads holding pre-resolved handles must still
    // make progress and conserve counts. This deadlocks/fails if
    // recording ever went through the registry lock.
    let reg = Arc::new(Registry::new());
    let h = reg.histogram_with("hammer.lat_ns", &[("tier", "t2")]);
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = format!("v{}", i % 48);
                    reg.counter_with("hammer.churn", &[("i", &v)]).inc();
                    i += 1;
                }
            });
        }
        let mut recorders = Vec::new();
        for _ in 0..4 {
            let h = Arc::clone(&h);
            recorders.push(s.spawn(move || {
                for v in 0..ROUNDS as u64 {
                    h.record(v);
                }
            }));
        }
        for r in recorders {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(h.count(), 4 * ROUNDS as u64);
    // Lookup-after-setup returns the same interned handle.
    assert!(Arc::ptr_eq(
        &h,
        &reg.histogram_with("hammer.lat_ns", &[("tier", "t2")])
    ));
}
