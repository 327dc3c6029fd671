//! Self-tests of the benchmark's helpers: the percentile rule, the
//! per-layer derivations, the result line, and the private directories.

use perfbench::stats::{hop_us, median, min_samples, percentile, read_wait_us, MIN_BEYOND};
use perfbench::trace::Tracer;
use perfbench::{fresh_keys, lookup, read_wait, Metric, Report, Tally, TempDir};
use std::time::{Duration, Instant};

fn ramp(n: usize) -> Vec<f64> {
    // Reversed, so the helper must sort.
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    let s = ramp(100);
    assert_eq!(percentile(&s, 500), Some(50.0));
    assert_eq!(percentile(&s, 900), Some(90.0));
    assert_eq!(percentile(&s, 501), Some(51.0));
    assert_eq!(percentile(&ramp(21), 500), Some(11.0));
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    // p99 of 1000 samples leaves exactly ten beyond it.
    let s = ramp(1000);
    assert_eq!(percentile(&s, 990), Some(990.0));
    assert_eq!(percentile(&s[..999], 990), None);
    // p95 needs 200 samples, the median 20.
    assert_eq!(percentile(&ramp(200), 950), Some(190.0));
    assert_eq!(percentile(&ramp(199), 950), None);
    assert_eq!(percentile(&ramp(20), 500), Some(10.0));
    assert_eq!(percentile(&ramp(19), 500), None);
}

#[test]
fn percentile_rejects_degenerate_input() {
    assert_eq!(percentile(&[], 500), None);
    assert_eq!(percentile(&ramp(5000), 0), None);
    assert_eq!(percentile(&ramp(5000), 1000), None);
}

#[test]
fn min_samples_matches_the_percentile_rule() {
    for per_mille in [500, 900, 950, 990, 999] {
        let n = min_samples(per_mille);
        assert!(
            percentile(&ramp(n), per_mille).is_some(),
            "{per_mille} at {n}"
        );
        assert!(
            percentile(&ramp(n - 1), per_mille).is_none(),
            "{per_mille} at {}",
            n - 1
        );
    }
    assert_eq!(min_samples(990), 1000);
    assert_eq!(min_samples(950), 200);
    assert_eq!(min_samples(500), 2 * MIN_BEYOND);
}

#[test]
fn median_of_few_values_has_no_tail_rule() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn hop_cost_is_the_round_trip_growth_per_hop() {
    // 18.5 µs bare round trip, 8.5 µs per hop.
    assert_eq!(hop_us(18.5, 18.5 + 8.0 * 8.5, 8), 8.5);
    assert_eq!(hop_us(10.0, 10.0, 8), 0.0);
}

#[test]
#[should_panic(expected = "at least one hop")]
fn hop_cost_needs_a_hop() {
    hop_us(1.0, 2.0, 0);
}

#[test]
fn read_wait_is_loaded_median_minus_idle_median() {
    assert_eq!(read_wait_us(29_000.0, 140.0), 28_860.0);
    // An idle workload reads as noise around zero, unclamped.
    assert_eq!(read_wait_us(90.0, 92.5), -2.5);
    let loaded = [100.0, 300.0, 200.0];
    let idle = [10.0, 30.0, 20.0, 40.0];
    assert_eq!(
        read_wait(&loaded, &idle),
        Metric::new("engine.read_wait_us", "us", 200.0 - 25.0)
    );
    assert!(read_wait(&loaded, &[]).value.is_nan());
}

#[test]
fn result_line_has_the_four_keys_and_full_digits() {
    let mut tally = Tally::default();
    tally.check(true, String::new);
    tally.check(true, String::new);
    let report = Report {
        tally,
        metrics: vec![
            Metric::new("latency_ms", "ms", 1.2034),
            Metric::new("setup_s", "s", 0.812_734_5),
        ],
    };
    assert_eq!(
        report.json_line(),
        "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
         \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}}}"
    );
}

#[test]
fn a_failure_or_a_non_finite_value_makes_the_run_incorrect() {
    let mut tally = Tally::default();
    tally.check(true, String::new);
    tally.check(false, || "wrong answer".to_string());
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    let failed = Report {
        tally,
        metrics: vec![Metric::new("x", "us", 1.0)],
    };
    assert!(failed
        .json_line()
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));

    let mut tally = Tally::default();
    tally.check(true, String::new);
    let nan = Report {
        tally,
        metrics: vec![Metric::new("x", "us", f64::NAN)],
    };
    let line = nan.json_line();
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(!line.contains("NaN"), "{line}");
}

#[test]
fn absorbed_spans_keep_their_parents() {
    let origin = Instant::now();
    let at = |us: u64| origin + Duration::from_micros(us);
    let mut a = Tracer::new(true, origin);
    a.record("a.root", 0, None, at(0), at(10));
    let mut b = Tracer::new(true, origin);
    let root = b.record("b.root", 1, None, at(1), at(9));
    b.record("b.child", 1, root, at(2), at(3));
    a.absorb(b);
    let spans = a.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!((spans[2].start_ns, spans[2].end_ns), (2_000, 3_000));

    let mut off = Tracer::new(false, origin);
    assert_eq!(off.record("x", 0, None, at(0), at(1)), None);
    assert!(off.spans().is_empty());
}

#[test]
fn temp_dirs_are_fresh_and_removed_even_on_panic() {
    let parent = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!("selftest-{}", std::process::id()));
    let dir = TempDir::create(&parent, "a").expect("create");
    let path = dir.path().to_path_buf();
    std::fs::write(path.join("wal-0000.log"), b"x").expect("write");
    // A second run may never reuse a directory another left behind.
    assert!(TempDir::create(&parent, "a").is_err());
    drop(dir);
    assert!(!path.exists());

    let unwound = std::panic::catch_unwind(|| {
        let dir = TempDir::create(&parent, "b").expect("create");
        std::fs::write(dir.path().join("checkpoint.bin"), b"x").expect("write");
        panic!("a failing run");
    });
    assert!(unwound.is_err());
    assert!(!parent.join("b").exists());
    std::fs::remove_dir_all(&parent).expect("clean up");
}

#[test]
fn fresh_keys_avoid_stored_keys_and_repeat_per_seed() {
    let stored: Vec<u64> = (0..1000).map(|i| i * 1_000_003).collect();
    let fresh = fresh_keys(&stored, 500, 7);
    assert_eq!(fresh.len(), 500);
    assert!(fresh.iter().all(|k| stored.binary_search(k).is_err()));
    let mut unique = fresh.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 500);
    assert_eq!(fresh, fresh_keys(&stored, 500, 7));
}

#[test]
fn the_lookup_oracle_breaks_ties_low() {
    let keys = [10, 20, 40];
    assert_eq!(lookup::nearest(&keys, 0), 10);
    assert_eq!(lookup::nearest(&keys, 15), 10);
    assert_eq!(lookup::nearest(&keys, 16), 20);
    assert_eq!(lookup::nearest(&keys, 30), 20);
    assert_eq!(lookup::nearest(&keys, 40), 40);
    assert_eq!(lookup::nearest(&keys, u64::MAX), 40);
}

#[test]
fn engine_counts_repeat_exactly_on_a_fresh_fabric() {
    use perfbench::probes::{engine_counts, Reads};
    use skipweb_core::engine::DistributedSkipWeb;
    use skipweb_core::onedim::OneDimSkipWeb;
    use skipweb_structures::SortedLinkedList;

    let keys: Vec<u64> = (0..300).map(|i| i * 10).collect();
    let web = OneDimSkipWeb::builder(keys.clone()).seed(3).build();
    let reqs: Vec<(usize, u64)> = (0..64).map(|i| ((i * 37) % 300, i as u64 * 47)).collect();
    let ok = |k: usize, a: &Option<u64>| *a == Some(lookup::nearest(&keys, reqs[k].1));
    let reads = Reads::<SortedLinkedList> {
        reqs: &reqs,
        ok: &ok,
    };
    let fresh: Vec<(usize, u64, u64)> = (0..4)
        .map(|i| (i * 50, i as u64 * 10 + 5, i as u64))
        .collect();
    let spawn = || {
        DistributedSkipWeb::builder(web.inner())
            .consolidated(2)
            .spawn()
    };
    let mut tally = Tally::default();
    let first = engine_counts(spawn(), &reads, &fresh, &mut tally);
    let second = engine_counts(spawn(), &reads, &fresh, &mut tally);
    assert_eq!(tally.failed, 0);
    assert_eq!(tally.attempted, 2 * (64 + 8));
    assert_eq!(first, second);
    assert_eq!(first.applied_ratio, 1.0);
    assert!(first.hops_per_query > 0.0 && first.msgs_per_update > 0.0);
}

#[test]
fn throughput_is_the_median_slice_rate() {
    use perfbench::stats::median_rate;
    // 10 events per second for 10 s, but a stall leaves the last three
    // seconds with one event each: the median slice still reads 10/s.
    let mut times: Vec<f64> = (0..70).map(|i| i as f64 / 10.0).collect();
    times.extend([7.5, 8.5, 9.5]);
    assert_eq!(median_rate(&times, 10.0, 10), 10.0);
    // Events at or past the span are left out; slices scale with it.
    assert_eq!(median_rate(&[0.1, 0.3, 0.6, 0.9, 1.0], 1.0, 2), 4.0);
    assert_eq!(median_rate(&[], 5.0, 5), 0.0);
}

#[test]
fn an_open_span_parents_the_spans_it_causes() {
    let mut t = Tracer::new(true, Instant::now());
    let round = t.open("kv.round", 3, None);
    let ((), _) = t.time("store.put", 3, round, || {
        std::thread::sleep(Duration::from_millis(1))
    });
    t.close(round);
    let spans = t.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}
