//! `kv-churn-6k`: put / get / delete rounds on a durable `Store`.
//!
//! Every write crosses the durable path — publish, apply, WAL append and
//! checkpoints — so this is the workload an update-path change moves.
//! The store holds 6,000 keys, not a power of two, so the churn never
//! adds a level.

use crate::probes::{self, Budget, Reads, VALUE_BYTES};
use crate::stats::min_samples;
use crate::trace::Tracer;
use crate::{fresh_keys, layer_budget, Measured, Metric, Report, RunArgs, Tally, TempDir, Window};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipweb_bench::workloads::uniform_keys;
use skipweb_core::engine::DistributedSkipWeb;
use skipweb_core::SkipWeb;
use skipweb_store::wal::{self, Checkpoint};
use skipweb_store::{Store, StoreBuilder};
use skipweb_structures::SortedLinkedList;
use std::time::Instant;

/// Keys the store opens with.
pub const N: usize = 6_000;
/// Actor hosts serving the store.
pub const HOSTS: usize = 2;
/// Gets of stored keys per round.
pub const GETS_PER_ROUND: usize = 4;
/// `Store::flush` runs after every this many rounds.
pub const FLUSH_EVERY: usize = 16;
/// Total-crash recoveries at the end of a run; `recover_s` is their median.
const RECOVERIES: usize = 3;
/// The checkpoint file `Store` recovers from.
const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Gets behind the exact count metrics.
const COUNT_QUERIES: usize = 512;
/// Insert-and-remove pairs behind the exact update counts.
const COUNT_UPDATES: usize = 8;

/// The 64-byte value stored under `key`.
pub fn value_of(key: u64, seed: u64) -> Vec<u8> {
    let mut x = key ^ seed.rotate_left(17);
    (0..VALUE_BYTES)
        .map(|_| {
            // splitmix64 step: cheap, and distinct per key.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// The store's initial contents: `(key, tower bits, value)`, ascending.
pub fn entries(seed: u64) -> Vec<(u64, u64, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB175);
    uniform_keys(N, seed)
        .into_iter()
        .map(|k| (k, rng.gen(), value_of(k, seed)))
        .collect()
}

/// Writes `entries` as a checkpoint in `dir` and opens the store on it,
/// so set-up pays one rebuild instead of `N` puts.
///
/// # Errors
///
/// When the checkpoint cannot be written or the store cannot open.
pub fn open(
    dir: &std::path::Path,
    entries: &[(u64, u64, Vec<u8>)],
    seed: u64,
) -> Result<Store, String> {
    let ck = Checkpoint {
        last_seq: 0,
        entries: entries.to_vec(),
        ledger: Vec::new(),
    };
    wal::write_checkpoint(&dir.join(CHECKPOINT_FILE), &ck)
        .map_err(|e| format!("write checkpoint in {}: {e}", dir.display()))?;
    StoreBuilder::new(dir)
        .hosts(HOSTS)
        .seed(seed)
        .open()
        .map_err(|e| format!("open store in {}: {e}", dir.display()))
}

/// The web the store rebuilds from `entries`, for probes that need the
/// same structure without the store.
fn web_of(entries: &[(u64, u64, Vec<u8>)], seed: u64) -> SkipWeb<SortedLinkedList> {
    SkipWeb::builder(entries.iter().map(|e| e.0).collect())
        .seed(seed)
        .bits(entries.iter().map(|e| e.1).collect())
        .build()
}

/// A unique name for a private directory of this run.
fn unique(tag: &str, seed: u64) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("{tag}-{}-{seed}-{nanos}", std::process::id())
}

/// Runs the workload.
///
/// # Errors
///
/// When set-up fails or a percentile lacks samples.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let entries = entries(args.seed);
    let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
    let expected: Vec<(u64, Vec<u8>)> = entries.iter().map(|e| (e.0, e.2.clone())).collect();

    let mut m = Measured::default();
    let ((store, dir), setup_s) = crate::set_up(
        &mut tracer,
        "setup.checkpoint_open",
        || {
            let dir = TempDir::create(&args.scratch, &unique("kv", args.seed))
                .map_err(|e| format!("create store directory: {e}"))?;
            Ok((open(dir.path(), &entries, args.seed)?, dir))
        },
        |(old, _dir)| old.shutdown(),
    )?;
    m.setup_s = setup_s;

    // Every round's inputs, outside the timed region.
    let fresh = fresh_keys(&keys, 4_096, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x6E75);
    let gets: Vec<usize> = (0..1 << 16).map(|_| rng.gen_range(0..N)).collect();

    let window = Window::start(args.seconds);
    let mut round = 0usize;
    while window.running(m.reads_us.len(), min_samples(crate::OP_TAIL)) {
        let op = round as u64;
        let span = tracer.open("kv.round", op, None);
        let key = fresh[round % fresh.len()];
        let value = value_of(key, args.seed);
        let (put, t) = tracer.time("store.put", op, span, || store.put(key, value));
        if tally.check(matches!(put, Ok(true)), || format!("put {key}: {put:?}")) {
            m.writes_us.push(t);
            m.done_s.push(window.elapsed());
        }
        for g in 0..GETS_PER_ROUND {
            let (k, v) = &expected[gets[(round * GETS_PER_ROUND + g) % gets.len()]];
            let (got, t) = tracer.time("store.get", op, span, || store.get(*k));
            let ok = matches!(&got, Ok(Some(bytes)) if bytes == v);
            if tally.check(ok, || format!("get {k}: {got:?}")) {
                m.reads_us.push(t);
                m.done_s.push(window.elapsed());
            }
        }
        let (del, t) = tracer.time("store.delete", op, span, || store.delete(key));
        if tally.check(matches!(del, Ok(true)), || format!("delete {key}: {del:?}")) {
            m.writes_us.push(t);
            m.done_s.push(window.elapsed());
        }
        round += 1;
        if round.is_multiple_of(FLUSH_EVERY) {
            let (r, _) = tracer.time("store.flush", op, span, || store.flush());
            tally.check(r.is_ok(), || format!("flush: {r:?}"));
        }
        tracer.close(span);
    }
    m.elapsed_s = window.elapsed();

    let mut metrics = Vec::new();
    if args.trace {
        let budget = layer_budget(args);
        let web = web_of(&entries, args.seed);
        let reqs: Vec<(usize, u64)> = gets
            .iter()
            .map(|&g| (rng.gen_range(0..N), keys[g]))
            .collect();
        let ok = |k: usize, a: &Option<u64>| *a == Some(reqs[k].1);
        let reads = Reads::<SortedLinkedList> {
            reqs: &reqs,
            ok: &ok,
        };
        metrics.extend(probes::skipweb_query(
            &web,
            &reqs,
            COUNT_QUERIES,
            &mut tracer,
            budget,
        ));
        let apply_fresh: Vec<(u64, u64)> = fresh.iter().map(|&k| (k, rng.gen())).collect();
        metrics.extend(probes::skipweb_apply(
            &web,
            &apply_fresh,
            &mut tally,
            &mut tracer,
            budget,
        ));
        metrics.push(probes::engine_publish(store.fabric(), &mut tracer, budget));
        metrics.push(probes::engine_query_local(
            &web,
            &reads,
            &mut tally,
            &mut tracer,
            budget,
        ));
        let idle: Vec<f64> = probes::idle_reads(
            store.fabric(),
            &reads,
            "engine.query_idle",
            &mut tally,
            &mut tracer,
            budget,
        );
        metrics.push(crate::read_wait(&m.reads_us, &idle));
        let count_reads = Reads::<SortedLinkedList> {
            reqs: &reqs[..COUNT_QUERIES],
            ok: &ok,
        };
        let count_updates: Vec<(usize, u64, u64)> = apply_fresh[..COUNT_UPDATES]
            .iter()
            .enumerate()
            .map(|(j, &(k, b))| (reqs[j].0, k, b))
            .collect();
        metrics.extend(probes::repeated_counts(
            || DistributedSkipWeb::builder(&web).capacity(HOSTS).spawn(),
            &count_reads,
            &count_updates,
            &mut tally,
        ));
        // The store probe writes keys this run's loop has finished with.
        metrics.extend(shared_layers(
            args,
            Some((&store, &fresh)),
            &mut tally,
            &mut tracer,
        )?);
    }

    // The run ends in a total crash, and the recovered store must hold
    // exactly what it held when it crashed: the initial contents.
    let before = store.scan(..);
    tally.check(before == expected, || {
        format!(
            "scan before the crash holds {} keys, want {}",
            before.len(),
            expected.len()
        )
    });
    m.recover_s = crash_and_recover(&store, &mut tally, &mut tracer);
    let (k, v) = &expected[gets[0]];
    let got = store.get(*k);
    tally.check(matches!(&got, Ok(Some(b)) if b == v), || {
        format!("get {k} after recovery: {got:?}")
    });
    store.shutdown();
    drop(dir);

    if args.trace {
        metrics.push(recover_metric(&m.recover_s));
    } else {
        metrics = m.end_to_end()?;
    }
    crate::finish(
        args,
        "kv-churn-6k",
        tally,
        tracer,
        metrics,
        &m.notes(args.trace),
    )
}

/// Kills every host of `store` and recovers it from disk, [`RECOVERIES`]
/// times, checking each time that the recovered contents equal the
/// crashed ones. Returns each recovery's seconds.
fn crash_and_recover(store: &Store, tally: &mut Tally, tracer: &mut Tracer) -> Vec<f64> {
    let before = store.scan(..);
    let mut seconds = Vec::new();
    for i in 0..RECOVERIES {
        for host in store.fabric().health().alive {
            store.fabric().kill_host(host);
        }
        let (report, t) = tracer.time("store.recover", i as u64, None, || store.recover());
        if tally.check(report.is_ok(), || format!("recover: {report:?}")) {
            seconds.push(t / 1e6);
        }
        let after = store.scan(..);
        tally.check(after == before, || {
            format!(
                "recovered scan holds {} keys, want {}",
                after.len(),
                before.len()
            )
        });
    }
    seconds
}

/// `store.recover_us`: the median total-crash recovery.
fn recover_metric(seconds: &[f64]) -> Metric {
    let us = crate::stats::median(seconds).map_or(f64::NAN, |s| s * 1e6);
    Metric::new("store.recover_us", "us", us)
}

/// The layers every traced run measures the same way, whatever its
/// workload: the bare runtime relay, the WAL file calls, and the store.
/// The store probe runs on `store` with keys from `fresh`, or — for
/// workloads without a store — on a store opened for the probe, which
/// also gives `store.recover_us`.
///
/// # Errors
///
/// When the probe's private directories or store cannot be set up.
pub fn shared_layers(
    args: &RunArgs,
    store: Option<(&Store, &[u64])>,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let budget = layer_budget(args);
    let mut out = probes::runtime_relay(tally, tracer, Budget { min: 200, ..budget });
    let wal_dir = TempDir::create(&args.scratch, &unique("wal", args.seed))
        .map_err(|e| format!("create WAL probe directory: {e}"))?;
    out.extend(probes::wal_append_sync(
        wal_dir.path(),
        tally,
        tracer,
        Budget { min: 20, ..budget },
    ));
    drop(wal_dir);
    let store_budget = Budget { min: 8, ..budget };
    match store {
        Some((store, fresh)) => out.extend(probes::store_layer(
            store,
            fresh,
            tally,
            tracer,
            store_budget,
        )),
        None => {
            let entries = entries(args.seed);
            let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
            let dir = TempDir::create(&args.scratch, &unique("kv-probe", args.seed))
                .map_err(|e| format!("create store probe directory: {e}"))?;
            let store = open(dir.path(), &entries, args.seed)?;
            let fresh = fresh_keys(&keys, 256, args.seed);
            out.extend(probes::store_layer(
                &store,
                &fresh,
                tally,
                tracer,
                store_budget,
            ));
            out.push(recover_metric(&crash_and_recover(&store, tally, tracer)));
            store.shutdown();
        }
    }
    Ok(out)
}
