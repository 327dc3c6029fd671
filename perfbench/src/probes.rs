//! Per-layer probes for the traced run. Each probe times the benchmark's
//! own calls into one layer's public functions and reports a median; the
//! count probes report exact per-operation counts for a fixed input.

use crate::stats::{hop_us, median};
use crate::trace::Tracer;
use crate::{Metric, Tally, OP_TIMEOUT};
use skipweb_core::engine::{DistributedSkipWeb, Routable};
use skipweb_core::SkipWeb;
use skipweb_net::runtime::{Actor, ClientId, Context, Runtime, Sender};
use skipweb_net::{HostId, MessageMeter};
use skipweb_store::wal::{self, WalRecord};
use skipweb_store::Store;
use std::fs::{self, OpenOptions};
use std::path::Path;
use std::time::Instant;

/// How long a timing probe repeats: at least `min` times and for at least
/// `seconds`, but never more than `max` times.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Fewest repetitions.
    pub min: usize,
    /// Most repetitions.
    pub max: usize,
    /// Seconds to keep repeating once `min` is reached.
    pub seconds: f64,
}

impl Budget {
    /// Runs `f(i)` for `i = 0, 1, …` within the budget, collecting the
    /// samples it returns.
    pub fn repeat(self, mut f: impl FnMut(usize) -> Option<f64>) -> Vec<f64> {
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut i = 0;
        while i < self.max && (i < self.min || start.elapsed().as_secs_f64() < self.seconds) {
            samples.extend(f(i));
            i += 1;
        }
        samples
    }
}

/// The median of a probe's samples; a probe that collected none reports
/// NaN, which makes the run incorrect.
fn mid(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

/// `core::skipweb` search: the pure §2.5 walk on `web`, per call, and the
/// mean ranges it touches over the first `fixed` queries — a count that
/// repeats exactly for a seed.
pub fn skipweb_query<D: Routable>(
    web: &SkipWeb<D>,
    queries: &[(usize, D::Query)],
    fixed: usize,
    tracer: &mut Tracer,
    budget: Budget,
) -> Vec<Metric> {
    let touched: u64 = queries
        .iter()
        .take(fixed)
        .map(|(origin, q)| {
            let out = web.query(*origin, q, &mut MessageMeter::new());
            out.per_level_touches
                .iter()
                .map(|&t| u64::from(t))
                .sum::<u64>()
        })
        .sum();
    let samples = budget.repeat(|i| {
        let (origin, q) = &queries[i % queries.len()];
        let mut meter = MessageMeter::new();
        Some(
            tracer
                .time("skipweb.query", i as u64, None, || {
                    std::hint::black_box(web.query(*origin, q, &mut meter))
                })
                .1,
        )
    });
    vec![
        Metric::new("skipweb.query_us", "us", mid(&samples)),
        Metric::new(
            "skipweb.levels_touched",
            "count",
            touched as f64 / fixed.min(queries.len()).max(1) as f64,
        ),
    ]
}

/// `core::skipweb` apply: one-item insert and remove batches on a clone of
/// `web`, each fresh item inserted and then removed again.
pub fn skipweb_apply<D: Routable>(
    web: &SkipWeb<D>,
    fresh: &[(D::Item, u64)],
    tally: &mut Tally,
    tracer: &mut Tracer,
    budget: Budget,
) -> Vec<Metric> {
    let mut w = web.clone();
    let mut inserts = Vec::new();
    let mut removes = Vec::new();
    let budget = Budget {
        max: budget.max.min(fresh.len()),
        ..budget
    };
    budget.repeat(|i| {
        let (item, bits) = &fresh[i];
        let (ins, t) = tracer.time("skipweb.apply_insert_batch", i as u64, None, || {
            w.apply_insert_batch(vec![(item.clone(), *bits)])
        });
        inserts.push(t);
        tally.check(ins == [true], || {
            format!("apply insert of {item:?}: {ins:?}")
        });
        let (rem, t) = tracer.time("skipweb.apply_remove_batch", i as u64, None, || {
            w.apply_remove_batch(std::slice::from_ref(item))
        });
        removes.push(t);
        tally.check(rem == [true], || {
            format!("apply remove of {item:?}: {rem:?}")
        });
        None
    });
    vec![
        Metric::new("skipweb.apply_insert_us", "us", mid(&inserts)),
        Metric::new("skipweb.apply_remove_us", "us", mid(&removes)),
    ]
}

/// `core::engine` publish: `heal()` republishes the topology snapshot
/// exactly once and changes nothing else.
pub fn engine_publish<D: Routable + Send + Sync + 'static>(
    dist: &DistributedSkipWeb<D>,
    tracer: &mut Tracer,
    budget: Budget,
) -> Metric {
    let samples =
        budget.repeat(|i| Some(tracer.time("engine.heal", i as u64, None, || dist.heal()).1));
    Metric::new("engine.publish_us", "us", mid(&samples))
}

/// Reads a probe replays, with the check each answer must pass.
pub struct Reads<'a, D: Routable> {
    /// `(origin item, request)` pairs.
    pub reqs: &'a [(usize, D::Request)],
    /// Whether the answer to `reqs[i]` is right.
    pub ok: &'a dyn Fn(usize, &D::Answer) -> bool,
}

/// `core::engine` fixed cost: submit, walk and reply on a one-host fabric
/// of `web`, where no query crosses a host.
pub fn engine_query_local<D: Routable + Send + Sync + 'static>(
    web: &SkipWeb<D>,
    reads: &Reads<'_, D>,
    tally: &mut Tally,
    tracer: &mut Tracer,
    budget: Budget,
) -> Metric {
    let dist = DistributedSkipWeb::builder(web).consolidated(1).spawn();
    let samples = idle_reads(&dist, reads, "engine.query_local", tally, tracer, budget);
    dist.shutdown();
    Metric::new("engine.query_local_us", "us", mid(&samples))
}

/// Read latencies on `dist` with nothing else running, each answer
/// checked.
pub fn idle_reads<D: Routable + Send + Sync + 'static>(
    dist: &DistributedSkipWeb<D>,
    reads: &Reads<'_, D>,
    span: &'static str,
    tally: &mut Tally,
    tracer: &mut Tracer,
    budget: Budget,
) -> Vec<f64> {
    let client = dist.client();
    budget.repeat(|i| {
        let k = i % reads.reqs.len();
        let (origin, req) = &reads.reqs[k];
        let (reply, t) = tracer.time(span, i as u64, None, || {
            dist.query(&client, *origin, req.clone())
        });
        let ok = matches!(&reply, Ok(r) if (reads.ok)(k, &r.answer));
        tally
            .check(ok, || format!("{span} #{k}: {reply:?}"))
            .then_some(t)
    })
}

/// Exact per-operation counts on a fresh fabric: hops from each reply,
/// messages from the fabric's traffic counters, and the share of updates
/// that applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    /// Mean `reply.hops` per query.
    pub hops_per_query: f64,
    /// Mean `reply.hops` per insert or remove.
    pub hops_per_update: f64,
    /// Host-to-host messages per query.
    pub msgs_per_query: f64,
    /// Host-to-host messages per insert or remove.
    pub msgs_per_update: f64,
    /// Updates that reported `applied`, over updates submitted.
    pub applied_ratio: f64,
}

impl Counts {
    /// The counts as per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("engine.hops_per_query", "count", self.hops_per_query),
            Metric::new("engine.hops_per_update", "count", self.hops_per_update),
            Metric::new("engine.msgs_per_query", "count", self.msgs_per_query),
            Metric::new("engine.msgs_per_update", "count", self.msgs_per_update),
            Metric::new("engine.applied_ratio", "ratio", self.applied_ratio),
        ]
    }
}

/// Replays `reads` and then inserts and removes each of `fresh` (with
/// explicit origins and tower bits, so nothing depends on the engine's
/// own generator) on `dist`, which must be freshly spawned, and shuts it
/// down.
pub fn engine_counts<D: Routable + Send + Sync + 'static>(
    dist: DistributedSkipWeb<D>,
    reads: &Reads<'_, D>,
    fresh: &[(usize, D::Item, u64)],
    tally: &mut Tally,
) -> Counts {
    let client = dist.client();
    let before = dist.traffic().total_sent();
    let mut query_hops = 0u64;
    for (k, (origin, req)) in reads.reqs.iter().enumerate() {
        let reply = dist.query(&client, *origin, req.clone());
        if let Ok(r) = &reply {
            query_hops += u64::from(r.hops);
        }
        let ok = matches!(&reply, Ok(r) if (reads.ok)(k, &r.answer));
        tally.check(ok, || format!("count probe query #{k}: {reply:?}"));
    }
    let mid_sent = dist.traffic().total_sent();
    let (mut update_hops, mut applied) = (0u64, 0u64);
    for (origin, item, bits) in fresh {
        let replies = [
            dist.insert_with(&client, *origin, item.clone(), *bits),
            dist.remove_with(&client, *origin, item.clone()),
        ];
        for reply in replies {
            if let Ok(r) = &reply {
                update_hops += u64::from(r.hops);
                applied += u64::from(r.applied);
            }
            let ok = matches!(&reply, Ok(r) if r.applied);
            tally.check(ok, || format!("count probe update of {item:?}: {reply:?}"));
        }
    }
    let after = dist.traffic().total_sent();
    dist.shutdown();
    let queries = reads.reqs.len().max(1) as f64;
    let updates = (2 * fresh.len()).max(1) as f64;
    Counts {
        hops_per_query: query_hops as f64 / queries,
        hops_per_update: update_hops as f64 / updates,
        msgs_per_query: (mid_sent - before) as f64 / queries,
        msgs_per_update: (after - mid_sent) as f64 / updates,
        applied_ratio: applied as f64 / updates,
    }
}

/// Runs [`engine_counts`] on two fabrics `spawn` builds alike and checks
/// that the counts repeat exactly; a difference is a failure.
pub fn repeated_counts<D: Routable + Send + Sync + 'static>(
    spawn: impl Fn() -> DistributedSkipWeb<D>,
    reads: &Reads<'_, D>,
    fresh: &[(usize, D::Item, u64)],
    tally: &mut Tally,
) -> Vec<Metric> {
    let first = engine_counts(spawn(), reads, fresh, tally);
    let second = engine_counts(spawn(), reads, fresh, tally);
    tally.check(first == second, || {
        format!("per-layer counts differ between two fabrics: {first:?} vs {second:?}")
    });
    first.metrics()
}

/// A relay hop: forwarded to the other host until `left` reaches zero,
/// then answered.
#[derive(Debug)]
struct Hop {
    left: u32,
    client: ClientId,
}

/// The bare two-host relay actor of the runtime probe.
struct Relay;

impl Actor for Relay {
    type Msg = Hop;
    type Reply = ();

    fn on_message(&mut self, _from: Sender, msg: Hop, ctx: &mut Context<'_, Hop, ()>) {
        if msg.left == 0 {
            ctx.reply(msg.client, ());
        } else {
            let next = HostId(1 - ctx.host().0);
            ctx.send(
                next,
                Hop {
                    left: msg.left - 1,
                    client: msg.client,
                },
            );
        }
    }
}

/// Hops of the long relay round trip; the short one makes none.
pub const RELAY_HOPS: u32 = 8;

/// `net::runtime`: a bare two-host relay at 0 and [`RELAY_HOPS`] hops,
/// alternated so load drifts hit both alike. The zero-hop median is the
/// client submit-and-wake round trip; the growth per hop is one mailbox
/// handoff.
pub fn runtime_relay(tally: &mut Tally, tracer: &mut Tracer, budget: Budget) -> Vec<Metric> {
    let rt = Runtime::spawn(2, |_| Relay);
    let client = rt.client();
    let mut short = Vec::new();
    let mut long = Vec::new();
    budget.repeat(|i| {
        for (hops, into, span) in [
            (0, &mut short, "runtime.roundtrip0"),
            (RELAY_HOPS, &mut long, "runtime.roundtrip8"),
        ] {
            let (r, t) = tracer.time(span, i as u64, None, || {
                client
                    .send(
                        HostId(0),
                        Hop {
                            left: hops,
                            client: client.id(),
                        },
                    )
                    .and_then(|()| client.recv_timeout(OP_TIMEOUT))
            });
            if tally.check(r.is_ok(), || format!("relay of {hops} hops: {r:?}")) {
                into.push(t);
            }
        }
        None
    });
    rt.shutdown();
    let (rt0, rt8) = (mid(&short), mid(&long));
    vec![
        Metric::new("runtime.roundtrip_us", "us", rt0),
        Metric::new("runtime.hop_us", "us", hop_us(rt0, rt8, RELAY_HOPS)),
    ]
}

/// Bytes of the value every store write carries.
pub const VALUE_BYTES: usize = 64;

/// `store::wal`: `append_record` of one insert record, then `sync_data`
/// of the lane, on a fresh file in `dir`.
pub fn wal_append_sync(
    dir: &Path,
    tally: &mut Tally,
    tracer: &mut Tracer,
    budget: Budget,
) -> Vec<Metric> {
    let path = dir.join("wal-probe.log");
    let mut file = match OpenOptions::new().append(true).create_new(true).open(&path) {
        Ok(f) => f,
        Err(e) => {
            tally.check(false, || format!("open {}: {e}", path.display()));
            return vec![
                Metric::new("wal.append_us", "us", f64::NAN),
                Metric::new("wal.sync_us", "us", f64::NAN),
            ];
        }
    };
    let mut appends = Vec::new();
    let mut syncs = Vec::new();
    budget.repeat(|i| {
        let rec = WalRecord::Insert {
            seq: i as u64 + 1,
            client: 0,
            op_id: i as u64,
            key: i as u64,
            bits: i as u64,
            applied: true,
            value: vec![i as u8; VALUE_BYTES],
        };
        let (r, t) = tracer.time("wal.append_record", i as u64, None, || {
            wal::append_record(&mut file, &rec)
        });
        if tally.check(r.is_ok(), || format!("append_record: {r:?}")) {
            appends.push(t);
        }
        let (r, t) = tracer.time("wal.sync_data", i as u64, None, || file.sync_data());
        if tally.check(r.is_ok(), || format!("sync_data: {r:?}")) {
            syncs.push(t);
        }
        None
    });
    drop(file);
    // The records must read back intact.
    let back = wal::read_wal(&path).map(|scan| scan.records.len());
    let want = appends.len();
    tally.check(matches!(back, Ok(n) if n == want), || {
        format!("WAL probe read back {back:?} of {want} records")
    });
    vec![
        Metric::new("wal.append_us", "us", mid(&appends)),
        Metric::new("wal.sync_us", "us", mid(&syncs)),
    ]
}

/// `store`: `Store::flush` after a put and a delete of a fresh key, then
/// `Store::checkpoint`, and the WAL lane bytes per logged record. Every
/// key put here is deleted again, so the store's contents are unchanged.
pub fn store_layer(
    store: &Store,
    fresh: &[u64],
    tally: &mut Tally,
    tracer: &mut Tracer,
    budget: Budget,
) -> Vec<Metric> {
    let budget = Budget {
        max: budget.max.min(fresh.len()),
        ..budget
    };
    let flushes = budget.repeat(|i| {
        let key = fresh[i];
        let put = store.put(key, vec![i as u8; VALUE_BYTES]);
        tally.check(matches!(put, Ok(true)), || {
            format!("probe put {key}: {put:?}")
        });
        let del = store.delete(key);
        tally.check(matches!(del, Ok(true)), || {
            format!("probe delete {key}: {del:?}")
        });
        let (r, t) = tracer.time("store.flush", i as u64, None, || store.flush());
        tally
            .check(r.is_ok(), || format!("flush: {r:?}"))
            .then_some(t)
    });
    let checkpoints = Budget {
        min: 3,
        max: 50,
        seconds: budget.seconds / 2.0,
    }
    .repeat(|i| {
        let (r, t) = tracer.time("store.checkpoint", i as u64, None, || store.checkpoint());
        tally
            .check(r.is_ok(), || format!("checkpoint: {r:?}"))
            .then_some(t)
    });
    vec![
        Metric::new("store.flush_us", "us", mid(&flushes)),
        Metric::new("store.checkpoint_us", "us", mid(&checkpoints)),
        Metric::new(
            "store.wal_bytes_per_op",
            "bytes",
            wal_bytes_per_record(store.dir(), tally),
        ),
    ]
}

/// Total bytes of the store's WAL lanes over the records they hold.
fn wal_bytes_per_record(dir: &Path, tally: &mut Tally) -> f64 {
    let lanes = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("wal-") && name.ends_with(".log")
        });
    let (mut bytes, mut records) = (0u64, 0usize);
    for lane in lanes {
        let path = lane.path();
        match (fs::metadata(&path), wal::read_wal(&path)) {
            (Ok(meta), Ok(scan)) => {
                bytes += meta.len();
                records += scan.records.len();
            }
            (meta, scan) => {
                tally.check(false, || {
                    format!(
                        "read lane {}: {:?} {:?}",
                        path.display(),
                        meta.err(),
                        scan.err()
                    )
                });
            }
        }
    }
    tally.check(records > 0, || {
        "the store logged no WAL records".to_string()
    });
    bytes as f64 / records.max(1) as f64
}
