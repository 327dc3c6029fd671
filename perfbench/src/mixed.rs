//! `mixed-2d`: quadtree point location beside concurrent updates.
//!
//! One client locates points while a second inserts and removes a fresh
//! point, so reads queue behind apply turns; it is the only workload on
//! the multi-dimensional `structures::quadtree` path. A change that speeds
//! writes at the cost of reads, or the reverse, shows here.

use crate::probes::{self, Reads};
use crate::stats::min_samples;
use crate::trace::Tracer;
use crate::{kv, layer_budget, Measured, Report, RunArgs, Tally, Window};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipweb_bench::workloads::{query_points, uniform_points};
use skipweb_core::engine::DistributedSkipWeb;
use skipweb_core::multidim::{QuadtreeAnswer, QuadtreeRequest, QuadtreeSkipWeb};
use skipweb_structures::quadtree::PointKey;
use skipweb_structures::CompressedQuadtree;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Stored points.
pub const N: usize = 2_000;
/// Actor hosts the web is consolidated onto.
pub const HOSTS: usize = 2;
/// Distinct queries; the reader cycles through them.
const POOL: usize = 1 << 14;
/// Queries of the quiesced pass checked against the simulator.
const QUIESCED: usize = 512;
/// Queries behind the exact count metrics.
const COUNT_QUERIES: usize = 1_024;
/// Insert-and-remove pairs behind the exact update counts.
const COUNT_UPDATES: usize = 16;

type Quad = CompressedQuadtree<2>;
type Fabric = DistributedSkipWeb<Quad>;

fn build(points: &[PointKey<2>], seed: u64) -> (QuadtreeSkipWeb<2>, Fabric) {
    let web = QuadtreeSkipWeb::builder(points.to_vec()).seed(seed).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(HOSTS)
        .spawn();
    (web, dist)
}

/// Whether a locate answer's cell contains the query point.
fn located(q: &PointKey<2>, answer: &QuadtreeAnswer<2>) -> bool {
    matches!(answer, QuadtreeAnswer::Located { cell, .. } if cell.contains_point(q))
}

/// `count` points absent from `stored`, no two alike.
fn fresh_points(stored: &[PointKey<2>], count: usize, seed: u64) -> Vec<PointKey<2>> {
    let mut taken: HashSet<PointKey<2>> = stored.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF7E5);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p = PointKey::new([rng.gen(), rng.gen()]);
        if taken.insert(p) {
            out.push(p);
        }
    }
    out
}

/// Runs the workload.
///
/// # Errors
///
/// When a percentile lacks samples.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace, origin);
    let points = uniform_points(N, args.seed);

    let mut m = Measured::default();
    let ((web, dist), setup_s) = crate::set_up(
        &mut tracer,
        "setup.build_spawn",
        || Ok(build(&points, args.seed)),
        |(_, old)| old.shutdown(),
    )?;
    m.setup_s = setup_s;

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x2D2D);
    let reqs: Vec<(usize, QuadtreeRequest<2>)> = query_points(POOL, args.seed)
        .into_iter()
        .map(|q| (rng.gen_range(0..N), QuadtreeRequest::Locate(q)))
        .collect();
    let target = |k: usize| match reqs[k].1 {
        QuadtreeRequest::Locate(q) => q,
        QuadtreeRequest::InBox { .. } => unreachable!("the workload only locates"),
    };
    let fresh = fresh_points(&points, 4_096, args.seed);

    // Reader and writer each run a closed loop on their own client. The
    // writer keeps writing until the reader stops, so every timed read
    // runs under write load.
    let window = Window::start(args.seconds);
    let reading = AtomicBool::new(true);
    /// Tells the writer the reader has stopped, also if it unwinds.
    struct Stopped<'a>(&'a AtomicBool);
    impl Drop for Stopped<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::SeqCst);
        }
    }
    let (reader, writer) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let _stopped = Stopped(&reading);
            let mut tally = Tally::default();
            let mut tracer = Tracer::new(args.trace, origin);
            let mut reads = Vec::new();
            let mut done = Vec::new();
            let client = dist.client();
            let mut i = 0usize;
            while window.running(reads.len(), min_samples(crate::OP_TAIL)) {
                let k = i % POOL;
                let (o, req) = &reqs[k];
                let (reply, t) = tracer.time("engine.query", i as u64, None, || {
                    dist.query(&client, *o, *req)
                });
                let ok = matches!(&reply, Ok(r) if located(&target(k), &r.answer));
                if tally.check(ok, || format!("locate #{k}: {reply:?}")) {
                    reads.push(t);
                    done.push(window.elapsed());
                }
                i += 1;
            }
            (tally, tracer, reads, done)
        });
        let writer = s.spawn(|| {
            let mut tally = Tally::default();
            let mut tracer = Tracer::new(args.trace, origin);
            let mut writes = Vec::new();
            let mut done = Vec::new();
            let client = dist.client();
            let mut i = 0usize;
            // Each pass inserts a fresh point and removes it again, so the
            // ground set is back to the initial one whenever a pass ends.
            while reading.load(Ordering::SeqCst) {
                let p = fresh[i % fresh.len()];
                let (ins, t) =
                    tracer.time("engine.insert", i as u64, None, || dist.insert(&client, p));
                if tally.check(matches!(ins, Ok(r) if r.applied), || {
                    format!("insert {p:?}: {ins:?}")
                }) {
                    writes.push(t);
                    done.push(window.elapsed());
                }
                let (rem, t) =
                    tracer.time("engine.remove", i as u64, None, || dist.remove(&client, p));
                if tally.check(matches!(rem, Ok(r) if r.applied), || {
                    format!("remove {p:?}: {rem:?}")
                }) {
                    writes.push(t);
                    done.push(window.elapsed());
                }
                i += 1;
            }
            (tally, tracer, writes, done)
        });
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    m.elapsed_s = window.elapsed();
    for (t, tr, samples, done, into) in [
        (reader.0, reader.1, reader.2, reader.3, &mut m.reads_us),
        (writer.0, writer.1, writer.2, writer.3, &mut m.writes_us),
    ] {
        tally.absorb(t);
        tracer.absorb(tr);
        *into = samples;
        m.done_s.extend(done);
    }

    // Quiesced: the ground set is the initial one, and the fabric answers
    // exactly as the simulator does.
    let ground = dist.ground();
    tally.check(ground == web.points(), || {
        format!(
            "ground holds {} points after the run, want {}",
            ground.len(),
            N
        )
    });
    let client = dist.client();
    for (k, (o, req)) in reqs.iter().take(QUIESCED).enumerate() {
        let want = web.locate_point(*o, target(k));
        let reply = dist.query(&client, *o, *req);
        let ok = matches!(&reply, Ok(r) if r.answer == QuadtreeAnswer::Located {
            cell: want.cell,
            approx_nearest: want.approx_nearest,
        });
        tally.check(ok, || {
            format!("quiesced locate #{k}: {reply:?}, want {want:?}")
        });
    }

    let metrics = if args.trace {
        let budget = layer_budget(args);
        let ok = |k: usize, a: &QuadtreeAnswer<2>| located(&target(k), a);
        let reads = Reads::<Quad> {
            reqs: &reqs,
            ok: &ok,
        };
        let queries: Vec<(usize, PointKey<2>)> =
            (0..POOL).map(|k| (reqs[k].0, target(k))).collect();
        let mut out =
            probes::skipweb_query(web.inner(), &queries, COUNT_QUERIES, &mut tracer, budget);
        let apply_fresh: Vec<(PointKey<2>, u64)> = fresh.iter().map(|&p| (p, rng.gen())).collect();
        out.extend(probes::skipweb_apply(
            web.inner(),
            &apply_fresh,
            &mut tally,
            &mut tracer,
            budget,
        ));
        out.push(probes::engine_publish(&dist, &mut tracer, budget));
        out.push(probes::engine_query_local(
            web.inner(),
            &reads,
            &mut tally,
            &mut tracer,
            budget,
        ));
        let idle = probes::idle_reads(
            &dist,
            &reads,
            "engine.query_idle",
            &mut tally,
            &mut tracer,
            budget,
        );
        out.push(crate::read_wait(&m.reads_us, &idle));
        let count_reads = Reads::<Quad> {
            reqs: &reqs[..COUNT_QUERIES],
            ok: &ok,
        };
        let count_updates: Vec<(usize, PointKey<2>, u64)> = apply_fresh[..COUNT_UPDATES]
            .iter()
            .enumerate()
            .map(|(j, &(p, b))| (reqs[j].0, p, b))
            .collect();
        out.extend(probes::repeated_counts(
            || {
                DistributedSkipWeb::builder(web.inner())
                    .consolidated(HOSTS)
                    .spawn()
            },
            &count_reads,
            &count_updates,
            &mut tally,
        ));
        out.extend(kv::shared_layers(args, None, &mut tally, &mut tracer)?);
        out
    } else {
        m.end_to_end()?
    };
    dist.shutdown();
    crate::finish(
        args,
        "mixed-2d",
        tally,
        tracer,
        metrics,
        &m.notes(args.trace),
    )
}
