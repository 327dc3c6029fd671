//! `lookup-64k`: read-only 1-D nearest-neighbour queries from one client.
//!
//! The walk (`core::skipweb` over `structures`) and the runtime handoff are
//! almost all of a query's latency here; apply, publish and the WAL stay
//! idle, so an update-path change should leave this workload unchanged.

use crate::probes::{self, Reads};
use crate::stats::min_samples;
use crate::trace::Tracer;
use crate::{fresh_keys, kv, layer_budget, Measured, Report, RunArgs, Tally, Window};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipweb_bench::workloads::{query_keys, uniform_keys};
use skipweb_core::engine::DistributedSkipWeb;
use skipweb_core::onedim::OneDimSkipWeb;
use skipweb_structures::SortedLinkedList;
use std::time::Instant;

/// Stored keys.
pub const N: usize = 65_536;
/// Actor hosts the web is consolidated onto.
pub const HOSTS: usize = 2;
/// Distinct queries; the loop cycles through them.
const POOL: usize = 1 << 16;
/// Queries behind the exact count metrics.
const COUNT_QUERIES: usize = 2_048;
/// Insert-and-remove pairs behind the exact update counts.
const COUNT_UPDATES: usize = 4;

/// The nearest stored key to `q`, ties to the smaller — the oracle every
/// answer is checked against.
pub fn nearest(sorted: &[u64], q: u64) -> u64 {
    match sorted.binary_search(&q) {
        Ok(i) => sorted[i],
        Err(0) => sorted[0],
        Err(j) if j == sorted.len() => sorted[j - 1],
        Err(j) => {
            let (lo, hi) = (sorted[j - 1], sorted[j]);
            if q - lo <= hi - q {
                lo
            } else {
                hi
            }
        }
    }
}

fn build(keys: &[u64], seed: u64) -> (OneDimSkipWeb, DistributedSkipWeb<SortedLinkedList>) {
    let web = OneDimSkipWeb::builder(keys.to_vec()).seed(seed).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(HOSTS)
        .spawn();
    (web, dist)
}

/// Runs the workload.
///
/// # Errors
///
/// When the loop could not collect enough samples for a percentile.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let keys = uniform_keys(N, args.seed);

    let mut m = Measured::default();
    let ((web, dist), setup_s) = crate::set_up(
        &mut tracer,
        "setup.build_spawn",
        || Ok(build(&keys, args.seed)),
        |(_, old)| old.shutdown(),
    )?;
    m.setup_s = setup_s;

    // Inputs and their oracle answers, all outside the timed region.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0A1B_2C3D);
    let reqs: Vec<(usize, u64)> = query_keys(POOL, args.seed)
        .into_iter()
        .map(|q| (rng.gen_range(0..N), q))
        .collect();
    let want: Vec<u64> = reqs.iter().map(|&(_, q)| nearest(&keys, q)).collect();

    let client = dist.client();
    let window = Window::start(args.seconds);
    let mut i = 0usize;
    while window.running(m.reads_us.len(), min_samples(crate::OP_TAIL)) {
        let k = i % POOL;
        let (origin, q) = reqs[k];
        let (reply, t) = tracer.time("engine.query", i as u64, None, || {
            dist.query(&client, origin, q)
        });
        let ok = matches!(&reply, Ok(r) if r.answer == Some(want[k]));
        if tally.check(ok, || {
            format!("query {q} from {origin}: {reply:?}, want {}", want[k])
        }) {
            m.reads_us.push(t);
            m.done_s.push(window.elapsed());
        }
        i += 1;
    }
    m.elapsed_s = window.elapsed();

    let metrics = if args.trace {
        let ok = |k: usize, a: &Option<u64>| *a == Some(want[k]);
        let reads = Reads::<SortedLinkedList> {
            reqs: &reqs,
            ok: &ok,
        };
        let budget = layer_budget(args);
        let fresh = fresh_keys(&keys, 256, args.seed);
        let fresh_bits: Vec<(u64, u64)> = fresh.iter().map(|&k| (k, rng.gen())).collect();
        let mut out = probes::skipweb_query(web.inner(), &reqs, COUNT_QUERIES, &mut tracer, budget);
        out.extend(probes::skipweb_apply(
            web.inner(),
            &fresh_bits,
            &mut tally,
            &mut tracer,
            budget,
        ));
        out.push(probes::engine_publish(&dist, &mut tracer, budget));
        let idle = probes::idle_reads(
            &dist,
            &reads,
            "engine.query_idle",
            &mut tally,
            &mut tracer,
            budget,
        );
        out.push(crate::read_wait(&m.reads_us, &idle));
        // The probes below spawn fabrics of their own; at this n each
        // costs gigabytes, so the workload's goes first.
        dist.shutdown();
        out.push(probes::engine_query_local(
            web.inner(),
            &reads,
            &mut tally,
            &mut tracer,
            budget,
        ));
        let count_reads = Reads::<SortedLinkedList> {
            reqs: &reqs[..COUNT_QUERIES],
            ok: &ok,
        };
        let count_updates: Vec<(usize, u64, u64)> = fresh_bits[..COUNT_UPDATES]
            .iter()
            .enumerate()
            .map(|(j, &(k, b))| (reqs[j].0, k, b))
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
        dist.shutdown();
        m.end_to_end()?
    };
    crate::finish(
        args,
        "lookup-64k",
        tally,
        tracer,
        metrics,
        &m.notes(args.trace),
    )
}
