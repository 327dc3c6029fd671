//! Criterion bench for the batched operation layer: end-to-end latency of
//! a `run` batch of queries across batch sizes {1, 16, 256} and deployment
//! sizes {1, 4, 16} hosts. Larger batches amortize the per-hop envelope cost —
//! same answers, fewer metered host crossings — so batch size × host count
//! maps the congestion lever of §2.5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skipweb_bench::workloads;
use skipweb_core::engine::{DistributedSkipWeb, Op};
use skipweb_core::onedim::OneDimSkipWeb;
use skipweb_structures::SortedLinkedList;

const HOST_COUNTS: [usize; 3] = [1, 4, 16];
const BATCH_SIZES: [usize; 3] = [1, 16, 256];

fn bench_distributed_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_batch");
    group.sample_size(10);

    let n = 1024usize;
    let web = OneDimSkipWeb::builder(workloads::uniform_keys(n, 61))
        .seed(61)
        .build();
    let qs = workloads::query_keys(256, 61);

    for hosts in HOST_COUNTS {
        let dist = DistributedSkipWeb::builder(web.inner())
            .consolidated(hosts)
            .spawn();
        let client = dist.client();
        let origin = web.random_origin(1);
        for batch in BATCH_SIZES {
            group.bench_function(
                BenchmarkId::new(format!("onedim_qbatch_h{hosts}"), batch),
                |b| {
                    let mut i = 0usize;
                    b.iter(|| {
                        i += 1;
                        let ops: Vec<Op<SortedLinkedList>> = (0..batch)
                            .map(|j| Op::Query {
                                origin,
                                req: qs[(i * batch + j) % qs.len()],
                                gather: false,
                            })
                            .collect();
                        dist.run(&client, ops).expect("runtime alive")
                    });
                },
            );
        }
        dist.shutdown();
    }

    group.finish();
}

criterion_group!(benches, bench_distributed_batch);
criterion_main!(benches);
