//! Batch/serial parity, property-tested: driving the same mixed churn
//! workload through `run` batches and the one-at-a-time wrappers
//! must return byte-identical answers, identical applied flags, and
//! identical final structures on every deployment size — while the batch
//! side's coalesced envelopes cross *fewer* metered host boundaries. This
//! is the release-mode gate CI runs by name alongside the parity suite.
//!
//! The acceptance pin: a batch of 256 queries on 16 hosts crosses
//! measurably fewer host boundaries than the same 256 queries run
//! serially, observable in `HostTraffic`.

use proptest::collection;
use proptest::prelude::*;

use skipwebs::core::engine::{DistributedSkipWeb, EngineReply, Op, Routable};
use skipwebs::core::multidim::{QuadtreeRequest, QuadtreeSkipWeb, TrieSkipWeb};
use skipwebs::core::onedim::OneDimSkipWeb;
use skipwebs::structures::{PointKey, SortedLinkedList};

const HOST_COUNTS: [usize; 3] = [1, 4, 16];

/// One plain query per request, all entering at `origin`.
fn queries(origin: usize, reqs: Vec<u64>) -> Vec<Op<SortedLinkedList>> {
    reqs.into_iter()
        .map(|req| Op::Query {
            origin,
            req,
            gather: false,
        })
        .collect()
}

/// Runs one scatter-gathered query end to end.
fn gather<D: Routable + Send + Sync + 'static>(
    dist: &DistributedSkipWeb<D>,
    client: &skipwebs::core::engine::EngineClient<D>,
    origin: usize,
    req: D::Request,
) -> EngineReply<D> {
    let op = Op::Query {
        origin,
        req,
        gather: true,
    };
    dist.run(client, vec![op]).expect("runtime alive").remove(0)
}

#[test]
fn batch_of_256_queries_on_16_hosts_crosses_measurably_fewer_boundaries() {
    let keys: Vec<u64> = (0..1024).map(|i| i * 7 + 1).collect();
    let web = OneDimSkipWeb::builder(keys).seed(81).build();
    let serial = DistributedSkipWeb::builder(web.inner())
        .consolidated(16)
        .spawn();
    let batched = DistributedSkipWeb::builder(web.inner())
        .consolidated(16)
        .spawn();
    let (cs, cb) = (serial.client(), batched.client());
    let qs: Vec<u64> = (0..256u64).map(|s| (s * 2741) % 7200).collect();
    let origin = web.random_origin(3);
    let want: Vec<Option<u64>> = qs
        .iter()
        .map(|&q| serial.query(&cs, origin, q).expect("runtime alive").answer)
        .collect();
    let got: Vec<Option<u64>> = batched
        .run(&cb, queries(origin, qs))
        .expect("runtime alive")
        .into_iter()
        .map(|r| r.try_into_answer().expect("query answers"))
        .collect();
    assert_eq!(got, want, "batch answers must be byte-identical");
    let (s, b) = (serial.traffic(), batched.traffic());
    assert_eq!(s.total_sent(), serial.message_count());
    assert_eq!(b.total_sent(), batched.message_count());
    assert!(
        b.total_sent() * 2 <= s.total_sent(),
        "256-query batch on 16 hosts must cross measurably fewer boundaries: \
         batched {} vs serial {}",
        b.total_sent(),
        s.total_sent()
    );
    assert!(
        b.mean_batch_size() > 1.0,
        "coalescing must be observable in the batch counters: {b}"
    );
    assert_eq!(
        s.total_batch_sent(),
        0,
        "serial path sends no batch envelopes"
    );
    serial.shutdown();
    batched.shutdown();
}

#[test]
fn scattered_reports_match_serial_answers_on_consolidated_fabrics() {
    // Quadtree box reporting, folded onto 4 physical hosts.
    let points: Vec<_> = (0..160u32)
        .map(|i| skipwebs::structures::PointKey::new([i * 104_729 + 13, i * 49_979 + 7]))
        .collect();
    let web = QuadtreeSkipWeb::builder(points).seed(82).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    for (lo, hi) in [
        ([0u32, 0u32], [u32::MAX / 2, u32::MAX / 2]),
        ([0, 0], [u32::MAX, u32::MAX]),
    ] {
        let serial = dist
            .query(
                &client,
                web.random_origin(1),
                QuadtreeRequest::InBox { lo, hi },
            )
            .expect("runtime alive");
        let scattered = gather(
            &dist,
            &client,
            web.random_origin(1),
            QuadtreeRequest::InBox { lo, hi },
        );
        assert_eq!(
            scattered.try_answer(),
            Ok(&serial.answer),
            "box {lo:?}..{hi:?}"
        );
    }
    dist.shutdown();

    // Trie prefix enumeration, folded onto 4 physical hosts.
    let strings: Vec<String> = (0..96).map(|i| format!("isbn-{i:04}")).collect();
    let web = TrieSkipWeb::builder(strings).seed(83).build();
    let dist = DistributedSkipWeb::builder(web.inner())
        .consolidated(4)
        .spawn();
    let client = dist.client();
    for prefix in ["isbn-00", "isbn", "zzz", ""] {
        let serial = dist
            .query(&client, web.random_origin(2), prefix.to_string())
            .expect("runtime alive");
        let scattered = gather(&dist, &client, web.random_origin(2), prefix.to_string())
            .try_into_answer()
            .expect("query answers");
        assert_eq!(scattered.matched_len, serial.answer.matched_len);
        assert_eq!(scattered.matches, serial.answer.matches, "{prefix:?}");
    }
    dist.shutdown();
}

#[test]
fn mixed_kind_batch_matches_the_same_ops_one_at_a_time() {
    // One quadtree, served twice: one fabric runs a single mixed batch, the
    // other runs the same ops one at a time through the wrappers.
    let points: Vec<PointKey<2>> = (0..120u32)
        .map(|i| PointKey::new([i * 104_729 + 13, i * 49_979 + 7]))
        .collect();
    let web = QuadtreeSkipWeb::builder(points.clone()).seed(84).build();
    let serial = DistributedSkipWeb::builder(web.inner())
        .consolidated(8)
        .spawn();
    let batched = DistributedSkipWeb::builder(web.inner())
        .consolidated(8)
        .spawn();
    let (cs, cb) = (serial.client(), batched.client());
    let locates: Vec<(usize, PointKey<2>)> = (0..12u32)
        .map(|s| {
            let q = PointKey::new([s.wrapping_mul(0x9E37_79B9), s.wrapping_mul(0x85EB_CA6B)]);
            (web.random_origin(u64::from(s)), q)
        })
        .collect();
    let (lo, hi) = ([0u32, 0u32], [u32::MAX / 2, u32::MAX / 2]);
    let box_origin = web.random_origin(99);
    let inserts: Vec<(usize, PointKey<2>, u64)> = (0..6u32)
        .map(|i| {
            let p = PointKey::new([i * 7_919 + 5, i * 6_007 + 3]);
            (
                i as usize * 11,
                p,
                u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        })
        .collect();
    let removes: Vec<(usize, PointKey<2>)> =
        (0..5).map(|i| (i * 13 + 2, points[i * 17 + 1])).collect();

    // Serial: the queries first — a batch is admitted under one snapshot,
    // so its queries see the web before any of its updates — then the
    // updates, each through its wrapper.
    let mut want_answers: Vec<_> = locates
        .iter()
        .map(|&(o, q)| {
            serial
                .query(&cs, o, QuadtreeRequest::Locate(q))
                .expect("runtime alive")
                .answer
        })
        .collect();
    want_answers.push(
        serial
            .query(&cs, box_origin, QuadtreeRequest::InBox { lo, hi })
            .expect("runtime alive")
            .answer,
    );
    let mut want_flags: Vec<bool> = inserts
        .iter()
        .map(|&(o, p, bits)| {
            serial
                .insert_with(&cs, o, p, bits)
                .expect("runtime alive")
                .applied
        })
        .collect();
    want_flags.extend(removes.iter().map(|&(o, p)| {
        serial
            .remove_with(&cs, o, p)
            .expect("runtime alive")
            .applied
    }));

    // Batched: every kind in one `run`, queries and updates interleaved.
    let mut ops: Vec<Op<_>> = Vec::new();
    for (i, &(origin, q)) in locates.iter().enumerate() {
        ops.push(Op::Query {
            origin,
            req: QuadtreeRequest::Locate(q),
            gather: false,
        });
        if let Some(&(origin, item, bits)) = inserts.get(i) {
            ops.push(Op::Insert { origin, item, bits });
        }
        if let Some(&(origin, item)) = removes.get(i) {
            ops.push(Op::Remove { origin, item });
        }
    }
    ops.push(Op::Query {
        origin: box_origin,
        req: QuadtreeRequest::InBox { lo, hi },
        gather: true,
    });
    let kinds: Vec<u8> = ops
        .iter()
        .map(|op| match op {
            Op::Query { .. } => 0,
            Op::Insert { .. } => 1,
            Op::Remove { .. } => 2,
        })
        .collect();
    let replies = batched.run(&cb, ops).expect("runtime alive");
    let mut got_answers = Vec::new();
    let mut got_inserts = Vec::new();
    let mut got_removes = Vec::new();
    for (reply, kind) in replies.into_iter().zip(kinds) {
        match kind {
            0 => got_answers.push(reply.try_into_answer().expect("query answers")),
            1 => got_inserts.push(reply.try_applied().expect("update outcome")),
            _ => got_removes.push(reply.try_applied().expect("update outcome")),
        }
    }
    got_inserts.extend(got_removes);
    assert_eq!(got_answers, want_answers, "answers");
    assert_eq!(got_inserts, want_flags, "applied flags");
    assert!(
        want_flags.iter().all(|&a| a),
        "every update changes the web"
    );
    assert_eq!(batched.ground_with_bits(), serial.ground_with_bits());

    // A one-op `run` reports the same hops as the matching wrapper.
    let (o, q) = locates[3];
    let one = batched
        .run(
            &cb,
            vec![Op::Query {
                origin: o,
                req: QuadtreeRequest::Locate(q),
                gather: false,
            }],
        )
        .expect("runtime alive")
        .remove(0);
    let wrapped = serial
        .query(&cs, o, QuadtreeRequest::Locate(q))
        .expect("runtime alive");
    assert_eq!(one.try_answer(), Ok(&wrapped.answer));
    assert_eq!(one.hops, wrapped.hops, "query hops");
    let p = PointKey::new([4_242_424, 1_717_171]);
    let one = batched
        .run(
            &cb,
            vec![Op::Insert {
                origin: 7,
                item: p,
                bits: 0xF00D,
            }],
        )
        .expect("runtime alive")
        .remove(0);
    let wrapped = serial
        .insert_with(&cs, 7, p, 0xF00D)
        .expect("runtime alive");
    assert_eq!(one.try_applied(), Ok(wrapped.applied));
    assert_eq!(one.hops, wrapped.hops, "insert hops");
    serial.shutdown();
    batched.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The satellite gate: the same randomized mixed churn workload —
    /// query rounds, insert rounds, remove rounds — through `run` batches
    /// of `Op::Query` / `Op::Insert` / `Op::Remove` versus the serial
    /// `query` / `insert_with` / `remove_with`, on {1, 4, 16} hosts:
    /// identical answers, identical applied flags, identical final ground
    /// sets, and never more metered crossings on the batch side.
    #[test]
    fn batched_churn_matches_serial_on_every_host_count(
        keys in collection::vec(0u64..50_000, 24..64),
        rounds in collection::vec(
            (collection::vec(0u64..50_000, 4..12), any::<u64>()),
            2..4,
        ),
        seed in 0u64..500,
    ) {
        for hosts in HOST_COUNTS {
            let web = OneDimSkipWeb::builder(keys.clone()).seed(seed).build();
            let serial = DistributedSkipWeb::builder(web.inner()).consolidated(hosts).spawn();
            let batched = DistributedSkipWeb::builder(web.inner()).consolidated(hosts).spawn();
            let (cs, cb) = (serial.client(), batched.client());
            for (round, &(ref values, bitseed)) in rounds.iter().enumerate() {
                // Query round: byte-identical answers in submission order.
                let qs: Vec<u64> = values.iter().map(|v| v * 3 % 60_000).collect();
                let origin = (round * 13 + 1) % web.len();
                let want: Vec<Option<u64>> = qs
                    .iter()
                    .map(|&q| serial.query(&cs, origin, q).expect("runtime alive").answer)
                    .collect();
                let got: Vec<Option<u64>> = batched
                    .run(&cb, queries(origin, qs))
                    .expect("runtime alive")
                    .into_iter()
                    .map(|r| r.try_into_answer().expect("query answers"))
                    .collect();
                prop_assert_eq!(got, want, "query round {}", round);

                // Insert round: distinct items (batch ops on the same item
                // would race by arrival order, exactly like concurrent
                // serial clients), explicit (origin, bits) so both engines
                // make identical deterministic choices.
                let mut fresh: Vec<u64> = values.iter().map(|v| (v * 2 + 1) % 99_991).collect();
                fresh.sort_unstable();
                fresh.dedup();
                let ins: Vec<(usize, u64, u64)> = fresh
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (origin, k, bitseed.wrapping_mul(i as u64 + 1)))
                    .collect();
                let serial_flags: Vec<bool> = ins
                    .iter()
                    .map(|&(o, k, b)| {
                        serial.insert_with(&cs, o, k, b).expect("runtime alive").applied
                    })
                    .collect();
                let batch_flags: Vec<bool> = batched
                    .run(
                        &cb,
                        ins.into_iter()
                            .map(|(origin, item, bits)| Op::Insert { origin, item, bits })
                            .collect(),
                    )
                    .expect("runtime alive")
                    .into_iter()
                    .map(|r| r.try_applied().expect("update outcome"))
                    .collect();
                prop_assert_eq!(batch_flags, serial_flags, "insert round {}", round);
                prop_assert_eq!(batched.ground(), serial.ground(), "after inserts {}", round);

                // Remove round: the freshly inserted keys plus one absent
                // probe — applied flags and final state must agree.
                let mut rem: Vec<(usize, u64)> =
                    fresh.iter().map(|&k| (origin, k)).collect();
                rem.push((origin, 999_999));
                let serial_flags: Vec<bool> = rem
                    .iter()
                    .map(|&(o, k)| serial.remove_with(&cs, o, k).expect("runtime alive").applied)
                    .collect();
                let batch_flags: Vec<bool> = batched
                    .run(
                        &cb,
                        rem.into_iter()
                            .map(|(origin, item)| Op::Remove { origin, item })
                            .collect(),
                    )
                    .expect("runtime alive")
                    .into_iter()
                    .map(|r| r.try_applied().expect("update outcome"))
                    .collect();
                prop_assert_eq!(batch_flags, serial_flags, "remove round {}", round);
                prop_assert_eq!(batched.ground(), serial.ground(), "after removes {}", round);
            }
            // Coalescing can only remove crossings, never add them.
            prop_assert!(
                batched.message_count() <= serial.message_count(),
                "hosts={}: batched {} vs serial {}",
                hosts,
                batched.message_count(),
                serial.message_count()
            );
            serial.shutdown();
            batched.shutdown();
        }
    }
}
