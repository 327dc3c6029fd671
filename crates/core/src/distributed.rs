//! The 1-D skip-web on the threaded actor runtime: the generic engine
//! ([`crate::engine`]) instantiated for sorted keys. Serve a built web with
//! [`OneDimSkipWeb::serve`](crate::onedim::OneDimSkipWeb::serve) or
//! [`DistributedSkipWeb::builder`], and query it with the engine's op API —
//! nearest-neighbour queries, live inserts and removes (§4), batches, and
//! correlation-id pipelining.

use skipweb_structures::linked_list::SortedLinkedList;

use crate::engine::{DistributedSkipWeb, EngineClient};

/// A running distributed 1-D skip-web.
pub type DistributedOneDim = DistributedSkipWeb<SortedLinkedList>;

/// Client handle for a [`DistributedOneDim`]; supports many concurrent
/// in-flight operations via correlation ids (see [`crate::engine`]).
pub type OneDimClient = EngineClient<SortedLinkedList>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Op;
    use crate::onedim::OneDimSkipWeb;
    use std::time::Duration;

    #[test]
    fn distributed_answers_match_the_simulator() {
        let keys: Vec<u64> = (0..256).map(|i| i * 9 + 1).collect();
        let web = OneDimSkipWeb::builder(keys).seed(13).build();
        let dist: DistributedOneDim = web.serve();
        let client = dist.client();
        for s in 0..60u64 {
            let q = (s * 131) % 2400;
            let sim = web.nearest(web.random_origin(s), q).answer.nearest;
            let got = dist
                .query(&client, web.random_origin(s), q)
                .expect("runtime alive")
                .answer
                .expect("nonempty web");
            assert_eq!(got, sim, "query {q}");
        }
        dist.shutdown();
    }

    #[test]
    fn distributed_hops_equal_the_simulators_metered_crossings() {
        let keys: Vec<u64> = (0..512).map(|i| i * 5).collect();
        let web = OneDimSkipWeb::builder(keys).seed(14).build();
        let dist: DistributedOneDim = web.serve();
        let client = dist.client();
        let trials = 40u64;
        let mut sim_total = 0u64;
        for s in 0..trials {
            let q = (s * 401) % 2560;
            let origin = web.random_origin(s);
            let sim = web.nearest(origin, q);
            sim_total += sim.messages;
            let reply = dist.query(&client, origin, q).unwrap();
            assert_eq!(
                u64::from(reply.hops),
                sim.messages,
                "hop parity for query {q}"
            );
        }
        // The runtime's global counter agrees with the per-query hops.
        assert_eq!(dist.message_count(), sim_total);
        let per_query = dist.message_count() as f64 / trials as f64;
        // k = 9 levels; expected O(1) messages per level.
        assert!(per_query < 40.0, "per-query messages {per_query}");
        dist.shutdown();
    }

    #[test]
    fn distributed_bucketed_web_also_routes_correctly() {
        let keys: Vec<u64> = (0..300).map(|i| i * 7 + 3).collect();
        let web = OneDimSkipWeb::builder(keys).seed(15).bucketed(32).build();
        let dist: DistributedOneDim = web.serve();
        let client = dist.client();
        for s in 0..30u64 {
            let q = (s * 211) % 2200;
            let sim = web.nearest(web.random_origin(s), q).answer.nearest;
            let got = dist
                .query(&client, web.random_origin(s), q)
                .unwrap()
                .answer
                .unwrap();
            assert_eq!(got, sim, "query {q}");
        }
        dist.shutdown();
    }

    #[test]
    fn concurrent_clients_get_independent_answers() {
        let keys: Vec<u64> = (0..128).map(|i| i * 11).collect();
        let web = OneDimSkipWeb::builder(keys).seed(16).build();
        let dist: DistributedOneDim = web.serve();
        let a = dist.client();
        let b = dist.client();
        let origin_a = web.keys().iter().position(|&k| k == 55).unwrap_or(0);
        let query = |origin, req| {
            vec![Op::Query {
                origin,
                req,
                gather: false,
            }]
        };
        dist.submit(&a, query(origin_a, 55)).unwrap();
        dist.submit(&b, query(1, 1100)).unwrap();
        let ans_a = a.recv_any(Duration::from_secs(10)).unwrap();
        let ans_b = b.recv_any(Duration::from_secs(10)).unwrap();
        assert_eq!(ans_a.try_into_answer().unwrap(), Some(55));
        assert_eq!(ans_b.try_into_answer().unwrap(), Some(1100));
        dist.shutdown();
    }

    #[test]
    fn one_client_pipelines_many_queries_by_correlation_id() {
        let keys: Vec<u64> = (0..200).map(|i| i * 10).collect();
        let web = OneDimSkipWeb::builder(keys).seed(17).build();
        let dist: DistributedOneDim = web.serve();
        let client = dist.client();
        // Fire 24 queries before reading a single reply …
        let corrs: Vec<(u64, u64)> = (0..24u64)
            .map(|s| {
                let q = (s * 83) % 2000;
                let op = Op::Query {
                    origin: web.random_origin(s),
                    req: q,
                    gather: false,
                };
                let corr = dist.submit(&client, vec![op]).unwrap()[0];
                (corr, q)
            })
            .collect();
        // … then collect them in reverse submission order.
        for &(corr, q) in corrs.iter().rev() {
            let reply = client.recv_corr(corr, Duration::from_secs(10)).unwrap();
            assert_eq!(reply.corr, corr);
            let want = web.nearest(0, q).answer.nearest;
            assert_eq!(reply.try_into_answer().unwrap(), Some(want), "query {q}");
        }
        dist.shutdown();
    }

    #[test]
    fn batched_nearest_matches_serial_with_fewer_crossings() {
        let keys: Vec<u64> = (0..256).map(|i| i * 9 + 1).collect();
        let web = OneDimSkipWeb::builder(keys).seed(19).build();
        let serial: DistributedOneDim = web.serve();
        let batched: DistributedOneDim = web.serve();
        let (cs, cb) = (serial.client(), batched.client());
        let qs: Vec<u64> = (0..48u64).map(|s| (s * 131) % 2400).collect();
        let origin = web.random_origin(7);
        let want: Vec<Option<u64>> = qs
            .iter()
            .map(|&q| serial.query(&cs, origin, q).expect("runtime alive").answer)
            .collect();
        let got: Vec<Option<u64>> = batched
            .run(
                &cb,
                qs.into_iter()
                    .map(|req| Op::Query {
                        origin,
                        req,
                        gather: false,
                    })
                    .collect(),
            )
            .expect("runtime alive")
            .into_iter()
            .map(|r| r.try_into_answer().expect("query answers"))
            .collect();
        assert_eq!(got, want);
        assert!(
            batched.message_count() < serial.message_count(),
            "batch must cross fewer host boundaries: {} vs {}",
            batched.message_count(),
            serial.message_count()
        );
        assert!(
            batched.traffic().total_batch_ops() > 0,
            "coalescing metered"
        );
        // Batched updates round-trip through the same op path.
        let ins = batched
            .run(
                &cb,
                vec![
                    Op::Insert {
                        origin,
                        item: 5_000,
                        bits: 0x9E37_79B9_7F4A_7C15,
                    },
                    Op::Insert {
                        origin,
                        item: 5_002,
                        bits: 0x85EB_CA6B_C2B2_AE35,
                    },
                ],
            )
            .unwrap();
        assert!(ins.iter().all(|r| r.try_applied() == Ok(true)));
        let rem = batched
            .run(
                &cb,
                [5_000, 5_002, 9_999]
                    .map(|item| Op::Remove { origin, item })
                    .into(),
            )
            .unwrap();
        assert_eq!(
            rem.iter()
                .map(|r| r.try_applied().unwrap())
                .collect::<Vec<_>>(),
            vec![true, true, false]
        );
        serial.shutdown();
        batched.shutdown();
    }

    #[test]
    fn live_updates_change_the_served_answers() {
        let keys: Vec<u64> = (0..64).map(|i| i * 100).collect();
        let web = OneDimSkipWeb::builder(keys).seed(18).build();
        let dist = DistributedOneDim::builder(web.inner()).capacity(70).spawn();
        let client = dist.client();
        assert_eq!(dist.query(&client, 0, 5_550).unwrap().answer, Some(5_500));
        let ins = dist.insert(&client, 5_551).unwrap();
        assert!(ins.applied);
        assert!(ins.hops > 0, "updates on H=n webs pay messages");
        assert_eq!(dist.query(&client, 0, 5_550).unwrap().answer, Some(5_551));
        assert!(dist.remove(&client, 5_551).unwrap().applied);
        assert_eq!(dist.query(&client, 0, 5_550).unwrap().answer, Some(5_500));
        assert!(dist.ground().contains(&5_500));
        assert!(!dist.ground().contains(&5_551));
        assert!(dist.traffic().total_update_sent() > 0);
        dist.shutdown();
    }
}
