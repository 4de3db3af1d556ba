//! Committee-consensus safety under adversarial delivery: value locking
//! across view changes and agreement under arbitrary message orderings.

use bft_cupft::committee::{Committee, CommitteeMsg, Replica, ReplicaConfig, Value};
use bft_cupft::crypto::KeyRegistry;
use bft_cupft::graph::{process_set, ProcessId};
use proptest::prelude::*;

fn make_replicas(n: u64, f: usize) -> Vec<Replica> {
    let mut registry = KeyRegistry::new();
    let committee = Committee::new(process_set(1..=n), f);
    let keys: Vec<_> = (1..=n).map(|i| registry.register(i)).collect();
    keys.into_iter()
        .map(|key| {
            let i = key.id();
            Replica::new(
                key,
                registry.clone(),
                committee.clone(),
                Value::from(format!("value-{i}").into_bytes()),
                ReplicaConfig::default(),
            )
        })
        .collect()
}

/// Drives replicas with a queue whose pop position is chosen by `picks`
/// (an arbitrary delivery order), dropping messages from `silent`.
/// Replicas whose IDs are in `laggard` get their timeouts fired whenever
/// the queue drains without universal decision.
fn run_with_order(replicas: &mut [Replica], silent: &[u64], picks: &[u8]) -> Vec<Option<Value>> {
    let mut queue: Vec<(ProcessId, ProcessId, CommitteeMsg)> = Vec::new();
    for r in replicas.iter_mut() {
        let fx = r.start();
        for (to, m) in fx.msgs {
            queue.push((r.id(), to, m));
        }
    }
    let mut pick_idx = 0usize;
    let mut steps = 0u32;
    loop {
        while !queue.is_empty() {
            steps += 1;
            assert!(steps < 300_000, "did not converge");
            let pos = if picks.is_empty() {
                queue.len() - 1
            } else {
                let p = picks[pick_idx % picks.len()] as usize;
                pick_idx += 1;
                p % queue.len()
            };
            let (from, to, msg) = queue.swap_remove(pos);
            if silent.contains(&from.raw()) {
                continue;
            }
            let Some(r) = replicas.iter_mut().find(|r| r.id() == to) else {
                continue;
            };
            let fx = r.handle(from, msg);
            for (to2, m2) in fx.msgs {
                queue.push((r.id(), to2, m2));
            }
        }
        // Queue drained: if correct replicas are undecided, fire timeouts.
        let undecided = replicas
            .iter()
            .filter(|r| !silent.contains(&r.id().raw()) && r.decision().is_none())
            .count();
        if undecided == 0 {
            break;
        }
        let mut progressed = false;
        for r in replicas.iter_mut() {
            if silent.contains(&r.id().raw()) || r.decision().is_some() {
                continue;
            }
            let fx = r.on_timeout(r.view());
            for (to, m) in fx.msgs {
                queue.push((r.id(), to, m));
                progressed = true;
            }
        }
        assert!(
            progressed,
            "stuck with {undecided} undecided and no timeouts"
        );
    }
    replicas.iter().map(|r| r.decision().cloned()).collect()
}

/// Value locking: once a quorum may have decided in view 0, later views
/// must propose the same value. We force the scenario: leader 1 completes
/// view 0 at replicas {1,2,3}; replica 4 sees nothing, times out, and
/// drives view changes — the final decisions must all match.
#[test]
fn view_change_cannot_revert_possible_decision() {
    let mut replicas = make_replicas(4, 1);
    // Phase 1: run view 0 fully among {1,2,3} only (messages to/from 4
    // withheld): quorum q=3 is reachable, so they may decide.
    let mut queue: Vec<(ProcessId, ProcessId, CommitteeMsg)> = Vec::new();
    for r in replicas.iter_mut() {
        let fx = r.start();
        for (to, m) in fx.msgs {
            if to.raw() != 4 {
                queue.push((r.id(), to, m));
            }
        }
    }
    let mut steps = 0;
    while let Some((from, to, msg)) = queue.pop() {
        steps += 1;
        assert!(steps < 100_000);
        if from.raw() == 4 || to.raw() == 4 {
            continue;
        }
        let Some(r) = replicas.iter_mut().find(|r| r.id() == to) else {
            continue;
        };
        let fx = r.handle(from, msg);
        for (to2, m2) in fx.msgs {
            if to2.raw() != 4 {
                queue.push((r.id(), to2, m2));
            }
        }
    }
    let decided_v0: Vec<Value> = replicas
        .iter()
        .filter_map(|r| r.decision().cloned())
        .collect();
    assert!(
        !decided_v0.is_empty(),
        "view 0 should decide among {{1,2,3}}"
    );
    assert!(decided_v0.iter().all(|v| v.as_ref() == b"value-1"));

    // Phase 2: replica 4 timed out and forces a view change; remaining
    // undecided replicas participate. Whatever happens, nobody may decide
    // anything but value-1.
    let mut queue: Vec<(ProcessId, ProcessId, CommitteeMsg)> = Vec::new();
    for r in replicas.iter_mut() {
        if r.decision().is_none() {
            let fx = r.on_timeout(r.view());
            for (to, m) in fx.msgs {
                queue.push((r.id(), to, m));
            }
        }
    }
    let mut steps = 0;
    while let Some((from, to, msg)) = queue.pop() {
        steps += 1;
        assert!(steps < 100_000);
        let Some(r) = replicas.iter_mut().find(|r| r.id() == to) else {
            continue;
        };
        let fx = r.handle(from, msg);
        for (to2, m2) in fx.msgs {
            queue.push((r.id(), to2, m2));
        }
    }
    for r in &replicas {
        if let Some(v) = r.decision() {
            assert_eq!(
                v.as_ref(),
                b"value-1",
                "replica {} reverted a possibly-decided value",
                r.id()
            );
        }
    }
}

/// A Byzantine member flooding stale prepares for a bogus digest must not
/// trick anyone into committing it.
#[test]
fn bogus_prepare_flood_is_harmless() {
    let mut replicas = make_replicas(4, 1);
    let mut registry = KeyRegistry::new();
    let byz_key = registry.register(4);
    // the digest of a value nobody pre-prepared
    let bogus = bft_cupft::crypto::sha256::digest(b"bogus");
    let mut queue: Vec<(ProcessId, ProcessId, CommitteeMsg)> = Vec::new();
    for target in 1..=3u64 {
        for _ in 0..10 {
            queue.push((
                ProcessId::new(4),
                ProcessId::new(target),
                CommitteeMsg::prepare(&byz_key, 0, bogus),
            ));
            queue.push((
                ProcessId::new(4),
                ProcessId::new(target),
                CommitteeMsg::commit(&byz_key, 0, bogus),
            ));
        }
    }
    for r in replicas.iter_mut() {
        let fx = r.start();
        for (to, m) in fx.msgs {
            queue.push((r.id(), to, m));
        }
    }
    let mut steps = 0;
    while let Some((from, to, msg)) = queue.pop() {
        steps += 1;
        assert!(steps < 100_000);
        let Some(r) = replicas.iter_mut().find(|r| r.id() == to) else {
            continue;
        };
        let fx = r.handle(from, msg);
        for (to2, m2) in fx.msgs {
            queue.push((r.id(), to2, m2));
        }
    }
    for r in replicas.iter().take(3) {
        assert_eq!(
            r.decision().map(|v| v.as_ref()),
            Some(&b"value-1"[..]),
            "replica {}",
            r.id()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Agreement + validity hold under ANY delivery order with any single
    /// silent member (n=4, f=1).
    #[test]
    fn agreement_under_arbitrary_orderings(
        picks in proptest::collection::vec(any::<u8>(), 1..200),
        silent in 0u64..5,
    ) {
        let mut replicas = make_replicas(4, 1);
        let silent_list: Vec<u64> = if silent == 0 { vec![] } else { vec![silent] };
        let decisions = run_with_order(&mut replicas, &silent_list, &picks);
        let values: std::collections::BTreeSet<Vec<u8>> = decisions
            .iter()
            .enumerate()
            .filter(|(i, _)| !silent_list.contains(&((i + 1) as u64)))
            .filter_map(|(_, d)| d.as_ref().map(|v| v.to_vec()))
            .collect();
        prop_assert!(values.len() <= 1, "agreement violated: {values:?}");
        for v in &values {
            prop_assert!(v.starts_with(b"value-"), "validity violated");
        }
    }

    /// Same property at n=7, f=2 with up to two silent members.
    #[test]
    fn agreement_under_orderings_f2(
        picks in proptest::collection::vec(any::<u8>(), 1..150),
        s1 in 0u64..8,
        s2 in 0u64..8,
    ) {
        let mut replicas = make_replicas(7, 2);
        let mut silent: Vec<u64> = [s1, s2]
            .into_iter()
            .filter(|&s| (1..=7).contains(&s))
            .collect();
        silent.dedup();
        let decisions = run_with_order(&mut replicas, &silent, &picks);
        let values: std::collections::BTreeSet<Vec<u8>> = decisions
            .iter()
            .enumerate()
            .filter(|(i, _)| !silent.contains(&((i + 1) as u64)))
            .filter_map(|(_, d)| d.as_ref().map(|v| v.to_vec()))
            .collect();
        prop_assert!(values.len() <= 1, "agreement violated: {values:?}");
    }
}
