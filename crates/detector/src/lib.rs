//! Participant detectors: the initial-knowledge oracle of the CUP model.
//!
//! Section II-C: each process `i` obtains its initial knowledge from a
//! local oracle `PDᵢ` returning a fixed subset of processes; the oracles
//! collectively define the knowledge connectivity graph. This crate
//! provides the signed PD record `⟨i, PDᵢ⟩ᵢ` ([`PdCertificate`], whose
//! one wire encoding is also what it signs and hashes), the shared
//! verification memo [`CertPool`], and the [`SystemSetup`] helper wiring a
//! whole simulated system from a knowledge connectivity graph: one key per
//! vertex, and each vertex's PD (its out-neighbourhood) signed once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use cupft_crypto::{KeyRegistry, SigningKey};
use cupft_graph::{DiGraph, ProcessId, ProcessSet};

mod signed;
mod wire;

pub use signed::PdCertificate;

/// A shared, thread-safe memo of [`PdCertificate`] verification verdicts,
/// keyed by fingerprint.
///
/// Every process of a run verifies through one pool, so a record verified
/// by any process is settled for all of them: `n` processes verifying the
/// same `n` certificates cost `n` HMACs, not `n²`.
///
/// # Example
///
/// ```
/// use cupft_detector::{CertPool, SystemSetup};
/// use cupft_graph::{DiGraph, ProcessId};
///
/// let setup = SystemSetup::new(&DiGraph::from_edges([(1, 2), (2, 1)]));
/// let cert = setup.shared_certificate_for(ProcessId::new(1)).unwrap();
/// let pool = CertPool::new();
/// let bundle = [cert.clone(), cert.clone()];
/// assert_eq!(pool.verify_batch(&bundle, setup.registry()), [true, true]);
/// assert_eq!(pool.verdict(cert.fingerprint()), Some(true));
/// assert_eq!((pool.memo_hits(), pool.memo_misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct CertPool {
    /// Memoized verification verdicts, keyed by fingerprint. Sound to
    /// share system-wide because verification is a pure function of the
    /// record bytes against the one shared [`KeyRegistry`], and the
    /// fingerprint is collision-resistant (see [`PdCertificate`] docs):
    /// whoever verifies a record first verifies it for everyone.
    ///
    /// Read-mostly after the discovery transient, hence the `RwLock`:
    /// probes from a thousand concurrently-absorbing processes share the
    /// read lock instead of serializing; only first-sight settlement
    /// takes the write lock.
    verdicts: RwLock<HashMap<u128, bool>>,
    /// Distinct forged records seen — incremented exactly once per
    /// rejected fingerprint, no matter how many processes (or worker
    /// threads) race to verify the same forgery.
    forged_records: AtomicU64,
    /// Verification requests answered from the verdict memo (no HMAC
    /// work). Together with [`Self::memo_misses`] this is the memo's
    /// hit-rate instrument, surfaced as observability gauges.
    memo_hits: AtomicU64,
    /// Verification requests that had to fall through to the HMAC check.
    memo_misses: AtomicU64,
}

impl CertPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        CertPool::default()
    }

    /// The memoized verdict for `fingerprint`, if any process has
    /// verified a record with it before.
    pub fn verdict(&self, fingerprint: u128) -> Option<bool> {
        self.verdicts
            .read()
            .expect("cert pool poisoned")
            .get(&fingerprint)
            .copied()
    }

    /// Records a verdict, returning the verdict that actually stuck —
    /// under a race the first writer wins (both racers computed the same
    /// pure function, so the verdicts agree anyway). A rejected
    /// fingerprint bumps [`Self::forged_records`] exactly once, on the
    /// insert that stuck.
    fn record_verdict(&self, fingerprint: u128, ok: bool) -> bool {
        let mut verdicts = self.verdicts.write().expect("cert pool poisoned");
        match verdicts.entry(fingerprint) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(ok);
                if !ok {
                    self.forged_records.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
        }
    }

    /// Memoized verification of a whole SETPDS bundle: one memo probe
    /// pass under a single lock acquisition, then one HMAC check and one
    /// recorded verdict per miss. A fingerprint missed more than once
    /// in the bundle is verified once; its repeats reuse that verdict and
    /// count as memo hits. Returns one verdict per input certificate, in
    /// order.
    pub fn verify_batch(&self, certs: &[Arc<PdCertificate>], registry: &KeyRegistry) -> Vec<bool> {
        let mut out = vec![false; certs.len()];
        // First index of each distinct missed fingerprint, and each
        // repeat paired with that first index.
        let mut misses: Vec<usize> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        {
            let verdicts = self.verdicts.read().expect("cert pool poisoned");
            let mut first_miss: HashMap<u128, usize> = HashMap::new();
            for (i, cert) in certs.iter().enumerate() {
                let fp = cert.fingerprint();
                if let Some(&ok) = verdicts.get(&fp) {
                    out[i] = ok;
                } else {
                    match first_miss.entry(fp) {
                        Entry::Occupied(e) => repeats.push((i, *e.get())),
                        Entry::Vacant(e) => {
                            e.insert(i);
                            misses.push(i);
                        }
                    }
                }
            }
        }
        self.memo_hits
            .fetch_add((certs.len() - misses.len()) as u64, Ordering::Relaxed);
        self.memo_misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        for &i in &misses {
            let ok = certs[i].verify(registry);
            out[i] = self.record_verdict(certs[i].fingerprint(), ok);
        }
        for (i, first) in repeats {
            out[i] = out[first];
        }
        out
    }

    /// Distinct forged (verification-failing) records ever seen by this
    /// pool — each rejected fingerprint counts once, concurrency
    /// notwithstanding.
    pub fn forged_records(&self) -> u64 {
        self.forged_records.load(Ordering::Relaxed)
    }

    /// Verification requests answered from the verdict memo.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Verification requests that fell through to the HMAC check — one
    /// per *first sight* of a fingerprint, absent races.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses.load(Ordering::Relaxed)
    }
}

/// Wires a complete simulated system from a knowledge connectivity graph:
/// one registered key per vertex, and each vertex's PD record `⟨i, PDᵢ⟩ᵢ`
/// (`PDᵢ` is `i`'s out-neighbourhood) signed once, as Algorithm 1 line 1
/// has every process do.
///
/// # Example
///
/// ```
/// use cupft_detector::SystemSetup;
/// use cupft_graph::{process_set, DiGraph, ProcessId};
///
/// let g = DiGraph::from_edges([(1, 2), (2, 1)]);
/// let setup = SystemSetup::new(&g);
/// let key = setup.key_of(ProcessId::new(1)).unwrap();
/// let cert = setup.shared_certificate_for(ProcessId::new(1)).unwrap();
/// assert!(cert.verify(setup.registry()));
/// assert_eq!(cert.pd(), &process_set([2]));
/// assert_eq!(key.id(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SystemSetup {
    registry: KeyRegistry,
    /// Each vertex's signing key and its signed PD record.
    members: BTreeMap<ProcessId, (SigningKey, Arc<PdCertificate>)>,
    pool: Arc<CertPool>,
}

impl SystemSetup {
    /// Registers every vertex of `graph` and signs its PD.
    pub fn new(graph: &DiGraph) -> Self {
        let mut registry = KeyRegistry::new();
        let members = graph
            .vertices()
            .map(|v| {
                let key = registry.register(v.raw());
                let cert = Arc::new(PdCertificate::sign(&key, &graph.out_neighbors(v)));
                (v, (key, cert))
            })
            .collect();
        SystemSetup {
            registry,
            members,
            pool: Arc::new(CertPool::new()),
        }
    }

    /// The setup's shared verification memo (clones share it).
    pub fn pool(&self) -> &Arc<CertPool> {
        &self.pool
    }

    /// The shared key registry (simulated PKI).
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    /// The signing key of `id`, if registered.
    pub fn key_of(&self, id: ProcessId) -> Option<&SigningKey> {
        self.members.get(&id).map(|(key, _)| key)
    }

    /// `id`'s correctly-signed PD certificate. Every call, on every clone
    /// of the setup, returns the same allocation.
    pub fn shared_certificate_for(&self, id: ProcessId) -> Option<Arc<PdCertificate>> {
        self.members.get(&id).map(|(_, cert)| cert.clone())
    }

    /// All process IDs in the system.
    pub fn processes(&self) -> ProcessSet {
        self.members.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;
    use std::collections::HashSet;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn certificate_roundtrip() {
        let g = DiGraph::from_edges([(1, 2), (1, 3)]);
        let setup = SystemSetup::new(&g);
        let cert = setup.shared_certificate_for(p(1)).unwrap();
        assert_eq!(cert.author(), p(1));
        assert_eq!(cert.pd(), &process_set([2, 3]));
        assert!(cert.verify(setup.registry()));
    }

    #[test]
    fn forged_certificate_rejected() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        // Byzantine 2 forges a PD for correct process 1.
        let forged = PdCertificate::forge(p(1), &process_set([9]));
        assert!(!forged.verify(setup.registry()));
    }

    #[test]
    fn byzantine_own_pd_lies_verify() {
        // A Byzantine process may claim ANY pd for itself — that is
        // allowed by the model (signatures only pin authorship).
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let key2 = setup.key_of(p(2)).unwrap();
        let lying = PdCertificate::sign(key2, &process_set([1, 42, 99]));
        assert!(lying.verify(setup.registry()));
        assert_eq!(lying.pd(), &process_set([1, 42, 99]));
    }

    #[test]
    fn setup_covers_all_vertices() {
        let g = DiGraph::from_edges([(1, 2), (3, 4), (4, 3), (2, 3)]);
        let setup = SystemSetup::new(&g);
        assert_eq!(setup.processes(), process_set([1, 2, 3, 4]));
        for v in setup.processes() {
            assert!(setup.key_of(v).is_some());
            let cert = setup.shared_certificate_for(v).unwrap();
            assert!(cert.verify(setup.registry()));
            assert_eq!(cert.pd(), &g.out_neighbors(v));
        }
    }

    #[test]
    fn missing_process_has_no_key() {
        let g = DiGraph::from_edges([(1, 2)]);
        let setup = SystemSetup::new(&g);
        assert!(setup.key_of(p(9)).is_none());
        assert!(setup.shared_certificate_for(p(9)).is_none());
    }

    #[test]
    fn fingerprint_tracks_exact_contents() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let a = setup.shared_certificate_for(p(1)).unwrap();
        // Signing is deterministic: a re-signed record is equal.
        let b = PdCertificate::sign(setup.key_of(p(1)).unwrap(), a.pd());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(*a, b);
        // Different author ⇒ different fingerprint.
        let c = setup.shared_certificate_for(p(2)).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same author + PD but forged signature ⇒ different fingerprint
        // (the signature bytes are part of the record's identity).
        let forged = PdCertificate::forge(p(1), a.pd());
        assert_ne!(a.fingerprint(), forged.fingerprint());
        assert_ne!(*a, forged);
    }

    #[test]
    fn from_signed_roundtrips_fingerprint_and_verdict() {
        // A record rebuilt from its signed parts keeps its fingerprint
        // and its verdict.
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let cert = setup.shared_certificate_for(p(1)).unwrap();
        let rebuilt =
            PdCertificate::from_parts(cert.author(), cert.pd().clone(), *cert.signature());
        assert_eq!(rebuilt, *cert);
        assert_eq!(rebuilt.fingerprint(), cert.fingerprint());
        assert!(rebuilt.verify(setup.registry()));
        // Forged records survive the round-trip as forged.
        let forged = PdCertificate::forge(p(2), &process_set([9]));
        let forged2 =
            PdCertificate::from_parts(forged.author(), forged.pd().clone(), *forged.signature());
        assert_eq!(forged2.fingerprint(), forged.fingerprint());
        assert!(!forged2.verify(setup.registry()));
    }

    fn wire_copy(cert: &PdCertificate) -> PdCertificate {
        cupft_wire::decode_from_slice(&cupft_wire::encode_to_vec(cert)).expect("decodes")
    }

    #[test]
    // The `OnceLock` only ever caches a pure function of the record, so
    // the key's hash cannot change while it sits in the set.
    #[allow(clippy::mutable_key_type)]
    fn decoded_copies_equal_hash_and_verify_like_their_originals() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let signed = PdCertificate::sign(setup.key_of(p(1)).unwrap(), &process_set([2]));
        let forged = PdCertificate::forge(p(2), &process_set([9]));
        for original in [&signed, &forged] {
            assert!(!original.is_hashed(), "constructors do not hash");
            let copy = wire_copy(original);
            assert!(!copy.is_hashed(), "decode does not hash");
            assert_eq!(&copy, original);
            assert_eq!(copy.fingerprint(), original.fingerprint());
            let mut set = HashSet::new();
            assert!(set.insert(original.clone()));
            assert!(
                !set.insert(copy),
                "a decoded copy lands in its original's slot"
            );
        }
        assert!(wire_copy(&signed).verify(setup.registry()));
        assert!(!wire_copy(&forged).verify(setup.registry()));
    }

    #[test]
    fn equality_is_exact_whether_or_not_either_side_is_hashed() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let key = setup.key_of(p(1)).unwrap();
        let cert = PdCertificate::sign(key, &process_set([2]));
        // Same author, unequal records: a different PD, and the same PD
        // under a different signature.
        let other_pd = PdCertificate::sign(key, &process_set([2, 3]));
        let other_sig = PdCertificate::forge(p(1), &process_set([2]));
        let copy = |c: &PdCertificate, hashed: bool| {
            let c = wire_copy(c);
            if hashed {
                c.fingerprint();
            }
            assert_eq!(c.is_hashed(), hashed);
            c
        };
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(copy(&cert, x), copy(&cert, y));
            for other in [&other_pd, &other_sig] {
                assert_ne!(copy(&cert, x), copy(other, y));
                assert_ne!(copy(other, x), copy(&cert, y));
            }
        }
    }

    /// One certificate through the pool's only verification entry point.
    fn verify_one(pool: &CertPool, cert: &Arc<PdCertificate>, registry: &KeyRegistry) -> bool {
        pool.verify_batch(std::slice::from_ref(cert), registry)[0]
    }

    #[test]
    fn pool_memoizes_verdicts_and_counts_forgeries_once() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let pool = setup.pool();
        let good = setup.shared_certificate_for(p(1)).unwrap();
        let forged = Arc::new(PdCertificate::forge(p(2), &process_set([9])));
        assert_eq!(pool.verdict(good.fingerprint()), None);
        assert!(verify_one(pool, &good, setup.registry()));
        assert_eq!(pool.verdict(good.fingerprint()), Some(true));
        // Re-verifying hits the memo (same verdict, no recount).
        assert!(verify_one(pool, &good, setup.registry()));
        for _ in 0..3 {
            assert!(!verify_one(pool, &forged, setup.registry()));
        }
        assert_eq!(pool.forged_records(), 1);
        // A second distinct forgery counts separately.
        let other = Arc::new(PdCertificate::forge(p(1), &process_set([4, 5])));
        assert!(!verify_one(pool, &other, setup.registry()));
        assert_eq!(pool.forged_records(), 2);
    }

    #[test]
    fn pool_batch_verify_matches_serial() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 1)]);
        let setup = SystemSetup::new(&g);
        let pool = setup.pool();
        let mut bundle: Vec<Arc<PdCertificate>> = setup
            .processes()
            .into_iter()
            .map(|v| setup.shared_certificate_for(v).unwrap())
            .collect();
        bundle.push(Arc::new(PdCertificate::forge(p(3), &process_set([7]))));
        // Duplicate entry in the same bundle: still one verdict, counted once.
        bundle.push(bundle[3].clone());
        let verdicts = pool.verify_batch(&bundle, setup.registry());
        assert_eq!(verdicts, vec![true, true, true, false, false]);
        assert_eq!(pool.forged_records(), 1);
        // Warm run: all memo hits, identical verdicts.
        assert_eq!(pool.verify_batch(&bundle, setup.registry()), verdicts);
        assert_eq!(pool.forged_records(), 1);
    }

    #[test]
    fn pool_counts_memo_hits_and_misses() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let pool = setup.pool();
        let a = setup.shared_certificate_for(p(1)).unwrap();
        let b = setup.shared_certificate_for(p(2)).unwrap();
        assert_eq!((pool.memo_hits(), pool.memo_misses()), (0, 0));
        // Cold single verify: one miss; warm re-verify: one hit.
        assert!(verify_one(pool, &a, setup.registry()));
        assert!(verify_one(pool, &a, setup.registry()));
        assert_eq!((pool.memo_hits(), pool.memo_misses()), (1, 1));
        // Batch with one warm and one cold entry splits accordingly.
        let bundle = vec![a.clone(), b.clone()];
        assert_eq!(pool.verify_batch(&bundle, setup.registry()), [true, true]);
        assert_eq!((pool.memo_hits(), pool.memo_misses()), (2, 2));
        // Fully warm batch is all hits.
        assert_eq!(pool.verify_batch(&bundle, setup.registry()), [true, true]);
        assert_eq!((pool.memo_hits(), pool.memo_misses()), (4, 2));
    }

    #[test]
    fn repeated_record_in_one_bundle_is_verified_once() {
        let setup = SystemSetup::new(&DiGraph::from_edges([(1, 2), (2, 1)]));
        let good = setup.shared_certificate_for(p(1)).unwrap();
        let pool = CertPool::new();
        let bundle = vec![good.clone(), good.clone(), good];
        assert_eq!(pool.verify_batch(&bundle, setup.registry()), [true; 3]);
        assert_eq!((pool.memo_hits(), pool.memo_misses()), (2, 1));
        // The same bundle of one forgery: one HMAC, one forged record.
        let forged = Arc::new(PdCertificate::forge(p(2), &process_set([9])));
        let pool = CertPool::new();
        let bundle = vec![forged.clone(), forged.clone(), forged];
        assert_eq!(pool.verify_batch(&bundle, setup.registry()), [false; 3]);
        assert_eq!(pool.memo_misses(), 1);
        assert_eq!(pool.forged_records(), 1);
    }

    #[test]
    fn concurrent_verifies_count_each_forgery_once() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let forged = Arc::new(PdCertificate::forge(p(1), &process_set([8])));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let setup = &setup;
                let forged = &forged;
                s.spawn(move || {
                    for _ in 0..16 {
                        assert!(!verify_one(setup.pool(), forged, setup.registry()));
                    }
                });
            }
        });
        assert_eq!(setup.pool().forged_records(), 1);
    }

    #[test]
    fn shared_certificate_is_one_allocation_across_calls_and_clones() {
        let g = DiGraph::from_edges([(1, 2), (2, 1)]);
        let setup = SystemSetup::new(&g);
        let first = setup.shared_certificate_for(p(1)).unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &setup.shared_certificate_for(p(1)).unwrap()
        ));
        let clone = setup.clone();
        assert!(Arc::ptr_eq(
            &first,
            &clone.shared_certificate_for(p(1)).unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &first,
            &clone.shared_certificate_for(p(2)).unwrap()
        ));
        // Clones share the verdict memo too.
        assert!(Arc::ptr_eq(setup.pool(), clone.pool()));
    }
}
