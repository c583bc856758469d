//! Deterministic key→shard routing: rendezvous (highest-random-weight)
//! hashing over [`InstanceKey::fingerprint`]s.
//!
//! Rendezvous hashing gives exactly the two properties a tuning fleet
//! needs from its router:
//!
//! * **Determinism** — ownership is a pure function of the key fingerprint
//!   and the set of shard ids. Every router instance, on every host, in
//!   every process, computes the same owner; shard insertion order is
//!   irrelevant (the owner is an argmax over a *set*).
//! * **Minimal disruption** — when a shard joins, the only keys that move
//!   are the ones the new shard now wins (an expected `1/(N+1)` fraction);
//!   when a shard leaves, only *its* keys move, redistributed evenly over
//!   the survivors. No other key changes owner, so warm decision caches
//!   stay warm.
//!
//! The per-(shard, key) weight is a [splitmix64-style] finalizer over the
//! shard id's pinned FNV-1a seed combined with the key fingerprint — both
//! components are stable across builds and hosts (see
//! [`stencil_model::fingerprint`]), so the routing table itself is a
//! distributed invariant, never a negotiation.
//!
//! [splitmix64-style]: https://prng.di.unimi.it/splitmix64.c

use serde::{Deserialize, Serialize};
use stencil_model::fingerprint::Fnv1a;
use stencil_model::InstanceKey;

/// The pinned routing seed of a shard id: FNV-1a over its UTF-8 bytes.
pub fn shard_seed(id: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(id.as_bytes());
    h.finish()
}

/// The rendezvous weight of `(shard, key)`: a strong 64-bit mix of the
/// shard's seed and the key fingerprint. The owner of a key is the shard
/// with the highest weight (ties broken by shard id, which in practice
/// never fires — a tie needs a 64-bit collision).
pub fn rendezvous_weight(shard_seed: u64, key_fingerprint: u64) -> u64 {
    let mut z = shard_seed ^ key_fingerprint.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// *The* rendezvous argmax of the workspace: the index of the owning
/// shard among `(id, seed)` pairs (seeds from [`shard_seed`]), or `None`
/// for an empty iterator. Highest [`rendezvous_weight`] wins; ties break
/// towards the smaller id. Every routing surface — [`Topology`], the
/// router's hot path — goes through this one function, so the tie-break
/// rule cannot drift between call sites (a drift would mis-route only on
/// 64-bit weight ties, which no test would ever catch).
pub fn rendezvous_owner<'a>(
    shards: impl IntoIterator<Item = (&'a str, u64)>,
    key_fingerprint: u64,
) -> Option<usize> {
    let mut best: Option<(usize, u64, &str)> = None;
    for (i, (id, seed)) in shards.into_iter().enumerate() {
        let w = rendezvous_weight(seed, key_fingerprint);
        let better = match &best {
            None => true,
            Some((_, bw, bid)) => w > *bw || (w == *bw && id < *bid),
        };
        if better {
            best = Some((i, w, id));
        }
    }
    best.map(|(i, _, _)| i)
}

/// A set of shard ids — the pure, serializable routing state.
///
/// A `Topology` answers exactly one question: *which shard owns this key
/// fingerprint?* It is what two processes must agree on to route
/// identically, and being plain data it can be shipped, logged and
/// embedded in a [`CacheSlice`] for cross-host cache handoffs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    shards: Vec<String>,
}

impl Topology {
    /// A topology over the given shard ids. Duplicates are dropped; order
    /// is irrelevant to routing (and normalized away).
    pub fn new(ids: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let mut shards: Vec<String> = ids.into_iter().map(Into::into).collect();
        shards.sort();
        shards.dedup();
        Topology { shards }
    }

    /// The shard ids, sorted.
    pub fn shard_ids(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the topology has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Whether `id` is part of the topology.
    pub fn contains(&self, id: &str) -> bool {
        self.shards.iter().any(|s| s == id)
    }

    /// A topology with `id` added (no-op when already present).
    pub fn with(&self, id: &str) -> Topology {
        let mut t = self.clone();
        if !t.contains(id) {
            t.shards.push(id.to_string());
            t.shards.sort();
        }
        t
    }

    /// A topology with `id` removed (no-op when absent).
    pub fn without(&self, id: &str) -> Topology {
        Topology { shards: self.shards.iter().filter(|s| *s != id).cloned().collect() }
    }

    /// The owning shard of a key fingerprint (`None` on an empty
    /// topology). Pure rendezvous ([`rendezvous_owner`]): max weight,
    /// ties towards the smaller id.
    pub fn owner_of_fingerprint(&self, key_fingerprint: u64) -> Option<&str> {
        rendezvous_owner(self.shards.iter().map(|s| (s.as_str(), shard_seed(s))), key_fingerprint)
            .and_then(|i| self.shards.get(i))
            .map(String::as_str)
    }

    /// The owning shard of an instance key.
    pub fn owner_of(&self, key: &InstanceKey) -> Option<&str> {
        self.owner_of_fingerprint(key.fingerprint())
    }

    /// A precomputed routing table for bulk ownership checks: the id
    /// seeds are hashed once here instead of once per key, which matters
    /// when filtering whole caches (warm-up shipping evaluates a slice
    /// predicate per cached entry).
    pub fn routing_table(&self) -> RoutingTable {
        RoutingTable {
            seeds: self.shards.iter().map(|s| shard_seed(s)).collect(),
            ids: self.shards.clone(),
        }
    }
}

/// A [`Topology`] with its per-shard seeds precomputed — same ownership
/// answers ([`rendezvous_owner`]), amortized hashing.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    ids: Vec<String>,
    seeds: Vec<u64>,
}

impl RoutingTable {
    /// The owning shard of a key fingerprint (`None` on an empty table).
    pub fn owner_of_fingerprint(&self, key_fingerprint: u64) -> Option<&str> {
        rendezvous_owner(
            self.ids.iter().map(String::as_str).zip(self.seeds.iter().copied()),
            key_fingerprint,
        )
        .and_then(|i| self.ids.get(i))
        .map(String::as_str)
    }
}

/// A serializable description of one shard's key range under a topology:
/// *the fingerprints `owner` owns*. This — not a closure — is the filter
/// shipped across a [`ShardTransport`](crate::ShardTransport) boundary
/// when caches are exported or extracted, so the cross-host
/// [`TcpShard`](crate::TcpShard) forwards it as plain data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSlice {
    /// The topology the ownership is evaluated under.
    pub topology: Topology,
    /// The shard whose keys the slice selects.
    pub owner: String,
}

impl CacheSlice {
    /// The slice of keys `owner` owns under `topology`.
    pub fn owned_by(topology: Topology, owner: impl Into<String>) -> Self {
        CacheSlice { topology, owner: owner.into() }
    }

    /// A slice matching *every* key (the full-cache handoff of a
    /// departing shard): a single-shard topology owns everything.
    pub fn everything(owner: impl Into<String>) -> Self {
        let owner = owner.into();
        CacheSlice { topology: Topology::new([owner.clone()]), owner }
    }

    /// Whether the slice contains a key fingerprint.
    pub fn matches(&self, key_fingerprint: u64) -> bool {
        self.topology.owner_of_fingerprint(key_fingerprint) == Some(self.owner.as_str())
    }

    /// A standalone bulk matcher: behaves exactly like
    /// [`matches`](Self::matches) but with the topology's seeds hashed
    /// once up front — use it when filtering many keys (cache exports
    /// evaluate the predicate once per resident entry).
    pub fn into_matcher(self) -> impl Fn(u64) -> bool + Send {
        let table = self.topology.routing_table();
        let owner = self.owner;
        move |fp| table.owner_of_fingerprint(fp) == Some(owner.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spread of synthetic key fingerprints (splitmix of the index, so
    /// they behave like real hash values).
    fn keys(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| rendezvous_weight(0x9e37_79b9, i)).collect()
    }

    #[test]
    fn ownership_ignores_shard_insertion_order() {
        let a = Topology::new(["s0", "s1", "s2"]);
        let b = Topology::new(["s2", "s0", "s1"]);
        assert_eq!(a, b, "topologies are sets");
        for fp in keys(500) {
            assert_eq!(a.owner_of_fingerprint(fp), b.owner_of_fingerprint(fp));
        }
    }

    #[test]
    fn empty_topology_owns_nothing() {
        let t = Topology::new(Vec::<String>::new());
        assert!(t.is_empty());
        assert_eq!(t.owner_of_fingerprint(42), None);
    }

    #[test]
    fn single_shard_owns_everything() {
        let t = Topology::new(["only"]);
        for fp in keys(100) {
            assert_eq!(t.owner_of_fingerprint(fp), Some("only"));
        }
        assert!(CacheSlice::everything("only").matches(12345));
    }

    #[test]
    fn duplicates_are_dropped() {
        let t = Topology::new(["a", "a", "b"]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn load_spreads_roughly_evenly() {
        let t = Topology::new(["s0", "s1", "s2", "s3"]);
        let mut counts = std::collections::HashMap::new();
        let n = 4000;
        for fp in keys(n) {
            *counts.entry(t.owner_of_fingerprint(fp).unwrap().to_string()).or_insert(0usize) += 1;
        }
        for (id, c) in &counts {
            let share = *c as f64 / n as f64;
            assert!((0.15..=0.35).contains(&share), "{id} owns {share:.3} of keys");
        }
    }

    #[test]
    fn growing_the_topology_only_moves_keys_to_the_new_shard() {
        let old = Topology::new(["s0", "s1", "s2"]);
        let new = old.with("s3");
        for fp in keys(2000) {
            let before = old.owner_of_fingerprint(fp).unwrap();
            let after = new.owner_of_fingerprint(fp).unwrap();
            assert!(after == before || after == "s3", "{fp:#x}: {before} -> {after}");
        }
    }

    #[test]
    fn shrinking_the_topology_only_moves_the_departing_shards_keys() {
        let old = Topology::new(["s0", "s1", "s2", "s3"]);
        let new = old.without("s1");
        for fp in keys(2000) {
            let before = old.owner_of_fingerprint(fp).unwrap();
            let after = new.owner_of_fingerprint(fp).unwrap();
            if before == "s1" {
                assert_ne!(after, "s1");
            } else {
                assert_eq!(after, before, "{fp:#x} moved without its owner departing");
            }
        }
    }

    #[test]
    fn cache_slice_matches_exactly_the_owned_keys() {
        let t = Topology::new(["s0", "s1", "s2"]);
        let slice = CacheSlice::owned_by(t.clone(), "s1");
        for fp in keys(1000) {
            assert_eq!(slice.matches(fp), t.owner_of_fingerprint(fp) == Some("s1"));
        }
    }

    #[test]
    fn slices_of_a_topology_partition_the_key_space() {
        let t = Topology::new(["s0", "s1", "s2"]);
        let slices: Vec<CacheSlice> =
            t.shard_ids().iter().map(|id| CacheSlice::owned_by(t.clone(), id.clone())).collect();
        for fp in keys(1000) {
            let owners = slices.iter().filter(|s| s.matches(fp)).count();
            assert_eq!(owners, 1, "{fp:#x} owned by {owners} shards");
        }
    }

    #[test]
    fn weights_and_seeds_are_pinned() {
        // Routing must never drift across releases: a changed weight
        // function would silently re-shuffle every deployed fleet.
        assert_eq!(shard_seed(""), 0xcbf2_9ce4_8422_2325, "FNV offset basis");
        let w = rendezvous_weight(shard_seed("shard-0"), 0x2fea_583f_93a3_3344);
        assert_eq!(w, PINNED_WEIGHT);
    }

    // Computed once from the pinned seed/mix; a change here is a routing
    // break, not a refactor.
    const PINNED_WEIGHT: u64 = 0xd747_0201_4292_9849;

    #[test]
    fn topology_serializes_for_cross_process_agreement() {
        let t = Topology::new(["a", "b"]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        let s = CacheSlice::owned_by(t, "a");
        let json = serde_json::to_string(&s).unwrap();
        let back: CacheSlice = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
