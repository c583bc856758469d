//! # sorl-shard — the fingerprint-sharded tuning fleet
//!
//! One `sorl-serve` process saturates at one worker's scoring throughput
//! and loses its decision cache on restart. This crate is the next layer
//! on the path to fleet-scale serving: a [`ShardRouter`] that spreads
//! queries over N shards and keeps their caches warm through restarts and
//! topology changes.
//!
//! ```text
//!                       ShardRouter
//!        key = InstanceKey::fingerprint() ── rendezvous hash ──┐
//!                                                              ▼
//!            ┌──────────────┬──────────────┬──────────────┐
//!            │   shard A    │   shard B    │   shard C    │   (ShardTransport;
//!            │ TuneService  │ TuneService  │ TuneService  │    LocalShard in-process,
//!            │ + decision   │ + decision   │ + decision   │    TcpShard cross-host)
//!            │   cache      │   cache      │   cache      │
//!            └──────────────┴──────────────┴──────────────┘
//!              │ snapshot/restore (versioned by ranker fingerprint)
//!              ▼
//!            disk — a restarted shard starts warm
//! ```
//!
//! Three design decisions carry the crate:
//!
//! * **Routing is pure data** ([`Topology`]): ownership is rendezvous
//!   hashing of the key fingerprint over the shard id set — deterministic
//!   across processes and hosts (both hashes are pinned), minimally
//!   disruptive under growth (only the new shard's slice moves; the
//!   property tests pin the remap fraction below `2/N`).
//! * **Transports are a trait** ([`ShardTransport`]): the router speaks
//!   plain-data requests and [`CacheSlice`] filters, never closures, so
//!   the in-process [`LocalShard`] and the cross-host [`TcpShard`] slot in
//!   interchangeably without touching routing or warm-up logic. `TcpShard`
//!   speaks a length-prefixed, versioned wire protocol ([`wire`]) to a
//!   [`ShardServer`] — in this process, another process (the `sorl-shardd`
//!   daemon binary), or another host — with snapshots streamed as
//!   checksummed chunks so torn transfers are rejected deterministically.
//! * **Decisions are durable and shippable** (`sorl-serve`'s
//!   [`CacheSnapshot`](sorl_serve::CacheSnapshot)): topology changes move
//!   exactly the affected cache slices between shards
//!   ([`ShardRouter::add_shard`] / [`remove_shard`](ShardRouter::remove_shard)),
//!   and a killed shard restarts warm from its last snapshot
//!   ([`LocalShard::spawn_warm`]) — both guarded by the ranker
//!   fingerprint, so decisions never outlive the model that computed them.
//!
//! Observability spans the fleet: [`ShardRouter::fleet_stats`] merges
//! counters, and [`ShardRouter::fleet_trace`] sweeps every shard's flight
//! recorder and slow-request exemplars over the wire
//! ([`wire::TraceQuery`] → [`wire::TraceDumpReply`]), assembling one
//! cross-process waterfall per trace ([`FleetTrace::assemble`]). The
//! `sorl-trace` binary renders it from the command line.
//!
//! See `examples/shard_demo.rs` for the full lifecycle: route over three
//! shards, kill one, restart it warm, and watch repeat queries stay cache
//! hits.

pub mod router;
pub mod routing;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use router::{FleetStats, FleetTrace, ShardError, ShardRouter, WarmupReport};
pub use routing::{rendezvous_owner, rendezvous_weight, shard_seed, CacheSlice, Topology};
/// The deterministic seeded ranker `sorl-shardd --synthetic-ranker SEED`
/// serves (see [`sorl::synthetic_ranker`]).
pub use sorl::synthetic_ranker;
pub use tcp::{LinkStats, ShardServer, ShardServerConfig, TcpShard};
pub use transport::{LocalShard, ShardTransport};
pub use wire::{TraceDumpReply, TraceQuery};
