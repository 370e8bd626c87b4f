// Configuration knobs for the WedgeChain nodes.

#pragma once

#include "common/types.h"
#include "lsmerkle/lsmerkle_tree.h"
#include "lsmerkle/verifier_cache.h"

namespace wedge {

/// Bounded exponential backoff for retried protocol messages. The first
/// retry fires `initial_backoff` after the original send; each further
/// retry multiplies the wait, capped at `max_backoff`.
struct RetryPolicy {
  bool enabled = true;
  SimTime initial_backoff = 200 * kMillisecond;
  double multiplier = 2.0;
  SimTime max_backoff = 5 * kSecond;
  /// Give up after this many retries (0 = keep trying forever).
  uint32_t max_attempts = 0;
};

struct EdgeConfig {
  /// Buffer-full threshold: entries per block (the paper's batch size).
  /// A partially filled block closes as soon as no further write request
  /// is queued at the edge (group commit), so a block holds what arrived
  /// together, up to this many entries.
  size_t ops_per_block = 100;
  /// LSMerkle structure; the paper's evaluation uses thresholds
  /// {10, 10, 100, 1000} (§VI).
  LsmConfig lsm;
  /// Issue a no-op merge when no merge has refreshed the signed global
  /// root for this long (0 disables). Implements the freshness fix of
  /// §V-D for idle periods.
  SimTime noop_merge_period = 0;
  /// Ablation switch: ship the full block alongside the digest in
  /// block-certify messages (i.e. disable data-free certification).
  bool ship_full_blocks = false;
  /// In-memory block bodies retained in the log (0 = unlimited). Evicted
  /// blocks emulate spill to cold storage.
  size_t log_retention_blocks = 0;
  /// Repair missing blocks from the cloud's backup: a read of an evicted
  /// or crash-lost block triggers a backup fetch instead of a negative
  /// response. Requires the cloud to run with backup_blocks.
  bool backup_fetch = false;
  /// Re-send block-certify messages whose proof has not arrived within
  /// the current backoff, with bounded exponential backoff; younger
  /// certifies are left alone. This is what drains the Phase II
  /// backlog after a cloud outage heals: the cloud treats a re-certify
  /// of an already-known digest as an idempotent duplicate and resends
  /// the proof. The retry timer is armed only while uncertified blocks
  /// exist, so an idle edge schedules nothing.
  RetryPolicy certify_retry;
};

/// Fault-injection switches for edge misbehaviour (paper §IV-E). All off
/// means an honest edge. Tests and the malicious_edge example flip these
/// to prove each attack is detected and punished.
struct EdgeMisbehavior {
  /// Send `victim` an add-response whose block content differs from what
  /// is logged/certified (inconsistent views — equivocation).
  bool equivocate_to_victim = false;
  NodeId victim = kInvalidNodeId;
  /// Answer read requests with "block not available" even when it exists
  /// (omission attack).
  bool omit_reads = false;
  /// Never send block-certify messages (Phase II never completes; clients
  /// dispute after their proof timeout).
  bool drop_certifies = false;
  /// Certify a digest of tampered content instead of the logged block.
  bool certify_tampered = false;
  /// Serve gets from the pre-L0 snapshot, hiding recent writes (staleness;
  /// bounded by the freshness window).
  bool serve_stale_gets = false;
  /// Lie about the value in get responses (detected by proof checks).
  bool tamper_get_value = false;
  /// Withhold the last page of each level run in scan responses
  /// (detected by the scan coverage/adjacency checks).
  bool truncate_scans = false;
  /// Serve gets/scans from a previously captured snapshot (see
  /// EdgeNode::CaptureRollbackSnapshot) — an older-but-valid view whose
  /// proofs all verify. Detected only by clients tracking snapshot
  /// epochs (ClientConfig::monotonic_snapshots, §V-D's session
  /// consistency alternative).
  bool rollback_snapshot = false;
};

struct CloudConfig {
  /// Broadcast signed (edge, log size) gossip to registered clients at
  /// this period (0 disables). §IV-E omission mitigation.
  SimTime gossip_period = 0;
  /// Page split size used in merges; must match the edges' LSMerkle
  /// target_page_pairs.
  size_t target_page_pairs = 100;
  /// Keep full backup copies of edge blocks the cloud happens to see
  /// in full (merge requests; full-block certifies). Powers the
  /// backup-fetch / read-repair path (§II-A: the cloud holds
  /// "potentially a backup of a subset of the data on edge nodes").
  bool backup_blocks = false;
};

struct ClientConfig {
  /// After Phase I, how long to wait for the block-proof before raising a
  /// dispute with the cloud. Should comfortably exceed the edge-cloud RTT
  /// plus certification costs.
  SimTime proof_timeout = 2 * kSecond;
  /// Reject get snapshots older than this (§V-D); negative disables.
  SimTime freshness_window = -1;
  /// Client-side session consistency (§V-D's alternative to the
  /// freshness window): remember the highest certified epoch observed
  /// and reject get/scan responses anchored to an older snapshot. Costs
  /// only one Epoch of client state; catches rollbacks the freshness
  /// window misses when the old root is still inside the window.
  bool monotonic_snapshots = false;
  /// Memoize verified proof material (root/block certificates, level-part
  /// proofs) across reads in a per-client VerifierCache
  /// (lsmerkle/verifier_cache.h). Sound — cache keys bind content, so a
  /// lying edge can only miss — and a large CPU win on read-heavy
  /// workloads. Off reproduces the paper's verify-every-response cost.
  bool verify_cache = true;
  /// Capacity of the verifier cache. On a sharded store this is the
  /// per-shard sizing *unit*: the routing layer scales each physical
  /// client's cache by the key-span its shard owns under the current
  /// ownership epoch (total budget per logical client = unit ×
  /// capacity), so idle shard slots hold almost nothing and a split
  /// hands the moved range's budget to the destination along with the
  /// range.
  VerifierCache::Limits verify_cache_limits;
};

}  // namespace wedge
