// ReshardingCoordinator: verified live migration of a key range between
// shard slots (the dynamic-resharding extension of the sharding
// subsystem; the paper's lazy-trust principle, §IV, applied to shard
// handoff the way TransEdge routes verified reads across untrusted
// edges without blocking on the cloud).
//
// Both directions of the shard lifecycle run the same five-step state
// machine — runtime-agnostic, so the split→merge→re-split cycle behaves
// identically on the simulator, real threads, and socket deployments —
// SplitShard(source) carves a hot shard's range onto an idle slot,
// MergeShards(source) folds a cooled shard's slice back into its
// adjacent neighbour (freeing the slot for the next split):
//
//   1. fence    — new writes into the moving range are parked at the
//                 routing layer (reads keep flowing to the source).
//   2. drain    — wait for explicit quiescence: every write routed to
//                 the source before the fence has reached its Phase-I
//                 commit (per-shard in-flight gauges at the routing
//                 layer, acked through FenceRange's callback), AND the
//                 ReshardingConfig::drain_delay settle window has
//                 elapsed. The gauge makes the gate exact on any
//                 runtime: an edge closes a block as soon as its write
//                 queue drains (group commit), so no acked write sits
//                 buffered below the routing layer. The timer is only a
//                 minimum settle window on top.
//   3. export   — the source edge serves the moving range as one
//                 completeness-verified scan. A lying source (truncated
//                 or tampered export) surfaces here as SecurityViolation
//                 and aborts the migration — never as silently dropped
//                 keys.
//   4. import   — the destination edge (the idle slot on a split, the
//                 surviving neighbour on a merge) applies the exported
//                 pairs through its normal write path; its Phase I
//                 commit is the handoff point: the new ownership epoch
//                 installs, parked writes flush to the new owner, and
//                 reads on migrated keys serve immediately
//                 (Phase-I-style).
//   5. certify  — the cloud certifies the imported blocks lazily; the
//                 handoff finalizes when that certificate lands
//                 (MigrationReport::certified), off the critical path.
//                 Certification is tracked per migration sequence, so a
//                 certificate landing after a later migration has
//                 already applied still finalizes the *right* report.
//
// The coordinator is transport-agnostic: it drives a ShardMigrationHost
// (implemented by the api-layer ShardRouter) and mutates the shared
// OwnershipTable; it never talks to nodes directly.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/partitioner.h"
#include "lsmerkle/kv.h"
#include "runtime/runtime.h"

namespace wedge {

struct ReshardingConfig {
  /// Minimum settle window between fencing the moving range and the
  /// export scan. The export additionally waits for explicit source
  /// quiescence (FenceRange's callback: every pre-fence write reached
  /// its Phase-I commit), which alone makes the export complete.
  SimTime drain_delay = 500 * kMillisecond;
  /// Ceiling on one migration attempt, measured from the
  /// fence. A source or destination edge that crashes mid-migration
  /// leaves the export scan or the import write hanging forever; when
  /// the new epoch has not installed by this deadline the attempt aborts
  /// cleanly — the fence lifts, parked writes flush to the unchanged
  /// owners, and ownership stays exactly as it was (migration is
  /// copy-based: the source keeps its data until the epoch installs, so
  /// an abort never loses keys). 0 disables the watchdog.
  SimTime migration_timeout = 30 * kSecond;
};

/// The two directions of the shard lifecycle.
enum class MigrationKind : uint8_t {
  kSplit = 0,
  kMerge = 1,
};

inline const char* MigrationKindToString(MigrationKind k) {
  return k == MigrationKind::kMerge ? "merge" : "split";
}

/// Outcome of one applied migration: what moved where, and when each
/// trust level was reached. For a split, `source` is the shard that
/// shrank and `dest` the formerly idle slot; for a merge, `source` is
/// the absorbed (now idle) slot and `dest` the surviving neighbour.
struct MigrationReport {
  MigrationKind kind = MigrationKind::kSplit;
  /// Ownership epoch the migration installed.
  OwnershipEpoch epoch = 0;
  size_t source = 0;
  size_t dest = 0;
  /// The migrated key range [moved_lo, moved_hi] (now owned by dest).
  Key moved_lo = 0;
  Key moved_hi = 0;
  /// Pairs exported from the source and applied at the destination.
  size_t pairs_moved = 0;
  /// When the new epoch went live (destination Phase I commit): reads on
  /// migrated keys serve from here on.
  SimTime applied_at = 0;
  /// When the cloud's lazy handoff certificate landed (destination
  /// Phase II). 0 / false until then.
  SimTime certified_at = 0;
  bool certified = false;
  /// True when the lazy certification *failed* after the epoch went
  /// live (a certified=false report is "failed", not "still pending",
  /// once this is set) — the migrated range's trust chain needs
  /// attention.
  bool certify_failed = false;
};

/// Historical name: the report type predates the merge path.
using SplitReport = MigrationReport;

/// The data-plane and routing hooks the coordinator drives; implemented
/// by the api-layer ShardRouter. All calls are asynchronous over the
/// simulation.
class ShardMigrationHost {
 public:
  using ExportCb =
      std::function<void(const Status&, std::vector<KvPair>, SimTime)>;
  using PhaseCb = std::function<void(const Status&, SimTime)>;

  virtual ~ShardMigrationHost() = default;

  /// Completeness-verified scan of [lo, hi] against `shard`'s edge. A
  /// tampering or truncating source must fail as SecurityViolation.
  virtual void ExportRange(size_t shard, Key lo, Key hi, ExportCb cb) = 0;

  /// Applies `pairs` to `shard`'s tree through its normal write path:
  /// `applied` at Phase I (the handoff point), `certified` at Phase II
  /// (the lazy handoff certificate).
  virtual void ImportPairs(size_t shard, std::vector<KvPair> pairs,
                           PhaseCb applied, PhaseCb certified) = 0;

  /// Parks new writes whose keys fall in [lo, hi]; reads keep flowing.
  /// `quiesced` fires once every write already routed to shard `source`
  /// at fence time has reached its Phase-I commit (or failed fast) —
  /// immediately, when none are in flight. May fire on any thread; the
  /// coordinator re-posts onto its own executor.
  virtual void FenceRange(size_t source, Key lo, Key hi,
                          std::function<void()> quiesced) = 0;

  /// Releases the fence and flushes parked writes, re-routed under the
  /// then-current ownership epoch.
  virtual void LiftFence() = 0;

  /// Runs right after the new epoch installs, fence still up: the host
  /// invalidates per-client verifier-cache entries covering the moved
  /// range (held by the split source's / merge's absorbed shard's
  /// clients) and re-sizes per-shard caches to the new ownership.
  virtual void OnEpochInstalled(const MigrationReport& report) = 0;
};

class ReshardingCoordinator {
 public:
  /// (status, report, time). On failure the report is the default object
  /// and ownership is unchanged.
  using SplitCb =
      std::function<void(const Status&, const MigrationReport&, SimTime)>;

  struct Stats {
    /// Migrations that actually started (passed pre-flight checks and
    /// fenced the moving range): started = applied + failed + in flight,
    /// per kind. Requests rejected up front count nowhere.
    uint64_t splits_started = 0;
    /// Splits whose epoch installed (handoff live at Phase I).
    uint64_t splits_applied = 0;
    /// Splits whose lazy handoff certificate landed (Phase II) —
    /// tracked per migration sequence, so back-to-back migrations each
    /// certify their own report.
    uint64_t splits_certified = 0;
    /// Migrations aborted mid-flight (lying source, failed import).
    uint64_t splits_failed = 0;
    /// The merge-direction counterparts.
    uint64_t merges_started = 0;
    uint64_t merges_applied = 0;
    uint64_t merges_certified = 0;
    uint64_t merges_failed = 0;
    /// Applied migrations whose lazy certification later FAILED (the
    /// epoch is live but the handoff's trust chain did not close).
    uint64_t certify_failures = 0;
    uint64_t pairs_migrated = 0;
  };

  ReshardingCoordinator(Executor* exec,
                        std::shared_ptr<OwnershipTable> table,
                        ShardMigrationHost* host, ReshardingConfig config = {});

  /// Splits `source`'s widest slice at its midpoint, migrating the upper
  /// half to the first idle shard slot. Exactly one migration runs at a
  /// time; `done` fires when the new epoch is live (or on the failure
  /// that aborted the split, with ownership unchanged).
  void SplitShard(size_t source, SplitCb done);

  /// The inverse migration: folds `source`'s widest slice into the
  /// adjacent surviving shard (OwnershipTable::MergePlanFor), through
  /// the same fence → drain → verified export → import → epoch-install
  /// machinery. When the merged slice was the source's last, the slot
  /// returns to the idle pool for the next split. Same single-migration
  /// and failure contract as SplitShard.
  void MergeShards(size_t source, SplitCb done);

  bool migration_in_flight() const { return in_flight_; }
  /// Sim-only live reference; concurrent readers use stats_snapshot().
  const Stats& stats() const { return stats_; }
  /// Value-copy of the migration counters under the stats lock — safe to
  /// read (Store::stats()) from any thread while the coordinator runs on
  /// a ThreadedRuntime control worker.
  Stats stats_snapshot() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  /// The most recent applied migration (certified flips asynchronously
  /// when its handoff certificate lands). Default object before the
  /// first.
  const MigrationReport& last_split() const {
    return applied_.empty() ? none_ : applied_.rbegin()->second;
  }
  /// Applied migrations by sequence number, each with its own lazy
  /// certification state — the observable trust chain of the shard
  /// lifecycle (aborted migrations never appear here). Bounded: once
  /// more than kMaxAppliedReports accumulate, the oldest *finalized*
  /// (certified or certify-failed) reports are pruned, so an
  /// auto-balanced store cycling split→merge forever holds a window,
  /// not an unbounded log; a still-pending certificate is never pruned
  /// out from under its callback.
  const std::map<uint64_t, MigrationReport>& applied_migrations() const {
    return applied_;
  }
  static constexpr size_t kMaxAppliedReports = 64;

 private:
  /// Runs the shared fence → drain → export → import → install machinery
  /// for a migration of [lo, hi] from `source` to `dest`; `install`
  /// mutates the ownership table at the handoff point.
  void RunMigration(MigrationKind kind, size_t source, size_t dest, Key lo,
                    Key hi,
                    std::function<Result<OwnershipEpoch>()> install,
                    SplitCb done);
  void Abort(MigrationKind kind, const Status& why, SimTime now,
             const SplitCb& done);
  void RecordCertificate(uint64_t seq, const Status& status, SimTime at);

  Executor* exec_;
  std::shared_ptr<OwnershipTable> table_;
  ShardMigrationHost* host_;
  ReshardingConfig config_;

  bool in_flight_ = false;
  /// Monotonic id per migration attempt; applied migrations keep their
  /// report in applied_ keyed by it, so a lazy certificate landing after
  /// later migrations have superseded the attempt still finalizes the
  /// right report (and the right counter) instead of being dropped.
  uint64_t split_seq_ = 0;
  std::map<uint64_t, MigrationReport> applied_;
  MigrationReport none_;
  /// Counter mutations happen on the control executor; the lock exists
  /// for cross-thread snapshot reads (stats_snapshot).
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace wedge
