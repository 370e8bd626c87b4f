// Workload specification and run metrics shared by all drivers.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "lsmerkle/kv.h"

namespace wedge {

/// A mutable hotspot shared by every driver of a run: `hot_fraction` of
/// the traffic draws uniformly from [lo, hi], the rest from the whole
/// key space. The bench (or a mid-run hook) moves the range while the
/// drivers are live — the shifting-hotspot adversary the autonomous
/// shard lifecycle exists for (fig10).
struct HotRange {
  Key lo = 0;
  Key hi = 0;

  void MoveTo(Key new_lo, Key new_hi) {
    lo = new_lo;
    hi = new_hi;
  }
};

struct WorkloadSpec {
  /// Fraction of operations that are interactive reads; writes are
  /// buffered into batches (paper §VI-B: "writes are buffered, but reads
  /// are interactive").
  double read_fraction = 0.0;
  /// Operations per write batch (the paper's batch/block size).
  size_t ops_per_batch = 100;
  /// Bytes per value (paper: 100 B).
  size_t value_size = 100;
  /// Key space size (paper: 100,000 per partition; §VI-E varies it).
  uint64_t key_space = 100000;
  /// Zipfian skew for key selection; 0 = uniform.
  double zipf_theta = 0.0;
  /// Sharded workloads only: concentrate this fraction of the traffic on
  /// `hot_shard` (HotShardKeyGen), the rest uniform over the cold shards.
  /// 0 = balanced (no hot-shard skew). Ignored on unsharded stores.
  double hot_shard_fraction = 0.0;
  size_t hot_shard = 0;
  /// Key-range hotspot (ownership-agnostic, unlike hot_shard): with a
  /// range set and hot_range_fraction > 0, that fraction of the traffic
  /// draws uniformly from [hot_range->lo, hot_range->hi], the rest from
  /// the whole key space. The range is shared and mutable, so the run
  /// can shift the hotspot mid-flight. Takes precedence over the
  /// hot-shard skew when both are set.
  std::shared_ptr<HotRange> hot_range;
  double hot_range_fraction = 0.0;
  /// Sharded writer ergonomics: the router splits every batch per owning
  /// shard, so a fixed batch split n ways under-fills every edge's block
  /// (n times the blocks, certifies and merges). With this on
  /// (default), the driver treats ops_per_batch as *per shard* and
  /// buffers ops_per_batch × shards per flush, so split sub-batches
  /// still fill blocks. No effect on unsharded stores.
  bool scale_batch_by_shards = true;
  /// Per-driver pacing: with a positive interval each logical operation
  /// has an *intended* start time (one every op_interval), the driver
  /// waits when ahead of schedule, and — the coordinated-omission fix —
  /// when the loop falls behind (a slow op backlogs the lane) the next
  /// ops issue immediately but their latencies are measured from the
  /// intended start, not the actual send. 0 (default) keeps the pure
  /// closed loop: back-to-back issue, latency from actual send.
  SimTime op_interval = 0;
};

/// Per-edge load/latency breakdown, recorded by the harness when the
/// store is sharded: which edge served each read (by key ownership) and
/// how much value payload each edge absorbed/produced.
struct EdgeLoadMetrics {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  /// Value bytes routed to this edge in committed write batches.
  uint64_t bytes_written = 0;
  /// Value bytes returned by this edge's reads.
  uint64_t bytes_read = 0;
  Histogram read_latency;
};

struct RunMetrics {
  /// Commit latency per write batch: Phase I for WedgeChain, the
  /// synchronous commit for the baselines. Microseconds.
  Histogram write_latency;
  /// Phase II latency per write batch (WedgeChain only).
  Histogram phase2_latency;
  /// Interactive read/get latency. Microseconds.
  Histogram read_latency;

  uint64_t write_ops = 0;
  uint64_t read_ops = 0;
  SimTime measured_duration = 0;

  /// Optional event mark inside the measure window (absolute virtual
  /// time; 0 = none): reads completing before/after it are counted
  /// separately, so an experiment with a mid-run action (fig9's
  /// SplitShard) can compare the post-event window against a control
  /// run's same window.
  SimTime mark = 0;
  uint64_t reads_pre_mark = 0;
  uint64_t reads_post_mark = 0;

  /// One entry per edge when the harness runs sharded (empty otherwise).
  std::vector<EdgeLoadMetrics> per_edge;

  uint64_t total_ops() const { return write_ops + read_ops; }
  /// Operations per second over the measured window.
  double Throughput() const {
    if (measured_duration <= 0) return 0;
    return static_cast<double>(total_ops()) /
           (static_cast<double>(measured_duration) / kSecond);
  }
};

}  // namespace wedge
