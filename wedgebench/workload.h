// Workload definitions and seeded input generation for the wall-clock
// benchmark. Everything the store sees is produced here from the seed:
// the preload, the arrival schedule, the keys and the values.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/slice.h"
#include "lsmerkle/kv.h"
#include "lsmerkle/verifier_cache.h"

namespace wedgebench {

using wedge::Bytes;
using wedge::Key;

enum class OpKind : uint8_t { kPut, kGet, kScan };

inline const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kPut:
      return "put";
    case OpKind::kGet:
      return "get";
    case OpKind::kScan:
      return "scan";
  }
  return "?";
}

/// One workload: a traffic mix offered open-loop as Poisson arrivals.
/// The window starts with a phase at a fixed rate, where latency and
/// throughput are measured; a workload with ramps then spends the rest of
/// the window on `ramps` equal linear ramps, each stopped once a backlog
/// builds, to find the highest rate that meets the latency limits.
struct WorkloadSpec {
  std::string name;
  size_t shards = 1;
  size_t ops_per_block = 100;
  /// Keys live in [0, keys); all of them are preloaded, so every get
  /// finds a value and every scan of `scan_span` keys returns exactly
  /// `scan_span` pairs.
  size_t keys = 0;
  double put_frac = 0;
  double scan_frac = 0;  // gets take the rest
  /// 0 = uniform; otherwise zipf over a seeded permutation of the keys.
  double zipf_theta = 0;
  Key scan_span = 64;
  double rate = 0;         // ops/s in the fixed phase
  double fixed_share = 1;  // share of the window in the fixed phase
  int ramps = 0;
  double ramp_lo = 0;  // ops/s at the start and end of each ramp
  double ramp_hi = 0;
  wedge::VerifierCache::Limits cache_limits;
};

/// Why each workload exists is recorded in BENCHMARK.json; the shapes:
///  - ingest: write path (reserve, sign, block formation, certify) on two
///    shards at a rate where the 50 ms partial-flush timer closes blocks.
///  - read: verified point reads and scans under zipf 0.99 on one edge,
///    hot set inside the verifier cache, with a trickle of writes.
///  - capacity: uniform get/put over a dataset twice the cache's part
///    budget at a fixed 2k ops/s, then ramped until the single edge
///    executor saturates.
inline std::optional<WorkloadSpec> FindWorkload(std::string_view name) {
  WorkloadSpec w;
  w.name = std::string(name);
  if (name == "ingest") {
    w.shards = 2;
    w.keys = 100000;
    w.put_frac = 0.88;
    w.scan_frac = 0.02;
    w.rate = 2000;
    return w;
  }
  if (name == "read") {
    w.keys = 50000;
    w.put_frac = 0.05;
    w.scan_frac = 0.05;
    w.zipf_theta = 0.99;
    w.rate = 2000;
    return w;
  }
  if (name == "capacity") {
    // A part budget of 256 pages keeps the preload (and so set-up) small
    // while the dataset stays more than twice what the cache can hold.
    w.cache_limits.max_parts = 256;
    w.cache_limits.max_run_pages = 256;
    w.keys = 60000;
    w.put_frac = 0.49;
    w.scan_frac = 0.02;
    w.rate = 2000;
    w.fixed_share = 0.4;
    w.ramps = 3;
    w.ramp_lo = 2000;
    w.ramp_hi = 12000;
    return w;
  }
  return std::nullopt;
}

/// One generated operation. `at_ns` is the intended start, relative to
/// the start of the measure window.
struct Op {
  int64_t at_ns = 0;
  OpKind kind = OpKind::kGet;
  Key key = 0;  // scan: lo (hi = key + scan_span - 1)
  uint32_t client = 0;
};

// ---------------------------------------------------------------- values
//
// A value is 100 bytes: the key (8), a writer tag (8: 0 for the preload,
// op index + 1 for a put of the run) and 84 filler bytes derived from
// (seed, key, tag). Any value read back can so be traced to the exact
// put that wrote it, and a corrupted or misattributed value is caught.

inline constexpr size_t kValueBytes = 100;

inline void FillValue(uint64_t seed, Key key, uint64_t tag, uint8_t* out) {
  std::memcpy(out, &key, 8);
  std::memcpy(out + 8, &tag, 8);
  wedge::SplitMix64 sm(seed ^ (key * 0x9e3779b97f4a7c15ULL) ^
                       (tag * 0xc2b2ae3d27d4eb4fULL));
  for (size_t off = 16; off < kValueBytes; off += 8) {
    const uint64_t r = sm.Next();
    std::memcpy(out + off, &r, std::min<size_t>(8, kValueBytes - off));
  }
}

inline Bytes MakeValue(uint64_t seed, Key key, uint64_t tag) {
  Bytes v(kValueBytes);
  FillValue(seed, key, tag, v.data());
  return v;
}

/// The writer tag of `value` if it is a well-formed value for `key`.
inline std::optional<uint64_t> ValueTag(uint64_t seed, Key key,
                                        const Bytes& value) {
  if (value.size() != kValueBytes) return std::nullopt;
  uint64_t tag = 0;
  std::memcpy(&tag, value.data() + 8, 8);
  uint8_t expect[kValueBytes];
  FillValue(seed, key, tag, expect);
  if (std::memcmp(expect, value.data(), kValueBytes) != 0) return std::nullopt;
  return tag;
}

// -------------------------------------------------------------- schedule

class KeyChooser {
 public:
  KeyChooser(const WorkloadSpec& w, wedge::Rng& rng) : keys_(w.keys) {
    if (w.zipf_theta <= 0) return;
    // Rank r has weight 1 / (r + 1)^theta; ranks map to keys through a
    // seeded permutation so the hot set is spread over the key space.
    cdf_.resize(keys_);
    double sum = 0;
    for (size_t r = 0; r < keys_; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    perm_.resize(keys_);
    std::iota(perm_.begin(), perm_.end(), Key{0});
    for (size_t i = keys_ - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[rng.NextBelow(i + 1)]);
    }
  }

  Key Next(wedge::Rng& rng) const {
    if (cdf_.empty()) return rng.NextBelow(keys_);
    const double u = rng.NextDouble();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(r, keys_ - 1)];
  }

 private:
  size_t keys_;
  std::vector<double> cdf_;
  std::vector<Key> perm_;
};

/// The arrival schedule of one phase of `window_s` seconds whose rate
/// goes linearly from `rate_lo` to `rate_hi` ops/s: Poisson arrivals,
/// the op mix and keys drawn from `rng`, clients round-robin.
inline std::vector<Op> MakeSchedule(const WorkloadSpec& w,
                                    const KeyChooser& chooser, double rate_lo,
                                    double rate_hi, double window_s,
                                    size_t clients, wedge::Rng& rng) {
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(window_s * (rate_lo + rate_hi) * 0.6) + 64);
  double t = 0;
  for (;;) {
    const double rate = rate_lo + (rate_hi - rate_lo) * (t / window_s);
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= window_s) break;
    Op op;
    op.at_ns = static_cast<int64_t>(t * 1e9);
    const double u = rng.NextDouble();
    op.kind = u < w.put_frac                 ? OpKind::kPut
              : u < w.put_frac + w.scan_frac ? OpKind::kScan
                                             : OpKind::kGet;
    op.key = chooser.Next(rng);
    if (op.kind == OpKind::kScan) {
      op.key = std::min<Key>(op.key, w.keys - w.scan_span);
    }
    op.client = static_cast<uint32_t>(ops.size() % clients);
    ops.push_back(op);
  }
  return ops;
}

}  // namespace wedgebench
