// Exact order statistics over raw samples, process resource readings,
// and a minimal JSON writer for the benchmark's result lines.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace wedgebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads) in microseconds.
inline double CpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Host-wide (steal, total) CPU ticks from /proc/stat: the share of time
/// the hypervisor ran someone else on this machine's CPUs.
inline std::pair<uint64_t, uint64_t> StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[10] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (int i = 0; i < 8; ++i) total += v[i];
  return {v[7], total};
}

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Raw samples with exact nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  size_t n() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Pct(double q) const {
    if (v_.empty()) return 0;
    Sort();
    const double rank = std::ceil(q * static_cast<double>(v_.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v_[std::min(idx, v_.size() - 1)];
  }

  /// The highest percentile with at least ten samples beyond it, as
  /// (q, value); q = 0 when there are fewer than eleven samples.
  std::pair<double, double> TailPct() const {
    if (v_.size() < 11) return {0, 0};
    const double q = 1.0 - 10.0 / static_cast<double>(v_.size());
    return {q, Pct(q)};
  }

 private:
  void Sort() const {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// Median of a small set; the mean of the two middle values for even
/// sizes.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Ordered (name, value, unit) metrics, printed as the result's
/// "metrics" object.
class Metrics {
 public:
  void Set(std::string name, double value, std::string unit) {
    m_.push_back({std::move(name), value, std::move(unit)});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < m_.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%.9g", m_[i].value);
      out += (i ? ", \"" : "\"") + m_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> m_;
};

}  // namespace wedgebench
