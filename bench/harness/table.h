// Minimal fixed-width table printer for the benchmark binaries, so every
// bench prints rows/series in the paper's layout — plus the per-edge
// breakdown rows the sharded benches report instead of a single
// aggregate row.

#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "crypto/sha256.h"
#include "runtime/runtime.h"
#include "workload/workload.h"

namespace wedge {

/// Stamps a JSON-lines record with the runtime that produced it, the
/// meaning of its time unit ("virtual_us" under the simulator, "wall_us"
/// under threads), and the SHA-256 backend the run dispatched to — a
/// record hashed with SHA-NI is not comparable to a scalar one, and the
/// forced flag distinguishes CI's pinned-scalar legs from detection.
/// `num_cpus` is the host's hardware thread count: a threaded run on one
/// core is not comparable to one on four. Call right after the opening
/// brace.
inline void AppendRuntimeStampJson(FILE* f,
                                   RuntimeKind kind = RuntimeKind::kSim) {
  const std::string_view runtime = RuntimeKindToString(kind);
  const std::string_view unit = RuntimeTimeUnit(kind);
  const std::string_view backend = Sha256BackendName(Sha256::Backend());
  const std::string_view detected =
      Sha256BackendName(Sha256::DetectedBackend());
  std::fprintf(f,
               "\"runtime\": \"%.*s\", \"time_unit\": \"%.*s\", "
               "\"crypto_backend\": \"%.*s\", "
               "\"crypto_backend_detected\": \"%.*s\", "
               "\"crypto_backend_forced\": %s, \"num_cpus\": %u, ",
               static_cast<int>(runtime.size()), runtime.data(),
               static_cast<int>(unit.size()), unit.data(),
               static_cast<int>(backend.size()), backend.data(),
               static_cast<int>(detected.size()), detected.data(),
               Sha256::BackendForced() ? "true" : "false",
               std::thread::hardware_concurrency());
}

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), width_(col_width) {}

  void PrintHeader() const {
    for (const auto& h : headers_) {
      std::printf("%-*s", width_, h.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size() * static_cast<size_t>(width_); ++i) {
      std::printf("-");
    }
    std::printf("\n");
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    for (const auto& c : cells) {
      std::printf("%-*s", width_, c.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline std::string Fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Appends one latency distribution as a named JSON object —
/// `"<name>": {"n", "mean_us", "p50_us", "p99_us", "max_us",
/// "resolution"}` — to an already-open JSON-lines record. The
/// `resolution` field is the histogram's worst-case relative error, so
/// percentile precision travels with the numbers instead of living in a
/// README. Emits the trailing ", " so callers can chain fields after it.
inline void AppendLatencyHistogramJson(FILE* f, const char* name,
                                       const Histogram& h) {
  std::fprintf(f,
               "\"%s\": {\"n\": %llu, \"mean_us\": %.1f, \"p50_us\": %lld, "
               "\"p99_us\": %lld, \"max_us\": %lld, \"resolution\": %.4f}, ",
               name, static_cast<unsigned long long>(h.count()), h.Mean(),
               static_cast<long long>(h.Median()),
               static_cast<long long>(h.P99()),
               static_cast<long long>(h.max()),
               Histogram::RelativeResolution());
}

/// Column headers matching PrintEdgeRow, to append after a bench's own
/// leading columns.
inline std::vector<std::string> PerEdgeHeaders() {
  return {"edge", "read_ops", "write_ops", "p50_ms", "p99_ms", "MB"};
}

/// One row per edge: ops served, read-latency percentiles, and value
/// payload moved. The sharded benches print these under each aggregate
/// row, replacing the single-row summary of the unsharded harness.
inline void PrintEdgeRow(const TablePrinter& table, size_t edge,
                         const EdgeLoadMetrics& m,
                         const std::vector<std::string>& prefix = {}) {
  std::vector<std::string> cells = prefix;
  cells.push_back("e" + std::to_string(edge));
  cells.push_back(std::to_string(m.read_ops));
  cells.push_back(std::to_string(m.write_ops));
  cells.push_back(Fmt(static_cast<double>(m.read_latency.Median()) / 1000.0,
                      2));
  cells.push_back(Fmt(static_cast<double>(m.read_latency.P99()) / 1000.0, 2));
  cells.push_back(Fmt(static_cast<double>(m.bytes_written + m.bytes_read) /
                          (1024.0 * 1024.0),
                      2));
  table.PrintRow(cells);
}

/// Prints the whole per-edge block (no-op when the run was unsharded).
inline void PrintPerEdge(const TablePrinter& table,
                         const std::vector<EdgeLoadMetrics>& per_edge,
                         const std::vector<std::string>& prefix = {}) {
  for (size_t e = 0; e < per_edge.size(); ++e) {
    PrintEdgeRow(table, e, per_edge[e], prefix);
  }
}

/// Appends the per-edge breakdown as a JSON array — `"per_edge": [...]`
/// — to an already-open JSON-lines record. One schema shared by every
/// sharded bench, so the BENCH_*.json records stay comparable.
inline void AppendPerEdgeJson(FILE* f,
                              const std::vector<EdgeLoadMetrics>& per_edge) {
  std::fprintf(f, "\"per_edge\": [");
  for (size_t e = 0; e < per_edge.size(); ++e) {
    const EdgeLoadMetrics& m = per_edge[e];
    std::fprintf(
        f,
        "%s{\"edge\": %zu, \"read_ops\": %llu, \"write_ops\": %llu, "
        "\"p50_us\": %lld, \"p99_us\": %lld, \"mb\": %.2f}",
        e == 0 ? "" : ", ", e,
        static_cast<unsigned long long>(m.read_ops),
        static_cast<unsigned long long>(m.write_ops),
        static_cast<long long>(m.read_latency.Median()),
        static_cast<long long>(m.read_latency.P99()),
        static_cast<double>(m.bytes_written + m.bytes_read) /
            (1024.0 * 1024.0));
  }
  std::fprintf(f, "]");
}

}  // namespace wedge
