// wedgebench: one wall-clock benchmark for the WedgeChain store.
//
//   wedgebench --workload ingest|read|capacity --seed N --seconds S
//              --trace 0|1 [--trace-out FILE.jsonl]
//
// Opens wedge::Store on the threaded runtime with the paper's WAN
// geography (clients and edges in California, the cloud in Virginia),
// preloads it, and drives the workload open-loop from this thread: every
// op is issued at its Poisson arrival time and timed from that intended
// start, so a stall is charged to every op queued behind it. The last
// line of stdout is the result object; earlier lines are diagnostics.
//
// A run is a plan of windows: a short unmeasured warm-up, a fixed-rate
// phase that gives latency, throughput and CPU cost, and on `capacity`
// three rate ramps whose saturation knee (slo_ops) is printed as a
// diagnostic. --trace 0 reports the end-to-end metrics. --trace 1 runs the plan twice on one set-up, each with half
// of --seconds, untraced then traced; it reports the per-layer metrics
// from the traced half and the traced-minus-untraced difference as the
// tracing overhead, and writes one span per op of the traced half to
// --trace-out as JSON lines.

#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/store.h"
#include "crypto/sha256.h"
#include "layers.h"
#include "stats.h"
#include "workload.h"

#ifndef WEDGEBENCH_BUILD_TYPE
#define WEDGEBENCH_BUILD_TYPE "unknown"
#endif

namespace wedgebench {
namespace {

using wedge::AsyncCommit;
using wedge::Commit;
using wedge::Result;
using wedge::Status;
using wedge::Store;

constexpr int kSetups = 3;          // set-ups per untraced run (median)
constexpr size_t kClients = 4;      // logical clients, ops round-robin
constexpr double kGetLimitMs = 10;  // gets and scans
constexpr double kP1LimitMs = 100;  // Phase I commit
// slo_ops: the offered rate at which the share of a ramp interval's
// arrivals that met their limit falls through this share. The 90% knee
// is the one the latency limits define; the 50% knee is the saturation
// point, which moves less with merge stalls and host noise.
constexpr double kSloShares[] = {0.9, 0.5};
constexpr int64_t kSloIntervalNs = 250'000'000;  // slo_ops sample interval
// The fixed phase is cut into this many equal parts. cpu_us_per_op comes
// from the half of the parts in which the host stole the least CPU time
// from this machine: steal on a shared host swings from 0 to 25% within
// a run, and a change in the code still shows in every part.
constexpr int kParts = 16;
constexpr int64_t kRampStopAgeNs = 1'000'000'000;
constexpr double kWarmupS = 1.0;  // unmeasured: fills caches after set-up
constexpr int64_t kDrainTimeoutNs = 60'000'000'000;
constexpr int64_t kSetupTimeoutNs = 120'000'000'000;
constexpr size_t kReadbackKeys = 64;  // per class (written once / never)

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

wedge::StoreOptions MakeOptions(const WorkloadSpec& w) {
  wedge::StoreOptions o;
  o.WithRuntime(wedge::RuntimeKind::kThreaded)
      .WithWan(wedge::LatencyMatrix::Paper())
      .WithLocations(wedge::Dc::kCalifornia, wedge::Dc::kCalifornia,
                     wedge::Dc::kVirginia)
      .WithClients(kClients)
      .WithOpsPerBlock(w.ops_per_block)
      .WithVerifierCacheLimits(w.cache_limits);
  if (w.shards > 1) o.WithShards(w.shards);
  return o;
}

/// Counts outstanding async completions; shared with the callbacks so a
/// late completion never touches a dead stack frame.
struct Outstanding {
  std::mutex mu;
  std::condition_variable cv;
  size_t n = 0;
  Status first_error;

  void Done(const Status& s) {
    std::lock_guard<std::mutex> lock(mu);
    if (!s.ok() && first_error.ok()) first_error = s;
    n--;
    cv.notify_all();
  }
};

/// Writes every key once (writer tag 0) in batches and waits for all of
/// them to reach Phase II.
Status Preload(Store& store, const WorkloadSpec& w, uint64_t seed) {
  constexpr size_t kBatch = 1000, kWindow = 8;
  auto out = std::make_shared<Outstanding>();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(kSetupTimeoutNs);
  size_t batch = 0;
  for (Key lo = 0; lo < w.keys; lo += kBatch, ++batch) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = lo; k < std::min<Key>(lo + kBatch, w.keys); ++k) {
      kvs.emplace_back(k, MakeValue(seed, k, 0));
    }
    {
      std::unique_lock<std::mutex> lock(out->mu);
      if (!out->cv.wait_until(lock, deadline,
                              [&] { return out->n < kWindow; })) {
        return Status::Timeout("preload stalled");
      }
      out->n++;
    }
    store.AsyncPutBatch(kvs, batch % kClients)
        .OnPhase2([out](const Status& s, const Commit&) { out->Done(s); });
  }
  std::unique_lock<std::mutex> lock(out->mu);
  if (!out->cv.wait_until(lock, deadline, [&] { return out->n == 0; })) {
    return Status::Timeout("preload did not reach Phase II");
  }
  return out->first_error;
}

/// Opens a store, preloads it and waits until the preload's compaction
/// has drained.
Result<Store> SetUp(const WorkloadSpec& w, uint64_t seed) {
  auto store = Store::Open(MakeOptions(w));
  if (!store.ok()) return store.status();
  WEDGE_RETURN_NOT_OK(Preload(*store, w, seed));
  const int64_t deadline = NowNs() + kSetupTimeoutNs;
  while (!CompactionIdle(*store)) {
    if (NowNs() > deadline) return Status::Timeout("compaction never idled");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return store;
}

// ---------------------------------------------------------------- window

enum Flag : uint32_t {
  kFailed = 1,       // a non-OK status other than a detected lie
  kSecurity = 2,     // SecurityViolation / MaliciousBehavior
  kBadValue = 4,     // a value no put wrote, or a scan pair out of place
  kNotFound = 8,     // every key is preloaded, so a miss is wrong
  kUnverified = 16,  // a read the client did not verify
  kIncomplete = 32,  // a scan that did not return its whole range
};

uint32_t StatusFlag(const Status& s) {
  if (s.ok()) return 0;
  return (s.IsSecurityViolation() || s.IsMaliciousBehavior()) ? kSecurity
                                                               : kFailed;
}

/// One op's span. The issuer writes issue/return; completions (on runtime
/// threads) write p1/end and publish through the window's counters.
struct Rec {
  int64_t issue_ns = 0;
  int64_t ret_ns = 0;
  std::atomic<int64_t> p1_ns{0};
  std::atomic<int64_t> end_ns{0};  // Phase II for puts, done for reads
  std::atomic<uint64_t> tag{0};    // get: writer tag of the value read
  std::atomic<uint32_t> flags{0};
};

enum class Phase { kWarmup, kFixed, kRamp };

/// One phase of a run: a schedule, its spans, and the counters the
/// completions publish through. A put's writer tag is tag_base + its
/// index + 1, so tags stay unique across the windows of one store.
struct Window {
  Window(std::vector<Op> o, double s, Phase p, uint64_t base)
      : ops(std::move(o)), recs(new Rec[ops.size()]), seconds(s), phase(p),
        tag_base(base) {}
  bool ramp() const { return phase == Phase::kRamp; }

  std::vector<Op> ops;
  std::unique_ptr<Rec[]> recs;
  double seconds;
  Phase phase;
  uint64_t tag_base;
  int64_t t0 = 0;
  struct Mark {
    double cpu_us;                      // process CPU time
    std::pair<uint64_t, uint64_t> steal;  // host (steal, total) ticks
  };
  std::vector<Mark> marks;  // at each part boundary; a ramp's ends only
  size_t issued = 0;  // a ramp stops early once a backlog builds
  size_t puts = 0;    // puts among the issued ops
  std::atomic<uint64_t> p1_done{0};
  std::atomic<uint64_t> end_done{0};
};

using Plan = std::vector<std::shared_ptr<Window>>;

/// The windows of one run measuring `seconds`: an unmeasured warm-up at
/// the fixed rate, the fixed phase, then the ramps.
Plan MakePlan(const WorkloadSpec& w, const KeyChooser& chooser,
              double seconds, uint64_t tag_base, wedge::Rng& rng) {
  Plan plan;
  auto add = [&](double lo, double hi, double len, Phase phase) {
    plan.push_back(std::make_shared<Window>(
        MakeSchedule(w, chooser, lo, hi, len, kClients, rng), len, phase,
        tag_base));
    tag_base += plan.back()->ops.size();
  };
  add(w.rate, w.rate, kWarmupS, Phase::kWarmup);
  add(w.rate, w.rate, seconds * w.fixed_share, Phase::kFixed);
  for (int k = 0; k < w.ramps; ++k) {
    add(w.ramp_lo, w.ramp_hi, seconds * (1 - w.fixed_share) / w.ramps,
        Phase::kRamp);
  }
  return plan;
}

void IssueOp(Store& store, const std::shared_ptr<Window>& win, size_t i,
             uint64_t seed, Key scan_span) {
  const Op& op = win->ops[i];
  Rec* r = &win->recs[i];
  switch (op.kind) {
    case OpKind::kPut: {
      AsyncCommit h = store.AsyncPut(
          op.key, MakeValue(seed, op.key, win->tag_base + i + 1), op.client);
      h.OnPhase1([win, r](const Status& s, const Commit&) {
        r->p1_ns.store(NowNs(), std::memory_order_relaxed);
        r->flags.fetch_or(StatusFlag(s), std::memory_order_relaxed);
        win->p1_done.fetch_add(1, std::memory_order_release);
      });
      h.OnPhase2([win, r](const Status& s, const Commit&) {
        r->end_ns.store(NowNs(), std::memory_order_relaxed);
        r->flags.fetch_or(StatusFlag(s), std::memory_order_relaxed);
        win->end_done.fetch_add(1, std::memory_order_release);
      });
      break;
    }
    case OpKind::kGet: {
      const Key key = op.key;
      store.AsyncGet(key, op.client)
          .OnDone([win, r, key, seed](const Status& s,
                                      const wedge::GetResult& g) {
            r->end_ns.store(NowNs(), std::memory_order_relaxed);
            uint32_t f = StatusFlag(s);
            if (s.ok()) {
              const auto tag = ValueTag(seed, key, g.value);
              if (!g.verified) f |= kUnverified;
              if (!g.found) f |= kNotFound;
              else if (!tag) f |= kBadValue;
              else r->tag.store(*tag, std::memory_order_relaxed);
            }
            r->flags.fetch_or(f, std::memory_order_relaxed);
            win->end_done.fetch_add(1, std::memory_order_release);
          });
      break;
    }
    case OpKind::kScan: {
      const Key lo = op.key, hi = op.key + scan_span - 1;
      store.AsyncScan(lo, hi, op.client)
          .OnDone([win, r, lo, scan_span, seed](const Status& s,
                                                const wedge::ScanResult& res) {
            r->end_ns.store(NowNs(), std::memory_order_relaxed);
            uint32_t f = StatusFlag(s);
            if (s.ok()) {
              if (!res.verified) f |= kUnverified;
              if (res.pairs.size() != scan_span) f |= kIncomplete;
              for (size_t j = 0; j < res.pairs.size(); ++j) {
                const wedge::KvPair& p = res.pairs[j];
                if (p.key != lo + j || !ValueTag(seed, p.key, p.value)) {
                  f |= kBadValue;
                }
              }
            }
            r->flags.fetch_or(f, std::memory_order_relaxed);
            win->end_done.fetch_add(1, std::memory_order_release);
          });
      break;
    }
  }
}

/// True once op `i` has its client-visible answer (Phase I for a put).
bool Answered(const Window& win, size_t i) {
  const Rec& r = win.recs[i];
  return (win.ops[i].kind == OpKind::kPut ? r.p1_ns : r.end_ns)
             .load(std::memory_order_relaxed) != 0;
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

/// Issues the window's schedule open-loop, then waits for every issued op
/// to settle (puts through Phase II). A ramp stops issuing once its
/// oldest unanswered op is kRampStopAgeNs old. Other windows mark the
/// process CPU time and host steal at each part boundary. False if the
/// store did not drain.
bool RunWindow(Store& store, const std::shared_ptr<Window>& win,
               uint64_t seed, Key scan_span, bool traced) {
  Window& w = *win;
  const int64_t part_ns = static_cast<int64_t>(w.seconds * 1e9) / kParts;
  w.t0 = NowNs() + 2'000'000;
  SleepUntilNs(w.t0);
  auto mark = [&] { w.marks.push_back({CpuUs(), StealTicks()}); };
  mark();
  auto mark_parts = [&](int64_t now) {
    while (!w.ramp() && w.marks.size() <= kParts &&
           now >= w.t0 + part_ns * static_cast<int64_t>(w.marks.size())) {
      mark();
    }
  };
  size_t oldest = 0;
  size_t i = 0;
  for (; i < w.ops.size(); ++i) {
    const int64_t target = w.t0 + w.ops[i].at_ns;
    int64_t now = NowNs();
    if (now < target) {
      SleepUntilNs(target);
      now = NowNs();
    }
    mark_parts(now);
    if (w.ramp()) {
      while (oldest < i && Answered(w, oldest)) oldest++;
      if (oldest < i && now - (w.t0 + w.ops[oldest].at_ns) > kRampStopAgeNs) {
        break;
      }
    }
    w.recs[i].issue_ns = now;
    w.puts += w.ops[i].kind == OpKind::kPut;
    IssueOp(store, win, i, seed, scan_span);
    if (traced) w.recs[i].ret_ns = NowNs();
  }
  w.issued = i;
  if (w.ramp()) {
    mark();
  } else {
    SleepUntilNs(w.t0 + part_ns * kParts);
    mark_parts(NowNs());
  }
  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (w.end_done.load(std::memory_order_acquire) < w.issued ||
         w.p1_done.load(std::memory_order_acquire) < w.puts) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct Latencies {
  Samples p1_ms, p2_ms, get_ms, scan_ms;
};

struct WindowStats {
  Latencies all;
  Latencies quiet;  // the parts with the least host steal
  double quiet_cpu_us_per_op = 0;
  Samples issue_late_us, call_us, issue_to_p1_ms, p1_to_p2_ms;
  uint64_t attempted = 0, failed = 0, security = 0, bad = 0;
  double achieved_ops = 0;
  double knees[2] = {0, 0};  // ramps: slo_ops at each of kSloShares
};

double StealShare(const Window::Mark& a, const Window::Mark& b) {
  const uint64_t ticks = b.steal.second - a.steal.second;
  return ticks ? static_cast<double>(b.steal.first - a.steal.first) / ticks
               : 0;
}

/// Marks the kParts / 2 parts of `win` with the least host steal.
std::vector<bool> QuietParts(const Window& win) {
  std::vector<bool> quiet(kParts, win.marks.size() != kParts + 1);
  if (win.marks.size() != kParts + 1) return quiet;  // ramp or stopped
  std::vector<int> order(kParts);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return StealShare(win.marks[a], win.marks[a + 1]) <
           StealShare(win.marks[b], win.marks[b + 1]);
  });
  for (int k = 0; k < kParts / 2; ++k) quiet[order[k]] = true;
  return quiet;
}

double Ms(int64_t ns) { return ns / 1e6; }

using History = std::vector<const Window*>;

/// The put that wrote `tag` and its span, or nulls for an unknown tag.
std::pair<const Op*, const Rec*> PutOfTag(const History& history,
                                          uint64_t tag) {
  for (const Window* w : history) {
    if (tag > w->tag_base && tag <= w->tag_base + w->ops.size()) {
      const size_t i = tag - w->tag_base - 1;
      if (w->ops[i].kind != OpKind::kPut) break;
      return {&w->ops[i], &w->recs[i]};
    }
  }
  return {nullptr, nullptr};
}

/// Non-increasing weighted least-squares fit of `y` (pool adjacent
/// violators): a ramp's share of arrivals meeting the limit falls with
/// the offered rate, and the fit irons out single noisy intervals.
std::vector<double> FitNonIncreasing(const std::vector<double>& y,
                                     const std::vector<double>& weight) {
  struct Block {
    double mean, weight;
    size_t n;
  };
  std::vector<Block> blocks;
  for (size_t i = 0; i < y.size(); ++i) {
    blocks.push_back({y[i], weight[i], 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].mean < blocks.back().mean) {
      const Block b = blocks.back();
      blocks.pop_back();
      Block& a = blocks.back();
      const double w = a.weight + b.weight;
      a.mean = w > 0 ? (a.mean * a.weight + b.mean * b.weight) / w : a.mean;
      a.weight = w;
      a.n += b.n;
    }
  }
  std::vector<double> fit;
  for (const Block& b : blocks) fit.insert(fit.end(), b.n, b.mean);
  return fit;
}

/// The offered rate at which the fitted share falls through `share`,
/// interpolated between intervals; the last rate if it never does.
double RampKnee(const std::vector<double>& rates,
                const std::vector<double>& fit, double share) {
  for (size_t k = 0; k < fit.size(); ++k) {
    if (fit[k] >= share) continue;
    if (k == 0) return 0;
    const double f0 = fit[k - 1], f1 = fit[k];
    return rates[k - 1] + (rates[k] - rates[k - 1]) * (f0 - share) / (f0 - f1);
  }
  return rates.empty() ? 0 : rates.back();
}

/// Summarizes the last window of `history`; earlier windows of the same
/// store resolve the writer tags of values they wrote.
WindowStats Summarize(const History& history) {
  const Window& win = *history.back();
  WindowStats s;
  const std::vector<bool> quiet = QuietParts(win);
  const int64_t window_ns = static_cast<int64_t>(win.seconds * 1e9);
  const int64_t part_ns = window_ns / kParts;
  // A ramp's knee counts only intervals the schedule covered completely.
  const int64_t covered_ns =
      win.issued < win.ops.size() ? win.ops[win.issued].at_ns : window_ns;
  const size_t slots = static_cast<size_t>(covered_ns / kSloIntervalNs);
  std::vector<uint64_t> arrivals(slots + 1), met(slots + 1);
  std::vector<uint64_t> part_ops(kParts);
  uint64_t completed_in_window = 0;
  for (size_t i = 0; i < win.issued; ++i) {
    const Op& op = win.ops[i];
    const Rec& r = win.recs[i];
    const int64_t intended = win.t0 + op.at_ns;
    const int64_t p1 = r.p1_ns.load(std::memory_order_relaxed);
    const int64_t end = r.end_ns.load(std::memory_order_relaxed);
    uint32_t flags = r.flags.load(std::memory_order_relaxed);
    if (op.kind == OpKind::kGet) {
      // A value read must come from the preload or from a put on the same
      // key that was issued before the read completed.
      const uint64_t tag = r.tag.load(std::memory_order_relaxed);
      if (tag > 0) {
        const auto [put, put_rec] = PutOfTag(history, tag);
        if (put == nullptr || put->key != op.key || put_rec->issue_ns > end) {
          flags |= kBadValue;
        }
      }
    }
    s.attempted++;
    if (flags) s.failed++;
    if (flags & kSecurity) s.security++;
    if (flags & (kBadValue | kNotFound | kUnverified | kIncomplete)) s.bad++;
    s.issue_late_us.Add((r.issue_ns - intended) / 1e3);
    if (r.ret_ns) s.call_us.Add((r.ret_ns - r.issue_ns) / 1e3);
    const size_t part = std::min<size_t>(op.at_ns / part_ns, kParts - 1);
    part_ops[part]++;
    const int64_t answer = op.kind == OpKind::kPut ? p1 : end;
    const double lat_ms = Ms(answer - intended);
    for (Latencies* l : {&s.all, &s.quiet}) {
      if (l == &s.quiet && !quiet[part]) continue;
      if (op.kind == OpKind::kPut) {
        l->p1_ms.Add(lat_ms);
        l->p2_ms.Add(Ms(end - intended));
      } else {
        (op.kind == OpKind::kGet ? l->get_ms : l->scan_ms).Add(lat_ms);
      }
    }
    if (op.kind == OpKind::kPut) {
      s.issue_to_p1_ms.Add(Ms(p1 - r.issue_ns));
      s.p1_to_p2_ms.Add(Ms(end - p1));
    }
    if (!flags && answer - win.t0 <= window_ns) completed_in_window++;
    const size_t slot = std::min<size_t>(op.at_ns / kSloIntervalNs, slots);
    arrivals[slot]++;
    const double limit = op.kind == OpKind::kPut ? kP1LimitMs : kGetLimitMs;
    if (!flags && lat_ms <= limit) met[slot]++;
  }
  s.achieved_ops = completed_in_window / win.seconds;
  double quiet_cpu_us = 0;
  uint64_t quiet_ops = 0;
  for (size_t k = 0; k + 1 < win.marks.size() && k < kParts; ++k) {
    if (!quiet[k]) continue;
    quiet_cpu_us += win.marks[k + 1].cpu_us - win.marks[k].cpu_us;
    quiet_ops += part_ops[k];
  }
  s.quiet_cpu_us_per_op = quiet_cpu_us / std::max<uint64_t>(1, quiet_ops);
  std::vector<double> rates, shares, weights;
  for (size_t k = 0; k < slots; ++k) {
    if (arrivals[k] == 0) continue;
    rates.push_back(arrivals[k] / (kSloIntervalNs / 1e9));
    shares.push_back(static_cast<double>(met[k]) / arrivals[k]);
    weights.push_back(static_cast<double>(arrivals[k]));
  }
  if (win.ramp()) {
    const std::vector<double> fit = FitNonIncreasing(shares, weights);
    for (int k = 0; k < 2; ++k) s.knees[k] = RampKnee(rates, fit, kSloShares[k]);
  }
  static const char* const kPhaseNames[] = {"warm-up", "fixed", "ramp"};
  std::printf("# %s window: issued %zu/%zu, host steal %.3f, knees %.0f %.0f, "
              "intervals (ops/s:met)",
              kPhaseNames[static_cast<int>(win.phase)], win.issued,
              win.ops.size(), StealShare(win.marks.front(), win.marks.back()),
              s.knees[0], s.knees[1]);
  for (size_t k = 0; k < rates.size(); ++k) {
    std::printf(" %.0f:%.2f", rates[k], shares[k]);
  }
  std::printf("\n");
  return s;
}

/// What the end-to-end metrics need from one run of a plan.
struct PlanStats {
  WindowStats fixed;          // latency, throughput and CPU
  std::vector<double> knees[2];  // each ramp's knee at each of kSloShares
  uint64_t attempted = 0, failed = 0, security = 0, bad = 0;
};

/// Runs every window of `plan` in order, appending each to `history`.
bool RunPlan(Store& store, const Plan& plan, History& history, uint64_t seed,
             Key scan_span, bool traced, PlanStats* out) {
  for (const auto& win : plan) {
    if (!RunWindow(store, win, seed, scan_span, traced)) return false;
    history.push_back(win.get());
    WindowStats s = Summarize(history);
    out->attempted += s.attempted;
    out->failed += s.failed;
    out->security += s.security;
    out->bad += s.bad;
    if (win->phase == Phase::kRamp) {
      for (int k = 0; k < 2; ++k) out->knees[k].push_back(s.knees[k]);
    } else if (win->phase == Phase::kFixed) {
      out->fixed = std::move(s);
    }
  }
  return true;
}

/// Reads back a seeded sample of keys written exactly once in the run
/// and of keys it never wrote; each verified Get must return that put's
/// value, or the preload's. Returns the number of mismatches.
uint64_t ReadBack(Store& store, const History& history, const WorkloadSpec& w,
                  uint64_t seed, wedge::Rng& rng) {
  std::map<Key, std::pair<int, uint64_t>> writes;  // key -> (count, tag)
  for (const Window* win : history) {
    for (size_t i = 0; i < win->issued; ++i) {
      if (win->ops[i].kind != OpKind::kPut) continue;
      auto& [count, tag] = writes[win->ops[i].key];
      count++;
      tag = win->tag_base + i + 1;
    }
  }
  std::vector<std::pair<Key, uint64_t>> expect;  // key -> writer tag
  for (const auto& [key, cw] : writes) {
    if (cw.first == 1) expect.emplace_back(key, cw.second);
  }
  for (size_t i = expect.size(); i > kReadbackKeys; --i) {
    std::swap(expect[i - 1], expect[rng.NextBelow(i)]);
    expect.pop_back();
  }
  for (size_t n = 0, tries = 0;
       n < kReadbackKeys && tries < 100 * kReadbackKeys; ++tries) {
    const Key k = rng.NextBelow(w.keys);
    if (writes.count(k)) continue;
    expect.emplace_back(k, 0);
    ++n;
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < expect.size(); ++i) {
    const auto [key, tag] = expect[i];
    auto got = store.Get(key, i % kClients);
    if (got.ok() && got->found && got->verified &&
        ValueTag(seed, key, got->value) == tag) {
      continue;
    }
    std::printf("# readback mismatch: key %" PRIu64 " expected tag %" PRIu64
                " (%s)\n",
                key, tag,
                got.ok() ? "wrong value" : got.status().ToString().c_str());
    mismatches++;
  }
  return mismatches;
}

void PrintLatency(const char* name, const Samples& s, const Samples& quiet) {
  const auto [q, v] = s.TailPct();
  std::printf("# %-8s n=%zu p50=%.3f p90=%.3f p99=%.3f p%.4g=%.3f ms; "
              "quiet half n=%zu p50=%.3f p90=%.3f ms\n",
              name, s.n(), s.Pct(0.5), s.Pct(0.9), s.Pct(0.99), q * 100, v,
              quiet.n(), quiet.Pct(0.5), quiet.Pct(0.9));
}

void WriteSpans(const std::string& path, const Plan& plan,
                const std::string& context) {
  std::ofstream f(path, std::ios::trunc);
  f << context << "\n";
  char line[320];
  for (size_t k = 0; k < plan.size(); ++k) {
    const Window& win = *plan[k];
    auto rel = [&](int64_t ns) { return ns ? (ns - win.t0) / 1e3 : -1.0; };
    for (size_t i = 0; i < win.issued; ++i) {
      const Op& op = win.ops[i];
      const Rec& r = win.recs[i];
      std::snprintf(line, sizeof(line),
                    "{\"window\": %zu, \"span\": %zu, \"op\": \"%s\", \"key\": "
                    "%" PRIu64 ", \"client\": %u, \"intended_us\": %.1f, "
                    "\"issue_us\": %.1f, \"return_us\": %.1f, \"p1_us\": %.1f, "
                    "\"end_us\": %.1f, \"flags\": %u}\n",
                    k, i, OpKindName(op.kind), op.key, op.client,
                    op.at_ns / 1e3, rel(r.issue_ns), rel(r.ret_ns),
                    rel(r.p1_ns.load(std::memory_order_relaxed)),
                    rel(r.end_ns.load(std::memory_order_relaxed)),
                    r.flags.load(std::memory_order_relaxed));
      f << line;
    }
  }
}

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses ? static_cast<double>(hits) / (hits + misses) : 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.Json().c_str());
  std::fflush(stdout);
}

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "wedgebench: %s: %s\n", what, s.ToString().c_str());
  return 1;
}

int Run(const Args& args) {
  const auto spec = FindWorkload(args.workload);
  if (!spec) {
    std::fprintf(stderr, "wedgebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  // Sub-millisecond issue precision: the default 50 us timer slack would
  // show up as generator lateness at these arrival rates.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  char context[512];
  std::snprintf(
      context, sizeof(context),
      "{\"context\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"nproc\": %ld, \"sha256_backend\": "
      "\"%s\", \"build_type\": \"%s\", \"runtime\": \"threaded\", \"wan\": "
      "\"paper: clients+edges California, cloud Virginia\", \"shards\": %zu, "
      "\"clients\": %zu, \"driver_pool\": 4}}",
      w.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN),
      std::string(wedge::Sha256BackendName(wedge::Sha256::Backend())).c_str(),
      WEDGEBENCH_BUILD_TYPE, w.shards, kClients);
  std::printf("# %s\n", context);

  wedge::Rng rng(args.seed);
  const KeyChooser chooser(w, rng);
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const Plan plan = MakePlan(w, chooser, window_s, 0, rng);

  // Set-up: several full set-ups, timed; the last one is measured.
  std::vector<double> setup_s;
  std::optional<Store> store;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    store.reset();
    const int64_t t = NowNs();
    auto opened = SetUp(w, args.seed);
    if (!opened.ok()) return Fail("set-up", opened.status());
    setup_s.push_back((NowNs() - t) / 1e9);
    store.emplace(std::move(*opened));
  }
  std::printf("# setup_s:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");

  // The measured plan; a traced run first runs an untraced plan on the
  // same store as the baseline for the tracing overhead.
  History history;
  PlanStats ps, untraced;
  Plan traced_plan;
  NodeCounters before{};
  if (!RunPlan(*store, plan, history, args.seed, w.scan_span, false,
               args.trace ? &untraced : &ps)) {
    return Fail("measure", Status::Timeout("the store did not drain"));
  }
  if (args.trace) {
    uint64_t tag_base = 0;
    for (const auto& win : plan) tag_base += win->ops.size();
    traced_plan = MakePlan(w, chooser, window_s, tag_base, rng);
    before = ReadCounters(*store);
    if (!RunPlan(*store, traced_plan, history, args.seed, w.scan_span, true,
                 &ps)) {
      return Fail("measure", Status::Timeout("the store did not drain"));
    }
  }
  const NodeCounters after = ReadCounters(*store);
  WindowStats& ws = ps.fixed;

  // Correctness gate, over every op of the run.
  const uint64_t attempted = ps.attempted + untraced.attempted;
  const uint64_t failed = ps.failed + untraced.failed;
  const uint64_t security = ps.security + untraced.security;
  const uint64_t bad = ps.bad + untraced.bad;
  const uint64_t mismatches = ReadBack(*store, history, w, args.seed, rng);
  bool correct = !failed && !security && !bad && !mismatches &&
                 !after.verification_failures;
  std::printf("# gate: attempted=%" PRIu64 " failed=%" PRIu64
              " security=%" PRIu64 " bad=%" PRIu64
              " readback_mismatches=%" PRIu64 " verification_failures=%" PRIu64
              "\n",
              attempted, failed, security, bad, mismatches,
              after.verification_failures);
  PrintLatency("put_p1", ws.all.p1_ms, ws.quiet.p1_ms);
  PrintLatency("put_p2", ws.all.p2_ms, ws.quiet.p2_ms);
  PrintLatency("get", ws.all.get_ms, ws.quiet.get_ms);
  PrintLatency("scan", ws.all.scan_ms, ws.quiet.scan_ms);
  std::printf("# issue_late_us p50=%.1f p99=%.1f max=%.1f\n",
              ws.issue_late_us.Pct(0.5), ws.issue_late_us.Pct(0.99),
              ws.issue_late_us.Pct(1.0));
  for (int k = 0; k < 2 && !ps.knees[k].empty(); ++k) {
    std::printf("# slo_ops at %.0f%% met: %.0f ops/s (median of ramp knees",
                kSloShares[k] * 100, Median(ps.knees[k]));
    for (double knee : ps.knees[k]) std::printf(" %.0f", knee);
    std::printf(")\n");
  }

  Metrics m;
  if (!args.trace) {
    // Get and scan latencies and slo_ops are printed above, not gated:
    // sub-millisecond reads and the saturation knee move 2-5x with the
    // CPU time a shared host steals, far beyond any usable bound.
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("put_p1_p50_ms", ws.all.p1_ms.Pct(0.5), "ms");
    m.Set("put_p1_p90_ms", ws.all.p1_ms.Pct(0.9), "ms");
    m.Set("put_p2_p50_ms", ws.all.p2_ms.Pct(0.5), "ms");
    m.Set("put_p2_p90_ms", ws.all.p2_ms.Pct(0.9), "ms");
    m.Set("achieved_ops", ws.achieved_ops, "ops/s");
    m.Set("cpu_us_per_op", ws.quiet_cpu_us_per_op, "us");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    PrintResult(correct, attempted, failed, m);
    return correct ? 0 : 1;
  }

  // ---- traced run: per-layer metrics from the traced plan. Stage
  // samples come from its fixed phase; counters cover the whole plan.
  const double ops = static_cast<double>(std::max<uint64_t>(1, ps.attempted));
  const uint64_t msgs = after.transport.messages - before.transport.messages;
  const uint64_t bytes = after.transport.bytes - before.transport.bytes;

  // Replay a sample of the run's own keys against the live edges.
  std::vector<Key> get_keys, scan_los;
  for (const Op& op : traced_plan[1]->ops) {  // the fixed phase
    if (op.kind == OpKind::kScan && scan_los.size() < 32) scan_los.push_back(op.key);
    if (op.kind != OpKind::kScan && get_keys.size() < 256) get_keys.push_back(op.key);
  }
  const ReplayTimings rp =
      ReplayLsmerkle(*store, get_keys, scan_los, w.scan_span, w.cache_limits);
  const CryptoTimings ct =
      TimeCrypto(static_cast<size_t>(Median(rp.get_proof_kb) * 1024));
  if (rp.verify_errors || ct.open_errors) correct = false;

  m.Set("workload.issue_late_p50_us", ws.issue_late_us.Pct(0.5), "us");
  m.Set("workload.issue_late_p99_us", ws.issue_late_us.Pct(0.99), "us");
  m.Set("api.call_us_p50", ws.call_us.Pct(0.5), "us");
  m.Set("api.inflight_peak", after.async.inflight_peak, "count");
  m.Set("api.rejected", after.async.rejected - before.async.rejected, "count");
  m.Set("runtime.msgs_per_op", msgs / ops, "count");
  m.Set("runtime.bytes_per_op", bytes / ops, "B");
  m.Set("runtime.dropped", after.transport.dropped - before.transport.dropped,
        "count");
  const uint64_t blocks = after.blocks_formed - before.blocks_formed;
  m.Set("core.edge.blocks_formed", blocks, "count");
  m.Set("core.edge.block_fill",
        blocks ? (after.entries_accepted - before.entries_accepted) /
                     static_cast<double>(blocks * w.ops_per_block)
               : 0,
        "ratio");
  m.Set("core.edge.certify_retries",
        after.certify_retries - before.certify_retries, "count");
  m.Set("core.edge.merges", after.merges - before.merges, "count");
  m.Set("core.edge.noop_merges", after.noop_merges - before.noop_merges,
        "count");
  m.Set("core.cloud.certified_blocks",
        after.certified_blocks - before.certified_blocks, "count");
  m.Set("core.cloud.duplicate_certifies",
        after.duplicate_certifies - before.duplicate_certifies, "count");
  m.Set("core.client.verification_failures", after.verification_failures,
        "count");
  m.Set("core.issue_to_p1_p50_ms", ws.issue_to_p1_ms.Pct(0.5), "ms");
  m.Set("core.p1_to_p2_p50_ms", ws.p1_to_p2_ms.Pct(0.5), "ms");
  const auto& c0 = before.cache;
  const auto& c1 = after.cache;
  m.Set("lsmerkle.cache.root_hit",
        Ratio(c1.root_hits - c0.root_hits, c1.root_misses - c0.root_misses),
        "ratio");
  m.Set("lsmerkle.cache.block_hit",
        Ratio(c1.block_hits - c0.block_hits, c1.block_misses - c0.block_misses),
        "ratio");
  m.Set("lsmerkle.cache.part_hit",
        Ratio(c1.part_hits - c0.part_hits, c1.part_misses - c0.part_misses),
        "ratio");
  m.Set("lsmerkle.cache.run_hit",
        Ratio(c1.run_hits - c0.run_hits, c1.run_misses - c0.run_misses),
        "ratio");
  m.Set("lsmerkle.assemble_get_us", Median(rp.assemble_get_us), "us");
  m.Set("lsmerkle.assemble_scan_us", Median(rp.assemble_scan_us), "us");
  m.Set("lsmerkle.verify_get_cold_us", Median(rp.verify_get_cold_us), "us");
  m.Set("lsmerkle.verify_get_warm_us", Median(rp.verify_get_warm_us), "us");
  m.Set("lsmerkle.verify_scan_us", Median(rp.verify_scan_us), "us");
  m.Set("lsmerkle.get_proof_kb", Median(rp.get_proof_kb), "KiB");
  m.Set("lsmerkle.l0_units", rp.l0_units, "count");
  m.Set("lsmerkle.pages", rp.pages, "count");
  m.Set("log.block_digest_us", Median(rp.block_digest_us), "us");
  m.Set("wire.seal_us", ct.seal_us, "us");
  m.Set("wire.open_us", ct.open_us, "us");
  m.Set("crypto.sha256_mb_s", ct.sha256_mb_s, "MiB/s");
  m.Set("crypto.sign_us", ct.sign_us, "us");
  m.Set("crypto.verify_us", ct.verify_us, "us");
  m.Set("trace.overhead_put_p1_p50_ms",
        ws.all.p1_ms.Pct(0.5) - untraced.fixed.all.p1_ms.Pct(0.5),
        "ms");
  m.Set("trace.overhead_get_p50_ms",
        ws.all.get_ms.Pct(0.5) - untraced.fixed.all.get_ms.Pct(0.5),
        "ms");
  m.Set("trace.overhead_cpu_us_per_op",
        ws.quiet_cpu_us_per_op - untraced.fixed.quiet_cpu_us_per_op,
        "us");
  if (!args.trace_out.empty()) WriteSpans(args.trace_out, traced_plan, context);
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wedgebench

int main(int argc, char** argv) {
  wedgebench::Args args;
  if (!wedgebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wedgebench --workload ingest|read|capacity --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return wedgebench::Run(args);
}
