#include "runtime/sim_runtime.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simnet/cpu.h"

namespace wedge {

std::string_view RuntimeKindToString(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim:
      return "sim";
    case RuntimeKind::kThreaded:
      return "threaded";
  }
  return "unknown";
}

namespace {

/// CpuLane behind the Lane interface: identical scheduling to the
/// pre-seam node code.
class SimLane : public Lane {
 public:
  SimLane(Simulation* sim) : sim_(sim), lane_(sim) {}

  void Execute(SimTime serial_cost, std::function<void()> fn) override {
    lane_.Execute(serial_cost, std::move(fn));
  }

  void ExecuteAfter(SimTime serial_cost, SimTime extra_latency,
                    std::function<void()> fn) override {
    sim_->ScheduleAt(lane_.Reserve(serial_cost) + extra_latency,
                     std::move(fn));
  }

 private:
  Simulation* sim_;
  CpuLane lane_;
};

}  // namespace

class SimRuntime::SimExecutor : public Executor {
 public:
  explicit SimExecutor(Simulation* sim) : sim_(sim) {}

  SimTime Now() const override { return sim_->now(); }
  void Post(std::function<void()> fn) override { fn(); }
  void Defer(std::function<void()> fn) override { fn(); }
  void After(SimTime delay, std::function<void()> fn) override {
    sim_->ScheduleAfter(delay, std::move(fn));
  }
  void Charge(SimTime cost, std::function<void()> fn) override {
    sim_->ScheduleAfter(cost, std::move(fn));
  }
  std::unique_ptr<Lane> MakeLane() override {
    return std::make_unique<SimLane>(sim_);
  }

 private:
  Simulation* sim_;
};

/// The sim fault plane drives simnet's existing link-cut plumbing: a
/// crash is node isolation, a partition is the cross-product of link
/// cuts, shaping is SimNetwork's per-link LinkShape (seeded-RNG
/// randomness, so chaos schedules stay deterministic).
class SimRuntime::SimFaultPlane : public FaultPlane {
 public:
  explicit SimFaultPlane(SimNetwork* net) : net_(net) {}

  void CrashNode(NodeId node) override {
    if (!crashed_.insert(node).second) return;
    net_->SetNodeIsolated(node, true);
    stats_.crashes++;
  }

  void RestartNode(NodeId node) override {
    if (crashed_.erase(node) == 0) return;
    net_->SetNodeIsolated(node, false);
    stats_.restarts++;
  }

  bool IsCrashed(NodeId node) const override {
    return crashed_.count(node) != 0;
  }

  void Partition(const std::vector<NodeId>& side_a,
                 const std::vector<NodeId>& side_b) override {
    for (NodeId a : side_a) {
      for (NodeId b : side_b) {
        if (a == b) continue;
        if (!cut_pairs_.insert({a, b}).second) continue;
        cut_pairs_.insert({b, a});
        net_->SetLinkDown(a, b, true);
      }
    }
    stats_.partitions++;
  }

  void HealPartition() override {
    if (cut_pairs_.empty()) return;
    for (const auto& [a, b] : cut_pairs_) net_->SetLinkDown(a, b, false);
    cut_pairs_.clear();
    stats_.heals++;
  }

  void ShapeLink(NodeId a, NodeId b, LinkShape shape) override {
    net_->SetLinkShape(a, b, shape);
  }

  void ClearShaping() override { net_->ClearLinkShapes(); }

  bool IsUnreachable(NodeId from, NodeId to) const override {
    return crashed_.count(from) != 0 || crashed_.count(to) != 0 ||
           cut_pairs_.count({from, to}) != 0;
  }

  FaultStats stats() const override {
    FaultStats s = stats_;
    const NetworkStats& n = net_->stats();
    s.cut_drops = n.cut_drops;
    s.shape_drops = n.shape_drops;
    s.shape_delays = n.shape_delays;
    return s;
  }

 private:
  SimNetwork* net_;
  std::set<NodeId> crashed_;
  std::set<std::pair<NodeId, NodeId>> cut_pairs_;
  FaultStats stats_;
};

SimRuntime::SimRuntime(uint64_t seed, const NetworkConfig& net_config)
    : sim_(seed) {
  net_ = std::make_unique<SimNetwork>(&sim_, net_config);
  exec_ = std::make_unique<SimExecutor>(&sim_);
  faults_ = std::make_unique<SimFaultPlane>(net_.get());
}

SimRuntime::~SimRuntime() = default;

Clock& SimRuntime::clock() { return *exec_; }

FaultPlane& SimRuntime::faults() { return *faults_; }

Executor* SimRuntime::ExecutorFor(NodeId id, ExecRole role) {
  (void)id;
  (void)role;
  return exec_.get();
}

Executor* SimRuntime::ControlExecutor() { return exec_.get(); }

Status SimRuntime::WaitUntil(SimTime timeout,
                             const std::function<bool()>& pred) {
  const SimTime deadline = sim_.now() + timeout;
  while (!pred()) {
    if (sim_.now() > deadline) {
      return Status::DeadlineExceeded("operation incomplete after pumping " +
                                      std::to_string(timeout) +
                                      "us of virtual time");
    }
    if (!sim_.Step()) {
      return Status::Unavailable(
          "simulation drained before the operation completed");
    }
  }
  return Status::OK();
}

}  // namespace wedge
