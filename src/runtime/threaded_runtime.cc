#include "runtime/threaded_runtime.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "runtime/socket_transport.h"

namespace wedge {
namespace internal {

namespace {
/// The worker whose thread is currently executing, so Post() can detect
/// self-posts and route them past the bounded inbox (a worker blocking
/// on its own full inbox would deadlock).
thread_local Worker* g_current_worker = nullptr;
}  // namespace

Worker::Worker(size_t inbox_capacity, TimePoint epoch)
    : epoch_(epoch), inbox_(inbox_capacity) {
  thread_ = std::thread([this] { Run(); });
}

Worker::~Worker() {
  Close();
  Join();
}

void Worker::Post(Task fn) {
  if (g_current_worker == this) {
    self_.push_back(std::move(fn));
    return;
  }
  inbox_.Push(std::move(fn));  // dropped if closed
}

void Worker::After(SimTime delay, Task fn) {
  const TimePoint at =
      std::chrono::steady_clock::now() + std::chrono::microseconds(delay);
  bool earliest;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    auto it = timers_.emplace(at, std::move(fn));
    earliest = it == timers_.begin();
  }
  // Only a new earliest timer can be due before the deadline the worker
  // waits on, and the worker's own thread re-reads the heap before it
  // next waits.
  if (earliest && g_current_worker != this) inbox_.Nudge();
}

void Worker::PostBehindInbox(Task fn) {
  if (g_current_worker != this) return Post(std::move(fn));
  // A full or closed inbox cannot take it; the self deque still runs it
  // without blocking this thread on its own inbox.
  if (!inbox_.TryPush(fn)) self_.push_back(std::move(fn));
}

SimTime Worker::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Worker::Close() { inbox_.Close(); }

void Worker::Join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::DrainSelf() {
  while (!self_.empty()) {
    Task fn = std::move(self_.front());
    self_.pop_front();
    fn();
  }
}

void Worker::FireDueTimers() {
  // Pending timers are dropped at shutdown: only accepted tasks drain.
  if (inbox_.closed()) return;
  for (;;) {
    Task fn;
    {
      std::lock_guard<std::mutex> lock(timer_mu_);
      if (timers_.empty()) return;
      auto it = timers_.begin();
      if (it->first > std::chrono::steady_clock::now()) return;
      fn = std::move(it->second);
      timers_.erase(it);
    }
    fn();
    DrainSelf();
  }
}

void Worker::Run() {
  g_current_worker = this;
  for (;;) {
    DrainSelf();
    FireDueTimers();
    DrainSelf();
    if (inbox_.closed() && inbox_.size() == 0 && self_.empty()) break;
    TimePoint deadline;
    {
      std::lock_guard<std::mutex> lock(timer_mu_);
      deadline = timers_.empty() ? std::chrono::steady_clock::now() +
                                       std::chrono::seconds(1)
                                 : timers_.begin()->first;
    }
    if (auto task = inbox_.PopUntil(deadline)) {
      (*task)();
    }
  }
  g_current_worker = nullptr;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// ThreadedFaultPlane

ThreadedFaultPlane::SendPlan ThreadedFaultPlane::PlanSend(NodeId from,
                                                          NodeId to) {
  SendPlan plan;
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.count(from) != 0 || crashed_.count(to) != 0 ||
      cut_pairs_.count({from, to}) != 0) {
    stats_.cut_drops++;
    plan.drop = true;
    return plan;
  }
  if (shaped_.empty()) return plan;
  auto it = shaped_.find({from, to});
  if (it == shaped_.end()) return plan;
  const LinkShape& shape = it->second;
  if (shape.drop_prob > 0 && NextDouble() < shape.drop_prob) {
    stats_.shape_drops++;
    plan.drop = true;
    return plan;
  }
  if (shape.extra_delay > 0) {
    SimTime extra = shape.extra_delay;
    if (shape.jitter_frac > 0) {
      double j = (NextDouble() * 2.0 - 1.0) * shape.jitter_frac;
      extra += static_cast<SimTime>(static_cast<double>(extra) * j);
    }
    plan.delay = extra;
    stats_.shape_delays++;
  }
  return plan;
}

void ThreadedFaultPlane::CrashNode(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!crashed_.insert(node).second) return;
  stats_.crashes++;
}

void ThreadedFaultPlane::RestartNode(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.erase(node) == 0) return;
  stats_.restarts++;
}

bool ThreadedFaultPlane::IsCrashed(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_.count(node) != 0;
}

void ThreadedFaultPlane::Partition(const std::vector<NodeId>& side_a,
                                   const std::vector<NodeId>& side_b) {
  std::lock_guard<std::mutex> lock(mu_);
  for (NodeId a : side_a) {
    for (NodeId b : side_b) {
      if (a == b) continue;
      cut_pairs_.insert({a, b});
      cut_pairs_.insert({b, a});
    }
  }
  stats_.partitions++;
}

void ThreadedFaultPlane::HealPartition() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cut_pairs_.empty()) return;
  cut_pairs_.clear();
  stats_.heals++;
}

void ThreadedFaultPlane::ShapeLink(NodeId a, NodeId b, LinkShape shape) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(a, b);
  if (shape.extra_delay == 0 && shape.drop_prob <= 0) {
    shaped_.erase(key);
  } else {
    shaped_[key] = shape;
  }
}

void ThreadedFaultPlane::ClearShaping() {
  std::lock_guard<std::mutex> lock(mu_);
  shaped_.clear();
}

bool ThreadedFaultPlane::IsUnreachable(NodeId from, NodeId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_.count(from) != 0 || crashed_.count(to) != 0 ||
         cut_pairs_.count({from, to}) != 0;
}

FaultStats ThreadedFaultPlane::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

double ThreadedFaultPlane::NextDouble() {
  rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(rng_state_ >> 11) /
         static_cast<double>(1ull << 53);
}

namespace {

/// Under threads the "charged" computation (hashing, verification)
/// already ran inline on the worker, so lane work is just a serialized
/// deferral to the owning executor — no added delay.
class ThreadedLane : public Lane {
 public:
  explicit ThreadedLane(internal::Worker* worker) : worker_(worker) {}

  void Execute(SimTime serial_cost, std::function<void()> fn) override {
    (void)serial_cost;
    worker_->Post(std::move(fn));
  }

  void ExecuteAfter(SimTime serial_cost, SimTime extra_latency,
                    std::function<void()> fn) override {
    (void)serial_cost;
    (void)extra_latency;
    worker_->Post(std::move(fn));
  }

 private:
  internal::Worker* worker_;
};

}  // namespace

class ThreadedRuntime::ThreadedExecutor : public Executor {
 public:
  explicit ThreadedExecutor(internal::Worker* worker) : worker_(worker) {}

  SimTime Now() const override { return worker_->Now(); }
  void Post(std::function<void()> fn) override {
    worker_->Post(std::move(fn));
  }
  void Defer(std::function<void()> fn) override {
    worker_->PostBehindInbox(std::move(fn));
  }
  void After(SimTime delay, std::function<void()> fn) override {
    worker_->After(delay, std::move(fn));
  }
  void Charge(SimTime cost, std::function<void()> fn) override {
    (void)cost;
    worker_->Post(std::move(fn));
  }
  std::unique_ptr<Lane> MakeLane() override {
    return std::make_unique<ThreadedLane>(worker_);
  }

 private:
  internal::Worker* worker_;
};

// ---------------------------------------------------------------------------
// ThreadedTransport

void ThreadedTransport::Attach(NodeId id, Dc location, Endpoint* endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bindings_.find(id);
  if (it == bindings_.end() || it->second.exec == nullptr) {
    std::fprintf(stderr,
                 "ThreadedTransport::Attach(node %u): no executor bound; "
                 "call Runtime::ExecutorFor before Transport::Attach\n",
                 id);
    std::abort();
  }
  it->second.endpoint = endpoint;
  it->second.dc = location;
}

SimTime ThreadedTransport::WanDelayLocked(Dc from, Dc to) {
  const WanConfig& wan = rt_->config_.wan;
  if (!wan.enabled) return 0;
  SimTime base = wan.matrix.OneWay(from, to);
  if (base <= 0) return 0;
  if (wan.jitter_frac > 0) {
    wan_rng_ = wan_rng_ * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(wan_rng_ >> 11) /
                     static_cast<double>(1ull << 53);
    base += static_cast<SimTime>(static_cast<double>(base) *
                                 (wan.jitter_frac * u));
  }
  return base;
}

void ThreadedTransport::Detach(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bindings_.find(id);
  if (it != bindings_.end()) it->second.endpoint = nullptr;
}

void ThreadedTransport::Send(NodeId from, NodeId to, Bytes payload) {
  // Fault-plane verdict first: a cut or shape-dropped message consumes
  // nothing downstream. The plane keeps the cause breakdown; we keep the
  // aggregate dropped counter (mirroring NetworkStats::dropped).
  const ThreadedFaultPlane::SendPlan plan = rt_->faults_.PlanSend(from, to);
  if (plan.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Binding binding;
  SimTime wan_delay = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bindings_.find(to);
    if (it == bindings_.end() || it->second.endpoint == nullptr) {
      // unknown or detached receiver: dropped, like SimNetwork
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    binding = it->second;
    auto from_it = bindings_.find(from);
    if (from_it != bindings_.end()) {
      wan_delay = WanDelayLocked(from_it->second.dc, binding.dc);
    }
  }
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  Endpoint* endpoint = binding.endpoint;
  ThreadedRuntime* rt = rt_;
  auto deliver = [endpoint, from, rt, payload = std::move(payload)] {
    endpoint->OnMessage(from, Slice(payload), rt->Now());
  };
  const SimTime delay = plan.delay + wan_delay;
  if (delay > 0) {
    // Shaped / WAN latency rides the receiver's timer wheel so delivery
    // still lands on the owning worker.
    binding.exec->After(delay, std::move(deliver));
  } else {
    binding.exec->Post(std::move(deliver));
  }
}

TransportStats ThreadedTransport::stats_snapshot() const {
  TransportStats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  return s;
}

SimTime ThreadedTransport::Now() const { return rt_->Now(); }

void ThreadedTransport::After(SimTime delay, std::function<void()> fn) {
  rt_->ControlExecutor()->After(delay, std::move(fn));
}

// ---------------------------------------------------------------------------
// ThreadedRuntime

ThreadedRuntime::ThreadedRuntime(const RuntimeConfig& config)
    : epoch_(std::chrono::steady_clock::now()),
      config_(config),
      transport_(this) {
  const size_t pool_size =
      config_.driver_pool_threads > 0 ? config_.driver_pool_threads : 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < pool_size; ++i) {
      workers_.push_back(
          std::make_unique<internal::Worker>(config_.inbox_capacity, epoch_));
      pool_.push_back(workers_.back().get());
    }
    workers_.push_back(
        std::make_unique<internal::Worker>(config_.inbox_capacity, epoch_));
    control_ = std::make_unique<ThreadedExecutor>(workers_.back().get());
  }
  if (config_.socket.enabled) {
    socket_ = std::make_unique<SocketTransport>(this);
  }
}

ThreadedRuntime::~ThreadedRuntime() { Shutdown(); }

Transport& ThreadedRuntime::transport() {
  if (socket_) return *socket_;
  return transport_;
}

Clock& ThreadedRuntime::clock() { return *control_; }

SimTime ThreadedRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

internal::Worker* ThreadedRuntime::PoolWorker() {
  internal::Worker* w = pool_[next_pool_ % pool_.size()];
  ++next_pool_;
  return w;
}

Executor* ThreadedRuntime::ExecutorFor(NodeId id, ExecRole role) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = executors_.find(id);
  if (it != executors_.end()) return it->second.get();

  internal::Worker* worker = nullptr;
  if (role == ExecRole::kDedicated) {
    workers_.push_back(
        std::make_unique<internal::Worker>(config_.inbox_capacity, epoch_));
    worker = workers_.back().get();
  } else {
    worker = PoolWorker();
  }
  auto exec = std::make_unique<ThreadedExecutor>(worker);
  Executor* raw = exec.get();
  executors_.emplace(id, std::move(exec));
  if (socket_) {
    socket_->BindExecutor(id, raw);
  } else {
    std::lock_guard<std::mutex> tlock(transport_.mu_);
    transport_.bindings_[id].exec = raw;
  }
  return raw;
}

Executor* ThreadedRuntime::ControlExecutor() { return control_.get(); }

void ThreadedRuntime::RunFor(SimTime duration) {
  if (duration > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(duration));
  }
}

Status ThreadedRuntime::WaitUntil(SimTime timeout,
                                  const std::function<bool()>& pred) {
  {
    std::unique_lock<std::mutex> lock(completion_mu_);
    const bool done = completion_cv_.wait_for(
        lock, std::chrono::microseconds(timeout), pred);
    if (done) return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      return Status::Unavailable(
          "runtime shut down before the operation completed");
    }
  }
  return Status::DeadlineExceeded("operation incomplete after " +
                                  std::to_string(timeout) +
                                  "us of wall time");
}

void ThreadedRuntime::RunOnCompletion(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    fn();
  }
  completion_cv_.notify_all();
}

void ThreadedRuntime::Shutdown() {
  std::vector<internal::Worker*> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    workers.reserve(workers_.size());
    for (auto& w : workers_) workers.push_back(w.get());
  }
  // Stop socket IO first: no new frames land on closing inboxes, and no
  // producer blocks on a socket that will never drain.
  if (socket_) socket_->Stop();
  // Close every inbox first (releases producers blocked on a full
  // inbox), then join: a worker blocked pushing into a peer's inbox is
  // unblocked by that peer's Close.
  for (auto* w : workers) w->Close();
  for (auto* w : workers) w->Join();
}

}  // namespace wedge
