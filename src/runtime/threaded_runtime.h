// ThreadedRuntime: the runtime seam on real threads and wall-clock time.
//
// Thread model:
//  - every kDedicated executor (edge nodes, the cloud, the control plane)
//    gets its own worker thread;
//  - kPooled executors (clients) are multiplexed round-robin onto a
//    shared driver pool of `RuntimeConfig::driver_pool_threads` workers.
//
// Each worker owns a bounded MPSC inbox (runtime/mpsc_queue.h). A node's
// state stays single-threaded without locks because everything it runs —
// delivered messages, timers, posted entry calls — goes through its one
// worker. Cross-node Send() is a Post onto the receiver's inbox, giving
// per-sender FIFO delivery and backpressure when a node falls behind.
//
// Time is wall-clock microseconds since runtime construction. CostModel
// charges (Executor::Charge, Lane costs) are no-delay pass-throughs: the
// real SHA-256/HMAC work already ran inline on the worker. Protocol
// timers (Executor::After — proof timeouts, retry backoffs) are honored as
// wall time via each worker's timer heap. See DESIGN.md §Runtime.
//
// Failure injection runs through the same FaultPlane seam as the
// simulator (Runtime::faults()): ThreadedTransport::Send consults the
// plane per message, dropping across crashes/partitions (counted in
// TransportStats::dropped) and adding shaped per-link delay via the
// receiver's timer wheel. Geography is opt-in: RuntimeConfig::wan
// supplies a per-Dc-pair latency matrix (plus jitter) that Send adds to
// every cross-node delivery, keyed by the Dc each node attached with —
// so the paper's geo scenarios run on real threads too.
//
// With RuntimeConfig::socket.enabled the runtime swaps the in-process
// transport for a SocketTransport (runtime/socket_transport.h): frames
// traverse real TCP connections (possibly to other processes), with the
// same fault-plane and WAN semantics applied at the socket boundary.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/mpsc_queue.h"
#include "runtime/runtime.h"

namespace wedge {

class ThreadedRuntime;

namespace internal {

/// One worker thread: bounded inbox, unbounded self-post deque (posts
/// from the worker's own thread must never block on its own full inbox),
/// and a wall-clock timer heap.
class Worker {
 public:
  using Task = std::function<void()>;
  using TimePoint = std::chrono::steady_clock::time_point;

  Worker(size_t inbox_capacity, TimePoint epoch);
  ~Worker();

  /// Enqueues `fn`; blocks on a full inbox (backpressure) unless called
  /// from this worker's own thread, where it goes to the self deque.
  /// Silently dropped after Close().
  void Post(Task fn);

  /// Enqueues `fn` behind the inbox's queued tasks, so it runs after
  /// them and after the continuations they post. From another thread
  /// this is Post.
  void PostBehindInbox(Task fn);

  /// Arms a timer `delay` wall-microseconds from now.
  void After(SimTime delay, Task fn);

  /// Wall-clock microseconds since the runtime epoch.
  SimTime Now() const;

  /// Refuses new work; the thread drains accepted tasks, drops pending
  /// timers, and exits.
  void Close();
  void Join();

 private:
  void Run();
  void DrainSelf();
  void FireDueTimers();

  const TimePoint epoch_;
  BoundedMpscQueue<Task> inbox_;
  std::deque<Task> self_;  // worker-thread-only; no lock

  std::mutex timer_mu_;
  std::multimap<TimePoint, Task> timers_;

  std::thread thread_;
};

}  // namespace internal

/// The fault plane on real threads: crash/partition/shape state behind
/// one mutex, consulted by ThreadedTransport::Send per message. Shaping
/// randomness comes from a plane-local LCG, so drop sequences are
/// reproducible per plane (though thread interleaving is not).
class ThreadedFaultPlane : public FaultPlane {
 public:
  /// Verdict for one message: drop it (already counted) or deliver it
  /// after `delay` extra wall-microseconds.
  struct SendPlan {
    bool drop = false;
    SimTime delay = 0;
  };
  SendPlan PlanSend(NodeId from, NodeId to);

  void CrashNode(NodeId node) override;
  void RestartNode(NodeId node) override;
  bool IsCrashed(NodeId node) const override;
  void Partition(const std::vector<NodeId>& side_a,
                 const std::vector<NodeId>& side_b) override;
  void HealPartition() override;
  void ShapeLink(NodeId a, NodeId b, LinkShape shape) override;
  void ClearShaping() override;
  bool IsUnreachable(NodeId from, NodeId to) const override;
  FaultStats stats() const override;

 private:
  double NextDouble();  // callers hold mu_

  mutable std::mutex mu_;
  std::set<NodeId> crashed_;
  std::set<std::pair<NodeId, NodeId>> cut_pairs_;
  std::map<std::pair<NodeId, NodeId>, LinkShape> shaped_;
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
  FaultStats stats_;
};

/// Message channels over worker inboxes. Attach() requires the node's
/// executor to exist already (ThreadedRuntime::ExecutorFor binds it).
/// The `Dc` each node attaches with keys the optional WAN latency
/// matrix (RuntimeConfig::wan).
class ThreadedTransport : public Transport {
 public:
  explicit ThreadedTransport(ThreadedRuntime* rt) : rt_(rt) {}

  void Attach(NodeId id, Dc location, Endpoint* endpoint) override;
  void Detach(NodeId id) override;
  void Send(NodeId from, NodeId to, Bytes payload) override;
  SimTime Now() const override;
  void After(SimTime delay, std::function<void()> fn) override;
  TransportStats stats_snapshot() const override;

 private:
  friend class ThreadedRuntime;

  struct Binding {
    Executor* exec = nullptr;
    Endpoint* endpoint = nullptr;
    Dc dc = Dc::kCalifornia;
  };

  /// WAN one-way delay from->to plus uniform jitter; 0 when the matrix
  /// is disabled. Caller holds mu_.
  SimTime WanDelayLocked(Dc from, Dc to);

  ThreadedRuntime* rt_;
  mutable std::mutex mu_;
  std::unordered_map<NodeId, Binding> bindings_;
  uint64_t wan_rng_ = 0x51d6a4f35b9ec2d7ull;  // guarded by mu_

  /// Delivery counters, atomic so Send (any worker) and stats_snapshot
  /// (the driving thread) never contend on mu_ for bookkeeping.
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> dropped_{0};
};

class SocketTransport;

class ThreadedRuntime : public Runtime {
 public:
  explicit ThreadedRuntime(const RuntimeConfig& config);
  ~ThreadedRuntime() override;

  RuntimeKind kind() const override { return RuntimeKind::kThreaded; }
  Transport& transport() override;
  Clock& clock() override;
  SimTime Now() const override;
  FaultPlane& faults() override { return faults_; }

  Executor* ExecutorFor(NodeId id, ExecRole role) override;
  Executor* ControlExecutor() override;

  /// Sleeps the calling thread for `duration` wall-microseconds while
  /// worker threads make progress.
  void RunFor(SimTime duration) override;

  Status WaitUntil(SimTime timeout,
                   const std::function<bool()>& pred) override;
  void RunOnCompletion(std::function<void()> fn) override;

  /// Closes every inbox, drains accepted work, joins all threads.
  /// Idempotent. Must run before nodes are destroyed; Deployment
  /// destructors call it.
  void Shutdown() override;

  /// The socket transport, when RuntimeConfig::socket.enabled; null on
  /// in-process deployments. Exposes listen_port() for ephemeral-port
  /// bootstraps.
  SocketTransport* socket_transport() { return socket_.get(); }

 private:
  friend class ThreadedTransport;
  friend class SocketTransport;
  class ThreadedExecutor;

  internal::Worker* PoolWorker();

  const std::chrono::steady_clock::time_point epoch_;
  const RuntimeConfig config_;
  ThreadedTransport transport_;
  std::unique_ptr<SocketTransport> socket_;
  ThreadedFaultPlane faults_;

  std::mutex mu_;  // guards workers_/pool_/executors_/next_pool_/shut_down_
  std::vector<std::unique_ptr<internal::Worker>> workers_;
  std::vector<internal::Worker*> pool_;
  size_t next_pool_ = 0;
  std::unordered_map<NodeId, std::unique_ptr<ThreadedExecutor>> executors_;
  std::unique_ptr<ThreadedExecutor> control_;
  bool shut_down_ = false;

  std::mutex completion_mu_;
  std::condition_variable completion_cv_;
};

}  // namespace wedge
