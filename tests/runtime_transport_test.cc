// Tests for the threaded runtime's channel primitive (BoundedMpscQueue)
// and the transport built on it: backpressure when an inbox fills,
// drain-on-close shutdown (accepted work is never silently dropped),
// per-channel in-order delivery, and the executor/timer surface of
// ThreadedRuntime itself.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/mpsc_queue.h"
#include "runtime/runtime.h"
#include "runtime/threaded_runtime.h"

namespace wedge {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ------------------------------------------------------ BoundedMpscQueue

TEST(MpscQueueTest, FifoOrderSingleProducer) {
  BoundedMpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TEST(MpscQueueTest, PerProducerOrderSurvivesInterleaving) {
  BoundedMpscQueue<std::pair<int, int>> q(256);
  std::thread a([&] {
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.Push({0, i}));
  });
  std::thread b([&] {
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.Push({1, i}));
  });
  a.join();
  b.join();
  int next_a = 0;
  int next_b = 0;
  for (int n = 0; n < 200; ++n) {
    auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    if (item->first == 0) {
      EXPECT_EQ(item->second, next_a++);
    } else {
      EXPECT_EQ(item->second, next_b++);
    }
  }
  EXPECT_EQ(next_a, 100);
  EXPECT_EQ(next_b, 100);
}

TEST(MpscQueueTest, FullQueueBlocksProducerUntilConsumerDrains) {
  BoundedMpscQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(3));  // must block until a slot frees
    third_pushed = true;
  });

  // The producer must still be parked on the full queue.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.size(), 2u);

  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(MpscQueueTest, CloseDrainsAcceptedItemsAndRefusesNewOnes) {
  BoundedMpscQueue<int> q(8);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();

  EXPECT_FALSE(q.Push(3)) << "pushes after Close must be refused";
  // ...but work accepted before Close still drains, in order.
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value()) << "closed and drained";
}

TEST(MpscQueueTest, CloseReleasesBlockedProducer) {
  BoundedMpscQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> released{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.Push(2)) << "close while blocked must drop the item";
    released = true;
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(released.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(released.load());
}

TEST(MpscQueueTest, PopUntilHonorsDeadline) {
  BoundedMpscQueue<int> q(4);
  const auto start = steady_clock::now();
  auto item = q.PopUntil(start + milliseconds(30));
  EXPECT_FALSE(item.has_value());
  EXPECT_GE(steady_clock::now() - start, milliseconds(25));
}

TEST(MpscQueueTest, NudgeWakesPopUntilEarly) {
  BoundedMpscQueue<int> q(4);
  std::promise<void> woke;
  std::thread consumer([&] {
    auto item = q.PopUntil(steady_clock::now() + std::chrono::seconds(10));
    EXPECT_FALSE(item.has_value());
    woke.set_value();
  });
  std::this_thread::sleep_for(milliseconds(20));
  q.Nudge();
  ASSERT_EQ(woke.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "Nudge must wake a PopUntil long before its deadline";
  consumer.join();
}

// ------------------------------------------------------- ThreadedRuntime

/// Endpoint recording everything it receives, with its own completion
/// signal (messages arrive on the receiver's worker thread).
struct Recorder : Endpoint {
  void OnMessage(NodeId from, Slice payload, SimTime) override {
    std::lock_guard<std::mutex> lock(mu);
    received.emplace_back(from,
                          Bytes(payload.data(), payload.data() + payload.size()));
    cv.notify_all();
  }

  size_t CountFor(NodeId from) {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const auto& [f, _] : received) n += (f == from);
    return n;
  }

  bool WaitForCount(size_t n, milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [&] { return received.size() >= n; });
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, Bytes>> received;
};

Bytes Tagged(uint8_t producer, uint8_t seq) { return Bytes{producer, seq}; }

TEST(ThreadedRuntimeTest, PerChannelDeliveryIsInOrder) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  Recorder receiver;
  // Executors must exist before Attach (the transport posts inbound
  // messages onto the receiver's executor).
  rt.ExecutorFor(1, ExecRole::kDedicated);
  Executor* sender_a = rt.ExecutorFor(2, ExecRole::kDedicated);
  Executor* sender_b = rt.ExecutorFor(3, ExecRole::kDedicated);
  rt.transport().Attach(1, Dc::kCalifornia, &receiver);

  constexpr int kEach = 50;
  // Each producer sends from its own worker thread; FIFO inboxes make
  // delivery in-order per sender even though the two streams interleave.
  for (int i = 0; i < kEach; ++i) {
    sender_a->Post([&rt, i] {
      rt.transport().Send(2, 1, Tagged(2, static_cast<uint8_t>(i)));
    });
    sender_b->Post([&rt, i] {
      rt.transport().Send(3, 1, Tagged(3, static_cast<uint8_t>(i)));
    });
  }

  ASSERT_TRUE(receiver.WaitForCount(2 * kEach, std::chrono::seconds(10)));
  uint8_t next_a = 0;
  uint8_t next_b = 0;
  {
    std::lock_guard<std::mutex> lock(receiver.mu);
    for (const auto& [from, payload] : receiver.received) {
      ASSERT_EQ(payload.size(), 2u);
      if (from == 2) {
        EXPECT_EQ(payload[1], next_a++);
      } else {
        ASSERT_EQ(from, 3u);
        EXPECT_EQ(payload[1], next_b++);
      }
    }
  }
  EXPECT_EQ(next_a, kEach);
  EXPECT_EQ(next_b, kEach);
  rt.Shutdown();
}

TEST(ThreadedRuntimeTest, SendToDetachedNodeIsDropped) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  Recorder receiver;
  Executor* sender = rt.ExecutorFor(2, ExecRole::kDedicated);
  rt.ExecutorFor(1, ExecRole::kDedicated);
  rt.transport().Attach(1, Dc::kCalifornia, &receiver);
  rt.transport().Detach(1);

  std::promise<void> sent;
  sender->Post([&] {
    rt.transport().Send(2, 1, Bytes{1});  // dropped, like SimNetwork
    sent.set_value();
  });
  sent.get_future().wait();
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(receiver.CountFor(2), 0u);
  rt.Shutdown();
}

TEST(ThreadedRuntimeTest, AfterFiresAsWallClockTimer) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  Executor* exec = rt.ExecutorFor(1, ExecRole::kDedicated);
  const SimTime armed_at = exec->Now();
  std::promise<SimTime> fired;
  exec->After(20 * kMillisecond,
              [&fired, exec] { fired.set_value(exec->Now()); });
  auto f = fired.get_future();
  ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_GE(f.get() - armed_at, 20 * kMillisecond)
      << "protocol timers are honored as real delays under threads";
  rt.Shutdown();
}

TEST(ThreadedRuntimeTest, EarlierTimerArmedFromAnotherThreadFiresOnTime) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  Executor* exec = rt.ExecutorFor(1, ExecRole::kDedicated);
  auto fired_within = [](std::promise<void>& p, milliseconds limit,
                         steady_clock::time_point start) {
    return p.get_future().wait_for(std::chrono::seconds(5)) ==
               std::future_status::ready &&
           steady_clock::now() - start < limit;
  };

  // A worker with no timers idles in a long wait; a timer armed from
  // this thread must cut it short.
  std::this_thread::sleep_for(milliseconds(20));
  std::promise<void> from_idle;
  auto start = steady_clock::now();
  exec->After(20 * kMillisecond, [&from_idle] { from_idle.set_value(); });
  EXPECT_TRUE(fired_within(from_idle, milliseconds(500), start));

  // The same for a worker waiting on a far-off head timer, whether the
  // nearer timer is armed from this thread or on the worker's own.
  exec->After(30 * kSecond, [] {});
  std::this_thread::sleep_for(milliseconds(20));
  std::promise<void> cross;
  std::promise<void> own;
  start = steady_clock::now();
  exec->After(20 * kMillisecond, [&cross] { cross.set_value(); });
  exec->Post([exec, &own] {
    exec->After(40 * kMillisecond, [&own] { own.set_value(); });
  });
  EXPECT_TRUE(fired_within(cross, milliseconds(500), start));
  EXPECT_TRUE(fired_within(own, milliseconds(500), start));
  rt.Shutdown();
}

TEST(ThreadedRuntimeTest, ChargeRunsWithoutModeledDelay) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  Executor* exec = rt.ExecutorFor(1, ExecRole::kDedicated);
  std::promise<void> ran;
  // A CostModel charge of a full virtual second must NOT translate into
  // a wall-clock delay: real compute replaces modeled compute.
  const auto start = steady_clock::now();
  exec->Charge(1 * kSecond, [&ran] { ran.set_value(); });
  ASSERT_EQ(ran.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(1));
  rt.Shutdown();
}

TEST(ThreadedRuntimeTest, ShutdownDrainsAcceptedTasks) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  Executor* exec = rt.ExecutorFor(1, ExecRole::kDedicated);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    exec->Post([&ran] { ran++; });
  }
  rt.Shutdown();  // closes inboxes, then joins: accepted tasks drain
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadedRuntimeTest, WaitUntilTimesOutInWallTime) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  const auto start = steady_clock::now();
  Status s = rt.WaitUntil(30 * kMillisecond, [] { return false; });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  EXPECT_GE(steady_clock::now() - start, milliseconds(25));
  rt.Shutdown();
}

TEST(ThreadedRuntimeTest, WaitUntilReportsShutdownAsUnavailable) {
  ThreadedRuntime rt{RuntimeConfig{RuntimeKind::kThreaded}};
  rt.Shutdown();
  Status s = rt.WaitUntil(kSecond, [] { return false; });
  EXPECT_TRUE(s.IsUnavailable()) << s;
}

}  // namespace
}  // namespace wedge
