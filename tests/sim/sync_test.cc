#include "sim/sync.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace portus::sim {
namespace {

using namespace std::chrono_literals;

// --- SimMutex ---------------------------------------------------------------

Process critical_section(Engine& eng, SimMutex& mu, std::vector<int>& order, int id,
                         Duration hold) {
  auto guard = co_await mu.lock();
  order.push_back(id);
  co_await eng.sleep(hold);
  order.push_back(id + 100);
}

TEST(SimMutexTest, SerializesCriticalSections) {
  Engine eng;
  SimMutex mu{eng};
  std::vector<int> order;
  eng.spawn(critical_section(eng, mu, order, 1, 10ns));
  eng.spawn(critical_section(eng, mu, order, 2, 10ns));
  eng.spawn(critical_section(eng, mu, order, 3, 10ns));
  eng.run();
  // Enter/exit pairs must never interleave.
  EXPECT_EQ(order, (std::vector<int>{1, 101, 2, 102, 3, 103}));
}

TEST(SimMutexTest, FifoFairness) {
  Engine eng;
  SimMutex mu{eng};
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.spawn(critical_section(eng, mu, order, i, 5ns));
  }
  eng.run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(2 * i)], i);
  }
}

Process lock_released_early(Engine& eng, SimMutex& mu, bool& second_ran) {
  {
    auto guard = co_await mu.lock();
    co_await eng.sleep(10ns);
  }  // guard released here
  co_await eng.sleep(100ns);
  second_ran = mu.locked() || second_ran;
}

TEST(SimMutexTest, GuardReleasesOnScopeExit) {
  Engine eng;
  SimMutex mu{eng};
  bool dummy = false;
  eng.spawn(lock_released_early(eng, mu, dummy));
  eng.run();
  EXPECT_FALSE(mu.locked());
}

// --- SimSemaphore -----------------------------------------------------------

Process sem_worker(Engine& eng, SimSemaphore& sem, int& concurrent, int& peak) {
  co_await sem.acquire();
  ++concurrent;
  peak = std::max(peak, concurrent);
  co_await eng.sleep(10ns);
  --concurrent;
  sem.release();
}

TEST(SimSemaphoreTest, BoundsConcurrency) {
  Engine eng;
  SimSemaphore sem{eng, 3};
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 10; ++i) {
    eng.spawn(sem_worker(eng, sem, concurrent, peak));
  }
  eng.run();
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(concurrent, 0);
  EXPECT_EQ(sem.available(), 3);
}

Process permit_worker(Engine& eng, SimSemaphore& sem, int& concurrent, int& peak,
                      bool fail) {
  const auto permit = co_await sem.permit();
  ++concurrent;
  peak = std::max(peak, concurrent);
  co_await eng.sleep(10ns);
  --concurrent;
  if (fail) throw Corruption("worker failed while holding its permit");
}

TEST(SimSemaphoreTest, PermitReleasesOnEveryExitPath) {
  Engine eng;
  SimSemaphore sem{eng, 2};
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    eng.spawn(permit_worker(eng, sem, concurrent, peak, /*fail=*/i % 2 == 0));
  }
  eng.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(eng.failed_process_count(), 3);
  EXPECT_EQ(sem.available(), 2) << "a throwing holder leaked its permit";
}

TEST(SimSemaphoreTest, ReleaseWithoutWaitersIncrementsCount) {
  Engine eng;
  SimSemaphore sem{eng, 0};
  sem.release(5);
  EXPECT_EQ(sem.available(), 5);
}

Process prioritized_waiter(Engine& eng, SimSemaphore& sem, std::uint64_t priority, int id,
                           std::vector<int>& order) {
  const auto permit = co_await sem.permit(priority);
  order.push_back(id);
  co_await eng.sleep(10ns);
}

// Waiters queued behind a holder in the order of `priorities`; returns the
// order (by index) they got the token in.
std::vector<int> service_order(const std::vector<std::uint64_t>& priorities) {
  Engine eng;
  SimSemaphore sem{eng, 1};
  std::vector<int> order;
  eng.spawn(prioritized_waiter(eng, sem, 0, -1, order));  // holds the token first
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    eng.spawn(prioritized_waiter(eng, sem, priorities[i], static_cast<int>(i), order));
  }
  eng.run();
  EXPECT_EQ(sem.available(), 1);
  order.erase(order.begin());
  return order;
}

TEST(SimSemaphoreTest, ServesTheSmallestPriorityFirstInArrivalOrderAmongEquals) {
  EXPECT_EQ(service_order({5, 3, 5, 1, 3, 0}), (std::vector<int>{5, 3, 1, 4, 0, 2}));
}

TEST(SimSemaphoreTest, EqualPrioritiesKeepArrivalOrder) {
  EXPECT_EQ(service_order({7, 7, 7, 7, 7}), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(service_order({0, 0, 0, 0}), (std::vector<int>{0, 1, 2, 3}));
}

// Holds the token at priority 10, then offers it at `offer` once `waiter`
// (priority `waiter_priority`) has queued; records whether the hand-over
// suspended and who ran when.
Process handing_holder(Engine& eng, SimSemaphore& sem, std::uint64_t offer,
                       std::vector<std::string>& log, bool& handed, std::uint64_t& events) {
  auto permit = co_await sem.permit(10);
  co_await eng.sleep(10ns);  // the waiter queues meanwhile
  const auto before = eng.events_processed();
  handed = co_await permit.hand_over(offer);
  events = eng.events_processed() - before;
  log.push_back("holder");
  co_await eng.sleep(10ns);
}

Process logged_waiter(Engine& eng, SimSemaphore& sem, std::uint64_t priority,
                      std::vector<std::string>& log) {
  co_await eng.sleep(5ns);
  const auto permit = co_await sem.permit(priority);
  log.push_back("waiter");
  co_await eng.sleep(10ns);
}

TEST(SimSemaphoreTest, HandOverGoesOnlyToAStrictlySmallerWaiter) {
  struct Case {
    std::uint64_t waiter;
    std::uint64_t offer;
    bool hands_over;
  };
  for (const Case c : {Case{4, 5, true}, Case{5, 5, false}, Case{6, 5, false}}) {
    SCOPED_TRACE(c.waiter);
    Engine eng;
    SimSemaphore sem{eng, 1};
    std::vector<std::string> log;
    bool handed = !c.hands_over;
    std::uint64_t events = 99;
    eng.spawn(handing_holder(eng, sem, c.offer, log, handed, events));
    eng.spawn(logged_waiter(eng, sem, c.waiter, log));
    eng.run();
    EXPECT_EQ(handed, c.hands_over);
    if (c.hands_over) {
      EXPECT_EQ(log, (std::vector<std::string>{"waiter", "holder"}));
      EXPECT_GT(events, 0u);
    } else {
      EXPECT_EQ(log, (std::vector<std::string>{"holder", "waiter"}));
      EXPECT_EQ(events, 0u) << "a hand-over with no smaller waiter suspended";
    }
    EXPECT_EQ(sem.available(), 1);
    EXPECT_EQ(eng.failed_process_count(), 0);
  }
}

// A holder that offers its token at every step of `steps`, throwing after
// the hand-overs when `fail` is set; tracks how many hold a token at once.
Process lending_holder(Engine& eng, SimSemaphore& sem, std::uint64_t priority, int steps,
                       bool fail, int& holding, int& peak, int& handed) {
  auto permit = co_await sem.permit(priority);
  for (int i = 0; i < steps; ++i) {
    ++holding;
    peak = std::max(peak, holding);
    co_await eng.sleep(7ns);
    --holding;
    if (co_await permit.hand_over(priority - static_cast<std::uint64_t>(i))) ++handed;
  }
  if (fail) throw Corruption("holder failed after its hand-overs");
}

TEST(SimSemaphoreTest, HandOversAndThrowingHoldersKeepTheTokenCountBalanced) {
  Engine eng;
  SimSemaphore sem{eng, 2};
  int holding = 0;
  int peak = 0;
  int handed = 0;
  int failing = 0;
  for (int i = 0; i < 12; ++i) {
    const bool fail = i % 3 == 0;
    failing += fail ? 1 : 0;
    eng.spawn(lending_holder(eng, sem, 100 - 5 * static_cast<std::uint64_t>(i), 6, fail,
                             holding, peak, handed));
  }
  eng.run();
  EXPECT_GT(handed, 0);
  EXPECT_EQ(peak, 2) << "a hand-over invented a token";
  EXPECT_EQ(holding, 0);
  EXPECT_EQ(eng.failed_process_count(), failing);
  EXPECT_EQ(sem.available(), 2) << "a hand-over or a throwing holder leaked a token";
}

// --- SimEvent ---------------------------------------------------------------

Process event_waiter(Engine& eng, SimEvent& ev, Time& resumed_at) {
  co_await ev.wait();
  resumed_at = eng.now();
}

TEST(SimEventTest, BroadcastWakesAllWaiters) {
  Engine eng;
  SimEvent ev{eng};
  Time t1{}, t2{}, t3{};
  eng.spawn(event_waiter(eng, ev, t1));
  eng.spawn(event_waiter(eng, ev, t2));
  eng.spawn(event_waiter(eng, ev, t3));
  eng.schedule(500ns, [&] { ev.set(); });
  eng.run();
  EXPECT_EQ(t1, Time{500ns});
  EXPECT_EQ(t2, Time{500ns});
  EXPECT_EQ(t3, Time{500ns});
}

TEST(SimEventTest, WaitAfterSetIsImmediate) {
  Engine eng;
  SimEvent ev{eng};
  ev.set();
  Time t{123ns};
  eng.spawn(event_waiter(eng, ev, t));
  eng.run();
  EXPECT_EQ(t, Time{0ns});
}

// --- Channel ----------------------------------------------------------------

Process producer(Engine& eng, Channel<int>& ch, int n, Duration gap) {
  for (int i = 0; i < n; ++i) {
    co_await ch.send(i);
    co_await eng.sleep(gap);
  }
  ch.close();
}

Process consumer(Engine&, Channel<int>& ch, std::vector<int>& out) {
  try {
    for (;;) {
      out.push_back(co_await ch.recv());
    }
  } catch (const Disconnected&) {
  }
}

TEST(ChannelTest, FifoDelivery) {
  Engine eng;
  Channel<int> ch{eng};
  std::vector<int> got;
  eng.spawn(producer(eng, ch, 10, 5ns));
  eng.spawn(consumer(eng, ch, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(eng.failed_process_count(), 0);
}

TEST(ChannelTest, ReceiverBlocksUntilSend) {
  Engine eng;
  Channel<int> ch{eng};
  std::vector<int> got;
  eng.spawn(consumer(eng, ch, got));
  eng.schedule(100ns, [&] { ch.push(42); });
  eng.schedule(200ns, [&] { ch.close(); });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{42}));
}

Process bounded_producer(Engine& eng, Channel<int>& ch, int n, std::vector<Time>& sent_at) {
  for (int i = 0; i < n; ++i) {
    co_await ch.send(i);
    sent_at.push_back(eng.now());
  }
  ch.close();
}

Process slow_consumer(Engine& eng, Channel<int>& ch, std::vector<int>& out) {
  try {
    for (;;) {
      out.push_back(co_await ch.recv());
      co_await eng.sleep(100ns);
    }
  } catch (const Disconnected&) {
  }
}

TEST(ChannelTest, BoundedChannelBackpressuresSender) {
  Engine eng;
  Channel<int> ch{eng, 2};
  std::vector<Time> sent_at;
  std::vector<int> got;
  eng.spawn(bounded_producer(eng, ch, 6, sent_at));
  eng.spawn(slow_consumer(eng, ch, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(sent_at.size(), 6u);
  // The first sends fill the buffer immediately; later ones wait on space,
  // which only appears every 100ns as the slow consumer drains.
  EXPECT_EQ(sent_at[0], Time{0ns});
  EXPECT_GE(sent_at[5], Time{300ns});
}

TEST(ChannelTest, MultipleConsumersEachGetOneItem) {
  Engine eng;
  Channel<int> ch{eng};
  std::vector<int> a, b;
  eng.spawn(consumer(eng, ch, a));
  eng.spawn(consumer(eng, ch, b));
  eng.schedule(10ns, [&] {
    ch.push(1);
    ch.push(2);
  });
  eng.schedule(20ns, [&] { ch.close(); });
  eng.run();
  EXPECT_EQ(a.size() + b.size(), 2u);
  EXPECT_EQ(a.size(), 1u) << "FIFO waiter order should hand one item to each";
}

TEST(ChannelTest, SendOnClosedChannelThrows) {
  Engine eng;
  Channel<int> ch{eng};
  ch.close();
  bool threw = false;
  eng.spawn([](Engine&, Channel<int>& c, bool& t) -> Process {
    try {
      co_await c.send(1);
    } catch (const Disconnected&) {
      t = true;
    }
  }(eng, ch, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

TEST(ChannelTest, CloseWakesBlockedReceivers) {
  Engine eng;
  Channel<int> ch{eng};
  std::vector<int> got;
  eng.spawn(consumer(eng, ch, got));
  eng.spawn(consumer(eng, ch, got));
  eng.schedule(50ns, [&] { ch.close(); });
  eng.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(eng.failed_process_count(), 0);
}

TEST(ChannelTest, MoveOnlyPayload) {
  Engine eng;
  Channel<std::unique_ptr<std::string>> ch{eng};
  std::string got;
  eng.spawn([](Engine&, Channel<std::unique_ptr<std::string>>& c, std::string& out) -> Process {
    auto v = co_await c.recv();
    out = *v;
  }(eng, ch, got));
  eng.schedule(1ns, [&] { ch.push(std::make_unique<std::string>("zero-copy")); });
  eng.run();
  EXPECT_EQ(got, "zero-copy");
}

}  // namespace
}  // namespace portus::sim
