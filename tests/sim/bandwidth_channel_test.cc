#include "sim/bandwidth_channel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/process.h"

namespace portus::sim {
namespace {

using namespace std::chrono_literals;

Process xfer(Engine& eng, BandwidthChannel& ch, Bytes bytes, Bandwidth cap, Time& done_at) {
  co_await ch.transfer(bytes, cap);
  done_at = eng.now();
  (void)eng;
}

double seconds(Time t) { return to_seconds(t); }

TEST(BandwidthChannelTest, SingleFlowRunsAtCapacity) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(10.0), "link"};
  Time done{};
  eng.spawn(xfer(eng, ch, 1_GB, Bandwidth::unlimited(), done));
  eng.run();
  EXPECT_NEAR(seconds(done), 0.1, 1e-9);
}

TEST(BandwidthChannelTest, PerFlowCapLimitsRate) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(12.5), "nic"};
  Time done{};
  // GPU BAR read cap: 5.8 GB/s even though the NIC could do 12.5.
  eng.spawn(xfer(eng, ch, 5.8_GB, Bandwidth::gb_per_sec(5.8), done));
  eng.run();
  EXPECT_NEAR(seconds(done), 1.0, 1e-6);
}

TEST(BandwidthChannelTest, TwoEqualFlowsShareFairly) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(10.0), "link"};
  Time d1{}, d2{};
  eng.spawn(xfer(eng, ch, 1_GB, Bandwidth::unlimited(), d1));
  eng.spawn(xfer(eng, ch, 1_GB, Bandwidth::unlimited(), d2));
  eng.run();
  // Both share 5 GB/s -> 0.2 s each.
  EXPECT_NEAR(seconds(d1), 0.2, 1e-6);
  EXPECT_NEAR(seconds(d2), 0.2, 1e-6);
}

TEST(BandwidthChannelTest, ShortFlowFinishesThenLongFlowSpeedsUp) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(10.0), "link"};
  Time small{}, large{};
  eng.spawn(xfer(eng, ch, 1_GB, Bandwidth::unlimited(), small));
  eng.spawn(xfer(eng, ch, 3_GB, Bandwidth::unlimited(), large));
  eng.run();
  // Phase 1: both at 5 GB/s. Small (1 GB) done at t=0.2 s; large has 2 GB
  // left, then runs at 10 GB/s -> +0.2 s => 0.4 s.
  EXPECT_NEAR(seconds(small), 0.2, 1e-6);
  EXPECT_NEAR(seconds(large), 0.4, 1e-6);
}

TEST(BandwidthChannelTest, LateArrivalSlowsExistingFlow) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(10.0), "link"};
  Time d1{}, d2{};
  eng.spawn(xfer(eng, ch, 2_GB, Bandwidth::unlimited(), d1));
  eng.schedule(from_seconds(0.1), [&] {
    eng.spawn(xfer(eng, ch, 1_GB, Bandwidth::unlimited(), d2));
  });
  eng.run();
  // Flow1 alone for 0.1 s (1 GB moved), then both share 5 GB/s and each has
  // exactly 1 GB left -> both complete at 0.3 s.
  EXPECT_NEAR(seconds(d1), 0.3, 1e-6);
  EXPECT_NEAR(seconds(d2), 0.3, 1e-6);
}

TEST(BandwidthChannelTest, CappedFlowLeavesResidualToOthers) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(12.0), "nic"};
  Time capped{}, uncapped{};
  // Capped flow takes 2 GB/s; the other gets the remaining 10 GB/s.
  eng.spawn(xfer(eng, ch, 2_GB, Bandwidth::gb_per_sec(2.0), capped));
  eng.spawn(xfer(eng, ch, 10_GB, Bandwidth::unlimited(), uncapped));
  eng.run();
  EXPECT_NEAR(seconds(capped), 1.0, 1e-6);
  EXPECT_NEAR(seconds(uncapped), 1.0, 1e-6);
}

TEST(BandwidthChannelTest, ZeroByteTransferIsImmediate) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(1.0), "link"};
  Time done{99s};
  eng.spawn(xfer(eng, ch, 0, Bandwidth::unlimited(), done));
  eng.run();
  EXPECT_EQ(done, Time{0ns});
}

TEST(BandwidthChannelTest, ConservesBytes) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(7.7), "link"};
  std::vector<Time> dones(7);
  Bytes total = 0;
  for (int i = 0; i < 7; ++i) {
    const Bytes n = (static_cast<Bytes>(i) + 1) * 123_MiB;
    total += n;
    eng.spawn(xfer(eng, ch, n, Bandwidth::unlimited(), dones[static_cast<std::size_t>(i)]));
  }
  eng.run();
  EXPECT_NEAR(ch.total_bytes_transferred(), static_cast<double>(total), 1.0);
  EXPECT_EQ(ch.active_flows(), 0);
}

Process late_xfer(Engine& eng, BandwidthChannel& ch, Duration delay, Bytes bytes, Bandwidth cap) {
  co_await eng.sleep(delay);
  co_await ch.transfer(bytes, cap);
}

// rate x elapsed leaves rounding residue on a flow that finishes; the
// finished-bytes count is the requested bytes, exactly.
TEST(BandwidthChannelTest, FinishedBytesSumExactlyOverManyOddConcurrentFlows) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(12.0), "link"};
  Bytes total = 0;
  for (int i = 0; i < 97; ++i) {
    const Bytes n = 1 + static_cast<Bytes>(i) * 7919 + static_cast<Bytes>(i % 5) * 104'729;
    total += n;
    const Bandwidth cap = i % 3 == 0 ? Bandwidth::gb_per_sec(5.8) : Bandwidth::unlimited();
    eng.spawn(late_xfer(eng, ch, Duration{(i % 11) * 1'337}, n, cap));
  }
  eng.run_until(Time{20'000});
  EXPECT_GT(ch.active_flows(), 0);
  EXPECT_LT(ch.bytes_finished(), total) << "a flow still running is not counted";
  eng.run();
  EXPECT_EQ(ch.active_flows(), 0);
  EXPECT_EQ(ch.bytes_finished(), total);
}

TEST(BandwidthChannelTest, AggregateNeverExceedsCapacity) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(10.0), "link"};
  std::vector<Time> dones(16);
  Bytes total = 0;
  for (int i = 0; i < 16; ++i) {
    const Bytes n = 1_GB;
    total += n;
    eng.spawn(xfer(eng, ch, n, Bandwidth::gb_per_sec(5.8), dones[static_cast<std::size_t>(i)]));
  }
  const Time end = eng.run();
  // 16 GB through a 10 GB/s link: lower-bounded by total/capacity.
  EXPECT_GE(seconds(end), static_cast<double>(total) / 10e9 - 1e-6);
  EXPECT_NEAR(seconds(end), 1.6, 1e-3);
}

// Parameterized: N identical concurrent flows complete at N * t_single.
class FairSharingTest : public ::testing::TestWithParam<int> {};

TEST_P(FairSharingTest, NIdenticalFlows) {
  const int n = GetParam();
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(8.0), "link"};
  std::vector<Time> dones(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    eng.spawn(xfer(eng, ch, 800_MB, Bandwidth::unlimited(), dones[static_cast<std::size_t>(i)]));
  }
  eng.run();
  const double expected = 0.1 * n;  // 800MB at 8GB/s = 0.1s alone
  for (const auto& d : dones) {
    EXPECT_NEAR(seconds(d), expected, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Flows, FairSharingTest, ::testing::Values(1, 2, 3, 4, 8, 16, 32));

TEST(BandwidthChannelTest, BusySecondsTracksUtilization) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(10.0), "link"};
  Time done{};
  eng.spawn(xfer(eng, ch, 1_GB, Bandwidth::gb_per_sec(5.0), done));
  eng.run();
  // 0.2s at half capacity = 0.1 busy-seconds.
  EXPECT_NEAR(ch.busy_seconds(), 0.1, 1e-6);
}

TEST(BandwidthChannelTest, UncontendedTimeHelper) {
  Engine eng;
  BandwidthChannel ch{eng, Bandwidth::gb_per_sec(10.0), "link"};
  EXPECT_EQ(ch.uncontended_time(1_GB), from_seconds(0.1));
  EXPECT_EQ(ch.uncontended_time(1_GB, Bandwidth::gb_per_sec(2.0)), from_seconds(0.5));
}

}  // namespace
}  // namespace portus::sim
