// Workload-driver tests: closed-loop turnover, latency windows, retry
// accounting and re-routing, think-time pacing, and the retry sweep's
// exact re-send instants and order.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::LoadClient;

class LoadClientTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }
};

TEST_F(LoadClientTest, ClosedLoopKeepsOneCommandPerThread) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  cluster.add_replica(1, {s1});
  LoadClient::Config cfg;
  cfg.threads = 3;
  cfg.payload_bytes = 64;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(2 * kSecond);
  // Completions are bounded by threads / RTT and latency is recorded for
  // each of them.
  EXPECT_GT(client->completed(), 100u);
  EXPECT_EQ(client->latency().count(), client->completed());
  EXPECT_GT(client->latency_timer().window_count(), 0u);
}

TEST_F(LoadClientTest, ThinkTimeLowersOfferedLoad) {
  auto run_with_think = [](Tick think) {
    Cluster cluster;
    const auto s1 = cluster.add_stream();
    cluster.add_replica(1, {s1});
    LoadClient::Config cfg;
    cfg.threads = 4;
    cfg.payload_bytes = 64;
    cfg.think_time = think;
    cfg.route = [s1] { return s1; };
    auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
    client->start();
    cluster.run_for(5 * kSecond);
    return client->completed();
  };
  const uint64_t eager = run_with_think(0);
  const uint64_t lazy = run_with_think(50 * kMillisecond);
  EXPECT_GT(eager, 2 * lazy);
  // 4 threads at ~(50ms + RTT) per op over 5s.
  EXPECT_NEAR(static_cast<double>(lazy), 4.0 * 5.0 / 0.054, 60.0);
}

TEST_F(LoadClientTest, RetriesRerouteThroughFreshDecision) {
  // Route to a dead stream first; after the retry timeout the route
  // lambda redirects to a live one — commands eventually complete.
  Cluster cluster;
  const auto dead = cluster.add_stream_after(3600 * kSecond);  // never up
  const auto live = cluster.add_stream();
  cluster.add_replica(1, {live});

  paxos::StreamId target = dead;
  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 64;
  cfg.retry_timeout = 300 * kMillisecond;
  cfg.route = [&target] { return target; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(1 * kSecond);
  EXPECT_EQ(client->completed(), 0u);
  target = live;
  cluster.run_for(2 * kSecond);
  EXPECT_GT(client->retries(), 0u);
  EXPECT_GT(client->completed(), 100u);
}

TEST_F(LoadClientTest, StopHaltsIssuance) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  cluster.add_replica(1, {s1});
  LoadClient::Config cfg;
  cfg.threads = 2;
  cfg.payload_bytes = 64;
  cfg.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), cfg);
  client->start();
  cluster.run_for(1 * kSecond);
  client->stop();
  const uint64_t at_stop = client->completed();
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(client->completed(), at_stop);
}

/// A LoadClient proposing to a FakeStream over a jitter-free 200 us
/// link, so each proposal arrives exactly 200 us after it was sent.
struct FakeStreamRig {
  static constexpr paxos::StreamId kStream = 1;

  FakeStreamRig(size_t threads, Tick retry_timeout) : cluster(options()) {
    server = cluster.spawn<testing::FakeStream>("stream");
    directory.add(paxos::StreamInfo{kStream, server->id(), {}});
    LoadClient::Config cfg;
    cfg.threads = threads;
    cfg.payload_bytes = 64;
    cfg.retry_timeout = retry_timeout;
    cfg.route = [] { return kStream; };
    client = cluster.spawn<LoadClient>("client", &directory, cfg);
  }

  static ClusterOptions options() {
    ClusterOptions o;
    o.link = {200 * kMicrosecond, 0};
    return o;
  }

  Cluster cluster;
  paxos::StreamDirectory directory;
  testing::FakeStream* server = nullptr;
  LoadClient* client = nullptr;
};

TEST_F(LoadClientTest, ResendsAtExactMultiplesOfTheRetryTimeout) {
  constexpr Tick kTimeout = 100 * kMillisecond;
  FakeStreamRig rig(4, kTimeout);
  // Id-dependent service times de-synchronise the threads' issue ticks.
  rig.server->reply_delay = [](uint64_t id) {
    return static_cast<Tick>(id % 7) * 130 * kMicrosecond;
  };
  rig.client->start();
  rig.cluster.run_for(50 * kMillisecond);
  rig.server->serving = false;  // the serving side goes silent
  rig.cluster.run_for(1 * kSecond);
  rig.client->stop();
  rig.cluster.run_for(1 * kMillisecond);  // re-sends still on the wire land

  std::set<Tick> first_sends;
  uint64_t resends = 0;
  size_t stuck = 0;
  for (const auto& [id, arrivals] : rig.server->arrivals) {
    resends += arrivals.size() - 1;
    if (arrivals.size() == 1) continue;
    ++stuck;
    first_sends.insert(arrivals[0]);
    EXPECT_GE(arrivals.size(), 10u) << id;
    for (size_t k = 1; k < arrivals.size(); ++k) {
      EXPECT_EQ(arrivals[k], arrivals[0] + static_cast<Tick>(k) * kTimeout)
          << "command " << id << ", re-send " << k;
    }
  }
  EXPECT_EQ(stuck, 4u) << "one unanswered command per thread";
  EXPECT_GT(first_sends.size(), 1u) << "threads were sent at different ticks";
  EXPECT_EQ(rig.client->retries(), resends);
}

TEST_F(LoadClientTest, SameTickDeadlinesResendInIssueOrder) {
  constexpr size_t kThreads = 5;
  FakeStreamRig rig(kThreads, 100 * kMillisecond);
  rig.server->serving = false;
  rig.client->start();  // every thread issues at the same tick
  rig.cluster.run_for(550 * kMillisecond);

  const auto& order = rig.server->arrival_order;
  ASSERT_EQ(order.size(), kThreads * 6) << "first sends plus five re-send rounds";
  const std::vector<uint64_t> issued(order.begin(), order.begin() + kThreads);
  EXPECT_TRUE(std::is_sorted(issued.begin(), issued.end())) << "ids grow in issue order";
  for (size_t round = 1; round < 6; ++round) {
    const std::vector<uint64_t> block(order.begin() + static_cast<long>(round * kThreads),
                                      order.begin() + static_cast<long>((round + 1) * kThreads));
    EXPECT_EQ(block, issued) << "round " << round;
    for (uint64_t id : block) {
      EXPECT_EQ(rig.server->arrivals.at(id)[round], rig.server->arrivals.at(issued[0])[round]);
    }
  }
}

TEST_F(LoadClientTest, StopEndsResendsAndIgnoresLateReplies) {
  FakeStreamRig rig(4, 20 * kMillisecond);
  // Slower than the timeout: every command is re-sent once before its
  // first reply lands, and replies are always in flight.
  rig.server->reply_delay = [](uint64_t) { return 30 * kMillisecond; };
  rig.client->start();
  rig.cluster.run_for(200 * kMillisecond);
  ASSERT_GT(rig.client->retries(), 0u);
  ASSERT_GT(rig.client->completed(), 0u);

  rig.client->stop();
  const Tick stopped_at = rig.cluster.now();
  const uint64_t completed = rig.client->completed();
  const uint64_t retries = rig.client->retries();
  const uint64_t replies = rig.server->replies_sent;
  rig.cluster.run_for(1 * kSecond);

  EXPECT_GT(rig.server->replies_sent, replies) << "replies in flight at stop() still arrive";
  EXPECT_EQ(rig.client->completed(), completed) << "but complete nothing";
  EXPECT_EQ(rig.client->retries(), retries);
  for (const auto& [id, arrivals] : rig.server->arrivals) {
    EXPECT_LE(arrivals.back(), stopped_at + 200 * kMicrosecond) << "re-send after stop(): " << id;
  }
}

TEST_F(LoadClientTest, FlatRingClusterSecondStaysOffTheFarHeap) {
  // Eight single-stream groups with an 8-thread client each (the flat8
  // benchmark shape). Retry deadlines lie 1 s out, far beyond the event
  // wheel's window; one sweep timer per client keeps them off the
  // overflow heap, where one timer per command would send ~1 in 8
  // events.
  ClusterOptions options;
  options.threads = 1;
  Cluster cluster(options);
  for (uint32_t s = 0; s < 8; ++s) {
    const auto stream = cluster.add_stream();
    cluster.add_replica(s + 1, {stream});
    LoadClient::Config cfg;
    cfg.threads = 8;
    cfg.payload_bytes = 1024;
    cfg.route = [stream] { return stream; };
    cluster.spawn<LoadClient>(testing::numbered("client", s + 1), &cluster.directory(), cfg)
        ->start();
  }
  cluster.run_for(1 * kSecond);
  sim::Simulation& sim = cluster.sim();
  const uint64_t far_before = sim.event_queue().far_inserts();
  const uint64_t events_before = sim.events_processed();
  cluster.run_for(1 * kSecond);
  const auto far = static_cast<double>(sim.event_queue().far_inserts() - far_before);
  const auto events = static_cast<double>(sim.events_processed() - events_before);
  ASSERT_GT(events, 100000.0);
  EXPECT_LE(far, 0.02 * events);
}

}  // namespace
}  // namespace epx
