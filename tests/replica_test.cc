// Replica-host unit tests: delivery dedup, reply policy, crash
// behaviour, and equivalence of the elastic merger with the static
// baseline when subscriptions never change.
#include <gtest/gtest.h>

#include "multicast/static_merger.h"
#include "tests/test_util.h"

namespace epx {
namespace {

using harness::Cluster;
using harness::LoadClient;

class ReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::init_logging(); }
};

/// Counts the replica replies addressed to it, per command id.
class ReplyProbe : public sim::Process {
 public:
  using Process::Process;
  uint64_t replies(uint64_t cmd_id) const {
    auto it = replies_.find(cmd_id);
    return it == replies_.end() ? 0 : it->second;
  }

 protected:
  void on_message(net::NodeId, const net::MessagePtr& msg) override {
    if (msg->type() != net::MsgType::kKvReply) return;
    ++replies_[static_cast<const multicast::ReplyMsg&>(*msg).command_id];
  }

 private:
  std::map<uint64_t, uint64_t> replies_;
};

/// One stream, one deduplicating replica with free apply, and a probe
/// standing in for the client; commands are proposed straight to the
/// coordinator.
struct DedupRig {
  DedupRig() : cluster(options()) {
    stream = cluster.add_stream();
    elastic::Replica::Config cfg;
    cfg.group = 1;
    cfg.initial_streams = {stream};
    cfg.params = cluster.options().params;
    cfg.apply_cpu_per_cmd = 0;
    cfg.dedup_deliveries = true;
    replica = cluster.add_replica(cfg);
    probe = cluster.spawn<ReplyProbe>("probe");
  }

  static harness::ClusterOptions options() {
    harness::ClusterOptions o;
    o.params.coord_cpu_per_cmd = 0;
    return o;
  }

  void propose(uint64_t cmd_id) {
    paxos::Command cmd;
    cmd.id = cmd_id;
    cmd.client = probe->id();
    cmd.payload_size = 16;
    cluster.controller().send(cluster.directory().get(stream).coordinator,
                              net::make_message<paxos::ClientProposeMsg>(stream, cmd));
  }

  /// Proposes `count` fresh ids (client 7, seq from `*next_seq`) in
  /// chunks, letting each chunk drain before the next.
  void propose_fresh(size_t count, uint32_t* next_seq) {
    while (count > 0) {
      const size_t chunk = std::min<size_t>(count, 4096);
      for (size_t i = 0; i < chunk; ++i) propose(paxos::make_command_id(7, (*next_seq)++));
      count -= chunk;
      cluster.run_for(50 * kMillisecond);
    }
    // Past the coordinator's dedup TTL, so a later re-proposal of an
    // old id is ordered again and reaches the replica.
    cluster.run_for(cluster.options().params.dedup_ttl + 100 * kMillisecond);
  }

  harness::Cluster cluster;
  paxos::StreamId stream = paxos::kInvalidStream;
  elastic::Replica* replica = nullptr;
  ReplyProbe* probe = nullptr;
};

TEST_F(ReplicaTest, DeliveryDedupSuppressesDuplicateOrderings) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  elastic::Replica::Config cfg;
  cfg.group = 1;
  cfg.initial_streams = {s1};
  cfg.params = cluster.options().params;
  cfg.dedup_deliveries = true;
  auto* r1 = cluster.add_replica(cfg);

  // Propose the same command id twice, spaced past the coordinator TTL
  // so both copies get ordered.
  paxos::Command cmd;
  cmd.id = paxos::make_command_id(5, 1);
  cmd.payload_size = 16;
  auto& controller = cluster.controller();
  const auto coord = cluster.directory().get(s1).coordinator;
  controller.send(coord, net::make_message<paxos::ClientProposeMsg>(s1, cmd));
  cluster.run_for(1 * kSecond);
  controller.send(coord, net::make_message<paxos::ClientProposeMsg>(s1, cmd));
  cluster.run_for(1 * kSecond);
  EXPECT_EQ(cluster.coordinator(s1)->commands_proposed(), 2u) << "both copies ordered";
  EXPECT_EQ(r1->delivered(), 1u) << "but delivered once";
}

TEST_F(ReplicaTest, DuplicateInsideWindowExecutesOnceAndIsReAcked) {
  DedupRig rig;
  const uint64_t x = paxos::make_command_id(5, 1);
  uint32_t seq = 1;
  rig.propose(x);
  rig.cluster.run_for(10 * kMillisecond);  // x is ordered before every fresh id
  rig.propose_fresh(100, &seq);
  rig.propose(x);  // the client's re-send, ordered a second time
  rig.cluster.run_for(1 * kSecond);
  EXPECT_EQ(rig.replica->delivered(), 101u) << "the duplicate does not execute";
  EXPECT_EQ(rig.probe->replies(x), 2u) << "but it is acknowledged again";
}

TEST_F(ReplicaTest, DedupForgetsAnIdAfterSeenWindowFirstSeenDeliveries) {
  // Pins the window's exact reach: an id is remembered across
  // kSeenWindow - 1 other first-seen deliveries and forgotten after
  // kSeenWindow of them, when a re-send executes a second time.
  constexpr size_t kWindow = elastic::Replica::kSeenWindow;
  DedupRig rig;
  const uint64_t x = paxos::make_command_id(5, 1);
  uint32_t seq = 1;
  rig.propose(x);
  rig.cluster.run_for(10 * kMillisecond);  // x is ordered before every fresh id
  rig.propose_fresh(kWindow - 1, &seq);
  rig.propose(x);
  rig.cluster.run_for(1 * kSecond);
  ASSERT_EQ(rig.replica->delivered(), kWindow) << "still inside the window: suppressed";
  EXPECT_EQ(rig.probe->replies(x), 2u);

  rig.propose_fresh(1, &seq);  // the kSeenWindow-th other id evicts x
  rig.propose(x);
  rig.cluster.run_for(1 * kSecond);
  EXPECT_EQ(rig.replica->delivered(), kWindow + 2) << "forgotten: executes again";
  EXPECT_EQ(rig.probe->replies(x), 3u);
}

TEST_F(ReplicaTest, DedupDisabledDeliversBothCopies) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  elastic::Replica::Config cfg;
  cfg.group = 1;
  cfg.initial_streams = {s1};
  cfg.params = cluster.options().params;
  cfg.dedup_deliveries = false;
  auto* r1 = cluster.add_replica(cfg);

  paxos::Command cmd;
  cmd.id = paxos::make_command_id(5, 1);
  cmd.payload_size = 16;
  const auto coord = cluster.directory().get(s1).coordinator;
  cluster.controller().send(coord, net::make_message<paxos::ClientProposeMsg>(s1, cmd));
  cluster.run_for(1 * kSecond);
  cluster.controller().send(coord, net::make_message<paxos::ClientProposeMsg>(s1, cmd));
  cluster.run_for(1 * kSecond);
  EXPECT_EQ(r1->delivered(), 2u);
}

TEST_F(ReplicaTest, RepliesOnlyWhenConfigured) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  elastic::Replica::Config cfg;
  cfg.group = 1;
  cfg.initial_streams = {s1};
  cfg.params = cluster.options().params;
  cfg.send_replies = false;  // app layer owns replies
  cluster.add_replica(cfg);

  LoadClient::Config lc;
  lc.threads = 1;
  lc.payload_bytes = 64;
  lc.retry_timeout = 3600 * kSecond;
  lc.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), lc);
  client->start();
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(client->completed(), 0u) << "no replica replies -> no completions";
}

TEST_F(ReplicaTest, CrashStopsDeliveryPermanently) {
  Cluster cluster;
  const auto s1 = cluster.add_stream();
  auto* r1 = cluster.add_replica(1, {s1});
  auto* r2 = cluster.add_replica(1, {s1});

  LoadClient::Config lc;
  lc.threads = 2;
  lc.payload_bytes = 64;
  lc.route = [s1] { return s1; };
  auto* client = cluster.spawn<LoadClient>("client", &cluster.directory(), lc);
  client->start();
  cluster.run_for(2 * kSecond);
  r1->crash();
  const uint64_t at_crash = r1->delivered();
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(r1->delivered(), at_crash);
  EXPECT_GT(r2->delivered(), at_crash) << "the healthy replica keeps going";
  EXPECT_GT(client->completed(), 0u);
}

TEST_F(ReplicaTest, ElasticMergerMatchesStaticBaselineWhenStatic) {
  // With subscriptions fixed, the elastic merger must be
  // indistinguishable from classic Multi-Ring Paxos' static merge.
  Rng rng(42);
  std::vector<uint64_t> elastic_out, static_out;

  elastic::ElasticMerger em(
      1, {[](paxos::StreamId) {}, [](paxos::StreamId) {},
          [&](const paxos::Command& c, paxos::StreamId) { elastic_out.push_back(c.id); },
          [](const paxos::Command&) {}});
  em.bootstrap({1, 2, 3});
  multicast::StaticMerger sm({1, 2, 3}, [&](const paxos::Command& c, paxos::StreamId) {
    static_out.push_back(c.id);
  });

  std::map<paxos::StreamId, paxos::SlotIndex> pos;
  uint64_t id = 0;
  for (int round = 0; round < 500; ++round) {
    const paxos::StreamId s = static_cast<paxos::StreamId>(1 + rng.uniform(3));
    paxos::Proposal p;
    p.first_slot = pos[s];
    if (rng.chance(0.4)) {
      p.skip_slots = 1 + rng.uniform(4);
    } else {
      paxos::Command c;
      c.id = ++id;
      c.payload_size = 8;
      p.commands.push_back(c);
    }
    pos[s] += p.slot_count();
    em.queue(s).push_proposal(p);
    sm.queue(s).push_proposal(p);
    em.pump();
    sm.pump();
  }
  EXPECT_EQ(elastic_out, static_out);
  EXPECT_GT(elastic_out.size(), 50u);
}

}  // namespace
}  // namespace epx
