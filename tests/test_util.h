// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/load_client.h"
#include "util/logging.h"

namespace epx::testing {

/// "prefix<n>" without string concatenation: `"k" + std::to_string(i)`
/// trips GCC 12's -Wrestrict false positive (PR 105329) when inlined
/// into small loops.
inline std::string numbered(std::string_view prefix, uint64_t n) {
  char buf[48];
  const size_t len = prefix.copy(buf, 24);
  const auto conv = std::to_chars(buf + len, buf + sizeof(buf), n);
  return {buf, conv.ptr};
}

/// Quiet logs by default; set EPX_TEST_LOG=debug for troubleshooting.
inline void init_logging() {
  const char* env = std::getenv("EPX_TEST_LOG");
  if (env == nullptr) {
    log::set_level(log::Level::kError);
  } else if (std::string_view(env) == "debug") {
    log::set_level(log::Level::kDebug);
  } else if (std::string_view(env) == "info") {
    log::set_level(log::Level::kInfo);
  }
}

/// Records the sequence of app commands delivered by each replica.
class DeliveryLog {
 public:
  void attach(elastic::Replica* replica) {
    replica->set_delivery_listener(
        [this](net::NodeId node, const paxos::Command& cmd, paxos::StreamId stream) {
          // Listeners fire on shard worker threads under the parallel
          // engine; the lock protects the map structure (each node's
          // vectors still fill in that node's own delivery order).
          std::lock_guard<std::mutex> lock(mu_);
          sequences_[node].push_back(cmd.id);
          streams_[node].push_back(stream);
        });
  }

  const std::vector<uint64_t>& sequence(net::NodeId node) const {
    static const std::vector<uint64_t> empty;
    auto it = sequences_.find(node);
    return it == sequences_.end() ? empty : it->second;
  }

  const std::map<net::NodeId, std::vector<uint64_t>>& all() const { return sequences_; }

 private:
  std::mutex mu_;
  std::map<net::NodeId, std::vector<uint64_t>> sequences_;
  std::map<net::NodeId, std::vector<paxos::StreamId>> streams_;
};

/// Stands in for a stream's coordinator and replicas in client tests:
/// records every client proposal it receives (the arrival ticks per
/// command id, and the overall arrival order) and, while `serving`,
/// answers each one after `reply_delay(id)` (at once when unset).
class FakeStream : public sim::Process {
 public:
  using Process::Process;

  bool serving = true;
  std::function<Tick(uint64_t)> reply_delay;
  std::map<uint64_t, std::vector<Tick>> arrivals;
  std::vector<uint64_t> arrival_order;
  uint64_t replies_sent = 0;

 protected:
  void on_message(net::NodeId, const net::MessagePtr& msg) override {
    if (msg->type() != net::MsgType::kClientPropose) return;
    const auto& propose = static_cast<const paxos::ClientProposeMsg&>(*msg);
    const uint64_t id = propose.command.id;
    const net::NodeId client = propose.command.client;
    arrivals[id].push_back(now());
    arrival_order.push_back(id);
    if (!serving) return;
    auto reply = [this, id, client] {
      ++replies_sent;
      send(client, net::make_message<multicast::ReplyMsg>(id, 0));
    };
    const Tick delay = reply_delay ? reply_delay(id) : 0;
    if (delay > 0) {
      after(delay, reply);
    } else {
      reply();
    }
  }
};

}  // namespace epx::testing
