// KV-layer unit tests: partition map arithmetic, op payload encoding
// and parsing, key naming, replica ownership/discard/purge behaviour,
// getrange scans, malformed-payload drops and a differential check of
// the replica store against a std::map model.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "harness/kv_cluster.h"
#include "kvstore/kv_client.h"
#include "kvstore/partition_map.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace epx {
namespace {

using kv::KvOp;
using kv::KvOpView;
using kv::OpKind;
using kv::PartitionEntry;
using kv::PartitionMap;

// -------------------------------------------------------- PartitionMap --

PartitionMap two_way_map() {
  PartitionEntry lower{1, 0, ~0ULL / 2, 11};
  PartitionEntry upper{2, ~0ULL / 2 + 1, ~0ULL, 22};
  return PartitionMap({lower, upper});
}

TEST(PartitionMapTest, LookupRoutesByHash) {
  const PartitionMap map = two_way_map();
  const auto* low = map.lookup_hash(0);
  const auto* high = map.lookup_hash(~0ULL);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  EXPECT_EQ(low->partition_id, 1u);
  EXPECT_EQ(high->partition_id, 2u);
  EXPECT_EQ(low->stream, 11u);
  EXPECT_EQ(high->stream, 22u);
}

TEST(PartitionMapTest, LookupCoversBoundary) {
  const PartitionMap map = two_way_map();
  EXPECT_EQ(map.lookup_hash(~0ULL / 2)->partition_id, 1u);
  EXPECT_EQ(map.lookup_hash(~0ULL / 2 + 1)->partition_id, 2u);
}

TEST(PartitionMapTest, SplitHalvesRange) {
  PartitionMap map({PartitionEntry{1, 0, ~0ULL, 11}});
  const uint32_t new_id = map.split(1, 33);
  ASSERT_EQ(map.partition_count(), 2u);
  EXPECT_EQ(new_id, 2u);
  const auto* lower = map.lookup_hash(0);
  const auto* upper = map.lookup_hash(~0ULL);
  EXPECT_EQ(lower->partition_id, 1u);
  EXPECT_EQ(upper->partition_id, new_id);
  EXPECT_EQ(upper->stream, 33u);
  // The two halves tile the space exactly.
  EXPECT_EQ(lower->hash_hi + 1, upper->hash_lo);
}

TEST(PartitionMapTest, SplitUnknownPartitionFails) {
  PartitionMap map({PartitionEntry{1, 0, ~0ULL, 11}});
  EXPECT_EQ(map.split(9, 33), 0u);
  EXPECT_EQ(map.partition_count(), 1u);
}

TEST(PartitionMapTest, MergeAdjacentRanges) {
  PartitionMap map = two_way_map();
  EXPECT_TRUE(map.merge(1, 2));
  ASSERT_EQ(map.partition_count(), 1u);
  const auto* only = map.lookup_hash(~0ULL);
  EXPECT_EQ(only->partition_id, 1u);
  EXPECT_EQ(only->hash_lo, 0u);
  EXPECT_EQ(only->hash_hi, ~0ULL);
}

TEST(PartitionMapTest, MergeNonAdjacentFails) {
  PartitionEntry a{1, 0, 99, 11};
  PartitionEntry b{2, 200, 300, 22};
  PartitionMap map({a, b});
  EXPECT_FALSE(map.merge(1, 2));
  EXPECT_EQ(map.partition_count(), 2u);
}

TEST(PartitionMapTest, SerializationRoundTrip) {
  const PartitionMap map = two_way_map();
  const PartitionMap copy = PartitionMap::deserialize(map.serialize());
  ASSERT_EQ(copy.partition_count(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(copy.entries()[i].partition_id, map.entries()[i].partition_id);
    EXPECT_EQ(copy.entries()[i].hash_lo, map.entries()[i].hash_lo);
    EXPECT_EQ(copy.entries()[i].hash_hi, map.entries()[i].hash_hi);
    EXPECT_EQ(copy.entries()[i].stream, map.entries()[i].stream);
  }
}

TEST(PartitionMapTest, SplitThenMergeRestoresOriginal) {
  PartitionMap map({PartitionEntry{1, 0, ~0ULL, 11}});
  const uint32_t new_id = map.split(1, 33);
  EXPECT_TRUE(map.merge(1, new_id));
  EXPECT_EQ(map.partition_count(), 1u);
  EXPECT_EQ(map.lookup_hash(123)->hash_hi, ~0ULL);
}

// ---------------------------------------------------------------- KvOp --

KvOp make_op(OpKind kind, std::string key, std::string value, std::string end_key) {
  KvOp op;
  op.kind = kind;
  op.key = std::move(key);
  op.value = std::move(value);
  op.end_key = std::move(end_key);
  return op;
}

/// Reference encoding built with net::Writer: kind byte, then key,
/// value and end_key as length-prefixed bytes.
std::string writer_encoding(const KvOp& op) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(op.kind));
  w.bytes(op.key);
  w.bytes(op.value);
  w.bytes(op.end_key);
  return {reinterpret_cast<const char*>(w.data().data()), w.size()};
}

TEST(KvOpTest, EncodeMatchesGoldenBytes) {
  using namespace std::string_literals;
  EXPECT_EQ(make_op(OpKind::kPut, "k1", "abc", "").encode(), "\x00\x02k1\x03" "abc\x00"s);
  EXPECT_EQ(make_op(OpKind::kGet, "key7", "", "").encode(), "\x01\x04key7\x00\x00"s);
  EXPECT_EQ(make_op(OpKind::kGetRange, "a", "", "zz").encode(), "\x02\x01" "a\x00\x02zz"s);
  // A 1 KB value takes a two-byte length prefix (1024 = 0x80 0x08).
  const std::string big = make_op(OpKind::kPut, "k", std::string(1024, 'x'), "").encode();
  ASSERT_EQ(big.size(), 1u + 2u + 2u + 1024u + 1u);
  EXPECT_EQ(big.substr(0, 5), "\x00\x01k\x80\x08"s);
}

TEST(KvOpTest, EncodeMatchesWriterEncoding) {
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    const auto kind = static_cast<OpKind>(rng.uniform(3));
    std::string value;
    std::string end_key;
    if (kind == OpKind::kPut) value.assign(rng.uniform(20000), 'v');
    if (kind == OpKind::kGetRange) end_key.assign(rng.uniform(200), 'e');
    const KvOp op = make_op(kind, std::string(rng.uniform(200), 'k'), value, end_key);
    ASSERT_EQ(op.encode(), writer_encoding(op)) << "op " << i;
  }
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"a", "1"}, {"", ""}, {std::string(130, 'k'), std::string(20000, 'v')}};
  net::Writer w;
  w.varint(pairs.size());
  for (const auto& [k, v] : pairs) {
    w.bytes(k);
    w.bytes(v);
  }
  EXPECT_EQ(kv::encode_pairs(pairs),
            std::string(reinterpret_cast<const char*>(w.data().data()), w.size()));
}

TEST(KvOpTest, ParseReturnsViewsIntoThePayload) {
  const std::string payload = make_op(OpKind::kGetRange, "lo", "", "hi").encode();
  const std::optional<KvOpView> view = KvOpView::parse(payload);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->kind, OpKind::kGetRange);
  EXPECT_EQ(view->key, "lo");
  EXPECT_EQ(view->end_key, "hi");
  EXPECT_TRUE(view->value.empty());
  EXPECT_GE(view->key.data(), payload.data());
  EXPECT_LE(view->end_key.data() + view->end_key.size(), payload.data() + payload.size());
}

/// Payloads no op encodes to: every strict prefix of a put, a length
/// prefix that overruns the buffer, unknown kinds and trailing bytes.
std::vector<std::string> malformed_payloads() {
  using namespace std::string_literals;
  const std::string put = make_op(OpKind::kPut, "alpha", "value", "").encode();
  std::vector<std::string> out;
  for (size_t n = 0; n < put.size(); ++n) out.push_back(put.substr(0, n));
  out.push_back("\x00\x05" "ab\x00\x00"s);                // key claims 5 bytes, has 2
  out.push_back("\x00\x01k\xff\xff\xff\xff\x0f"s);  // value claims ~4 GB
  out.push_back("\x00\x01k\x80"s);                       // varint cut mid-way
  for (const char kind : {'\x03', '\xff'}) {  // unknown kinds
    out.push_back(put);
    out.back()[0] = kind;
  }
  out.push_back(put);
  out.back().push_back('x');  // trailing byte
  return out;
}

TEST(KvOpTest, ParseRejectsMalformedPayloads) {
  for (const std::string& payload : malformed_payloads()) {
    EXPECT_FALSE(KvOpView::parse(payload).has_value()) << ::testing::PrintToString(payload);
    // The owning decoder falls back to a default op, never a put.
    EXPECT_EQ(KvOp::decode(payload).kind, OpKind::kGet);
  }
}

TEST(KvClientTest, KeyNameZeroPadsToTenDigits) {
  EXPECT_EQ(kv::KvClient::key_name(0), "key0000000000");
  EXPECT_EQ(kv::KvClient::key_name(7), "key0000000007");
  EXPECT_EQ(kv::KvClient::key_name(99999), "key0000099999");
  EXPECT_EQ(kv::KvClient::key_name(9999999999), "key9999999999");
  EXPECT_EQ(kv::KvClient::key_name(12345678901), "key12345678901");
  EXPECT_EQ(kv::KvClient::key_name(std::numeric_limits<size_t>::max()),
            "key18446744073709551615");
}

// ------------------------------------------------------------ KvReplica --

/// Stands in for a KV client: keeps the last reply per command id.
class ReplyCapture : public sim::Process {
 public:
  using Process::Process;
  std::map<uint64_t, std::shared_ptr<const multicast::ReplyMsg>> replies;

 protected:
  void on_message(net::NodeId, const net::MessagePtr& msg) override {
    if (msg->type() != net::MsgType::kKvReply) return;
    auto reply = std::static_pointer_cast<const multicast::ReplyMsg>(msg);
    replies[reply->command_id] = std::move(reply);
  }
};

class KvReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::init_logging();
    p1 = kvc.add_partition(1);
    kvc.publish();
    replica = kvc.replicas_of(p1)[0];
    probe = kvc.cluster().spawn<ReplyCapture>("probe");
  }

  /// Proposes a raw payload on the partition's stream, replies to the
  /// probe; returns the command id.
  uint64_t send_payload(std::string payload) {
    paxos::Command cmd;
    cmd.id = paxos::make_command_id(500, seq_++);
    cmd.client = probe->id();
    cmd.payload = std::make_shared<const std::string>(std::move(payload));
    const auto stream = kvc.stream_of(p1);
    kvc.cluster().controller().send(
        kvc.cluster().directory().get(stream).coordinator,
        net::make_message<paxos::ClientProposeMsg>(stream, cmd));
    return cmd.id;
  }

  /// Runs `op` through the real stream; its reply, or null when none
  /// arrived within a second.
  std::shared_ptr<const multicast::ReplyMsg> round_trip(const KvOp& op) {
    const uint64_t id = send_payload(op.encode());
    for (int i = 0; i < 1000 && probe->replies.count(id) == 0; ++i) {
      kvc.cluster().run_for(1 * kMillisecond);
    }
    const auto it = probe->replies.find(id);
    return it == probe->replies.end() ? nullptr : it->second;
  }

  /// Runs a put through the real stream and waits for execution.
  void ordered_put(const std::string& key, const std::string& value) {
    send_payload(make_op(OpKind::kPut, key, value, "").encode());
    kvc.cluster().run_for(100 * kMillisecond);
  }

  harness::KvCluster kvc;
  uint32_t p1 = 0;
  kv::KvReplica* replica = nullptr;
  ReplyCapture* probe = nullptr;
  uint32_t seq_ = 1;
};

TEST_F(KvReplicaTest, ExecutesOwnedPut) {
  ordered_put("alpha", "1");
  EXPECT_TRUE(replica->store().get("alpha").has_value());
  EXPECT_EQ(replica->executed(), 1u);
}

TEST_F(KvReplicaTest, DiscardsUnownedKeys) {
  // Shrink ownership to nothing-owns-this-key and verify the discard.
  replica->set_ownership(p1, 0, 0);
  ordered_put("alpha", "1");
  EXPECT_FALSE(replica->store().get("alpha").has_value());
  EXPECT_EQ(replica->discarded_wrong_partition(), 1u);
}

TEST_F(KvReplicaTest, PurgeRemovesExactlyUnownedKeys) {
  for (int i = 0; i < 50; ++i) ordered_put(testing::numbered("k", i), "v");
  ASSERT_EQ(replica->store().size(), 50u);
  // Keep only the lower half of the hash space.
  replica->set_ownership(p1, 0, ~0ULL / 2);
  const size_t purged = replica->purge_unowned();
  EXPECT_EQ(replica->store().size() + purged, 50u);
  for (const auto& [key, value] : replica->store().pairs()) {
    EXPECT_TRUE(replica->owns(key_hash(key)));
  }
  EXPECT_GT(purged, 5u);  // hashes spread over both halves
}

TEST_F(KvReplicaTest, GetRangeScansLexicographicInterval) {
  for (int i = 0; i < 10; ++i) {
    ordered_put(testing::numbered("key", i), testing::numbered("v", i));
  }
  // No peers configured -> executes immediately; 4 keys in [key2, key6).
  const auto reply = round_trip(make_op(OpKind::kGetRange, "key2", "", "key6"));
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->status, 0);
  EXPECT_EQ(reply->shard, p1);
  ASSERT_NE(reply->payload, nullptr);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"key2", "v2"}, {"key3", "v3"}, {"key4", "v4"}, {"key5", "v5"}};
  EXPECT_EQ(kv::decode_pairs(*reply->payload), expected);
  EXPECT_EQ(*reply->payload, kv::encode_pairs(expected));
  EXPECT_EQ(replica->executed(), 11u);
}

TEST_F(KvReplicaTest, DropsMalformedPayloads) {
  ordered_put("alpha", "1");
  ASSERT_EQ(replica->executed(), 1u);
  std::vector<uint64_t> ids;
  for (const std::string& payload : malformed_payloads()) {
    ids.push_back(send_payload(payload));
  }
  kvc.cluster().run_for(200 * kMillisecond);
  // Delivered, but neither executed nor answered: in particular no
  // truncated put runs as a put to the empty key.
  EXPECT_EQ(replica->executed(), 1u);
  EXPECT_EQ(replica->discarded_wrong_partition(), 0u);
  EXPECT_EQ(replica->store().pairs(),
            (std::vector<std::pair<std::string, std::string>>{{"alpha", "1"}}));
  for (uint64_t id : ids) EXPECT_EQ(probe->replies.count(id), 0u) << id;
  // The replica keeps serving well-formed commands.
  const auto reply = round_trip(make_op(OpKind::kGet, "alpha", "", ""));
  ASSERT_NE(reply, nullptr);
  ASSERT_NE(reply->payload, nullptr);
  EXPECT_EQ(*reply->payload, "1");
}

/// Seeded differential check: puts, gets, getranges, purges and absorbs
/// (both modes) against a std::map model, comparing every reply and the
/// store contents.
TEST_F(KvReplicaTest, StoreMatchesMapModel) {
  using Model = std::map<std::string, std::string>;
  Model model;
  Rng rng(2024);
  bool overwrite = false;  // absorbs alternate between the two modes
  const auto random_key = [&rng] { return testing::numbered("k", rng.uniform(40)); };
  const auto random_value = [&rng] {
    // Up to 300 bytes, so some lengths take a two-byte varint.
    std::string v(rng.uniform(300), '\0');
    for (char& c : v) c = static_cast<char>('a' + rng.uniform(26));
    return v;
  };
  const auto pairs_in = [](const Model& m, const std::string& lo, const std::string& hi) {
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = m.lower_bound(lo); it != m.end() && it->first < hi; ++it) {
      out.push_back(*it);
    }
    return out;
  };
  for (int step = 0; step < 400; ++step) {
    const uint64_t dice = rng.uniform(100);
    if (dice < 45) {
      const std::string key = random_key();
      std::string value = random_value();
      const auto reply = round_trip(make_op(OpKind::kPut, key, value, ""));
      ASSERT_NE(reply, nullptr) << "step " << step;
      EXPECT_EQ(reply->status, 0);
      model[key] = std::move(value);
    } else if (dice < 75) {
      const std::string key = random_key();
      const auto reply = round_trip(make_op(OpKind::kGet, key, "", ""));
      ASSERT_NE(reply, nullptr) << "step " << step;
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(reply->status, 1) << "step " << step;
        EXPECT_EQ(reply->payload, nullptr);
      } else {
        EXPECT_EQ(reply->status, 0) << "step " << step;
        ASSERT_NE(reply->payload, nullptr);
        EXPECT_EQ(*reply->payload, it->second) << "step " << step;
      }
    } else if (dice < 92) {
      // Some intervals are empty or inverted.
      const std::string lo = random_key();
      const std::string hi = random_key();
      const auto reply = round_trip(make_op(OpKind::kGetRange, lo, "", hi));
      ASSERT_NE(reply, nullptr) << "step " << step;
      ASSERT_NE(reply->payload, nullptr);
      EXPECT_EQ(*reply->payload, kv::encode_pairs(pairs_in(model, lo, hi)))
          << "step " << step;
    } else if (dice < 96) {
      // A blob as a store encodes it: keys sorted and unique.
      Model blob;
      for (uint64_t n = rng.uniform(8); n > 0; --n) blob[random_key()] = random_value();
      overwrite = !overwrite;
      const auto encoded = std::make_shared<const std::string>(
          kv::encode_pairs({blob.begin(), blob.end()}));
      replica->absorb_store(encoded, overwrite);
      for (const auto& [k, v] : blob) {
        if (overwrite) {
          model[k] = v;
        } else {
          model.try_emplace(k, v);
        }
      }
    } else {
      // Purge a random half of the hash space, then own everything again.
      const uint64_t cut = rng.next();
      replica->set_ownership(p1, 0, cut);
      const size_t purged = replica->purge_unowned();
      size_t expected = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (key_hash(it->first) > cut) {
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(purged, expected) << "step " << step;
      replica->set_ownership(p1, 0, ~0ULL);
    }
    ASSERT_EQ(replica->store().size(), model.size()) << "step " << step;
  }
  EXPECT_EQ(replica->store().pairs(),
            (std::vector<std::pair<std::string, std::string>>(model.begin(), model.end())));
  EXPECT_EQ(replica->store().encode(),
            kv::encode_pairs(std::vector<std::pair<std::string, std::string>>(model.begin(),
                                                                             model.end())));
  for (const auto& [k, v] : model) {
    EXPECT_EQ(replica->store().get(k).value_or("<absent>"), v);
  }
}

TEST_F(KvReplicaTest, AbsorbStorePreservesNewerLocalValues) {
  ordered_put("shared", "local-new");
  const auto blob = std::make_shared<const std::string>(
      kv::encode_pairs({{"shared", "remote-old"}, {"other", "remote"}}));
  replica->absorb_store(blob, /*overwrite=*/false);
  EXPECT_EQ(replica->store().get("shared").value_or("<absent>"), "local-new");
  EXPECT_EQ(replica->store().get("other").value_or("<absent>"), "remote");
  replica->absorb_store(blob, /*overwrite=*/true);
  EXPECT_EQ(replica->store().get("shared").value_or("<absent>"), "remote-old");
}

}  // namespace
}  // namespace epx
