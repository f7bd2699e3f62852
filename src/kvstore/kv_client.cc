#include "kvstore/kv_client.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "util/logging.h"

namespace epx::kv {

KvClient::KvClient(sim::Simulation* sim, sim::Network* net, NodeId id, std::string name,
                   const paxos::StreamDirectory* directory, Config config)
    : Process(sim, net, id, std::move(name)),
      directory_(directory),
      config_(std::move(config)),
      registry_client_(this, config_.registry),
      rng_(config_.seed),
      retry_(this, config_.retry_timeout, [this](size_t thread_index) {
        retries_->add(now());
        dispatch(thread_index);  // re-routed through the refreshed map
      }) {
  const obs::Labels labels{{"node", this->name()}};
  latency_ = &metrics().timer("client.latency", labels);
  completions_ = &metrics().counter("client.completions", labels);
  retries_ = &metrics().counter("client.retries", labels);
  if (obs::ScrapeSet* ts = scrape_set()) {
    ts->watch_timer(obs::metric_key("client.latency", labels), latency_);
    ts->watch_counter(obs::metric_key("client.completions", labels), completions_);
    ts->watch_counter(obs::metric_key("client.retries", labels), retries_);
  }
}

std::string KvClient::key_name(size_t index) {
  // "key" + the index zero-padded to at least 10 digits.
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof(digits), index).ptr;
  const auto n = static_cast<size_t>(end - digits);
  std::string name("key");
  if (n < 10) name.append(10 - n, '0');
  name.append(digits, n);
  return name;
}

void KvClient::start() {
  running_ = true;
  registry_client_.watch("kv/", [this](const std::string& key, const std::string& value,
                                       uint64_t) {
    if (key == kPartitionMapKey) {
      map_ = PartitionMap::deserialize(value);
      EPX_DEBUG << name() << ": partition map updated, " << map_.partition_count()
                << " partitions";
    } else if (key == kGlobalStreamKey) {
      global_stream_ = static_cast<StreamId>(std::stoul(value));
    }
  });
  threads_.assign(config_.threads, Outstanding{});
  // Threads launch once the first partition map arrives.
  after(10 * kMillisecond, [this] {
    if (!map_.empty()) {
      for (size_t i = 0; i < threads_.size(); ++i) issue(i);
    } else {
      after(50 * kMillisecond, [this] {
        for (size_t i = 0; i < threads_.size(); ++i) issue(i);
      });
    }
  });
}

void KvClient::stop() {
  running_ = false;
  retry_.clear();
}

std::string KvClient::make_payload() {
  const double dice = rng_.uniform_double();
  const size_t key_index = rng_.uniform(config_.key_space);
  const auto no_value = [](char*) {};
  if (dice < config_.getrange_ratio) {
    const size_t end = std::min(key_index + config_.range_span, config_.key_space);
    return encode_op(OpKind::kGetRange, key_name(key_index), 0, no_value, key_name(end));
  }
  if (dice < config_.getrange_ratio + config_.get_ratio) {
    return encode_op(OpKind::kGet, key_name(key_index), 0, no_value, {});
  }
  // Unique value per put (the linearizability checker needs it): "v"
  // and a command id, padded with 'x' to the configured size, written
  // straight into the payload.
  char prefix[24];
  prefix[0] = 'v';
  const char* end =
      std::to_chars(prefix + 1, prefix + sizeof(prefix), paxos::make_command_id(id(), seq_))
          .ptr;
  const auto prefix_len = static_cast<size_t>(end - prefix);
  const size_t value_len = std::max(prefix_len, config_.value_bytes);
  return encode_op(
      OpKind::kPut, key_name(key_index), value_len,
      [&](char* out) {
        std::memcpy(out, prefix, prefix_len);
        std::memset(out + prefix_len, 'x', value_len - prefix_len);
      },
      {});
}

void KvClient::issue(size_t thread_index) {
  if (!running_) return;
  const uint64_t cmd_id = paxos::make_command_id(id(), seq_++);
  Outstanding& t = threads_[thread_index];
  t.cmd = paxos::Command{};
  t.cmd.kind = paxos::CommandKind::kApp;
  t.cmd.id = cmd_id;
  t.cmd.client = id();
  t.cmd.payload = std::make_shared<const std::string>(make_payload());
  t.op = *KvOpView::parse(*t.cmd.payload);  // our own encoding always parses
  t.sent_at = now();
  t.shards_received.clear();
  t.shards_expected =
      t.op.is_multi_partition() ? std::max<size_t>(map_.partition_count(), 1) : 1;
  retry_.track(thread_index, cmd_id);
  dispatch(thread_index);
}

void KvClient::dispatch(size_t thread_index) {
  Outstanding& t = threads_[thread_index];
  StreamId stream = paxos::kInvalidStream;
  if (t.op.is_multi_partition()) {
    stream = global_stream_;
    t.shards_expected = std::max<size_t>(map_.partition_count(), 1);
  } else {
    const PartitionEntry* entry = map_.lookup(t.op.key);
    if (entry != nullptr) stream = entry->stream;
  }
  if (stream == paxos::kInvalidStream || !directory_->has(stream)) return;
  if (spans().enabled()) {
    spans().record(t.cmd.id, obs::SpanStage::kClientSend, now(), id(), stream);
  }
  send(directory_->get(stream).coordinator,
       net::make_message<paxos::ClientProposeMsg>(stream, t.cmd));
}

void KvClient::complete(size_t thread_index, std::string_view get_value) {
  Outstanding& t = threads_[thread_index];
  const Tick latency = now() - t.sent_at;
  latency_->record(now(), latency);
  completions_->add(now());

  if (config_.record_history && t.op.kind != OpKind::kGetRange) {
    checker::KvOp h;
    h.kind = t.op.kind == OpKind::kPut ? checker::KvOp::Kind::kPut
                                       : checker::KvOp::Kind::kGet;
    h.key = t.op.key;
    h.value = t.op.kind == OpKind::kPut ? t.op.value : get_value;
    h.invoke = t.sent_at;
    h.response = now();
    history_.add(std::move(h));
  }
  if (config_.think_time > 0) {
    after(config_.think_time, [this, thread_index] { issue(thread_index); });
  } else {
    issue(thread_index);
  }
}

void KvClient::on_message(NodeId from, const MessagePtr& msg) {
  (void)from;
  if (registry_client_.on_message(msg)) return;
  if (msg->type() != net::MsgType::kKvReply) return;
  const auto& reply = static_cast<const multicast::ReplyMsg&>(*msg);
  const size_t thread_index = retry_.slot_of(reply.command_id);
  if (thread_index == sim::RetrySweep::kNoSlot) return;  // answered already, or stopped
  Outstanding& t = threads_[thread_index];

  if (t.op.is_multi_partition()) {
    if (!t.shards_received.insert(static_cast<uint32_t>(reply.shard)).second) return;
    if (t.shards_received.size() < t.shards_expected) return;  // waiting for more shards
  }
  retry_.settle(reply.command_id);
  if (spans().enabled()) {
    spans().record(reply.command_id, obs::SpanStage::kReply, now(), id(),
                   obs::kSpanNoStream);
  }
  complete(thread_index, reply.payload && !t.op.is_multi_partition()
                             ? std::string_view(*reply.payload)
                             : std::string_view());
}

}  // namespace epx::kv
