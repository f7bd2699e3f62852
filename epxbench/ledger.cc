#include "ledger.h"

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "elastic/elastic_merger.h"
#include "elastic/replica.h"
#include "kvstore/kv_op.h"
#include "kvstore/partition_map.h"
#include "multicast/messages.h"
#include "multicast/stream_queue.h"
#include "normalise.h"
#include "obs/metrics.h"
#include "paxos/messages.h"
#include "paxos/slot_log.h"
#include "paxos/stream_directory.h"
#include "ref_kernel.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace epxbench {

namespace {

using namespace epx;  // NOLINT(google-build-using-namespace)

constexpr int kReps = 5;

/// Receives each kernel's checksum so its work cannot be optimised away.
volatile uint64_t g_sink = 0;

/// What one kernel repetition did: its operations, plus the events and
/// messages it caused (for the exclusive kernels' subtraction).
struct KernelRun {
  double ops = 0;
  double events = 0;
  double msgs = 0;
};

struct KernelResult {
  double ns_per_op = 0;
  double events_per_op = 0;
  double msgs_per_op = 0;
};

/// Median over kReps of host-normalised ns/op; each repetition is
/// normalised against a reference-kernel run taken just before it.
template <typename Body>
KernelResult time_kernel(const std::string& name, HostSpans& spans, Body&& body) {
  std::vector<double> per_op;
  KernelRun run;
  for (int rep = 0; rep < kReps; ++rep) {
    const double ref_ns = ref_kernel();
    HostSpans::Scope scope(spans, "ledger." + name);
    const auto t0 = std::chrono::steady_clock::now();
    run = body();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    per_op.push_back(ns / run.ops * kNominalKernelNs / ref_ns);
  }
  return {median(per_op), run.events / run.ops, run.msgs / run.ops};
}

paxos::Command app_command(uint64_t id, net::NodeId client,
                           const std::shared_ptr<const std::string>& payload) {
  paxos::Command c;
  c.id = id;
  c.client = client;
  c.payload = payload;
  return c;
}

/// A process that swallows every message (kernel endpoint).
struct Sink final : sim::Process {
  using Process::Process;
  void on_message(net::NodeId, const net::MessagePtr&) override { ++received; }
  uint64_t received = 0;
};

double messages_sent(const sim::Simulation& sim) {
  const obs::Counter* c = sim.metrics().find_counter("net.messages_sent");
  return c == nullptr ? 0.0 : static_cast<double>(c->total());
}

KernelRun event_kernel() {
  sim::Simulation sim;
  uint64_t sink = 0;
  constexpr int kOps = 200000;
  for (int i = 0; i < kOps; ++i) {
    sim.schedule_after(1, [&sink] { ++sink; });
    sim.step();
  }
  return {static_cast<double>(sink), static_cast<double>(sim.events_processed()), 0};
}

KernelRun message_kernel() {
  sim::Simulation sim;
  sim::Network net(&sim, 1);
  Sink a(&sim, &net, 1, "ledger_a");
  Sink b(&sim, &net, 2, "ledger_b");
  const net::MessagePtr msg = net::make_message<multicast::ReplyMsg>(1, 0);
  constexpr int kBatches = 100;
  constexpr int kBatch = 500;
  for (int i = 0; i < kBatches; ++i) {
    for (int j = 0; j < kBatch; ++j) a.send(b.id(), msg);
    sim.run_to_completion();
  }
  return {static_cast<double>(b.received), static_cast<double>(sim.events_processed()),
          messages_sent(sim)};
}

/// The broadcast path's message mix: client propose, ring accept and
/// decision of an 8 x 1 KB batch, and the reply.
KernelRun codec_kernel() {
  static const std::vector<net::MessagePtr> mix = [] {
    auto payload = std::make_shared<const std::string>(std::string(1024, 'v'));
    paxos::Proposal batch;
    for (uint64_t i = 0; i < 8; ++i) batch.commands.push_back(app_command(i + 1, 9, payload));
    const paxos::ProposalPtr value = paxos::make_proposal(std::move(batch));
    auto accept = std::make_shared<paxos::AcceptMsg>();
    accept->stream = 3;
    accept->instance = 77;
    accept->value = value;
    return std::vector<net::MessagePtr>{
        net::make_message<paxos::ClientProposeMsg>(3, app_command(1, 9, payload)), accept,
        net::make_message<paxos::DecisionMsg>(3, 77, value),
        net::make_message<multicast::ReplyMsg>(1, 0)};
  }();
  constexpr int kRounds = 100000;
  uint64_t bytes = 0;
  for (int i = 0; i < kRounds; ++i) {
    for (const auto& m : mix) bytes += m->wire_size();
  }
  g_sink = bytes;
  return {static_cast<double>(kRounds * mix.size()), 0, 0};
}

struct LogEntry {
  paxos::Ballot ballot;
  paxos::ProposalPtr value;
  bool decided = false;
};

KernelRun decision_kernel(size_t cmds_per_decision) {
  auto payload = std::make_shared<const std::string>(std::string(1024, 'v'));
  std::vector<paxos::SlotLog<LogEntry>> logs(3);  // one per acceptor of the ring
  constexpr paxos::InstanceId kOps = 20000;
  constexpr paxos::InstanceId kWindow = 64;
  paxos::SlotIndex slot = 0;
  uint64_t sink = 0;
  for (paxos::InstanceId i = 0; i < kOps; ++i) {
    paxos::Proposal p;
    p.first_slot = slot;
    for (size_t c = 0; c < cmds_per_decision; ++c) {
      p.commands.push_back(app_command(slot + c + 1, 9, payload));
    }
    slot += cmds_per_decision;
    const paxos::ProposalPtr value = paxos::make_proposal(std::move(p));
    for (auto& log : logs) {
      auto accept = std::make_shared<paxos::AcceptMsg>();
      accept->instance = i;
      accept->value = value;
      LogEntry& e = log[i];
      e.ballot = accept->ballot;
      e.value = accept->value;
      e.decided = true;
      if (i > kWindow) log.trim_below(i - kWindow);
    }
    for (int l = 0; l < 3; ++l) {  // two learners + the coordinator
      const net::MessagePtr decision = net::make_message<paxos::DecisionMsg>(1, i, value);
      sink += static_cast<const paxos::DecisionMsg&>(*decision).instance;
    }
  }
  g_sink = sink;
  return {static_cast<double>(kOps), 0, 0};
}

KernelRun item_kernel() {
  multicast::StreamQueue q(1);
  paxos::Command cmd;
  cmd.payload_size = 1024;
  constexpr paxos::SlotIndex kOps = 200000;
  for (paxos::SlotIndex slot = 0; slot < kOps; ++slot) {
    paxos::Proposal p;
    p.first_slot = slot;
    p.commands.push_back(cmd);
    q.push_proposal(std::move(p));
    q.consume();
  }
  return {static_cast<double>(kOps), 0, 0};
}

KernelRun merge_kernel(size_t streams) {
  uint64_t delivered = 0;
  elastic::ElasticMerger merger(
      1, {[](paxos::StreamId) {}, [](paxos::StreamId) {},
          [&](const paxos::Command&, paxos::StreamId) { ++delivered; },
          [](const paxos::Command&) {}});
  std::vector<paxos::StreamId> ids;
  for (size_t s = 1; s <= streams; ++s) ids.push_back(static_cast<paxos::StreamId>(s));
  merger.bootstrap(ids);
  paxos::Command cmd;
  cmd.payload_size = 1024;
  uint64_t id = 0;
  const size_t rounds = 200000 / streams;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<paxos::Proposal> round;
    for (size_t s = 0; s < streams; ++s) {
      paxos::Proposal p;
      p.first_slot = r;
      cmd.id = ++id;
      p.commands.push_back(cmd);
      round.push_back(std::move(p));
    }
    auto frozen = paxos::freeze_batch(std::move(round));
    for (size_t s = 0; s < streams; ++s) merger.queue(ids[s]).push_proposal(frozen[s]);
    merger.pump();
  }
  return {static_cast<double>(delivered), 0, 0};
}

/// Decisions for one stream fed straight into a real Replica through the
/// network: learner buffering, merge, dedup, apply charge and reply.
KernelRun replica_kernel() {
  sim::Simulation sim;
  sim::Network net(&sim, 1);
  paxos::StreamDirectory directory;
  Sink feeder(&sim, &net, 1, "ledger_feeder");
  directory.add({1, feeder.id(), {feeder.id()}});
  elastic::Replica::Config config;
  config.group = 1;
  config.initial_streams = {1};
  elastic::Replica replica(&sim, &net, 2, "ledger_replica", &directory, config);
  replica.start();
  sim.run_for(kMillisecond);
  const double events0 = static_cast<double>(sim.events_processed());
  const double msgs0 = messages_sent(sim);
  const uint64_t delivered0 = replica.delivered();
  auto payload = std::make_shared<const std::string>(std::string(1024, 'v'));
  constexpr paxos::InstanceId kBatch = 200;
  constexpr paxos::InstanceId kOps = 20000;
  for (paxos::InstanceId i = 0; i < kOps; ++i) {
    paxos::Proposal p;
    p.first_slot = i;
    p.commands.push_back(app_command(i + 1, feeder.id(), payload));
    feeder.send(replica.id(), net::make_message<paxos::DecisionMsg>(1, i, std::move(p)));
    if ((i + 1) % kBatch == 0) sim.run_for(20 * kMillisecond);
  }
  sim.run_for(20 * kMillisecond);
  return {static_cast<double>(replica.delivered() - delivered0),
          static_cast<double>(sim.events_processed()) - events0, messages_sent(sim) - msgs0};
}

KernelRun kv_kernel() {
  kv::PartitionMap map({{1, 0, ~uint64_t{0} / 2, 1}, {2, ~uint64_t{0} / 2 + 1, ~uint64_t{0}, 2}});
  std::vector<std::string> payloads;
  for (int i = 0; i < 1024; ++i) {
    kv::KvOp op;
    op.kind = (i % 10 < 3) ? kv::OpKind::kGet : kv::OpKind::kPut;
    op.key = "key" + std::to_string(i * 97 % 100000);
    if (op.kind == kv::OpKind::kPut) op.value.assign(1024, static_cast<char>('a' + i % 26));
    payloads.push_back(op.encode());
  }
  std::map<std::string, std::string> store;
  constexpr int kOps = 100000;
  uint64_t sink = 0;
  for (int i = 0; i < kOps; ++i) {
    kv::KvOp op = kv::KvOp::decode(payloads[static_cast<size_t>(i) % payloads.size()]);
    const kv::PartitionEntry* owner = map.lookup_hash(op.hash());
    sink += owner == nullptr ? 0 : owner->partition_id;
    if (op.kind == kv::OpKind::kPut) {
      store[op.key] = std::move(op.value);
    } else {
      auto it = store.find(op.key);
      sink += it == store.end() ? 0 : it->second.size();
    }
  }
  g_sink = sink;
  return {static_cast<double>(kOps), 0, 0};
}

KernelRun obs_kernel() {
  obs::Counter counter;
  obs::Timer timer;
  constexpr int kOps = 400000;
  Tick now = 0;
  for (int i = 0; i < kOps; ++i) {
    now += 37 * kMicrosecond;
    counter.add(now);
    timer.record(now, static_cast<Tick>(200 + (i & 1023)) * kMicrosecond);
  }
  return {static_cast<double>(kOps), 0, 0};
}

}  // namespace

KernelCosts measure_kernels(const KernelShape& shape, HostSpans& spans) {
  KernelCosts k;
  k.event_ns = time_kernel("sim.event", spans, event_kernel).ns_per_op;
  const KernelResult msg = time_kernel("net.msg", spans, message_kernel);
  k.msg_ns = msg.ns_per_op - msg.events_per_op * k.event_ns;
  k.codec_ns = time_kernel("net.codec", spans, codec_kernel).ns_per_op;
  k.decision_ns = time_kernel("paxos.decision", spans, [&] {
                    return decision_kernel(shape.cmds_per_decision);
                  }).ns_per_op;
  k.item_ns = time_kernel("multicast.item", spans, item_kernel).ns_per_op;
  k.merge_ns = time_kernel("elastic.merge", spans, [&] {
                 return merge_kernel(shape.streams_per_replica);
               }).ns_per_op -
               k.item_ns;
  const double merge_one = time_kernel("elastic.merge1", spans, [] { return merge_kernel(1); })
                               .ns_per_op -
                           k.item_ns;
  const KernelResult rep = time_kernel("elastic.replica", spans, replica_kernel);
  k.replica_ns = rep.ns_per_op - rep.events_per_op * k.event_ns -
                 rep.msgs_per_op * (k.msg_ns + k.codec_ns) - k.item_ns - merge_one;
  k.kv_ns = time_kernel("kvstore.op", spans, kv_kernel).ns_per_op;
  k.obs_ns = time_kernel("obs.record", spans, obs_kernel).ns_per_op;
  return k;
}

std::vector<LedgerLine> ledger_lines(const KernelCosts& k, const LedgerCounts& c) {
  std::vector<LedgerLine> lines{
      {"sim.event", k.event_ns, c.events, 0},
      {"net.msg", k.msg_ns, c.msgs, 0},
      {"net.codec", k.codec_ns, c.msgs, 0},
      {"paxos.decision", k.decision_ns, c.decisions, 0},
      {"multicast.item", k.item_ns, c.deliveries, 0},
      {"elastic.merge", k.merge_ns, c.deliveries, 0},
      {"elastic.replica", k.replica_ns, c.deliveries, 0},
      {"kvstore.op", k.kv_ns, c.kv_ops, 0},
      {"obs.record", k.obs_ns, c.obs_records, 0},
  };
  for (auto& line : lines) line.ms_per_vsec = line.ns_per_op * line.ops / 1e6 / c.vsec;
  return lines;
}

}  // namespace epxbench
