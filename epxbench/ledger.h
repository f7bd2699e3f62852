// The host-time ledger: one simulated cluster-second rebuilt from
// isolated per-layer kernels. Each kernel drives a layer's public entry
// points on its own, its host-normalised ns/op is multiplied by that
// layer's deterministic count from the measured run, and the sum is set
// against the measured host time per simulated second. What no kernel
// explains is the residue (README.md, "Reading the ledger").
#pragma once

#include <string>
#include <vector>

#include "host_spans.h"

namespace epxbench {

/// Host-normalised ns per operation of each kernel. "Exclusive" kernels
/// have the cost of the lower layers they drive (events, messages,
/// queue, merge) subtracted, so no nanosecond is counted twice.
struct KernelCosts {
  double event_ns = 0;     ///< sim: schedule + dispatch of one event
  double msg_ns = 0;       ///< net: Process::send -> delivery, exclusive of its events
  double codec_ns = 0;     ///< net: wire_size() over the message mix
  double decision_ns = 0;  ///< paxos: batch freeze, acceptor logs, accept/decision messages
  double item_ns = 0;      ///< multicast: StreamQueue push + consume of one command
  double merge_ns = 0;     ///< elastic: merger pump per delivery, exclusive of the queue
  double replica_ns = 0;   ///< elastic: learner + replica delivery path, exclusive
  double kv_ns = 0;        ///< kvstore: op decode + partition lookup + store apply
  double obs_ns = 0;       ///< obs: Counter::add + Timer::record
};

/// Shape of the measured run that the kernels mirror.
struct KernelShape {
  size_t cmds_per_decision = 1;
  size_t streams_per_replica = 1;
};

/// Runs every kernel (each under a HostSpans scope), normalising each
/// against a reference-kernel run taken right before it.
KernelCosts measure_kernels(const KernelShape& shape, HostSpans& spans);

/// Deterministic per-layer counts of the measured timed phase.
struct LedgerCounts {
  double events = 0;
  double msgs = 0;
  double decisions = 0;
  double deliveries = 0;   ///< commands delivered by replicas
  double kv_ops = 0;       ///< KV commands executed
  double obs_records = 0;  ///< estimated instrument updates (README.md)
  double vsec = 0;         ///< simulated seconds the counts cover
};

struct LedgerLine {
  std::string layer;
  double ns_per_op = 0;
  double ops = 0;
  double ms_per_vsec = 0;
};

std::vector<LedgerLine> ledger_lines(const KernelCosts& k, const LedgerCounts& c);

}  // namespace epxbench
