// The benchmark's three workloads (README.md explains why each exists).
//
// A Workload is one freshly built simulated cluster. Constructing it is
// the "cluster build" half of set-up; main.cc then runs the warm-up and
// the timed slices, calling before_slice()/after_slice() at each slice
// boundary so a workload can change membership inside the timed phase.
// All load comes from simulated closed-loop clients.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "elastic/replica.h"
#include "harness/cluster.h"
#include "obs/metrics.h"

namespace epxbench {

using epx::Tick;

/// Completion tap on a client: the longest simulated interval without a
/// completion of this client inside the timed phase (event resolution;
/// vgap_ms is the maximum over clients, so one stalled group shows while
/// the others keep completing), and how many operations are still
/// unanswered at its end. Mixed into the library's clients by Probed<>.
class ClientProbe {
 public:
  virtual ~ClientProbe() = default;

  void begin_phase(Tick t) {
    phase_start_ = t;
    last_ = t;
    longest_gap_ = 0;
  }
  /// Longest completion-free interval in [phase start, end].
  Tick longest_gap(Tick end) const {
    return std::max(longest_gap_, end > last_ ? end - last_ : Tick{0});
  }
  /// Operations outstanding at `end`: every thread holds one, except
  /// those still in their think time after a completion.
  size_t unanswered(Tick end) const;

  virtual uint64_t probe_completed() const = 0;
  virtual uint64_t probe_retries() const = 0;
  virtual const epx::obs::Timer& probe_latency() const = 0;
  virtual const epx::sim::Process& probe_process() const = 0;

 protected:
  ClientProbe(size_t threads, Tick think) : threads_(threads), think_(think) {}
  void note_completion(Tick t);

 private:
  size_t threads_;
  Tick think_;
  Tick phase_start_ = std::numeric_limits<Tick>::max();
  Tick last_ = 0;
  Tick longest_gap_ = 0;
  std::deque<Tick> recent_;  ///< completions within the last think time
};

/// A library client (LoadClient or KvClient) with a ClientProbe attached
/// through its message hook.
template <typename Base>
class Probed final : public Base, public ClientProbe {
 public:
  Probed(epx::sim::Simulation* sim, epx::sim::Network* net, epx::net::NodeId id,
         std::string name, const epx::paxos::StreamDirectory* directory,
         typename Base::Config config)
      : Base(sim, net, id, std::move(name), directory, config),
        ClientProbe(config.threads, config.think_time) {}

  uint64_t probe_completed() const override { return this->completed(); }
  uint64_t probe_retries() const override { return this->retries(); }
  const epx::obs::Timer& probe_latency() const override { return this->latency_timer(); }
  const epx::sim::Process& probe_process() const override { return *this; }

 protected:
  void on_message(epx::net::NodeId from, const epx::net::MessagePtr& msg) override {
    const uint64_t before = this->completed();
    Base::on_message(from, msg);
    if (this->completed() != before) note_completion(this->now());
  }
};

/// Virtual-time plan of one round: warm-up to `warm_end`, then `slices`
/// timed slices of `slice` each. warm_end and the timed span are whole
/// seconds so the client latency timers' 1 s windows cover the timed
/// phase exactly.
struct Plan {
  Tick warm_end = 0;
  Tick slice = 0;
  size_t slices = 0;
  Tick end() const { return warm_end + slice * static_cast<Tick>(slices); }
};

struct BuildOptions {
  uint64_t seed = 1;
  size_t threads = 1;   ///< simulation shards (geo_fanin only uses > 1)
  bool traced = false;  ///< arm spans and record the KV history
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual epx::harness::Cluster& cluster() = 0;
  const Plan& plan() const { return plan_; }
  const std::vector<ClientProbe*>& clients() const { return clients_; }
  const std::vector<epx::elastic::Replica*>& replicas() const { return replicas_; }
  /// Replica ids that must deliver identical sequences (prefix allowed).
  const std::vector<std::vector<uint32_t>>& agreement_groups() const { return groups_; }

  /// Membership actions at the boundary before timed slice i.
  virtual void before_slice(size_t i) { (void)i; }
  /// Progress polling at the boundary after timed slice i.
  virtual void after_slice(size_t i) { (void)i; }
  /// Whether the workload did what it claims (split finished, subscribe
  /// seen, ...); "" when it did, else the failed check's description.
  virtual std::string check_outcome() const { return ""; }
  /// One line on anything notable the round did (printed, never gated).
  virtual std::string notes() const { return ""; }
  /// Linearizability verdict of the recorded KV history ("" = ok, or no
  /// history to check).
  virtual std::string check_history() const { return ""; }
  virtual size_t history_size() const { return 0; }
  /// Multi-partition (getrange) commands ordered so far.
  virtual uint64_t multi_partition_ops() const { return 0; }

 protected:
  Plan plan_;
  std::vector<ClientProbe*> clients_;
  std::vector<epx::elastic::Replica*> replicas_;
  std::vector<std::vector<uint32_t>> groups_;
};

const std::vector<std::string>& workload_names();
/// Builds the named workload's cluster and starts its clients; nullptr
/// for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const BuildOptions& options);

}  // namespace epxbench
