// RetrySweep: the retry timer of a closed-loop client, one per client.
//
// A closed-loop client keeps one command outstanding per thread (a
// "slot") and re-sends it every `timeout` until some reply arrives. One
// timer per command would put almost every command through the event
// queue's far heap only to find it answered long before. The sweep
// instead keeps a FIFO of (deadline, slot, id) entries and one pending
// owner timer, armed at the front entry's deadline.
//
// Exactness: every deadline is now() + timeout with one constant
// timeout, so the FIFO is sorted by deadline and same-tick deadlines
// keep their insertion order. The sweep therefore re-sends at exactly
// the instants, and in the order, that per-command timers would have.
// An entry whose command was answered is dropped when it reaches the
// front. The sweep runs as a task on the owner's CPU queue (after()),
// so replies that arrive at a deadline tick are still handled first.
//
// The sweep also indexes outstanding ids to their slots (a flat
// IdTable), which is how a reply finds its thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>

#include "util/id_window.h"
#include "util/units.h"

namespace epx::sim {

class Process;

class RetrySweep {
 public:
  static constexpr size_t kNoSlot = ~size_t{0};

  /// `resend(slot)` runs, on `owner`'s CPU queue, for every command
  /// still outstanding at a deadline; the next deadline is already
  /// scheduled when it runs.
  RetrySweep(Process* owner, Tick timeout, std::function<void(size_t slot)> resend);

  /// `slot` now waits on command `id`; the first deadline is
  /// now() + timeout.
  void track(size_t slot, uint64_t id);

  /// The slot waiting on `id`, or kNoSlot when `id` is not outstanding
  /// (answered, abandoned by clear(), or never tracked).
  size_t slot_of(uint64_t id) const {
    const size_t* slot = slots_.find(id);
    return slot == nullptr ? kNoSlot : *slot;
  }

  /// `id` is answered: no further re-sends, slot_of(id) == kNoSlot.
  void settle(uint64_t id) { slots_.erase(id); }

  /// Abandons every outstanding command: no re-sends, no slot lookups.
  void clear();

  /// The owner crashed, which cancelled its timers: forget every
  /// deadline (crashed clients do not re-send), but keep the slot index
  /// so replies that still arrive after a restart are matched.
  void on_owner_crash();

 private:
  struct Entry {
    Tick deadline;
    size_t slot;
    uint64_t id;
  };

  void sweep();
  /// Drops answered entries off the front, then arms the owner timer at
  /// the front deadline unless one is already pending.
  void arm();

  Process* owner_;
  Tick timeout_;
  std::function<void(size_t)> resend_;
  util::IdTable<size_t> slots_;  // outstanding id -> slot
  std::deque<Entry> fifo_;       // sorted by deadline
  bool armed_ = false;
  uint64_t gen_ = 0;  // bumped to orphan a pending timer
};

}  // namespace epx::sim
