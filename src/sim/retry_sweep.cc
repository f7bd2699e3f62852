#include "sim/retry_sweep.h"

#include <utility>

#include "sim/process.h"

namespace epx::sim {

RetrySweep::RetrySweep(Process* owner, Tick timeout, std::function<void(size_t slot)> resend)
    : owner_(owner), timeout_(timeout), resend_(std::move(resend)) {}

void RetrySweep::track(size_t slot, uint64_t id) {
  slots_.insert(id, slot);
  fifo_.push_back(Entry{owner_->now() + timeout_, slot, id});
  arm();
}

void RetrySweep::clear() {
  slots_.clear();
  on_owner_crash();
}

void RetrySweep::on_owner_crash() {
  fifo_.clear();
  armed_ = false;
  ++gen_;
}

void RetrySweep::sweep() {
  const Tick now = owner_->now();
  while (!fifo_.empty()) {
    const Entry e = fifo_.front();
    if (!slots_.contains(e.id)) {
      fifo_.pop_front();  // answered
      continue;
    }
    if (e.deadline > now) break;
    fifo_.pop_front();
    fifo_.push_back(Entry{now + timeout_, e.slot, e.id});
    resend_(e.slot);
  }
  arm();
}

void RetrySweep::arm() {
  while (!fifo_.empty() && !slots_.contains(fifo_.front().id)) fifo_.pop_front();
  if (armed_ || fifo_.empty()) return;
  armed_ = true;
  owner_->after(fifo_.front().deadline - owner_->now(), [this, gen = gen_] {
    if (gen != gen_) return;
    armed_ = false;
    sweep();
  });
}

}  // namespace epx::sim
