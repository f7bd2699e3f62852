// The benchmark's own host-time spans: one per call into a layer
// (cluster build, warm-up, each run_until slice, each checker, each
// ledger kernel), kept in memory and written as Chrome trace JSON at
// exit (load it in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace epxbench {

class HostSpans {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double dur_us = 0;
  };

  /// Records [construction, destruction) as one span.
  class Scope {
   public:
    Scope(HostSpans& owner, std::string name)
        : owner_(owner), name_(std::move(name)), start_(Clock::now()) {}
    ~Scope() { owner_.add(name_, start_, Clock::now()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostSpans& owner_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  using Clock = std::chrono::steady_clock;

  HostSpans() : origin_(Clock::now()) {}

  void add(const std::string& name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, micros(start), micros(end) - micros(start)});
  }

  /// Writes every span as a Chrome trace "complete" event; false on I/O error.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.dur_us);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace epxbench
