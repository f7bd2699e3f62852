// The benchmark's reference kernel: a fixed amount of heap, hash-map
// and small-copy work, the same kinds of work the simulator does per
// event (timer heap, id -> state maps, payload copies). Its measured
// time is the host-speed yardstick for normalise.h.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace epxbench {

/// Reference-host time of one ref_kernel() call. Host-normalised
/// figures read as if measured on a host that runs the kernel in
/// exactly this time (a 4-core x86-64 VM, Release build).
inline constexpr double kNominalKernelNs = 1.5e6;

/// Receives the kernel's checksum so the work cannot be optimised away.
inline volatile uint64_t ref_kernel_sink = 0;

/// The fixed work itself; returns its checksum.
inline uint64_t ref_kernel_work() {
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap;
  std::unordered_map<uint64_t, uint64_t> map;
  std::vector<std::string> copies(256);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t sum = 0;
  for (uint32_t i = 0; i < 12000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x & 0xffffff);
    if (heap.size() > 1024) {
      sum += heap.top();
      heap.pop();
    }
    map[x & 4095] += i;
    if ((i & 3) == 0) map.erase((x >> 20) & 4095);
    copies[i & 255].assign(48 + (x & 127), static_cast<char>('a' + (i & 15)));
    sum += copies[(i * 7) & 255].size();
  }
  return sum + map.size();
}

/// Runs `copies` instances of the fixed work at once (the calling thread
/// plus copies - 1 helper threads, matching the engine's shard threads)
/// and returns the wall time until all have finished, in nanoseconds.
inline double ref_kernel(size_t copies = 1) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> helpers;
  std::vector<uint64_t> sums(copies, 0);
  for (size_t i = 1; i < copies; ++i) helpers.emplace_back([&sums, i] { sums[i] = ref_kernel_work(); });
  sums[0] = ref_kernel_work();
  for (auto& t : helpers) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  for (uint64_t s : sums) ref_kernel_sink = ref_kernel_sink + s;
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace epxbench
