// Host normalisation of the benchmark's host-time figures.
//
// Raw wall time on a shared host moves by tens of percent between
// processes while the simulated work stays identical. The benchmark
// therefore runs a fixed reference kernel (ref_kernel.h) on the main
// thread between every timed slice and scales each slice's wall time by
// nominal / (kernel time measured around that slice). A host that is 2x
// slower doubles both, and the ratio cancels; a host whose speed changes
// mid-run is tracked slice by slice, because each slice uses only the
// kernels measured right next to it.
//
// Everything here is pure arithmetic over recorded timings, so
// normalise_test.cc can feed it synthetic hosts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace epxbench {

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One slice of simulated time as timed on the host.
struct Slice {
  double wall_ns = 0;  ///< raw host time spent inside run_until
  double vsec = 0;     ///< simulated seconds the slice covered
  uint64_t cmds = 0;   ///< client commands completed in the slice
};

/// One round of a workload: set-up (cluster build + warm-up), then the
/// timed slices. `kernel_ns[i]` ran immediately before slice i and the
/// last entry immediately after the final slice, so
/// kernel_ns.size() == slices.size() + 1. `pre_kernel_ns` ran just
/// before set-up began.
struct Round {
  double pre_kernel_ns = 0;
  double setup_wall_ns = 0;
  std::vector<double> kernel_ns;
  std::vector<Slice> slices;
};

/// Half-width of the kernel window that stands for one slice.
inline constexpr size_t kKernelWindow = 2;

/// Kernel time that stands for the host's speed during slice i: the
/// median of the kernels k[i - kKernelWindow .. i + kKernelWindow]
/// (k[i] ran just before the slice, k[i + 1] just after it). A step
/// change in host speed between two slices is assigned to the right
/// side, and a disturbed kernel or two are outvoted.
inline double local_kernel_ns(const std::vector<double>& k, size_t i) {
  std::vector<double> window;
  const size_t first = i > kKernelWindow ? i - kKernelWindow : 0;
  for (size_t j = first; j <= i + kKernelWindow && j < k.size(); ++j) window.push_back(k[j]);
  return median(std::move(window));
}

/// A run whose reference-kernel times spread wider than this (p90 - p10,
/// as a share of their median) ran on a host whose speed moved too much
/// within the run to trust its host-time figures.
inline constexpr double kUnsteadySpreadPct = 50.0;

struct HostSummary {
  // Host-normalised: milliseconds / seconds on the reference host.
  double cmds_per_s = 0;
  double ms_per_vsec_p50 = 0;
  double ms_per_vsec_p90 = 0;
  double ms_per_vsec_mean = 0;  ///< total normalised ms / total vsec
  double setup_s = 0;           ///< median over rounds
  size_t slice_count = 0;
  size_t beyond_p90 = 0;  ///< slices strictly above the p90 value
  // Raw wall-clock counterparts, printed beside the normalised ones.
  double raw_cmds_per_wall_s = 0;
  double raw_ms_per_vsec_p50 = 0;
  double raw_setup_s = 0;
  double ref_kernel_ms = 0;   ///< median raw kernel time
  double ref_spread_pct = 0;  ///< (p90 - p10) / median of kernel times
  bool host_unsteady = false;
};

inline HostSummary summarise(const std::vector<Round>& rounds, double nominal_ns) {
  HostSummary s;
  std::vector<double> norm_ms, raw_ms, setups, raw_setups, kernels;
  double norm_total_ns = 0, raw_total_ns = 0, vsec_total = 0;
  uint64_t cmds = 0;
  for (const Round& r : rounds) {
    kernels.push_back(r.pre_kernel_ns);
    kernels.insert(kernels.end(), r.kernel_ns.begin(), r.kernel_ns.end());
    std::vector<double> around{r.pre_kernel_ns};
    for (size_t i = 0; i < 2 && i < r.kernel_ns.size(); ++i) around.push_back(r.kernel_ns[i]);
    setups.push_back(r.setup_wall_ns * nominal_ns / median(around) / 1e9);
    raw_setups.push_back(r.setup_wall_ns / 1e9);
    for (size_t i = 0; i < r.slices.size(); ++i) {
      const Slice& sl = r.slices[i];
      const double norm_ns = sl.wall_ns * nominal_ns / local_kernel_ns(r.kernel_ns, i);
      norm_ms.push_back(norm_ns / 1e6 / sl.vsec);
      raw_ms.push_back(sl.wall_ns / 1e6 / sl.vsec);
      norm_total_ns += norm_ns;
      raw_total_ns += sl.wall_ns;
      vsec_total += sl.vsec;
      cmds += sl.cmds;
    }
  }
  s.slice_count = norm_ms.size();
  s.ms_per_vsec_p50 = quantile(norm_ms, 0.5);
  s.ms_per_vsec_p90 = quantile(norm_ms, 0.9);
  s.beyond_p90 = static_cast<size_t>(std::count_if(
      norm_ms.begin(), norm_ms.end(), [&](double v) { return v > s.ms_per_vsec_p90; }));
  s.raw_ms_per_vsec_p50 = quantile(raw_ms, 0.5);
  if (vsec_total > 0) s.ms_per_vsec_mean = norm_total_ns / 1e6 / vsec_total;
  if (norm_total_ns > 0) s.cmds_per_s = static_cast<double>(cmds) / (norm_total_ns / 1e9);
  if (raw_total_ns > 0) s.raw_cmds_per_wall_s = static_cast<double>(cmds) / (raw_total_ns / 1e9);
  s.setup_s = median(setups);
  s.raw_setup_s = median(raw_setups);
  const double kmed = median(kernels);
  s.ref_kernel_ms = kmed / 1e6;
  if (kmed > 0) {
    s.ref_spread_pct = (quantile(kernels, 0.9) - quantile(kernels, 0.1)) / kmed * 100.0;
  }
  s.host_unsteady = s.ref_spread_pct > kUnsteadySpreadPct;
  return s;
}

}  // namespace epxbench
