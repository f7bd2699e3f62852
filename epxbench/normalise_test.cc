// Self-test of the host normalisation (normalise.h).
//
// Feeds synthetic slice and kernel timings for one reference host, a
// host 2x slower, and a host whose speed changes mid-run, and checks
// that the normalised figures do not change while the raw ones do. Also
// checks that the mid-run change is flagged as an unsteady host and the
// steady hosts are not. Exit code 0 = pass.
//
//   .bench_build/epxbench/normalise_test
//   python3 epxbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "normalise.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool same(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a)); }

constexpr double kNominalNs = 1.5e6;
constexpr size_t kRounds = 3;
constexpr size_t kSlices = 40;

/// Builds rounds whose true work varies slice by slice (as simulated
/// load does), timed on a host whose slowdown at a point in the run is
/// `slowdown(round, position)`; position counts kernels and slices in
/// run order, so a step in it hits a kernel and the slices after it.
std::vector<epxbench::Round> synth(const std::function<double(size_t, size_t)>& slowdown) {
  std::vector<epxbench::Round> rounds;
  for (size_t r = 0; r < kRounds; ++r) {
    epxbench::Round round;
    round.pre_kernel_ns = 1.2e6 * slowdown(r, 0);
    round.setup_wall_ns = 3.0e8 * slowdown(r, 0);
    for (size_t i = 0; i < kSlices; ++i) {
      round.kernel_ns.push_back(1.2e6 * slowdown(r, i + 1));
      const double work = 2.0e7 * (1.0 + 0.3 * std::sin(static_cast<double>(i * 7 + r)));
      round.slices.push_back({work * slowdown(r, i + 1), 0.2, 1000 + 10 * i});
    }
    round.kernel_ns.push_back(1.2e6 * slowdown(r, kSlices + 1));
    rounds.push_back(std::move(round));
  }
  return rounds;
}

void compare(const char* host, const epxbench::HostSummary& ref, const epxbench::HostSummary& s) {
  const std::string h = host;
  expect(same(ref.cmds_per_s, s.cmds_per_s), h + ": cmds_per_s unchanged");
  expect(same(ref.ms_per_vsec_p50, s.ms_per_vsec_p50), h + ": ms_per_vsec_p50 unchanged");
  expect(same(ref.ms_per_vsec_p90, s.ms_per_vsec_p90), h + ": ms_per_vsec_p90 unchanged");
  expect(same(ref.setup_s, s.setup_s), h + ": setup_s unchanged");
  expect(!same(ref.raw_cmds_per_wall_s, s.raw_cmds_per_wall_s),
         h + ": raw cmds_per_wall_s does move");
}

}  // namespace

int main() {
  const auto reference = epxbench::summarise(synth([](size_t, size_t) { return 1.0; }), kNominalNs);
  expect(reference.slice_count == kRounds * kSlices, "every slice is counted");
  expect(!reference.host_unsteady, "a steady host is trusted");

  const auto slower = epxbench::summarise(synth([](size_t, size_t) { return 2.0; }), kNominalNs);
  compare("2x slower host", reference, slower);
  expect(!slower.host_unsteady, "2x slower host: still trusted (steady within the run)");

  // Speed drops by 2.5x from the middle of round 1 onward.
  const auto changing = epxbench::summarise(
      synth([](size_t r, size_t pos) { return (r > 1 || (r == 1 && pos >= kSlices / 2)) ? 2.5 : 1.0; }),
      kNominalNs);
  compare("host slowing mid-run", reference, changing);
  expect(changing.host_unsteady, "host slowing mid-run: flagged as unsteady");

  // One disturbed kernel must not move the slice figures.
  auto spiked = synth([](size_t, size_t) { return 1.0; });
  spiked[0].kernel_ns[8] *= 3.0;
  const auto spike = epxbench::summarise(spiked, kNominalNs);
  expect(same(spike.ms_per_vsec_p50, reference.ms_per_vsec_p50) &&
             same(spike.cmds_per_s, reference.cmds_per_s),
         "one disturbed kernel: slice figures unchanged");

  std::printf("%s\n", failures == 0 ? "normalise_test: PASS" : "normalise_test: FAIL");
  return failures == 0 ? 0 : 1;
}
