// coolbench's own unit tests: request generation, the quarantine walk and
// the percentile helper. `python3 coolbench/run.py --selftest` runs these
// and then checks that the exact metrics repeat for a fixed seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "service/wire.h"
#include "stats.h"
#include "workload.h"

namespace cb = coolbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

std::vector<std::string> lines(const cb::WorkloadSpec& spec, uint64_t seed,
                               size_t n) {
  cb::RequestStream stream(spec, seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(cb::request_line(spec.verb, stream.at(i)));
  }
  return out;
}

void generation_is_deterministic_per_seed() {
  for (const cb::WorkloadSpec& spec : cb::workloads()) {
    const size_t n = 3 * cb::block_requests(spec) + 5;
    CHECK(lines(spec, 7, n) == lines(spec, 7, n));
    CHECK(lines(spec, 7, n) != lines(spec, 8, n));
  }
}

void loads_are_stratified() {
  for (const cb::WorkloadSpec& spec : cb::workloads()) {
    cb::RequestStream stream(spec, 3);
    const double width =
        (spec.load_hi_pct - spec.load_lo_pct) / static_cast<double>(spec.bands);
    const size_t round = spec.scenarios.size() * spec.bands;
    const size_t block = cb::block_requests(spec);
    for (size_t b0 = 0; b0 < 2 * block; b0 += block) {
      // Per (scenario, band): which sub-bands the block's rounds used.
      std::vector<std::vector<int>> sub(spec.scenarios.size() * spec.bands,
                                        std::vector<int>(cb::kBlockRounds, 0));
      for (size_t r = 0; r < cb::kBlockRounds; ++r) {
        std::vector<int> seen(spec.scenarios.size() * spec.bands, 0);
        for (size_t i = 0; i < round; ++i) {
          const cb::Request& q = stream.at(b0 + r * round + i);
          const size_t s = static_cast<size_t>(
              std::find(spec.scenarios.begin(), spec.scenarios.end(),
                        q.scenario) -
              spec.scenarios.begin());
          CHECK(s < spec.scenarios.size());
          const double lo = spec.load_lo_pct + width * static_cast<double>(q.band);
          CHECK(q.load_pct >= lo - 1e-4 && q.load_pct <= lo + width + 1e-4);
          const size_t cell = s * spec.bands + q.band;
          ++seen[cell];
          const double pos = (q.load_pct - lo) / width *
                             static_cast<double>(cb::kBlockRounds);
          const size_t k = std::min<size_t>(
              cb::kBlockRounds - 1,
              static_cast<size_t>(std::max(0.0, std::floor(pos + 1e-6))));
          ++sub[cell][k];
        }
        // A round is one draw per band for every scenario.
        for (const int count : seen) CHECK(count == 1);
      }
      // A block covers each band's sub-bands once each (up to the 4-decimal
      // rounding of loads that sit on a sub-band edge).
      size_t even = 0;
      for (const std::vector<int>& cell : sub) {
        even += std::all_of(cell.begin(), cell.end(),
                            [](int c) { return c == 1; });
      }
      CHECK(even + sub.size() / 50 >= sub.size());
    }
  }
}

void blocks_fill_each_others_gaps() {
  // Blocks 0..3 shift their sub-band offset by 0, 1/2, 1/4 and 3/4 of a
  // sub-band, so together they plan every band on an even grid of
  // 4 * kBlockRounds loads.
  constexpr size_t kBlocks = 4;
  for (const cb::WorkloadSpec& spec : cb::workloads()) {
    if (spec.cycled) continue;
    cb::RequestStream stream(spec, 9);
    const double width =
        (spec.load_hi_pct - spec.load_lo_pct) / static_cast<double>(spec.bands);
    const double step = width / static_cast<double>(kBlocks * cb::kBlockRounds);
    std::vector<std::vector<double>> cells(spec.scenarios.size() * spec.bands);
    for (size_t i = 0; i < kBlocks * cb::block_requests(spec); ++i) {
      const cb::Request& q = stream.at(i);
      const size_t s = static_cast<size_t>(
          std::find(spec.scenarios.begin(), spec.scenarios.end(), q.scenario) -
          spec.scenarios.begin());
      cells[s * spec.bands + q.band].push_back(q.load_pct);
    }
    for (std::vector<double>& loads : cells) {
      CHECK(loads.size() == kBlocks * cb::kBlockRounds);
      std::sort(loads.begin(), loads.end());
      for (size_t k = 1; k < loads.size(); ++k) {
        CHECK(std::abs(loads[k] - loads[k - 1] - step) < 2e-4);
      }
    }
  }
}

void quarantine_walk_moves_one_machine() {
  const cb::WorkloadSpec& spec = *cb::find_workload("plan-churn-n200");
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    cb::RequestStream stream(spec, seed);
    std::vector<size_t> previous;
    size_t largest = 0;
    for (size_t i = 0; i < 4000; ++i) {
      const std::vector<size_t>& q = stream.at(i).quarantined;
      CHECK(std::is_sorted(q.begin(), q.end()));
      CHECK(std::adjacent_find(q.begin(), q.end()) == q.end());
      CHECK(q.size() <= cb::kMaxQuarantined);
      CHECK(q.empty() || q.back() < spec.machines);
      std::vector<size_t> diff;
      std::set_symmetric_difference(previous.begin(), previous.end(), q.begin(),
                                    q.end(), std::back_inserter(diff));
      CHECK(diff.size() == 1);
      largest = std::max(largest, q.size());
      previous = q;
    }
    CHECK(largest == cb::kMaxQuarantined);  // the walk spans [0, 8]
  }
  for (const cb::WorkloadSpec& other : cb::workloads()) {
    if (other.churn) continue;
    cb::RequestStream stream(other, 1);
    for (size_t i = 0; i < 100; ++i) CHECK(stream.at(i).quarantined.empty());
  }
}

void lines_parse_to_the_generated_request() {
  for (const cb::WorkloadSpec& spec : cb::workloads()) {
    cb::RequestStream stream(spec, 5);
    for (size_t i = 0; i < 200; ++i) {
      const cb::Request& q = stream.at(i);
      coolopt::service::WireRequest parsed;
      std::string error;
      CHECK(coolopt::service::parse_request(
          cb::request_line(spec.verb, q, q.id + 1), parsed, error));
      CHECK(parsed.id == q.id);
      CHECK(parsed.scenario == q.scenario);
      CHECK(parsed.load_pct == q.load_pct);
      CHECK(parsed.trace_id.has_value() && *parsed.trace_id == q.id + 1);
      CHECK(parsed.quarantined == q.quarantined);
    }
  }
}

void percentile_reports_its_sample_count() {
  std::vector<double> ok = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10};
  const cb::Percentile p50 = cb::percentile(ok, 0, 50);
  CHECK(p50.samples == 10);
  CHECK(p50.value == 5);
  CHECK(p50.beyond == 5);
  const cb::Percentile p90 = cb::percentile(ok, 0, 90);
  CHECK(p90.value == 9);
  CHECK(p90.beyond == 1);
  std::vector<double> none;
  const cb::Percentile empty = cb::percentile(none, 0, 99);
  CHECK(empty.samples == 0);
  CHECK(empty.value == 0);
}

void failures_miss_every_percentile() {
  // 9 OK requests and 1 failure: the failure ranks above every OK one.
  std::vector<double> ok = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  CHECK(cb::percentile(ok, 1, 50).samples == 10);
  CHECK(cb::percentile(ok, 1, 50).value == 5);
  CHECK(cb::percentile(ok, 1, 90).value == 9);
  CHECK(std::isinf(cb::percentile(ok, 1, 99).value));
  CHECK(std::isinf(cb::percentile(ok, 1, 100).value));
  // Half failed: everything from the median up is a miss.
  std::vector<double> half = {1, 2, 3, 4, 5};
  CHECK(cb::percentile(half, 5, 50).value == 5);
  CHECK(std::isinf(cb::percentile(half, 5, 51).value));
  // Misses never lower a percentile.
  for (double p = 1; p <= 100; p += 1) {
    CHECK(cb::percentile(half, 3, p).value >= cb::percentile(half, 0, p).value);
  }
  // All failed: every percentile is a miss.
  std::vector<double> lost;
  CHECK(std::isinf(cb::percentile(lost, 4, 1).value));
}

}  // namespace

int main() {
  generation_is_deterministic_per_seed();
  loads_are_stratified();
  blocks_fill_each_others_gaps();
  quarantine_walk_moves_one_machine();
  lines_parse_to_the_generated_request();
  percentile_reports_its_sample_count();
  failures_miss_every_percentile();
  if (g_failures != 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("coolbench_selftest: all checks passed\n");
  return 0;
}
