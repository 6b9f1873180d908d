#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace coolbench {

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t Rng::below(size_t n) {
  return static_cast<size_t>(uniform() * static_cast<double>(n));
}

const std::vector<WorkloadSpec>& workloads() {
  // Shapes and rationale: coolbench/README.md.
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(4);
    w[0].name = "plan-optimal-n200";
    w[0].scenarios = {6, 8};
    w[0].lp = LpUse::kAlways;  // capacity bounds bind at every load
    w[0].one_cpu = true;

    w[1].name = "plan-wire-n200";
    w[1].scenarios = {1, 2, 3, 4, 5, 7};
    w[1].load_lo_pct = 1.0;
    w[1].load_hi_pct = 95.0;
    w[1].bands = 25;
    w[1].cycled = true;  // 600 distinct requests: 6 scenarios x 25 bands x 4
    w[1].connections = 2;
    w[1].lp = LpUse::kNever;  // heuristic splits never engage the LP

    w[2].name = "fleetplan-n800-s8";
    w[2].verb = Verb::kFleetplan;
    w[2].machines = 800;
    w[2].shards = 8;
    w[2].scenarios = {5, 6, 8};

    w[3].name = "plan-churn-n200";
    w[3].scenarios = {8};
    w[3].churn = true;
    w[3].one_cpu = true;
    return w;
  }();
  return kWorkloads;
}

uint64_t fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string request_line(Verb verb, const Request& request,
                         std::optional<uint64_t> trace_id) {
  char head[128];
  std::snprintf(head, sizeof head,
                "{\"id\":%llu,\"verb\":\"%s\",\"scenario\":%d,\"load_pct\":%.4f",
                static_cast<unsigned long long>(request.id),
                verb == Verb::kPlan ? "plan" : "fleetplan", request.scenario,
                request.load_pct);
  std::string line = head;
  if (!request.quarantined.empty()) {
    line += ",\"quarantined\":[";
    for (size_t i = 0; i < request.quarantined.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(request.quarantined[i]);
    }
    line += ']';
  }
  if (trace_id.has_value()) {
    line += ",\"trace_id\":" + std::to_string(*trace_id);
  }
  line += '}';
  return line;
}

namespace {

/// The load as the line will carry it (4 decimals), so the stream and the
/// wire agree on the exact double.
double wire_load(double pct) {
  char text[32];
  std::snprintf(text, sizeof text, "%.4f", pct);
  return std::strtod(text, nullptr);
}

/// Base-2 radical inverse (van der Corput): 0, 1/2, 1/4, 3/4, 1/8, ...
double radical_inverse(size_t index) {
  double value = 0.0;
  for (double digit = 0.5; index != 0; index >>= 1, digit /= 2.0) {
    if ((index & 1) != 0) value += digit;
  }
  return value;
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

}  // namespace

RequestStream::RequestStream(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      loads_(seed * 0x9e3779b97f4a7c15ull ^ fnv1a(spec.name)),
      walk_(~seed ^ fnv1a(spec.name)) {
  if (spec_.scenarios.empty() || spec_.bands == 0) {
    throw std::invalid_argument("coolbench: workload has no traffic");
  }
  if (!spec_.cycled && spec_.connections != 1) {
    throw std::invalid_argument(
        "coolbench: an unbounded stream grows as it is read; one connection");
  }
  for (size_t i = 0; i < spec_.scenarios.size() * spec_.bands; ++i) {
    phases_.push_back(loads_.uniform());
  }
  if (spec_.cycled) append_block();
}

const Request& RequestStream::at(size_t index) {
  if (spec_.cycled) return requests_[index % requests_.size()];
  while (index >= requests_.size()) append_block();
  return requests_[index];
}

void RequestStream::append_block() {
  const double width =
      (spec_.load_hi_pct - spec_.load_lo_pct) / static_cast<double>(spec_.bands);
  const double shift = radical_inverse(blocks_++);
  std::vector<std::vector<Request>> rounds(kBlockRounds);
  const double* phase = phases_.data();
  for (const int scenario : spec_.scenarios) {
    for (size_t band = 0; band < spec_.bands; ++band) {
      const double lo = spec_.load_lo_pct + width * static_cast<double>(band);
      const double offset = std::fmod(*phase++ + shift, 1.0);
      std::vector<size_t> sub_band(kBlockRounds);
      for (size_t r = 0; r < kBlockRounds; ++r) sub_band[r] = r;
      shuffle(sub_band, loads_);
      for (size_t r = 0; r < kBlockRounds; ++r) {
        Request request;
        request.scenario = scenario;
        request.band = band;
        request.load_pct = wire_load(
            lo + width * (static_cast<double>(sub_band[r]) + offset) /
                     static_cast<double>(kBlockRounds));
        rounds[r].push_back(std::move(request));
      }
    }
  }
  for (std::vector<Request>& round : rounds) {
    shuffle(round, loads_);
    for (Request& request : round) {
      request.id = requests_.size();
      if (spec_.churn) {
        // One machine joins or leaves per request; an empty set must grow
        // and a full one must shrink.
        const bool add =
            quarantined_.empty() ||
            (quarantined_.size() < kMaxQuarantined && (walk_.next() & 1) != 0);
        if (add) {
          size_t machine = walk_.below(spec_.machines);
          while (std::binary_search(quarantined_.begin(), quarantined_.end(),
                                    machine)) {
            machine = walk_.below(spec_.machines);
          }
          quarantined_.insert(std::upper_bound(quarantined_.begin(),
                                               quarantined_.end(), machine),
                              machine);
        } else {
          quarantined_.erase(quarantined_.begin() +
                             static_cast<std::ptrdiff_t>(
                                 walk_.below(quarantined_.size())));
        }
        request.quarantined = quarantined_;
      }
      requests_.push_back(std::move(request));
    }
  }
}

}  // namespace coolbench
