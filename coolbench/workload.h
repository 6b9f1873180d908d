// The coolopt benchmark's workloads and their seeded request generation.
//
// Everything here is owned by the benchmark, not by the program under test:
// the generator, the request-line text and the quarantine walk are fixed
// here so that a change to coolopt can never change what it is measured on.
// The server only ever sees the generated request lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace coolbench {

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n); n > 0.
  size_t below(size_t n);

 private:
  uint64_t state_;
};

/// 64-bit FNV-1a: seeds streams from workload names and digests responses.
uint64_t fnv1a(std::string_view bytes);

enum class Verb { kPlan, kFleetplan };

/// How a workload's solves must use the bounded LP: its regime check.
enum class LpUse { kAny, kAlways, kNever };

/// One workload: the fleet it plans for, the traffic it sends and the
/// server shape it sends it to.
struct WorkloadSpec {
  std::string_view name;
  Verb verb = Verb::kPlan;
  size_t machines = 200;
  size_t shards = 0;  ///< cooloptd --fleet-shards; 0 = monolithic
  std::vector<int> scenarios;
  double load_lo_pct = 10.0;
  double load_hi_pct = 90.0;
  /// Load strata per round and scenario: a round draws one load in each
  /// of `bands` equal-width bands of [load_lo_pct, load_hi_pct].
  size_t bands = 8;
  /// false = an unbounded stream of fresh blocks; true = the stream is its
  /// first block, cycled.
  bool cycled = false;
  size_t connections = 1;  ///< closed-loop clients, one request in flight each
  /// Run every thread of the process (client and server) on one CPU. For
  /// traffic that keeps one thread busy at a time: on a shared virtual
  /// machine a hand-off to a thread on another, idle vCPU costs whatever
  /// the neighbours make it cost, while on one CPU it is a context switch.
  bool one_cpu = false;
  bool churn = false;  ///< quarantine walk: one machine changes per request
  LpUse lp = LpUse::kAny;
};

/// Requests per round: every scenario once per band.
inline size_t round_requests(const WorkloadSpec& spec) {
  return spec.scenarios.size() * spec.bands;
}

/// Rounds per stratification block: see RequestStream.
inline constexpr size_t kBlockRounds = 4;

/// Requests per block of rounds. The stream's first block is the fixed
/// "layer set" every count, share and mean plan power is taken over, so
/// those repeat exactly for a fixed seed however many requests the timed
/// window completes.
inline size_t block_requests(const WorkloadSpec& spec) {
  return round_requests(spec) * kBlockRounds;
}

/// Largest quarantine set the churn walk reaches.
inline constexpr size_t kMaxQuarantined = 8;

const std::vector<WorkloadSpec>& workloads();
/// nullptr when no workload has this name.
const WorkloadSpec* find_workload(std::string_view name);

struct Request {
  uint64_t id = 0;  ///< the stream index; also the wire id
  int scenario = 8;
  double load_pct = 0.0;            ///< exactly the value the line carries
  std::vector<size_t> quarantined;  ///< ascending
  size_t band = 0;                  ///< stratum the load was drawn in
};

/// The request line (no newline). `trace_id` turns server tracing on.
std::string request_line(Verb verb, const Request& request,
                         std::optional<uint64_t> trace_id = std::nullopt);


/// The deterministic request stream of (workload, seed). A round draws one
/// load in every band for every scenario, in its own seeded order. Rounds
/// come in blocks of kBlockRounds that split each band into kBlockRounds
/// equal sub-bands and give each round one of them (a seeded permutation),
/// at the same offset in every sub-band, so every block covers every band
/// evenly. The offset is the band's seeded phase plus the block's base-2
/// radical inverse (0, 1/2, 1/4, 3/4, ...), so successive blocks fill the
/// gaps the earlier ones left: a window of a few blocks plans each band on
/// a near-even grid, and a seed changes which loads are planned far more
/// than what they cost, even at the tail percentiles.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, uint64_t seed);

  /// Request `index` of the stream, generated on first use. Cycled
  /// workloads wrap (`index % distinct()`). Not thread-safe while the
  /// stream is still growing: unbounded streams serve one connection.
  const Request& at(size_t index);
  /// Generated so far.
  size_t size() const { return requests_.size(); }
  /// 0 for an unbounded stream.
  size_t distinct() const { return spec_.cycled ? requests_.size() : 0; }
  const WorkloadSpec& spec() const { return spec_; }

 private:
  void append_block();

  WorkloadSpec spec_;
  Rng loads_;
  Rng walk_;
  std::vector<double> phases_;  ///< per (scenario, band), in [0, 1)
  size_t blocks_ = 0;           ///< blocks appended so far
  std::vector<size_t> quarantined_;  ///< the walk's current set
  std::vector<Request> requests_;
};

}  // namespace coolbench
