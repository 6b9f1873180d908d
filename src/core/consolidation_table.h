// The Algorithm 1 data structure itself — events, per-segment coordinate
// orders with prefix sums, and the paper's allStatus list — factored out of
// EventConsolidator (consolidation.h), its one owner.
//
// A note on determinism: within a segment no two entries of `order`
// compare equivalent (coordinates tie-break by particle id), so the sorted
// order is the UNIQUE sequence satisfying the comparator.
//
// Quarantines are a query-time mask over the same table (TableMask). A
// quarantine only removes particles, and each pairwise crossing time
// depends only on its pair, so the survivors' events are a subset of the
// full events and, between two full-table events, the survivors' order is
// the full order with the quarantined ids skipped. Filtering a segment's
// order and left-folding its prefix sums therefore reproduces the doubles a
// table built over the survivors alone would hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/model.h"

namespace coolopt::core {

/// A consolidation decision: which machines to keep ON for a given load.
struct ConsolidationChoice {
  std::vector<size_t> on_set;  ///< machine indices, unsorted
  size_t k = 0;                ///< == on_set.size()
  double t_param = 0.0;        ///< clamped particle time actually used
  double t_ac = 0.0;           ///< w1 * t_param
  double predicted_total_power_w = 0.0;
  /// Table segment the choice was materialized from (the memo layer's key;
  /// only meaningful for choices produced by a ConsolidationTable).
  size_t segment = 0;
};

/// The particle view of a room model (exposed for tests and benches).
struct ParticleSystem {
  std::vector<double> a;  ///< initial coordinates, a_i = K_i
  std::vector<double> b;  ///< speeds, b_i = alpha_i/beta_i (> 0)
  double w1 = 0.0;        ///< shared w1 (validated uniform)
  double w2 = 0.0;        ///< shared w2 (validated uniform)
  double t_lo = 0.0;      ///< max(0, t_ac_min/w1)
  double t_hi = 0.0;      ///< t_ac_max / w1

  static ParticleSystem from_model(const RoomModel& model);
  /// Skips RoomModel::validate() (caller already ran it); still enforces
  /// the uniform-w1/w2 assumption the reduction needs.
  static ParticleSystem from_model(const RoomModel& model, PreValidated);
  size_t size() const { return a.size(); }
  double coordinate(size_t i, double t) const { return a[i] - b[i] * t; }
};

namespace detail {

/// Feasibility slack shared by every consolidation solver (the particle
/// time may undershoot t_lo by at most this before a subset is rejected).
constexpr double kFeasEps = 1e-7;

/// Crossing times closer than this collapse into one event (the
/// floating-point analogue of the paper's "distinct crossing times").
constexpr double kEventMergeEps = 1e-12;

struct ConsolidationTable;

/// A segment's coordinate order and prefix sums, as one query reads them:
/// the table's own arrays, or a mask's filtered copies. Valid until the
/// next ConsolidationTable::view call with the same mask.
struct SegmentView {
  const uint32_t* order = nullptr;
  const double* prefix_a = nullptr;
  const double* prefix_b = nullptr;
};

/// Query-time restriction of a ConsolidationTable to a subset of its
/// particles (a quarantine). Each segment's filtered order and prefix sums
/// are written on the segment's first touch into grow-only buffers, so a
/// warm mask allocates nothing. Not thread-safe: one per thread
/// (SolveScratch holds one).
class TableMask {
 public:
  /// Keeps the particles of `ps` whose flag is non-zero and forgets the
  /// segments materialized for the previous mask. `table` must be built
  /// over all of `ps`, and `ps` must outlive the queries. Throws
  /// std::invalid_argument when `keep` does not hold one flag per particle.
  void reset(const ConsolidationTable& table, const ParticleSystem& ps,
             const std::vector<char>& keep);
  /// Number of kept particles (k ranges over 1..width()).
  size_t width() const { return width_; }
  /// Heap footprint of the buffers (capacities).
  size_t bytes() const;

 private:
  friend struct ConsolidationTable;
  const ParticleSystem* ps_ = nullptr;
  std::vector<char> keep_;
  size_t width_ = 0;
  std::vector<uint32_t> slot_;     // per segment: 1 + view index, 0 = untouched
  // View v of each buffer is [v * (width_ + 1), (v + 1) * (width_ + 1));
  // order_ uses the prefix arrays' stride so one size check covers all three.
  std::vector<uint32_t> order_;
  std::vector<double> prefix_a_;
  std::vector<double> prefix_b_;
  size_t views_ = 0;
};

/// The query functions below take an optional `mask` (nullptr = the whole
/// table) and read every segment through view(), so one implementation
/// serves full-fleet and quarantined queries alike. Masked choices carry
/// full-table segment indices.
struct ConsolidationTable {
  struct Segment {
    double start = 0.0;       // particle time at segment start
    double order_time = 0.0;  // time the order was sorted at (mid-segment)
    std::vector<uint32_t> order;  // particle ids, coordinate-descending
    std::vector<double> prefix_a;  // prefix_a[k] = sum of top-k a
    std::vector<double> prefix_b;  // prefix_b[k] = sum of top-k b
  };
  struct Status {  // one (event-time, k) entry of the paper's allStatus
    double l_max = 0.0;
    double t = 0.0;
    uint32_t segment = 0;
    uint32_t k = 0;
  };

  std::vector<double> events;      // sorted collapsed crossing times > 0
  std::vector<Segment> segments;   // segments[0].start == 0
  std::vector<Status> statuses;    // sorted by l_max; see build_statuses

  /// Tolerance-collapse of an ascending-sorted crossing-time list
  /// (duplicates allowed): keeps a time iff it is >= kEventMergeEps past
  /// the previously kept one. Equivalent to the historical
  /// sort-then-std::unique pass for any ascending input, duplicated or
  /// distinct.
  static std::vector<double> collapse_events(const std::vector<double>& sorted_times);

  /// Builds the segments over the particles named in `ids` (ascending
  /// original ids) from an already-collapsed event list.
  void build(const ParticleSystem& ps, const std::vector<uint32_t>& ids,
             std::vector<double> collapsed_events);
  /// Builds the paper's allStatus (segments x n entries) that only the
  /// Algorithm 2 query reads.
  void build_statuses();

  /// Number of particles a query covers (k ranges over 1..width(mask)).
  size_t width(const TableMask* mask = nullptr) const {
    if (mask != nullptr) return mask->width();
    return segments.empty() ? 0 : segments.front().order.size();
  }
  /// Segment s's order and prefix sums, filtered through `mask` if given.
  SegmentView view(size_t s, TableMask* mask = nullptr) const;

  /// Max of sum of k largest coordinates at time t.
  double g(size_t k, double t, TableMask* mask = nullptr) const;
  /// Segment containing particle time t (last segment whose start <= t).
  size_t segment_at(double t) const;
  /// Segment the k-subset operates in for this load: last segment whose
  /// start-value of g_k still covers the load, then the (clamped) subset
  /// time mapped back through segment_at. Shared by solve_for_k and
  /// query_best_into so both see the identical operating segment.
  size_t operating_segment(const ParticleSystem& ps, double load, size_t k,
                           TableMask* mask = nullptr) const;
  /// Exact per-k solve; nullopt if k machines cannot serve the load.
  std::optional<ConsolidationChoice> solve_for_k(const ParticleSystem& ps,
                                                 const RoomModel& model,
                                                 double load, size_t k) const;
  /// The single best choice — the head of rank_all_k_into — without
  /// materializing an on_set per k: the per-k predicted power is O(1) from
  /// the prefix sums (w2 is validated uniform), so the scan is
  /// O(n lg #segments) + O(k) for the winner, versus the O(n^2) on_set
  /// copies of the full ranking. Writes into a caller-owned choice (on_set
  /// buffer reused); returns false when no k is feasible.
  bool query_best_into(const ParticleSystem& ps, const RoomModel& model,
                       double load, ConsolidationChoice& out,
                       TableMask* mask = nullptr) const;
  ConsolidationChoice make_choice(const ParticleSystem& ps, const RoomModel& model,
                                  size_t segment, size_t k, double load) const;
  /// make_choice writing into a caller-owned choice (on_set buffer reused).
  void make_choice_into(const ParticleSystem& ps, const RoomModel& model,
                        size_t segment, size_t k, double load,
                        ConsolidationChoice& out,
                        TableMask* mask = nullptr) const;
  /// Feasibility + operating segment + predicted power for one k, without
  /// materializing the on_set. `sum_w2_k` must be the iterated sum of the
  /// subset's w2 draws; when w2 is bitwise-uniform across machines (the
  /// engine checks), any k-subset folds to the same double, so the power
  /// here is bit-for-bit what make_choice computes. This is the memo layer's
  /// segment probe. Returns false when k machines cannot serve the load.
  bool peek_k(const ParticleSystem& ps, const RoomModel& model, double load,
              size_t k, double sum_w2_k, size_t* segment_out,
              double* power_out) const;
  /// Best subset for every feasible k, sorted by predicted power then k.
  std::vector<ConsolidationChoice> rank_all_k(const ParticleSystem& ps,
                                              const RoomModel& model,
                                              double load) const;
  /// rank_all_k into a grow-only buffer: entries [0, returned count) of
  /// `out` are the ranked choices; slots past the count are untouched spare
  /// capacity (their on_set heap blocks get reused next call). Bit-for-bit
  /// the rank_all_k sequence.
  size_t rank_all_k_into(const ParticleSystem& ps, const RoomModel& model,
                         double load, std::vector<ConsolidationChoice>& out,
                         TableMask* mask = nullptr) const;
  /// The paper's Algorithm 2: binary search over statuses (requires
  /// build_statuses()).
  std::optional<ConsolidationChoice> query_paper(const ParticleSystem& ps,
                                                 const RoomModel& model,
                                                 double load) const;
  /// The paper's maxL(A, P_b, k) by bisection on [0, g_k(t_lo)].
  double max_load_for_budget(const ParticleSystem& ps, const RoomModel& model,
                             double power_budget_w, size_t k) const;
};

}  // namespace detail
}  // namespace coolopt::core
