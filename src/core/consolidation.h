// Optimal load consolidation (Section III-B of the paper): choose which
// subset of machines to keep ON so that total predicted energy is minimal.
//
// Reduction (Eq. 23): with uniform w1/w2, the predicted total power of a
// subset S serving load L is
//
//   P(S, L) = |S| * w2 - rho * t_S + theta,
//     rho   = cfac * w1,
//     t_S   = (sum_S a_i - L) / (sum_S b_i),
//     a_i   = K_i (Eq. 19),   b_i = alpha_i / beta_i,
//     theta = cfac * T_SP + w1 * L  (subset-independent).
//
// t_S is the "particle time": machine i is a particle at coordinate
// x_i(t) = a_i - b_i t, and x_i(t_S) is exactly the optimal load L_i* of
// Eq. 22. Maximizing t_S for fixed |S| = picking the k largest coordinates
// at the fixed point; the top-k set only changes when two particles cross,
// so there are O(n^2) crossing events and O(n^2) coordinate orders in
// total. Algorithm 1 precomputes them in O(n^3 lg n); Algorithm 2 answers a
// load query from the precomputed statuses.
//
// Physical actuation limits enter as bounds on the particle time:
// t in [t_ac_min/w1, t_ac_max/w1]. Below the lower bound the subset cannot
// serve the load within T_max at any allowed cool-air temperature
// (infeasible); above the upper bound the room simply runs at t_ac_max with
// every machine below T_max (the time is clamped). Machine capacities are
// NOT modeled here (the paper's reduction has no room for them); callers
// needing hard capacity guarantees re-validate the returned subset with
// LpOptimizer and fall back to the ranked alternatives (rank_all_k).
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "core/consolidation_table.h"
#include "core/model.h"

namespace coolopt::core {

/// Predicted total power of an explicit subset serving `load`, with the
/// particle time clamped into the actuation range. std::nullopt when the
/// subset cannot serve the load under the temperature ceiling.
std::optional<ConsolidationChoice> evaluate_consolidation_subset(
    const RoomModel& model, const std::vector<size_t>& subset, double load);

/// Exact exponential-time reference (the paper's "naive O(n 2^n)"): used by
/// the property tests to certify the event-based algorithm. Guarded to
/// n <= 20.
class BruteForceConsolidator {
 public:
  explicit BruteForceConsolidator(RoomModel model);

  /// Best subset over all 2^n - 1 non-empty subsets, or nullopt if no
  /// subset can serve the load.
  std::optional<ConsolidationChoice> best(double load) const;

  /// Best subset of exactly k machines.
  std::optional<ConsolidationChoice> best_of_size(double load, size_t k) const;

  const RoomModel& model() const { return model_; }

 private:
  RoomModel model_;
};

/// Algorithm 1 (offline preprocessing) + Algorithm 2 (online query).
class EventConsolidator {
 public:
  explicit EventConsolidator(RoomModel model);

  /// Shares an immutable model instead of copying it (the PlanEngine path).
  explicit EventConsolidator(SharedRoomModel model);

  /// Shares a model the caller has already validated: skips the
  /// RoomModel::validate() pass (the O(n^3 lg n) Algorithm 1 preprocessing
  /// still runs — that is precisely what the PlanEngine caches so it
  /// happens once per model).
  EventConsolidator(SharedRoomModel model, PreValidated);

  enum class QueryMode {
    /// The paper's Algorithm 2 verbatim: one binary search over all
    /// statuses sorted by Lmax; O(lg n) after preprocessing.
    kPaperBinarySearch,
    /// Per-k segment search with the exact within-segment crossing solve;
    /// O(n lg n) per query and provably optimal under the model (the
    /// property tests pin both modes against brute force).
    kExactPerK,
  };

  std::optional<ConsolidationChoice> query(
      double load, QueryMode mode = QueryMode::kExactPerK) const;

  /// Best subset for every feasible k, sorted by predicted power
  /// (ascending). Lets callers walk down the ranking when the best choice
  /// fails external validation (capacity/LP).
  std::vector<ConsolidationChoice> rank_all_k(double load) const;

  /// rank_all_k into a grow-only buffer (see ConsolidationTable::
  /// rank_all_k_into): entries [0, returned count) are the ranking, spare
  /// slots keep their heap blocks for reuse. Same instrumentation, same
  /// bit-for-bit sequence as rank_all_k. A `mask` (reset against table()
  /// and particles()) ranks only the machines it keeps.
  size_t rank_all_k_into(double load, std::vector<ConsolidationChoice>& out,
                         detail::TableMask* mask = nullptr) const;

  /// The paper's maxL(A, P_b, k): largest load exactly-k machines can
  /// serve with predicted total power <= power_budget_w. 0 if even L=0 is
  /// over budget; capped at the load that drives t to t_lo.
  double max_load_for_budget(double power_budget_w, size_t k) const;

  // --- introspection for tests/benches ---
  size_t event_count() const { return table_.events.size(); }
  size_t segment_count() const { return table_.segments.size(); }
  /// allStatus entries; the first call (or Algorithm 2 query) builds them.
  size_t status_count() const;
  const ParticleSystem& particles() const { return particles_; }
  const detail::ConsolidationTable& table() const { return table_; }

  const RoomModel& model() const { return *model_; }

 private:
  void preprocess();
  /// table_ with its statuses built (once, thread-safe).
  const detail::ConsolidationTable& paper_table() const;

  SharedRoomModel model_;
  ParticleSystem particles_;
  /// The Algorithm 1 structure; mutable only for the statuses, which
  /// paper_table() fills on first use.
  mutable detail::ConsolidationTable table_;
  mutable std::once_flag statuses_once_;
};

}  // namespace coolopt::core
