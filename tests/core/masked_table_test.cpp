// Quarantine masks over the Algorithm 1 table vs the survivor oracle: a
// masked query on the full-fleet table must be BIT-FOR-BIT what an
// EventConsolidator built over the surviving machines alone answers (ids
// mapped back; only ConsolidationChoice::segment differs, since masked
// choices index the full table) — for any quarantine set, and the plans
// the engine derives from it must be identical at any worker count.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/consolidation.h"
#include "core/engine.h"
#include "core/synthetic.h"
#include "util/rng.h"

namespace coolopt::core {
namespace {

/// SKU-structured fleet: `skus` distinct machine classes replicated across
/// `machines` slots, the regime where particles tie and crossing times
/// repeat (id tie-breaks decide the orders).
RoomModel sku_model(size_t machines, size_t skus, uint64_t seed) {
  SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  RoomModel model = make_synthetic_model(opt);
  for (size_t i = skus; i < model.size(); ++i) {
    model.machines[i] = model.machines[i % skus];
  }
  return model;
}

/// Fully heterogeneous fleet (every machine its own class): every
/// quarantine drops crossing events from the survivors' table.
RoomModel diverse_model(size_t machines, uint64_t seed) {
  SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  return make_synthetic_model(opt);
}

/// Choices equal in everything but the table segment they index.
void expect_choices_identical(const ConsolidationChoice& a,
                              const ConsolidationChoice& b) {
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.on_set, b.on_set);
  EXPECT_EQ(a.t_param, b.t_param);
  EXPECT_EQ(a.t_ac, b.t_ac);
  EXPECT_EQ(a.predicted_total_power_w, b.predicted_total_power_w);
}

void expect_results_identical(const PlanResult& a, const PlanResult& b,
                              size_t index) {
  SCOPED_TRACE("request " + std::to_string(index));
  ASSERT_EQ(a.error, b.error);
  EXPECT_EQ(a.shed_load, b.shed_load);
  EXPECT_EQ(a.shard, b.shard);
  ASSERT_EQ(a.plan.has_value(), b.plan.has_value());
  if (!a.plan) return;
  EXPECT_EQ(a.plan->allocation.on, b.plan->allocation.on);
  EXPECT_EQ(a.plan->allocation.loads, b.plan->allocation.loads);
  EXPECT_EQ(a.plan->allocation.t_ac, b.plan->allocation.t_ac);
  EXPECT_EQ(a.plan->allocation.total_power_w, b.plan->allocation.total_power_w);
}

/// Masked rank_all_k_into and query_best_into on `full` must equal the
/// same queries on a table built over the kept machines alone. `mask` is
/// reset here, so a caller can reuse one mask across widths and tables
/// as the engine's per-thread scratch does.
void expect_mask_matches_oracle(const EventConsolidator& full,
                                const std::vector<char>& keep,
                                const std::vector<double>& loads,
                                detail::TableMask& mask) {
  const RoomModel& room = full.model();
  RoomModel survivors = room;
  survivors.machines.clear();
  std::vector<size_t> ids;  // survivor index -> original machine id
  for (size_t i = 0; i < room.size(); ++i) {
    if (keep[i] == 0) continue;
    survivors.machines.push_back(room.machines[i]);
    ids.push_back(i);
  }

  mask.reset(full.table(), full.particles(), keep);
  ASSERT_EQ(full.table().width(&mask), ids.size());
  std::vector<ConsolidationChoice> masked;
  ConsolidationChoice masked_best;
  if (ids.empty()) {
    // g_0 reads a segment's (empty) filtered view.
    EXPECT_EQ(full.table().g(0, full.particles().t_lo, &mask), 0.0);
    for (const double load : loads) {
      EXPECT_EQ(full.rank_all_k_into(load, masked, &mask), 0u);
      EXPECT_FALSE(full.table().query_best_into(full.particles(), room, load,
                                                masked_best, &mask));
    }
    return;
  }

  const EventConsolidator oracle(std::move(survivors));
  std::vector<ConsolidationChoice> expected;
  ConsolidationChoice expected_best;
  for (const double load : loads) {
    SCOPED_TRACE("load " + std::to_string(load));
    const size_t count = full.rank_all_k_into(load, masked, &mask);
    const size_t expected_count = oracle.rank_all_k_into(load, expected);
    ASSERT_EQ(count, expected_count);
    for (size_t c = 0; c < count; ++c) {
      SCOPED_TRACE("choice " + std::to_string(c));
      for (size_t& id : expected[c].on_set) id = ids[id];
      expect_choices_identical(masked[c], expected[c]);
    }
    const bool got = full.table().query_best_into(full.particles(), room,
                                                  load, masked_best, &mask);
    ASSERT_EQ(got, oracle.table().query_best_into(oracle.particles(),
                                                  oracle.model(), load,
                                                  expected_best));
    if (!got) continue;
    for (size_t& id : expected_best.on_set) id = ids[id];
    expect_choices_identical(masked_best, expected_best);
  }
}

std::vector<double> loads_of(const RoomModel& room) {
  const double capacity = room.total_capacity();
  return {0.1 * capacity, 0.35 * capacity, 0.6 * capacity, 0.9 * capacity};
}

/// A quarantine of `count` distinct machines drawn from `rng`.
std::vector<char> random_keep(size_t n, size_t count, util::Rng& rng) {
  std::vector<char> keep(n, 1);
  for (size_t q = 0; q < count; ++q) {
    size_t id = static_cast<size_t>(rng.next_u64() % n);
    while (keep[id] == 0) id = (id + 1) % n;
    keep[id] = 0;
  }
  return keep;
}

/// Seeded one-machine quarantine walk within [0, 8] on `room` (each step
/// quarantines or readmits exactly one machine); after every step the
/// masked queries must equal the survivor oracle. One mask serves the whole
/// walk and, between steps, a random quarantine of `foil` (a fleet of
/// another size), so the mask's width jumps in both directions the way a
/// thread's scratch mask does across requests and fleet shards.
void run_walk(const RoomModel& room, const RoomModel& foil, uint64_t seed,
              size_t steps) {
  const EventConsolidator full(room);
  const EventConsolidator foil_full(foil);
  detail::TableMask mask;
  const size_t n = room.size();
  std::vector<char> keep(n, 1);
  std::vector<size_t> quarantined;
  util::Rng rng(seed);
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("walk step " + std::to_string(step));
    const bool add = quarantined.empty() ||
                     (quarantined.size() < 8 && rng.next_u64() % 2 == 0);
    if (add) {
      size_t id = static_cast<size_t>(rng.next_u64() % n);
      while (keep[id] == 0) id = (id + 1) % n;
      keep[id] = 0;
      quarantined.push_back(id);
    } else {
      const size_t at = static_cast<size_t>(rng.next_u64() % quarantined.size());
      keep[quarantined[at]] = 1;
      quarantined.erase(quarantined.begin() + static_cast<long>(at));
    }
    expect_mask_matches_oracle(full, keep, loads_of(room), mask);
    SCOPED_TRACE("foil");
    const size_t foil_quarantined =
        static_cast<size_t>(rng.next_u64() % (foil.size() / 2 + 1));
    expect_mask_matches_oracle(
        foil_full, random_keep(foil.size(), foil_quarantined, rng),
        loads_of(foil), mask);
  }
}

/// Every segment's view read through `mask` must be the segment's full
/// order with the quarantined ids skipped, and prefix sums left-folded over
/// that filtered order.
void expect_views_filter_table(const EventConsolidator& full,
                               const std::vector<char>& keep,
                               detail::TableMask& mask) {
  const detail::ConsolidationTable& table = full.table();
  const ParticleSystem& ps = full.particles();
  mask.reset(table, ps, keep);
  const size_t w = table.width(&mask);
  // Materialize every segment first, so later views grow the buffers past
  // the ones read back below.
  for (size_t s = 0; s < table.segments.size(); ++s) table.view(s, &mask);
  for (size_t s = 0; s < table.segments.size(); ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    const detail::SegmentView got = table.view(s, &mask);
    double pa = 0.0;
    double pb = 0.0;
    ASSERT_EQ(got.prefix_a[0], 0.0);
    ASSERT_EQ(got.prefix_b[0], 0.0);
    size_t k = 0;
    for (const uint32_t id : table.segments[s].order) {
      if (keep[id] == 0) continue;
      ASSERT_LT(k, w);
      ASSERT_EQ(got.order[k], id);
      pa += ps.a[id];
      pb += ps.b[id];
      ++k;
      ASSERT_EQ(got.prefix_a[k], pa);
      ASSERT_EQ(got.prefix_b[k], pb);
    }
    ASSERT_EQ(k, w);
  }
}

TEST(MaskedTable, FullMaskMatchesUnmaskedTable) {
  const RoomModel room = sku_model(24, 4, 11);
  const EventConsolidator cons(room);
  detail::TableMask mask;
  mask.reset(cons.table(), cons.particles(),
             std::vector<char>(room.size(), 1));
  std::vector<ConsolidationChoice> masked;
  std::vector<ConsolidationChoice> unmasked;
  for (const double load : loads_of(room)) {
    const size_t count = cons.rank_all_k_into(load, masked, &mask);
    ASSERT_EQ(count, cons.rank_all_k_into(load, unmasked));
    for (size_t c = 0; c < count; ++c) {
      // Keeping everyone is the unmasked table, segment index included.
      EXPECT_EQ(masked[c].segment, unmasked[c].segment);
      expect_choices_identical(masked[c], unmasked[c]);
    }
  }
}

TEST(MaskedTable, SkuChurnMatchesSurvivorTableBitForBit) {
  run_walk(sku_model(48, 4, 11), diverse_model(60, 29), /*seed=*/1234,
           /*steps=*/40);
}

TEST(MaskedTable, DiverseChurnMatchesSurvivorTableBitForBit) {
  run_walk(diverse_model(60, 29), sku_model(48, 4, 11), /*seed=*/77,
           /*steps=*/40);
}

/// One mask reused across resets whose width grows and shrinks, over two
/// tables of different n, with every segment materialized each time: the
/// buffers must grow for the widest view, never hand out a view that a
/// later view overwrites, and every query must still match the oracle.
TEST(MaskedTable, ReusedMaskAcrossWidthsMatchesFilteredTable) {
  const EventConsolidator diverse(diverse_model(60, 29));
  const EventConsolidator sku(sku_model(48, 4, 11));
  detail::TableMask mask;
  util::Rng rng(99);
  struct Step {
    const EventConsolidator* cons;
    size_t quarantined;
  };
  for (const Step step : {Step{&diverse, 40}, Step{&diverse, 39},
                          Step{&diverse, 2}, Step{&sku, 47}, Step{&sku, 0},
                          Step{&diverse, 59}, Step{&diverse, 0},
                          Step{&sku, 10}, Step{&diverse, 30}}) {
    const RoomModel& room = step.cons->model();
    SCOPED_TRACE("n " + std::to_string(room.size()) + ", quarantined " +
                 std::to_string(step.quarantined));
    const std::vector<char> keep =
        random_keep(room.size(), step.quarantined, rng);
    expect_views_filter_table(*step.cons, keep, mask);
    expect_mask_matches_oracle(*step.cons, keep, loads_of(room), mask);
  }
}

TEST(MaskedTable, SingleSurvivorAndAllQuarantinedMasks) {
  for (const RoomModel& room : {diverse_model(60, 29), sku_model(48, 4, 11)}) {
    const EventConsolidator full(room);
    detail::TableMask mask;
    std::vector<char> keep(room.size(), 0);
    expect_mask_matches_oracle(full, keep, loads_of(room), mask);
    for (const size_t survivor : {size_t{0}, room.size() / 2, room.size() - 1}) {
      SCOPED_TRACE("survivor " + std::to_string(survivor));
      keep.assign(room.size(), 0);
      keep[survivor] = 1;
      // One machine carries little of the fleet's load: probe small loads.
      expect_mask_matches_oracle(
          full, keep, {0.0, 0.2 * room.machines[survivor].capacity,
                       0.8 * room.machines[survivor].capacity},
          mask);
    }
  }
}

TEST(MaskedTable, BadMaskSizeNamesBothCounts) {
  const EventConsolidator cons(sku_model(8, 2, 3));
  detail::TableMask mask;
  try {
    mask.reset(cons.table(), cons.particles(), std::vector<char>(5, 1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5"), std::string::npos) << what;
    EXPECT_NE(what.find("8"), std::string::npos) << what;
  }
}

/// The engine-level guarantee: quarantined (restricted) solves rank
/// through the masked table, and the batch result is identical at 1, 2
/// and 8 workers AND to a cold-cache engine solving each request fresh.
TEST(PlanEngine, QuarantinedBatchesAreWorkerCountInvariantAndIncremental) {
  const SharedRoomModel model = share_model(sku_model(20, 4, 5));
  const double capacity = model->total_capacity();
  const size_t n = model->size();

  util::Rng rng(4242);
  std::vector<PlanRequest> requests;
  for (size_t i = 0; i < 30; ++i) {
    std::vector<size_t> quarantined;
    const size_t q = static_cast<size_t>(rng.next_u64() % 5);
    for (size_t j = 0; j < q; ++j) {
      quarantined.push_back(static_cast<size_t>(rng.next_u64() % n));
    }
    requests.push_back(PlanRequest{Scenario::by_number(8),
                                   rng.uniform(0.1, 0.9) * capacity,
                                   std::move(quarantined)});
  }

  PlanEngine e1(model), e2(model), e8(model);
  const std::vector<PlanResult> r1 = e1.solve_batch(requests, 1);
  const std::vector<PlanResult> r2 = e2.solve_batch(requests, 2);
  const std::vector<PlanResult> r8 = e8.solve_batch(requests, 8);
  ASSERT_EQ(r1.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    expect_results_identical(r1[i], r2[i], i);
    expect_results_identical(r1[i], r8[i], i);
    // Cold-cache reference: a brand-new engine whose first restricted
    // solve builds the table and masks it at exactly this quarantine set,
    // on a new thread so that its scratch mask is fresh too.
    PlanEngine fresh(model);
    PlanResult reference;
    std::thread([&] { reference = fresh.solve(requests[i]); }).join();
    expect_results_identical(r1[i], reference, i);
  }

  EXPECT_GT(e1.counters().incremental_replans, 0u);
}

}  // namespace
}  // namespace coolopt::core
