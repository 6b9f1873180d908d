// coolbench — the coolopt benchmark.
//
//   coolbench --workload NAME --seed N --seconds S --trace 0|1
//
// Starts an in-process model-backed cooloptd (service::PlanningService) on
// loopback over a core::make_synthetic_model fleet (seed 7) and drives one
// of four closed-loop workloads through the real wire: every client waits
// for each plan before sending the next, as controllers and cooloptctl do.
// After the timed window the server is stopped and every request it
// answered is replayed through direct in-process calls on fresh engines
// (parse_request, PlanEngine::solve_into / FleetEngine::solve, encode_*):
// each response must match those bytes, and every plan must pass
// core::audit_feasibility. The replay also times each layer's public
// functions; with --trace 1 whole rounds of the window alternate between
// untraced and traced, and those timings, the layer counts and the tracing
// overhead are reported instead of the end-to-end metrics.
//
// The last stdout line is one JSON object: correct / attempted / failed /
// metrics. coolbench/README.md documents every metric and workload.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <limits>
#include <utility>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/scratch.h"
#include "core/synthetic.h"
#include "core/verification.h"
#include "fleet/fleet_engine.h"
#include "fleet/topology.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "workload.h"

using namespace coolopt;
namespace cb = coolbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// setup_s is the median of at least kMinSetups setups; cheap setups repeat
// until kSetupBudgetS is spent (at most kMaxSetups), so a few milliseconds
// of thread start-up noise do not decide the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
constexpr size_t kServerWorkers = 2;
constexpr double kProbeLoadPct = 10.0;
constexpr uint64_t kProbeIdBase = 1u << 30;  ///< above any stream index
constexpr uint64_t kClientTimeoutMs = 120000;
constexpr uint64_t kModelSeed = 7;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_options(int argc, char** argv, Options& out, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + std::string(flag);
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out.workload = value;
    } else if (flag == "--seed") {
      out.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      out.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      out.trace = std::strtol(value, &end, 10) != 0;
    } else {
      error = "unknown flag " + std::string(flag);
      return false;
    }
    if (end != nullptr && *end != '\0') {
      error = "bad value for " + std::string(flag) + ": " + value;
      return false;
    }
  }
  if (cb::find_workload(out.workload) == nullptr) {
    error = "unknown --workload '" + out.workload + "'; one of:";
    for (const cb::WorkloadSpec& spec : cb::workloads()) {
      error += " " + std::string(spec.name);
    }
    return false;
  }
  if (!(out.seconds > 0.0)) {
    error = "--seconds must be positive";
    return false;
  }
  return true;
}

// --- setup ---

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the CPU it is running on. Returns that CPU, or -1 if the kernel refuses
/// (the run then goes on unpinned).
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Fixed, seed-independent warm-up requests: one per scenario at 10% load,
/// plus (churn) one restricted solve so the incremental table is built.
std::vector<cb::Request> probe_requests(const cb::WorkloadSpec& spec) {
  std::vector<cb::Request> probes;
  for (const int scenario : spec.scenarios) {
    cb::Request probe;
    probe.id = kProbeIdBase + probes.size();
    probe.scenario = scenario;
    probe.load_pct = kProbeLoadPct;
    probes.push_back(probe);
  }
  if (spec.churn) {
    cb::Request probe = probes.front();
    probe.id = kProbeIdBase + probes.size();
    probe.quarantined = {0};
    probes.push_back(probe);
  }
  return probes;
}

bool is_ok_response(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

struct Setup {
  std::unique_ptr<service::PlanningService> service;
  double setup_s = 0.0;  ///< construct -> first OK response per probe
  double start_s = 0.0;  ///< construct + start()
  /// Fleet only: first fleetplan per scenario minus the same request warm.
  double frontier_build_s = 0.0;
};

Setup set_up(const cb::WorkloadSpec& spec, const core::SharedRoomModel& model) {
  Setup out;
  const Clock::time_point t0 = Clock::now();
  service::ServiceConfig config;
  config.model = model;
  config.workers = kServerWorkers;
  config.fleet_shards = spec.shards;
  out.service = std::make_unique<service::PlanningService>(std::move(config));
  out.service->start();
  out.start_s = seconds_since(t0);

  service::ServiceClient client;
  client.set_timeout_ms(kClientTimeoutMs);
  if (!client.connect("127.0.0.1", out.service->port())) {
    throw std::runtime_error("setup: connect failed: " + client.last_error());
  }
  const std::vector<cb::Request> probes = probe_requests(spec);
  std::vector<double> cold_s;
  for (const cb::Request& probe : probes) {
    const Clock::time_point sent = Clock::now();
    const std::optional<std::string> response =
        client.call(cb::request_line(spec.verb, probe));
    cold_s.push_back(seconds_since(sent));
    if (!response.has_value() || !is_ok_response(*response)) {
      throw std::runtime_error("setup: probe failed: " +
                               response.value_or(client.last_error()));
    }
  }
  out.setup_s = seconds_since(t0);
  if (spec.verb == cb::Verb::kFleetplan) {
    for (size_t i = 0; i < probes.size(); ++i) {
      const Clock::time_point sent = Clock::now();
      const std::optional<std::string> response =
          client.call(cb::request_line(spec.verb, probes[i]));
      if (!response.has_value() || !is_ok_response(*response)) {
        throw std::runtime_error("setup: warm probe failed");
      }
      out.frontier_build_s += cold_s[i] - seconds_since(sent);
    }
  }
  return out;
}

/// Stops and destroys a setup's service and hands its freed heap back to
/// the OS, so the next phase's peak memory does not sit on its fragments.
void release(Setup& setup) {
  setup.service->stop();
  setup.service.reset();
  malloc_trim(0);
}

// --- the timed wire window ---

/// One request/response exchange of the window. Kept small and of fixed
/// size: the response bytes are kept only as a digest, so the client's log
/// stays a few dozen bytes per exchange and peak_rss_mb tracks the service.
/// A request's wire id is its key, and a traced request's trace id is key + 1.
struct Exchange {
  size_t key = 0;  ///< stream index (distinct index for cycled workloads)
  double rtt_us = 0.0;
  uint64_t digest = 0;    ///< fnv1a of the response, trace block cut off
  uint32_t spans = 0;     ///< traced: spans in a well-formed trace block
  bool answered = false;  ///< a response line arrived
  bool traced = false;
  bool shed = false;
};

struct Window {
  double elapsed_s = 0.0;
  std::vector<std::vector<Exchange>> connections;
};

/// Splits a traced response into its untraced bytes and its trace block.
/// False when there is no trailing trace block.
bool split_trace(const std::string& line, std::string& untraced,
                 std::string& block) {
  const size_t pos = line.rfind(",\"trace\":{");
  if (pos == std::string::npos || line.size() < pos + 3 || line.back() != '}') {
    return false;
  }
  untraced.assign(line, 0, pos);
  untraced += '}';
  block.assign(line, pos + 1, line.size() - pos - 2);
  return true;
}

/// Spans in a trace block, or 0 when the block is malformed / mislabeled.
size_t count_spans(const std::string& block, uint64_t trace_id) {
  const std::string head =
      "\"trace\":{\"trace_id\":" + std::to_string(trace_id) + ",\"spans\":[";
  if (block.compare(0, head.size(), head) != 0 || block.size() < 2 ||
      block.compare(block.size() - 2, 2, "]}") != 0) {
    return 0;
  }
  size_t spans = 0;
  size_t durations = 0;
  for (size_t pos = 0; (pos = block.find("{\"name\":\"", pos)) != std::string::npos;
       ++pos) {
    ++spans;
  }
  for (size_t pos = 0; (pos = block.find("\"dur_us\":", pos)) != std::string::npos;
       ++pos) {
    ++durations;
  }
  return spans == durations ? spans : 0;
}

/// Whether stream request `index` carries a trace_id. With `alternate`,
/// whole rounds take turns (untraced first), so the traced and untraced
/// sides share the window's warm state, the host's spells and the
/// stratified load mix.
bool is_traced(const cb::WorkloadSpec& spec, size_t index, bool alternate) {
  return alternate && (index / cb::round_requests(spec)) % 2 == 1;
}

void run_connection(uint16_t port, const cb::WorkloadSpec& spec,
                    cb::RequestStream& stream, size_t start, bool alternate,
                    Clock::time_point t0, double seconds,
                    std::vector<Exchange>& log) {
  service::ServiceClient client;
  client.set_timeout_ms(kClientTimeoutMs);
  if (!client.connect("127.0.0.1", port)) {
    Exchange failed;
    failed.key = start;
    log.push_back(failed);
    return;
  }
  std::string untraced;
  std::string block;
  // The window ends on a round boundary (a traced/untraced pair of rounds
  // when alternating), so every window plans the same stratified mix.
  const size_t unit = cb::round_requests(spec) * (alternate ? 2 : 1);
  for (size_t i = start; seconds_since(t0) < seconds || (i - start) % unit != 0;
       ++i) {
    const cb::Request& request = stream.at(i);
    Exchange ex;
    ex.key = stream.distinct() != 0 ? i % stream.distinct() : i;
    ex.traced = is_traced(spec, i, alternate);
    const std::string line =
        ex.traced ? cb::request_line(spec.verb, request, ex.key + 1)
                  : cb::request_line(spec.verb, request);
    const Clock::time_point sent = Clock::now();
    const bool sent_ok = client.send_line(line);
    const std::optional<std::string> response =
        sent_ok ? client.recv_line() : std::nullopt;
    ex.rtt_us = micros_since(sent);
    if (!response.has_value()) {
      log.push_back(ex);
      return;  // the connection is gone; the miss is counted
    }
    ex.answered = true;
    ex.shed = response->find("\"error_code\":\"shed_") != std::string::npos;
    if (!ex.traced) {
      ex.digest = cb::fnv1a(*response);
    } else if (split_trace(*response, untraced, block)) {
      ex.digest = cb::fnv1a(untraced);
      ex.spans = static_cast<uint32_t>(count_spans(block, ex.key + 1));
    }
    log.push_back(ex);
  }
}

Window run_window(uint16_t port, const cb::WorkloadSpec& spec,
                  cb::RequestStream& stream, double seconds, bool alternate) {
  Window window;
  window.connections.resize(spec.connections);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.connections; ++c) {
    const size_t start =
        stream.distinct() * c / std::max<size_t>(1, spec.connections);
    threads.emplace_back(run_connection, port, std::cref(spec),
                         std::ref(stream), start, alternate, t0, seconds,
                         std::ref(window.connections[c]));
  }
  for (std::thread& t : threads) t.join();
  window.elapsed_s = seconds_since(t0);
  return window;
}

/// A failed exchange's round trip: slower than any OK one.
constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Round-trip percentile `pct` over a whole window; misses rank last.
cb::Percentile latency(const std::vector<double>& rtts, double pct) {
  std::vector<double> ok;
  size_t misses = 0;
  for (const double rtt : rtts) {
    if (std::isinf(rtt)) {
      ++misses;
    } else {
      ok.push_back(rtt);
    }
  }
  return cb::percentile(ok, misses, pct);
}

// --- the in-process replay: references, audits and layer timings ---

struct Replay {
  std::vector<std::string> bytes;  ///< reference response per key
  std::vector<char> bad;           ///< the reference itself failed
  size_t bad_plans = 0;
  std::vector<double> parse_us;
  std::vector<double> solve_us;         ///< PlanEngine solves (fleet: shards)
  std::vector<double> solve_encode_us;  ///< request solve + encode
  std::vector<double> encode_us;
  std::vector<double> lp_us;
  std::vector<double> rank_us;
  std::vector<double> fleet_solve_us;
  std::vector<double> split_us;
  std::vector<double> shard_max_us;
  double shard_sum_us = 0.0;
  double pool_capacity_us = 0.0;  ///< Σ fleet solve time x pool workers
  double table_build_s = 0.0;
  double apply_p50_us = 0.0;
  // Over the layer set (requests [0, layer_set)).
  size_t layer_requests = 0;
  double power_sum_w = 0.0;
  double bytes_sum = 0.0;
  core::EngineCounters layer;  ///< counter deltas over the layer set
  // Over every replayed request.
  uint64_t all_solves = 0;
  uint64_t all_lp = 0;
  uint64_t all_memo_hits = 0;
};

core::EngineCounters operator-(const core::EngineCounters& a,
                               const core::EngineCounters& b) {
  core::EngineCounters d;
  d.solves = a.solves - b.solves;
  d.lp_fallback = a.lp_fallback - b.lp_fallback;
  d.memo_hits = a.memo_hits - b.memo_hits;
  d.memo_misses = a.memo_misses - b.memo_misses;
  d.incremental_replans = a.incremental_replans - b.incremental_replans;
  d.incremental_cold_builds =
      a.incremental_cold_builds - b.incremental_cold_builds;
  d.incremental_event_rebuilds =
      a.incremental_event_rebuilds - b.incremental_event_rebuilds;
  return d;
}

core::EngineCounters operator+(const core::EngineCounters& a,
                               const core::EngineCounters& b) {
  core::EngineCounters s;
  s.solves = a.solves + b.solves;
  s.lp_fallback = a.lp_fallback + b.lp_fallback;
  s.memo_hits = a.memo_hits + b.memo_hits;
  s.memo_misses = a.memo_misses + b.memo_misses;
  s.incremental_replans = a.incremental_replans + b.incremental_replans;
  s.incremental_cold_builds =
      a.incremental_cold_builds + b.incremental_cold_builds;
  s.incremental_event_rebuilds =
      a.incremental_event_rebuilds + b.incremental_event_rebuilds;
  return s;
}

bool uses_scenario(const cb::WorkloadSpec& spec, int scenario) {
  return std::find(spec.scenarios.begin(), spec.scenarios.end(), scenario) !=
         spec.scenarios.end();
}

bool plan_is_sound(const core::RoomModel& model, const core::PlanResult& r) {
  return r.feasible() && r.shed_load == 0.0 &&
         core::audit_feasibility(model, r.plan->allocation, r.plan->load)
             .empty();
}

std::vector<size_t> on_set(const core::Allocation& allocation) {
  std::vector<size_t> on;
  for (size_t i = 0; i < allocation.on.size(); ++i) {
    if (allocation.on[i]) on.push_back(i);
  }
  return on;
}

/// Times LpOptimizer::solve_into on the plan's ON set and load.
double time_lp(const core::PlanEngine& engine, const core::Plan& plan) {
  const std::vector<size_t> on = on_set(plan.allocation);
  core::Allocation out;
  const Clock::time_point t0 = Clock::now();
  engine.lp().solve_into(on.data(), on.size(), plan.load,
                         core::SolveScratch::local().lp, out);
  return micros_since(t0);
}

/// Times EventConsolidator::rank_all_k_into at `load`.
double time_rank(const core::PlanEngine& engine, double load) {
  static thread_local std::vector<core::ConsolidationChoice> ranked;
  const core::EventConsolidator* table = engine.consolidator();
  const Clock::time_point t0 = Clock::now();
  table->rank_all_k_into(load, ranked);
  return micros_since(t0);
}

/// parse_request on one line, timed into the replay's parse samples.
bool parse_line(const std::string& line, service::WireRequest& parsed,
                Replay& replay) {
  std::string error;
  const Clock::time_point t0 = Clock::now();
  const bool ok = service::parse_request(line, parsed, error);
  replay.parse_us.push_back(micros_since(t0));
  return ok;
}

void replay_plans(const cb::WorkloadSpec& spec, cb::RequestStream& stream,
                  const core::SharedRoomModel& model, double capacity,
                  size_t keys, bool layer_extras, Replay& replay) {
  const size_t layer_set = cb::block_requests(spec);
  core::PlanEngine engine(model);
  if (uses_scenario(spec, 8)) {
    const Clock::time_point t0 = Clock::now();
    engine.consolidator();
    replay.table_build_s = seconds_since(t0);
  }
  core::PlanResult result;
  core::SolveScratch& scratch = core::SolveScratch::local();
  for (const cb::Request& probe : probe_requests(spec)) {
    engine.solve_into(core::PlanRequest(core::Scenario::by_number(probe.scenario),
                                        probe.load_pct / 100.0 * capacity,
                                        probe.quarantined),
                      scratch, result);
  }
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  const core::EngineCounters before = engine.counters();
  for (size_t key = 0; key < keys; ++key) {
    if (key == layer_set) replay.layer = engine.counters() - before;
    const cb::Request& request = stream.at(key);
    service::WireRequest parsed;
    if (!parse_line(cb::request_line(spec.verb, request), parsed, replay)) {
      replay.bad[key] = 1;
      continue;
    }
    const core::PlanRequest plan_request(
        core::Scenario::by_number(parsed.scenario),
        parsed.load_pct / 100.0 * capacity, parsed.quarantined);
    try {
      const Clock::time_point t0 = Clock::now();
      engine.solve_into(plan_request, scratch, result);
      const double solve_us = micros_since(t0);
      const Clock::time_point t1 = Clock::now();
      replay.bytes[key] = service::encode_plan_response(parsed.id, result);
      const double encode_us = micros_since(t1);
      replay.solve_us.push_back(solve_us);
      replay.encode_us.push_back(encode_us);
      replay.solve_encode_us.push_back(solve_us + encode_us);
    } catch (const std::exception&) {
      replay.bad[key] = 1;
      continue;
    }
    if (!plan_is_sound(engine.model(), result)) {
      replay.bad[key] = 1;
      ++replay.bad_plans;
      continue;
    }
    if (key < layer_set) {
      ++replay.layer_requests;
      replay.power_sum_w += result.plan->allocation.total_power_w;
      replay.bytes_sum += static_cast<double>(replay.bytes[key].size());
      if (layer_extras) {
        if (plan_request.scenario.distribution == core::Distribution::kOptimal) {
          replay.lp_us.push_back(time_lp(engine, *result.plan));
        }
        if (parsed.scenario == 8 && engine.consolidator() != nullptr) {
          replay.rank_us.push_back(time_rank(engine, plan_request.load));
        }
      }
    }
  }
  const core::EngineCounters all = engine.counters() - before;
  if (keys == layer_set) replay.layer = all;
  replay.all_solves = all.solves;
  replay.all_lp = all.lp_fallback;
  replay.all_memo_hits = all.memo_hits;
  if (registry.histogram("engine.incremental.apply_us").count() > 0) {
    replay.apply_p50_us =
        registry.histogram("engine.incremental.apply_us").percentile(50.0);
  }
}

core::EngineCounters shard_counters(const fleet::FleetEngine& fleet) {
  core::EngineCounters sum;
  for (size_t s = 0; s < fleet.shard_count(); ++s) {
    sum = sum + fleet.engine(s).counters();
  }
  return sum;
}

void replay_fleet(const cb::WorkloadSpec& spec, cb::RequestStream& stream,
                  const core::SharedRoomModel& model, double capacity,
                  size_t keys, bool layer_extras, Replay& replay) {
  const size_t layer_set = cb::block_requests(spec);
  const fleet::FleetEngine fleet(fleet::partition_room(*model, spec.shards));
  std::vector<double> caps(fleet.shard_count(), 0.0);
  for (size_t s = 0; s < fleet.shard_count(); ++s) {
    for (const core::MachineModel& m : fleet.engine(s).model().machines) {
      caps[s] += m.capacity;
    }
  }
  if (uses_scenario(spec, 8)) {
    const Clock::time_point t0 = Clock::now();
    for (size_t s = 0; s < fleet.shard_count(); ++s) {
      fleet.engine(s).consolidator();
    }
    replay.table_build_s = seconds_since(t0);
  }
  for (const cb::Request& probe : probe_requests(spec)) {
    fleet::FleetPlanRequest warm;
    warm.scenario = core::Scenario::by_number(probe.scenario);
    warm.load = probe.load_pct / 100.0 * capacity;
    fleet.solve(warm);
  }
  const size_t pool_workers = util::ThreadPool::default_workers();
  const core::EngineCounters before = shard_counters(fleet);
  for (size_t key = 0; key < keys; ++key) {
    if (key == layer_set) replay.layer = shard_counters(fleet) - before;
    const cb::Request& request = stream.at(key);
    service::WireRequest parsed;
    if (!parse_line(cb::request_line(spec.verb, request), parsed, replay)) {
      replay.bad[key] = 1;
      continue;
    }
    fleet::FleetPlanRequest fleet_request;
    fleet_request.scenario = core::Scenario::by_number(parsed.scenario);
    fleet_request.load = parsed.load_pct / 100.0 * capacity;
    fleet_request.quarantined = parsed.fleet_quarantined;
    fleet_request.down_shards = parsed.down_shards;
    fleet::FleetPlanResult result;
    try {
      const Clock::time_point t0 = Clock::now();
      result = fleet.solve(fleet_request);
      const double solve_us = micros_since(t0);
      const Clock::time_point t1 = Clock::now();
      replay.bytes[key] = service::encode_fleetplan_response(parsed.id, result);
      const double encode_us = micros_since(t1);
      replay.fleet_solve_us.push_back(solve_us);
      replay.encode_us.push_back(encode_us);
      replay.solve_encode_us.push_back(solve_us + encode_us);
      double shard_max = 0.0;
      for (const core::PlanResult& shard : result.shard_results) {
        replay.solve_us.push_back(shard.solve_us);
        replay.shard_sum_us += shard.solve_us;
        shard_max = std::max(shard_max, shard.solve_us);
      }
      replay.shard_max_us.push_back(shard_max);
      replay.pool_capacity_us += solve_us * static_cast<double>(pool_workers);
    } catch (const std::exception&) {
      replay.bad[key] = 1;
      continue;
    }
    bool sound = result.feasible() && result.shed_load == 0.0 &&
                 result.shard_results.size() == fleet.shard_count();
    for (size_t s = 0; sound && s < result.shard_results.size(); ++s) {
      sound = plan_is_sound(fleet.engine(s).model(), result.shard_results[s]);
    }
    if (!sound) {
      replay.bad[key] = 1;
      ++replay.bad_plans;
      continue;
    }
    if (key < layer_set) {
      ++replay.layer_requests;
      replay.power_sum_w += result.total_power_w;
      replay.bytes_sum += static_cast<double>(replay.bytes[key].size());
      if (layer_extras) {
        const Clock::time_point t0 = Clock::now();
        fleet.split_load(fleet_request.scenario, fleet_request.load, caps);
        replay.split_us.push_back(micros_since(t0));
        for (size_t s = 0; s < fleet.shard_count(); ++s) {
          const core::PlanResult& shard = result.shard_results[s];
          if (fleet_request.scenario.distribution ==
              core::Distribution::kOptimal) {
            replay.lp_us.push_back(time_lp(fleet.engine(s), *shard.plan));
          }
          if (parsed.scenario == 8) {
            replay.rank_us.push_back(
                time_rank(fleet.engine(s), result.shard_loads[s]));
          }
        }
      }
    }
  }
  const core::EngineCounters all = shard_counters(fleet) - before;
  if (keys == layer_set) replay.layer = all;
  replay.all_solves = all.solves;
  replay.all_lp = all.lp_fallback;
  replay.all_memo_hits = all.memo_hits;
}

// --- output ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// JSON has no infinity; a miss-dominated percentile prints as this.
constexpr double kMissValue = 1e300;

std::string json_number(double v) {
  if (!std::isfinite(v)) v = kMissValue;
  char text[40];
  std::snprintf(text, sizeof text, "%.12g", v);
  return text;
}

double share(double part, double base) { return base > 0.0 ? part / base : 0.0; }

double p(std::vector<double> values, double pct) {
  return cb::percentile(values, 0, pct).value;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Options& options) {
  const cb::WorkloadSpec& spec = *cb::find_workload(options.workload);
  // Before the first service thread starts, so they all inherit it.
  const int cpu = spec.one_cpu ? pin_to_current_cpu() : -1;
  cb::RequestStream stream(spec, options.seed);
  const size_t layer_set = cb::block_requests(spec);

  core::SyntheticModelOptions model_options;
  model_options.machines = spec.machines;
  model_options.seed = kModelSeed;
  const core::SharedRoomModel model =
      core::share_model(core::make_synthetic_model(model_options));

  // Set up repeatedly; the last service runs the workload.
  std::vector<double> setup_s;
  std::vector<double> start_s;
  std::vector<double> frontier_s;
  Setup setup;
  const Clock::time_point setups_t0 = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && seconds_since(setups_t0) < kSetupBudgetS)) {
    if (setup.service) release(setup);
    setup = set_up(spec, model);
    setup_s.push_back(setup.setup_s);
    start_s.push_back(setup.start_s);
    frontier_s.push_back(setup.frontier_build_s);
  }
  const uint16_t port = setup.service->port();
  const double capacity = setup.service->info().capacity_files_s;
  const char* latency_metric = spec.verb == cb::Verb::kPlan
                                   ? "service.latency.plan_us"
                                   : "service.latency.fleetplan_us";

  // The window. With --trace 1 whole rounds alternate between untraced and
  // traced; the registry sees both.
  obs::MetricsRegistry registry;
  Window window;
  {
    obs::ScopedObservation scope(&registry);
    window = run_window(port, spec, stream, options.seconds, options.trace);
  }
  const double server_p50_us = registry.histogram(latency_metric).percentile(50.0);
  // peak_rss_mb covers setup and serving; the replay that checks the
  // answers comes after, on engines of its own.
  const double serving_peak_rss_mb = peak_rss_mb();
  release(setup);

  // Replay every key the window sent, and at least the layer set.
  size_t keys = layer_set;
  for (const std::vector<Exchange>& c : window.connections) {
    for (const Exchange& ex : c) keys = std::max(keys, ex.key + 1);
  }
  Replay replay;
  replay.bytes.resize(keys);
  replay.bad.assign(keys, 0);
  if (spec.verb == cb::Verb::kPlan) {
    replay_plans(spec, stream, model, capacity, keys, options.trace, replay);
  } else {
    replay_fleet(spec, stream, model, capacity, keys, options.trace, replay);
  }
  std::vector<uint64_t> digests(keys);
  for (size_t key = 0; key < keys; ++key) digests[key] = cb::fnv1a(replay.bytes[key]);

  // Judge every exchange: its bytes must hash like the replay's.
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
  size_t shed = 0;
  size_t bad_traces = 0;
  std::vector<double> rtts;  ///< per exchange; a failure is kMiss
  std::vector<double> untraced_rtts;
  std::vector<double> traced_rtts;
  std::vector<double> spans_per_req;
  for (const std::vector<Exchange>& c : window.connections) {
    for (const Exchange& ex : c) {
      ++attempted;
      bool good = ex.answered && !replay.bad[ex.key] && ex.digest == digests[ex.key];
      if (ex.answered && !good) ++mismatches;
      if (ex.shed) ++shed;
      if (good && ex.traced) {
        if (ex.spans == 0) {
          good = false;
          ++bad_traces;
        } else if (spans_per_req.size() < layer_set) {
          spans_per_req.push_back(static_cast<double>(ex.spans));
        }
      }
      rtts.push_back(good ? ex.rtt_us : kMiss);
      if (!good) {
        ++failed;
      } else {
        (ex.traced ? traced_rtts : untraced_rtts).push_back(ex.rtt_us);
      }
    }
  }

  // Defining properties: the regime each workload must stay in.
  size_t changed = 0;
  for (const std::vector<Exchange>& c : window.connections) {
    for (const Exchange& ex : c) {
      if (ex.key == 0) continue;
      const std::vector<size_t>& a = stream.at(ex.key - 1).quarantined;
      const std::vector<size_t>& b = stream.at(ex.key).quarantined;
      std::vector<size_t> diff;
      std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                    std::back_inserter(diff));
      if (diff.size() == 1) ++changed;
    }
  }
  const double changed_share =
      share(static_cast<double>(changed),
            static_cast<double>(attempted - (attempted > 0)));
  const double shed_share =
      share(static_cast<double>(shed), static_cast<double>(attempted));
  const double fallback_share = share(static_cast<double>(replay.layer.lp_fallback),
                                      static_cast<double>(replay.layer.solves));
  const double memo_lookups =
      static_cast<double>(replay.layer.memo_hits + replay.layer.memo_misses);
  const double hit_share =
      share(static_cast<double>(replay.layer.memo_hits), memo_lookups);
  std::vector<std::string> regime;
  if (spec.lp == cb::LpUse::kAlways && replay.all_lp != replay.all_solves) {
    regime.push_back("a plan left the binding (LP) regime");
  }
  if (spec.lp == cb::LpUse::kNever && replay.all_lp != 0) {
    regime.push_back("a heuristic plan engaged the LP");
  }
  if (spec.churn && (changed_share != 1.0 || replay.all_memo_hits != 0)) {
    regime.push_back("the quarantine walk stalled or a solve hit the memo");
  }
  if (shed != 0) regime.push_back("requests were shed");
  if (replay.layer_requests != layer_set) {
    regime.push_back("the layer set was not fully served");
  }

  const double throughput =
      share(static_cast<double>(attempted - failed), window.elapsed_s);
  const cb::Percentile p50 = latency(rtts, 50);
  const cb::Percentile p90 = latency(rtts, 90);
  const cb::Percentile p99 = latency(rtts, 99);
  const double layer_n = static_cast<double>(layer_set);
  const double plan_power_w = share(replay.power_sum_w, layer_n);
  const double setup_median = p(setup_s, 50);

  std::printf("coolbench %s seed=%llu seconds=%g trace=%d\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (spec.one_cpu) {
    std::printf(cpu >= 0 ? "  every thread on cpu %d\n"
                         : "  could not pin to one cpu (%d); ran unpinned\n",
                cpu);
  }
  std::printf("  attempted %zu, failed %zu (mismatched %zu, shed %zu, bad "
              "traces %zu, unsound plans %zu)\n",
              attempted, failed, mismatches, shed, bad_traces,
              replay.bad_plans);
  std::printf("  latency over %zu samples: p50 %.1f us (%zu beyond), p90 %.1f "
              "us (%zu beyond), p99 %.1f us (%zu beyond)\n",
              p50.samples, p50.value, p50.beyond, p90.value, p90.beyond,
              p99.value, p99.beyond);
  std::printf("  setup_s %.4f = median of %zu; parts: start %.4f s, table "
              "build %.4f s, frontier build %.4f s\n",
              setup_median, setup_s.size(), p(start_s, 50),
              replay.table_build_s, p(frontier_s, 50));
  std::printf("  regime: lp fallback %llu/%llu of the layer set (%llu/%llu "
              "overall), memo hits %.0f/%.0f, quarantine changed %zu/%zu, "
              "shed %zu/%zu\n",
              static_cast<unsigned long long>(replay.layer.lp_fallback),
              static_cast<unsigned long long>(replay.layer.solves),
              static_cast<unsigned long long>(replay.all_lp),
              static_cast<unsigned long long>(replay.all_solves),
              static_cast<double>(replay.layer.memo_hits), memo_lookups,
              changed, attempted - (attempted > 0), shed, attempted);
  for (const std::string& r : regime) std::printf("  REGIME: %s\n", r.c_str());

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"throughput_rps", throughput, "1/s"},
        {"latency_p50_us", p50.value, "us"},
        {"latency_p90_us", p90.value, "us"},
        {"setup_s", setup_median, "s"},
        {"plan_power_w", plan_power_w, "W"},
        {"peak_rss_mb", serving_peak_rss_mb, "MB"},
    };
  } else {
    const double untraced_mean_us = cb::mean(untraced_rtts);
    const double solve_encode_p50 = p(replay.solve_encode_us, 50);
    metrics = {
        {"service.wire.parse_p50_us", p(replay.parse_us, 50), "us"},
        {"service.wire.encode_p50_us", p(replay.encode_us, 50), "us"},
        {"service.wire.response_bytes", share(replay.bytes_sum, layer_n), "bytes"},
        {"service.queue_wait_p50_us", server_p50_us - solve_encode_p50, "us"},
        {"service.transport_p50_us", p50.value - server_p50_us, "us"},
        {"service.start_s", p(start_s, 50), "s"},
        {"service.shed_share", shed_share, "share"},
        {"service.quarantine_changed_share", changed_share, "share"},
        {"core.solve_p50_us", p(replay.solve_us, 50), "us"},
        {"core.solve_p90_us", p(replay.solve_us, 90), "us"},
        {"core.solves", static_cast<double>(replay.layer.solves), "count"},
        {"core.lp.solve_p50_us", p(replay.lp_us, 50), "us"},
        {"core.lp.fallback_share", fallback_share, "share"},
        {"core.consolidation.rank_p50_us", p(replay.rank_us, 50), "us"},
        {"core.consolidation.table_build_s", replay.table_build_s, "s"},
        {"core.memo.hit_share", hit_share, "share"},
        {"core.memo.lookups", memo_lookups, "count"},
        {"core.incremental.replans_per_req",
         static_cast<double>(replay.layer.incremental_replans) / layer_n, "1/req"},
        {"core.incremental.event_rebuilds_per_req",
         static_cast<double>(replay.layer.incremental_event_rebuilds) / layer_n,
         "1/req"},
        {"core.incremental.cold_builds",
         static_cast<double>(replay.layer.incremental_cold_builds), "count"},
        {"core.incremental.apply_p50_us", replay.apply_p50_us, "us"},
        {"fleet.solve_p50_us", p(replay.fleet_solve_us, 50), "us"},
        {"fleet.split_p50_us", p(replay.split_us, 50), "us"},
        {"fleet.shard_solve_max_p50_us", p(replay.shard_max_us, 50), "us"},
        {"fleet.fanout_efficiency", share(replay.shard_sum_us, replay.pool_capacity_us),
         "share"},
        {"fleet.pool_workers",
         spec.shards > 0 ? static_cast<double>(util::ThreadPool::default_workers())
                         : 0.0,
         "count"},
        {"fleet.frontier_build_s", p(frontier_s, 50), "s"},
        {"obs.trace.overhead_pct",
         untraced_mean_us > 0.0
             ? (cb::mean(traced_rtts) - untraced_mean_us) / untraced_mean_us * 100.0
             : 0.0,
         "%"},
        {"obs.trace.spans_per_req", cb::mean(spans_per_req), "1/req"},
    };
  }

  const bool correct = failed == 0 && regime.empty();
  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(attempted);
  line += ",\"failed\":" + std::to_string(failed);
  line += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ',';
    line += "\"" + metrics[i].name + "\":{\"value\":" +
            json_number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--list") {
    for (const cb::WorkloadSpec& spec : cb::workloads()) {
      std::printf("%s\n", std::string(spec.name).c_str());
    }
    return 0;
  }
  Options options;
  std::string error;
  if (!parse_options(argc, argv, options, error)) {
    std::fprintf(stderr, "coolbench: %s\n", error.c_str());
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coolbench: %s\n", e.what());
    return 1;
  }
}
