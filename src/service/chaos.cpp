#include "service/chaos.h"

#include "obs/obs.h"

namespace coolopt::service {

ChaosInjector::ChaosInjector(const ChaosOptions& options)
    : options_(options),
      drop_(util::Rng(options.seed).fork("chaos.drop_connection")),
      delay_(util::Rng(options.seed).fork("chaos.delay_read")),
      truncate_(util::Rng(options.seed).fork("chaos.truncate_write")),
      stall_(util::Rng(options.seed).fork("chaos.stall_solve")) {}

bool ChaosInjector::Fault::fire(double pct) {
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    hit = rng.chance(pct / 100.0);
  }
  if (hit) fired.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool ChaosInjector::drop_connection() {
  if (!drop_.fire(options_.drop_connection_pct)) return false;
  obs::count("service.chaos.dropped_connections");
  return true;
}

bool ChaosInjector::delay_read(uint64_t& delay_ms) {
  if (!delay_.fire(options_.delay_read_pct)) return false;
  delay_ms = options_.delay_read_ms;
  obs::count("service.chaos.delayed_reads");
  return true;
}

bool ChaosInjector::truncate_write() {
  if (!truncate_.fire(options_.truncate_write_pct)) return false;
  obs::count("service.chaos.truncated_writes");
  return true;
}

bool ChaosInjector::stall_solve(uint64_t& stall_ms) {
  if (!stall_.fire(options_.stall_solve_pct)) return false;
  stall_ms = options_.stall_solve_ms;
  obs::count("service.chaos.stalled_solves");
  return true;
}

ChaosInjector::Counters ChaosInjector::counters() const {
  Counters c;
  c.dropped_connections = drop_.fired.load(std::memory_order_relaxed);
  c.delayed_reads = delay_.fired.load(std::memory_order_relaxed);
  c.truncated_writes = truncate_.fired.load(std::memory_order_relaxed);
  c.stalled_solves = stall_.fired.load(std::memory_order_relaxed);
  return c;
}

}  // namespace coolopt::service
