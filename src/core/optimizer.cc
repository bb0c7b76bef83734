#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "util/logging.h"

namespace riot {

std::string Plan::DescribeOpportunities(const Program& p,
                                        const std::vector<CoAccess>& o) const {
  if (opportunities.empty()) return "(none)";
  std::ostringstream os;
  for (size_t i = 0; i < opportunities.size(); ++i) {
    if (i) os << ", ";
    os << o[static_cast<size_t>(opportunities[i])].Label(p);
  }
  return os.str();
}

namespace {

// Generates size-k candidates whose every (k-1)-subset is feasible
// (Apriori candidate generation; Algorithm 2 line 5).
std::vector<std::vector<int>> GenerateCandidates(
    const std::set<std::vector<int>>& feasible_km1, size_t k, int num_opps,
    bool use_apriori, int64_t* pruned) {
  std::vector<std::vector<int>> candidates;
  if (k == 1) {
    for (int i = 0; i < num_opps; ++i) candidates.push_back({i});
    return candidates;
  }
  // Join step: extend each feasible (k-1)-set with a larger element.
  std::set<std::vector<int>> seen;
  auto all_subsets_feasible = [&](const std::vector<int>& c) {
    std::vector<int> sub(c.begin(), c.end() - 1);
    for (size_t drop = 0; drop + 1 < c.size(); ++drop) {
      sub = c;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
      if (!feasible_km1.count(sub)) return false;
    }
    return true;
  };
  std::set<std::vector<int>> base;
  if (use_apriori) {
    base = feasible_km1;
  } else {
    // Exhaustive: every (k-1)-subset of opportunity ids.
    std::vector<int> idx(k - 1);
    std::function<void(size_t, int)> gen = [&](size_t pos, int start) {
      if (pos == k - 1) {
        base.insert(idx);
        return;
      }
      for (int i = start; i < num_opps; ++i) {
        idx[pos] = i;
        gen(pos + 1, i + 1);
      }
    };
    gen(0, 0);
  }
  for (const auto& s : base) {
    for (int next = s.back() + 1; next < num_opps; ++next) {
      std::vector<int> c = s;
      c.push_back(next);
      if (seen.count(c)) continue;
      seen.insert(c);
      if (use_apriori && !all_subsets_feasible(c)) {
        ++*pruned;
        continue;
      }
      candidates.push_back(c);
    }
  }
  return candidates;
}

}  // namespace

OptimizationResult Optimize(const Program& program,
                            const OptimizerOptions& options) {
  using Clock = std::chrono::steady_clock;
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const auto t0 = Clock::now();
  // Multi-tenant hint: plan selection (and pressure simulation) happens
  // against the per-session slice of the pool, not the whole cap.
  const int sessions = std::max(1, options.concurrent_sessions);
  const int64_t session_cap_bytes = options.memory_cap_bytes / sessions;
  CostModelOptions session_cost = options.cost;
  if (session_cost.pressure_cap_bytes > 0) {
    session_cost.pressure_cap_bytes /= sessions;
  }
  if (options.calibrate_compute_rates && !session_cost.compute.has_value()) {
    // One measurement per process and worker count: every Optimize call at
    // the same calibrate_exec_threads shares a table so repeated
    // optimizations don't each pay the calibration budget (and rank
    // identically within a run).
    static std::mutex calibrated_mu;
    static std::map<int, KernelRateTable>* calibrated_by_workers =
        new std::map<int, KernelRateTable>();
    const int workers = std::max(1, options.calibrate_exec_threads);
    std::lock_guard<std::mutex> lock(calibrated_mu);
    auto it = calibrated_by_workers->find(workers);
    if (it == calibrated_by_workers->end()) {
      it = calibrated_by_workers
               ->emplace(workers, CalibrateKernelRates(
                                      options.calibrate_budget_ms, workers))
               .first;
    }
    session_cost.compute = it->second;
  }
  OptimizationResult result;
  const auto analyze_start = Clock::now();
  result.analysis = AnalyzeProgram(program, options.analysis);
  result.analyze_seconds = since(analyze_start);
  const auto search_start = Clock::now();
  const auto& sharing = result.analysis.sharing;
  const int num_opps = static_cast<int>(sharing.size());

  ScheduleSolver solver(program, result.analysis.dependences, options.solver);

  // Candidate enumeration costs every plan with the exact linear model
  // only; the (much dearer) capped cache simulation is deferred to the
  // pressure fallback below, which runs it for the few surviving plans and
  // only when no plan fits the cap.
  CostModelOptions enumerate_cost = session_cost;  // incl. calibrated rates
  enumerate_cost.pressure_cap_bytes = 0;

  auto add_plan = [&](std::vector<int> opps, Schedule sched) {
    Plan plan;
    plan.opportunities = std::move(opps);
    std::vector<const CoAccess*> q;
    for (int oi : plan.opportunities) {
      q.push_back(&sharing[static_cast<size_t>(oi)]);
    }
    const auto cost_start = Clock::now();
    plan.cost = EvaluatePlanCost(program, sched, q, enumerate_cost);
    result.cost_seconds += since(cost_start);
    plan.schedule = std::move(sched);
    result.plans.push_back(std::move(plan));
  };

  // Plan 0: the unmodified original schedule.
  add_plan({}, program.original_schedule());

  const size_t workers =
      options.num_threads > 0
          ? options.num_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());

  std::set<std::vector<int>> feasible_prev;  // C_{k-1}
  size_t k = 1;
  while (k <= static_cast<size_t>(num_opps) &&
         k <= options.max_combination_size &&
         (k == 1 || !feasible_prev.empty())) {
    auto candidates = GenerateCandidates(feasible_prev, k, num_opps,
                                         options.use_apriori,
                                         &result.candidates_pruned);
    result.candidates_tested += static_cast<int64_t>(candidates.size());
    // Test candidates in parallel; they are independent (FindSchedule is
    // thread-safe and its memo never changes an answer).
    std::vector<std::optional<Schedule>> found(candidates.size());
    std::atomic<size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= candidates.size()) break;
        std::vector<const CoAccess*> q;
        for (int oi : candidates[i]) {
          q.push_back(&sharing[static_cast<size_t>(oi)]);
        }
        found[i] = solver.FindSchedule(q);
      }
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < std::min(workers, candidates.size()); ++t) {
      pool.emplace_back(worker);
    }
    worker();
    for (auto& t : pool) t.join();

    std::set<std::vector<int>> feasible_k;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!found[i]) continue;
      ++result.schedules_found;
      feasible_k.insert(candidates[i]);
      add_plan(candidates[i], std::move(*found[i]));
    }
    feasible_prev = std::move(feasible_k);
    ++k;
  }
  result.lp_calls = solver.stats().lp_calls;
  result.ilp_calls = solver.stats().ilp_calls;
  result.lp_memo_hits = solver.stats().lp_memo_hits;
  result.ilp_memo_hits = solver.stats().ilp_memo_hits;
  result.lp_witness_hits = solver.stats().lp_witness_hits;
  result.lp_pivots = solver.stats().lp_pivots;
  result.search_seconds = since(search_start) - result.cost_seconds;

  const auto select_start = Clock::now();

  // Best plan under the (per-session) memory cap.
  result.best_index = 0;
  for (size_t i = 0; i < result.plans.size(); ++i) {
    const Plan& p = result.plans[i];
    if (p.cost.peak_memory_bytes > session_cap_bytes) continue;
    const Plan& cur = result.plans[static_cast<size_t>(result.best_index)];
    const bool cur_fits = cur.cost.peak_memory_bytes <= session_cap_bytes;
    if (!cur_fits || p.cost.TotalSeconds() < cur.cost.TotalSeconds()) {
      result.best_index = static_cast<int>(i);
    }
  }

  // Memory-pressure pricing: when no plan's exact requirement fits the cap
  // and the cost model simulated a bounded cache
  // (CostModelOptions::pressure_cap_bytes), rank by simulated capped I/O
  // time instead of defaulting to the original schedule — the schedule
  // that degrades best under a plain replacement policy wins.
  if (session_cost.pressure_cap_bytes > 0 &&
      result.plans[static_cast<size_t>(result.best_index)]
              .cost.peak_memory_bytes > session_cap_bytes) {
    CacheSimOptions sim;
    sim.policy = session_cost.pressure_policy;
    sim.cap_bytes = session_cost.pressure_cap_bytes;
    sim.opportunistic = true;
    int best_capped = -1;
    for (size_t i = 0; i < result.plans.size(); ++i) {
      Plan& p = result.plans[i];
      std::vector<const CoAccess*> q;
      for (int oi : p.opportunities) {
        q.push_back(&sharing[static_cast<size_t>(oi)]);
      }
      auto r = SimulateCacheBehavior(program, p.schedule, q, sim,
                                     session_cost);
      if (!r.ok()) continue;  // infeasible at the cap
      p.cost.capped_block_reads = r->block_reads;
      p.cost.capped_evictions = r->evictions;
      p.cost.capped_io_seconds = r->io_seconds;
      if (best_capped < 0 ||
          p.cost.CappedTotalSeconds() <
              result.plans[static_cast<size_t>(best_capped)]
                  .cost.CappedTotalSeconds()) {
        best_capped = static_cast<int>(i);
      }
    }
    if (best_capped >= 0) result.best_index = best_capped;
  }

  result.cost_seconds += since(select_start);
  result.optimize_seconds = since(t0);
  return result;
}

}  // namespace riot
