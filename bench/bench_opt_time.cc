// E7 (DESIGN.md): optimization time and search-space pruning for the three
// evaluation programs (paper Section 6, "A Note on Optimization Time":
// 0.6 s / 2.1 s / 156.7 s in single-threaded Python; 94% of the linear
// regression search space pruned). Also ablates Apriori pruning against
// exhaustive power-set enumeration and shows that optimization time is
// independent of data scale. `--json <path>` records every Optimize call
// with its candidate counts, per-phase seconds and schedule-solver work
// (LP/ILP calls, memo and witness hits, simplex pivots);
// scripts/bench_json.sh writes it to BENCH_opt.json.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/optimizer.h"
#include "ops/workload.h"

namespace riot {
namespace {

size_t Workers() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void PrintSolverWork(const OptimizationResult& r) {
  std::printf("  phases: analyze=%.3fs search=%.3fs cost=%.3fs\n",
              r.analyze_seconds, r.search_seconds, r.cost_seconds);
  std::printf("  solver: lp=%lld (memo hits %lld, witness hits %lld)  "
              "ilp=%lld (memo hits %lld)  pivots=%lld\n",
              static_cast<long long>(r.lp_calls),
              static_cast<long long>(r.lp_memo_hits),
              static_cast<long long>(r.lp_witness_hits),
              static_cast<long long>(r.ilp_calls),
              static_cast<long long>(r.ilp_memo_hits),
              static_cast<long long>(r.lp_pivots));
}

void Report(const char* name, Workload w, double paper_seconds,
            bool ablate_apriori, bench::BenchJson* json) {
  OptimizerOptions opts;
  OptimizationResult r = Optimize(w.program, opts);
  json->AddOptimization(name, "apriori", Workers(), r);
  double total_space = 1.0;
  for (size_t i = 0; i < r.analysis.sharing.size(); ++i) total_space *= 2.0;
  double explored = static_cast<double>(r.candidates_tested);
  std::printf("%-10s opps=%2zu  tested=%6lld  pruned-frac=%5.1f%%  "
              "plans=%6zu  time=%7.2fs  (paper: %.1fs in Python)\n",
              name, r.analysis.sharing.size(),
              static_cast<long long>(r.candidates_tested),
              100.0 * (1.0 - explored / total_space), r.plans.size(),
              r.optimize_seconds, paper_seconds);
  PrintSolverWork(r);
  if (ablate_apriori) {
    OptimizerOptions ex;
    ex.use_apriori = false;
    OptimizationResult re = Optimize(w.program, ex);
    json->AddOptimization(name, "exhaustive", Workers(), re);
    std::printf("  ablation: exhaustive enumeration tested %lld candidates "
                "in %.2fs (Apriori: %lld in %.2fs, same %zu plans)\n",
                static_cast<long long>(re.candidates_tested),
                re.optimize_seconds,
                static_cast<long long>(r.candidates_tested),
                r.optimize_seconds, r.plans.size());
    PrintSolverWork(re);
  }
}

void Run(bench::BenchJson* json) {
  std::printf("=== Optimization time (paper Section 6 notes; %zu threads) "
              "===\n",
              Workers());
  Report("addmul", MakeAddMul(1), 0.6, /*ablate_apriori=*/true, json);
  Report("twomm_a", MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1), 2.1, true,
         json);
  Report("twomm_b", MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1), 2.1, false,
         json);
  Report("linreg", MakeLinReg(1), 156.7, false, json);

  // Scale independence: "optimization time for the same program does not
  // change with the scale of the dataset."
  std::printf("\nscale independence (addmul):\n");
  for (int64_t scale : {1, 10, 40}) {
    OptimizationResult r = Optimize(MakeAddMul(scale).program);
    json->AddOptimization("addmul_scale" + std::to_string(scale), "apriori",
                          Workers(), r);
    std::printf("  scale 1/%-3lld -> %.3f s, %zu plans\n",
                static_cast<long long>(scale), r.optimize_seconds,
                r.plans.size());
  }
}

}  // namespace
}  // namespace riot

int main(int argc, char** argv) {
  riot::bench::BenchJson json("opt_time", argc, argv);
  riot::Run(&json);
  json.Flush();
  return 0;
}
