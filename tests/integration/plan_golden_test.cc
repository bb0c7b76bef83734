// Plan-identity golden test: the optimizer's output is pinned, plan by
// plan, against digests committed in plan_golden.txt. Each line covers one
// program: its plan count, best_index, and a 64-bit FNV-1a digest over
// every plan's opportunity set, Schedule::ToString and every PlanCost
// field (doubles in hexadecimal, so the comparison is bit-exact).
//
// Solver and costing speed-ups must leave this file untouched. On a
// mismatch the computed digests are written to plan_golden.actual in the
// working directory; a change that means to alter plans replaces the
// committed file with it and says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "generated_program.h"
#include "ops/workload.h"

namespace riot {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string PlanText(const Plan& p) {
  std::ostringstream os;
  os << "opps";
  for (int o : p.opportunities) os << ' ' << o;
  const PlanCost& c = p.cost;
  os << "\n" << p.schedule.ToString() << "\ncost " << c.read_bytes << ' '
     << c.write_bytes << ' ' << c.baseline_read_bytes << ' '
     << c.baseline_write_bytes << ' ' << c.block_reads << ' '
     << c.block_writes << ' ' << c.peak_memory_bytes << ' '
     << Hex(c.io_seconds) << ' ' << Hex(c.baseline_io_seconds) << ' '
     << c.capped_block_reads << ' ' << c.capped_evictions << ' '
     << Hex(c.capped_io_seconds) << ' ' << Hex(c.compute_seconds) << "\n";
  return os.str();
}

std::string DigestLine(const std::string& name, const Program& program,
                       size_t max_combination_size) {
  OptimizerOptions opts;
  opts.max_combination_size = max_combination_size;
  opts.num_threads = 4;
  const OptimizationResult r = Optimize(program, opts);
  std::string all;
  for (const Plan& p : r.plans) all += PlanText(p);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a(all)));
  return name + " plans=" + std::to_string(r.plans.size()) +
         " best=" + std::to_string(r.best_index) + " digest=" + buf;
}

std::vector<std::string> ComputeDigests() {
  struct Named {
    const char* name;
    std::function<Workload()> make;
    size_t max_combination_size;
  };
  const std::vector<Named> programs = {
      {"addmul", [] { return MakeAddMul(1); }, SIZE_MAX},
      {"twomm_a",
       [] { return MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1); }, SIZE_MAX},
      {"twomm_b",
       [] { return MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1); }, SIZE_MAX},
      {"linreg_le3", [] { return MakeLinReg(1); }, 3},
      {"covariance_le3", [] { return MakeCovariance(1); }, 3},
      {"ridge_le3", [] { return MakeRidge(1); }, 3},
  };
  std::vector<std::string> lines;
  for (const Named& n : programs) {
    lines.push_back(
        DigestLine(n.name, n.make().program, n.max_combination_size));
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    lines.push_back(DigestLine("random_" + std::to_string(seed),
                               Generate(seed).program, SIZE_MAX));
  }
  return lines;
}

std::string GoldenPath() {
  const std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/') + 1) + "plan_golden.txt";
}

TEST(PlanGoldenTest, EveryPlanMatchesCommittedDigest) {
  std::vector<std::string> golden;
  {
    std::ifstream in(GoldenPath());
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') golden.push_back(line);
    }
  }
  const std::vector<std::string> actual = ComputeDigests();
  if (actual != golden) {
    std::ofstream out("plan_golden.actual");
    for (const std::string& line : actual) out << line << "\n";
  }
  ASSERT_EQ(actual.size(), golden.size()) << "golden: " << GoldenPath();
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]);
  }
}

}  // namespace
}  // namespace riot
