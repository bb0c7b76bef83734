// Tests of FindSchedule (Algorithm 3) against the paper's worked example
// and structural legality properties.
#include "core/schedule_solver.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "analysis/coaccess.h"
#include "core/optimizer.h"
#include "ops/workload.h"

namespace riot {
namespace {

const CoAccess* Find(const std::vector<CoAccess>& list, const Program& p,
                     const std::string& label) {
  for (const auto& ca : list) {
    if (ca.Label(p) == label) return &ca;
  }
  return nullptr;
}

class SolverFixture : public ::testing::Test {
 protected:
  void Init(int64_t n1, int64_t n2, int64_t n3) {
    w_ = MakeExample1(n1, n2, n3);
    analysis_ = AnalyzeProgram(w_.program);
    solver_ = std::make_unique<ScheduleSolver>(w_.program,
                                               analysis_.dependences);
  }

  std::vector<const CoAccess*> Opps(std::vector<std::string> labels) {
    std::vector<const CoAccess*> q;
    for (const auto& l : labels) {
      const CoAccess* o = Find(analysis_.sharing, w_.program, l);
      EXPECT_NE(o, nullptr) << l;
      q.push_back(o);
    }
    return q;
  }

  Workload w_;
  AnalysisResult analysis_;
  std::unique_ptr<ScheduleSolver> solver_;
};

TEST_F(SolverFixture, EmptySetYieldsLegalSchedule) {
  Init(3, 4, 2);
  auto s = solver_->FindSchedule({});
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(solver_->IsLegal(*s));
}

TEST_F(SolverFixture, OriginalScheduleIsLegal) {
  Init(3, 4, 2);
  EXPECT_TRUE(solver_->IsLegal(w_.program.original_schedule()));
}

TEST_F(SolverFixture, ReversedScheduleIsIllegal) {
  Init(3, 4, 2);
  // Swap the nest constants so s2 runs before s1: violates s1WC -> s2RC.
  Schedule bad = w_.program.original_schedule();
  bad.MutableForStatement(0).At(0, 2) = Rational(1);
  bad.MutableForStatement(1).At(0, 3) = Rational(0);
  EXPECT_FALSE(solver_->IsLegal(bad));
}

TEST_F(SolverFixture, PaperSection55Combination) {
  // Paper Section 5.5: realizing {s1WC->s2RC, s2WE->s2RE, s2WE->s2WE}
  // produces the transformed code of Figure 1(b). Verify the found schedule
  // realizes all three and is legal.
  Init(3, 4, 2);
  auto q = Opps({"s1WC->s2RC", "s2WE->s2RE", "s2WE->s2WE"});
  auto s = solver_->FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(solver_->IsLegal(*s));
  for (const CoAccess* o : q) EXPECT_TRUE(solver_->Realizes(*s, *o));
  // Figure 1(b) structure: s1 and s2 share the k-loop at j == 0, i.e. for
  // pairs (i,k) / (i,0,k) the time prefixes coincide and only the constant
  // dimension differs.
  const CoAccess* c = q[0];
  for (const auto& pr : c->pairs) {
    TimeVector ts = s->TimeOf(0, pr.src_iter);
    TimeVector td = s->TimeOf(1, pr.dst_iter);
    for (size_t r = 0; r + 1 < ts.size(); ++r) EXPECT_EQ(ts[r], td[r]);
    EXPECT_LT(ts.back(), td.back());
  }
}

TEST_F(SolverFixture, ConflictingOpportunitiesRejected) {
  // Paper Section 1: pinning E in memory across the k loop (s2WE->s2WE at
  // the innermost dimension) conflicts with keeping D for reuse across i
  // (s2RD->s2RD needs i innermost). They cannot be realized together.
  Init(3, 4, 2);
  auto q = Opps({"s2WE->s2WE", "s2RD->s2RD"});
  EXPECT_FALSE(solver_->FindSchedule(q).has_value());
}

TEST_F(SolverFixture, RealizesRejectsOriginalScheduleForReordering) {
  // The original schedule does not realize s2RD->s2RD (reuse of D[k,j]
  // across i requires i innermost).
  Init(3, 4, 2);
  auto q = Opps({"s2RD->s2RD"});
  EXPECT_FALSE(solver_->Realizes(w_.program.original_schedule(), *q[0]));
  auto s = solver_->FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(solver_->Realizes(*s, *q[0]));
}

TEST_F(SolverFixture, EveryFoundScheduleIsInjective) {
  Init(2, 3, 2);
  for (const auto& opp : analysis_.sharing) {
    auto s = solver_->FindSchedule({&opp});
    if (!s.has_value()) continue;
    auto order = w_.program.ScheduledOrder(*s);
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_NE(CompareTime(order[i - 1].time, order[i].time), 0)
          << "duplicate time under " << opp.Label(w_.program);
    }
  }
}

TEST_F(SolverFixture, DependencesHoldUnderEverySingletonSchedule) {
  Init(2, 3, 2);
  for (const auto& opp : analysis_.sharing) {
    auto s = solver_->FindSchedule({&opp});
    if (!s.has_value()) continue;
    for (const auto& dep : analysis_.dependences) {
      for (const auto& pr : dep.pairs) {
        TimeVector ts = s->TimeOf(dep.src.stmt_id, pr.src_iter);
        TimeVector td = s->TimeOf(dep.dst.stmt_id, pr.dst_iter);
        EXPECT_LT(CompareTime(ts, td), 0)
            << dep.Label(w_.program) << " violated under "
            << opp.Label(w_.program);
      }
    }
  }
}

TEST(SolverDepthOne, LinRegPipelineSchedulable) {
  // All-depth-1 program: schedules have two rows; cross-statement
  // dependences are resolved by large constants or the final constant
  // dimension.
  Workload w = MakeLinReg(40);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  // Fusing the two X-consumers (paper's best plan shares reads of X).
  const CoAccess* x12 = Find(a.sharing, w.program, "s1RX->s2RX");
  ASSERT_NE(x12, nullptr);
  auto s = solver.FindSchedule({x12});
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(solver.IsLegal(*s));
  EXPECT_TRUE(solver.Realizes(*s, *x12));
}

// Memo differential: a solver shared by every candidate of an Apriori
// search (warm memo and witness pool) must answer exactly like a fresh
// solver per candidate (cold), and Optimize must not depend on which thread
// fills the memo: with single-flight memos and level-scoped witnesses, even
// the count of real LP and ILP solves is the same at 1 and 4 threads.
struct MemoCase {
  const char* name;
  std::function<Workload()> make;
  size_t max_combination_size;
};

const MemoCase kMemoCases[] = {
    {"addmul", [] { return MakeAddMul(1); }, SIZE_MAX},
    {"twomm_a",
     [] { return MakeTwoMatMul(TwoMatMulConfig::kConfigA, 1); }, SIZE_MAX},
    {"twomm_b",
     [] { return MakeTwoMatMul(TwoMatMulConfig::kConfigB, 1); }, SIZE_MAX},
    {"linreg", [] { return MakeLinReg(1); }, 2},
    {"example1", [] { return MakeExample1(3, 4, 2); }, SIZE_MAX},
};

class SolverMemoTest : public ::testing::TestWithParam<MemoCase> {};

TEST_P(SolverMemoTest, WarmMemoMatchesColdSolverOnEveryAprioriCandidate) {
  const MemoCase& mc = GetParam();
  Workload w = mc.make();
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver warm(w.program, a.dependences);
  const int num_opps = static_cast<int>(a.sharing.size());
  // Algorithm 2's levels: size-k candidates whose (k-1)-subsets are all
  // feasible, in the optimizer's order.
  std::set<std::vector<int>> feasible_prev;
  int64_t tested = 0;
  for (size_t k = 1; k <= mc.max_combination_size &&
                     k <= static_cast<size_t>(num_opps);
       ++k) {
    std::vector<std::vector<int>> level;
    if (k == 1) {
      for (int i = 0; i < num_opps; ++i) level.push_back({i});
    }
    for (const auto& base : feasible_prev) {
      for (int next = base.back() + 1; next < num_opps; ++next) {
        std::vector<int> c = base;
        c.push_back(next);
        bool subsets_feasible = true;
        for (size_t drop = 0; drop + 1 < c.size(); ++drop) {
          std::vector<int> sub = c;
          sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
          subsets_feasible = subsets_feasible && feasible_prev.count(sub);
        }
        if (subsets_feasible) level.push_back(std::move(c));
      }
    }
    std::set<std::vector<int>> feasible_k;
    for (const auto& c : level) {
      std::vector<const CoAccess*> q;
      std::string label;
      for (int oi : c) {
        q.push_back(&a.sharing[static_cast<size_t>(oi)]);
        label += a.sharing[static_cast<size_t>(oi)].Label(w.program) + " ";
      }
      ScheduleSolver cold(w.program, a.dependences);
      auto sw = warm.FindSchedule(q);
      auto sc = cold.FindSchedule(q);
      ++tested;
      ASSERT_EQ(sw.has_value(), sc.has_value()) << mc.name << ": " << label;
      if (!sw) continue;
      EXPECT_EQ(sw->ToString(), sc->ToString()) << mc.name << ": " << label;
      feasible_k.insert(c);
    }
    feasible_prev = std::move(feasible_k);
    if (feasible_prev.empty()) break;
  }
  EXPECT_GT(tested, 1);
  EXPECT_GT(warm.stats().lp_memo_hits.load(), 0) << mc.name;
  EXPECT_GT(warm.stats().ilp_memo_hits.load(), 0) << mc.name;
  EXPECT_LT(warm.stats().lp_memo_hits.load() +
                warm.stats().lp_witness_hits.load(),
            warm.stats().lp_calls.load());
}

TEST_P(SolverMemoTest, OptimizeIdenticalAtOneAndFourThreads) {
  const MemoCase& mc = GetParam();
  Workload w = mc.make();
  OptimizerOptions serial;
  serial.max_combination_size = mc.max_combination_size;
  serial.num_threads = 1;
  OptimizerOptions parallel = serial;
  parallel.num_threads = 4;
  OptimizationResult rs = Optimize(w.program, serial);
  OptimizationResult rp = Optimize(w.program, parallel);
  EXPECT_EQ(rs.best_index, rp.best_index);
  EXPECT_EQ(rs.candidates_tested, rp.candidates_tested);
  EXPECT_EQ(rs.lp_calls, rp.lp_calls);
  EXPECT_EQ(rs.ilp_calls, rp.ilp_calls);
  // Single flight: a racing thread waits for the answer instead of solving
  // the key again, so every key is solved (or witnessed) exactly once.
  EXPECT_EQ(rs.lp_memo_hits, rp.lp_memo_hits);
  EXPECT_EQ(rs.ilp_memo_hits, rp.ilp_memo_hits);
  EXPECT_EQ(rs.lp_witness_hits, rp.lp_witness_hits);
  EXPECT_EQ(rs.lp_calls - rs.lp_memo_hits - rs.lp_witness_hits,
            rp.lp_calls - rp.lp_memo_hits - rp.lp_witness_hits);
  EXPECT_EQ(rs.ilp_calls - rs.ilp_memo_hits, rp.ilp_calls - rp.ilp_memo_hits);
  EXPECT_GT(rs.lp_memo_hits, 0);
  ASSERT_EQ(rs.plans.size(), rp.plans.size());
  for (size_t i = 0; i < rs.plans.size(); ++i) {
    const Plan& ps = rs.plans[i];
    const Plan& pp = rp.plans[i];
    EXPECT_EQ(ps.opportunities, pp.opportunities) << "plan " << i;
    EXPECT_EQ(ps.schedule.ToString(), pp.schedule.ToString()) << "plan " << i;
    EXPECT_EQ(ps.cost.read_bytes, pp.cost.read_bytes) << "plan " << i;
    EXPECT_EQ(ps.cost.write_bytes, pp.cost.write_bytes) << "plan " << i;
    EXPECT_EQ(ps.cost.block_reads, pp.cost.block_reads) << "plan " << i;
    EXPECT_EQ(ps.cost.block_writes, pp.cost.block_writes) << "plan " << i;
    EXPECT_EQ(ps.cost.peak_memory_bytes, pp.cost.peak_memory_bytes)
        << "plan " << i;
    EXPECT_EQ(ps.cost.io_seconds, pp.cost.io_seconds) << "plan " << i;
  }
}

// Four threads asking one fresh solver for the same candidate at once
// solve each system once: the real solves equal one lone request's.
TEST_P(SolverMemoTest, RacingRequestsForOneCandidateSolveEachSystemOnce) {
  const MemoCase& mc = GetParam();
  Workload w = mc.make();
  AnalysisResult a = AnalyzeProgram(w.program);
  for (size_t oi = 0; oi < a.sharing.size(); ++oi) {
    const std::vector<const CoAccess*> q = {&a.sharing[oi]};
    ScheduleSolver lone(w.program, a.dependences);
    const auto expected = lone.FindSchedule(q);
    ScheduleSolver raced(w.program, a.dependences);
    std::vector<std::optional<Schedule>> got(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t) {
      threads.emplace_back([&, t] { got[t] = raced.FindSchedule(q); });
    }
    for (auto& t : threads) t.join();
    for (const auto& g : got) {
      ASSERT_EQ(g.has_value(), expected.has_value()) << mc.name << " " << oi;
      if (g) EXPECT_EQ(g->ToString(), expected->ToString());
    }
    const SolverStats& ls = lone.stats();
    const SolverStats& rs = raced.stats();
    EXPECT_EQ(rs.lp_calls.load(), 4 * ls.lp_calls.load());
    EXPECT_EQ(rs.lp_calls.load() - rs.lp_memo_hits.load() -
                  rs.lp_witness_hits.load(),
              ls.lp_calls.load() - ls.lp_memo_hits.load() -
                  ls.lp_witness_hits.load())
        << mc.name << " " << oi;
    EXPECT_EQ(rs.ilp_calls.load() - rs.ilp_memo_hits.load(),
              ls.ilp_calls.load() - ls.ilp_memo_hits.load())
        << mc.name << " " << oi;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, SolverMemoTest,
                         ::testing::ValuesIn(kMemoCases),
                         [](const ::testing::TestParamInfo<MemoCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace riot
