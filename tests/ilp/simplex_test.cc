#include "ilp/simplex.h"

#include <gtest/gtest.h>

#include <random>

#include "dense_simplex_oracle.h"

namespace riot {
namespace {

LpConstraint Make(std::vector<int64_t> coeffs, CmpOp op, int64_t rhs) {
  return {RVector::FromInts(coeffs), op, Rational(rhs)};
}

TEST(SimplexTest, SimpleMaximization) {
  // max x + y s.t. x <= 4, y <= 3, x + y <= 5  ->  5 at e.g. (2,3).
  std::vector<LpConstraint> cons = {
      Make({1, 0}, CmpOp::kLe, 4),
      Make({0, 1}, CmpOp::kLe, 3),
      Make({1, 1}, CmpOp::kLe, 5),
  };
  LpSolution s = SolveLp(2, cons, RVector::FromInts({1, 1})).ValueOrDie();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(5));
  EXPECT_EQ(s.x[0] + s.x[1], Rational(5));
}

TEST(SimplexTest, FreeVariablesCanGoNegative) {
  // max -x s.t. x >= -7  ->  7 at x = -7.
  std::vector<LpConstraint> cons = {Make({1}, CmpOp::kGe, -7)};
  LpSolution s = SolveLp(1, cons, RVector::FromInts({-1})).ValueOrDie();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x[0], Rational(-7));
}

TEST(SimplexTest, InfeasibleDetected) {
  std::vector<LpConstraint> cons = {
      Make({1}, CmpOp::kGe, 3),
      Make({1}, CmpOp::kLe, 2),
  };
  LpSolution s = SolveLp(1, cons, RVector::FromInts({0})).ValueOrDie();
  EXPECT_EQ(s.status, LpStatus::kInfeasible);
  EXPECT_FALSE(LpFeasible(1, cons).ValueOrDie());
}

TEST(SimplexTest, UnboundedDetected) {
  std::vector<LpConstraint> cons = {Make({1}, CmpOp::kGe, 0)};
  LpSolution s = SolveLp(1, cons, RVector::FromInts({1})).ValueOrDie();
  EXPECT_EQ(s.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, EqualityConstraints) {
  // max y s.t. x + y == 10, x - y == 2  ->  unique point (6, 4).
  std::vector<LpConstraint> cons = {
      Make({1, 1}, CmpOp::kEq, 10),
      Make({1, -1}, CmpOp::kEq, 2),
  };
  LpSolution s = SolveLp(2, cons, RVector::FromInts({0, 1})).ValueOrDie();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x[0], Rational(6));
  EXPECT_EQ(s.x[1], Rational(4));
}

TEST(SimplexTest, RationalOptimum) {
  // max x s.t. 2x <= 3  ->  x = 3/2.
  std::vector<LpConstraint> cons = {Make({2}, CmpOp::kLe, 3)};
  LpSolution s = SolveLp(1, cons, RVector::FromInts({1})).ValueOrDie();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x[0], Rational(3, 2));
}

TEST(SimplexTest, RedundantConstraintsHarmless) {
  std::vector<LpConstraint> cons = {
      Make({1, 1}, CmpOp::kLe, 5),
      Make({1, 1}, CmpOp::kLe, 5),
      Make({2, 2}, CmpOp::kLe, 10),
      Make({1, 0}, CmpOp::kGe, 0),
      Make({0, 1}, CmpOp::kGe, 0),
  };
  LpSolution s = SolveLp(2, cons, RVector::FromInts({1, 1})).ValueOrDie();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(5));
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Multiple constraints meet at the optimum; Bland's rule must not cycle.
  std::vector<LpConstraint> cons = {
      Make({1, 1}, CmpOp::kLe, 1),  Make({1, 0}, CmpOp::kLe, 1),
      Make({0, 1}, CmpOp::kLe, 1),  Make({1, -1}, CmpOp::kLe, 1),
      Make({-1, 1}, CmpOp::kLe, 1), Make({1, 0}, CmpOp::kGe, 0),
      Make({0, 1}, CmpOp::kGe, 0),
  };
  LpSolution s = SolveLp(2, cons, RVector::FromInts({1, 1})).ValueOrDie();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.objective, Rational(1));
}

TEST(SimplexTest, BealeCyclingExampleTerminatesOptimal) {
  // Beale (1955): the classic LP on which Dantzig pricing with a naive
  // tie-break cycles forever at a degenerate vertex. The Bland fallback
  // (after LpOptions::degenerate_pivot_limit zero-progress pivots) must
  // exit the cycle and reach the true optimum 1/20 at (1/25, 0, 1, 0).
  //   max 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4
  //   s.t. 1/4 x1 - 60 x2 - 1/25 x3 + 9 x4 <= 0
  //        1/2 x1 - 90 x2 - 1/50 x3 + 3 x4 <= 0
  //        x3 <= 1,  x >= 0
  auto rv = [](std::vector<Rational> v) {
    RVector r(v.size());
    for (size_t i = 0; i < v.size(); ++i) r[i] = v[i];
    return r;
  };
  std::vector<LpConstraint> cons = {
      {rv({Rational(1, 4), Rational(-60), Rational(-1, 25), Rational(9)}),
       CmpOp::kLe, Rational(0)},
      {rv({Rational(1, 2), Rational(-90), Rational(-1, 50), Rational(3)}),
       CmpOp::kLe, Rational(0)},
      {rv({Rational(0), Rational(0), Rational(1), Rational(0)}),
       CmpOp::kLe, Rational(1)},
      Make({1, 0, 0, 0}, CmpOp::kGe, 0),
      Make({0, 1, 0, 0}, CmpOp::kGe, 0),
      Make({0, 0, 1, 0}, CmpOp::kGe, 0),
      Make({0, 0, 0, 1}, CmpOp::kGe, 0),
  };
  RVector obj = rv({Rational(3, 4), Rational(-150), Rational(1, 50),
                    Rational(-6)});
  // A tight degenerate-pivot limit forces the Bland fallback to engage
  // almost immediately; the answer must still be exactly optimal.
  LpOptions opts;
  opts.degenerate_pivot_limit = 2;
  auto s = SolveLp(4, cons, obj, opts);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->status, LpStatus::kOptimal);
  EXPECT_EQ(s->objective, Rational(1, 20));
}

TEST(SimplexTest, PivotBudgetSurfacesStatusNotAbort) {
  // A feasible LP that needs phase-I pivots, given no budget to make them:
  // the solver must return kResourceExhausted, not loop or abort.
  std::vector<LpConstraint> cons = {
      Make({1, 0}, CmpOp::kLe, 4),
      Make({0, 1}, CmpOp::kLe, 3),
      Make({1, 1}, CmpOp::kGe, 2),
  };
  LpOptions opts;
  opts.max_pivots = 1;
  auto s = SolveLp(2, cons, RVector::FromInts({1, 1}), opts);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
  // The same system solves fine with the default budget.
  auto full = SolveLp(2, cons, RVector::FromInts({1, 1}));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->status, LpStatus::kOptimal);
}

// Brute-force cross-check on small integer boxes.
class SimplexPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexPropertyTest, MatchesBruteForceOnBox) {
  std::srand(static_cast<unsigned>(GetParam()));
  // Random constraints over [-3, 3]^2 plus box bounds.
  std::vector<LpConstraint> cons = {
      Make({1, 0}, CmpOp::kLe, 3),  Make({1, 0}, CmpOp::kGe, -3),
      Make({0, 1}, CmpOp::kLe, 3),  Make({0, 1}, CmpOp::kGe, -3),
  };
  for (int i = 0; i < 3; ++i) {
    int64_t a = std::rand() % 5 - 2, b = std::rand() % 5 - 2;
    int64_t r = std::rand() % 7 - 1;
    cons.push_back(Make({a, b}, CmpOp::kLe, r));
  }
  int64_t ca = std::rand() % 5 - 2, cb = std::rand() % 5 - 2;
  LpSolution s = SolveLp(2, cons, RVector::FromInts({ca, cb})).ValueOrDie();
  // Brute force over a fine rational grid (quarters) inside the box.
  bool any = false;
  Rational best;
  for (int xq = -12; xq <= 12; ++xq) {
    for (int yq = -12; yq <= 12; ++yq) {
      Rational x(xq, 4), y(yq, 4);
      bool ok = true;
      for (const auto& c : cons) {
        Rational lhs = c.coeffs[0] * x + c.coeffs[1] * y;
        if (c.op == CmpOp::kLe && lhs > c.rhs) ok = false;
        if (c.op == CmpOp::kGe && lhs < c.rhs) ok = false;
      }
      if (!ok) continue;
      Rational obj = Rational(ca) * x + Rational(cb) * y;
      if (!any || obj > best) best = obj;
      any = true;
    }
  }
  if (s.status == LpStatus::kOptimal) {
    ASSERT_TRUE(any);
    // The LP optimum dominates every grid point.
    EXPECT_GE(s.objective, best);
  } else if (s.status == LpStatus::kInfeasible) {
    EXPECT_FALSE(any);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexPropertyTest,
                         ::testing::Range(0, 25));

// Differential test against the dense tableau SolveLp used to be
// (dense_simplex_oracle.h): the sparse pivots must follow the same pivot
// path, so status, pivot count, objective and vertex all agree exactly.
struct LpCase {
  size_t num_vars = 0;
  std::vector<LpConstraint> cons;
  RVector objective;
  LpOptions options;
};

// Both solvers on one case; returns the status both reached.
LpStatus ExpectSameAsDense(const LpCase& c, const std::string& what) {
  auto got = SolveLp(c.num_vars, c.cons, c.objective, c.options);
  auto want =
      dense_oracle::SolveLpDense(c.num_vars, c.cons, c.objective, c.options);
  EXPECT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok() || !want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
    return LpStatus::kInfeasible;
  }
  EXPECT_EQ(got->status, want->status) << what;
  EXPECT_EQ(got->pivots, want->pivots) << what;
  if (got->status == LpStatus::kOptimal &&
      want->status == LpStatus::kOptimal) {
    EXPECT_EQ(got->objective, want->objective) << what;
    EXPECT_EQ(got->x, want->x) << what;
  }
  return got->status;
}

// A random system mixing <=, >= and = rows with small integer and
// fractional coefficients, duplicated and scaled (redundant) rows,
// zero-rhs (degenerate) rows, and zero objectives. Half the systems get a
// box |x_i| <= 4 (as the ILP adds); a third get the ILP's |x| proxies and
// an L1 objective, like the schedule solver's row samples.
LpCase RandomCase(std::mt19937* rng) {
  auto pick = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  auto coeff = [&]() {
    const int num = pick(-3, 3);
    return pick(0, 5) == 0 ? Rational(num, pick(2, 5)) : Rational(num);
  };
  LpCase c;
  const size_t n = static_cast<size_t>(pick(1, 5));
  c.num_vars = n;
  const int rows = pick(0, 10);
  for (int r = 0; r < rows; ++r) {
    if (!c.cons.empty() && pick(0, 5) == 0) {
      // Redundant: a copy of an earlier row, possibly scaled by 2.
      LpConstraint dup = c.cons[static_cast<size_t>(
          pick(0, static_cast<int>(c.cons.size()) - 1))];
      if (pick(0, 1) == 1) {
        dup.coeffs = dup.coeffs * Rational(2);
        dup.rhs = dup.rhs * Rational(2);
      }
      c.cons.push_back(dup);
      continue;
    }
    LpConstraint con;
    con.coeffs = RVector(n);
    for (size_t v = 0; v < n; ++v) con.coeffs[v] = coeff();
    const int op = pick(0, 4);
    con.op = op <= 1 ? CmpOp::kLe : (op <= 3 ? CmpOp::kGe : CmpOp::kEq);
    con.rhs = pick(0, 3) == 0 ? Rational(0) : coeff() * Rational(pick(1, 3));
    c.cons.push_back(con);
  }
  if (pick(0, 1) == 1) {
    for (size_t v = 0; v < n; ++v) {
      RVector e(n);
      e[v] = Rational(1);
      c.cons.push_back({e, CmpOp::kLe, Rational(4)});
      c.cons.push_back({e, CmpOp::kGe, Rational(-4)});
    }
  }
  c.objective = RVector(n);
  if (pick(0, 3) != 0) {
    for (size_t v = 0; v < n; ++v) c.objective[v] = coeff();
  }
  if (pick(0, 2) == 0) {
    // t_v >= x_v, t_v >= -x_v, maximize -(sum t_v).
    const size_t total = 2 * n;
    for (auto& con : c.cons) {
      RVector ext(total);
      for (size_t v = 0; v < n; ++v) ext[v] = con.coeffs[v];
      con.coeffs = ext;
    }
    for (size_t v = 0; v < n; ++v) {
      RVector up(total), down(total);
      up[n + v] = Rational(1);
      up[v] = Rational(-1);
      down[n + v] = Rational(1);
      down[v] = Rational(1);
      c.cons.push_back({up, CmpOp::kGe, Rational(0)});
      c.cons.push_back({down, CmpOp::kGe, Rational(0)});
    }
    c.objective = RVector(total);
    for (size_t v = 0; v < n; ++v) c.objective[n + v] = Rational(-1);
    c.num_vars = total;
  }
  if (pick(0, 4) == 0) {
    c.options.degenerate_pivot_limit = pick(1, 3);  // Bland early
  }
  return c;
}

TEST(SimplexDifferentialTest, RandomSystemsMatchDenseTableau) {
  std::mt19937 rng(20121015);
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int i = 0; i < 3000; ++i) {
    const LpCase c = RandomCase(&rng);
    switch (ExpectSameAsDense(c, "case " + std::to_string(i))) {
      case LpStatus::kOptimal: ++optimal; break;
      case LpStatus::kInfeasible: ++infeasible; break;
      case LpStatus::kUnbounded: ++unbounded; break;
    }
  }
  // The generator reaches every outcome often.
  EXPECT_GT(optimal, 1000);
  EXPECT_GT(infeasible, 100);
  EXPECT_GT(unbounded, 100);
}

TEST(SimplexDifferentialTest, ExhaustedBudgetsMatchDenseTableau) {
  std::mt19937 rng(7);
  for (int i = 0; i < 300; ++i) {
    LpCase c = RandomCase(&rng);
    c.options.max_pivots = i % 4;
    ExpectSameAsDense(c, "budget case " + std::to_string(i));
  }
}

TEST(SimplexDifferentialTest, StructuredSystemsMatchDenseTableau) {
  auto rv = [](std::vector<Rational> v) {
    RVector r(v.size());
    for (size_t i = 0; i < v.size(); ++i) r[i] = v[i];
    return r;
  };
  // Beale's cycling LP (see BealeCyclingExampleTerminatesOptimal), under
  // every degenerate-pivot limit from immediate Bland to pure Dantzig.
  LpCase beale;
  beale.num_vars = 4;
  beale.cons = {
      {rv({Rational(1, 4), Rational(-60), Rational(-1, 25), Rational(9)}),
       CmpOp::kLe, Rational(0)},
      {rv({Rational(1, 2), Rational(-90), Rational(-1, 50), Rational(3)}),
       CmpOp::kLe, Rational(0)},
      {rv({Rational(0), Rational(0), Rational(1), Rational(0)}), CmpOp::kLe,
       Rational(1)},
      Make({1, 0, 0, 0}, CmpOp::kGe, 0),
      Make({0, 1, 0, 0}, CmpOp::kGe, 0),
      Make({0, 0, 1, 0}, CmpOp::kGe, 0),
      Make({0, 0, 0, 1}, CmpOp::kGe, 0),
  };
  beale.objective =
      rv({Rational(3, 4), Rational(-150), Rational(1, 50), Rational(-6)});
  for (int64_t limit : {1, 2, 3, 5, 64}) {
    beale.options.degenerate_pivot_limit = limit;
    EXPECT_EQ(ExpectSameAsDense(beale, "beale " + std::to_string(limit)),
              LpStatus::kOptimal);
  }
  // Infeasible, with and without an objective.
  LpCase infeasible;
  infeasible.num_vars = 2;
  infeasible.cons = {Make({1, 1}, CmpOp::kGe, 3), Make({1, 0}, CmpOp::kLe, 1),
                     Make({0, 1}, CmpOp::kLe, 1)};
  infeasible.objective = RVector::FromInts({1, -1});
  EXPECT_EQ(ExpectSameAsDense(infeasible, "infeasible"),
            LpStatus::kInfeasible);
  infeasible.objective = RVector(2);
  EXPECT_EQ(ExpectSameAsDense(infeasible, "infeasible, zero objective"),
            LpStatus::kInfeasible);
  // Unbounded, and the same system as a pure feasibility test.
  LpCase unbounded;
  unbounded.num_vars = 2;
  unbounded.cons = {Make({1, -1}, CmpOp::kEq, 1), Make({1, 0}, CmpOp::kGe, 0)};
  unbounded.objective = RVector::FromInts({1, 1});
  EXPECT_EQ(ExpectSameAsDense(unbounded, "unbounded"), LpStatus::kUnbounded);
  unbounded.objective = RVector(2);
  EXPECT_EQ(ExpectSameAsDense(unbounded, "unbounded, zero objective"),
            LpStatus::kOptimal);
  // Redundant equalities leave an artificial basic in a zero row.
  LpCase redundant;
  redundant.num_vars = 3;
  redundant.cons = {Make({1, 1, 1}, CmpOp::kEq, 6),
                    Make({2, 2, 2}, CmpOp::kEq, 12),
                    Make({1, -1, 0}, CmpOp::kEq, 0),
                    Make({2, 0, 2}, CmpOp::kEq, 8)};
  redundant.objective = RVector::FromInts({1, 2, 3});
  EXPECT_EQ(ExpectSameAsDense(redundant, "redundant"), LpStatus::kOptimal);
  redundant.objective = RVector(3);
  EXPECT_EQ(ExpectSameAsDense(redundant, "redundant, zero objective"),
            LpStatus::kOptimal);
  // No constraints at all.
  LpCase empty;
  empty.num_vars = 2;
  empty.objective = RVector(2);
  EXPECT_EQ(ExpectSameAsDense(empty, "empty"), LpStatus::kOptimal);
}

}  // namespace
}  // namespace riot
