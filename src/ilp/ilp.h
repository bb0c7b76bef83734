// Branch-and-bound integer linear programming on top of the exact simplex.
//
// Used by the optimizer to sample integer schedule-coefficient vectors from
// the legality polyhedron (Algorithm 3 line 44 of the paper), typically
// minimizing an L1-style objective so the "simplest" schedule is preferred
// (coefficients in {-1, 0, 1} whenever possible, matching the paper's
// published schedules).
#ifndef RIOTSHARE_ILP_ILP_H_
#define RIOTSHARE_ILP_ILP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ilp/simplex.h"

namespace riot {

struct IlpOptions {
  // Box bound applied to every variable (|x_i| <= var_bound) to guarantee
  // branch-and-bound termination. Schedule coefficients are small by nature.
  int64_t var_bound = 4;
  // Optional per-variable override (|x_i| <= var_bounds[i]); schedule rows
  // need tight bounds on iteration coefficients but wide ones on constants
  // (sequential composition of loop nests shifts statements by full trip
  // counts).
  std::vector<int64_t> var_bounds;
  // Safety valve on the number of B&B nodes.
  int64_t max_nodes = 200000;
};

struct IlpResult {
  bool feasible = false;
  std::vector<int64_t> x;
  Rational objective;  // maximized
  int64_t lp_pivots = 0;  // simplex pivots over every LP relaxation solved
};

/// \brief Maximize objective over integer points satisfying cons (plus the
/// box |x_i| <= options.var_bound).
IlpResult SolveIlp(size_t num_vars, const std::vector<LpConstraint>& cons,
                   const RVector& objective, const IlpOptions& options = {});

/// \brief Find any integer point in the system (zero objective), or one
/// minimizing the L1 norm sum |x_i| if minimize_l1 is set. Adds the
/// relaxations' simplex pivots to `*lp_pivots` when it is given.
std::optional<std::vector<int64_t>> FindIntegerPoint(
    size_t num_vars, const std::vector<LpConstraint>& cons,
    bool minimize_l1 = true, const IlpOptions& options = {},
    int64_t* lp_pivots = nullptr);

}  // namespace riot

#endif  // RIOTSHARE_ILP_ILP_H_
