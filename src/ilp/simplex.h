// Exact two-phase primal simplex over rationals.
//
// Variables are free (unrestricted in sign) unless constrained otherwise;
// internally each free variable is split into a difference of nonnegatives.
// All arithmetic is exact, so feasibility answers are decisions, not
// approximations — this is what lets the optimizer treat polyhedron
// emptiness and schedule legality as exact.
//
// Pricing is Dantzig's rule (most positive reduced cost — fast in
// practice) with an automatic fallback to Bland's rule after a streak of
// degenerate (zero-progress) pivots, so cycling on the degenerate LPs that
// large fused programs produce cannot hang the optimizer. A hard pivot
// budget backstops both phases: exceeding it surfaces kResourceExhausted
// to the caller instead of pivoting forever (or aborting the process).
//
// The tableau is dense and built once, Phase I artificials included.
// Each pivot updates only the pivot row's nonzero columns, in the rows
// with a nonzero in the pivot column; Phase II prices the original
// columns in place, and a zero objective skips it (the Phase I basis is
// already optimal). None of this changes which pivots are made: the
// pivot sequence, and so every vertex returned, is a function of the
// input alone.
#ifndef RIOTSHARE_ILP_SIMPLEX_H_
#define RIOTSHARE_ILP_SIMPLEX_H_

#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace riot {

enum class CmpOp { kLe, kGe, kEq };

/// \brief One linear constraint: coeffs . x  (op)  rhs.
struct LpConstraint {
  RVector coeffs;
  CmpOp op = CmpOp::kLe;
  Rational rhs;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  RVector x;           // valid iff status == kOptimal
  Rational objective;  // valid iff status == kOptimal
  int64_t pivots = 0;  // simplex pivots made, across both phases
};

struct LpOptions {
  /// Hard pivot budget across both phases. Bland's rule guarantees finite
  /// termination, so on non-adversarial inputs this is never reached; it
  /// backstops pathological exponential pivot paths. Exceeding it returns
  /// kResourceExhausted (never aborts).
  int64_t max_pivots = 1'000'000;
  /// Consecutive degenerate (zero-progress) pivots tolerated under
  /// Dantzig pricing before switching to Bland's anti-cycling rule; a
  /// progress-making pivot switches back.
  int64_t degenerate_pivot_limit = 64;
};

/// \brief Maximize objective . x subject to the constraints; x free.
///
/// Pass a zero objective for a pure feasibility test. Fails with
/// kResourceExhausted when the pivot budget is exhausted.
Result<LpSolution> SolveLp(size_t num_vars,
                           const std::vector<LpConstraint>& cons,
                           const RVector& objective,
                           const LpOptions& options = {});

/// \brief Convenience: feasibility of the system.
Result<bool> LpFeasible(size_t num_vars,
                        const std::vector<LpConstraint>& cons,
                        const LpOptions& options = {});

}  // namespace riot

#endif  // RIOTSHARE_ILP_SIMPLEX_H_
