// FindSchedule (paper Algorithm 3): given the program's dependences and a
// candidate set Q of sharing opportunities, construct a (d~+1)-dimensional
// affine schedule that
//   * weakly satisfies every dependence at every depth and strongly
//     satisfies each one at some depth (or at the final constant dimension),
//   * realizes every opportunity in Q per the constraints of Table 1,
//   * maps every statement instance to a unique time (dimensionality
//     constraints driven by EnumRow, Algorithm 1), and
// returns nullopt when no such schedule exists.
//
// Constraints on each schedule row are linear in the row's coefficients;
// rows are found depth-by-depth, sampling an integer coefficient vector with
// minimum L1 norm at each depth (exact branch-and-bound ILP), which
// reproduces the paper's published schedules (coefficients in {-1, 0, 1}).
#ifndef RIOTSHARE_CORE_SCHEDULE_SOLVER_H_
#define RIOTSHARE_CORE_SCHEDULE_SOLVER_H_

#include <atomic>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/coaccess.h"
#include "ilp/simplex.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "util/thread_annotations.h"

namespace riot {

struct SolverOptions {
  /// Box bound on schedule coefficients during integer sampling.
  int64_t coeff_bound = 3;
};

/// Calls count every request, memo hits included; the exact solver ran
/// `calls - memo_hits` times.
struct SolverStats {
  std::atomic<int64_t> lp_calls{0};   // feasibility checks
  std::atomic<int64_t> ilp_calls{0};  // integer row samples
  std::atomic<int64_t> lp_memo_hits{0};
  std::atomic<int64_t> ilp_memo_hits{0};
};

class ScheduleSolver {
 public:
  ScheduleSolver(const Program& program, std::vector<CoAccess> dependences,
                 SolverOptions options = {});

  /// Attempts to find a legal schedule realizing all opportunities in q.
  /// Thread-safe. LP and ILP answers are memoized for the solver's
  /// lifetime, so candidates that rebuild the same constraint systems
  /// solve each system once; results do not depend on the memo's state.
  std::optional<Schedule> FindSchedule(
      const std::vector<const CoAccess*>& q) const EXCLUDES(memo_mu_);

  /// Exact legality check: every dependence pair strictly ordered and all
  /// instance times unique under `sched`.
  bool IsLegal(const Schedule& sched) const;

  /// Exact realization check of Table 1 for one opportunity under `sched`
  /// (used by tests and by FindSchedule's final verification).
  bool Realizes(const Schedule& sched, const CoAccess& opp) const;

  const std::vector<CoAccess>& dependences() const { return deps_; }
  SolverStats& stats() const { return stats_; }

 private:
  // Both take the rows together with each row's ConstraintKey.
  /// Exact feasibility of `cons`, memoized on the set of its rows:
  /// feasibility is a property of the set, not of the rows' order.
  bool Feasible(const std::vector<LpConstraint>& cons,
                const std::vector<std::string>& keys) const
      EXCLUDES(memo_mu_);
  /// Minimum-L1 integer point of `cons`, memoized on its rows in order:
  /// branch-and-bound breaks ties by row order.
  std::optional<std::vector<int64_t>> SampleRow(
      const std::vector<LpConstraint>& cons,
      const std::vector<std::string>& keys) const EXCLUDES(memo_mu_);

  const Program& prog_;
  std::vector<CoAccess> deps_;
  SolverOptions opts_;
  std::vector<int64_t> var_bounds_;  // ILP box per schedule-row coefficient
  mutable SolverStats stats_;
  // Every entry is a deterministic function of its key, so threads racing
  // to fill one store the same answer. A pivot-budget give-up is stored
  // as infeasible.
  mutable Mutex memo_mu_;
  mutable std::unordered_map<std::string, bool> lp_memo_ GUARDED_BY(memo_mu_);
  mutable std::unordered_map<std::string, std::optional<std::vector<int64_t>>>
      ilp_memo_ GUARDED_BY(memo_mu_);
};

}  // namespace riot

#endif  // RIOTSHARE_CORE_SCHEDULE_SOLVER_H_
