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
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
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

/// Calls count every request. A memo hit is a request answered by an
/// answer another request stored or was computing; a witness hit is an LP
/// request answered by an integer row sampled earlier. The exact solvers
/// ran `lp_calls - lp_memo_hits - lp_witness_hits` and
/// `ilp_calls - ilp_memo_hits` times, and made `lp_pivots` simplex pivots
/// between them (feasibility LPs and ILP relaxations).
struct SolverStats {
  std::atomic<int64_t> lp_calls{0};   // feasibility checks
  std::atomic<int64_t> ilp_calls{0};  // integer row samples
  std::atomic<int64_t> lp_memo_hits{0};
  std::atomic<int64_t> ilp_memo_hits{0};
  std::atomic<int64_t> lp_witness_hits{0};
  std::atomic<int64_t> lp_pivots{0};
};

/// Constraint rows of one schedule-row system (schedule_solver.cc).
struct ConstraintSystem;

class ScheduleSolver {
 public:
  ScheduleSolver(const Program& program, std::vector<CoAccess> dependences,
                 SolverOptions options = {});

  /// Attempts to find a legal schedule realizing all opportunities in q.
  /// Thread-safe, and the answer does not depend on what the solver saw
  /// before (barring an LP pivot-budget give-up, see memo_mu_). Three memos
  /// last the solver's lifetime, so candidates that
  /// rebuild the same systems solve each one once:
  ///   * LP feasibility, keyed on the set of rows. Before solving a
  ///     system, the solver tries the integer rows it has sampled as
  ///     witnesses: a point satisfying every row proves the system
  ///     feasible. A call with |q| = k tries only rows sampled for
  ///     smaller candidates, so when candidates arrive level by level
  ///     (Apriori), which requests a witness answers does not depend on
  ///     the thread count.
  ///   * ILP row samples, keyed on the rows in order.
  ///   * IsLegal, keyed on Schedule::ToString.
  /// Each memo is single-flight: a thread that misses on a key another
  /// thread is solving waits for that answer instead of solving it again.
  std::optional<Schedule> FindSchedule(
      const std::vector<const CoAccess*>& q) const EXCLUDES(memo_mu_);

  /// Exact legality check: every dependence pair strictly ordered and all
  /// instance times unique under `sched`. Memoized per distinct schedule.
  bool IsLegal(const Schedule& sched) const EXCLUDES(memo_mu_);

  /// Exact realization check of Table 1 for one opportunity under `sched`
  /// (used by tests and by FindSchedule's final verification).
  bool Realizes(const Schedule& sched, const CoAccess& opp) const;

  const std::vector<CoAccess>& dependences() const { return deps_; }
  SolverStats& stats() const { return stats_; }

 private:
  /// A memo entry: `value` is valid once `done`.
  template <typename V>
  struct Flight {
    bool done = false;
    V value{};
  };
  template <typename V>
  using FlightMap = std::unordered_map<std::string, Flight<V>>;

  /// Exact feasibility of `sys`, memoized on the set of its rows:
  /// feasibility is a property of the set, not of the rows' order.
  /// `level` is the candidate size |q| of the calling FindSchedule.
  bool Feasible(const ConstraintSystem& sys, size_t level) const
      EXCLUDES(memo_mu_);
  /// Minimum-L1 integer point of `sys`, memoized on its rows in order:
  /// branch-and-bound breaks ties by row order. A row found joins the
  /// witness pool tagged with `level`.
  std::optional<std::vector<int64_t>> SampleRow(
      const ConstraintSystem& sys, size_t level) const
      EXCLUDES(memo_mu_);
  bool CheckLegal(const Schedule& sched) const;
  /// Finds or inserts `key`'s entry. Returns true when the caller inserted
  /// it and must compute and Publish its value; otherwise waits until the
  /// entry is done and returns false.
  template <typename V>
  bool Claim(FlightMap<V>& memo, std::string key, UniqueMutexLock& lock,
             Flight<V>** entry) const REQUIRES(memo_mu_);
  template <typename V>
  void Publish(Flight<V>* entry, V value) const REQUIRES(memo_mu_);

  const Program& prog_;
  std::vector<CoAccess> deps_;
  SolverOptions opts_;
  std::vector<int64_t> var_bounds_;  // ILP box per schedule-row coefficient
  mutable SolverStats stats_;
  // Every entry is a deterministic function of its key. An LP that hits
  // its pivot budget is stored as infeasible, unless a witness answered
  // the key first.
  mutable Mutex memo_mu_;
  mutable CondVar memo_cv_;  // signalled when an entry becomes done
  mutable FlightMap<bool> lp_memo_ GUARDED_BY(memo_mu_);
  mutable FlightMap<std::optional<std::vector<int64_t>>> ilp_memo_
      GUARDED_BY(memo_mu_);
  mutable FlightMap<bool> legal_memo_ GUARDED_BY(memo_mu_);
  // Witness pool: every distinct sampled row, and in insertion order each
  // with the level that first sampled it. Append-only; set nodes never
  // move, so a row read through `witnesses_` stays valid unlocked.
  mutable std::set<std::vector<int64_t>> witness_rows_ GUARDED_BY(memo_mu_);
  mutable std::vector<std::pair<size_t, const std::vector<int64_t>*>>
      witnesses_ GUARDED_BY(memo_mu_);
};

}  // namespace riot

#endif  // RIOTSHARE_CORE_SCHEDULE_SOLVER_H_
