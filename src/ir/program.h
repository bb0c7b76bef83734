// The static-control program representation the optimizer consumes:
// arrays, statements with (rectangular, parametric-in-construction)
// iteration domains, guarded affine block accesses, and an original
// schedule establishing the input execution order.
#ifndef RIOTSHARE_IR_PROGRAM_H_
#define RIOTSHARE_IR_PROGRAM_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ir/access.h"
#include "ir/array.h"
#include "ir/schedule.h"
#include "ir/statement_op.h"
#include "polyhedral/polyhedron.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace riot {

/// \brief One statement of the program.
struct Statement {
  int id = -1;
  std::string name;                 // e.g. "s1"
  std::vector<std::string> iters;   // loop variable names, outer to inner
  Polyhedron domain;                // over the iteration variables
  std::vector<Access> accesses;     // at most one write
  /// Typed semantic spec (what the statement computes over its accesses).
  /// When present the executor synthesizes the kernel from it
  /// (exec/kernel_synthesis.h); statements lowered from expression DAGs
  /// (core/lowering.h) always carry one. Absent for hand-built statements
  /// paired with free-form kernel lambdas (the escape hatch).
  std::optional<StatementOp> op;

  size_t depth() const { return iters.size(); }

  const Access* WriteAccess() const {
    for (const auto& a : accesses) {
      if (a.type == AccessType::kWrite) return &a;
    }
    return nullptr;
  }
};

/// \brief A statement instance scheduled at a concrete time.
struct ScheduledInstance {
  int stmt_id;
  std::vector<int64_t> iter;
  TimeVector time;
};

class Program {
 public:
  int AddArray(ArrayInfo info);
  /// Returns the statement id. The statement's original schedule is derived
  /// from `nest_index` (which sequential loop nest it belongs to) and
  /// `textual_pos` (position inside the nest body).
  int AddStatement(Statement stmt, int nest_index, int textual_pos);

  const std::vector<ArrayInfo>& arrays() const { return arrays_; }
  const std::vector<Statement>& statements() const { return stmts_; }
  const ArrayInfo& array(int id) const {
    return arrays_[static_cast<size_t>(id)];
  }
  const Statement& statement(int id) const {
    return stmts_[static_cast<size_t>(id)];
  }
  const Access& access(const AccessRef& ref) const {
    return stmts_[static_cast<size_t>(ref.stmt_id)]
        .accesses[static_cast<size_t>(ref.access_idx)];
  }

  /// Max statement depth d~ (paper Section 4.2).
  size_t MaxDepth() const;

  /// The original program schedule (rows: nest index, padded loop
  /// variables outer-to-inner, textual constant).
  const Schedule& original_schedule() const { return original_; }

  /// All instances of statement `stmt_id` in ascending lexicographic order
  /// (domain enumeration; cached, as domains are immutable once added).
  /// Thread-safe.
  const std::vector<std::vector<int64_t>>& InstancesOf(int stmt_id) const
      EXCLUDES(cache_.mu);

  /// Linear block index of every access at every instance, row-major
  /// [instance index][access index]; -1 where the access's guard excludes
  /// the instance. Schedule-independent, so it is computed once and cached
  /// like InstancesOf. Thread-safe.
  const std::vector<int64_t>& InstanceBlocks(int stmt_id) const
      EXCLUDES(cache_.mu);

  /// Every statement instance with its time under `sched`, sorted by
  /// (time, stmt_id, iter). A legal schedule never produces duplicate times
  /// for distinct instances; ties would indicate an illegal schedule and are
  /// broken deterministically.
  std::vector<ScheduledInstance> ScheduledOrder(const Schedule& sched) const;

  /// Validates structural invariants (one write per statement, access
  /// dimensions match arrays, guards within domains).
  Status Validate() const;

  std::string ToString() const;

  /// Human-readable label like "s1.W.C" for an access.
  std::string AccessLabel(const AccessRef& ref) const;

 private:
  void FinalizeOriginalSchedule();

  std::vector<ArrayInfo> arrays_;
  std::vector<Statement> stmts_;
  std::vector<std::pair<int, int>> positions_;  // (nest_index, textual_pos)
  Schedule original_;
  // The lazily filled caches below are shared by every thread that plans
  // or runs this program; the first use fills them under the lock. A
  // copied Program gets a fresh mutex.
  struct CacheMutex {
    CacheMutex() = default;
    CacheMutex(const CacheMutex&) {}
    CacheMutex& operator=(const CacheMutex&) { return *this; }
    Mutex mu;
  };
  mutable CacheMutex cache_;
  mutable std::vector<std::optional<std::vector<std::vector<int64_t>>>>
      instance_cache_ GUARDED_BY(cache_.mu);
  mutable std::vector<std::optional<std::vector<int64_t>>> block_cache_
      GUARDED_BY(cache_.mu);
};

}  // namespace riot

#endif  // RIOTSHARE_IR_PROGRAM_H_
