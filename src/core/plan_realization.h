// Plan realization: the static interpretation of "schedule + realized
// sharing set" shared by the cost model and the execution engine.
//
// Given a schedule and the subset Q of sharing opportunities the plan
// exploits (paper Section 5.5: code generation must exploit exactly Q, not
// whatever the schedule accidentally enables), this module derives:
//   * the scheduled instance stream, grouped by time prefix (all but the
//     final constant dimension),
//   * which read I/Os are saved (served from a retained in-memory block),
//   * which write I/Os are saved (W->W overwrites) or elided entirely
//     (writes of non-persistent temporaries whose every subsequent read is
//     served from memory — paper footnote 8), and
//   * block retention spans (how long each shared block must stay pinned).
#ifndef RIOTSHARE_CORE_PLAN_REALIZATION_H_
#define RIOTSHARE_CORE_PLAN_REALIZATION_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "analysis/coaccess.h"
#include "ir/program.h"
#include "ir/schedule.h"

namespace riot {

/// \brief A block that must stay in memory from the source access (at
/// stream position begin_pos) until every group <= end_group completes.
struct RetentionSpan {
  size_t begin_pos;   // position in the scheduled instance stream
  size_t begin_group;
  size_t end_group;  // inclusive
  int array_id;
  int64_t block;  // linear block index

  bool operator<(const RetentionSpan& o) const {
    return std::tie(begin_pos, begin_group, end_group, array_id, block) <
           std::tie(o.begin_pos, o.begin_group, o.end_group, o.array_id,
                    o.block);
  }
};

/// Accesses are addressed by stream position: access `access_idx` of the
/// instance at `pos` has the flat index access_begin[pos] + access_idx, and
/// every per-access fact below is a flat vector over that index.
struct RealizedPlan {
  enum AccessFlag : uint8_t {
    kSavedRead = 1,    // served from a retained in-memory block
    kSavedWrite = 2,   // W->W overwrite elimination
    kElidedWrite = 4,  // dead temporary materialization
  };

  std::vector<ScheduledInstance> order;  // scheduled execution order
  std::vector<size_t> group_of;          // per position in `order`
  size_t num_groups = 0;
  /// order.size() + 1 prefix offsets: position pos owns flat accesses
  /// [access_begin[pos], access_begin[pos + 1]), one per statement access.
  std::vector<uint32_t> access_begin;
  /// Per flat access: linear block index, or -1 when the access's guard
  /// excludes this instance.
  std::vector<int64_t> access_block;
  /// Per flat access: AccessFlag bits.
  std::vector<uint8_t> access_flags;
  std::vector<RetentionSpan> spans;

  bool Has(size_t pos, int access_idx, AccessFlag flag) const {
    return (access_flags[access_begin[pos] + static_cast<size_t>(access_idx)] &
            flag) != 0;
  }
  /// Number of accesses carrying `flag`.
  size_t Count(AccessFlag flag) const;
};

/// \brief Computes the realization of a plan.
RealizedPlan RealizePlan(const Program& program, const Schedule& schedule,
                         const std::vector<const CoAccess*>& realized);

}  // namespace riot

#endif  // RIOTSHARE_CORE_PLAN_REALIZATION_H_
