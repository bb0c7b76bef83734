#include "core/plan_realization.h"

#include <algorithm>

#include "util/logging.h"

namespace riot {

size_t RealizedPlan::Count(AccessFlag flag) const {
  return static_cast<size_t>(
      std::count_if(access_flags.begin(), access_flags.end(),
                    [flag](uint8_t f) { return (f & flag) != 0; }));
}

RealizedPlan RealizePlan(const Program& program, const Schedule& schedule,
                         const std::vector<const CoAccess*>& realized) {
  RealizedPlan rp;
  rp.order = program.ScheduledOrder(schedule);
  const size_t n = rp.order.size();

  // Group instances by time prefix (all but the last, constant dimension).
  rp.group_of.resize(n);
  for (size_t pos = 0; pos < n; ++pos) {
    const TimeVector& t = rp.order[pos].time;
    RIOT_CHECK_GE(t.size(), 1u);
    if (pos == 0 ||
        !std::equal(t.begin(), t.end() - 1, rp.order[pos - 1].time.begin())) {
      ++rp.num_groups;
    }
    rp.group_of[pos] = rp.num_groups - 1;
  }

  // Flat per-access data, and the stream position of every instance:
  // pos_of[stmt_base[s] + index of iter in InstancesOf(s)].
  const auto& stmts = program.statements();
  std::vector<const std::vector<std::vector<int64_t>>*> instances;
  std::vector<const std::vector<int64_t>*> blocks;
  std::vector<size_t> stmt_base(stmts.size() + 1, 0);
  for (size_t s = 0; s < stmts.size(); ++s) {
    instances.push_back(&program.InstancesOf(static_cast<int>(s)));
    blocks.push_back(&program.InstanceBlocks(static_cast<int>(s)));
    stmt_base[s + 1] = stmt_base[s] + instances[s]->size();
  }
  auto index_of = [&](int stmt_id, const std::vector<int64_t>& iter) {
    const auto& all = *instances[static_cast<size_t>(stmt_id)];
    auto it = std::lower_bound(all.begin(), all.end(), iter);
    RIOT_CHECK(it != all.end() && *it == iter)
        << "instance missing from schedule order";
    return static_cast<size_t>(it - all.begin());
  };
  std::vector<size_t> pos_of(stmt_base.back());
  rp.access_begin.resize(n + 1);
  rp.access_begin[0] = 0;
  for (size_t pos = 0; pos < n; ++pos) {
    const ScheduledInstance& inst = rp.order[pos];
    const size_t s = static_cast<size_t>(inst.stmt_id);
    const size_t index = index_of(inst.stmt_id, inst.iter);
    pos_of[stmt_base[s] + index] = pos;
    const size_t na = stmts[s].accesses.size();
    const auto first = blocks[s]->begin() +
                       static_cast<std::ptrdiff_t>(index * na);
    rp.access_block.insert(rp.access_block.end(), first,
                           first + static_cast<std::ptrdiff_t>(na));
    rp.access_begin[pos + 1] = static_cast<uint32_t>(rp.access_block.size());
  }
  rp.access_flags.assign(rp.access_begin[n], 0);
  auto pos_at = [&](int stmt_id, const std::vector<int64_t>& iter) {
    return pos_of[stmt_base[static_cast<size_t>(stmt_id)] +
                  index_of(stmt_id, iter)];
  };
  auto flag = [&](size_t pos, int access_idx) -> uint8_t& {
    return rp.access_flags[rp.access_begin[pos] +
                           static_cast<size_t>(access_idx)];
  };

  // Saved I/Os and retention spans from each realized opportunity.
  for (const CoAccess* o : realized) {
    const bool src_w = o->src_type == AccessType::kWrite;
    const bool dst_w = o->dst_type == AccessType::kWrite;
    for (const auto& pr : o->pairs) {
      const size_t p1 = pos_at(o->src.stmt_id, pr.src_iter);
      if (dst_w && src_w) {
        flag(p1, o->src.access_idx) |= RealizedPlan::kSavedWrite;
        continue;  // W->W: no retention needed
      }
      // W->R or R->R: the target's read is saved; block stays in memory
      // from the source access through the target's group.
      const size_t p2 = pos_at(o->dst.stmt_id, pr.dst_iter);
      flag(p2, o->dst.access_idx) |= RealizedPlan::kSavedRead;
      RIOT_CHECK_LE(p1, p2);
      const int64_t lin =
          rp.access_block[rp.access_begin[p1] +
                          static_cast<size_t>(o->src.access_idx)];
      RIOT_CHECK_GE(lin, 0) << "opportunity source inactive at its pair";
      rp.spans.push_back(
          {p1, rp.group_of[p1], rp.group_of[p2], o->array_id, lin});
    }
  }
  std::sort(rp.spans.begin(), rp.spans.end());
  rp.spans.erase(std::unique(rp.spans.begin(), rp.spans.end(),
                             [](const RetentionSpan& a,
                                const RetentionSpan& b) {
                               return !(a < b) && !(b < a);
                             }),
                 rp.spans.end());

  // Per-block access chains under the NEW execution order, used for write
  // elimination below: flat access indices bucketed by block (a counting
  // sort over block ids block_base[array] + linear index). Within an
  // instance, reads precede the write.
  const auto& arrays = program.arrays();
  std::vector<size_t> block_base(arrays.size() + 1, 0);
  for (size_t a = 0; a < arrays.size(); ++a) {
    block_base[a + 1] =
        block_base[a] + static_cast<size_t>(arrays[a].NumBlocks());
  }
  auto block_id = [&](const Access& a, size_t flat) {
    return block_base[static_cast<size_t>(a.array_id)] +
           static_cast<size_t>(rp.access_block[flat]);
  };
  std::vector<uint32_t> chain_begin(block_base.back() + 1, 0);
  for (size_t pos = 0; pos < n; ++pos) {
    const Statement& st = program.statement(rp.order[pos].stmt_id);
    for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
      const size_t flat = rp.access_begin[pos] + ai;
      if (rp.access_block[flat] >= 0) {
        ++chain_begin[block_id(st.accesses[ai], flat) + 1];
      }
    }
  }
  for (size_t b = 0; b < block_base.back(); ++b) {
    chain_begin[b + 1] += chain_begin[b];
  }
  std::vector<uint32_t> chains(chain_begin.back());
  std::vector<uint32_t> fill(chain_begin.begin(), chain_begin.end() - 1);
  for (size_t pos = 0; pos < n; ++pos) {
    const Statement& st = program.statement(rp.order[pos].stmt_id);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
        const Access& a = st.accesses[ai];
        if ((pass == 0) != (a.type == AccessType::kRead)) continue;
        const size_t flat = rp.access_begin[pos] + ai;
        if (rp.access_block[flat] < 0) continue;
        chains[fill[block_id(a, flat)]++] = static_cast<uint32_t>(flat);
      }
    }
  }
  // The access type of a flat index, from its instance's statement.
  std::vector<uint8_t> is_write(rp.access_begin[n], 0);
  for (size_t pos = 0; pos < n; ++pos) {
    const Statement& st = program.statement(rp.order[pos].stmt_id);
    for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
      is_write[rp.access_begin[pos] + ai] =
          st.accesses[ai].type == AccessType::kWrite;
    }
  }

  for (size_t a = 0; a < arrays.size(); ++a) {
    const bool temporary = !arrays[a].persistent;
    for (size_t b = block_base[a]; b < block_base[a + 1]; ++b) {
      const uint32_t* events = chains.data() + chain_begin[b];
      const size_t count = chain_begin[b + 1] - chain_begin[b];
      for (size_t i = 0; i < count; ++i) {
        if (!is_write[events[i]]) continue;
        // True when every read up to the block's next write is saved.
        bool all_saved = true;
        for (size_t j = i + 1; j < count && !is_write[events[j]]; ++j) {
          if ((rp.access_flags[events[j]] & RealizedPlan::kSavedRead) == 0) {
            all_saved = false;
            break;
          }
        }
        uint8_t& f = rp.access_flags[events[i]];
        // A W->W save is only honored when every read between the two
        // writes is itself served from memory; otherwise a disk read would
        // observe a stale block, so the first write must still be
        // performed. (The paper's best plans always pair W->W with the
        // corresponding W->R, where this check is vacuous; it keeps the
        // executor correct for every plan in the space.)
        if (!all_saved) f &= static_cast<uint8_t>(~RealizedPlan::kSavedWrite);
        // Elided writes of non-persistent temporaries: under the new
        // execution order, a write whose every subsequent read (before the
        // next write of the same block) is served from memory never needs
        // to hit disk.
        if (temporary && all_saved) f |= RealizedPlan::kElidedWrite;
      }
    }
  }
  return rp;
}

}  // namespace riot
