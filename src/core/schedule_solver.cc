#include "core/schedule_solver.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "ilp/ilp.h"
#include "ilp/simplex.h"
#include "util/logging.h"

namespace riot {

namespace {

// Variable layout of one schedule row across all statements:
// statement s owns [offset[s], offset[s] + depth(s)] — iteration coefficients
// followed by one constant term.
struct Layout {
  std::vector<size_t> offset;
  std::vector<size_t> depth;
  size_t dim = 0;
};

Layout MakeLayout(const Program& prog) {
  Layout l;
  for (const auto& s : prog.statements()) {
    l.offset.push_back(l.dim);
    l.depth.push_back(s.depth());
    l.dim += s.depth() + 1;
  }
  return l;
}

// Linear form (over one row's joint coefficient vector) whose value equals
// theta_dst(y) - theta_src(x).
RVector PairForm(const Layout& l, int src_stmt,
                 const std::vector<int64_t>& x, int dst_stmt,
                 const std::vector<int64_t>& y) {
  RVector f(l.dim);
  const size_t od = l.offset[static_cast<size_t>(dst_stmt)];
  for (size_t j = 0; j < y.size(); ++j) f[od + j] += Rational(y[j]);
  f[od + y.size()] += Rational(1);
  const size_t os = l.offset[static_cast<size_t>(src_stmt)];
  for (size_t j = 0; j < x.size(); ++j) f[os + j] -= Rational(x[j]);
  f[os + x.size()] -= Rational(1);
  return f;
}

std::string ConstraintKey(const LpConstraint& c) {
  std::ostringstream os;
  os << static_cast<int>(c.op) << "|" << c.rhs.ToString();
  for (size_t i = 0; i < c.coeffs.size(); ++i) {
    if (!c.coeffs[i].IsZero()) os << "|" << i << ":" << c.coeffs[i].ToString();
  }
  return os.str();
}

// A constraint row with integer coefficients, for checking witnesses
// without Rational arithmetic. `exact` is false when some coefficient is
// not an int64_t integer; such a row is never witnessed (the LP decides).
struct IntRow {
  std::vector<std::pair<uint32_t, int64_t>> terms;  // nonzero coefficients
  int64_t rhs = 0;
  CmpOp op = CmpOp::kEq;
  bool exact = true;
};

IntRow ToIntRow(const LpConstraint& c) {
  auto fits = [](const Rational& v) {
    return v.IsInteger() && v.num() >= std::numeric_limits<int64_t>::min() &&
           v.num() <= std::numeric_limits<int64_t>::max();
  };
  IntRow r;
  r.op = c.op;
  r.exact = fits(c.rhs);
  if (r.exact) r.rhs = c.rhs.ToInt64();
  for (size_t i = 0; i < c.coeffs.size() && r.exact; ++i) {
    const Rational& v = c.coeffs[i];
    if (v.IsZero()) continue;
    r.exact = fits(v);
    if (r.exact) r.terms.emplace_back(static_cast<uint32_t>(i), v.ToInt64());
  }
  return r;
}

bool Satisfies(const IntRow& r, const std::vector<int64_t>& x) {
  __int128 lhs = 0;
  for (const auto& [i, v] : r.terms) lhs += static_cast<__int128>(v) * x[i];
  switch (r.op) {
    case CmpOp::kLe:
      return lhs <= r.rhs;
    case CmpOp::kGe:
      return lhs >= r.rhs;
    case CmpOp::kEq:
      return lhs == r.rhs;
  }
  return false;
}

}  // namespace

// Constraint rows with each row's ConstraintKey and integer form kept
// alongside, so memo keys are built without re-stringifying Rationals and
// witnesses are checked without Rational arithmetic.
struct ConstraintSystem {
  std::vector<LpConstraint> cons;
  std::vector<std::string> keys;
  std::vector<IntRow> ints;

  void Push(LpConstraint c, std::string key) {
    ints.push_back(ToIntRow(c));
    cons.push_back(std::move(c));
    keys.push_back(std::move(key));
  }
  void Push(LpConstraint c) {
    std::string key = ConstraintKey(c);
    Push(std::move(c), std::move(key));
  }
  void Pop() {
    cons.pop_back();
    keys.pop_back();
    ints.pop_back();
  }
  /// True when every row is exact and `x` satisfies it.
  bool SatisfiedBy(const std::vector<int64_t>& x) const {
    return std::all_of(ints.begin(), ints.end(), [&](const IntRow& r) {
      return r.exact && Satisfies(r, x);
    });
  }
};

namespace {

// Constraint pool with deduplication (many instance pairs induce the same
// linear constraint on schedule coefficients).
class Pool {
 public:
  void Add(LpConstraint c) {
    std::string key = ConstraintKey(c);
    if (seen_.insert(key).second) sys_.Push(std::move(c), std::move(key));
  }
  const ConstraintSystem& system() const { return sys_; }
  size_t size() const { return sys_.cons.size(); }
  void TruncateTo(size_t n) {
    while (size() > n) {
      seen_.erase(sys_.keys.back());
      sys_.Pop();
    }
  }

 private:
  ConstraintSystem sys_;
  std::set<std::string> seen_;
};

}  // namespace

ScheduleSolver::ScheduleSolver(const Program& program,
                               std::vector<CoAccess> dependences,
                               SolverOptions options)
    : prog_(program), deps_(std::move(dependences)), opts_(options) {
  // Constants may legitimately be as large as the sum of all loop trip
  // counts (sequential composition of nests in one time dim).
  int64_t const_bound = 2;
  for (const auto& st : prog_.statements()) {
    for (size_t dd = 0; dd < st.depth(); ++dd) {
      auto bb = st.domain.IntegerVarBounds(dd);
      if (bb) const_bound += (bb->second - bb->first + 1);
    }
  }
  const Layout layout = MakeLayout(prog_);
  var_bounds_.assign(layout.dim, opts_.coeff_bound);
  for (size_t i = 0; i < layout.offset.size(); ++i) {
    var_bounds_[layout.offset[i] + layout.depth[i]] = const_bound;
  }
}

template <typename V>
bool ScheduleSolver::Claim(FlightMap<V>& memo, std::string key,
                           UniqueMutexLock& lock, Flight<V>** entry) const {
  auto [it, inserted] = memo.try_emplace(std::move(key));
  *entry = &it->second;  // entries never move; iterators may
  if (inserted) return true;
  while (!(*entry)->done) memo_cv_.Wait(lock);
  return false;
}

template <typename V>
void ScheduleSolver::Publish(Flight<V>* entry, V value) const {
  entry->value = std::move(value);
  entry->done = true;
  memo_cv_.NotifyAll();
}

bool ScheduleSolver::Feasible(const ConstraintSystem& sys,
                              size_t level) const {
  ++stats_.lp_calls;
  std::vector<const std::string*> sorted;
  sorted.reserve(sys.keys.size());
  for (const std::string& k : sys.keys) sorted.push_back(&k);
  std::sort(sorted.begin(), sorted.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const std::string* a, const std::string* b) {
                             return *a == *b;
                           }),
               sorted.end());
  std::string key;  // '\n' never occurs inside a row key
  for (const std::string* k : sorted) key.append(*k) += '\n';
  Flight<bool>* entry = nullptr;
  std::vector<const std::vector<int64_t>*> witnesses;
  {
    UniqueMutexLock lock(&memo_mu_);
    if (!Claim(lp_memo_, std::move(key), lock, &entry)) {
      ++stats_.lp_memo_hits;
      return entry->value;
    }
    for (const auto& [row_level, row] : witnesses_) {
      if (row_level < level) witnesses.push_back(row);
    }
  }
  bool feasible = false;
  if (std::any_of(witnesses.rbegin(), witnesses.rend(),
                  [&](const std::vector<int64_t>* row) {
                    return sys.SatisfiedBy(*row);
                  })) {
    ++stats_.lp_witness_hits;
    feasible = true;
  } else {
    auto lp = SolveLp(var_bounds_.size(), sys.cons,
                      RVector(var_bounds_.size()));
    if (!lp.ok()) {
      // Pivot budget exhausted: treat the candidate row as infeasible —
      // the solver simply fails to find a schedule for this combination
      // rather than hanging or aborting the whole optimization.
      RIOT_LOG(Warning) << "schedule LP gave up: " << lp.status().ToString();
    } else {
      stats_.lp_pivots += lp->pivots;
      feasible = lp->status == LpStatus::kOptimal;
    }
  }
  MutexLock lock(&memo_mu_);
  Publish(entry, feasible);
  return feasible;
}

std::optional<std::vector<int64_t>> ScheduleSolver::SampleRow(
    const ConstraintSystem& sys, size_t level) const {
  ++stats_.ilp_calls;
  std::string key;
  for (const std::string& k : sys.keys) key.append(k) += '\n';
  Flight<std::optional<std::vector<int64_t>>>* entry = nullptr;
  {
    UniqueMutexLock lock(&memo_mu_);
    if (!Claim(ilp_memo_, std::move(key), lock, &entry)) {
      ++stats_.ilp_memo_hits;
      return entry->value;
    }
  }
  IlpOptions io;
  io.var_bound = opts_.coeff_bound;
  io.var_bounds = var_bounds_;
  int64_t pivots = 0;
  auto row = FindIntegerPoint(var_bounds_.size(), sys.cons,
                              /*minimize_l1=*/true, io, &pivots);
  stats_.lp_pivots += pivots;
  MutexLock lock(&memo_mu_);
  if (row) {
    auto [it, inserted] = witness_rows_.insert(*row);
    if (inserted) witnesses_.emplace_back(level, &*it);
  }
  Publish(entry, row);
  return row;
}

std::optional<Schedule> ScheduleSolver::FindSchedule(
    const std::vector<const CoAccess*>& q) const {
  const Layout layout = MakeLayout(prog_);
  const size_t dmax = prog_.MaxDepth();
  const size_t n = prog_.statements().size();

  std::vector<std::vector<std::vector<int64_t>>> rows(n);  // sampled, per stmt
  std::vector<size_t> ki(n, 0);  // independent rows so far
  std::vector<bool> dep_satisfied(deps_.size(), false);
  auto feasible = [&](const ConstraintSystem& sys) {
    return Feasible(sys, q.size());
  };

  for (size_t d = 1; d <= dmax; ++d) {
    Pool pool;
    // Weakly satisfy remaining dependence constraints (Alg. 3 lines 11-12).
    for (size_t di = 0; di < deps_.size(); ++di) {
      if (dep_satisfied[di]) continue;
      for (const auto& pr : deps_[di].generators) {
        pool.Add({PairForm(layout, deps_[di].src.stmt_id, pr.src_iter,
                           deps_[di].dst.stmt_id, pr.dst_iter),
                  CmpOp::kGe, Rational(0)});
      }
    }
    // Sharing opportunity constraints (Table 1; Alg. 3 lines 13-26).
    for (const CoAccess* o : q) {
      const bool self = o->IsSelf();
      if (!self || d < dmax) {
        for (const auto& pr : o->generators) {
          pool.Add({PairForm(layout, o->src.stmt_id, pr.src_iter,
                             o->dst.stmt_id, pr.dst_iter),
                    CmpOp::kEq, Rational(0)});
        }
        continue;
      }
      // Self opportunity at the deepest non-constant dimension.
      const bool write_src = o->src_type == AccessType::kWrite ||
                             o->dst_type == AccessType::kWrite;
      if (write_src) {
        for (const auto& pr : o->generators) {
          pool.Add({PairForm(layout, o->src.stmt_id, pr.src_iter,
                             o->dst.stmt_id, pr.dst_iter),
                    CmpOp::kEq, Rational(1)});
        }
      } else {
        // Self R->R: a uniform c in {+1, -1} (new schedule may reverse the
        // two reads). Greedily try +1 then -1.
        bool placed = false;
        for (int sign : {+1, -1}) {
          size_t mark = pool.size();
          for (const auto& pr : o->generators) {
            pool.Add({PairForm(layout, o->src.stmt_id, pr.src_iter,
                               o->dst.stmt_id, pr.dst_iter),
                      CmpOp::kEq, Rational(sign)});
          }
          if (feasible(pool.system())) {
            placed = true;
            break;
          }
          pool.TruncateTo(mark);
        }
        if (!placed) return std::nullopt;
      }
    }
    if (!feasible(pool.system())) return std::nullopt;

    // Dimensionality constraints (Alg. 3 lines 28-38, EnumRow = Alg. 1).
    std::vector<std::vector<size_t>> nonzero_groups;
    for (size_t i = 0; i < n; ++i) {
      const size_t ds = layout.depth[i];
      std::vector<int> l_options;
      if (dmax - (d - 1) == ds - ki[i]) {
        l_options = {1};  // forced independent to reach full rank
      } else if (ki[i] == ds) {
        l_options = {0};  // rank complete; only dependent rows remain
      } else {
        l_options = {0, 1};
      }
      // Previous rows of this statement, iteration-coefficient part only.
      RMatrix prev(0, ds);
      for (const auto& row : rows[i]) {
        RVector v(ds);
        for (size_t j = 0; j < ds; ++j) {
          v[j] = Rational(row[layout.offset[i] + j]);
        }
        prev.AppendRow(v);
      }
      bool locked = false;
      for (int l : l_options) {
        size_t mark = pool.size();
        if (l == 0) {
          // Row must lie in the span of previous rows: orthogonal to every
          // null-space basis vector of prev.
          for (const auto& b : prev.NullSpaceBasis()) {
            RVector c(layout.dim);
            for (size_t j = 0; j < ds; ++j) c[layout.offset[i] + j] = b[j];
            pool.Add({std::move(c), CmpOp::kEq, Rational(0)});
          }
        } else {
          // Row must lie in the null space of previous rows (guarantees
          // linear independence for a nonzero row).
          for (size_t r = 0; r < prev.rows(); ++r) {
            RVector c(layout.dim);
            for (size_t j = 0; j < ds; ++j) {
              c[layout.offset[i] + j] = prev.At(r, j);
            }
            pool.Add({std::move(c), CmpOp::kEq, Rational(0)});
          }
        }
        bool ok = feasible(pool.system());
        if (ok && l == 1) {
          // Additionally require that a nonzero iteration part exists.
          ok = false;
          ConstraintSystem cs = pool.system();
          for (size_t j = 0; j < ds && !ok; ++j) {
            for (int sign : {+1, -1}) {
              RVector c(layout.dim);
              c[layout.offset[i] + j] = Rational(1);
              cs.Push({std::move(c), sign > 0 ? CmpOp::kGe : CmpOp::kLe,
                       Rational(sign)});
              ok = feasible(cs);
              cs.Pop();
              if (ok) break;
            }
          }
        }
        if (ok) {
          ki[i] += static_cast<size_t>(l);
          if (l == 1) {
            std::vector<size_t> group;
            for (size_t j = 0; j < ds; ++j) {
              group.push_back(layout.offset[i] + j);
            }
            nonzero_groups.push_back(std::move(group));
          }
          locked = true;
          break;
        }
        pool.TruncateTo(mark);
      }
      if (!locked) return std::nullopt;
    }

    // Strongly satisfy remaining dependences where possible (lines 39-43).
    for (size_t di = 0; di < deps_.size(); ++di) {
      if (dep_satisfied[di]) continue;
      size_t mark = pool.size();
      for (const auto& pr : deps_[di].generators) {
        pool.Add({PairForm(layout, deps_[di].src.stmt_id, pr.src_iter,
                           deps_[di].dst.stmt_id, pr.dst_iter),
                  CmpOp::kGe, Rational(1)});
      }
      if (feasible(pool.system())) {
        dep_satisfied[di] = true;
      } else {
        pool.TruncateTo(mark);
      }
    }

    // Sample an integer row (line 44), honoring nonzero groups via DFS.
    std::function<std::optional<std::vector<int64_t>>(ConstraintSystem&,
                                                      size_t)>
        sample = [&](ConstraintSystem& cs,
                     size_t gi) -> std::optional<std::vector<int64_t>> {
      if (gi == nonzero_groups.size()) return SampleRow(cs, q.size());
      for (size_t v : nonzero_groups[gi]) {
        for (int sign : {+1, -1}) {
          RVector c(layout.dim);
          c[v] = Rational(1);
          cs.Push({std::move(c), sign > 0 ? CmpOp::kGe : CmpOp::kLe,
                   Rational(sign)});
          if (feasible(cs)) {
            auto r = sample(cs, gi + 1);
            if (r) return r;
          }
          cs.Pop();
        }
      }
      return std::nullopt;
    };
    ConstraintSystem cs = pool.system();
    auto row = sample(cs, 0);
    if (!row) return std::nullopt;
    for (size_t i = 0; i < n; ++i) rows[i].push_back(*row);
  }

  // Last (constant) schedule dimension: topological assignment (Section 5.2
  // final remark). Build precedence edges among statements.
  std::vector<std::vector<int64_t>> consts_needed;  // edges (src, dst)
  std::set<std::pair<int, int>> edges;
  auto row_value = [&](size_t stmt, size_t depth_idx,
                       const std::vector<int64_t>& iter) {
    const auto& row = rows[stmt][depth_idx];
    int64_t acc = row[layout.offset[stmt] + layout.depth[stmt]];
    for (size_t j = 0; j < iter.size(); ++j) {
      acc += row[layout.offset[stmt] + j] * iter[j];
    }
    return acc;
  };
  for (size_t di = 0; di < deps_.size(); ++di) {
    for (const auto& pr : deps_[di].pairs) {
      bool strict = false;
      bool illegal = false;
      for (size_t d = 0; d < dmax; ++d) {
        int64_t vs = row_value(static_cast<size_t>(deps_[di].src.stmt_id), d,
                               pr.src_iter);
        int64_t vd = row_value(static_cast<size_t>(deps_[di].dst.stmt_id), d,
                               pr.dst_iter);
        if (vd > vs) {
          strict = true;
          break;
        }
        if (vd < vs) {
          illegal = true;
          break;
        }
      }
      if (illegal) return std::nullopt;
      if (!strict) {
        if (deps_[di].src.stmt_id == deps_[di].dst.stmt_id) {
          return std::nullopt;  // self dependence unresolvable by constants
        }
        edges.insert({deps_[di].src.stmt_id, deps_[di].dst.stmt_id});
      }
    }
  }
  for (const CoAccess* o : q) {
    if (o->IsSelf()) continue;
    // W->R / W->W require c > 0; R->R only c != 0 but a forward edge is
    // always acceptable when acyclic (distinct constants give c != 0).
    edges.insert({o->src.stmt_id, o->dst.stmt_id});
  }
  // Kahn's algorithm; all constants distinct to guarantee injectivity across
  // statements and nonzero separation for non-self R->R opportunities.
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<int>> adj(n);
  for (auto [a, b] : edges) {
    adj[static_cast<size_t>(a)].push_back(b);
    ++indeg[static_cast<size_t>(b)];
  }
  std::vector<int> order;
  std::vector<int> ready;
  for (size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<int>(i));
  }
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), std::greater<int>());
    int u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (int v : adj[static_cast<size_t>(u)]) {
      if (--indeg[static_cast<size_t>(v)] == 0) ready.push_back(v);
    }
  }
  if (order.size() != n) return std::nullopt;  // cycle
  std::vector<int64_t> constants(n, 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    constants[static_cast<size_t>(order[pos])] = static_cast<int64_t>(pos);
  }

  // Assemble the schedule: dmax sampled rows + the constant row.
  std::vector<RMatrix> mats;
  for (size_t i = 0; i < n; ++i) {
    const size_t ds = layout.depth[i];
    RMatrix m(dmax + 1, ds + 1);
    for (size_t d = 0; d < dmax; ++d) {
      for (size_t j = 0; j <= ds; ++j) {
        m.At(d, j) = Rational(rows[i][d][layout.offset[i] + j]);
      }
    }
    m.At(dmax, ds) = Rational(constants[i]);
    mats.push_back(std::move(m));
  }
  Schedule sched(std::move(mats));

  // Final exact verification: legality + realization of every opportunity.
  if (!IsLegal(sched)) return std::nullopt;
  for (const CoAccess* o : q) {
    if (!Realizes(sched, *o)) return std::nullopt;
  }
  return sched;
}

bool ScheduleSolver::IsLegal(const Schedule& sched) const {
  Flight<bool>* entry = nullptr;
  {
    UniqueMutexLock lock(&memo_mu_);
    if (!Claim(legal_memo_, sched.ToString(), lock, &entry)) {
      return entry->value;
    }
  }
  const bool legal = CheckLegal(sched);
  MutexLock lock(&memo_mu_);
  Publish(entry, legal);
  return legal;
}

bool ScheduleSolver::CheckLegal(const Schedule& sched) const {
  // Dependence order.
  for (const auto& dep : deps_) {
    for (const auto& pr : dep.pairs) {
      TimeVector ts = sched.TimeOf(dep.src.stmt_id, pr.src_iter);
      TimeVector td = sched.TimeOf(dep.dst.stmt_id, pr.dst_iter);
      if (CompareTime(ts, td) >= 0) return false;
    }
  }
  // Injectivity.
  auto order = prog_.ScheduledOrder(sched);
  for (size_t i = 1; i < order.size(); ++i) {
    if (CompareTime(order[i - 1].time, order[i].time) == 0) return false;
  }
  return true;
}

bool ScheduleSolver::Realizes(const Schedule& sched,
                              const CoAccess& opp) const {
  if (opp.pairs.empty()) return false;
  const size_t rows = sched.depth();
  RIOT_CHECK_GE(rows, 2u);
  int uniform_sign = 0;
  for (const auto& pr : opp.pairs) {
    TimeVector ts = sched.TimeOf(opp.src.stmt_id, pr.src_iter);
    TimeVector td = sched.TimeOf(opp.dst.stmt_id, pr.dst_iter);
    std::vector<int64_t> diff(rows);
    for (size_t r = 0; r < rows; ++r) diff[r] = td[r] - ts[r];
    if (!opp.IsSelf()) {
      // (0, ..., 0, 0, c) with c > 0 (W->*) or c != 0 (R->R).
      for (size_t r = 0; r + 1 < rows; ++r) {
        if (diff[r] != 0) return false;
      }
      int64_t c = diff[rows - 1];
      const bool has_write = opp.src_type == AccessType::kWrite ||
                             opp.dst_type == AccessType::kWrite;
      if (has_write ? c <= 0 : c == 0) return false;
    } else {
      // (0, ..., 0, s, 0) with s = 1 (W->*) or uniform s in {+1,-1} (R->R).
      for (size_t r = 0; r + 2 < rows; ++r) {
        if (diff[r] != 0) return false;
      }
      if (diff[rows - 1] != 0) return false;
      int64_t s = diff[rows - 2];
      const bool has_write = opp.src_type == AccessType::kWrite ||
                             opp.dst_type == AccessType::kWrite;
      if (has_write) {
        if (s != 1) return false;
      } else {
        if (s != 1 && s != -1) return false;
        if (uniform_sign == 0) {
          uniform_sign = static_cast<int>(s);
        } else if (uniform_sign != static_cast<int>(s)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace riot
