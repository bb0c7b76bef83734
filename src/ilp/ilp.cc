#include "ilp/ilp.h"

#include <deque>

#include "util/logging.h"

namespace riot {

namespace {

struct Node {
  std::vector<LpConstraint> extra;  // branching bounds
};

bool IsIntegral(const RVector& x) {
  for (size_t i = 0; i < x.size(); ++i) {
    if (!x[i].IsInteger()) return false;
  }
  return true;
}

}  // namespace

IlpResult SolveIlp(size_t num_vars, const std::vector<LpConstraint>& cons,
                   const RVector& objective, const IlpOptions& options) {
  IlpResult best;
  std::vector<LpConstraint> base = cons;
  // Box bounds for termination.
  for (size_t v = 0; v < num_vars; ++v) {
    const int64_t bound = v < options.var_bounds.size()
                              ? options.var_bounds[v]
                              : options.var_bound;
    RVector c(num_vars);
    c[v] = Rational(1);
    base.push_back({c, CmpOp::kLe, Rational(bound)});
    base.push_back({c, CmpOp::kGe, Rational(-bound)});
  }

  std::deque<Node> stack;
  stack.push_back({});
  int64_t nodes = 0;
  while (!stack.empty()) {
    if (++nodes > options.max_nodes) {
      RIOT_LOG(Warning) << "ILP node limit reached (" << options.max_nodes
                        << "); returning best-so-far";
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    std::vector<LpConstraint> sys = base;
    sys.insert(sys.end(), node.extra.begin(), node.extra.end());
    auto relax_or = SolveLp(num_vars, sys, objective);
    if (!relax_or.ok()) {
      // Pivot budget exhausted: stop exploring and return best-so-far,
      // exactly like the node limit above — never abort the process.
      RIOT_LOG(Warning) << "ILP relaxation gave up: "
                        << relax_or.status().ToString()
                        << "; returning best-so-far";
      break;
    }
    const LpSolution& relax = *relax_or;
    best.lp_pivots += relax.pivots;
    if (relax.status != LpStatus::kOptimal) continue;  // infeasible subtree
    if (best.feasible && relax.objective <= best.objective) continue;  // bound
    if (IsIntegral(relax.x)) {
      best.feasible = true;
      best.objective = relax.objective;
      best.x.assign(num_vars, 0);
      for (size_t v = 0; v < num_vars; ++v) best.x[v] = relax.x[v].ToInt64();
      continue;
    }
    // Branch on the first fractional variable.
    size_t fv = num_vars;
    for (size_t v = 0; v < num_vars; ++v) {
      if (!relax.x[v].IsInteger()) {
        fv = v;
        break;
      }
    }
    RIOT_DCHECK(fv < num_vars);
    int64_t fl = relax.x[fv].Floor();
    RVector c(num_vars);
    c[fv] = Rational(1);
    Node down = node;
    down.extra.push_back({c, CmpOp::kLe, Rational(fl)});
    Node up = node;
    up.extra.push_back({c, CmpOp::kGe, Rational(fl + 1)});
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }
  return best;
}

std::optional<std::vector<int64_t>> FindIntegerPoint(
    size_t num_vars, const std::vector<LpConstraint>& cons, bool minimize_l1,
    const IlpOptions& options, int64_t* lp_pivots) {
  if (!minimize_l1) {
    RVector zero(num_vars);
    IlpResult r = SolveIlp(num_vars, cons, zero, options);
    if (lp_pivots != nullptr) *lp_pivots += r.lp_pivots;
    if (!r.feasible) return std::nullopt;
    return r.x;
  }
  // Minimize sum t_i with t_i >= x_i, t_i >= -x_i: extend the variable space
  // with |x| proxies and maximize -(sum t_i).
  size_t total = 2 * num_vars;
  std::vector<LpConstraint> sys;
  sys.reserve(cons.size() + 2 * num_vars);
  for (const auto& c : cons) {
    LpConstraint ext = c;
    RVector coeffs(total);
    for (size_t v = 0; v < num_vars; ++v) coeffs[v] = c.coeffs[v];
    ext.coeffs = std::move(coeffs);
    sys.push_back(std::move(ext));
  }
  for (size_t v = 0; v < num_vars; ++v) {
    RVector c1(total), c2(total);
    c1[num_vars + v] = Rational(1);
    c1[v] = Rational(-1);
    sys.push_back({c1, CmpOp::kGe, Rational(0)});  // t >= x
    c2[num_vars + v] = Rational(1);
    c2[v] = Rational(1);
    sys.push_back({c2, CmpOp::kGe, Rational(0)});  // t >= -x
  }
  RVector obj(total);
  for (size_t v = 0; v < num_vars; ++v) obj[num_vars + v] = Rational(-1);
  IlpOptions ext = options;
  if (!ext.var_bounds.empty()) {
    // Mirror each variable's bound onto its |x| proxy.
    ext.var_bounds.resize(total);
    for (size_t v = 0; v < num_vars; ++v) {
      ext.var_bounds[num_vars + v] =
          v < options.var_bounds.size() ? options.var_bounds[v]
                                        : options.var_bound;
    }
  }
  IlpResult r = SolveIlp(total, sys, obj, ext);
  if (lp_pivots != nullptr) *lp_pivots += r.lp_pivots;
  if (!r.feasible) return std::nullopt;
  r.x.resize(num_vars);
  return r.x;
}

}  // namespace riot
