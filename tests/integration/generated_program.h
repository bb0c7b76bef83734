// Random static-control program generator shared by the integration
// fuzzers (random_program_test) and the plan-identity golden test
// (plan_golden_test). Every program built from one seed is the same, so
// tests can pin results per seed.
#ifndef RIOTSHARE_TESTS_INTEGRATION_GENERATED_PROGRAM_H_
#define RIOTSHARE_TESTS_INTEGRATION_GENERATED_PROGRAM_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "ir/builder.h"
#include "ir/program.h"
#include "kernels/dense.h"

namespace riot {

struct GeneratedProgram {
  Program program;
  std::vector<StatementKernel> kernels;
  std::vector<int> inputs;
  std::vector<int> outputs;
};

// All arrays share a 3x3 block grid of 4x4 blocks; all loop variables range
// over 0..2, so any (variable | constant) affine access is in bounds.
inline GeneratedProgram Generate(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  GeneratedProgram g;
  const int narrays = pick(3, 5);
  for (int i = 0; i < narrays; ++i) {
    ArrayInfo a;
    a.name = std::string(1, static_cast<char>('A' + i));
    a.grid = {3, 3};
    a.block_elems = {4, 4};
    g.program.AddArray(a);
  }
  const int nstmts = pick(2, 3);
  struct StmtPlan {
    std::vector<int> read_views;  // access indices of plain reads
    int acc_view = -1;            // guarded self-read (accumulation)
    int write_view = -1;
    std::vector<int64_t> coefs;
  };
  std::vector<StmtPlan> plans;
  std::vector<bool> written(static_cast<size_t>(narrays), false);
  for (int s = 0; s < nstmts; ++s) {
    Statement st;
    st.name = "s" + std::to_string(s + 1);
    const int depth = pick(2, 3);
    for (int d = 0; d < depth; ++d) {
      st.iters.push_back(std::string(1, static_cast<char>('i' + d)));
    }
    std::vector<std::pair<int64_t, int64_t>> bounds(
        static_cast<size_t>(depth), {0, 2});
    st.domain = RectDomain(bounds, st.iters);
    // Random affine row: a loop variable or a constant.
    auto rand_row = [&]() {
      std::vector<int64_t> row(static_cast<size_t>(depth) + 1, 0);
      if (pick(0, 2) > 0) {
        row[static_cast<size_t>(pick(0, depth - 1))] = 1;
      } else {
        row[static_cast<size_t>(depth)] = pick(0, 2);
      }
      return row;
    };
    StmtPlan sp;
    const int nreads = pick(1, 2);
    for (int rd = 0; rd < nreads; ++rd) {
      int arr = pick(0, narrays - 1);
      st.accesses.push_back(Read(arr, {rand_row(), rand_row()}));
      sp.read_views.push_back(static_cast<int>(st.accesses.size()) - 1);
      sp.coefs.push_back(pick(1, 3));
    }
    // Write target: prefer an array not yet written (keeps programs from
    // overwriting their own inputs in confusing ways, though that would be
    // legal too).
    int warr = pick(0, narrays - 1);
    for (int tries = 0; tries < narrays && written[size_t(warr)]; ++tries) {
      warr = (warr + 1) % narrays;
    }
    written[static_cast<size_t>(warr)] = true;
    std::vector<int64_t> wrow1 = rand_row(), wrow2 = rand_row();
    // Optional accumulation: a guarded read of the same block.
    const bool accumulate = pick(0, 1) == 1;
    if (accumulate) {
      Access acc = Read(warr, {wrow1, wrow2});
      acc.guard = GuardGe(st.domain, static_cast<size_t>(depth) - 1, 1);
      st.accesses.push_back(std::move(acc));
      sp.acc_view = static_cast<int>(st.accesses.size()) - 1;
    }
    st.accesses.push_back(Write(warr, {wrow1, wrow2}));
    sp.write_view = static_cast<int>(st.accesses.size()) - 1;
    g.program.AddStatement(std::move(st), /*nest=*/s, /*textual=*/0);
    plans.push_back(sp);

    StmtPlan captured = plans.back();
    g.kernels.push_back([captured](const std::vector<int64_t>& iter,
                                   const std::vector<DenseView*>& v) {
      DenseView* out = v[static_cast<size_t>(captured.write_view)];
      const int64_t n = out->elems();
      const bool acc_active =
          captured.acc_view >= 0 &&
          v[static_cast<size_t>(captured.acc_view)] != nullptr;
      for (int64_t e = 0; e < n; ++e) {
        double val = acc_active ? out->data[e] : 0.0;
        val += 1.0 + static_cast<double>(iter.back() % 3);
        for (size_t r = 0; r < captured.read_views.size(); ++r) {
          val += v[static_cast<size_t>(captured.read_views[r])]->data[e] *
                 static_cast<double>(captured.coefs[r]);
        }
        out->data[e] = val;
      }
    });
  }
  for (int a = 0; a < narrays; ++a) {
    g.inputs.push_back(a);  // initialize everything (arrays may be R+W)
    if (written[static_cast<size_t>(a)]) g.outputs.push_back(a);
  }
  return g;
}

}  // namespace riot

#endif  // RIOTSHARE_TESTS_INTEGRATION_GENERATED_PROGRAM_H_
