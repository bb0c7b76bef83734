// paper_disk: the paper's own setting (Section 6). One client, closed loop.
// For addmul, 2mm Config A, 2mm Config B and linreg, in this order, each
// job optimizes the paper-scale program and runs the chosen best plan at
// 1/40 scale on a sleeping disk at the paper's 96/60 MB/s: serial engine,
// pipeline depth 2, memory cap twice the plan's predicted peak.
#include <memory>

#include "analysis/loop_characteristics.h"
#include "harness.h"

namespace perfbench {
namespace {

using riot::Status;

constexpr int64_t kScale = 40;
constexpr double kReadMBps = 96.0, kWriteMBps = 60.0;
// The paper's machine had 8 GB; plans above it are not selectable.
constexpr int64_t kPaperMemoryBytes = int64_t{8000} * 1000 * 1000;

struct Program {
  const char* name;
  riot::Workload (*make)(int64_t scale);
  size_t max_combination_size;
};

riot::Workload TwoMmA(int64_t s) {
  return riot::MakeTwoMatMul(riot::TwoMatMulConfig::kConfigA, s);
}
riot::Workload TwoMmB(int64_t s) {
  return riot::MakeTwoMatMul(riot::TwoMatMulConfig::kConfigB, s);
}

// linreg's full search takes minutes; combinations of at most three
// opportunities take seconds.
const Program kPrograms[] = {
    {"addmul", riot::MakeAddMul, SIZE_MAX},
    {"twomm_a", TwoMmA, SIZE_MAX},
    {"twomm_b", TwoMmB, SIZE_MAX},
    {"linreg", riot::MakeLinReg, 3},
};

struct Entry {
  const Program* program;
  riot::Workload paper;
  riot::Runtime reference;
  PlanJob job;
  riot::OptimizationResult last;  // the latest cycle's result (probes)
};

struct State {
  std::unique_ptr<riot::Env> base, disk, mem;
  std::vector<std::unique_ptr<Entry>> entries;
};

riot::OptimizerOptions OptionsFor(const Program& p) {
  riot::OptimizerOptions o;
  o.memory_cap_bytes = kPaperMemoryBytes;
  o.max_combination_size = p.max_combination_size;
  o.num_threads = static_cast<size_t>(Nproc());
  return o;
}

Status Setup(uint64_t seed, State* st) {
  st->entries.clear();
  st->base = riot::NewMemEnv();
  st->disk = riot::NewThrottledEnv(st->base.get(), kReadMBps, kWriteMBps,
                                   /*per_request_ms=*/0.0,
                                   /*sleep_scale=*/1.0);
  st->mem = riot::NewMemEnv();
  for (const Program& p : kPrograms) {
    auto e = std::make_unique<Entry>();
    e->program = &p;
    e->paper = p.make(1);
    e->job.label = p.name;
    e->job.work = p.make(kScale);
    RIOT_RETURN_NOT_OK(e->paper.program.Validate());
    RIOT_RETURN_NOT_OK(e->job.work.program.Validate());
    auto ref = ReferenceRun(st->mem.get(), e->job.work,
                            std::string("/ref/") + p.name, seed);
    if (!ref.ok()) return ref.status();
    e->reference = std::move(ref).ValueOrDie();
    e->job.reference = &e->reference;
    RIOT_RETURN_NOT_OK(OpenJobStores(st->disk.get(), st->base.get(),
                                     std::string("/pd/") + p.name, seed,
                                     &e->job));
    st->entries.push_back(std::move(e));
  }
  st->disk->stats().Reset();
  return Status::OK();
}

Cycle RunCycle(State* st, int64_t first_job, Tracer* tracer, Output* out) {
  Cycle c;
  int64_t job_id = first_job;
  for (auto& e : st->entries) {
    ++c.attempted;
    double opt_s = 0, opt_cpu_s = 0;
    {
      Scope span(tracer, "core", std::string("Optimize/") + e->program->name,
                 job_id);
      const double t0 = Now(), c0 = CpuNow();
      e->last = riot::Optimize(e->paper.program, OptionsFor(*e->program));
      opt_s = Now() - t0;
      opt_cpu_s = CpuNow() - c0;
      span.Add("candidates_tested",
               static_cast<double>(e->last.candidates_tested));
      span.Add("candidates_pruned",
               static_cast<double>(e->last.candidates_pruned));
      span.Add("schedules_found", static_cast<double>(e->last.schedules_found));
      span.Add("plans", static_cast<double>(e->last.plans.size()));
    }
    c.optimize_s += opt_s;
    c.optimize_cpu_s += opt_cpu_s;
    Status bound = BindPlan(tracer, e->last, e->paper.program,
                            e->last.best_index, &e->job);
    if (!bound.ok()) {
      out->Fail(e->job.label + " bind", bound);
      ++c.failed;
      c.job_seconds.push_back(opt_s);
      c.peak_bytes.push_back(0);
      ++job_id;
      continue;
    }
    riot::ExecOptions eo;
    eo.pipeline_depth = 2;
    eo.exec_threads = 1;
    const int64_t cap = 2 * e->job.predicted.peak_memory_bytes;
    JobResult r = RunJob(tracer, job_id, &e->job, eo, cap, cap,
                         st->disk.get(), /*env_models_disk=*/true, out);
    if (!r.first_ok) ++c.failed;
    c.exec_s += r.exec_seconds;
    c.io_bytes += static_cast<double>(r.env_bytes);
    c.job_seconds.push_back(opt_s + r.exec_seconds);
    c.peak_bytes.push_back(static_cast<double>(r.peak_required_bytes));
    ++job_id;
  }
  return c;
}

// Traced run only: the optimizer's analysis and costing phases timed from
// outside, engine cost per instance with no-op kernels, kernel peak.
void Probe(State* st, Tracer* tracer, Output* out) {
  for (auto& e : st->entries) {
    const std::string name = e->program->name;
    {
      Scope span(tracer, "core", "AnalyzeProgram/" + name);
      riot::AnalyzeProgram(e->paper.program);
    }
    {
      Scope span(tracer, "core", "EvaluatePlanCost/" + name);
      std::vector<const riot::CoAccess*> q;
      for (const riot::Plan& p : e->last.plans) {
        q.clear();
        for (int oi : p.opportunities) {
          q.push_back(&e->last.analysis.sharing[static_cast<size_t>(oi)]);
        }
        riot::EvaluatePlanCost(e->paper.program, p.schedule, q);
      }
      span.Add("plans", static_cast<double>(e->last.plans.size()));
    }
  }
  // Engine bookkeeping: the best plans with no-op kernels on the unthrottled
  // stores, same engine options.
  double wall = 0, instances = 0;
  for (auto& e : st->entries) {
    const riot::Program& prog = e->job.work.program;
    riot::ExecOptions eo;
    eo.pipeline_depth = 2;
    eo.memory_cap_bytes = 2 * e->job.predicted.peak_memory_bytes;
    Scope span(tracer, "exec", "noop/" + e->job.label);
    auto t = TimeNoopRun(&e->job, eo);
    if (!t.ok()) {
      out->Fail(e->job.label + " noop probe", t.status());
      continue;
    }
    wall += *t;
    instances += static_cast<double>(CountInstances(prog));
  }
  SetLayer(out, "exec.ns_per_instance_noop",
           instances > 0 ? wall / instances * 1e9 : 0);
}

}  // namespace

Status RunPaperDisk(const Args& args, Output* out) {
  State st;
  double calibrated = 0;
  ClosedLoop w;
  w.setup = [&](uint64_t seed) { return Setup(seed, &st); };
  w.setup_optimize_s = [] { return 0.0; };
  w.setup_optimize_cpu_s = [] { return 0.0; };
  w.cycle = [&](int64_t first, Tracer* t, Output* o) {
    return RunCycle(&st, first, t, o);
  };
  w.probe = [&](Tracer* t, Output* o) {
    Probe(&st, t, o);
    Scope span(t, "kernels", "CalibrateKernelRates");
    calibrated = riot::CalibrateKernelRates(200, 1).gemm_gflops;
  };
  w.derive = [&](const Tracer& t, double cycles, Output* o) {
    DeriveExecLayers(t, cycles, calibrated, o);
    DeriveCoreLayers(t, cycles, o);
  };
  Tracer tracer(false);
  RIOT_RETURN_NOT_OK(RunClosedLoop(args, w, &tracer, out));
  if (args.trace && !args.trace_out.empty()) {
    RIOT_RETURN_NOT_OK(tracer.WriteChromeTrace(args.trace_out));
  }
  return Status::OK();
}

}  // namespace perfbench
