// mem_parallel: kernels and the parallel engine at memory speed. One client,
// closed loop. Each cycle runs, on MemEnv at 1/40 scale, the original
// schedule and the best plan of addmul, 2mm Config A, 2mm Config B, linreg
// and covariance, plus the fused elementwise chain; plans are chosen during
// set-up. Kernel workers plus one I/O worker equal the CPUs the process
// may use. The cap is twice each plan's predicted serial peak; a run that
// fails is retried at twice the cap, up to 16 times the first cap.
#include <memory>

#include "analysis/loop_characteristics.h"
#include "harness.h"

namespace perfbench {
namespace {

using riot::Status;

constexpr int64_t kScale = 40;
constexpr int64_t kPaperMemoryBytes = int64_t{8000} * 1000 * 1000;
constexpr int kMaxCapFactor = 16;

struct Program {
  const char* name;
  riot::Workload (*make)(int64_t scale);
  size_t max_combination_size;  // 0 = run the original schedule only
};

riot::Workload TwoMmA(int64_t s) {
  return riot::MakeTwoMatMul(riot::TwoMatMulConfig::kConfigA, s);
}
riot::Workload TwoMmB(int64_t s) {
  return riot::MakeTwoMatMul(riot::TwoMatMulConfig::kConfigB, s);
}
riot::Workload Covariance(int64_t s) { return riot::MakeCovariance(s); }
riot::Workload Chain(int64_t s) { return riot::MakeElementwiseChain(s); }

const Program kPrograms[] = {
    {"addmul", riot::MakeAddMul, SIZE_MAX},
    {"twomm_a", TwoMmA, SIZE_MAX},
    {"twomm_b", TwoMmB, SIZE_MAX},
    {"linreg", riot::MakeLinReg, 3},
    {"covariance", Covariance, 3},
    {"chain", Chain, 0},
};

struct Entry {
  const Program* program;
  riot::Workload paper;
  riot::Runtime reference;
  riot::OptimizationResult result;
  std::vector<std::unique_ptr<PlanJob>> jobs;  // original, then best
};

struct State {
  std::unique_ptr<riot::Env> env, ref_env;
  std::vector<std::unique_ptr<Entry>> entries;
  double optimize_s = 0, optimize_cpu_s = 0;
  double calibrated_gflops = 0;  // per worker, GEMM
};

// Kernel workers plus the I/O worker equal the CPUs. With one kernel worker
// fewer the engine stops over-reading, which this workload must show.
int KernelWorkers() { return std::max(1, Nproc() - 1); }

Status AddJob(Tracer* tracer, Entry* e, int plan_index, const char* kind,
              uint64_t seed, State* st) {
  auto job = std::make_unique<PlanJob>();
  job->label = std::string(e->program->name) + "/" + kind;
  job->work = e->program->make(kScale);
  RIOT_RETURN_NOT_OK(job->work.program.Validate());
  RIOT_RETURN_NOT_OK(BindPlan(tracer, e->result, e->paper.program,
                              plan_index, job.get()));
  job->reference = &e->reference;
  RIOT_RETURN_NOT_OK(OpenJobStores(st->env.get(), st->env.get(),
                                   "/mp/" + job->label, seed, job.get()));
  e->jobs.push_back(std::move(job));
  return Status::OK();
}

Status Setup(uint64_t seed, Tracer* tracer, State* st) {
  st->entries.clear();
  st->optimize_s = 0;
  st->optimize_cpu_s = 0;
  st->env = riot::NewMemEnv();
  st->ref_env = riot::NewMemEnv();
  for (const Program& p : kPrograms) {
    auto e = std::make_unique<Entry>();
    e->program = &p;
    e->paper = p.make(1);
    RIOT_RETURN_NOT_OK(e->paper.program.Validate());
    riot::OptimizerOptions o;
    o.memory_cap_bytes = kPaperMemoryBytes;
    o.max_combination_size = p.max_combination_size;
    o.num_threads = static_cast<size_t>(Nproc());
    {
      Scope span(tracer, "core", std::string("Optimize/") + p.name);
      const double t0 = Now(), c0 = CpuNow();
      e->result = riot::Optimize(e->paper.program, o);
      st->optimize_s += Now() - t0;
      st->optimize_cpu_s += CpuNow() - c0;
      span.Add("candidates_tested",
               static_cast<double>(e->result.candidates_tested));
      span.Add("candidates_pruned",
               static_cast<double>(e->result.candidates_pruned));
      span.Add("schedules_found",
               static_cast<double>(e->result.schedules_found));
      span.Add("plans", static_cast<double>(e->result.plans.size()));
    }
    auto ref = ReferenceRun(st->ref_env.get(), p.make(kScale),
                            std::string("/ref/") + p.name, seed);
    if (!ref.ok()) return ref.status();
    e->reference = std::move(ref).ValueOrDie();
    RIOT_RETURN_NOT_OK(AddJob(tracer, e.get(), 0, "original", seed, st));
    if (p.max_combination_size > 0) {
      RIOT_RETURN_NOT_OK(
          AddJob(tracer, e.get(), e->result.best_index, "best", seed, st));
    }
    st->entries.push_back(std::move(e));
  }
  {
    Scope span(tracer, "kernels", "CalibrateKernelRates");
    st->calibrated_gflops =
        riot::CalibrateKernelRates(200, KernelWorkers()).gemm_gflops;
  }
  st->env->stats().Reset();
  return Status::OK();
}

riot::ExecOptions EngineOptions() {
  riot::ExecOptions eo;
  eo.exec_threads = KernelWorkers();
  eo.io_threads = 1;
  eo.pipeline_depth = 2;
  return eo;
}

Cycle RunCycle(State* st, int64_t first_job, Tracer* tracer, Output* out) {
  Cycle c;
  int64_t job_id = first_job;
  for (auto& e : st->entries) {
    for (auto& job : e->jobs) {
      ++c.attempted;
      const int64_t cap = 2 * job->predicted.peak_memory_bytes;
      JobResult r = RunJob(tracer, job_id++, job.get(), EngineOptions(), cap,
                           kMaxCapFactor * cap, st->env.get(),
                           /*env_models_disk=*/false, out);
      if (!r.first_ok) ++c.failed;
      c.exec_s += r.exec_seconds;
      c.io_bytes += static_cast<double>(r.env_bytes);
      c.job_seconds.push_back(r.exec_seconds);
      c.peak_bytes.push_back(static_cast<double>(r.peak_required_bytes));
    }
  }
  return c;
}

// Traced run only: the optimizer's analysis and costing phases timed from
// outside, and engine cost per instance with no-op kernels.
void Probe(State* st, Tracer* tracer, Output* out) {
  double wall = 0, instances = 0;
  for (auto& e : st->entries) {
    const std::string name = e->program->name;
    {
      Scope span(tracer, "core", "AnalyzeProgram/" + name);
      riot::AnalyzeProgram(e->paper.program);
    }
    {
      Scope span(tracer, "core", "EvaluatePlanCost/" + name);
      std::vector<const riot::CoAccess*> q;
      for (const riot::Plan& p : e->result.plans) {
        q.clear();
        for (int oi : p.opportunities) {
          q.push_back(&e->result.analysis.sharing[static_cast<size_t>(oi)]);
        }
        riot::EvaluatePlanCost(e->paper.program, p.schedule, q);
      }
    }
    for (auto& job : e->jobs) {
      const riot::Program& prog = job->work.program;
      riot::ExecOptions eo = EngineOptions();
      // Room enough that starvation never shows here: this probe times
      // bookkeeping, not the cap.
      eo.memory_cap_bytes =
          kMaxCapFactor * 2 * job->predicted.peak_memory_bytes;
      Scope span(tracer, "exec", "noop/" + job->label);
      auto t = TimeNoopRun(job.get(), eo);
      if (!t.ok()) {
        out->Fail(job->label + " noop probe", t.status());
        continue;
      }
      wall += *t;
      instances += static_cast<double>(CountInstances(prog));
    }
  }
  SetLayer(out, "exec.ns_per_instance_noop",
           instances > 0 ? wall / instances * 1e9 : 0);
}

}  // namespace

Status RunMemParallel(const Args& args, Output* out) {
  State st;
  Tracer tracer(false);
  ClosedLoop w;
  w.setup = [&](uint64_t seed) { return Setup(seed, &tracer, &st); };
  w.setup_optimize_s = [&] { return st.optimize_s; };
  w.setup_optimize_cpu_s = [&] { return st.optimize_cpu_s; };
  w.cycle = [&](int64_t first, Tracer* t, Output* o) {
    return RunCycle(&st, first, t, o);
  };
  w.probe = [&](Tracer* t, Output* o) { Probe(&st, t, o); };
  w.derive = [&](const Tracer& t, double cycles, Output* o) {
    DeriveExecLayers(t, cycles, st.calibrated_gflops, o);
    // The Optimize spans are the traced set-up's: once, not per cycle.
    DeriveCoreLayers(t, 1.0, o);
  };
  RIOT_RETURN_NOT_OK(RunClosedLoop(args, w, &tracer, out));
  if (args.trace && !args.trace_out.empty()) {
    RIOT_RETURN_NOT_OK(tracer.WriteChromeTrace(args.trace_out));
  }
  return Status::OK();
}

}  // namespace perfbench
