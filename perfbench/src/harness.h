// Shared pieces of the repository benchmark: command-line arguments, an
// in-memory span tracer, the per-run result (end-to-end and per-layer
// metrics plus named failures), order statistics and output verification.
//
// The benchmark drives riotshare only through its public API. Every public
// call it makes on a timed path is wrapped in a span when tracing is on;
// spans live in memory, are written out as a Chrome trace-event file when
// the run ends, and the per-layer metrics are derived from them.
#ifndef RIOT_PERFBENCH_HARNESS_H_
#define RIOT_PERFBENCH_HARNESS_H_

#include <chrono>
#include <ctime>
#include <functional>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/coaccess.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "ir/array.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"
#include "storage/block_store.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  /// Where the traced run writes its spans (a Chrome trace-event file).
  std::string trace_out;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// Seconds on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds used by every thread of the process
/// (CLOCK_PROCESS_CPUTIME_ID), or by the calling thread only
/// (CLOCK_THREAD_CPUTIME_ID). Unlike wall time, they do not grow while
/// another tenant of a shared host holds the CPUs.
inline double CpuNow(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// \brief In-memory span recorder. Disabled, Begin returns -1 and records
/// nothing, so the untraced run pays one branch per call.
class Tracer {
 public:
  using Counters = std::vector<std::pair<std::string, double>>;
  struct Span {
    std::string layer;
    std::string name;
    int64_t job = -1;  // spans of one request share this id
    int parent = -1;   // index of the enclosing open span
    double start = 0;
    double end = 0;
    Counters counters;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int Begin(const std::string& layer, const std::string& name,
            int64_t job = -1);
  void End(int span, Counters counters = {});

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration / summed / largest counter over the spans of one layer
  /// whose name starts with `name`.
  double Seconds(const std::string& layer, const std::string& name) const;
  double Sum(const std::string& layer, const std::string& name,
             const std::string& counter) const;
  double Max(const std::string& layer, const std::string& name,
             const std::string& counter) const;

  riot::Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer* t, const std::string& layer, const std::string& name,
        int64_t job = -1)
      : t_(t), id_(t->Begin(layer, name, job)) {}
  ~Scope() {
    if (id_ >= 0) t_->End(id_, std::move(counters_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void Add(const std::string& key, double v) {
    if (id_ >= 0) counters_.emplace_back(key, v);
  }

 private:
  Tracer* t_;
  int id_;
  Tracer::Counters counters_;
};

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // order statistics print their sample count
};

/// \brief What one run reports. `end_to_end` is filled by the untraced run,
/// `per_layer` by the traced one, `info` by both (report only).
struct Output {
  bool correct = true;
  std::string mismatch;
  /// Why the measurement itself is not valid (empty = valid); the numbers
  /// are still reported, flagged.
  std::string invalid;
  int64_t attempted = 0;
  int64_t failed = 0;  // first-attempt failures
  /// Failing statuses by "<operation>: <status>", with occurrence counts.
  std::map<std::string, int64_t> failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> info;

  void Fail(const std::string& what, const riot::Status& s) {
    ++failures[what + ": " + s.ToString()];
  }
  void Mismatch(const std::string& what) {
    correct = false;
    if (mismatch.empty()) mismatch = what;
  }
};

/// Names and units of every per-layer metric. Every workload reports all
/// of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// Starts `out->per_layer` with every metric at 0.
void InitPerLayer(Output* out);
void SetLayer(Output* out, const std::string& name, double value);

double Median(std::vector<double> v);
/// Quantile (q in [0, 1]) of the samples, interpolated linearly between
/// order statistics.
double Quantile(std::vector<double> v, double q);
/// Peak resident set size of this process, MB.
double MaxRssMb();

/// OK iff every output array of `w` is bit-equal between the two store
/// sets (indexed by array id).
riot::Status CompareOutputs(const riot::Workload& w,
                            const std::vector<riot::BlockStore*>& expected,
                            const std::vector<riot::BlockStore*>& actual);

/// Copies one array's blocks between stores.
riot::Status CopyArray(const riot::ArrayInfo& info, riot::BlockStore* from,
                       riot::BlockStore* to);

/// Total statement instances of a program (for per-instance costs).
int64_t CountInstances(const riot::Program& p);
/// Total flops of a program per AnalyzeProgramLoops.
double ProgramFlops(const riot::Program& p);

/// \brief One plan a closed-loop workload executes: the execution-scale
/// program, the plan mapped onto it, the cost model's prediction for it,
/// the stores it runs against and the reference outputs it must reproduce.
struct PlanJob {
  std::string label;
  riot::Workload work;
  riot::AnalysisResult analysis;  // owns the CoAccess objects in `realized`
  riot::Schedule schedule;
  std::vector<const riot::CoAccess*> realized;
  riot::PlanCost predicted;
  double flops = 0;
  riot::Runtime stores;  // on the run's Env
  riot::Runtime plain;   // the same files on the Env under any throttle
  const riot::Runtime* reference = nullptr;
};

/// Maps plan `plan_index` of `r` (optimized on the paper-scale program)
/// onto `job->work`'s program, whose block grids are the same: the
/// opportunity lists must agree label for label. AnalyzeProgram and
/// EvaluatePlanCost run in "bind/" core spans.
riot::Status BindPlan(Tracer* tracer, const riot::OptimizationResult& r,
                      const riot::Program& paper, int plan_index,
                      PlanJob* job);

/// Serial MemEnv run of the original schedule: the reference outputs.
riot::Result<riot::Runtime> ReferenceRun(riot::Env* mem,
                                         const riot::Workload& w,
                                         const std::string& dir,
                                         uint64_t seed);

/// Opens `job`'s stores on `env` (and `plain` on `base`, the same files
/// without the throttle) and writes the seeded inputs through `plain`.
riot::Status OpenJobStores(riot::Env* env, riot::Env* base,
                           const std::string& dir, uint64_t seed,
                           PlanJob* job);

struct JobResult {
  bool first_ok = false;
  double exec_seconds = 0;  // every attempt
  int64_t peak_required_bytes = 0;
  int64_t env_bytes = 0;  // read + written at the Env, every attempt
};

/// Runs `job` through Executor::Run at `cap`, doubling the cap after each
/// failure while it stays within `max_cap` (no retry when equal). Each
/// attempt runs in a forked child process, so an abort inside the library
/// is counted as a failed attempt instead of ending the benchmark; the
/// child zeroes the outputs, runs, compares them bit for bit against the
/// reference and reports back. Each attempt gets an exec span whose
/// counters carry its ExecStats and the Env's I/O delta.
JobResult RunJob(Tracer* tracer, int64_t job_id, PlanJob* job,
                 riot::ExecOptions opts, int64_t cap, int64_t max_cap,
                 riot::Env* env, bool env_models_disk, Output* out);

/// Wall seconds of one run of `job`'s plan with no-op kernels against its
/// unthrottled stores, in a forked child like RunJob's attempts.
riot::Result<double> TimeNoopRun(PlanJob* job, const riot::ExecOptions& opts);

/// Per-layer exec / kernels / storage metrics from the exec spans, per
/// cycle. `calibrated_gflops` is the per-worker GEMM rate (0 = none).
void DeriveExecLayers(const Tracer& t, double cycles,
                      double calibrated_gflops, Output* out);
/// Per-layer core metrics from the core spans: Optimize spans per cycle,
/// the AnalyzeProgram / EvaluatePlanCost probe spans as recorded.
void DeriveCoreLayers(const Tracer& t, double cycles, Output* out);

/// \brief One pass of a closed-loop workload over its programs.
struct Cycle {
  double wall = 0;
  double optimize_s = 0;      // wall
  double optimize_cpu_s = 0;  // CPU seconds of every optimizer thread
  double exec_s = 0;
  double io_bytes = 0;
  std::vector<double> job_seconds;  // per job, every attempt
  std::vector<double> peak_bytes;   // per job: ExecStats peak, 0 if failed
  int64_t attempted = 0;            // jobs: one per program plan
  int64_t failed = 0;  // first-attempt failures
};

/// \brief A closed-loop workload with one client: set-ups, then cycles
/// for the measured window, then (traced run only) one-off probes.
struct ClosedLoop {
  /// Builds fresh state from the seed; the last call's state is used.
  std::function<riot::Status(uint64_t seed)> setup;
  /// Optimize calls made during set-up, wall and CPU seconds (0 when
  /// there are none).
  std::function<double()> setup_optimize_s;
  std::function<double()> setup_optimize_cpu_s;
  std::function<Cycle(int64_t first_job, Tracer*, Output*)> cycle;
  /// Traced run only: extra public calls measured once, after the window,
  /// and the per-layer derivation from the spans of `traced_cycles`.
  std::function<void(Tracer*, Output*)> probe;
  std::function<void(const Tracer&, double traced_cycles, Output*)> derive;
};

/// Runs set-ups and the window; fills `out`. The untraced run reports the
/// end-to-end metrics. The traced run measures half the window untraced,
/// half traced (the tracing overhead is the difference of their median
/// cycle times), then probes and derives the per-layer metrics.
riot::Status RunClosedLoop(const Args& args, const ClosedLoop& w,
                           Tracer* tracer, Output* out);

/// Online CPUs this process may run on.
int Nproc();

/// The workloads. A non-OK status is a set-up failure (the run reports
/// nothing); failures on the timed path are counted in `out` instead.
riot::Status RunPaperDisk(const Args& args, Output* out);
riot::Status RunMemParallel(const Args& args, Output* out);
riot::Status RunServeZipf(const Args& args, Output* out);

}  // namespace perfbench

#endif  // RIOT_PERFBENCH_HARNESS_H_
