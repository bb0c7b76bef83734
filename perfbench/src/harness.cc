#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <type_traits>

#include "analysis/loop_characteristics.h"
#include "exec/verify.h"

namespace perfbench {

using riot::Status;

int Tracer::Begin(const std::string& layer, const std::string& name,
                  int64_t job) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.name = name;
  s.job = job;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = Now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span, Counters counters) {
  if (span < 0) return;
  Span& s = spans_[static_cast<size_t>(span)];
  s.end = Now();
  s.counters = std::move(counters);
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

namespace {
bool Matches(const Tracer::Span& s, const std::string& layer,
             const std::string& name) {
  return s.layer == layer && s.name.compare(0, name.size(), name) == 0;
}
}  // namespace

double Tracer::Seconds(const std::string& layer,
                       const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (Matches(s, layer, name)) total += s.end - s.start;
  }
  return total;
}

double Tracer::Sum(const std::string& layer, const std::string& name,
                   const std::string& counter) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (!Matches(s, layer, name)) continue;
    for (const auto& [k, v] : s.counters) {
      if (k == counter) total += v;
    }
  }
  return total;
}

double Tracer::Max(const std::string& layer, const std::string& name,
                   const std::string& counter) const {
  double best = 0;
  for (const Span& s : spans_) {
    if (!Matches(s, layer, name)) continue;
    for (const auto& [k, v] : s.counters) {
      if (k == counter) best = std::max(best, v);
    }
  }
  return best;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f.good()) return Status::IoError("cannot write trace " + path);
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  f << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
    f << head << "\"cat\": \"" << s.layer << "\", \"name\": \"" << s.name
      << "\", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
      << ", \"job\": " << s.job;
    for (const auto& [k, v] : s.counters) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", v);
      f << ", \"" << k << "\": " << num;
    }
    f << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return f.good() ? Status::OK() : Status::IoError("short write " + path);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.optimize_s.addmul", "s"},
      {"core.optimize_s.twomm_a", "s"},
      {"core.optimize_s.twomm_b", "s"},
      {"core.optimize_s.linreg", "s"},
      {"core.analyze_s", "s"},
      {"core.cost_s", "s"},
      {"core.candidates_tested", "count"},
      {"core.candidates_pruned", "count"},
      {"core.schedules_found", "count"},
      {"core.plans", "count"},
      {"core.ms_per_candidate", "ms"},
      {"core.plans_per_candidate", "ratio"},
      {"core.io_pred_ratio", "ratio"},
      {"exec.io_s", "s"},
      {"exec.compute_s", "s"},
      {"exec.overlap_s", "s"},
      {"exec.overlap_frac", "ratio"},
      {"exec.self_s", "s"},
      {"exec.ns_per_instance_noop", "ns"},
      {"exec.max_ready_width", "count"},
      {"exec.parallel_groups", "count"},
      {"exec.cap_retries", "count"},
      {"exec.prefetch_hits", "count"},
      {"exec.prefetch_wasted", "count"},
      {"exec.prefetch_useful_frac", "ratio"},
      {"exec.block_reads", "count"},
      {"exec.block_writes", "count"},
      {"exec.policy_saved_reads", "count"},
      {"exec.read_amp", "ratio"},
      {"exec.peak_required_mb", "MB"},
      {"kernels.compute_s", "s"},
      {"kernels.gflop_s", "GFLOP/s"},
      {"kernels.calibrated_gemm_gflop_s", "GFLOP/s"},
      {"kernels.frac_of_calibrated", "ratio"},
      {"kernels.flop_per_byte", "flop/B"},
      {"storage.read_mb", "MB"},
      {"storage.write_mb", "MB"},
      {"storage.read_ops", "count"},
      {"storage.write_ops", "count"},
      {"storage.modeled_s", "s"},
      {"storage.env_io_s", "s"},
      {"storage.pool_hit_frac", "ratio"},
      {"storage.evictions", "count"},
      {"storage.prefetch_issued", "count"},
      {"storage.prefetch_declined", "count"},
      {"storage.prefetch_abandoned", "count"},
      {"storage.coalesced_loads", "count"},
      {"ops.admission_wait_p99_s", "s"},
      {"ops.admission_wait_mean_s", "s"},
      {"ops.sessions_parked", "count"},
      {"ops.session_parks", "count"},
      {"ops.peak_reserved_mb", "MB"},
      {"ops.block_reads", "count"},
      {"ops.policy_saved_reads", "count"},
      {"serve.queue_wait_p99_s", "s"},
      {"serve.exec_wall_p50_s", "s"},
      {"serve.exec_wall_p99_s", "s"},
      {"serve.submit_us_p99", "us"},
      {"serve.gen_late_max_s", "s"},
      {"serve.throughput_jobs_s", "1/s"},
      {"serve.p99_s", "s"},
      {"serve.mouse_p99_s", "s"},
      {"serve.whale_p90_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

void InitPerLayer(Output* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    out->per_layer[name] = Metric{0, unit, -1};
  }
}

void SetLayer(Output* out, const std::string& name, double value) {
  auto it = out->per_layer.find(name);
  if (it == out->per_layer.end()) {
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  it->second.value = std::isfinite(value) ? value : 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::min(std::max(q, 0.0), 1.0) * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double MaxRssMb() {
  // Plan runs happen in child processes (see RunJob): count the largest.
  struct rusage self {}, children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // Linux: KiB
}

Status CompareOutputs(const riot::Workload& w,
                      const std::vector<riot::BlockStore*>& expected,
                      const std::vector<riot::BlockStore*>& actual) {
  for (int arr : w.output_arrays) {
    const size_t i = static_cast<size_t>(arr);
    Status s = riot::VerifyBitEqual(w.program.array(arr), expected[i],
                                    actual[i]);
    if (!s.ok()) {
      return Status(s.code(),
                    w.program.array(arr).name + ": " + s.message());
    }
  }
  return Status::OK();
}

Status CopyArray(const riot::ArrayInfo& info, riot::BlockStore* from,
                 riot::BlockStore* to) {
  std::vector<double> buf(static_cast<size_t>(info.ElemsPerBlock()));
  for (int64_t b = 0; b < info.NumBlocks(); ++b) {
    RIOT_RETURN_NOT_OK(from->ReadBlock(b, buf.data()));
    RIOT_RETURN_NOT_OK(to->WriteBlock(b, buf.data()));
  }
  return Status::OK();
}

int64_t CountInstances(const riot::Program& p) {
  int64_t n = 0;
  for (const riot::Statement& s : p.statements()) {
    n += static_cast<int64_t>(p.InstancesOf(s.id).size());
  }
  return n;
}

double ProgramFlops(const riot::Program& p) {
  double flops = 0;
  for (const auto& c : riot::AnalyzeProgramLoops(p)) flops += c.total_flops;
  return flops;
}

Status BindPlan(Tracer* tracer, const riot::OptimizationResult& r,
                const riot::Program& paper, int plan_index, PlanJob* job) {
  const riot::Program& prog = job->work.program;
  {
    Scope span(tracer, "core", "bind/AnalyzeProgram/" + job->label);
    job->analysis = riot::AnalyzeProgram(prog);
  }
  if (job->analysis.sharing.size() != r.analysis.sharing.size()) {
    return Status::Internal(job->label + ": opportunity count differs");
  }
  const riot::Plan& plan = r.plans[static_cast<size_t>(plan_index)];
  job->schedule = plan.schedule;
  job->realized.clear();
  for (int oi : plan.opportunities) {
    const size_t i = static_cast<size_t>(oi);
    if (r.analysis.sharing[i].Label(paper) !=
        job->analysis.sharing[i].Label(prog)) {
      return Status::Internal(job->label + ": opportunity labels differ");
    }
    job->realized.push_back(&job->analysis.sharing[i]);
  }
  {
    Scope span(tracer, "core", "bind/EvaluatePlanCost/" + job->label);
    job->predicted =
        riot::EvaluatePlanCost(prog, job->schedule, job->realized);
  }
  job->flops = ProgramFlops(prog);
  return Status::OK();
}

riot::Result<riot::Runtime> ReferenceRun(riot::Env* mem,
                                         const riot::Workload& w,
                                         const std::string& dir,
                                         uint64_t seed) {
  auto rt = riot::OpenStores(mem, w.program, dir);
  if (!rt.ok()) return rt.status();
  RIOT_RETURN_NOT_OK(riot::InitInputs(w, *rt, seed));
  riot::Executor ex(w.program, rt->raw(), w.kernels, riot::ExecOptions{});
  auto stats = ex.Run(w.program.original_schedule(), {});
  if (!stats.ok()) return stats.status();
  return rt;
}

Status OpenJobStores(riot::Env* env, riot::Env* base, const std::string& dir,
                     uint64_t seed, PlanJob* job) {
  auto rt = riot::OpenStores(env, job->work.program, dir);
  if (!rt.ok()) return rt.status();
  job->stores = std::move(rt).ValueOrDie();
  auto plain = riot::OpenStores(base, job->work.program, dir);
  if (!plain.ok()) return plain.status();
  job->plain = std::move(plain).ValueOrDie();
  return riot::InitInputs(job->work, job->plain, seed);
}

namespace {

// What one attempt reports back from its child process. Plain data: it
// crosses a pipe.
struct Attempt {
  int ok = 0;
  int verified = 0;
  double wall = 0;
  riot::ExecStats stats;
  int64_t env_read_bytes = 0, env_write_bytes = 0;
  int64_t env_read_ops = 0, env_write_ops = 0;
  double env_io_s = 0, env_modeled_s = 0;
  char status[384] = {};
  char mismatch[384] = {};
};

static_assert(std::is_trivially_copyable<Attempt>::value,
              "Attempt crosses a pipe as bytes");

void CopyMessage(const std::string& from, char (&to)[384]) {
  std::snprintf(to, sizeof(to), "%s", from.c_str());
}

// The attempt itself, run in the child: reset the outputs, run, compare.
// A no-op attempt runs no-op kernels against the unthrottled stores and
// checks nothing: it times the engine's own bookkeeping.
void RunAttemptInChild(PlanJob* job, const riot::ExecOptions& opts,
                       riot::Env* env, bool env_models_disk, bool noop,
                       Attempt* a) {
  const riot::Program& prog = job->work.program;
  if (noop) {
    std::vector<riot::StatementKernel> kernels(
        prog.statements().size(),
        [](const std::vector<int64_t>&, const std::vector<riot::DenseView*>&) {
        });
    const double t0 = Now();
    riot::Executor ex(prog, job->plain.raw(), kernels, opts);
    riot::Result<riot::ExecStats> stats = ex.Run(job->schedule, job->realized);
    a->wall = Now() - t0;
    a->ok = stats.ok() ? 1 : 0;
    if (!stats.ok()) CopyMessage(stats.status().ToString(), a->status);
    return;
  }
  for (int arr : job->work.output_arrays) {
    Status z = riot::ZeroArray(
        prog.array(arr), job->plain.stores[static_cast<size_t>(arr)].get());
    if (!z.ok()) {
      CopyMessage("output reset: " + z.ToString(), a->status);
      return;
    }
  }
  const riot::IoStats& io = env->stats();
  const int64_t r0 = io.bytes_read, w0 = io.bytes_written;
  const int64_t ro0 = io.read_ops, wo0 = io.write_ops;
  const double ios0 = io.io_seconds(), mod0 = io.modeled_seconds();
  const double t0 = Now();
  riot::Executor ex(prog, job->stores.raw(), job->work.kernels, opts);
  riot::Result<riot::ExecStats> stats = ex.Run(job->schedule, job->realized);
  a->wall = Now() - t0;
  a->env_read_bytes = io.bytes_read - r0;
  a->env_write_bytes = io.bytes_written - w0;
  a->env_read_ops = io.read_ops - ro0;
  a->env_write_ops = io.write_ops - wo0;
  a->env_io_s = io.io_seconds() - ios0;
  a->env_modeled_s = env_models_disk
                         ? io.modeled_seconds() - mod0
                         : static_cast<double>(a->env_read_bytes) / 96e6 +
                               static_cast<double>(a->env_write_bytes) / 60e6;
  if (!stats.ok()) {
    CopyMessage(stats.status().ToString(), a->status);
    return;
  }
  a->ok = 1;
  a->stats = *stats;
  Status v =
      CompareOutputs(job->work, job->reference->raw(), job->plain.raw());
  a->verified = v.ok() ? 1 : 0;
  if (!v.ok()) CopyMessage(v.ToString(), a->mismatch);
}

// Runs one attempt in a forked child so that a library abort ends only the
// child: it comes back as a failed attempt naming the signal.
Attempt RunAttempt(PlanJob* job, const riot::ExecOptions& opts,
                   riot::Env* env, bool env_models_disk, bool noop) {
  Attempt a;
  int fds[2];
  if (pipe(fds) != 0) {
    CopyMessage("pipe failed", a.status);
    return a;
  }
  std::fflush(nullptr);
  const double t0 = Now();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    // An abort here is an expected, counted outcome: no core file.
    struct rlimit no_core {};
    setrlimit(RLIMIT_CORE, &no_core);
    Attempt mine;
    RunAttemptInChild(job, opts, env, env_models_disk, noop, &mine);
    const char* p = reinterpret_cast<const char*>(&mine);
    size_t left = sizeof(mine);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    CopyMessage("fork failed", a.status);
    return a;
  }
  Attempt got;
  char* p = reinterpret_cast<char*>(&got);
  size_t have = 0;
  while (have < sizeof(got)) {
    const ssize_t n = read(fds[0], p + have, sizeof(got) - have);
    if (n <= 0) break;
    have += static_cast<size_t>(n);
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (have == sizeof(got) && WIFEXITED(wstatus) &&
      WEXITSTATUS(wstatus) == 0) {
    return got;
  }
  a.wall = Now() - t0;  // the attempt's time, as far as it got
  CopyMessage(WIFSIGNALED(wstatus)
                  ? "Aborted: process killed by signal " +
                        std::to_string(WTERMSIG(wstatus))
                  : "Aborted: attempt process exited early",
              a.status);
  return a;
}

// Failure names without the numbers that vary from run to run (instance
// indices), so that one fault is counted under one name.
std::string FailureName(const std::string& what, const std::string& status) {
  std::string out = what + ": ";
  bool digits = false;
  for (char c : status) {
    if (c >= '0' && c <= '9') {
      if (!digits) out += '#';
      digits = true;
    } else {
      out += c;
      digits = false;
    }
  }
  return out;
}

}  // namespace

JobResult RunJob(Tracer* tracer, int64_t job_id, PlanJob* job,
                 riot::ExecOptions opts, int64_t cap, int64_t max_cap,
                 riot::Env* env, bool env_models_disk, Output* out) {
  JobResult res;
  for (int attempt = 0;; ++attempt) {
    opts.memory_cap_bytes = cap;
    Attempt a;
    {
      Scope span(tracer, "exec", "Executor::Run/" + job->label, job_id);
      a = RunAttempt(job, opts, env, env_models_disk, /*noop=*/false);
      span.Add("wall_s", a.wall);
      span.Add("ok_wall_s", a.ok ? a.wall : 0);
      span.Add("ok", a.ok);
      span.Add("retry", attempt > 0 ? 1 : 0);
      span.Add("env_read_bytes", static_cast<double>(a.env_read_bytes));
      span.Add("env_write_bytes", static_cast<double>(a.env_write_bytes));
      span.Add("env_read_ops", static_cast<double>(a.env_read_ops));
      span.Add("env_write_ops", static_cast<double>(a.env_write_ops));
      span.Add("env_io_s", a.env_io_s);
      span.Add("env_modeled_s", a.env_modeled_s);
      span.Add("pred_read_bytes",
               static_cast<double>(job->predicted.read_bytes));
      span.Add("pred_write_bytes",
               static_cast<double>(job->predicted.write_bytes));
      if (a.ok) {
        const riot::ExecStats& s = a.stats;
        span.Add("io_s", s.io_seconds);
        span.Add("compute_s", s.compute_seconds);
        span.Add("overlap_s", s.overlap_seconds);
        span.Add("read_bytes", static_cast<double>(s.bytes_read));
        span.Add("write_bytes", static_cast<double>(s.bytes_written));
        span.Add("block_reads", static_cast<double>(s.block_reads));
        span.Add("block_writes", static_cast<double>(s.block_writes));
        span.Add("prefetch_hits", static_cast<double>(s.prefetch_hits));
        span.Add("prefetch_wasted", static_cast<double>(s.prefetch_wasted));
        span.Add("policy_saved_reads",
                 static_cast<double>(s.policy_saved_reads));
        span.Add("max_ready_width", static_cast<double>(s.max_ready_width));
        span.Add("parallel_groups", static_cast<double>(s.parallel_groups));
        span.Add("peak_required_bytes",
                 static_cast<double>(s.peak_required_bytes));
        span.Add("flops", job->flops);
        span.Add("pool_hits", static_cast<double>(s.pool.hits));
        span.Add("pool_misses", static_cast<double>(s.pool.misses));
        span.Add("evictions", static_cast<double>(s.pool.evictions));
        span.Add("prefetch_issued",
                 static_cast<double>(s.pool.prefetch_issued));
        span.Add("prefetch_declined",
                 static_cast<double>(s.pool.prefetch_declined));
        span.Add("prefetch_abandoned",
                 static_cast<double>(s.pool.prefetch_abandoned));
        span.Add("coalesced_loads",
                 static_cast<double>(s.pool.coalesced_loads));
      }
    }
    res.exec_seconds += a.wall;
    res.env_bytes += a.env_read_bytes + a.env_write_bytes;
    if (a.ok) {
      res.first_ok = attempt == 0;
      res.peak_required_bytes = a.stats.peak_required_bytes;
      if (!a.verified) out->Mismatch(job->label + ": " + a.mismatch);
      return res;
    }
    ++out->failures[FailureName(
        job->label + (attempt == 0 ? "" : " retry"), a.status)];
    if (cap >= max_cap) return res;
    cap *= 2;
  }
}

riot::Result<double> TimeNoopRun(PlanJob* job, const riot::ExecOptions& opts) {
  Attempt a = RunAttempt(job, opts, nullptr, false, /*noop=*/true);
  if (!a.ok) return Status::Internal(job->label + " no-op run: " + a.status);
  return a.wall;
}

void DeriveExecLayers(const Tracer& t, double cycles, double calibrated,
                      Output* out) {
  const std::string L = "exec", N = "Executor::Run";
  auto per = [&](const std::string& c) { return t.Sum(L, N, c) / cycles; };
  const double io = per("io_s"), compute = per("compute_s");
  // Wall of successful attempts as the benchmark times them (Executor
  // construction included); ExecStats' overlap is max(0, io + compute -
  // wall), so self time is what neither kernels nor store calls cover.
  const double overlap = per("overlap_s"), wall = per("ok_wall_s");
  SetLayer(out, "exec.io_s", io);
  SetLayer(out, "exec.compute_s", compute);
  SetLayer(out, "exec.overlap_s", overlap);
  SetLayer(out, "exec.overlap_frac", overlap / std::max(1e-12, io + compute));
  SetLayer(out, "exec.self_s", wall - (io + compute - overlap));
  SetLayer(out, "exec.max_ready_width", t.Max(L, N, "max_ready_width"));
  SetLayer(out, "exec.parallel_groups", per("parallel_groups"));
  SetLayer(out, "exec.cap_retries", per("retry"));
  const double hits = per("prefetch_hits"), wasted = per("prefetch_wasted");
  SetLayer(out, "exec.prefetch_hits", hits);
  SetLayer(out, "exec.prefetch_wasted", wasted);
  SetLayer(out, "exec.prefetch_useful_frac",
           hits + wasted > 0 ? hits / (hits + wasted) : 0);
  SetLayer(out, "exec.block_reads", per("block_reads"));
  SetLayer(out, "exec.block_writes", per("block_writes"));
  SetLayer(out, "exec.policy_saved_reads", per("policy_saved_reads"));
  // Measured over predicted bytes, successful attempts only (a failed
  // attempt carries no ExecStats).
  double pred_r = 0, pred_w = 0;
  for (const Tracer::Span& s : t.spans()) {
    if (s.layer != L || s.name.compare(0, N.size(), N) != 0) continue;
    bool ok = false;
    double pr = 0, pw = 0;
    for (const auto& [k, v] : s.counters) {
      if (k == "ok") ok = v > 0;
      if (k == "pred_read_bytes") pr = v;
      if (k == "pred_write_bytes") pw = v;
    }
    if (ok) {
      pred_r += pr;
      pred_w += pw;
    }
  }
  const double rb = t.Sum(L, N, "read_bytes"), wb = t.Sum(L, N, "write_bytes");
  SetLayer(out, "exec.read_amp", pred_r > 0 ? rb / pred_r : 0);
  SetLayer(out, "core.io_pred_ratio",
           pred_r + pred_w > 0 ? (rb + wb) / (pred_r + pred_w) : 0);
  SetLayer(out, "exec.peak_required_mb",
           t.Max(L, N, "peak_required_bytes") / 1e6);

  const double flops = per("flops");
  SetLayer(out, "kernels.compute_s", compute);
  const double gflops = compute > 0 ? flops / compute / 1e9 : 0;
  SetLayer(out, "kernels.gflop_s", gflops);
  SetLayer(out, "kernels.calibrated_gemm_gflop_s", calibrated);
  SetLayer(out, "kernels.frac_of_calibrated",
           calibrated > 0 ? gflops / calibrated : 0);
  const double env_r = per("env_read_bytes"), env_w = per("env_write_bytes");
  SetLayer(out, "kernels.flop_per_byte",
           env_r + env_w > 0 ? flops / (env_r + env_w) : 0);

  SetLayer(out, "storage.read_mb", env_r / 1e6);
  SetLayer(out, "storage.write_mb", env_w / 1e6);
  SetLayer(out, "storage.read_ops", per("env_read_ops"));
  SetLayer(out, "storage.write_ops", per("env_write_ops"));
  SetLayer(out, "storage.modeled_s", per("env_modeled_s"));
  SetLayer(out, "storage.env_io_s", per("env_io_s"));
  const double ph = per("pool_hits"), pm = per("pool_misses");
  SetLayer(out, "storage.pool_hit_frac", ph + pm > 0 ? ph / (ph + pm) : 0);
  SetLayer(out, "storage.evictions", per("evictions"));
  SetLayer(out, "storage.prefetch_issued", per("prefetch_issued"));
  SetLayer(out, "storage.prefetch_declined", per("prefetch_declined"));
  SetLayer(out, "storage.prefetch_abandoned", per("prefetch_abandoned"));
  SetLayer(out, "storage.coalesced_loads", per("coalesced_loads"));
}

void DeriveCoreLayers(const Tracer& t, double cycles, Output* out) {
  // AnalyzeProgram / EvaluatePlanCost spans come from the one-off probe
  // after the traced window, not from the cycles.
  for (const char* p : {"addmul", "twomm_a", "twomm_b", "linreg"}) {
    SetLayer(out, std::string("core.optimize_s.") + p,
             t.Seconds("core", std::string("Optimize/") + p) / cycles);
  }
  SetLayer(out, "core.analyze_s", t.Seconds("core", "AnalyzeProgram"));
  SetLayer(out, "core.cost_s", t.Seconds("core", "EvaluatePlanCost"));
  const double tested = t.Sum("core", "Optimize", "candidates_tested");
  const double plans = t.Sum("core", "Optimize", "plans");
  SetLayer(out, "core.candidates_tested", tested / cycles);
  SetLayer(out, "core.candidates_pruned",
           t.Sum("core", "Optimize", "candidates_pruned") / cycles);
  SetLayer(out, "core.schedules_found",
           t.Sum("core", "Optimize", "schedules_found") / cycles);
  SetLayer(out, "core.plans", plans / cycles);
  SetLayer(out, "core.ms_per_candidate",
           tested > 0 ? 1e3 * t.Seconds("core", "Optimize") / tested : 0);
  SetLayer(out, "core.plans_per_candidate", tested > 0 ? plans / tested : 0);
}

}  // namespace perfbench

namespace perfbench {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

// Cycles for about `seconds`: the first cycle's wall time fixes how many
// (the nearest whole number), so a run always measures whole passes over
// its programs.
std::vector<Cycle> RunCycles(double seconds, const ClosedLoop& w,
                             int64_t* next_job, Tracer* tracer, Output* out) {
  std::vector<Cycle> cycles;
  int64_t count = 1;
  for (int64_t i = 0; i < count; ++i) {
    const double t0 = Now();
    Cycle c = w.cycle(*next_job, tracer, out);
    c.wall = Now() - t0;
    *next_job += c.attempted;
    if (i == 0) {
      count = std::max<int64_t>(
          1, std::llround(seconds / std::max(1e-3, c.wall)));
    }
    cycles.push_back(std::move(c));
  }
  return cycles;
}

double MedianOf(const std::vector<Cycle>& cycles, double Cycle::*field) {
  std::vector<double> v;
  for (const Cycle& c : cycles) v.push_back(c.*field);
  return Median(v);
}

// Each job's median peak over the cycles, then the largest: the parallel
// engine's peak varies from run to run of one plan.
double PeakBytes(const std::vector<Cycle>& cycles) {
  double peak = 0;
  for (size_t j = 0; j < cycles.front().peak_bytes.size(); ++j) {
    std::vector<double> v;
    for (const Cycle& c : cycles) {
      if (j < c.peak_bytes.size()) v.push_back(c.peak_bytes[j]);
    }
    peak = std::max(peak, Median(v));
  }
  return peak;
}

}  // namespace

Status RunClosedLoop(const Args& args, const ClosedLoop& w, Tracer* tracer,
                     Output* out) {
  std::vector<double> setup_s, setup_opt_s, setup_opt_cpu_s;
  for (int i = 0; i < kSetups; ++i) {
    // The traced run records the last set-up (its Optimize calls, if any).
    tracer->set_enabled(args.trace && i + 1 == kSetups);
    const double t0 = Now();
    RIOT_RETURN_NOT_OK(w.setup(args.seed));
    setup_s.push_back(Now() - t0);
    setup_opt_s.push_back(w.setup_optimize_s());
    setup_opt_cpu_s.push_back(w.setup_optimize_cpu_s());
  }
  tracer->set_enabled(false);

  int64_t next_job = 0;
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Cycle> cycles = RunCycles(window, w, &next_job, tracer, out);
  const double untraced_wall = MedianOf(cycles, &Cycle::wall);
  std::vector<Cycle> traced;
  if (args.trace) {
    tracer->set_enabled(true);
    traced = RunCycles(window, w, &next_job, tracer, out);
    InitPerLayer(out);
    w.probe(tracer, out);
    tracer->set_enabled(false);
    w.derive(*tracer, static_cast<double>(traced.size()), out);
    SetLayer(out, "trace.overhead_frac",
             MedianOf(traced, &Cycle::wall) / untraced_wall - 1.0);
    SetLayer(out, "trace.spans", static_cast<double>(tracer->spans().size()));
  }

  for (const std::vector<Cycle>* set : {&cycles, &traced}) {
    for (const Cycle& c : *set) {
      out->attempted += c.attempted;
      out->failed += c.failed;
    }
  }
  std::vector<double> jobs;
  for (const Cycle& c : cycles) {
    jobs.insert(jobs.end(), c.job_seconds.begin(), c.job_seconds.end());
  }
  const int64_t n_jobs = static_cast<int64_t>(jobs.size());
  const int64_t n_setups = static_cast<int64_t>(setup_s.size());
  const int64_t n_cycles = static_cast<int64_t>(cycles.size());
  auto& e2e = out->end_to_end;
  e2e["setup_s"] = Metric{Median(setup_s), "s", n_setups};
  const double loop_opt = MedianOf(cycles, &Cycle::optimize_s);
  e2e["optimize_cpu_s"] =
      loop_opt > 0
          ? Metric{MedianOf(cycles, &Cycle::optimize_cpu_s), "s", n_cycles}
          : Metric{Median(setup_opt_cpu_s), "s", n_setups};
  e2e["exec_s"] = Metric{MedianOf(cycles, &Cycle::exec_s), "s", n_cycles};
  e2e["io_mb"] = Metric{MedianOf(cycles, &Cycle::io_bytes) / 1e6, "MB",
                        n_cycles};
  e2e["peak_mem_mb"] = Metric{PeakBytes(cycles) / 1e6, "MB", n_cycles};
  e2e["rss_mb"] = Metric{MaxRssMb(), "MB", 1};
  e2e["ok_frac"] = Metric{
      out->attempted > 0
          ? static_cast<double>(out->attempted - out->failed) / out->attempted
          : 0,
      "fraction", out->attempted};
  e2e["p50_s"] = Metric{Quantile(jobs, 0.50), "s", n_jobs};
  out->info["p95_s"] = Metric{Quantile(jobs, 0.95), "s", n_jobs};
  out->info["optimize_s"] =
      loop_opt > 0 ? Metric{loop_opt, "s", n_cycles}
                   : Metric{Median(setup_opt_s), "s", n_setups};
  out->info["cycle_s"] = Metric{untraced_wall, "s", n_cycles};
  out->info["failed_frac"] = Metric{1.0 - e2e["ok_frac"].value, "fraction",
                                    out->attempted};
  return Status::OK();
}

}  // namespace perfbench
