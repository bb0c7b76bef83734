// serve_zipf: the serving layer under open-loop traffic. Poisson arrivals at
// 40 jobs/s, Zipf 0.99 over 6 datasets, 20% write mice, 8% whales, on a
// sleeping disk at 30/20 MB/s. Admission is shortest-work, replacement is
// Belady (schedule-driven), the shared pool holds 1.5 whale footprints.
// The server times each job from its Submit, which the generator makes at
// the job's due time; the generator's lateness is reported, and a run where
// it is late too often is flagged invalid.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "analysis/loop_characteristics.h"
#include "exec/verify.h"
#include "harness.h"
#include "ops/admission.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/workload_gen.h"

namespace perfbench {
namespace {

using riot::Status;
using riot::serve::JobKind;
using riot::serve::JobSpec;

constexpr double kOfferedJobsPerSec = 40.0;
constexpr int kDatasets = 6;
constexpr double kWriteFraction = 0.2, kWhaleFraction = 0.08;
constexpr double kReadMBps = 30.0, kWriteMBps = 20.0;
// A run is flagged invalid when more than 1% of its jobs were submitted
// later than this: the generator has stopped being an open loop.
constexpr double kMaxLateP99Seconds = 0.010;
constexpr JobKind kKinds[] = {JobKind::kRead, JobKind::kWrite,
                              JobKind::kWhale};

const char* KindName(JobKind k) {
  switch (k) {
    case JobKind::kRead:
      return "read";
    case JobKind::kWrite:
      return "write";
    case JobKind::kWhale:
      return "whale";
  }
  return "?";
}

int Workers() { return std::min(4, Nproc()); }

// Quantile of a LatencyHistogram, interpolated log-linearly inside the
// bucket that holds it. The histogram's own Quantile returns the bucket's
// upper bound, so one-bucket jitter moves it by a whole ~9.6% step; the
// interpolation makes it continuous in the bucket counts. The counts are
// read back through Quantile itself, one rank at a time.
double HistQuantile(const riot::serve::LatencyHistogram& h, double q) {
  using H = riot::serve::LatencyHistogram;
  const int64_t n = h.count();
  if (n == 0) return 0;
  const double target = std::min(std::max(q, 0.0), 1.0) * n;
  auto at_rank = [&](int64_t r) {  // upper bound of the r-th sample's bucket
    return h.Quantile((static_cast<double>(r) - 0.5) / static_cast<double>(n));
  };
  const int64_t r = std::max<int64_t>(1, static_cast<int64_t>(
                                             std::ceil(target)));
  const double upper = at_rank(std::min(r, n));
  int64_t first = std::min(r, n), last = first;
  while (first > 1 && at_rank(first - 1) == upper) --first;
  while (last < n && at_rank(last + 1) == upper) ++last;
  const double step = std::pow(10.0, 1.0 / H::kBucketsPerDecade);
  // The bucket's lower bound (the top bucket's upper bound is the max).
  const double k = std::ceil(std::log10(upper / H::kMinSeconds) *
                                 H::kBucketsPerDecade -
                             1e-9);
  const double lower =
      k <= 0 ? 0 : H::kMinSeconds * std::pow(step, k - 1);
  const double frac = (target - static_cast<double>(first - 1)) /
                      static_cast<double>(last - first + 1);
  if (lower <= 0) return upper * frac;
  return lower * std::pow(upper / lower, std::min(std::max(frac, 0.0), 1.0));
}

riot::CostModelOptions DiskCost() {
  riot::CostModelOptions c;
  c.read_mb_per_s = kReadMBps;
  c.write_mb_per_s = kWriteMBps;
  return c;
}

struct State {
  std::unique_ptr<riot::Env> base, disk;
  std::unique_ptr<riot::serve::Catalog> catalog;
  std::vector<JobSpec> jobs;
  // Per template: predicted bytes and flops of one job.
  double pred_read[3] = {}, pred_write[3] = {}, flops[3] = {};
};

// One pass of the cost-model pricing the catalog stamps onto every job
// (footprint and expected work) over the three templates: wall seconds,
// and CPU seconds of the calling thread (the server's workers run beside it).
std::pair<double, double> PriceTemplates(const riot::serve::Catalog& catalog) {
  const double t0 = Now(), c0 = CpuNow(CLOCK_THREAD_CPUTIME_ID);
  for (JobKind k : kKinds) {
    JobSpec job;
    job.kind = k;
    const riot::SessionSpec spec = catalog.Bind(job, 0);
    riot::EvaluatePlanCost(*spec.program, *spec.schedule, spec.realized,
                           DiskCost());
  }
  return {Now() - t0, CpuNow(CLOCK_THREAD_CPUTIME_ID) - c0};
}

// Gives exactly the target shares of whales and write mice to jobs the seed
// picks. Drawn one job at a time, the whale count alone (142 to 181 of 2000
// jobs over 20 seeds) moved io_mb by -8% to +10% around its median.
void FixMix(uint64_t seed, std::vector<JobSpec>* jobs) {
  const size_t n = jobs->size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  const auto whales = static_cast<size_t>(std::llround(kWhaleFraction * n));
  const auto writes =
      static_cast<size_t>(std::llround(kWriteFraction * (n - whales)));
  for (size_t i = 0; i < n; ++i) {
    (*jobs)[order[i]].kind = i < whales            ? JobKind::kWhale
                             : i < whales + writes ? JobKind::kWrite
                                                   : JobKind::kRead;
  }
}

Status Setup(const Args& args, State* st) {
  st->catalog.reset();
  st->base = riot::NewMemEnv();
  st->disk = riot::NewThrottledEnv(st->base.get(), kReadMBps, kWriteMBps,
                                   /*per_request_ms=*/0.2,
                                   /*sleep_scale=*/1.0);
  riot::serve::CatalogOptions copts;
  copts.num_datasets = kDatasets;
  copts.num_slots = Workers();
  copts.mouse_grid = 2;
  copts.mouse_block = 32;
  copts.whale_grid = 3;
  copts.whale_block = 64;
  copts.seed = args.seed;
  copts.cost = DiskCost();
  auto catalog = riot::serve::Catalog::Create(st->disk.get(), copts);
  if (!catalog.ok()) return catalog.status();
  st->catalog = std::move(catalog).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    JobSpec job;
    job.kind = kKinds[i];
    const riot::SessionSpec spec = st->catalog->Bind(job, 0);
    const riot::PlanCost c = riot::EvaluatePlanCost(
        *spec.program, *spec.schedule, spec.realized, DiskCost());
    st->pred_read[i] = static_cast<double>(c.read_bytes);
    st->pred_write[i] = static_cast<double>(c.write_bytes);
    st->flops[i] = ProgramFlops(*spec.program);
  }
  riot::serve::TrafficOptions traffic;
  traffic.offered_jobs_per_sec = kOfferedJobsPerSec;
  traffic.num_datasets = kDatasets;
  traffic.zipf_theta = 0.99;
  traffic.write_fraction = kWriteFraction;
  traffic.whale_fraction = kWhaleFraction;
  traffic.seed = args.seed;
  riot::serve::OpenLoopGenerator gen(traffic);
  st->jobs = gen.Take(static_cast<int64_t>(
      std::llround(kOfferedJobsPerSec * args.seconds)));
  FixMix(args.seed, &st->jobs);
  st->disk->stats().Reset();
  return Status::OK();
}

riot::serve::ServerOptions ServerOpts(const riot::serve::Catalog& catalog) {
  riot::serve::ServerOptions o;
  o.worker_threads = Workers();
  o.runtime.admission = riot::AdmissionPolicyKind::kShortestWork;
  o.runtime.admission_aging_seconds = 0.5;
  o.runtime.replacement = riot::ReplacementKind::kScheduleOpt;
  o.runtime.pool_cap_bytes = catalog.footprint_bytes(JobKind::kWhale) * 3 / 2;
  o.runtime.cost = DiskCost();
  return o;
}

// One open-loop window over jobs [begin, end) on a fresh server.
struct Window {
  riot::serve::MetricsSnapshot snap;
  riot::RuntimeStats rs;
  int64_t submitted = 0;
  int64_t by_kind[3] = {};
  double late_max = 0;
  std::vector<double> late;
  std::vector<double> submit_s;
  std::vector<double> pricing_s;      // one pass over the templates each
  std::vector<double> pricing_cpu_s;  // the same passes, CPU seconds
  double env_read = 0, env_write = 0, env_read_ops = 0, env_write_ops = 0;
  double env_io_s = 0, env_modeled_s = 0;
};

Window RunWindow(State* st, size_t begin, size_t end, Tracer* tracer) {
  Window w;
  riot::serve::Server server(st->catalog.get(), ServerOpts(*st->catalog));
  const riot::IoStats& io = st->disk->stats();
  const int64_t r0 = io.bytes_read, w0 = io.bytes_written;
  const int64_t ro0 = io.read_ops, wo0 = io.write_ops;
  const double ios0 = io.io_seconds(), mod0 = io.modeled_seconds();
  const double offset = st->jobs[begin].arrival_seconds;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = begin; i < end; ++i) {
    const JobSpec& job = st->jobs[i];
    const auto due =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(job.arrival_seconds - offset));
    std::this_thread::sleep_until(due);
    const auto now = std::chrono::steady_clock::now();
    w.late.push_back(std::chrono::duration<double>(now - due).count());
    w.late_max = std::max(w.late_max, w.late.back());
    {
      Scope span(tracer, "serve", "Submit", job.id);
      const double s0 = Now();
      server.Submit(job);
      w.submit_s.push_back(Now() - s0);
    }
    ++w.submitted;
    ++w.by_kind[static_cast<int>(job.kind)];
    // Time the templates' pricing while the generator has slack, so that
    // its median spans the whole window as the other timings do.
    const double slack =
        i + 1 < end ? st->jobs[i + 1].arrival_seconds - job.arrival_seconds
                    : 0;
    if (slack > 0.002) {
      Scope span(tracer, "core", "pricing");
      const auto [wall, cpu] = PriceTemplates(*st->catalog);
      w.pricing_s.push_back(wall);
      w.pricing_cpu_s.push_back(cpu);
    }
  }
  {
    Scope span(tracer, "serve", "Drain");
    server.Drain();
    w.snap = server.Snapshot();
    w.rs = server.runtime().stats();
    span.Add("completed", static_cast<double>(w.snap.completed));
    span.Add("failed", static_cast<double>(w.snap.failed));
    span.Add("runtime_wall_s", w.rs.wall_seconds);
  }
  w.env_read = static_cast<double>(io.bytes_read - r0);
  w.env_write = static_cast<double>(io.bytes_written - w0);
  w.env_read_ops = static_cast<double>(io.read_ops - ro0);
  w.env_write_ops = static_cast<double>(io.write_ops - wo0);
  w.env_io_s = io.io_seconds() - ios0;
  w.env_modeled_s = io.modeled_seconds() - mod0;
  Status released = st->catalog->ReleaseFrom(server.runtime());
  (void)released;  // the server and its pool end here either way
  return w;
}

// Every template on every dataset, run as one more session on the shared
// runtime of a server that has just served the traffic, must match a serial
// MemEnv run of the original schedule over the same inputs bit for bit.
Status VerifyServePath(State* st, Output* out) {
  riot::serve::Server server(st->catalog.get(), ServerOpts(*st->catalog));
  auto mem = riot::NewMemEnv();
  for (JobKind k : kKinds) {
    for (int d = 0; d < kDatasets; ++d) {
      JobSpec job;
      job.kind = k;
      job.dataset = d;
      const riot::SessionSpec spec = st->catalog->Bind(job, 0);
      const riot::Program& prog = *spec.program;
      std::vector<bool> written(prog.arrays().size(), false);
      for (const riot::Statement& s : prog.statements()) {
        written[static_cast<size_t>(s.WriteAccess()->array_id)] = true;
      }
      auto ref = riot::OpenStores(mem.get(), prog,
                                  std::string("/ref/") + KindName(k) + "/d" +
                                      std::to_string(d));
      if (!ref.ok()) return ref.status();
      for (const riot::ArrayInfo& a : prog.arrays()) {
        if (written[static_cast<size_t>(a.id)]) continue;
        RIOT_RETURN_NOT_OK(CopyArray(a, spec.stores[static_cast<size_t>(a.id)],
                                     ref->stores[static_cast<size_t>(a.id)]
                                         .get()));
      }
      riot::Executor ex(prog, ref->raw(), *spec.kernels, riot::ExecOptions{});
      auto rs = ex.Run(prog.original_schedule(), {});
      if (!rs.ok()) return rs.status();
      auto served = server.runtime().Run(spec);
      const std::string what =
          std::string("verify ") + KindName(k) + " d" + std::to_string(d);
      if (!served.ok()) {
        out->Fail(what, served.status());
        continue;
      }
      for (const riot::ArrayInfo& a : prog.arrays()) {
        if (!written[static_cast<size_t>(a.id)] || !a.persistent) continue;
        Status v = riot::VerifyBitEqual(
            a, ref->stores[static_cast<size_t>(a.id)].get(),
            spec.stores[static_cast<size_t>(a.id)]);
        if (!v.ok()) out->Mismatch(what + " " + a.name + ": " + v.ToString());
      }
    }
  }
  return st->catalog->ReleaseFrom(server.runtime());
}

// Traced run only: the core layer on the templates, engine cost per
// instance with no-op kernels (serial engine, MemEnv) and the kernel peak.
void Probe(State* st, Tracer* tracer, Output* out) {
  auto mem = riot::NewMemEnv();
  double wall = 0, instances = 0;
  for (JobKind k : kKinds) {
    JobSpec job;
    job.kind = k;
    const riot::SessionSpec spec = st->catalog->Bind(job, 0);
    const riot::Program& prog = *spec.program;
    {
      Scope span(tracer, "core", std::string("AnalyzeProgram/") + KindName(k));
      riot::AnalyzeProgram(prog);
    }
    {
      Scope span(tracer, "core",
                 std::string("EvaluatePlanCost/") + KindName(k));
      riot::EvaluatePlanCost(prog, *spec.schedule, spec.realized, DiskCost());
    }
    auto rt = riot::OpenStores(mem.get(), prog,
                               std::string("/noop/") + KindName(k));
    Status filled = rt.status();
    for (const riot::ArrayInfo& a : prog.arrays()) {
      if (filled.ok()) {
        filled =
            riot::ZeroArray(a, rt->stores[static_cast<size_t>(a.id)].get());
      }
    }
    if (!filled.ok()) {
      out->Fail("noop probe", filled);
      continue;
    }
    std::vector<riot::StatementKernel> noop(
        prog.statements().size(),
        [](const std::vector<int64_t>&, const std::vector<riot::DenseView*>&) {
        });
    Scope span(tracer, "exec", std::string("noop/") + KindName(k));
    const double t0 = Now();
    riot::Executor ex(prog, rt->raw(), noop, riot::ExecOptions{});
    auto s = ex.Run(*spec.schedule, spec.realized);
    if (!s.ok()) {
      out->Fail("noop probe", s.status());
      continue;
    }
    wall += Now() - t0;
    instances += static_cast<double>(CountInstances(prog));
  }
  SetLayer(out, "exec.ns_per_instance_noop",
           instances > 0 ? wall / instances * 1e9 : 0);
  Scope span(tracer, "kernels", "CalibrateKernelRates");
  SetLayer(out, "kernels.calibrated_gemm_gflop_s",
           riot::CalibrateKernelRates(200, Workers()).gemm_gflops);
}

void DeriveLayers(const State& st, const Window& w, Output* out) {
  const riot::RuntimeStats& rs = w.rs;
  const auto& snap = w.snap;
  double pred_r = 0, pred_w = 0, flops = 0;
  for (int i = 0; i < 3; ++i) {
    pred_r += st.pred_read[i] * static_cast<double>(w.by_kind[i]);
    pred_w += st.pred_write[i] * static_cast<double>(w.by_kind[i]);
    flops += st.flops[i] * static_cast<double>(w.by_kind[i]);
  }
  const double measured_r = static_cast<double>(rs.bytes_read);
  const double measured_w = static_cast<double>(rs.bytes_written);
  SetLayer(out, "core.io_pred_ratio",
           (measured_r + measured_w) / std::max(1.0, pred_r + pred_w));
  const double overlap =
      std::max(0.0, rs.io_seconds + rs.compute_seconds - rs.wall_seconds);
  SetLayer(out, "exec.io_s", rs.io_seconds);
  SetLayer(out, "exec.compute_s", rs.compute_seconds);
  SetLayer(out, "exec.overlap_s", overlap);
  SetLayer(out, "exec.overlap_frac",
           overlap / std::max(1e-12, rs.io_seconds + rs.compute_seconds));
  SetLayer(out, "exec.self_s",
           rs.wall_seconds - (rs.io_seconds + rs.compute_seconds - overlap));
  SetLayer(out, "exec.prefetch_hits", static_cast<double>(rs.prefetch_hits));
  SetLayer(out, "exec.block_reads", static_cast<double>(rs.block_reads));
  SetLayer(out, "exec.block_writes", static_cast<double>(rs.block_writes));
  SetLayer(out, "exec.policy_saved_reads",
           static_cast<double>(rs.policy_saved_reads));
  SetLayer(out, "exec.read_amp", measured_r / std::max(1.0, pred_r));
  SetLayer(out, "kernels.compute_s", rs.compute_seconds);
  const double gflops =
      rs.compute_seconds > 0 ? flops / rs.compute_seconds / 1e9 : 0;
  SetLayer(out, "kernels.gflop_s", gflops);
  const double calibrated =
      out->per_layer["kernels.calibrated_gemm_gflop_s"].value;
  SetLayer(out, "kernels.frac_of_calibrated",
           calibrated > 0 ? gflops / calibrated : 0);
  SetLayer(out, "kernels.flop_per_byte",
           flops / std::max(1.0, w.env_read + w.env_write));

  SetLayer(out, "storage.read_mb", w.env_read / 1e6);
  SetLayer(out, "storage.write_mb", w.env_write / 1e6);
  SetLayer(out, "storage.read_ops", w.env_read_ops);
  SetLayer(out, "storage.write_ops", w.env_write_ops);
  SetLayer(out, "storage.modeled_s", w.env_modeled_s);
  SetLayer(out, "storage.env_io_s", w.env_io_s);
  const double hits = static_cast<double>(rs.pool.hits);
  const double misses = static_cast<double>(rs.pool.misses);
  SetLayer(out, "storage.pool_hit_frac",
           hits + misses > 0 ? hits / (hits + misses) : 0);
  SetLayer(out, "storage.evictions", static_cast<double>(rs.pool.evictions));
  SetLayer(out, "storage.prefetch_issued",
           static_cast<double>(rs.pool.prefetch_issued));
  SetLayer(out, "storage.prefetch_declined",
           static_cast<double>(rs.pool.prefetch_declined));
  SetLayer(out, "storage.prefetch_abandoned",
           static_cast<double>(rs.pool.prefetch_abandoned));
  SetLayer(out, "storage.coalesced_loads",
           static_cast<double>(rs.pool.coalesced_loads));

  SetLayer(out, "ops.admission_wait_p99_s", HistQuantile(snap.admission_wait, 0.99));
  SetLayer(out, "ops.admission_wait_mean_s",
           snap.admission_wait.mean_seconds());
  SetLayer(out, "ops.sessions_parked", static_cast<double>(rs.sessions_parked));
  SetLayer(out, "ops.session_parks", static_cast<double>(rs.session_parks));
  SetLayer(out, "ops.peak_reserved_mb",
           static_cast<double>(rs.peak_reserved_bytes) / 1e6);
  SetLayer(out, "ops.block_reads", static_cast<double>(rs.block_reads));
  SetLayer(out, "ops.policy_saved_reads",
           static_cast<double>(rs.policy_saved_reads));

  SetLayer(out, "serve.queue_wait_p99_s", HistQuantile(snap.queue_wait, 0.99));
  SetLayer(out, "serve.exec_wall_p50_s", HistQuantile(snap.exec_wall, 0.50));
  SetLayer(out, "serve.exec_wall_p99_s", HistQuantile(snap.exec_wall, 0.99));
  SetLayer(out, "serve.submit_us_p99", Quantile(w.submit_s, 0.99) * 1e6);
  SetLayer(out, "serve.gen_late_max_s", w.late_max);
  SetLayer(out, "serve.throughput_jobs_s", snap.throughput_jobs_per_sec);
  SetLayer(out, "serve.p99_s", HistQuantile(snap.latency, 0.99));
  SetLayer(out, "serve.mouse_p99_s", HistQuantile(snap.latency_mice, 0.99));
  SetLayer(out, "serve.whale_p90_s",
           HistQuantile(snap.latency_whales, 0.90));
}

void CheckWindow(const Window& w, Output* out) {
  if (w.snap.completed + w.snap.failed != w.submitted) {
    out->Mismatch("completed + failed != submitted (" +
                  std::to_string(w.snap.completed) + " + " +
                  std::to_string(w.snap.failed) + " != " +
                  std::to_string(w.submitted) + ")");
  }
  out->attempted += w.submitted;
  out->failed += w.snap.failed;
  if (w.snap.failed > 0) {
    out->failures["serve job: failed session"] += w.snap.failed;
  }
}

}  // namespace

Status RunServeZipf(const Args& args, Output* out) {
  State st;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = Now();
    RIOT_RETURN_NOT_OK(Setup(args, &st));
    setup_s.push_back(Now() - t0);
  }
  if (st.jobs.size() < 2) return Status::InvalidArgument("too few jobs");

  Tracer tracer(false);
  const size_t n = st.jobs.size();
  const size_t split = args.trace ? n / 2 : n;
  Window w = RunWindow(&st, 0, split, &tracer);
  CheckWindow(w, out);
  if (args.trace) {
    tracer.set_enabled(true);
    Window traced = RunWindow(&st, split, n, &tracer);
    CheckWindow(traced, out);
    InitPerLayer(out);
    Probe(&st, &tracer, out);
    tracer.set_enabled(false);
    DeriveLayers(st, traced, out);
    SetLayer(out, "trace.overhead_frac",
             traced.snap.latency.mean_seconds() /
                     std::max(1e-12, w.snap.latency.mean_seconds()) -
                 1.0);
    SetLayer(out, "trace.spans", static_cast<double>(tracer.spans().size()));
    SetLayer(out, "core.analyze_s", tracer.Seconds("core", "AnalyzeProgram"));
    SetLayer(out, "core.cost_s", tracer.Seconds("core", "EvaluatePlanCost"));
    if (!args.trace_out.empty()) {
      RIOT_RETURN_NOT_OK(tracer.WriteChromeTrace(args.trace_out));
    }
  }
  RIOT_RETURN_NOT_OK(VerifyServePath(&st, out));

  const auto& snap = w.snap;
  const int64_t done = snap.completed + snap.failed;
  auto& e2e = out->end_to_end;
  e2e["setup_s"] = Metric{Median(setup_s), "s",
                          static_cast<int64_t>(setup_s.size())};
  e2e["optimize_cpu_s"] =
      Metric{Median(w.pricing_cpu_s), "s",
             static_cast<int64_t>(w.pricing_cpu_s.size())};
  out->info["optimize_s"] = Metric{Median(w.pricing_s), "s",
                                   static_cast<int64_t>(w.pricing_s.size())};
  e2e["exec_s"] = Metric{w.rs.wall_seconds, "s", w.rs.sessions_completed};
  e2e["io_mb"] = Metric{(w.env_read + w.env_write) / 1e6, "MB", 1};
  e2e["peak_mem_mb"] =
      Metric{static_cast<double>(w.rs.peak_reserved_bytes) / 1e6, "MB", 1};
  e2e["rss_mb"] = Metric{MaxRssMb(), "MB", 1};
  e2e["ok_frac"] = Metric{
      static_cast<double>(snap.completed) /
          static_cast<double>(std::max<int64_t>(1, w.submitted)),
      "fraction", w.submitted};
  e2e["p50_s"] = Metric{HistQuantile(snap.latency, 0.50), "s", done};
  out->info["p95_s"] = Metric{HistQuantile(snap.latency, 0.95), "s", done};
  out->info["p99_s"] = Metric{HistQuantile(snap.latency, 0.99), "s", done};
  out->info["mouse_p99_s"] =
      Metric{HistQuantile(snap.latency_mice, 0.99), "s",
             snap.latency_mice.count()};
  out->info["whale_p90_s"] =
      Metric{HistQuantile(snap.latency_whales, 0.90), "s",
             snap.latency_whales.count()};
  out->info["failed_frac"] = Metric{
      static_cast<double>(snap.failed) /
          static_cast<double>(std::max<int64_t>(1, w.submitted)),
      "fraction", w.submitted};
  out->info["gen_late_max_s"] = Metric{w.late_max, "s", w.submitted};
  out->info["gen_late_p50_s"] = Metric{Quantile(w.late, 0.5), "s", w.submitted};
  out->info["gen_late_p99_s"] = Metric{Quantile(w.late, 0.99), "s", w.submitted};
  out->info["throughput_jobs_s"] =
      Metric{snap.throughput_jobs_per_sec, "1/s", -1};
  if (Quantile(w.late, 0.99) > kMaxLateP99Seconds) {
    out->invalid = "the generator submitted more than 1% of jobs over " +
                   std::to_string(kMaxLateP99Seconds) + " s late";
  }
  return Status::OK();
}

}  // namespace perfbench
