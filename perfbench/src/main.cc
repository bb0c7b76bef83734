// riot_perfbench: runs one benchmark workload and prints its result.
//
//   riot_perfbench --workload <paper_disk|mem_parallel|serve_zipf>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>]
//
// Prints a human-readable report, then one line "REPORT <json>" holding
// every metric (end-to-end with --trace 0, per-layer with --trace 1) with
// its unit and sample count, the named failures and the build. Exits 1
// without a REPORT line when set-up fails, and 2 when an output differs
// from its reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit);
    if (metric.samples >= 0) {
      out += ", \"samples\": " + std::to_string(metric.samples);
    }
    out += "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::map<std::string, Metric>& m) {
  if (m.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    if (metric.samples >= 0) {
      std::printf("  %-34s %16.6f %-8s (n=%lld)\n", name.c_str(), metric.value,
                  metric.unit.c_str(), static_cast<long long>(metric.samples));
    } else {
      std::printf("  %-34s %16.6f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: riot_perfbench --workload <paper_disk|mem_parallel|"
               "serve_zipf> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--trace-out") {
      args.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  Output out;
  riot::Status s;
  if (args.workload == "paper_disk") {
    s = RunPaperDisk(args, &out);
  } else if (args.workload == "mem_parallel") {
    s = RunMemParallel(args, &out);
  } else if (args.workload == "serve_zipf") {
    s = RunServeZipf(args, &out);
  } else {
    return Usage();
  }
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                 args.workload.c_str(), s.ToString().c_str());
    return 1;
  }
  if (!out.correct) {
    std::fprintf(stderr, "perfbench: %s OUTPUT MISMATCH: %s\n",
                 args.workload.c_str(), out.mismatch.c_str());
    return 2;
  }

  std::printf("== %s seed=%llu seconds=%g trace=%d build=%s nproc=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, Nproc());
  // The traced run's end-to-end numbers come from its untraced half only.
  if (args.trace) out.end_to_end.clear();
  PrintTable("end-to-end:", out.end_to_end);
  PrintTable("per-layer:", out.per_layer);
  PrintTable("info:", out.info);
  if (!out.invalid.empty()) {
    std::printf("INVALID RUN: %s\n", out.invalid.c_str());
  }
  std::printf("operations: %lld attempted, %lld failed on first attempt\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  std::string failures = "{";
  for (const auto& [what, n] : out.failures) {
    std::printf("  failure x%lld: %s\n", static_cast<long long>(n),
                what.c_str());
    if (failures.size() > 1) failures += ", ";
    failures += JsonString(what) + ": " + std::to_string(n);
  }
  failures += "}";

  std::string report = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + JsonString(__VERSION__) +
                       ", \"nproc\": " + std::to_string(Nproc()) +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"failures\": " + failures +
                       ", \"invalid\": " + JsonString(out.invalid) +
                       ", \"end_to_end\": " + MetricsJson(out.end_to_end) +
                       ", \"per_layer\": " + MetricsJson(out.per_layer) +
                       ", \"info\": " + MetricsJson(out.info) + "}";
  std::printf("REPORT %s\n", report.c_str());
  return 0;
}
