// ferro_perfbench — the repository benchmark (see perfbench/README.md).
//
//   ferro_perfbench --workload mc_inrush --seed 1 --seconds 10 --trace 0
//                   [--data-dir DIR] [--out-dir DIR]
//                   [--trace-out FILE] [--tiny] [--corrupt]
//   ferro_perfbench --make-reference FILE [--data-dir DIR]
//
// Prints a build/host fingerprint to stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end catalogue below, with
// --trace 1 the per-layer catalogue. A correctness-gate failure prints
// correct=false with no metrics and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "reference.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The catalogue BENCHMARK.json mirrors (the self-test checks that it does).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"items_per_s", "1/s"},
    {"op_ms_p50", "ms"},       {"op_ms_p90", "ms"},
    {"cpu_ms_per_item", "ms"}, {"peak_rss_mb", "MB"},
    {"rel_err", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"ckt.newton_iters_per_step", "count"},
    {"ckt.step_reject_ratio", "ratio"},
    {"ckt.steps_per_corner", "count"},
    {"ckt.forced_accepts_per_corner", "count"},
    {"ckt.corner_build_us.p50", "us"},
    {"ckt.corner_build_us.p99", "us"},
    {"ckt.newton_iter_us", "us"},
    {"ckt.stamp_core_us", "us"},
    {"ckt.stamp_linear_us", "us"},
    {"ckt.commit_core_us", "us"},
    {"ckt.packable_core_share", "ratio"},
    {"ams.lu_factor_us", "us"},
    {"ams.lu_solve_us", "us"},
    {"ams.mna_size", "count"},
    {"mag.ja_batch_ns_per_sample", "ns"},
    {"mag.ja_scalar_ns_per_sample", "ns"},
    {"mag.energy_batch_ns_per_sample", "ns"},
    {"mag.substeps_per_sample", "count"},
    {"core.packable_share", "ratio"},
    {"core.shared_drive_share", "ratio"},
    {"core.quarantined", "count"},
    {"core.sink_us.p50", "us"},
    {"core.sink_us.p99", "us"},
    {"core.sink_busy_share", "ratio"},
    {"fit.generations_per_fit", "count"},
    {"fit.evals_per_fit", "count"},
    {"fit.us_per_eval", "us"},
    {"fit.converged_share", "ratio"},
    {"fit.residual_t", "T"},
    {"fail_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

/// Explicit worker count of a workload, capped at nproc (the library's
/// default, hardware concurrency, is never used). The sweeps and fits run
/// serially: on a shared host a two-worker sweep's p90 jumped to 1.6x its
/// p50 in some runs, a serial one stayed within 1.15x. scenario_stream
/// keeps two workers plus the sink's consumer thread — the streaming
/// pipeline it exists to measure.
unsigned workers_for(const std::string& workload) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  return std::min(workload == "scenario_stream" ? 2u : 1u, nproc);
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "ferro_perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// Reasons this build must not report numbers (empty when it may).
std::string build_refusal() {
  std::string why;
#ifndef NDEBUG
  why += " NDEBUG unset (assertions on);";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += " sanitizer instrumentation;";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) || __has_feature(memory_sanitizer)
  why += " sanitizer instrumentation;";
#endif
#endif
#ifdef FERRO_FAULT_INJECTION
  why += " FERRO_FAULT_INJECTION compiled in;";
#endif
  return why;
}

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The SIMD-relevant CPU flags the host advertises.
std::string cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::string out;
    for (const char* f : {"sse2", "avx", "avx2", "fma", "avx512f"}) {
      if (line.find(std::string(" ") + f + " ") != std::string::npos) {
        out += out.empty() ? f : std::string(",") + f;
      }
    }
    return out;
  }
  return "unknown";
}

void print_fingerprint(const Options& o, const std::string& source_id) {
  std::fprintf(stderr,
               "fingerprint: {\"source\": \"%s\", \"compiler\": \"%s\", "
               "\"cpu_flags\": \"%s\", \"simd_width\": %d, \"nproc\": %u, "
               "\"loadavg\": \"%s\", \"workers\": %u, \"workload\": \"%s\", "
               "\"seed\": %llu, \"trace\": %d}\n",
               source_id.c_str(), PERFBENCH_COMPILER, cpu_flags().c_str(),
               ferro::mag::TimelessJaBatch::active_simd_width(),
               std::thread::hardware_concurrency(),
               first_line("/proc/loadavg").c_str(), o.workers,
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.trace ? 1 : 0);
}

void print_result(const Outcome& out, bool trace) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  if (out.correct) {
    bool first = true;
    const auto emit = [&](const MetricSpec& m, double value) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      json += first ? "" : ", ";
      json += std::string("\"") + m.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    };
    if (trace) {
      // A layer the workload never enters did no work: it reports 0.
      for (const MetricSpec& m : kPerLayer) {
        const auto it = out.values.find(m.name);
        emit(m, it == out.values.end() ? 0.0 : it->second);
      }
    } else {
      for (const MetricSpec& m : kEndToEnd) emit(m, out.values.at(m.name));
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int make_reference_file(const Options& o, const std::string& path,
                        const std::string& source_id) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) usage_error("cannot write " + path);
  std::fprintf(
      f,
      "# Accuracy reference of the ferro benchmark (rel_err). Never regenerated\n"
      "# by a benchmark run; regenerate only when the reference itself changes:\n"
      "#   python3 perfbench/run.py --make-reference perfbench/data/reference.txt\n"
      "# source: %s\n"
      "# mc_<deck> <corner> <abs_peak of the probe> <scatter factors...>:\n"
      "#   ckt::MonteCarlo kScalar, transient dt_max / 10, sampler seed %llu,\n"
      "#   corners 0..7 of the deck's scatter spec.\n"
      "# scenario_stream <scenario> <loop area [J/m^3]> <production dhmax>:\n"
      "#   core::run_scenario at dhmax / 10, sub-steps <= dhmax / 10, of the\n"
      "#   first eight kDirect JA sweeps\n"
      "#   of the seed-%llu batch.\n",
      source_id.c_str(), static_cast<unsigned long long>(kReferenceSeed),
      static_cast<unsigned long long>(kReferenceSeed));
  append_mc_reference(o, false, f);
  append_mc_reference(o, true, f);
  append_stream_reference(f);
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string reference_path;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--data-dir") {
      o.data_dir = value();
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--source-id") {
      source_id = value();
    } else if (arg == "--make-reference") {
      reference_path = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  o.workers = workers_for(o.workload);

  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "ferro_perfbench: refusing to report:%s\n",
                 refusal.c_str());
    return 4;
  }
  if (!reference_path.empty()) return make_reference_file(o, reference_path, source_id);
  if (!have_workload || !(o.seconds > 0.0)) {
    usage_error("need --workload NAME and --seconds > 0");
  }
  print_fingerprint(o, source_id);

  Outcome out;
  try {
    if (o.workload == "mc_inrush") {
      out = run_mc(o, false);
    } else if (o.workload == "mc_rectifier") {
      out = run_mc(o, true);
    } else if (o.workload == "fit_library") {
      out = run_fit(o);
    } else if (o.workload == "scenario_stream") {
      out = run_stream(o);
    } else {
      usage_error("unknown workload " + o.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ferro_perfbench: %s\n", e.what());
    return 3;
  }
  out.values["peak_rss_mb"] = peak_rss_mb();
  out.values["fail_ratio"] = out.attempted == 0
                                 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted);
  if (out.attempted == 0) out.fail("no operation was attempted");
  if (o.trace && !o.trace_out.empty() && !tracer().write_chrome(o.trace_out)) {
    std::fprintf(stderr, "ferro_perfbench: cannot write %s\n", o.trace_out.c_str());
  }
  if (!out.correct) {
    std::fprintf(stderr, "ferro_perfbench: correctness gate failed: %s\n",
                 out.failure.c_str());
  }
  print_result(out, o.trace);
  return out.correct ? 0 : 1;
}
