// Shared plumbing of the ferro benchmark: clocks, order statistics, the
// in-memory span recorder, the metric table every workload fills, and the
// timed loop that drives one workload's public call for --seconds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line configuration of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned workers = 1;
  bool tiny = false;     ///< self-test size: a fraction of the real inputs
  bool corrupt = false;  ///< self-test: corrupt one result copy before the gate
  std::string data_dir = "perfbench/data";
  std::string out_dir = ".bench_build/out";
  std::string trace_out;  ///< Chrome trace-event file (traced runs only)
};

/// Monotonic wall clock [s].
[[nodiscard]] double now_s();
/// Process CPU time, user + system, all threads [s].
[[nodiscard]] double cpu_s();
/// Cost of one now_s() call [s], calibrated (median of several passes);
/// subtracted from intervals short enough for it to matter.
[[nodiscard]] double clock_read_s();
/// Peak resident set size of this process [MB].
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// One closed interval of work around a public call (or a callback the
/// library made into benchmark code). `id` is the corner, fit, scenario or
/// op index; `parent` is the index of the enclosing span, -1 at top level.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint32_t thread = 0;
};

/// Spans kept in memory and written once, at the end of a traced run.
/// Recording is a no-op while disabled, so the untraced run only pays one
/// relaxed load per would-be span.
class Tracer {
 public:
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Opens a span starting now; returns its index (-1 when disabled).
  std::int64_t open(const char* name, std::uint64_t id, std::int64_t parent);
  /// Closes a span open() returned (no-op for -1).
  void close(std::int64_t span);

  /// The span worker-thread callbacks attach to (the op in flight).
  void set_current(std::int64_t span) {
    current_.store(span, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }

  /// Durations [us] of every span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Sum of durations [s] of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, ts/dur in us). False on IO error.
  bool write_chrome(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::int64_t> current_{-1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  double origin_ = now_s();
};

[[nodiscard]] Tracer& tracer();

/// RAII span: open on construction, closed on destruction.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t id, std::int64_t parent)
      : index_(tracer().open(name, id, parent)) {}
  ~SpanScope() { tracer().close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  std::int64_t index_;
};

/// The per-op timings of one timed loop.
struct LoopTimes {
  std::vector<double> wall_s;  ///< per op
  std::vector<double> cpu_s;   ///< per op, process-wide
  [[nodiscard]] std::size_t ops() const { return wall_s.size(); }
  [[nodiscard]] double total_wall() const;
  [[nodiscard]] double total_cpu() const;
};

/// Runs op(k) for k = 0, 1, ... until the ops' summed wall time reaches
/// `seconds` and at least `min_ops` ran, calling `between` (untimed) after
/// each op. A wall-clock cap (3x seconds plus the time the first op took)
/// keeps a stalled host from overrunning the run's time limit. Every op is
/// a span named `span_name` when tracing.
LoopTimes timed_loop(double seconds, std::size_t min_ops, const char* span_name,
                     const std::function<void(std::size_t)>& op,
                     const std::function<void()>& between = {});

/// Times repeated set-ups; setup_s is their median. One set-up is short
/// (tens of us to a few ms), and the same binary's short intervals were
/// seen to run ~1.6x apart from one process to the next on a shared host,
/// so the samples are taken between the ops of the timed loop, spread over
/// the whole run, rather than back to back at start.
class SetupTimer {
 public:
  /// Runs `fn`, records its wall time, returns its result.
  template <typename F>
  auto time(F&& fn) {
    const double t0 = now_s();
    auto result = fn();
    samples_.push_back(now_s() - t0);
    return result;
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

/// Metric values of one run, by name. Units live in the catalogue
/// (main.cpp), which is the single list BENCHMARK.json mirrors.
using Values = std::map<std::string, double>;

/// What a workload hands back to main.
struct Outcome {
  bool correct = true;
  std::string failure;  ///< first correctness-gate failure
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values values;

  /// Latches a correctness failure (the first one wins).
  void fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

/// Bitwise equality of two doubles (NaN payloads and signed zeros count).
[[nodiscard]] bool same_bits(double a, double b);

/// Fills the end-to-end metrics every workload derives the same way from its
/// timed loop: items_per_s, op_ms_p50/p90 and cpu_ms_per_item.
void fill_loop_metrics(Outcome& out, const LoopTimes& loop,
                       double items_per_op);

/// Reads a whole file; throws std::runtime_error when it cannot.
[[nodiscard]] std::string read_file(const std::string& path);

/// Workload entry points (one per translation unit).
Outcome run_mc(const Options& options, bool rectifier);
Outcome run_fit(const Options& options);
Outcome run_stream(const Options& options);

}  // namespace perfbench
