#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double clock_read_s() {
  std::vector<double> per_call;
  for (int pass = 0; pass < 7; ++pass) {
    constexpr int kCalls = 2000;
    const double t0 = now_s();
    double sink = 0.0;
    for (int i = 0; i < kCalls; ++i) sink += now_s();
    const double t1 = now_s();
    per_call.push_back((t1 - t0) / kCalls + (sink < 0.0 ? 1.0 : 0.0));
  }
  return median(std::move(per_call));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // launcher's footprint (run.py's Python process) would leak into it.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::int64_t Tracer::open(const char* name, std::uint64_t id,
                          std::int64_t parent) {
  if (!on()) return -1;
  const auto thread = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffu);
  const double t0 = now_s();
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{name, id, parent, t0, t0, thread});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t span) {
  if (span < 0) return;
  const double t1 = now_s();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(span)].t1 = t1;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.t1 - s.t0) * 1e6);
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.t1 - s.t0;
  }
  return total;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"span\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, (s.t0 - origin_) * 1e6,
                 (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.id), i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double LoopTimes::total_wall() const {
  double t = 0.0;
  for (double w : wall_s) t += w;
  return t;
}

double LoopTimes::total_cpu() const {
  double t = 0.0;
  for (double c : cpu_s) t += c;
  return t;
}

LoopTimes timed_loop(double seconds, std::size_t min_ops, const char* span_name,
                     const std::function<void(std::size_t)>& op,
                     const std::function<void()>& between) {
  LoopTimes times;
  double summed = 0.0;
  const double start = now_s();
  double cap = 0.0;
  for (std::size_t k = 0; summed < seconds || k < min_ops; ++k) {
    const double c0 = cpu_s();
    const double t0 = now_s();
    {
      SpanScope span(span_name, k, -1);
      tracer().set_current(span.index());
      op(k);
    }
    const double t1 = now_s();
    const double c1 = cpu_s();
    times.wall_s.push_back(t1 - t0);
    times.cpu_s.push_back(c1 - c0);
    summed += t1 - t0;
    if (between) between();
    if (k == 0) cap = 3.0 * seconds + 2.0 * (t1 - t0);
    if (k + 1 >= min_ops && t1 - start > cap) break;
  }
  return times;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void fill_loop_metrics(Outcome& out, const LoopTimes& loop,
                       double items_per_op) {
  const double p50 = median(loop.wall_s);
  out.values["items_per_s"] = items_per_op / p50;
  out.values["op_ms_p50"] = 1e3 * p50;
  out.values["op_ms_p90"] = 1e3 * quantile(loop.wall_s, 0.9);
  out.values["cpu_ms_per_item"] =
      1e3 * loop.total_cpu() /
      (items_per_op * static_cast<double>(loop.ops()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace perfbench
