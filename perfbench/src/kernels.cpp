#include "kernels.hpp"

#include <cstdio>

#include "mag/bh.hpp"
#include "mag/energy_based_batch.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace perfbench {

using namespace ferro;

wave::HSweep major_loop(const mag::JaParameters& p) {
  const double amp = 5.0 * (p.a + p.k);
  return wave::SweepBuilder(amp / 500.0).cycles(amp, 2).build();
}

namespace {

/// Receives the scalar model's output so the timed loop cannot be elided.
volatile double g_sink = 0.0;

/// Median of `pass()` timings [s] over repeats filling `budget_s`.
template <typename F>
double median_pass(double budget_s, F&& pass) {
  std::vector<double> t;
  const double start = now_s();
  do {
    const double t0 = now_s();
    pass();
    t.push_back(now_s() - t0);
  } while (now_s() - start < budget_s || t.size() < 3);
  return median(std::move(t));
}

}  // namespace

KernelFigures measure_ja_kernels(const std::vector<JaLane>& lanes,
                                 double budget_s) {
  KernelFigures k;
  if (lanes.empty()) return k;

  std::vector<const JaLane*> packed;
  for (const JaLane& l : lanes) {
    if (mag::TimelessJaBatch::supports(l.config)) packed.push_back(&l);
  }
  if (!packed.empty()) {
    std::vector<const wave::HSweep*> sweeps;
    double samples = 0.0;
    for (const JaLane* l : packed) {
      sweeps.push_back(&l->sweep);
      samples += static_cast<double>(l->sweep.size());
    }
    std::vector<mag::BhCurve> curves;
    const double t = median_pass(budget_s / 2.0, [&] {
      SpanScope span("TimelessJaBatch::run", packed.size(), -1);
      mag::TimelessJaBatch batch(mag::BatchMath::kExact);
      for (const JaLane* l : packed) batch.add_lane(l->params, l->config);
      batch.run(sweeps, curves);
    });
    k.batch_ns_per_sample = 1e9 * t / samples;
  }

  double samples = 0.0;
  for (const JaLane& l : lanes) samples += static_cast<double>(l.sweep.size());
  double steps = 0.0;
  const double t = median_pass(budget_s / 2.0, [&] {
    steps = 0.0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      SpanScope span("TimelessJa::apply", i, -1);
      mag::TimelessJa model(lanes[i].params, lanes[i].config);
      double m = 0.0;
      for (double h : lanes[i].sweep.h) m += model.apply(h);
      g_sink = m;
      steps += static_cast<double>(model.stats().integration_steps);
    }
  });
  k.scalar_ns_per_sample = 1e9 * t / samples;
  k.substeps_per_sample = steps / samples;
  return k;
}

double measure_energy_kernel(const std::vector<EnergyLane>& lanes,
                             double budget_s) {
  if (lanes.empty()) return 0.0;
  std::vector<const wave::HSweep*> sweeps;
  double samples = 0.0;
  for (const EnergyLane& l : lanes) {
    sweeps.push_back(&l.sweep);
    samples += static_cast<double>(l.sweep.size());
  }
  std::vector<mag::BhCurve> curves;
  const double t = median_pass(budget_s, [&] {
    SpanScope span("EnergyBasedBatch::run", lanes.size(), -1);
    mag::EnergyBasedBatch batch(mag::BatchMath::kExact);
    for (const EnergyLane& l : lanes) batch.add_lane(l.params);
    batch.run(sweeps, curves);
  });
  return 1e9 * t / samples;
}

void print_split(const std::string& workload, const Values& v) {
  const double iter = v.at("ckt.newton_iter_us");
  const double lu = v.at("ams.lu_factor_us") + v.at("ams.lu_solve_us");
  const double ja = v.at("ckt.stamp_core_us") + v.at("ckt.commit_core_us");
  const double other = v.at("ckt.stamp_linear_us");
  const double rest = iter - lu - ja - other;
  std::fprintf(stderr,
               "%s: Newton-iteration time split (serial replay, %.2f us/iter,"
               " MNA %gx%g)\n"
               "  %-34s %8s %10s\n"
               "  %-34s %7.1f%% %10s\n"
               "  %-34s %7.1f%% %10s\n"
               "  %-34s %7.1f%% %10s\n"
               "  %-34s %7.1f%% %10s\n",
               workload.c_str(), iter, v.at("ams.mna_size"),
               v.at("ams.mna_size"), "layer", "replay", "gprof",
               "LU factor + solve", 100.0 * lu / iter, "~50%",
               "JA core stamps + commits", 100.0 * ja / iter, "~25%",
               "other device stamps", 100.0 * other / iter, "~10%",
               "rest of advance()", 100.0 * rest / iter, "-");
}

}  // namespace perfbench
