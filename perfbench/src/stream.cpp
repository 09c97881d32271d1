// scenario_stream: one large seeded heterogeneous batch — JA kDirect,
// kSystemC and kAms scenarios (the kAms ones sharing a few excitations),
// energy-based sweeps and a few flux-driven (never packed) scenarios —
// streamed by BatchRunner::run (Packing::kExact) into a CSV curve sink.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/batch_runner.hpp"
#include "core/frontend_plan.hpp"
#include "core/scenario.hpp"
#include "core/stream_sinks.hpp"
#include "kernels.hpp"
#include "mag/energy_based.hpp"
#include "mag/ja_params.hpp"
#include "reference.hpp"
#include "util/rng.hpp"
#include "wave/sweep.hpp"

namespace perfbench {
namespace {

using namespace ferro;

constexpr std::size_t kCurveStride = 32;  ///< CSV keeps every 32nd BH point

enum class Mix { kDirect, kSystemC, kAms, kEnergy, kFlux };

/// Largest |H| of a sweep [A/m].
double peak(const wave::HSweep& sweep) {
  double p = 0.0;
  for (double h : sweep.h) p = std::max(p, std::fabs(h));
  return p;
}

/// Two major cycles at a seeded amplitude around 5 (a + k), 200 samples
/// per leg (a fixed length keeps the batch's cost close to seed-independent).
wave::HSweep ja_sweep(const mag::JaParameters& p, util::SplitMix64& rng) {
  const double amp = 5.0 * (p.a + p.k) * (0.6 + 0.8 * rng.next_unit());
  return wave::SweepBuilder(amp / 200.0).cycles(amp, 2).build();
}

/// The batch of seed `seed`: `n` scenarios in a seeded order — 40 %
/// kDirect, 15 % kSystemC, 15 % kAms over three shared drives, two
/// flux-driven, the rest energy-based — with seeded materials, amplitudes
/// and discretisations. Exact kind counts keep the batch's cost close to
/// seed-independent.
std::vector<core::Scenario> make_batch(std::uint64_t seed, std::size_t n) {
  util::SplitMix64 rng(util::SplitMix64::mix(seed ^ 0x5ce7a210ULL));
  const auto& library = mag::material_library();
  const auto pick = [&] { return library[rng.next() % library.size()]; };

  std::vector<wave::HSweep> shared;  // the kAms excitations
  for (int d = 0; d < 3; ++d) shared.push_back(ja_sweep(pick().params, rng));

  std::vector<Mix> mixes(n, Mix::kEnergy);
  const std::size_t direct = n * 40 / 100, systemc = n * 15 / 100,
                    ams = n * 15 / 100;
  std::fill_n(mixes.begin(), direct, Mix::kDirect);
  std::fill_n(mixes.begin() + direct, systemc, Mix::kSystemC);
  std::fill_n(mixes.begin() + direct + systemc, ams, Mix::kAms);
  mixes[n - 1] = mixes[n - 2] = Mix::kFlux;
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(mixes[i], mixes[rng.next() % (i + 1)]);
  }

  std::vector<core::Scenario> batch;
  int flux_seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Mix mix = mixes[i];
    core::Scenario s;
    s.name = "s";
    s.name += std::to_string(i);
    if (mix == Mix::kEnergy) {
      mag::EnergyBasedParams p = mag::energy_reference_parameters();
      p.ms *= 0.8 + 0.4 * rng.next_unit();
      p.kappa_max *= 0.5 + rng.next_unit();
      p.cells = 8 + static_cast<int>(rng.next() % 9);
      s.model = core::EnergySpec{p};
      mag::JaParameters shape;
      shape.a = p.a;
      shape.k = p.kappa_max;
      s.drive = ja_sweep(shape, rng);
    } else if (mix == Mix::kFlux) {
      // One triangle cycle in 0.1 T steps on the paper material. The
      // inverse solve is fragile on the quantised timeless curve (finer
      // steps, dhmax = 25 or the default 60-iteration budget fail some of
      // these loops); this configuration converges for peaks of 0.8 to 1.3 T.
      mag::TimelessConfig config;
      config.dhmax = 10.0;
      s.model = core::JaSpec{mag::paper_parameters(), config};
      core::FluxDrive drive;
      drive.max_iterations = 200;
      const int top = flux_seen++ == 0 ? 10 : 12;  // peaks of 1.0 and 1.2 T
      for (int j = 1; j <= top; ++j) drive.b.push_back(0.1 * j);
      for (int j = top - 1; j >= -top; --j) drive.b.push_back(0.1 * j);
      for (int j = 1 - top; j <= top; ++j) drive.b.push_back(0.1 * j);
      s.drive = std::move(drive);
    } else {
      const mag::Material& m = pick();
      mag::TimelessConfig config;
      if (mix == Mix::kAms) {
        const std::size_t d = rng.next() % shared.size();
        config.dhmax = peak(shared[d]) / 300.0;
        s.drive = shared[d];
        s.frontend = core::Frontend::kAms;
      } else {
        wave::HSweep sweep = ja_sweep(m.params, rng);
        config.dhmax = peak(sweep) / (200.0 + 200.0 * rng.next_unit());
        s.drive = std::move(sweep);
        s.frontend = mix == Mix::kSystemC ? core::Frontend::kSystemC
                                          : core::Frontend::kDirect;
      }
      s.model = core::JaSpec{m.params, config};
    }
    batch.push_back(std::move(s));
  }
  return batch;
}

/// Times every delivery into the CSV sink, and keeps copies of the first
/// batch's sampled results for the correctness gate.
class TimedSink final : public core::ResultSink {
 public:
  TimedSink(core::ResultSink& inner, const std::vector<std::size_t>* sample,
            std::vector<core::ScenarioResult>* keep)
      : inner_(inner), sample_(sample), keep_(keep) {}
  void on_start(std::size_t total) override {
    if (keep_ != nullptr) keep_->resize(total);
    inner_.on_start(total);
  }
  void on_result(std::size_t index, core::ScenarioResult&& r) override {
    if (keep_ != nullptr) {
      for (std::size_t i : *sample_) {
        if (i == index) (*keep_)[index] = r;
      }
    }
    SpanScope span("ResultSink::on_result", index, tracer().current());
    inner_.on_result(index, std::move(r));
  }
  void on_complete() override { inner_.on_complete(); }

 private:
  core::ResultSink& inner_;
  const std::vector<std::size_t>* sample_;
  std::vector<core::ScenarioResult>* keep_;
};

bool same_result(const core::ScenarioResult& a, const core::ScenarioResult& b) {
  if (a.error.code != b.error.code || a.model != b.model ||
      a.curve.size() != b.curve.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.curve.size(); ++j) {
    const mag::BhPoint& p = a.curve.points()[j];
    const mag::BhPoint& q = b.curve.points()[j];
    if (!same_bits(p.h, q.h) || !same_bits(p.m, q.m) || !same_bits(p.b, q.b)) {
      return false;
    }
  }
  const auto& m = a.metrics;
  const auto& n = b.metrics;
  const auto& s = a.stats;
  const auto& t = b.stats;
  return same_bits(m.h_peak, n.h_peak) && same_bits(m.b_peak, n.b_peak) &&
         same_bits(m.remanence, n.remanence) &&
         same_bits(m.coercivity, n.coercivity) && same_bits(m.area, n.area) &&
         s.samples == t.samples && s.field_events == t.field_events &&
         s.integration_steps == t.integration_steps &&
         s.slope_clamps == t.slope_clamps &&
         s.direction_clamps == t.direction_clamps &&
         a.energy_stats.samples == b.energy_stats.samples &&
         a.energy_stats.cell_updates == b.energy_stats.cell_updates &&
         a.energy_stats.pinned_samples == b.energy_stats.pinned_samples &&
         same_bits(a.energy_stats.dissipated_energy,
                   b.energy_stats.dissipated_energy);
}

/// Gate sample: the first scenario of every kind plus four spread indices.
std::vector<std::size_t> gate_sample(const std::vector<core::Scenario>& batch) {
  std::vector<std::size_t> sample;
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const core::Scenario& s = batch[i];
    const std::string kind =
        std::to_string(static_cast<int>(s.kind())) + "/" +
        std::to_string(static_cast<int>(s.frontend)) + "/" +
        std::to_string(s.drive.index());
    bool fresh = true;
    for (const auto& k : seen) fresh = fresh && k != kind;
    if (fresh) {
      seen.push_back(kind);
      sample.push_back(i);
    }
  }
  for (std::size_t q = 1; q <= 4; ++q) sample.push_back(q * (batch.size() - 1) / 4);
  return sample;
}

/// The fixed accuracy sample: the first eight plain JA sweeps of the
/// reference-seed batch.
std::vector<core::Scenario> accuracy_sample() {
  std::vector<core::Scenario> sample;
  for (core::Scenario& s : make_batch(kReferenceSeed, 192)) {
    if (s.kind() == mag::ModelKind::kJilesAtherton &&
        s.frontend == core::Frontend::kDirect &&
        std::holds_alternative<wave::HSweep>(s.drive) && sample.size() < 8) {
      sample.push_back(std::move(s));
    }
  }
  return sample;
}

/// rel_err: mean relative deviation of the loop area (core loss per cycle)
/// of the fixed sample from its dhmax/10 reference.
double loss_rel_err(const Options& o, const core::BatchRunner& runner,
                    Outcome& out) {
  const std::vector<ReferenceRow> rows = load_reference(o.data_dir, "scenario_stream");
  const std::vector<core::Scenario> sample = accuracy_sample();
  if (rows.size() != sample.size()) {
    out.fail("scenario_stream reference rows do not match the sample");
    return 0.0;
  }
  const auto results = runner.run(sample, core::RunOptions{core::Packing::kExact});
  double sum = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].values.size() != 2 ||
        !same_bits(rows[i].values[1], sample[i].ja().config.dhmax)) {
      out.fail("scenario_stream reference sample was generated differently");
      return 0.0;
    }
    const double ref = rows[i].values[0];
    sum += std::fabs(results[i].metrics.area - ref) / ref;
  }
  return sum / static_cast<double>(rows.size());
}

}  // namespace

Outcome run_stream(const Options& o) {
  Outcome out;
  const std::size_t n = o.tiny ? 24 : 192;
  SetupTimer setup;
  const auto set_up = [&] {
    std::vector<core::Scenario> fresh = make_batch(o.seed, n);
    const core::BatchRunner scratch(core::BatchOptions{o.workers});
    return fresh;
  };
  const std::vector<core::Scenario> batch = setup.time(set_up);
  const core::BatchRunner runner(core::BatchOptions{o.workers});
  const std::vector<std::size_t> sample = gate_sample(batch);
  const std::string csv_path = o.out_dir + "/scenario_stream.csv";
  core::RunOptions run_options{core::Packing::kExact};

  std::vector<core::ScenarioResult> kept;
  std::size_t quarantined = 0;
  const auto op = [&](std::size_t k) {
    core::CsvCurveSink csv(csv_path, kCurveStride);
    TimedSink timed(csv, &sample, k == 0 && kept.empty() ? &kept : nullptr);
    const core::StreamSummary summary = runner.run(batch, timed, run_options);
    out.attempted += n;
    out.failed += summary.failed_jobs;
    if (k == 0) quarantined = summary.quarantined;
    if (summary.delivered != n || !summary.ok() || !csv.ok()) {
      out.fail("batch " + std::to_string(k) + " delivered " +
               std::to_string(summary.delivered) + " of " + std::to_string(n));
    }
  };

  op(0);  // warm-up: pool start, first-touch allocations
  out.attempted = 0;
  out.failed = 0;
  const double untraced_seconds = o.trace ? o.seconds / 3.0 : o.seconds;
  const LoopTimes loop = timed_loop(untraced_seconds, 3, "BatchRunner::run", op,
                                    [&] { (void)setup.time(set_up); });
  fill_loop_metrics(out, loop, static_cast<double>(n));
  out.values["setup_s"] = setup.median_s();

  // Correctness gate: sampled streamed results against run_scenario.
  if (o.corrupt) kept[sample.back()].metrics.area *= 1.0 + 1e-15;
  for (std::size_t i : sample) {
    if (!same_result(kept[i], core::run_scenario(batch[i]))) {
      out.fail("scenario " + std::to_string(i) + " differs from run_scenario");
    }
  }
  Values& v = out.values;
  v["rel_err"] = loss_rel_err(o, runner, out);

  if (o.trace) {
    // Workload properties (pure functions of the batch).
    double packable = 0.0, traced_scenarios = 0.0;
    std::vector<JaLane> ja_lanes;
    std::vector<EnergyLane> energy_lanes;
    double samples = 0.0, steps = 0.0;
    const auto results = runner.run(batch, run_options);
    const core::FrontendPlanSet plans(batch);
    for (std::size_t i = 0; i < n; ++i) {
      const core::Scenario& s = batch[i];
      packable += core::BatchRunner::packable(s) ? 1.0 : 0.0;
      if (plans.plan(i).route == core::PlanRoute::kPackedTrace) traced_scenarios += 1.0;
      if (s.kind() == mag::ModelKind::kJilesAtherton) {
        samples += static_cast<double>(results[i].stats.samples);
        steps += static_cast<double>(results[i].stats.integration_steps);
      }
      const auto* sweep = std::get_if<wave::HSweep>(&s.drive);
      if (sweep == nullptr || s.frontend != core::Frontend::kDirect) continue;
      if (s.kind() == mag::ModelKind::kJilesAtherton && ja_lanes.size() < 32) {
        ja_lanes.push_back({s.ja().params, s.ja().config, *sweep});
      } else if (s.kind() == mag::ModelKind::kEnergyBased &&
                 energy_lanes.size() < 32) {
        energy_lanes.push_back({s.energy().params, *sweep});
      }
    }
    v["core.packable_share"] = packable / static_cast<double>(n);
    v["core.shared_drive_share"] =
        traced_scenarios == 0.0
            ? 0.0
            : 1.0 - static_cast<double>(plans.trajectory_jobs()) / traced_scenarios;
    v["core.quarantined"] = static_cast<double>(quarantined);
    v["mag.substeps_per_sample"] = steps / samples;

    tracer().enable(true);
    const LoopTimes traced = timed_loop(o.seconds / 3.0, 3, "BatchRunner::run", op);
    v["trace.overhead_ratio"] = median(traced.wall_s) / median(loop.wall_s);
    const std::vector<double> sink_us = tracer().durations_us("ResultSink::on_result");
    v["core.sink_us.p50"] = median(sink_us);
    v["core.sink_us.p99"] = quantile(sink_us, 0.99);
    v["core.sink_busy_share"] =
        tracer().total_s("ResultSink::on_result") / traced.total_wall();

    const KernelFigures k = measure_ja_kernels(ja_lanes, o.seconds / 6.0);
    v["mag.ja_batch_ns_per_sample"] = k.batch_ns_per_sample;
    v["mag.ja_scalar_ns_per_sample"] = k.scalar_ns_per_sample;
    v["mag.energy_batch_ns_per_sample"] =
        measure_energy_kernel(energy_lanes, o.seconds / 6.0);
  }
  return out;
}

void append_stream_reference(std::FILE* out) {
  for (const core::Scenario& s : accuracy_sample()) {
    // Sweep samples are coarser than dhmax, so a smaller dhmax alone changes
    // nothing: each event is also integrated in >= 10 sub-steps.
    core::Scenario fine = s;
    fine.ja().config.dhmax /= 10.0;
    fine.ja().config.substep_max = fine.ja().config.dhmax;
    const core::ScenarioResult r = core::run_scenario(fine);
    std::fprintf(out, "scenario_stream %s %.17g %.17g\n", s.name.c_str() + 1,
                 r.metrics.area, s.ja().config.dhmax);
  }
}

}  // namespace perfbench
