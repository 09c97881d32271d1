// fit_library: ferro_fit-style identification of every material_library()
// entry from a seeded "measured" loop — simulated with the material's own
// anhysteretic kind plus seeded noise, fitted from the default kAtan start
// (deliberately mismatched for the non-atan materials). Every optimizer
// generation is one small homogeneous packed BatchRunner::run.
#include <cmath>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/batch_runner.hpp"
#include "core/scenario.hpp"
#include "fit/fitter.hpp"
#include "fit/objective.hpp"
#include "kernels.hpp"
#include "mag/ja_params.hpp"
#include "util/rng.hpp"
#include "wave/sweep.hpp"

namespace perfbench {
namespace {

using namespace ferro;

/// One fit's inputs: a measured loop and the objective built over it.
struct Problem {
  std::string material;
  fit::FitObjective objective;
  double b_amplitude = 0.0;  ///< max |B| of the measured loop [T]
};

/// Standard normal draw (Box-Muller over two uniforms).
double gaussian(util::SplitMix64& rng) {
  const double u1 = 1.0 - rng.next_unit();  // (0, 1]
  const double u2 = rng.next_unit();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Measured loop of `m`: two major cycles at a seeded amplitude, 0.5 %
/// seeded flux noise. The candidate discretisation matches the loop's.
Problem make_problem(const mag::Material& m, util::SplitMix64& rng) {
  const double amp = 5.0 * (m.params.a + m.params.k) * (0.8 + 0.4 * rng.next_unit());
  mag::TimelessConfig config;
  config.dhmax = amp / 250.0;
  core::Scenario s;
  s.model = core::JaSpec{m.params, config};
  s.drive = wave::SweepBuilder(amp / 60.0).cycles(amp, 2).build();
  const core::ScenarioResult measured = core::run_scenario(s);
  std::vector<double> h, b;
  double b_max = 0.0;
  for (const mag::BhPoint& p : measured.curve.points()) b_max = std::max(b_max, std::fabs(p.b));
  for (const mag::BhPoint& p : measured.curve.points()) {
    h.push_back(p.h);
    b.push_back(p.b + 0.005 * b_max * gaussian(rng));
  }
  return Problem{m.name, fit::FitObjective(std::move(h), std::move(b), config),
                 b_max};
}

/// The problem set of one run: every library material, `variants` seeded
/// loops each.
std::vector<Problem> make_problems(std::uint64_t seed, int variants) {
  util::SplitMix64 rng(util::SplitMix64::mix(seed));
  std::vector<Problem> problems;
  for (int v = 0; v < variants; ++v) {
    for (const mag::Material& m : mag::material_library()) {
      problems.push_back(make_problem(m, rng));
    }
  }
  return problems;
}

/// ferro_fit's search with a smaller budget (one fit ~0.1 s, so a run
/// times over a hundred) and practical tolerances: the measured loop's
/// noise floor is ~1e-2 T, far above the 1e-14 T default f_tol, which no
/// search reaches within the budget.
fit::FitOptions fit_options(const Options& o) {
  fit::FitOptions f;
  f.threads = o.workers;
  f.start = mag::JaParameters{};  // default kAtan start
  f.multistarts = 4;
  f.restarts = 1;
  f.max_generations = 400;
  f.f_tol = 1e-7;
  f.x_tol = 1e-5;
  return f;
}

bool inside(const mag::JaParameters& p, const fit::FitBounds& b) {
  return p.ms >= b.ms_lo && p.ms <= b.ms_hi && p.a >= b.a_lo && p.a <= b.a_hi &&
         p.k >= b.k_lo && p.k <= b.k_hi && p.c >= b.c_lo && p.c <= b.c_hi &&
         p.alpha >= b.alpha_lo && p.alpha <= b.alpha_hi;
}

bool same_fit(const fit::FitResult& a, const fit::FitResult& b) {
  return same_bits(a.residual, b.residual) && same_bits(a.params.ms, b.params.ms) &&
         same_bits(a.params.a, b.params.a) && same_bits(a.params.k, b.params.k) &&
         same_bits(a.params.c, b.params.c) &&
         same_bits(a.params.alpha, b.params.alpha) &&
         a.generations == b.generations && a.evaluations == b.evaluations;
}

}  // namespace

Outcome run_fit(const Options& o) {
  Outcome out;
  const int variants = o.tiny ? 1 : 2;
  SetupTimer setup;
  const auto set_up = [&] { return make_problems(o.seed, variants); };
  const std::vector<Problem> problems = setup.time(set_up);
  const fit::FitOptions options = fit_options(o);
  const std::size_t n = problems.size();

  std::vector<fit::FitResult> first(n);   // first fit of every problem
  std::vector<std::size_t> repeat_of;     // problem index of each later fit
  std::vector<fit::FitResult> repeats;
  const auto op = [&](std::size_t k) {
    const std::size_t i = k % n;
    fit::FitResult r = fit::fit_ja_parameters(problems[i].objective, options);
    ++out.attempted;
    if (!r.stop.ok() || !std::isfinite(r.residual)) ++out.failed;
    if (k < n) {
      first[i] = std::move(r);
    } else {
      repeat_of.push_back(i);
      repeats.push_back(std::move(r));
    }
  };

  const double untraced_seconds = o.trace ? o.seconds / 3.0 : o.seconds;
  const LoopTimes loop = timed_loop(untraced_seconds, n, "fit_ja_parameters", op,
                                    [&] { (void)setup.time(set_up); });
  fill_loop_metrics(out, loop, 1.0);
  out.values["setup_s"] = setup.median_s();

  // Correctness gate: each fit's residual re-evaluates through the
  // reference path to exactly FitResult::residual, inside the bounds, and
  // every repeat of a problem reproduces its first fit bit for bit.
  if (o.corrupt) first[n / 2].residual *= 1.0 + 1e-15;
  for (std::size_t i = 0; i < n; ++i) {
    const fit::FitObjective& obj = problems[i].objective;
    const core::ScenarioResult re = core::run_scenario(obj.scenario(first[i].params));
    if (!re.ok() || !same_bits(obj.residual(re.curve), first[i].residual)) {
      out.fail("fit " + std::to_string(i) + " (" + problems[i].material +
               ") residual does not re-evaluate");
    }
    if (!inside(first[i].params, options.bounds)) {
      out.fail("fit " + std::to_string(i) + " left the FitBounds box");
    }
  }
  for (std::size_t j = 0; j < repeats.size(); ++j) {
    if (!same_fit(repeats[j], first[repeat_of[j]])) {
      out.fail("repeated fit of problem " + std::to_string(repeat_of[j]) +
               " differs from its first run");
    }
  }

  // Figures of the first fit of every problem (pure functions of the seed).
  std::vector<double> rel, residual;
  double generations = 0.0, evaluations = 0.0, converged = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rel.push_back(first[i].residual / problems[i].b_amplitude);
    residual.push_back(first[i].residual);
    generations += static_cast<double>(first[i].generations);
    evaluations += static_cast<double>(first[i].evaluations);
    converged += first[i].converged ? 1.0 : 0.0;
  }
  Values& v = out.values;
  v["rel_err"] = median(rel);
  v["fit.residual_t"] = median(residual);
  v["fit.generations_per_fit"] = generations / static_cast<double>(n);
  v["fit.evals_per_fit"] = evaluations / static_cast<double>(n);
  v["fit.converged_share"] = converged / static_cast<double>(n);

  if (o.trace) {
    tracer().enable(true);
    const LoopTimes traced =
        timed_loop(o.seconds / 3.0, 1, "fit_ja_parameters", op);
    v["trace.overhead_ratio"] = median(traced.wall_s) / median(loop.wall_s);
    double evals = 0.0;
    for (std::size_t k = 0; k < loop.ops(); ++k) {
      evals += static_cast<double>(first[k % n].evaluations);
    }
    v["fit.us_per_eval"] = 1e6 * loop.total_wall() / evals;

    // The lanes a late generation packs: fitted parameters over each
    // problem's own measured sweep.
    std::vector<JaLane> lanes;
    double packable = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const fit::FitObjective& obj = problems[i].objective;
      lanes.push_back({first[i].params, obj.config(), obj.sweep()});
      packable += core::BatchRunner::packable(obj.scenario(first[i].params)) ? 1.0 : 0.0;
    }
    v["core.packable_share"] = packable / static_cast<double>(n);
    const KernelFigures k = measure_ja_kernels(lanes, o.seconds / 3.0);
    v["mag.ja_batch_ns_per_sample"] = k.batch_ns_per_sample;
    v["mag.ja_scalar_ns_per_sample"] = k.scalar_ns_per_sample;
    v["mag.substeps_per_sample"] = k.substeps_per_sample;
  }
  return out;
}

}  // namespace perfbench
