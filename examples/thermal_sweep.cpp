// Temperature sweep: how the paper material's hysteresis loop collapses on
// the way to the Curie point (the classic JA thermal extension).
//
// Each temperature is an independent scenario, so the sweep runs through
// BatchRunner — here via the streaming path: results flow to the table and
// thermal_loops.csv as temperatures finish (re-sequenced into temperature
// order by OrderedSink), and the CSV is flushed per temperature so a
// plotting script can tail it while the hot temperatures still compute.
//
// Output: table on stdout + thermal_loops.csv (temperature-tagged curves).
#include <cstdio>

#include "core/batch_runner.hpp"
#include "mag/thermal.hpp"
#include "util/stream_writer.hpp"
#include "wave/sweep.hpp"

int main() {
  using namespace ferro;

  const mag::JaParameters base = mag::paper_parameters();
  const mag::ThermalModel thermal;  // Tc = 1043 K (iron), T0 = 293 K
  const std::vector<double> temperatures = {293.0, 500.0, 700.0,
                                            850.0, 950.0, 1020.0};

  std::vector<core::Scenario> scenarios;
  for (const double t : temperatures) {
    core::Scenario s;
    s.name = "T=" + std::to_string(t);
    core::JaSpec spec;
    spec.params = thermal.at(base, t);
    spec.config.dhmax = (spec.params.a + spec.params.k) / 600.0;
    s.model = spec;
    wave::HSweep sweep = wave::SweepBuilder(10.0).cycles(10e3, 2).build();
    s.metrics_window = core::MetricsWindow{sweep.size() / 2, sweep.size() - 1};
    s.drive = std::move(sweep);
    scenarios.push_back(std::move(s));
  }

  util::CsvStreamWriter csv("thermal_loops.csv", {"t_kelvin", "h", "b"},
                            /*flush_every=*/0);
  std::printf("%10s %10s %10s %12s %14s\n", "T [K]", "Ms/Ms0", "Bpeak[T]",
              "Hc [A/m]", "loss[J/m^3]");

  core::CallbackSink consumer({
      .on_result =
          [&](std::size_t j, const core::ScenarioResult& r) {
            const double t = temperatures[j];
            if (!r.ok()) {
              std::printf("%10.0f FAILED: %s\n", t, r.error.message().c_str());
              return;
            }
            std::printf("%10.0f %10.3f %10.3f %12.1f %14.1f\n", t,
                        thermal.ms_ratio(t), r.metrics.b_peak,
                        r.metrics.coercivity, r.metrics.area);

            // Record the second (converged) cycle for plotting; one flush
            // per temperature makes the file tail-able mid-run.
            const std::size_t n = r.curve.size();
            for (std::size_t i = n / 2; i < n; i += 8) {
              csv.row({t, r.curve.points()[i].h, r.curve.points()[i].b});
            }
            csv.flush();
          },
  });
  core::OrderedSink ordered(consumer);
  const auto summary = core::BatchRunner().run(scenarios, ordered);
  if (!summary.ok()) {
    std::printf("sink error: %s\n", summary.sink_error.message().c_str());
    return 1;
  }

  std::printf("\nloop area and coercivity collapse toward the Curie point; "
              "plot thermal_loops.csv (b vs h, grouped by t_kelvin).\n");
  return 0;
}
