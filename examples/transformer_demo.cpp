// Two-winding transformer on a shared hysteretic core driving a resistive
// load: turns ratio, magnetising-current distortion, and core trajectory.
//
// Output: transformer.csv (t, v_p, v_s, i_p, i_s, h, b).
#include <cmath>
#include <cstdio>
#include <memory>

#include "ckt/engine.hpp"
#include "ckt/netlist.hpp"
#include "ckt/rlc.hpp"
#include "ckt/sources.hpp"
#include "ckt/transformer.hpp"
#include "util/csv.hpp"
#include "wave/standard.hpp"

int main() {
  using namespace ferro;

  ckt::Circuit circuit;
  const auto p = circuit.node("p");
  const auto s = circuit.node("s");

  circuit.add<ckt::VoltageSource>("V", p, ckt::kGround,
                                  std::make_shared<wave::Sine>(1.5, 50.0));

  mag::CoreGeometry geom;
  geom.area = 1e-4;
  geom.path_length = 0.1;
  geom.turns = 100;  // primary
  mag::TimelessConfig config;
  config.dhmax = 0.5;
  auto& xfmr = circuit.add<ckt::JaTransformer>(
      "T", p, ckt::kGround, s, ckt::kGround, geom, /*turns_secondary=*/50,
      mag::find_material("grain-oriented-si")->params, config);

  circuit.add<ckt::Resistor>("Rload", s, ckt::kGround, 50.0);

  ckt::TransientOptions options;
  options.t_end = 0.08;
  options.dt_initial = 1e-6;
  options.dt_max = 2e-5;

  util::CsvWriter csv("transformer.csv",
                      {"t", "v_p", "v_s", "i_p", "i_s", "h", "b"});
  double vp_peak = 0.0, vs_peak = 0.0, ip_peak = 0.0, is_peak = 0.0;
  double b_peak = 0.0;
  ckt::CircuitStats stats;
  const bool ok = ckt::run_transient(
      circuit, options,
      [&](const ckt::Solution& sol) {
        const double ip = sol.branch_current(1);
        const double is = sol.branch_current(2);
        csv.row({sol.t, sol.v(p), sol.v(s), ip, is, xfmr.field(),
                 xfmr.flux_density()});
        if (sol.t > 0.04) {  // settled half
          vp_peak = std::max(vp_peak, std::fabs(sol.v(p)));
          vs_peak = std::max(vs_peak, std::fabs(sol.v(s)));
          ip_peak = std::max(ip_peak, std::fabs(ip));
          is_peak = std::max(is_peak, std::fabs(is));
          b_peak = std::max(b_peak, std::fabs(xfmr.flux_density()));
        }
      },
      &stats).ok();

  std::printf("transformer demo (%s, %llu steps)\n",
              ok ? "completed" : "with warnings",
              static_cast<unsigned long long>(stats.steps_accepted));
  std::printf("  turns ratio Np:Ns        : 100:50\n");
  std::printf("  voltage ratio v_s/v_p    : %.3f (ideal 0.500)\n",
              vp_peak > 0.0 ? vs_peak / vp_peak : 0.0);
  std::printf("  primary peak current     : %.4f A\n", ip_peak);
  std::printf("  secondary peak current   : %.4f A\n", is_peak);
  std::printf("  core peak flux density   : %.3f T\n", b_peak);
  std::printf("  wrote transformer.csv (t,v_p,v_s,i_p,i_s,h,b)\n");
  return ok ? 0 : 1;
}
