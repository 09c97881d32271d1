#include "core/facade.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/scenario.hpp"

namespace ferro::core {
namespace {

[[noreturn]] void throw_unsupported(const ModelSpec& spec, Frontend frontend) {
  throw std::invalid_argument(
      std::string("frontend '") + std::string(to_string(frontend)) +
      "' cannot execute model '" +
      std::string(mag::to_string(model_kind(spec))) + "'");
}

}  // namespace

std::string_view to_string(Frontend f) {
  switch (f) {
    case Frontend::kDirect: return "direct";
    case Frontend::kSystemC: return "systemc";
    case Frontend::kAms: return "ams";
  }
  return "?";
}

bool frontend_supports(const ModelSpec& spec, Frontend frontend) {
  // The SystemC process network and the AMS solver replay implement the
  // paper's JA discretisation specifically; the energy-based play update
  // has no event/analogue port yet.
  return std::holds_alternative<JaSpec>(spec) || frontend == Frontend::kDirect;
}

Facade::Facade(ModelSpec spec) : spec_(std::move(spec)) {}

Facade::Facade(mag::JaParameters params, mag::TimelessConfig config)
    : spec_(JaSpec{params, config}) {}

mag::BhCurve Facade::run(const wave::HSweep& sweep, Frontend frontend) const {
  Scenario scenario;
  scenario.drive = sweep;
  return run_checked(std::move(scenario), frontend);
}

mag::BhCurve Facade::run(const wave::Waveform& h_of_t, double t0, double t1,
                         std::size_t n_samples, Frontend frontend) const {
  Scenario scenario;
  // Non-owning: the scenario does not outlive this call.
  scenario.drive = TimeDrive{
      std::shared_ptr<const wave::Waveform>(std::shared_ptr<void>(), &h_of_t),
      t0, t1, n_samples};
  return run_checked(std::move(scenario), frontend);
}

mag::BhCurve Facade::run_checked(Scenario scenario, Frontend frontend) const {
  if (!frontend_supports(spec_, frontend)) throw_unsupported(spec_, frontend);
  scenario.model = spec_;
  scenario.frontend = frontend;
  ScenarioResult result = run_scenario(scenario);
  if (result.error.code == ErrorCode::kInvalidScenario) {
    throw std::invalid_argument(result.error.detail);
  }
  if (!result.ok()) throw std::runtime_error(result.error.detail);
  return std::move(result.curve);
}

}  // namespace ferro::core
