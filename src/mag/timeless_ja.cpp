#include "mag/timeless_ja.hpp"

#include <cassert>

#include "mag/timeless_ja_step.hpp"
#include "util/constants.hpp"

namespace ferro::mag {

std::string_view to_string(HIntegrator scheme) {
  switch (scheme) {
    case HIntegrator::kForwardEuler: return "forward-euler";
    case HIntegrator::kHeun: return "heun";
    case HIntegrator::kRk4: return "rk4";
  }
  return "?";
}

/// This model as a lane of the shared update (mag/timeless_ja_step.hpp):
/// the constants are the model's, the state is whatever the caller binds.
struct TimelessJa::Lane {
  const TimelessJa& model;
  TimelessState& state;
  TimelessStats& counters;
  double& slope;

  double alpha_ms() const { return model.alpha_ms_; }
  double c_over_1pc() const { return model.c_over_1pc_; }
  double one_pc_k() const { return model.one_pc_k_; }
  double one_pc_alpha_ms() const { return model.one_pc_alpha_ms_; }
  bool clamp_slope() const { return model.config_.clamp_negative_slope; }
  bool clamp_direction() const { return model.config_.clamp_direction; }
  double man(double he) const { return model.anhysteretic_.man(he); }
  double& m_irr() const { return state.m_irr; }
  double& m_total() const { return state.m_total; }
  double& anchor_h() const { return state.anchor_h; }
  double& present_h() const { return state.present_h; }
  TimelessStats& stats() const { return counters; }
  double& last_slope() const { return slope; }
};

TimelessJa::TimelessJa(const JaParameters& params, const TimelessConfig& config)
    : params_(params),
      config_(config),
      anhysteretic_(params),
      c_over_1pc_(params.c / (1.0 + params.c)),
      alpha_ms_(params.alpha * params.ms),
      one_pc_k_((1.0 + params.c) * params.k),
      one_pc_alpha_ms_((1.0 + params.c) * (params.alpha * params.ms)) {
  assert(params.is_valid());
  assert(config.dhmax > 0.0);
  assert(config.substep_max >= 0.0);
  reset();
}

void TimelessJa::reset() {
  state_ = TimelessState{};
  stats_ = TimelessStats{};
  last_slope_ = 0.0;
  detail::refresh(Lane{*this, state_, stats_, last_slope_}, 0.0);
}

void TimelessJa::set_state(const TimelessState& s) {
  // Restores the snapshot verbatim — no algebraic refresh, so a
  // state()/set_state round trip is exact.
  state_ = s;
}

double TimelessJa::trial_slope(const Lane& lane, double h, double m_irr,
                               double delta) const {
  // A short fixed point in the effective field (strongly contracting for
  // all physical parameter sets), warm-started from the present total,
  // then the slope from one more refresh.
  TimelessState trial{m_irr, lane.m_total(), 0.0, h};
  double unused_slope = 0.0;
  const Lane trial_lane{*this, trial, lane.stats(), unused_slope};
  for (int i = 0; i < 3; ++i) detail::refresh(trial_lane, h);
  const double m_fixed = trial.m_total;
  const double man = detail::refresh(trial_lane, h);
  return detail::clamped_slope(lane, man - m_fixed, delta);
}

void TimelessJa::integrate_extension(const Lane& lane, double h_target,
                                     double dh) const {
  const double delta = dh > 0.0 ? 1.0 : -1.0;
  const double h0 = h_target - dh;
  const double m_irr = lane.m_irr();
  const auto f = [&](double h, double m) {
    return trial_slope(lane, h, m, delta);
  };
  double s = 0.0;
  if (config_.scheme == HIntegrator::kHeun) {
    const double s1 = f(h0, m_irr);
    const double s2 = f(h_target, m_irr + dh * s1);
    s = 0.5 * (s1 + s2);
  } else {
    const double s1 = f(h0, m_irr);
    const double s2 = f(h0 + 0.5 * dh, m_irr + 0.5 * dh * s1);
    const double s3 = f(h0 + 0.5 * dh, m_irr + 0.5 * dh * s2);
    const double s4 = f(h_target, m_irr + dh * s3);
    s = (s1 + 2.0 * s2 + 2.0 * s3 + s4) / 6.0;
  }
  // With the slope clamp active, the shared direction guard only triggers
  // through these higher-order schemes.
  detail::integrate(lane, dh, s);
}

void TimelessJa::advance(TimelessState& state, TimelessStats& stats,
                         double& last_slope, double h, double threshold) const {
  const Lane lane{*this, state, stats, last_slope};
  if (config_.scheme == HIntegrator::kForwardEuler) {
    detail::apply_sample(lane, h, threshold, config_.substep_max,
                         detail::EulerStep{});
    return;
  }
  const auto extension_step = [this](const Lane& l, double /*man*/,
                                     double h_row, double dh) {
    integrate_extension(l, h_row, dh);
  };
  detail::apply_sample(lane, h, threshold, config_.substep_max,
                       extension_step);
}

double TimelessJa::apply(double h) {
  advance(state_, stats_, last_slope_, h, config_.dhmax);
  return state_.m_total;
}

double TimelessJa::apply_event(double h) {
  advance(state_, stats_, last_slope_, h, detail::kEveryCallAnEvent);
  return state_.m_total;
}

double TimelessJa::trial_flux_density(double h, double threshold) const {
  TimelessState state = state_;
  TimelessStats stats = stats_;
  double last_slope = last_slope_;
  advance(state, stats, last_slope, h, threshold);
  return util::kMu0 * (params_.ms * state.m_total + state.present_h);
}

double TimelessJa::flux_density_at(double h) const {
  return trial_flux_density(h, config_.dhmax);
}

double TimelessJa::event_flux_density_at(double h) const {
  return trial_flux_density(h, detail::kEveryCallAnEvent);
}

double TimelessJa::magnetisation() const { return params_.ms * state_.m_total; }

double TimelessJa::flux_density() const {
  return util::kMu0 * (magnetisation() + state_.present_h);
}

}  // namespace ferro::mag
