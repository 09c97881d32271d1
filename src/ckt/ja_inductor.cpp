#include "ckt/ja_inductor.hpp"

#include <cmath>

namespace ferro::ckt {

JaInductor::JaInductor(std::string name, NodeId a, NodeId b,
                       mag::CoreGeometry geometry,
                       const mag::JaParameters& params,
                       mag::TimelessConfig config)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      geometry_(geometry),
      model_(params, config) {
  lambda_prev_ = geometry_.linkage_from_b(model_.flux_density());
}

double JaInductor::linkage_at(double i) const {
  return geometry_.linkage_from_b(
      model_.flux_density_at(geometry_.field_from_current(i)));
}

double JaInductor::trial_di(double i_k) const {
  // Differential inductance perturbation: spans at least one event
  // threshold so the irreversible branch is represented, not just the
  // reversible slope.
  return std::max(geometry_.current_from_field(1.5 * model_.config().dhmax),
                  1e-9 + 1e-6 * std::fabs(i_k));
}

void JaInductor::arm_trial(double b_at, double b_plus, double b_minus,
                           double di) {
  armed_ = true;
  armed_b_at_ = b_at;
  armed_b_plus_ = b_plus;
  armed_b_minus_ = b_minus;
  armed_di_ = di;
}

void JaInductor::stamp(Stamper& s, const EvalContext& ctx) {
  const std::size_t br = first_branch();
  s.node_branch(a_, br, +1.0);
  s.node_branch(b_, br, -1.0);
  s.branch_node(br, a_, +1.0);
  s.branch_node(br, b_, -1.0);

  if (ctx.dc) {
    // DC quasi-short (milliohm keeps the row independent of ideal sources).
    s.branch_branch(br, br, -1e-3);
    return;
  }

  const double i_k = s.i(br);

  // Differential inductance by central difference across the committed
  // state. Armed: the three trial flux densities were batch-evaluated by
  // the Monte-Carlo packer (same update code, SoA lanes); unarmed: three
  // scalar flux_density_at probes.
  double lambda_k, l_eff;
  if (armed_) {
    armed_ = false;
    lambda_k = geometry_.linkage_from_b(armed_b_at_);
    l_eff = (geometry_.linkage_from_b(armed_b_plus_) -
             geometry_.linkage_from_b(armed_b_minus_)) /
            (2.0 * armed_di_);
  } else {
    lambda_k = linkage_at(i_k);
    const double di = trial_di(i_k);
    l_eff = (linkage_at(i_k + di) - linkage_at(i_k - di)) / (2.0 * di);
  }

  // Trapezoidal: v = (2/dt)(lambda - lambda_prev) - v_prev
  // Backward Euler: v = (lambda - lambda_prev)/dt
  const double scale =
      ctx.method == ams::IntegrationMethod::kTrapezoidal ? 2.0 / ctx.dt
                                                         : 1.0 / ctx.dt;
  const double hist =
      ctx.method == ams::IntegrationMethod::kTrapezoidal ? -v_prev_ : 0.0;

  // v_a - v_b - scale*l_eff*i = scale*(lambda_k - l_eff*i_k - lambda_prev) + hist
  s.branch_branch(br, br, -scale * l_eff);
  s.branch_rhs(br, scale * (lambda_k - l_eff * i_k - lambda_prev_) + hist);
}

void JaInductor::commit(const EvalContext& ctx, std::span<const double> x) {
  const double i = x[ctx.node_count + first_branch()];
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];

  armed_ = false;  // a pending arming must never outlive its iteration
  model_.apply(geometry_.field_from_current(i));
  lambda_prev_ = geometry_.linkage_from_b(model_.flux_density());
  i_prev_ = i;
  v_prev_ = va - vb;
}

}  // namespace ferro::ckt
