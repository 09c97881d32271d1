#include "ckt/ja_inductor.hpp"

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

void JaInductor::arm_trial(double b_at, double b_probe) {
  armed_ = true;
  armed_b_at_ = b_at;
  armed_b_probe_ = b_probe;
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

  // Two points of the core's event map from the committed state. Armed:
  // batch-evaluated by the Monte-Carlo packer (same update code, SoA
  // lanes); unarmed: two scalar probes.
  const double i_k = s.i(br);
  const double h_k = geometry_.field_from_current(i_k);
  double b_at, b_probe;
  if (armed_) {
    armed_ = false;
    b_at = armed_b_at_;
    b_probe = armed_b_probe_;
  } else {
    b_at = model_.event_flux_density_at(h_k);
    b_probe = model_.event_flux_density_at(
        mag::TimelessJa::event_probe_field(h_k));
  }
  const double lambda_k = geometry_.linkage_from_b(b_at);
  // d(lambda)/di = N*A * dB/dH * N/l
  const double l_eff = geometry_.linkage_from_b(mag::TimelessJa::event_slope(
                           h_k, b_at, b_probe)) *
                       geometry_.field_from_current(1.0);

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
  model_.apply_event(geometry_.field_from_current(i));
  lambda_prev_ = geometry_.linkage_from_b(model_.flux_density());
  i_prev_ = i;
  v_prev_ = va - vb;
}

}  // namespace ferro::ckt
