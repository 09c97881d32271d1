// Nonlinear inductor on a ferromagnetic core modelled by TimelessJa —
// the component the paper's introduction motivates (JA cores inside
// SPICE/SABER-class circuit simulators).
//
// Branch formulation: the winding equation is v = d(lambda)/dt with
// lambda(i) = N * A * B(H), H = N*i/l, and B supplied by the hysteresis
// model. An accepted step is one timeless field event: B(H) is the core's
// event map seen from the *committed* magnetic state
// (TimelessJa::event_flux_density_at), which is continuous and monotone
// through the anchor, so Newton has a root to converge on. Each iteration
// linearises lambda around the present current from two points of that
// map; commit() applies the same event (TimelessJa::apply_event), so the
// committed B is bit for bit the point Newton converged on, and rejected
// steps never touch the hysteresis trajectory. The deck's dhmax is kept in
// the model's config but does not gate a circuit core.
#pragma once

#include "ckt/device.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"

namespace ferro::ckt {

class JaInductor final : public Device {
 public:
  JaInductor(std::string name, NodeId a, NodeId b, mag::CoreGeometry geometry,
             const mag::JaParameters& params, mag::TimelessConfig config = {});

  [[nodiscard]] std::size_t branch_count() const override { return 1; }
  void stamp(Stamper& s, const EvalContext& ctx) override;
  void commit(const EvalContext& ctx, std::span<const double> x) override;
  [[nodiscard]] bool nonlinear() const override { return true; }

  /// Committed core observables (for probes and tests).
  [[nodiscard]] double field() const { return model_.state().present_h; }
  [[nodiscard]] double flux_density() const { return model_.flux_density(); }
  [[nodiscard]] double current() const { return i_prev_; }
  [[nodiscard]] const mag::TimelessJa& model() const { return model_; }
  [[nodiscard]] const mag::CoreGeometry& geometry() const { return geometry_; }

  /// Pre-arms the next (non-DC) stamp() with the event map evaluated
  /// elsewhere from the COMMITTED magnetic state: `b_at` at the iterate's
  /// field h_k and `b_probe` at TimelessJa::event_probe_field(h_k). The
  /// armed stamp skips its two scalar probes and consumes these instead —
  /// arithmetically identical when the caller computed them with the exact
  /// SoA lanes (TimelessJaBatch::apply_event at kExact is bitwise-equal to
  /// the scalar model). One-shot: consumed by the next stamp(), so the
  /// packer re-arms before every Newton iteration.
  void arm_trial(double b_at, double b_probe);

 private:
  NodeId a_, b_;
  mag::CoreGeometry geometry_;
  mag::TimelessJa model_;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
  double lambda_prev_;

  bool armed_ = false;
  double armed_b_at_ = 0.0;
  double armed_b_probe_ = 0.0;
};

}  // namespace ferro::ckt
