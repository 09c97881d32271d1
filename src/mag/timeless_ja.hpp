// TimelessJa — the paper's contribution: Jiles-Atherton hysteresis with
// *timeless discretisation* of the magnetisation slope.
//
// Instead of converting dM/dH into time derivatives and handing them to an
// analogue solver (the route the paper criticises), the model integrates
// dM/dH itself, using the applied field H as the independent variable:
//
//   - an *event threshold* `dhmax` decides when the field has moved enough
//     to take an integration step (the listing's `monitorH()` process);
//   - the irreversible component m_irr is advanced by Forward Euler in H
//     (the listing's `Integral()` process);
//   - the reversible component is algebraic: m_rev = c*man/(1+c)
//     (the listing's `core()` process).
//
// Negative slopes are clamped to zero (non-physical, Brown et al. 2001) and
// steps where dm would oppose dh are rejected, exactly as in the listing.
//
// Extensions beyond the paper (all off by default so the default object is
// paper-faithful): Heun and RK4 integration in H, and sub-stepping of large
// field increments.
#pragma once

#include <cmath>
#include <cstdint>

#include "mag/anhysteretic.hpp"
#include "mag/ja_params.hpp"
#include "mag/model.hpp"

namespace ferro::mag {

/// Integration scheme for the slope integral over H.
enum class HIntegrator {
  kForwardEuler,  ///< the paper's scheme: one explicit step per field event
  kHeun,          ///< 2nd-order predictor-corrector in H
  kRk4,           ///< classic 4th-order Runge-Kutta in H
};

[[nodiscard]] std::string_view to_string(HIntegrator scheme);

/// Discretisation controls. Defaults reproduce the published model.
struct TimelessConfig {
  /// Field event threshold [A/m]: integration fires only when the field has
  /// moved more than this since the last accepted update (paper's `dhmax`).
  double dhmax = 25.0;

  /// When > 0, a field event of |dH| > substep_max is integrated in
  /// ceil(|dH|/substep_max) equal sub-steps. 0 = one step per event (paper).
  double substep_max = 0.0;

  HIntegrator scheme = HIntegrator::kForwardEuler;

  /// Clamp negative dM/dH to zero ("to assure positive derivatives").
  bool clamp_negative_slope = true;

  /// Reject steps where dm*dh < 0 (the listing's second guard).
  bool clamp_direction = true;
};

/// Counters exposed for the stability experiments: the timeless model's
/// whole pitch is that these are its *only* interventions — there is no
/// Newton loop to fail and no time step to reject.
struct TimelessStats {
  std::uint64_t samples = 0;           ///< calls to apply()
  std::uint64_t field_events = 0;      ///< events that crossed dhmax
  std::uint64_t integration_steps = 0; ///< sub-steps actually integrated
  std::uint64_t slope_clamps = 0;      ///< negative slopes clamped to 0
  std::uint64_t direction_clamps = 0;  ///< dm*dh < 0 rejections
};

/// State snapshot (normalised magnetisation, i.e. fractions of Ms).
struct TimelessState {
  double m_irr = 0.0;    ///< irreversible component (listing's `mirr`)
  double m_total = 0.0;  ///< total normalised magnetisation (listing's `mtotal`)
  double anchor_h = 0.0; ///< field at the last accepted event (listing's `lasth`)
  double present_h = 0.0;///< most recently applied field
};

/// The timeless Jiles-Atherton hysteresis model.
///
/// Typical use:
/// ```
/// TimelessJa ja(paper_parameters());
/// for (double h : sweep.h) ja.apply(h);
/// double b = ja.flux_density();
/// ```
class TimelessJa {
 public:
  explicit TimelessJa(const JaParameters& params, const TimelessConfig& config = {});

  [[nodiscard]] static constexpr ModelKind kind() {
    return ModelKind::kJilesAtherton;
  }

  /// Applies a new field sample H [A/m]: refreshes the algebraic part and,
  /// when |H - anchor| exceeds dhmax, integrates the slope. Returns the
  /// normalised total magnetisation after the update.
  double apply(double h);

  /// Magnetisation M [A/m] = Ms * m_total.
  [[nodiscard]] double magnetisation() const;

  /// Flux density B [T] = mu0 * (M + H) at the present field.
  [[nodiscard]] double flux_density() const;

  /// Flux density B [T] the model would reach if apply(h) were called now,
  /// without changing the model: bitwise equal to copying the model,
  /// applying h to the copy and reading its flux_density(). This is the
  /// trial probe for Newton and bracketing solves around a committed state
  /// (circuit devices, the inverse model); it copies only the few doubles
  /// an update touches, not the whole model.
  [[nodiscard]] double flux_density_at(double h) const;

  /// Commits h as one field event whatever its distance from the anchor,
  /// zero included (detail::kEveryCallAnEvent), then returns the normalised
  /// total magnetisation. The circuit devices commit each accepted step with it:
  /// in a circuit, an accepted step is the event. config().dhmax is not
  /// consulted.
  double apply_event(double h);

  /// Flux density B [T] apply_event(h) would commit, without changing the
  /// model, bit for bit. Seen from the committed state this event map is
  /// continuous and monotone through the anchor, where flux_density_at
  /// jumps at |h - anchor| = dhmax; beyond dhmax the two agree. It is the
  /// map circuit Newton linearises.
  [[nodiscard]] double event_flux_density_at(double h) const;

  /// The second point of the one-sided difference the circuit devices take
  /// on the event map at h: h + 1e-6 * (1 + |h|) [A/m]. The Monte-Carlo
  /// packer evaluates the same two points.
  [[nodiscard]] static double event_probe_field(double h) {
    return h + 1e-6 * (1.0 + std::fabs(h));
  }

  /// dB/dH [T/(A/m)] of the event map at h from its values there (`b_at`)
  /// and at event_probe_field(h) (`b_probe`).
  [[nodiscard]] static double event_slope(double h, double b_at,
                                          double b_probe) {
    return (b_probe - b_at) / (event_probe_field(h) - h);
  }

  /// The last slope dm/dH used [1/(A/m)], after clamping (0 until the first
  /// field event). Normalised: multiply by Ms for dM/dH.
  [[nodiscard]] double last_slope() const { return last_slope_; }

  [[nodiscard]] const TimelessState& state() const { return state_; }
  [[nodiscard]] const TimelessStats& stats() const { return stats_; }
  [[nodiscard]] const JaParameters& params() const { return params_; }
  [[nodiscard]] const TimelessConfig& config() const { return config_; }

  /// Returns to the demagnetised virgin state at H = 0.
  void reset();

  /// Restores an explicit state verbatim (no algebraic refresh, so a
  /// state()/set_state round trip is exact). The model itself never
  /// rejects a sample; this is for callers that checkpoint and roll back.
  void set_state(const TimelessState& s);

  /// Precomputed hot-path constants. TimelessJaBatch::add_lane copies these
  /// instead of re-deriving them, so there is exactly one place the
  /// constant expressions live.
  [[nodiscard]] double c_over_1pc() const { return c_over_1pc_; }
  [[nodiscard]] double alpha_ms() const { return alpha_ms_; }
  [[nodiscard]] double one_pc_k() const { return one_pc_k_; }
  [[nodiscard]] double one_pc_alpha_ms() const { return one_pc_alpha_ms_; }

 private:
  /// This model as a lane of the shared update (mag/timeless_ja_step.hpp).
  struct Lane;

  /// The whole of apply(h) on the cursor (state, stats, last_slope): the
  /// shared update with this model's constants and integration scheme,
  /// firing events on |h - anchor| > threshold. apply()/apply_event() bind
  /// the members, the *_at() probes local copies.
  void advance(TimelessState& state, TimelessStats& stats, double& last_slope,
               double h, double threshold) const;

  /// B after advance(h, threshold) on a copy of the state.
  [[nodiscard]] double trial_flux_density(double h, double threshold) const;

  /// One Integral() step of the Heun/RK4 extension schemes over
  /// [h_target-dh, h_target] (Forward Euler is the shared EulerStep).
  void integrate_extension(const Lane& lane, double h_target, double dh) const;

  /// dm_irr/dH at a trial (h, m_irr) of the extension schemes: core()
  /// iterated to a short fixed point warm-started from the lane's total,
  /// then the clamped slope there, direction delta = sign(dh).
  [[nodiscard]] double trial_slope(const Lane& lane, double h, double m_irr,
                                   double delta) const;

  JaParameters params_;
  TimelessConfig config_;
  Anhysteretic anhysteretic_;
  TimelessState state_;
  TimelessStats stats_;
  double last_slope_ = 0.0;
  double c_over_1pc_;   ///< c/(1+c), the reversible weighting of the listing
  double alpha_ms_;     ///< alpha*Ms, the effective-field coupling [A/m]
  double one_pc_k_;        ///< (1+c)*k — slope denominator, pinning term
  double one_pc_alpha_ms_; ///< (1+c)*alpha*Ms — slope denominator, coupling term
};

static_assert(HysteresisModel<TimelessJa>);

}  // namespace ferro::mag
