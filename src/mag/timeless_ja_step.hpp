// The exact timeless JA update, written once (internal header): the
// listing's core() refresh, Integral() Forward-Euler step and monitorH()
// event threshold, plus the sub-step expansion of large events. The scalar
// TimelessJa, the kExact lanes of TimelessJaBatch (threshold and trace
// replay) and the JaTrace planner all instantiate these templates, so
// their bitwise agreement holds by construction. The FastMath span
// (timeless_ja_batch_span.hpp) has its own arithmetic; core/systemc_ja.cpp
// stays separate on purpose as the independent parity reference.
//
// A *lane* is one model as the update sees it:
//   constants   alpha_ms(), c_over_1pc(), one_pc_k(), one_pc_alpha_ms()
//   clamps      clamp_slope(), clamp_direction()          (bool)
//   physics     man(he)                                   (Anhysteretic::man)
//   state       m_irr(), m_total(), anchor_h(), present_h(), last_slope()
//               (double&) and stats() (TimelessStats&)
// The templates go through the lane at every use, after the out-of-line
// man() call. A batch lane is just (batch, index), so only those two stay
// live across the call; caching constants or state addresses in locals
// before it makes the batch lanes spill them around it.
#pragma once

#include <cmath>
#include <cstdint>

#include "mag/timeless_ja.hpp"

namespace ferro::mag::detail {

/// core(): He from the previous total (a plain member in the listing, so
/// there is no fixed-point iteration), then man and the refreshed total.
/// Returns man, the value Integral() consumes.
template <class Lane>
inline double refresh(const Lane& lane, double h) {
  const double man = lane.man(h + lane.alpha_ms() * lane.m_total());
  lane.m_total() = lane.c_over_1pc() * man + lane.m_irr();
  lane.present_h() = h;
  return man;
}

/// The listing's slope from a precomputed deltam = man - mtotal:
///   dmdh = deltam / ((1+c) * (delta*k - alpha*ms*deltam))
/// with (1+c) distributed into the lane constants: two multiplies instead
/// of three, rounding differently from the listing in the last ulp (the
/// fig1 golden pins it). A zero denominator and, when the lane clamps, a
/// negative slope become 0 and count a clamp.
template <class Lane>
inline double clamped_slope(const Lane& lane, double delta_m, double delta) {
  const double denom =
      delta * lane.one_pc_k() - lane.one_pc_alpha_ms() * delta_m;
  if (denom == 0.0) {
    ++lane.stats().slope_clamps;
    return 0.0;
  }
  const double dmdh = delta_m / denom;
  if (lane.clamp_slope() && dmdh < 0.0) {
    ++lane.stats().slope_clamps;
    return 0.0;
  }
  return dmdh;
}

/// Integral()'s commit of one step of width dh at slope s, with the
/// listing's second guard: a dm opposing dh is rejected when the lane
/// clamps direction. Does not count integration_steps: that counter is a
/// planned fact, counted by expand_sample.
template <class Lane>
inline void integrate(const Lane& lane, double dh, double s) {
  double dm = dh * s;
  if (lane.clamp_direction() && dm * dh < 0.0) {
    ++lane.stats().direction_clamps;
    dm = 0.0;
  }
  lane.m_irr() += dm;
  lane.last_slope() = s;
}

/// The paper's Forward-Euler Integral(), as a row step: the slope comes
/// from the man/mtotal pair that refresh() just published.
struct EulerStep {
  template <class Lane>
  void operator()(const Lane& lane, double man, double /*h*/,
                  double dh) const {
    const double delta = dh > 0.0 ? 1.0 : -1.0;
    integrate(lane, dh, clamped_slope(lane, man - lane.m_total(), delta));
  }
};

/// monitorH(): unrolls one apply(h) from `anchor` into rows, calling
/// row(h_row, dh_row) in execution order. A row refreshes at h_row and,
/// when dh_row != 0, integrates one step of that width. With
/// dh_total = h - anchor:
///   * no event (|dh_total| <= dhmax):   (h, 0)
///   * event, one step:                  (h, dh_total) (h, 0)
///   * event, n sub-steps of width sub:  (h, 0) (anchor+sub, sub) ...
///                                       (anchor+n*sub, sub) (h, 0)
/// The last row of every sample publishes it. The trailing refresh of an
/// event is the feedback refresh, so the output already reflects this
/// event's dm. An event moves `anchor` to h. Counts samples, field_events
/// and integration_steps into `planned`.
template <class Row>
inline void expand_sample(double h, double& anchor, double dhmax,
                          double substep_max, TimelessStats& planned,
                          Row&& row) {
  ++planned.samples;
  const double from = anchor;
  const double dh_total = h - from;
  if (!(std::fabs(dh_total) > dhmax)) {
    row(h, 0.0);
    return;
  }
  ++planned.field_events;
  if (substep_max > 0.0 && std::fabs(dh_total) > substep_max) {
    row(h, 0.0);
    // int64: an inverse-solve bracket probe can span fields where the
    // sub-step count exceeds INT_MAX, and an int cast is UB there.
    const auto n = static_cast<std::int64_t>(
        std::ceil(std::fabs(dh_total) / substep_max));
    const double sub = dh_total / static_cast<double>(n);
    for (std::int64_t i = 1; i <= n; ++i) {
      row(from + sub * static_cast<double>(i), sub);
      ++planned.integration_steps;
    }
  } else {
    row(h, dh_total);
    ++planned.integration_steps;
  }
  anchor = h;
  row(h, 0.0);
}

/// The threshold that makes every sample an event, a zero-width one
/// included (expand_sample fires on |h - anchor| > threshold): the event
/// map of TimelessJa::apply_event. A zero-width event is two refreshes, the
/// limit of a vanishing step, so B(h) seen from a committed state is
/// continuous through the anchor; beyond dhmax it is the paper's map.
inline constexpr double kEveryCallAnEvent = -1.0;

/// One row of the program: refresh() at h and, when dh != 0, one
/// Integral() step of width dh through step(lane, man, h, dh).
template <class Lane, class Step>
inline void run_row(const Lane& lane, double h, double dh, const Step& step) {
  const double man = refresh(lane, h);
  if (dh != 0.0) step(lane, man, h, dh);
}

/// One whole apply(h) on a lane: expand_sample's rows, each run by
/// run_row().
template <class Lane, class Step>
inline void apply_sample(const Lane& lane, double h, double dhmax,
                         double substep_max, const Step& step) {
  expand_sample(
      h, lane.anchor_h(), dhmax, substep_max, lane.stats(),
      [&](double h_row, double dh) { run_row(lane, h_row, dh, step); });
}

}  // namespace ferro::mag::detail
