#include "mag/ja_trace.hpp"

#include <cassert>

#include "mag/timeless_ja_step.hpp"

namespace ferro::mag {

JaTrace build_ja_trace(std::span<const double> samples,
                       const TimelessConfig& config) {
  assert(config.dhmax > 0.0);
  assert(config.scheme == HIntegrator::kForwardEuler);

  JaTrace trace;
  if (samples.size() <= 1) return trace;

  // Worst case is one event row plus two refresh rows per sample; reserve
  // the common case (mostly single-step events) and let rare sub-step
  // cascades grow the vectors.
  trace.h.reserve(samples.size() * 2);
  trace.dh.reserve(samples.size() * 2);
  trace.record_rows.reserve(samples.size() - 1);

  // The virgin state anchors at H = 0 (TimelessJa::reset); samples[0] is
  // published before any update and never passes through apply().
  double anchor = 0.0;
  for (std::size_t s = 1; s < samples.size(); ++s) {
    detail::expand_sample(samples[s], anchor, config.dhmax,
                          config.substep_max, trace.planned,
                          [&](double h, double dh) {
                            trace.h.push_back(h);
                            trace.dh.push_back(dh);
                          });
    trace.record_rows.push_back(
        static_cast<std::uint32_t>(trace.h.size() - 1));
  }
  return trace;
}

}  // namespace ferro::mag
