// Kernel probes of the traced run: the magnetic layer's public kernels
// (TimelessJa::apply, TimelessJaBatch::run, EnergyBasedBatch::run) timed on
// the lanes a workload itself produces.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "mag/energy_based.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/sweep.hpp"

namespace perfbench {

/// One JA lane: a material, its discretisation and the field it sees.
struct JaLane {
  ferro::mag::JaParameters params;
  ferro::mag::TimelessConfig config;
  ferro::wave::HSweep sweep;
};

/// One energy-model lane.
struct EnergyLane {
  ferro::mag::EnergyBasedParams params;
  ferro::wave::HSweep sweep;
};

struct KernelFigures {
  double batch_ns_per_sample = 0.0;   ///< TimelessJaBatch::run, kExact
  double scalar_ns_per_sample = 0.0;  ///< TimelessJa::apply
  double substeps_per_sample = 0.0;   ///< TimelessStats integration_steps/samples
};

/// The two-cycle major loop a circuit core's parameters are probed over
/// (circuit cores carry no sweep of their own): amplitude 5 (a + k).
[[nodiscard]] ferro::wave::HSweep major_loop(const ferro::mag::JaParameters& p);

/// Medians over repeated passes within `budget_s` (at least one pass each).
/// Lanes outside the batch kernel's subset are timed scalar only.
[[nodiscard]] KernelFigures measure_ja_kernels(const std::vector<JaLane>& lanes,
                                               double budget_s);

/// EnergyBasedBatch::run ns per sample; 0 when there are no lanes.
[[nodiscard]] double measure_energy_kernel(const std::vector<EnergyLane>& lanes,
                                           double budget_s);

/// Prints a circuit workload's per-iteration time split (stderr), beside
/// the gprof split the ROADMAP recorded for serial bm_mc_inrush.
void print_split(const std::string& workload, const Values& v);

}  // namespace perfbench
