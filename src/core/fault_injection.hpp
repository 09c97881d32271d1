// Deterministic fault injection for the batch engine's failure paths.
//
// The robustness contracts — every failure drains, reports the right
// ErrorCode, leaks nothing — are only testable if failures can be produced
// on demand at the exact internal sites where they occur in production.
// FaultInjector is a process-global registry of named sites; a test arms a
// site with an action and a hit ordinal, and the engine's instrumented code
// paths call FERRO_FAULT_HIT(site) as they pass:
//
//     FaultInjector::arm(FaultSite::kSinkDeliver, {FaultAction::kThrow,
//                                                  /*nth=*/3});
//     ... run the batch: the 3rd sink delivery throws InjectedFault ...
//
// Actions: kThrow raises InjectedFault from inside the site, kStall sleeps
// (to widen race/cancellation windows), kPoison makes the hook return true
// so sites that own data corrupt it (the lane-compute site NaN-poisons its
// curve, driving the quarantine machinery).
//
// The hooks compile to `false` unless FERRO_FAULT_INJECTION is defined
// (CMake option of the same name, PUBLIC on the ferro target) — release
// builds carry zero overhead, and tests/test_fault_injection.cpp skips
// itself when the instrumentation is absent. Hit counting is deterministic
// per site under a serial batch (threads = 1); parallel batches still fire
// exactly once per armed ordinal, just at a scheduling-dependent site pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ferro::core {

/// Instrumented sites, one per distinct engine failure path. The kWorker*
/// sites live inside shard-executor worker *processes*: a forked worker
/// inherits the parent's armings (and per-process hit counters), so every
/// worker that reaches an armed site fires it — which is exactly what makes
/// a poison scenario deterministically poisonous across retries, respawns,
/// and bisection.
enum class FaultSite {
  kSinkDeliver,      ///< core::stream_batch: around each sink on_result
                     ///< (scenario and Monte-Carlo corner streams alike)
  kQueuePush,        ///< BasicResultQueue::push (worker -> consumer hand-off)
  kLaneCompute,      ///< packed lane result assembly (per lane)
  kTrajectorySolve,  ///< FrontendPlanSet::solve_trajectory (per job)
  kWorkerCrash,      ///< worker loop, before a scenario runs (arm kAbort)
  kWorkerStall,      ///< worker loop, before a scenario runs (arm kStall)
  kWireCorrupt,      ///< worker result-frame encode (arm kPoison to corrupt)
};
inline constexpr std::size_t kFaultSiteCount = 7;

enum class FaultAction {
  kThrow,   ///< throw InjectedFault at the site
  kStall,   ///< sleep stall_ms at the site, then continue normally
  kPoison,  ///< hook returns true; the site corrupts its own data
  kAbort,   ///< std::abort() at the site — a real SIGABRT process death
};

/// What injected throws raise — deliberately a std::runtime_error subclass
/// so the engine's ordinary exception capture handles it like any failure.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  struct Arm {
    FaultAction action = FaultAction::kThrow;
    /// Fire on the nth hit of the site (1-based), then every hit until
    /// `count` firings have happened.
    std::uint64_t nth = 1;
    std::uint64_t count = 1;
    int stall_ms = 25;  ///< kStall sleep per firing
    /// When non-empty, only hits whose context string contains this
    /// substring count (and can fire). This is how a shard-executor test
    /// poisons one *scenario* rather than the nth evaluation: the worker
    /// sites pass the scenario name as context, so the fault follows the
    /// scenario through retries, fresh workers, and bisected shards.
    std::string match;
  };

  /// Arms `site` (replacing any previous arming). Thread-safe.
  static void arm(FaultSite site, Arm arm);

  /// Disarms every site and zeroes the hit counters. Tests call this in
  /// SetUp/TearDown so armings never leak across test cases.
  static void reset();

  /// Hits observed at `site` since the last reset().
  [[nodiscard]] static std::uint64_t hits(FaultSite site);

  /// The engine-side hook (use FERRO_FAULT_HIT, not this, so uninstrumented
  /// builds compile the call out): counts a hit, performs the armed action
  /// if this hit fires, and returns true iff the action was kPoison.
  static bool fire(FaultSite site);

  /// Contextual hook (use FERRO_FAULT_HIT_CTX): like fire(), but a site
  /// armed with a non-empty `match` ignores hits whose `context` does not
  /// contain it.
  static bool fire(FaultSite site, std::string_view context);
};

}  // namespace ferro::core

#ifdef FERRO_FAULT_INJECTION
#define FERRO_FAULT_HIT(site) (::ferro::core::FaultInjector::fire(site))
#define FERRO_FAULT_HIT_CTX(site, context) \
  (::ferro::core::FaultInjector::fire(site, context))
#else
#define FERRO_FAULT_HIT(site) (false)
#define FERRO_FAULT_HIT_CTX(site, context) (false)
#endif
