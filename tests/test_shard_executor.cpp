// core::ShardExecutor — the multi-process supervision tree behind
// RunOptions{.isolation = Isolation::kProcess}.
//
// The always-on tests pin the healthy-path contracts: bitwise parity with
// in-process execution, exactly-once emission, graceful degradation
// (FERRO_SHARD_DISABLE, alien waveforms), and cancellation/deadline drains.
// The crash/stall/corruption recovery tests need real worker deaths, which
// the deterministic fault injector produces (arm kWorkerCrash/kWorkerStall/
// kWireCorrupt with a scenario-name match); they are compile-gated on
// FERRO_FAULT_INJECTION like the rest of the failure-path suite.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/cancel.hpp"
#include "core/error.hpp"
#include "core/fault_injection.hpp"
#include "core/scenario.hpp"
#include "core/shard_executor.hpp"
#include "mag/ja_params.hpp"
#include "support/fixtures.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fc = ferro::core;
namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace ts = ferro::testsupport;

namespace {

/// Homogeneous JA sweep batch. Names are "job#<i>/" — the trailing slash
/// makes "#5/" a unique substring, which is what the fault injector's
/// context match keys on.
std::vector<fc::Scenario> sweep_batch(std::size_t count) {
  const auto& library = fm::material_library();
  std::vector<fc::Scenario> scenarios(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = ts::saturation_amplitude(material.params);
    scenarios[i].name = "job#" + std::to_string(i) + "/" + material.name;
    scenarios[i].ja().params = material.params;
    scenarios[i].ja().config.dhmax = amp / 150.0;
    scenarios[i].drive = fw::SweepBuilder(amp / 200.0).cycles(amp, 1).build();
  }
  return scenarios;
}

bool bitwise_equal(const fc::ScenarioResult& a, const fc::ScenarioResult& b) {
  if (a.curve.size() != b.curve.size()) return false;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    const auto& pa = a.curve.points()[i];
    const auto& pb = b.curve.points()[i];
    if (std::memcmp(&pa, &pb, sizeof(pa)) != 0) return false;
  }
  return a.error.code == b.error.code &&
         std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) == 0;
}

/// Runs the executor and checks the exactly-once emission contract: every
/// index in [0, n) delivered exactly once, in the returned vector.
struct Collected {
  std::vector<fc::ScenarioResult> results;
  fc::ShardStats stats;
};

Collected collect(const fc::ShardExecutor& executor,
                  const std::vector<fc::Scenario>& scenarios,
                  fc::RunGate& gate) {
  Collected out;
  out.results.resize(scenarios.size());
  std::set<std::size_t> seen;
  out.stats = executor.run(
      scenarios,
      [&](std::size_t index, fc::ScenarioResult&& r) {
        ASSERT_LT(index, scenarios.size());
        ASSERT_TRUE(seen.insert(index).second)
            << "index " << index << " delivered twice";
        out.results[index] = std::move(r);
      },
      gate);
  EXPECT_EQ(seen.size(), scenarios.size())
      << "every scenario must be emitted exactly once";
  return out;
}

/// Restores FERRO_SHARD_DISABLE around a test that sets it.
struct ScopedDisable {
  ScopedDisable() { ::setenv("FERRO_SHARD_DISABLE", "1", 1); }
  ~ScopedDisable() { ::unsetenv("FERRO_SHARD_DISABLE"); }
};

class ShardExecutor : public ::testing::Test {
 protected:
  void SetUp() override { fc::FaultInjector::reset(); }
  void TearDown() override { fc::FaultInjector::reset(); }

  /// Fast deterministic retry schedule for the recovery tests: immediate
  /// retries keep them quick, and the fixed seed keeps them reproducible.
  static fc::ShardOptions fast_options(unsigned workers,
                                       std::size_t shard_size) {
    fc::ShardOptions o;
    o.workers = workers;
    o.shard_size = shard_size;
    o.retry = fc::BackoffPolicy{/*max_retries=*/2, /*base_ms=*/0.0,
                                /*cap_ms=*/0.0, /*multiplier=*/1.0,
                                /*decorrelated_jitter=*/false};
    return o;
  }
};

TEST_F(ShardExecutor, EmptyBatchIsANoop) {
  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor;
  bool emitted = false;
  const fc::ShardStats stats = executor.run(
      {}, [&](std::size_t, fc::ScenarioResult&&) { emitted = true; }, gate);
  EXPECT_FALSE(emitted);
  EXPECT_EQ(stats.workers_spawned, 0u);
}

TEST_F(ShardExecutor, HealthyBatchIsBitwiseIdenticalToInProcess) {
  const auto scenarios = sweep_batch(24);
  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(fast_options(3, 4));
  const Collected got = collect(executor, scenarios, gate);

  EXPECT_GT(got.stats.workers_spawned, 0u);
  EXPECT_FALSE(got.stats.degraded_in_process);
  EXPECT_EQ(got.stats.worker_crashes, 0u);
  EXPECT_EQ(got.stats.poisoned, 0u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const fc::ScenarioResult reference = fc::run_scenario(scenarios[i]);
    ASSERT_TRUE(got.results[i].ok()) << i << ": " << got.results[i].error;
    EXPECT_TRUE(bitwise_equal(got.results[i], reference))
        << "scenario " << i << " differs from the in-process run";
  }
}

TEST_F(ShardExecutor, ResolvedKnobsAreSane) {
  fc::ShardOptions o;
  o.workers = 8;
  const fc::ShardExecutor executor(o);
  // Never more workers than shards.
  EXPECT_EQ(executor.resolved_workers(3), 3u);
  EXPECT_EQ(executor.resolved_workers(100), 8u);
  EXPECT_GE(executor.resolved_shard_size(100), 1u);
  EXPECT_LE(executor.resolved_shard_size(1'000'000), 64u);

  fc::ShardOptions fixed;
  fixed.workers = 2;
  fixed.shard_size = 7;
  const fc::ShardExecutor pinned(fixed);
  EXPECT_EQ(pinned.resolved_shard_size(100), 7u);
}

TEST_F(ShardExecutor, DisableEnvDegradesToInProcess) {
  ScopedDisable disable;
  const auto scenarios = sweep_batch(6);
  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(fast_options(2, 2));
  const Collected got = collect(executor, scenarios, gate);

  EXPECT_TRUE(got.stats.degraded_in_process);
  EXPECT_EQ(got.stats.workers_spawned, 0u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const fc::ScenarioResult reference = fc::run_scenario(scenarios[i]);
    ASSERT_TRUE(got.results[i].ok()) << got.results[i].error;
    EXPECT_TRUE(bitwise_equal(got.results[i], reference));
  }
}

TEST_F(ShardExecutor, AlienWaveformRunsInTheSupervisor) {
  struct AlienWaveform final : fw::Waveform {
    [[nodiscard]] double value(double t) const override { return 100.0 * t; }
    [[nodiscard]] double derivative(double) const override { return 100.0; }
  };

  auto scenarios = sweep_batch(5);
  scenarios[2].drive =
      fc::TimeDrive{std::make_shared<AlienWaveform>(), 0.0, 1.0, 50};

  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(fast_options(2, 2));
  const Collected got = collect(executor, scenarios, gate);

  EXPECT_EQ(got.stats.in_process_fallback, 1u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const fc::ScenarioResult reference = fc::run_scenario(scenarios[i]);
    EXPECT_EQ(got.results[i].error.code, reference.error.code) << i;
    EXPECT_TRUE(bitwise_equal(got.results[i], reference)) << i;
  }
}

TEST_F(ShardExecutor, PreCancelledGateDrainsEverythingAsCancelled) {
  const auto scenarios = sweep_batch(10);
  fc::RunLimits limits;
  limits.cancel.cancel();
  fc::RunGate gate(limits);
  const fc::ShardExecutor executor(fast_options(2, 2));
  const Collected got = collect(executor, scenarios, gate);

  for (const auto& r : got.results) {
    EXPECT_EQ(r.error.code, fc::ErrorCode::kCancelled) << r.error;
  }
  EXPECT_EQ(gate.cancelled(), scenarios.size());
}

TEST_F(ShardExecutor, ExpiredDeadlineDrainsWithTheDeadlineVerdict) {
  const auto scenarios = sweep_batch(10);
  fc::RunLimits limits;
  limits.deadline_s = 1e-9;
  fc::RunGate gate(limits);
  const fc::ShardExecutor executor(fast_options(2, 2));
  const Collected got = collect(executor, scenarios, gate);

  // The gate may only trip after some scenarios already finished; everything
  // unfinished must carry the deadline verdict, nothing may be lost.
  for (const auto& r : got.results) {
    EXPECT_TRUE(r.ok() || r.error.code == fc::ErrorCode::kDeadlineExceeded)
        << r.error;
  }
}

TEST_F(ShardExecutor, MidRunCancellationDeliversEveryIndexOnce) {
  const auto scenarios = sweep_batch(48);
  fc::RunLimits limits;
  fc::RunGate gate(limits);
  std::thread canceller([&limits] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    limits.cancel.cancel();
  });
  const fc::ShardExecutor executor(fast_options(2, 4));
  const Collected got = collect(executor, scenarios, gate);
  canceller.join();

  for (const auto& r : got.results) {
    EXPECT_TRUE(r.ok() || r.error.code == fc::ErrorCode::kCancelled)
        << r.error;
  }
}

// -- BatchRunner integration -------------------------------------------------

TEST_F(ShardExecutor, BatchRunnerRoutesProcessIsolationBitwise) {
  const auto scenarios = sweep_batch(16);
  const fc::BatchRunner runner;
  const auto in_process = runner.run(scenarios);
  fc::RunOptions options;
  options.isolation = fc::Isolation::kProcess;
  options.shard = fast_options(2, 4);
  const auto isolated = runner.run(scenarios, options);

  ASSERT_EQ(isolated.size(), in_process.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(isolated[i], in_process[i])) << i;
  }
}

TEST_F(ShardExecutor, StreamingSinkSeesEveryIndexUnderProcessIsolation) {
  const auto scenarios = sweep_batch(12);

  struct RecordingSink : fc::ResultSink {
    void on_start(std::size_t n) override { total = n; }
    void on_result(std::size_t index, fc::ScenarioResult&&) override {
      indices.push_back(index);
    }
    void on_complete() override { ++completes; }
    std::vector<std::size_t> indices;
    std::size_t total = 0;
    int completes = 0;
  } sink;

  fc::RunOptions options;
  options.isolation = fc::Isolation::kProcess;
  options.shard = fast_options(2, 3);
  const fc::StreamSummary summary =
      fc::BatchRunner().run(scenarios, sink, options);

  EXPECT_EQ(sink.total, scenarios.size());
  EXPECT_EQ(sink.completes, 1);
  EXPECT_EQ(summary.delivered + summary.discarded_deliveries,
            scenarios.size());
  std::set<std::size_t> unique(sink.indices.begin(), sink.indices.end());
  EXPECT_EQ(unique.size(), scenarios.size());
}

#ifdef FERRO_FAULT_INJECTION

// -- Crash recovery (needs real worker deaths: the injected-fault build) ----

TEST_F(ShardExecutor, PoisonScenarioIsBisectedOutOf256) {
  // The acceptance scenario: 1 poison among 256. Every worker that tries
  // job#137 aborts (armed sites are inherited across fork with per-process
  // counters, so the poison follows the scenario through retries, respawns,
  // and bisection).
  const auto scenarios = sweep_batch(256);
  fc::FaultInjector::arm(
      fc::FaultSite::kWorkerCrash,
      {fc::FaultAction::kAbort, /*nth=*/1, /*count=*/1u << 20,
       /*stall_ms=*/0, /*match=*/"#137/"});

  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(fast_options(4, 8));
  const Collected got = collect(executor, scenarios, gate);

  EXPECT_EQ(got.results[137].error.code, fc::ErrorCode::kWorkerCrashed)
      << got.results[137].error;
  EXPECT_EQ(got.stats.poisoned, 1u);
  EXPECT_GE(got.stats.worker_crashes, 1u);
  EXPECT_GE(got.stats.bisections, 1u) << "a shard of 8 must bisect to 1";
  EXPECT_GE(gate.quarantined(), 1u);

  // The other 255 results are bitwise identical to an in-process run.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i == 137) continue;
    const fc::ScenarioResult reference = fc::run_scenario(scenarios[i]);
    ASSERT_TRUE(got.results[i].ok()) << i << ": " << got.results[i].error;
    ASSERT_TRUE(bitwise_equal(got.results[i], reference))
        << "scenario " << i << " differs from the in-process run";
  }
}

TEST_F(ShardExecutor, PoisonIsReportedThroughBatchRunnerStreaming) {
  const auto scenarios = sweep_batch(32);
  fc::FaultInjector::arm(
      fc::FaultSite::kWorkerCrash,
      {fc::FaultAction::kAbort, /*nth=*/1, /*count=*/1u << 20,
       /*stall_ms=*/0, /*match=*/"#7/"});

  struct RecordingSink : fc::ResultSink {
    void on_result(std::size_t index, fc::ScenarioResult&& r) override {
      received.emplace_back(index, std::move(r));
    }
    std::vector<std::pair<std::size_t, fc::ScenarioResult>> received;
  } sink;

  fc::RunOptions options;
  options.isolation = fc::Isolation::kProcess;
  options.shard = fast_options(2, 4);
  const fc::StreamSummary summary =
      fc::BatchRunner().run(scenarios, sink, options);

  EXPECT_EQ(summary.delivered + summary.discarded_deliveries,
            scenarios.size());
  std::size_t crashed = 0;
  for (const auto& [index, r] : sink.received) {
    if (r.error.code == fc::ErrorCode::kWorkerCrashed) {
      EXPECT_EQ(index, 7u);
      ++crashed;
    }
  }
  EXPECT_EQ(crashed, 1u);
}

TEST_F(ShardExecutor, WedgedWorkerIsDetectedByHeartbeatTimeout) {
  const auto scenarios = sweep_batch(12);
  // job#3 stalls its worker well past the heartbeat timeout, on every
  // worker that picks it up; the supervisor must SIGKILL the wedged worker
  // and finish the batch within the configured timeouts rather than hang.
  fc::FaultInjector::arm(
      fc::FaultSite::kWorkerStall,
      {fc::FaultAction::kStall, /*nth=*/1, /*count=*/1u << 20,
       /*stall_ms=*/2000, /*match=*/"#3/"});

  fc::ShardOptions options = fast_options(2, 3);
  options.heartbeat_timeout_s = 0.2;
  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(options);

  const auto start = std::chrono::steady_clock::now();
  const Collected got = collect(executor, scenarios, gate);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_GE(got.stats.worker_stalls, 1u);
  EXPECT_EQ(got.results[3].error.code, fc::ErrorCode::kWorkerCrashed)
      << got.results[3].error;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(got.results[i].ok()) << i << ": " << got.results[i].error;
  }
  // Retry courses are immediate and the stall is detected at ~0.2 s each
  // time; even with bisection overhead the batch must finish promptly.
  EXPECT_LT(elapsed, 20.0);
}

TEST_F(ShardExecutor, CorruptResultFrameIsContainedAndCounted) {
  const auto scenarios = sweep_batch(16);
  // Every worker corrupts its first job#5 result frame; the supervisor
  // must catch the checksum mismatch, never trust the payload, and contain
  // the scenario like any other repeat offender.
  fc::FaultInjector::arm(
      fc::FaultSite::kWireCorrupt,
      {fc::FaultAction::kPoison, /*nth=*/1, /*count=*/1u << 20,
       /*stall_ms=*/0, /*match=*/"#5/"});

  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(fast_options(2, 4));
  const Collected got = collect(executor, scenarios, gate);

  EXPECT_GE(got.stats.wire_errors, 1u);
  EXPECT_EQ(got.results[5].error.code, fc::ErrorCode::kWorkerCrashed)
      << got.results[5].error;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i == 5) continue;
    const fc::ScenarioResult reference = fc::run_scenario(scenarios[i]);
    ASSERT_TRUE(got.results[i].ok()) << i << ": " << got.results[i].error;
    ASSERT_TRUE(bitwise_equal(got.results[i], reference)) << i;
  }
}

TEST_F(ShardExecutor, RestartBudgetExhaustionCancelsTheRemainder) {
  const auto scenarios = sweep_batch(24);
  // Every worker dies before its first scenario: no progress is possible,
  // and the executor must stop burning processes at the restart budget and
  // report the remainder instead of spinning forever.
  fc::FaultInjector::arm(fc::FaultSite::kWorkerCrash,
                         {fc::FaultAction::kAbort, /*nth=*/1,
                          /*count=*/1u << 20, /*stall_ms=*/0, /*match=*/""});

  fc::ShardOptions options = fast_options(2, 4);
  options.max_worker_restarts = 3;
  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(options);
  const Collected got = collect(executor, scenarios, gate);

  EXPECT_LE(got.stats.workers_spawned, 2u + 3u);
  std::size_t budget_cancelled = 0;
  for (const auto& r : got.results) {
    EXPECT_FALSE(r.ok()) << "nothing can succeed when every worker dies";
    if (r.error.code == fc::ErrorCode::kCancelled &&
        r.error.detail.find("restart budget") != std::string::npos) {
      ++budget_cancelled;
    }
  }
  EXPECT_GT(budget_cancelled, 0u)
      << "the budget verdict must name the restart budget";
}

TEST_F(ShardExecutor, KillStormStillDeliversEveryIndexExactlyOnce) {
  const auto scenarios = sweep_batch(32);
  // A storm: every worker survives two scenarios, then dies on each later
  // one. Fresh workers keep making bounded progress; the supervisor must
  // neither hang nor lose or duplicate an index, whatever mix of retries,
  // bisections, and poison verdicts the storm produces.
  fc::FaultInjector::arm(fc::FaultSite::kWorkerCrash,
                         {fc::FaultAction::kAbort, /*nth=*/3,
                          /*count=*/1u << 20, /*stall_ms=*/0, /*match=*/""});

  fc::ShardOptions options = fast_options(4, 4);
  options.max_worker_restarts = 64;
  fc::RunGate gate{fc::RunLimits{}};
  const fc::ShardExecutor executor(options);
  const Collected got = collect(executor, scenarios, gate);

  EXPECT_GE(got.stats.worker_crashes, 1u);
  for (const auto& r : got.results) {
    EXPECT_TRUE(r.ok() || r.error.code == fc::ErrorCode::kWorkerCrashed ||
                r.error.code == fc::ErrorCode::kCancelled)
        << r.error;
  }
}

#else  // !FERRO_FAULT_INJECTION

TEST_F(ShardExecutor, RecoveryTestsNeedFaultInjection) {
  GTEST_SKIP() << "worker-crash recovery tests need the injected-fault "
                  "build; reconfigure with -DFERRO_FAULT_INJECTION=ON";
}

#endif  // FERRO_FAULT_INJECTION

}  // namespace
