// ferro_shard — run a scenario batch under process isolation and report
// what the supervision tree did.
//
// Builds a synthetic workload from the material library (or replays it
// in-process for comparison), executes it through core::ShardExecutor —
// the engine behind RunOptions{.isolation = Isolation::kProcess} — and
// prints the ShardStats counters: workers forked, crashes survived,
// shards retried, poison scenarios bisected out. With --verify the same
// batch also runs in-process and every curve is compared bitwise, which
// demonstrates the executor's parity contract from the command line.
//
// Typical use:
//   ferro_shard --scenarios 256
//   ferro_shard --scenarios 256 --workers 4 --shard-size 8 --verify
//   FERRO_SHARD_DISABLE=1 ferro_shard        # graceful degradation path
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/cancel.hpp"
#include "core/scenario.hpp"
#include "core/shard_executor.hpp"
#include "mag/ja_params.hpp"
#include "wave/sweep.hpp"

namespace {

using namespace ferro;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "workload\n"
      "  --scenarios N     batch size (default: 256)\n"
      "  --cycles N        sweep cycles per scenario (default: 2)\n"
      "\n"
      "isolation\n"
      "  --workers N       worker processes, 0 = hardware (default: 0)\n"
      "  --shard-size N    scenarios per shard, 0 = auto (default: 0)\n"
      "  --heartbeat S     wedged-worker timeout in seconds (default: 30)\n"
      "  --max-restarts N  respawn budget beyond the fleet (default: 32)\n"
      "  --deadline S      batch wall-clock budget, 0 = none (default: 0)\n"
      "\n"
      "checks\n"
      "  --verify          also run in-process and compare curves bitwise\n",
      argv0);
}

std::vector<core::Scenario> build_workload(std::size_t count, int cycles) {
  const auto& library = mag::material_library();
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = 5.0 * (material.params.a + material.params.k);
    core::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    core::JaSpec spec;
    spec.params = material.params;
    // Jitter the event threshold so jobs are distinct work units.
    spec.config.dhmax = amp / (300.0 + 10.0 * static_cast<double>(i % 8));
    s.model = spec;
    wave::HSweep sweep = wave::SweepBuilder(amp / 900.0).cycles(amp, cycles).build();
    s.metrics_window = core::MetricsWindow{sweep.size() / 2, sweep.size() - 1};
    s.drive = std::move(sweep);
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

bool bitwise_equal(const core::ScenarioResult& a, const core::ScenarioResult& b) {
  if (a.curve.size() != b.curve.size()) return false;
  for (std::size_t j = 0; j < a.curve.size(); ++j) {
    const auto& pa = a.curve.points()[j];
    const auto& pb = b.curve.points()[j];
    if (std::memcmp(&pa, &pb, sizeof(pa)) != 0) return false;
  }
  return a.error.code == b.error.code;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_scenarios = 256;
  int cycles = 2;
  bool verify = false;
  core::ShardOptions shard;
  core::RunLimits limits;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--scenarios") == 0) {
      n_scenarios = cli::arg_number<std::size_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--cycles") == 0) {
      cycles = cli::arg_number<int>(argc, argv, i);
    } else if (std::strcmp(arg, "--workers") == 0) {
      shard.workers = cli::arg_number<unsigned>(argc, argv, i);
    } else if (std::strcmp(arg, "--shard-size") == 0) {
      shard.shard_size = cli::arg_number<std::size_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--heartbeat") == 0) {
      shard.heartbeat_timeout_s = cli::arg_number<double>(argc, argv, i);
    } else if (std::strcmp(arg, "--max-restarts") == 0) {
      shard.max_worker_restarts = cli::arg_number<std::size_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--deadline") == 0) {
      limits.deadline_s = cli::arg_number<double>(argc, argv, i);
    } else if (std::strcmp(arg, "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg);
      usage(argv[0]);
      return 2;
    }
  }

  const auto scenarios = build_workload(n_scenarios, cycles);
  const core::ShardExecutor executor(shard);
  std::printf("batch: %zu scenarios, %u workers, shard size %zu\n",
              scenarios.size(), executor.resolved_workers(scenarios.size()),
              executor.resolved_shard_size(scenarios.size()));

  std::vector<core::ScenarioResult> results(scenarios.size());
  core::RunGate gate(limits);
  const core::ShardStats stats = executor.run(
      scenarios,
      [&](std::size_t index, core::ScenarioResult&& r) {
        results[index] = std::move(r);
      },
      gate);

  std::size_t ok = 0, failed = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++ok;
    } else {
      ++failed;
    }
  }

  std::printf("results: %zu ok, %zu failed\n", ok, failed);
  std::printf(
      "supervision: %zu workers spawned, %zu crashes, %zu stalls, "
      "%zu restarts\n",
      stats.workers_spawned, stats.worker_crashes, stats.worker_stalls,
      stats.worker_restarts);
  std::printf(
      "recovery: %zu shard retries, %zu bisections, %zu poisoned, "
      "%zu wire errors\n",
      stats.shard_retries, stats.bisections, stats.poisoned,
      stats.wire_errors);
  if (stats.in_process_fallback != 0 || stats.degraded_in_process) {
    std::printf("fallback: %zu in-process scenario(s)%s\n",
                stats.in_process_fallback,
                stats.degraded_in_process ? ", fleet degraded to in-process"
                                          : "");
  }

  if (verify) {
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const core::ScenarioResult reference = core::run_scenario(scenarios[i]);
      if (!bitwise_equal(results[i], reference)) ++mismatched;
    }
    if (mismatched != 0) {
      std::printf("verify: FAIL — %zu of %zu curves differ from in-process\n",
                  mismatched, scenarios.size());
      return 1;
    }
    std::printf("verify: OK — all %zu curves bitwise identical to in-process\n",
                scenarios.size());
  }

  return failed == 0 ? 0 : 1;
}
