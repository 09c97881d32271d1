// ckt::MonteCarlo tests: scatter determinism, thread-count and partition
// bitwise invariance, packed-vs-scalar identity (down to the waveforms),
// poison-corner isolation, RunLimits, and the streaming delivery contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ckt/engine.hpp"
#include "ckt/ja_inductor.hpp"
#include "ckt/monte_carlo.hpp"
#include "ckt/netlist.hpp"
#include "ckt/rlc.hpp"
#include "ckt/scatter.hpp"
#include "ckt/sources.hpp"
#include "ckt/transformer.hpp"
#include "wave/standard.hpp"

namespace fk = ferro::ckt;
namespace fe = ferro::core;
namespace fm = ferro::mag;
namespace fw = ferro::wave;

namespace {

/// The inrush demo circuit scaled down to a fast test transient.
void build_corner(const fk::CornerView& view, fk::Circuit& circuit) {
  const auto in = circuit.node("in");
  const auto out = circuit.node("out");
  circuit.add<fk::VoltageSource>("V", in, fk::kGround,
                                 std::make_shared<fw::Sine>(8.0, 50.0));
  circuit.add<fk::Resistor>("R", in, out, view.value("r.value", 0.8));
  fm::CoreGeometry geom;
  geom.area = view.value("lcore.area", 1e-4);
  geom.path_length = 0.1;
  geom.turns = 100;
  fm::TimelessConfig config;
  config.dhmax = 5.0;
  fm::JaParameters params = fm::paper_parameters();
  params.ms = view.value("lcore.ms", params.ms);
  circuit.add<fk::JaInductor>("Lcore", out, fk::kGround, geom, params, config);
}

fk::ScatterSpec demo_spec() {
  fk::ScatterSpec spec;
  spec.params = {
      {"r.value", 0.05, fk::ScatterKind::kUniform},
      {"lcore.area", 0.02, fk::ScatterKind::kUniform},
      {"lcore.ms", 0.10, fk::ScatterKind::kNormal},
  };
  return spec;
}

fk::MonteCarloOptions demo_options(std::size_t corners) {
  fk::MonteCarloOptions options;
  options.corners = corners;
  options.transient.t_end = 2e-3;  // a tenth of a cycle: fast but nontrivial
  options.transient.dt_initial = 1e-6;
  options.transient.dt_max = 2e-5;
  options.probes = {{fk::Probe::Kind::kBranchCurrent, "Lcore"},
                    {fk::Probe::Kind::kCoreFluxDensity, "Lcore"}};
  return options;
}

fk::MonteCarlo demo_mc(std::uint64_t seed = 7) {
  return fk::MonteCarlo(fk::CornerSampler(demo_spec(), seed), build_corner);
}

bool bitwise_equal(const fk::CornerResult& a, const fk::CornerResult& b) {
  if (a.index != b.index || a.error.code != b.error.code) return false;
  if (std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) != 0) return false;
  if (a.draws.factors.size() != b.draws.factors.size()) return false;
  for (std::size_t i = 0; i < a.draws.factors.size(); ++i) {
    if (std::memcmp(&a.draws.factors[i], &b.draws.factors[i],
                    sizeof(double)) != 0) {
      return false;
    }
  }
  if (a.probes.size() != b.probes.size()) return false;
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    if (std::memcmp(&a.probes[i], &b.probes[i], sizeof(fk::ProbeSummary)) !=
        0) {
      return false;
    }
  }
  if (a.t.size() != b.t.size() || a.waveforms.size() != b.waveforms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.t.size(); ++i) {
    if (std::memcmp(&a.t[i], &b.t[i], sizeof(double)) != 0) return false;
  }
  for (std::size_t p = 0; p < a.waveforms.size(); ++p) {
    if (a.waveforms[p].size() != b.waveforms[p].size()) return false;
    for (std::size_t i = 0; i < a.waveforms[p].size(); ++i) {
      if (std::memcmp(&a.waveforms[p][i], &b.waveforms[p][i],
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

TEST(Scatter, ParseSpecAndDiagnostics) {
  const auto parsed = fk::parse_scatter_spec(
      "# tolerances\n"
      "r1.value 0.05\n"
      "y1.ms    0.10 normal   * trailing comment\n"
      "\n"
      "y1.area  0.02 uniform\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.spec->size(), 3u);
  EXPECT_EQ(parsed.spec->params[0].key, "r1.value");
  EXPECT_EQ(parsed.spec->params[0].kind, fk::ScatterKind::kUniform);
  EXPECT_EQ(parsed.spec->params[1].kind, fk::ScatterKind::kNormal);
  EXPECT_TRUE(parsed.spec->find("y1.ms").has_value());
  EXPECT_FALSE(parsed.spec->find("nope.value").has_value());

  const auto bad = fk::parse_scatter_spec(
      "novalue\n"
      "nodot 0.1\n"
      "r1.value nan-ish\n"
      "r1.value 1.5\n"
      "dup.x 0.1\ndup.x 0.2\n"
      "d.k 0.1 cauchy\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.errors.size(), 6u);
}

TEST(Scatter, DrawsAreDeterministicAndBounded) {
  const fk::CornerSampler sampler(demo_spec(), 123);
  const fk::CornerSampler same(demo_spec(), 123);
  const fk::CornerSampler other(demo_spec(), 124);

  for (std::size_t i = 0; i < 64; ++i) {
    const auto a = sampler.corner(i);
    const auto b = same.corner(i);
    ASSERT_EQ(a.factors.size(), 3u);
    for (std::size_t p = 0; p < a.factors.size(); ++p) {
      EXPECT_EQ(a.factors[p], b.factors[p]);  // pure function of (seed, i)
    }
    // Uniform draws live in [1 - tol, 1 + tol); normal draws are truncated
    // at 3 sigma, so the same bound holds for them too.
    const double tolerances[3] = {0.05, 0.02, 0.10};
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_GE(a.factors[p], 1.0 - tolerances[p]);
      EXPECT_LE(a.factors[p], 1.0 + tolerances[p]);
    }
  }
  // Different seeds decorrelate (astronomically unlikely to collide).
  EXPECT_NE(sampler.corner(0).factors[0], other.corner(0).factors[0]);
}

TEST(MonteCarlo, MatchesDirectTransientAtCorner) {
  // Corner i of the sweep must be bit-for-bit the run you get by building
  // the same circuit by hand and calling run_transient — packing included.
  const std::size_t kCorner = 3;
  const fk::CornerSampler sampler(demo_spec(), 7);

  auto options = demo_options(8);
  options.record_waveforms = true;
  options.packing = fk::McPacking::kPackedExact;
  const auto results = demo_mc().run(options);
  ASSERT_EQ(results.size(), 8u);
  const fk::CornerResult& mc = results[kCorner];
  ASSERT_TRUE(mc.ok()) << mc.error;

  fk::Circuit circuit;
  const auto draws = sampler.corner(kCorner);
  build_corner(fk::CornerView(sampler.spec(), draws, kCorner), circuit);
  std::vector<double> i_wave, b_wave, t_wave;
  const fk::JaInductor* core = nullptr;
  for (const auto& d : circuit.devices()) {
    if ((core = dynamic_cast<const fk::JaInductor*>(d.get()))) break;
  }
  fk::CircuitStats stats;
  const fe::Error error = fk::run_transient(
      circuit, options.transient,
      [&](const fk::Solution& sol) {
        t_wave.push_back(sol.t);
        i_wave.push_back(sol.branch_current(1));
        b_wave.push_back(core->flux_density());
      },
      &stats);
  ASSERT_TRUE(error.ok()) << error;

  EXPECT_EQ(mc.stats.steps_accepted, stats.steps_accepted);
  EXPECT_EQ(mc.stats.newton_iterations, stats.newton_iterations);
  ASSERT_EQ(mc.t.size(), t_wave.size());
  for (std::size_t k = 0; k < t_wave.size(); ++k) {
    ASSERT_EQ(mc.t[k], t_wave[k]);
    ASSERT_EQ(mc.waveforms[0][k], i_wave[k]);  // bitwise: == on doubles
    ASSERT_EQ(mc.waveforms[1][k], b_wave[k]);
  }
}

TEST(MonteCarlo, ThreadCountAndPartitionInvariance) {
  // The property the scatter header promises: results are a pure function
  // of (seed, index) — never of the parallel schedule. Sweep thread counts
  // and chunk sizes (which are also the lockstep group sizes) and compare
  // everything bitwise, waveforms included.
  auto options = demo_options(12);
  options.record_waveforms = true;
  options.packing = fk::McPacking::kPackedExact;
  options.threads = 1;
  options.chunk = 12;  // one group: the whole sweep in lockstep
  const auto reference = demo_mc().run(options);
  ASSERT_EQ(reference.size(), 12u);
  for (const auto& r : reference) ASSERT_TRUE(r.ok()) << r.error;

  const struct {
    unsigned threads;
    std::size_t chunk;
  } schedules[] = {{1, 1}, {1, 5}, {2, 3}, {4, 1}, {4, 4}, {3, 7}};
  for (const auto& schedule : schedules) {
    options.threads = schedule.threads;
    options.chunk = schedule.chunk;
    const auto results = demo_mc().run(options);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(results[i], reference[i]))
          << "corner " << i << " diverged at threads=" << schedule.threads
          << " chunk=" << schedule.chunk;
    }
  }
}

TEST(MonteCarlo, PackedMatchesScalarBitwise) {
  auto options = demo_options(10);
  options.record_waveforms = true;
  options.packing = fk::McPacking::kScalar;
  const auto scalar = demo_mc().run(options);

  options.packing = fk::McPacking::kPackedExact;
  options.threads = 2;
  options.chunk = 5;
  const auto packed = demo_mc().run(options);

  ASSERT_EQ(scalar.size(), packed.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_TRUE(scalar[i].ok()) << scalar[i].error;
    EXPECT_TRUE(bitwise_equal(scalar[i], packed[i])) << "corner " << i;
  }
}

TEST(MonteCarlo, PackedFastStaysNearExactAndIsScheduleInvariant) {
  // The FastMath lanes trade bitwise identity with the scalar model for a
  // bounded error, but they keep the schedule contract: results depend on
  // (seed, index) only, never on threads or lockstep group size.
  auto options = demo_options(12);
  options.record_waveforms = true;
  options.packing = fk::McPacking::kPackedExact;
  options.threads = 1;
  options.chunk = 12;
  const auto exact = demo_mc().run(options);

  options.packing = fk::McPacking::kPackedFast;
  const auto reference = demo_mc().run(options);
  ASSERT_EQ(reference.size(), exact.size());
  // The polynomial anhysteretic is accurate to ~5e-13 (atan kind); through
  // this transient it moves the probe peaks by ~1e-13 relative, so the
  // bound leaves four orders of headroom yet still catches a wrong lane.
  constexpr double kPeakRelTol = 1e-9;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(reference[i].ok()) << "corner " << i << ": "
                                   << reference[i].error;
    for (std::size_t p = 0; p < reference[i].probes.size(); ++p) {
      const double want = exact[i].probes[p].abs_peak;
      EXPECT_LE(std::fabs(reference[i].probes[p].abs_peak - want),
                kPeakRelTol * std::fabs(want))
          << "corner " << i << " probe " << p;
    }
  }

  for (const unsigned threads : {1u, 3u}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{5}}) {
      options.threads = threads;
      options.chunk = chunk;
      const auto results = demo_mc().run(options);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(results[i], reference[i]))
            << "corner " << i << " diverged at threads=" << threads
            << " chunk=" << chunk;
      }
    }
  }
}

TEST(MonteCarlo, SeedReproducibilityAndDivergence) {
  const auto options = demo_options(6);
  const auto a = demo_mc(99).run(options);
  const auto b = demo_mc(99).run(options);
  const auto c = demo_mc(100).run(options);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a[i], b[i])) << "corner " << i;
    EXPECT_NE(a[i].probes[0].abs_peak, c[i].probes[0].abs_peak)
        << "seed change did not move corner " << i;
  }
}

TEST(MonteCarlo, PoisonCornerIsIsolated) {
  // One corner's builder throws; the neighbours in the same lockstep group
  // must come out bit-identical to a sweep where every corner is healthy.
  const fk::MonteCarlo healthy = demo_mc();
  const fk::MonteCarlo poisoned(
      fk::CornerSampler(demo_spec(), 7),
      [](const fk::CornerView& view, fk::Circuit& circuit) {
        if (view.index() == 2) throw std::runtime_error("poison corner");
        build_corner(view, circuit);
      });

  auto options = demo_options(6);
  options.record_waveforms = true;
  options.chunk = 6;  // everything in one group with the poison corner
  const auto good = healthy.run(options);
  fe::BatchReport report;
  const auto mixed = poisoned.run(options, &report);

  ASSERT_EQ(mixed.size(), 6u);
  EXPECT_EQ(mixed[2].error.code, fe::ErrorCode::kInvalidScenario);
  EXPECT_NE(mixed[2].error.detail.find("poison corner"), std::string::npos);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_TRUE(report.completed());
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(bitwise_equal(mixed[i], good[i])) << "corner " << i;
  }
}

TEST(MonteCarlo, UnresolvableProbeFailsTheCornerOnly) {
  auto options = demo_options(3);
  options.probes.push_back({fk::Probe::Kind::kNodeVoltage, "no-such-node"});
  fe::BatchReport report;
  const auto results = demo_mc().run(options, &report);
  EXPECT_EQ(report.failed, 3u);  // every corner names the same bad probe
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fe::ErrorCode::kInvalidScenario);
  }
}

namespace {

/// A loaded transformer corner: its core is probed by name like an
/// inductor's, and it has no packable core.
void build_transformer_corner(const fk::CornerView& view,
                              fk::Circuit& circuit) {
  const auto p = circuit.node("p");
  const auto s = circuit.node("s");
  circuit.add<fk::VoltageSource>("V", p, fk::kGround,
                                 std::make_shared<fw::Sine>(1.5, 50.0));
  fm::TimelessConfig config;
  config.dhmax = 0.5;
  fm::JaParameters params = fm::find_material("grain-oriented-si")->params;
  params.ms = view.value("t1.ms", params.ms);
  circuit.add<fk::JaTransformer>("T1", p, fk::kGround, s, fk::kGround,
                                 fm::CoreGeometry{}, 50, params, config);
  circuit.add<fk::Resistor>("Rload", s, fk::kGround, 1e3);
}

}  // namespace

TEST(MonteCarlo, CoreProbesResolveOnTransformers) {
  fk::ScatterSpec spec;
  spec.params = {{"t1.ms", 0.10, fk::ScatterKind::kNormal}};
  const fk::CornerSampler sampler(spec, 11);
  fk::MonteCarloOptions options;
  options.corners = 2;
  options.transient.t_end = 4e-3;
  options.transient.dt_initial = 1e-6;
  options.transient.dt_max = 2e-5;
  options.record_waveforms = true;
  options.probes = {{fk::Probe::Kind::kCoreFluxDensity, "t1"},
                    {fk::Probe::Kind::kCoreField, "T1"}};
  const auto results =
      fk::MonteCarlo(sampler, build_transformer_corner).run(options);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.error;

  // The probes read the transformer's committed core, bit for bit.
  fk::Circuit circuit;
  const auto draws = sampler.corner(1);
  build_transformer_corner(fk::CornerView(spec, draws, 1), circuit);
  const auto* core =
      dynamic_cast<const fk::JaTransformer*>(circuit.devices()[1].get());
  ASSERT_NE(core, nullptr);
  std::vector<double> b_wave, h_wave;
  ASSERT_TRUE(fk::run_transient(circuit, options.transient,
                                [&](const fk::Solution&) {
                                  b_wave.push_back(core->flux_density());
                                  h_wave.push_back(core->field());
                                })
                  .ok());
  const fk::CornerResult& mc = results[1];
  ASSERT_EQ(mc.waveforms[0].size(), b_wave.size());
  for (std::size_t k = 0; k < b_wave.size(); ++k) {
    ASSERT_EQ(mc.waveforms[0][k], b_wave[k]);
    ASSERT_EQ(mc.waveforms[1][k], h_wave[k]);
  }
  EXPECT_GT(mc.probes[0].abs_peak, 0.1);  // the core actually magnetised
}

TEST(MonteCarlo, InvalidTransientOptionsRejectEveryCorner) {
  auto options = demo_options(4);
  options.transient.dt_max = options.transient.dt_initial / 2.0;  // < initial
  fe::BatchReport report;
  const auto results = demo_mc().run(options, &report);
  EXPECT_EQ(report.failed, 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fe::ErrorCode::kInvalidScenario);
  }
}

TEST(MonteCarlo, CancellationDrainsWithMarkers) {
  auto options = demo_options(32);
  options.chunk = 1;
  options.limits.cancel.cancel();  // cancelled before the sweep starts
  fe::BatchReport report;
  const auto results = demo_mc().run(options, &report);
  ASSERT_EQ(results.size(), 32u);
  EXPECT_EQ(report.cancelled, 32u);
  EXPECT_EQ(report.stop.code, fe::ErrorCode::kCancelled);
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fe::ErrorCode::kCancelled);
    EXPECT_EQ(r.draws.factors.size(), 3u);  // markers still carry the draws
  }
}

TEST(MonteCarlo, StreamingDeliversEveryCornerOnce) {
  class CountingSink final : public fk::CornerSink {
   public:
    std::size_t started = 0, completed = 0;
    std::vector<int> seen;
    void on_start(std::size_t total) override {
      ++started;
      seen.assign(total, 0);
    }
    void on_result(std::size_t index, fk::CornerResult&& result) override {
      ++seen.at(index);
      EXPECT_EQ(result.index, index);
    }
    void on_complete() override { ++completed; }
  };

  auto options = demo_options(9);
  options.threads = 3;
  options.chunk = 2;
  CountingSink sink;
  const fk::McStreamSummary summary = demo_mc().run(options, sink);
  EXPECT_EQ(sink.started, 1u);
  EXPECT_EQ(sink.completed, 1u);
  for (std::size_t i = 0; i < sink.seen.size(); ++i) {
    EXPECT_EQ(sink.seen[i], 1) << "corner " << i;
  }
  EXPECT_EQ(summary.delivered, 9u);
  EXPECT_EQ(summary.discarded_deliveries, 0u);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.batch.jobs, 9u);
}

TEST(MonteCarlo, ThrowingSinkKeepsTheDeliveryContract) {
  // The core/stream.hpp contract, serial and with the consumer thread: an
  // on_start throw withholds every delivery yet on_complete still runs once;
  // an on_result throw loses that one corner only.
  class ThrowingSink final : public fk::CornerSink {
   public:
    bool throw_on_start = false;
    std::size_t throw_at = 0;  // corner whose on_result throws, if armed
    bool throw_result = false;
    int completes = 0;
    std::vector<std::size_t> received;
    void on_start(std::size_t) override {
      if (throw_on_start) throw std::runtime_error("start exploded");
    }
    void on_result(std::size_t index, fk::CornerResult&&) override {
      if (throw_result && index == throw_at) {
        throw std::runtime_error("result exploded");
      }
      received.push_back(index);
    }
    void on_complete() override { ++completes; }
  };

  constexpr std::size_t kCorners = 6;
  for (const unsigned threads : {1u, 3u}) {
    auto options = demo_options(kCorners);
    options.threads = threads;
    options.chunk = 2;

    ThrowingSink start_sink;
    start_sink.throw_on_start = true;
    const auto start = demo_mc().run(options, start_sink);
    EXPECT_EQ(start_sink.completes, 1) << "threads " << threads;
    EXPECT_TRUE(start_sink.received.empty()) << "threads " << threads;
    EXPECT_EQ(start.delivered, 0u) << "threads " << threads;
    EXPECT_EQ(start.discarded_deliveries, kCorners) << "threads " << threads;
    EXPECT_EQ(start.sink_error.code, fe::ErrorCode::kSinkError);
    EXPECT_EQ(start.sink_error_count, 1u) << "threads " << threads;

    ThrowingSink result_sink;
    result_sink.throw_result = true;
    result_sink.throw_at = 2;
    const auto one = demo_mc().run(options, result_sink);
    EXPECT_EQ(result_sink.completes, 1) << "threads " << threads;
    EXPECT_EQ(one.delivered, kCorners - 1) << "threads " << threads;
    EXPECT_EQ(one.discarded_deliveries, 1u) << "threads " << threads;
    EXPECT_EQ(one.sink_error.code, fe::ErrorCode::kSinkError);
    EXPECT_EQ(one.sink_error_count, 1u) << "threads " << threads;
    std::sort(result_sink.received.begin(), result_sink.received.end());
    EXPECT_EQ(result_sink.received,
              (std::vector<std::size_t>{0, 1, 3, 4, 5}))
        << "threads " << threads;
  }
}

TEST(MonteCarlo, OrderedStreamingMatchesCollect) {
  auto options = demo_options(8);
  options.threads = 4;
  options.chunk = 1;
  const auto collected = demo_mc().run(options);

  fk::CornerCollectingSink collecting;
  fk::CornerOrderedSink ordered(collecting);
  const auto summary = demo_mc().run(options, ordered);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(collecting.results().size(), collected.size());
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(collecting.results()[i], collected[i]))
        << "corner " << i;
  }
}

TEST(MonteCarlo, ProbeSummariesMatchWaveforms) {
  auto options = demo_options(2);
  options.record_waveforms = true;
  const auto results = demo_mc().run(options);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    for (std::size_t p = 0; p < r.probes.size(); ++p) {
      const auto& wave = r.waveforms[p];
      ASSERT_FALSE(wave.empty());
      double lo = wave[0], hi = wave[0], peak = 0.0;
      for (const double v : wave) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        peak = std::max(peak, std::fabs(v));
      }
      EXPECT_EQ(r.probes[p].min, lo);
      EXPECT_EQ(r.probes[p].max, hi);
      EXPECT_EQ(r.probes[p].abs_peak, peak);
      EXPECT_EQ(r.probes[p].final, wave.back());
    }
  }
}
