// mc_inrush / mc_rectifier: ferro_mc-style tolerance sweeps of a netlist
// deck — ckt::parse_netlist with a ScatterHook as the CornerBuilder,
// ckt::MonteCarlo::run (packed-exact) into an ordered JSONL corner sink.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <strings.h>
#include <vector>

#include "ams/matrix.hpp"
#include "ckt/engine.hpp"
#include "ckt/ja_inductor.hpp"
#include "ckt/monte_carlo.hpp"
#include "ckt/netlist_parser.hpp"
#include "ckt/scatter.hpp"
#include "ckt/transformer.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "common.hpp"
#include "kernels.hpp"
#include "reference.hpp"
#include "util/rng.hpp"
#include "util/stream_writer.hpp"

namespace perfbench {
namespace {

using namespace ferro;

/// Everything a sweep needs besides its seed.
struct McSetup {
  std::string name;
  std::string deck;
  ckt::ScatterSpec spec;
  ckt::MonteCarloOptions options;
  std::string probe_name;
};

McSetup load(const Options& o, bool rectifier) {
  McSetup s;
  s.name = rectifier ? "rectifier" : "inrush";
  s.deck = read_file(o.data_dir + "/" + s.name + ".cir");
  const auto nominal = ckt::parse_netlist(s.deck);
  if (!nominal.ok() || !nominal.netlist->tran) {
    throw std::runtime_error(s.name + ".cir does not parse or lacks .tran");
  }
  const auto spec =
      ckt::parse_scatter_spec(read_file(o.data_dir + "/" + s.name + ".scatter"));
  if (!spec.ok()) throw std::runtime_error(s.name + ".scatter does not parse");
  s.spec = *spec.spec;

  // Sweep size: enough corners per lockstep group to pack, few enough
  // that a run times well over a hundred sweeps.
  s.options.corners = rectifier ? 2 : (o.tiny ? 4 : 16);
  s.options.threads = o.workers;
  s.options.packing = ckt::McPacking::kPackedExact;
  s.options.transient.dt_initial = 1e-6;
  s.options.transient.dt_max = nominal.netlist->tran->dt_max;
  s.options.transient.t_end = nominal.netlist->tran->t_end;
  // The primary (first branch) current of the deck's core: the inrush peak.
  const std::string core = rectifier ? "t1" : "y1";
  s.probe_name = "i(" + core + ")";
  s.options.probes = {{ckt::Probe::Kind::kBranchCurrent, core}};
  return s;
}

/// The CornerBuilder ferro_mc installs: re-parse the deck with every
/// scatterable value routed through the corner's factors.
ckt::CornerBuilder make_builder(const std::string& deck) {
  return [&deck](const ckt::CornerView& view, ckt::Circuit& circuit) {
    SpanScope span("CornerBuilder", view.index(), tracer().current());
    auto corner = ckt::parse_netlist(
        deck, [&view](std::string_view device, std::string_view param,
                      double nominal) {
          return view.value(std::string(device) + "." + std::string(param),
                            nominal);
        });
    if (!corner.ok()) throw std::runtime_error(corner.errors.front().message);
    circuit = std::move(corner.netlist->circuit);
  };
}

/// Sampler seed of sweep k: a pure function of the run seed.
std::uint64_t sweep_seed(std::uint64_t seed, std::size_t k) {
  return util::SplitMix64::mix(seed * 0x100000001b3ULL + k);
}

/// One JSONL record per corner, the fields ferro_mc writes.
class JsonlCornerSink final : public ckt::CornerSink {
 public:
  JsonlCornerSink(const std::string& path, std::string probe)
      : writer_(path), probe_(std::move(probe)) {}

  void on_result(std::size_t index, ckt::CornerResult&& r) override {
    const ckt::ProbeSummary& p = r.probes.front();
    const std::string k_min = probe_ + ".min", k_max = probe_ + ".max",
                      k_peak = probe_ + ".abs_peak", k_final = probe_ + ".final";
    writer_.record({{"corner", static_cast<std::uint64_t>(index)},
                    {"status", core::to_string(r.error.code)},
                    {"steps", static_cast<std::uint64_t>(r.stats.steps_accepted)},
                    {"newton_iterations",
                     static_cast<std::uint64_t>(r.stats.newton_iterations)},
                    {k_min, p.min},
                    {k_max, p.max},
                    {k_peak, p.abs_peak},
                    {k_final, p.final}});
  }
  void on_complete() override { writer_.flush(); }
  [[nodiscard]] bool ok() const { return writer_.ok(); }

 private:
  util::JsonLinesWriter writer_;
  std::string probe_;
};

/// Times every delivery into the ordered JSONL chain, and keeps a copy of
/// each result of the first sweep for the counts and the correctness gate.
class TimedCornerSink final : public ckt::CornerSink {
 public:
  TimedCornerSink(ckt::CornerSink& inner, std::vector<ckt::CornerResult>* keep)
      : inner_(inner), keep_(keep) {}
  void on_start(std::size_t total) override {
    if (keep_ != nullptr) keep_->resize(total);
    inner_.on_start(total);
  }
  void on_result(std::size_t index, ckt::CornerResult&& r) override {
    if (keep_ != nullptr) (*keep_)[index] = r;
    SpanScope span("CornerSink::on_result", index, tracer().current());
    inner_.on_result(index, std::move(r));
  }
  void on_complete() override { inner_.on_complete(); }

 private:
  ckt::CornerSink& inner_;
  std::vector<ckt::CornerResult>* keep_;
};

/// Branch offset of device `name` (case-insensitive): the device-order
/// prefix sum of branch counts, as the engine lays unknowns out.
std::size_t branch_of(const ckt::Circuit& c, const std::string& name) {
  std::size_t branch = 0;
  for (const auto& d : c.devices()) {
    if (strcasecmp(d->name().c_str(), name.c_str()) == 0) return branch;
    branch += d->branch_count();
  }
  throw std::runtime_error("no device " + name);
}

/// Corner `index` of `sampler` run as a plain ckt::run_transient, reduced to
/// the same probe summary the sweep reports.
ckt::CornerResult direct_corner(const McSetup& s, const ckt::CornerBuilder& build,
                                const ckt::CornerSampler& sampler,
                                std::size_t index) {
  ckt::CornerResult r;
  r.index = index;
  r.draws = sampler.corner(index);
  ckt::Circuit circuit;
  build(ckt::CornerView(sampler.spec(), r.draws, index), circuit);
  const std::size_t branch = branch_of(circuit, s.options.probes.front().target);
  ckt::ProbeSummary p;
  bool first = true;
  r.error = ckt::run_transient(
      circuit, s.options.transient,
      [&](const ckt::Solution& sol) {
        const double v = sol.branch_current(branch);
        if (first) {
          p.min = p.max = p.final = v;
          p.abs_peak = std::fabs(v);
          p.t_abs_peak = sol.t;
          first = false;
          return;
        }
        p.min = std::min(p.min, v);
        p.max = std::max(p.max, v);
        if (std::fabs(v) > p.abs_peak) {
          p.abs_peak = std::fabs(v);
          p.t_abs_peak = sol.t;
        }
        p.final = v;
      },
      &r.stats);
  r.probes = {p};
  return r;
}

bool same_corner(const ckt::CornerResult& a, const ckt::CornerResult& b) {
  const ckt::ProbeSummary& p = a.probes.front();
  const ckt::ProbeSummary& q = b.probes.front();
  return a.error.code == b.error.code &&
         a.stats.steps_accepted == b.stats.steps_accepted &&
         a.stats.steps_rejected == b.stats.steps_rejected &&
         a.stats.newton_iterations == b.stats.newton_iterations &&
         a.stats.hard_failures == b.stats.hard_failures &&
         same_bits(p.min, q.min) && same_bits(p.max, q.max) &&
         same_bits(p.abs_peak, q.abs_peak) &&
         same_bits(p.t_abs_peak, q.t_abs_peak) && same_bits(p.final, q.final);
}

// ---------------------------------------------------------------------------
// Serial replay: the corner's devices are wrapped so the engine's own stamp
// calls are timed, and a twin circuit receiving the identical call sequence
// supplies a bitwise copy of the iteration's MNA system, which is then
// factored and solved with a benchmark-owned ams::LuSolver.

struct ReplayTotals {
  double clock_s = 0.0;  ///< calibrated cost of one clock read
  double stamp_core_s = 0.0;
  double stamp_linear_s = 0.0;
  double commit_core_s = 0.0;
  double factor_s = 0.0;
  double solve_s = 0.0;
  std::uint64_t iterations = 0;  ///< instrumented transient iterations
  std::size_t mna_size = 0;
  double plain_s = 0.0;  ///< uninstrumented advance() loops of the same corners
  std::uint64_t plain_iterations = 0;
};

struct Shadow {
  ams::Matrix a;
  std::vector<double> z;
  std::vector<double> x;
  ams::LuSolver lu;
  std::size_t devices = 0;
  std::size_t stamped = 0;
  double gmin = 0.0;
};

class TimedDevice final : public ckt::Device {
 public:
  TimedDevice(std::unique_ptr<ckt::Device> inner, ckt::Device& twin, bool core,
              Shadow& shadow, ReplayTotals& totals)
      : Device(inner->name()),
        inner_(std::move(inner)),
        twin_(twin),
        core_(core),
        shadow_(shadow),
        totals_(totals) {}

  [[nodiscard]] std::size_t branch_count() const override {
    return inner_->branch_count();
  }
  [[nodiscard]] bool nonlinear() const override { return inner_->nonlinear(); }

  void stamp(ckt::Stamper& s, const ckt::EvalContext& ctx) override {
    inner_->assign_branches(first_branch());
    twin_.assign_branches(first_branch());
    const double t0 = now_s();
    inner_->stamp(s, ctx);
    const double t1 = now_s();
    // The interval contains one clock read; the wrapper adds two to the
    // enclosing advance() (both removed there).
    (core_ ? totals_.stamp_core_s : totals_.stamp_linear_s) +=
        t1 - t0 - totals_.clock_s;
    if (ctx.dc) return;  // the DC solve is set-up, not a transient iteration

    Shadow& sh = shadow_;
    if (sh.stamped == 0) {
      const std::size_t n = ctx.x.size();
      sh.a.resize(n, n);
      sh.a.fill(0.0);
      sh.z.assign(n, 0.0);
      sh.x.assign(n, 0.0);
      totals_.mna_size = n;
    }
    ckt::Stamper twin_stamper(sh.a, sh.z, ctx.x, ctx.node_count);
    twin_.stamp(twin_stamper, ctx);
    if (++sh.stamped == sh.devices) {
      for (std::size_t i = 0; i < ctx.node_count; ++i) sh.a.at(i, i) += sh.gmin;
      const double f0 = now_s();
      const bool ok = sh.lu.factor(sh.a);
      const double f1 = now_s();
      if (ok) (void)sh.lu.solve(sh.z, sh.x);
      const double f2 = now_s();
      totals_.factor_s += f1 - f0 - totals_.clock_s;
      totals_.solve_s += f2 - f1 - totals_.clock_s;
      ++totals_.iterations;
      sh.stamped = 0;
    }
  }

  void commit(const ckt::EvalContext& ctx, std::span<const double> x) override {
    inner_->assign_branches(first_branch());
    twin_.assign_branches(first_branch());
    const double t0 = now_s();
    inner_->commit(ctx, x);
    const double t1 = now_s();
    if (core_ && !ctx.dc) totals_.commit_core_s += t1 - t0 - totals_.clock_s;
    twin_.commit(ctx, x);
  }

 private:
  std::unique_ptr<ckt::Device> inner_;
  ckt::Device& twin_;
  bool core_;
  Shadow& shadow_;
  ReplayTotals& totals_;
};

bool is_core(const ckt::Device& d) {
  return dynamic_cast<const ckt::JaInductor*>(&d) != nullptr ||
         dynamic_cast<const ckt::JaTransformer*>(&d) != nullptr;
}

/// Replays corners of `sampler` serially until `budget_s` is spent (at least
/// one corner): each corner once instrumented, for the layer times, and once
/// plain, for the iteration time without the instrumentation's overhead.
ReplayTotals replay(const McSetup& s, const ckt::CornerBuilder& build,
                    const ckt::CornerSampler& sampler, double budget_s) {
  ReplayTotals totals;
  totals.clock_s = clock_read_s();
  const double start = now_s();
  for (std::size_t index = 0; index == 0 || now_s() - start < budget_s;
       ++index) {
    const ckt::CornerValues draws = sampler.corner(index % s.options.corners);
    const ckt::CornerView view(sampler.spec(), draws, index);
    {
      SpanScope span("TransientMachine::advance (instrumented)", index, -1);
      ckt::Circuit circuit, twin;
      build(view, circuit);
      build(view, twin);
      Shadow shadow;
      shadow.devices = circuit.devices().size();
      shadow.gmin = s.options.transient.engine.gmin;
      for (std::size_t k = 0; k < circuit.devices().size(); ++k) {
        auto& slot = circuit.devices()[k];
        const bool core = is_core(*slot);
        slot = std::make_unique<TimedDevice>(std::move(slot), *twin.devices()[k],
                                             core, shadow, totals);
      }
      ckt::TransientMachine machine(circuit, s.options.transient, {});
      while (!machine.done()) machine.advance();
    }
    SpanScope span("TransientMachine::advance", index, -1);
    ckt::Circuit circuit;
    build(view, circuit);
    ckt::TransientMachine machine(circuit, s.options.transient, {});
    const std::uint64_t dc_iterations = machine.stats().newton_iterations;
    const double t0 = now_s();
    while (!machine.done()) machine.advance();
    totals.plain_s += now_s() - t0;
    totals.plain_iterations += machine.stats().newton_iterations - dc_iterations;
  }
  return totals;
}

/// JA parameter sets of the cores of corners [0, n) — the lanes one
/// lockstep group of the sweep packs.
std::vector<JaLane> core_lanes(const ckt::CornerBuilder& build,
                               const ckt::CornerSampler& sampler, std::size_t n) {
  std::vector<JaLane> lanes;
  for (std::size_t i = 0; i < n; ++i) {
    const ckt::CornerValues draws = sampler.corner(i);
    ckt::Circuit circuit;
    build(ckt::CornerView(sampler.spec(), draws, i), circuit);
    for (const auto& d : circuit.devices()) {
      if (const auto* y = dynamic_cast<const ckt::JaInductor*>(d.get())) {
        lanes.push_back({y->model().params(), y->model().config(),
                         major_loop(y->model().params())});
      } else if (const auto* t = dynamic_cast<const ckt::JaTransformer*>(d.get())) {
        lanes.push_back({t->model().params(), t->model().config(),
                         major_loop(t->model().params())});
      }
    }
  }
  return lanes;
}

/// Share of the deck's JA cores the sweep packer puts into SoA lanes (a
/// JaInductor whose config the batch kernel supports).
double packable_core_share(const McSetup& s) {
  auto parsed = ckt::parse_netlist(s.deck);
  std::size_t cores = 0, packable = 0;
  for (const auto& d : parsed.netlist->circuit.devices()) {
    if (!is_core(*d)) continue;
    ++cores;
    const auto* y = dynamic_cast<const ckt::JaInductor*>(d.get());
    if (y != nullptr && mag::TimelessJaBatch::supports(y->model().config())) {
      ++packable;
    }
  }
  return cores == 0 ? 0.0 : static_cast<double>(packable) / cores;
}

/// rel_err: mean relative deviation of the probe's abs_peak over the fixed
/// reference corners, run exactly as the sweep runs them.
double peak_rel_err(const McSetup& s, const ckt::CornerBuilder& build,
                    const Options& o, Outcome& out) {
  const std::string key = "mc_" + s.name;
  const std::vector<ReferenceRow> rows = load_reference(o.data_dir, key);
  if (rows.empty()) {
    out.fail("no reference rows for " + key);
    return 0.0;
  }
  ckt::MonteCarloOptions options = s.options;
  options.corners = rows.size();
  const ckt::CornerSampler sampler(s.spec, kReferenceSeed);
  const auto results = ckt::MonteCarlo(sampler, build).run(options);
  double sum = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::vector<double>& f = results[i].draws.factors;
    if (rows[i].index != i || f.size() + 1 != rows[i].values.size()) {
      out.fail(key + " reference does not match the scatter spec");
      return 0.0;
    }
    for (std::size_t j = 0; j < f.size(); ++j) {
      if (!same_bits(f[j], rows[i].values[j + 1])) {
        out.fail(key + " reference corners were drawn differently");
        return 0.0;
      }
    }
    const double ref = rows[i].values[0];
    sum += std::fabs(results[i].probes.front().abs_peak - ref) / ref;
  }
  return sum / static_cast<double>(rows.size());
}

}  // namespace

Outcome run_mc(const Options& o, bool rectifier) {
  Outcome out;
  SetupTimer setup;
  const auto set_up = [&] {
    McSetup fresh = load(o, rectifier);
    const ckt::MonteCarlo mc(ckt::CornerSampler(fresh.spec, sweep_seed(o.seed, 0)),
                             make_builder(fresh.deck));
    return fresh;
  };
  const McSetup s = setup.time(set_up);
  const ckt::CornerBuilder build = make_builder(s.deck);
  const std::string jsonl_path = o.out_dir + "/" + o.workload + ".jsonl";

  std::vector<ckt::CornerResult> first;
  const auto op = [&](std::size_t k) {
    const ckt::MonteCarlo mc(ckt::CornerSampler(s.spec, sweep_seed(o.seed, k)),
                             build);
    JsonlCornerSink jsonl(jsonl_path, s.probe_name);
    ckt::CornerOrderedSink ordered(jsonl);
    TimedCornerSink timed(ordered, k == 0 && first.empty() ? &first : nullptr);
    const ckt::McStreamSummary summary = mc.run(s.options, timed);
    out.attempted += s.options.corners;
    out.failed += summary.batch.failed;
    if (summary.delivered != s.options.corners || !summary.ok() || !jsonl.ok()) {
      out.fail("sweep " + std::to_string(k) + " delivered " +
               std::to_string(summary.delivered) + " of " +
               std::to_string(s.options.corners) + " corners");
    }
  };

  op(0);  // warm-up: first-touch allocations, page cache of the deck
  out.attempted = 0;
  out.failed = 0;
  const double untraced_seconds = o.trace ? o.seconds / 3.0 : o.seconds;
  const LoopTimes loop = timed_loop(untraced_seconds, 3, "MonteCarlo::run", op,
                                    [&] { (void)setup.time(set_up); });
  fill_loop_metrics(out, loop, static_cast<double>(s.options.corners));
  out.values["setup_s"] = setup.median_s();

  // Counts of the first sweep (a pure function of the seed).
  ckt::CircuitStats sum;
  for (const auto& r : first) {
    sum.steps_accepted += r.stats.steps_accepted;
    sum.steps_rejected += r.stats.steps_rejected;
    sum.newton_iterations += r.stats.newton_iterations;
    sum.hard_failures += r.stats.hard_failures;
  }
  const double corners = static_cast<double>(first.size());
  Values& v = out.values;
  v["ckt.newton_iters_per_step"] =
      static_cast<double>(sum.newton_iterations) /
      static_cast<double>(sum.steps_accepted + sum.steps_rejected);
  v["ckt.step_reject_ratio"] =
      static_cast<double>(sum.steps_rejected) /
      static_cast<double>(sum.steps_accepted + sum.steps_rejected);
  v["ckt.steps_per_corner"] = static_cast<double>(sum.steps_accepted) / corners;
  v["ckt.forced_accepts_per_corner"] =
      static_cast<double>(sum.hard_failures) / corners;
  v["ckt.packable_core_share"] = packable_core_share(s);

  // Correctness gate: sampled corners of the first sweep against a direct
  // run_transient of the same corner, bit for bit.
  if (o.corrupt) first[first.size() / 2].probes.front().abs_peak *= 1.0 + 1e-15;
  const ckt::CornerSampler sampler0(s.spec, sweep_seed(o.seed, 0));
  for (std::size_t i : {std::size_t{0}, first.size() / 2, first.size() - 1}) {
    if (!same_corner(first[i], direct_corner(s, build, sampler0, i))) {
      out.fail("corner " + std::to_string(i) +
               " differs from a direct run_transient");
    }
  }
  v["rel_err"] = peak_rel_err(s, build, o, out);

  if (o.trace) {
    tracer().enable(true);
    const LoopTimes traced = timed_loop(o.seconds / 3.0, 3, "MonteCarlo::run", op);
    v["trace.overhead_ratio"] = median(traced.wall_s) / median(loop.wall_s);
    const std::vector<double> build_us = tracer().durations_us("CornerBuilder");
    v["ckt.corner_build_us.p50"] = median(build_us);
    v["ckt.corner_build_us.p99"] = quantile(build_us, 0.99);
    const std::vector<double> sink_us =
        tracer().durations_us("CornerSink::on_result");
    v["core.sink_us.p50"] = median(sink_us);
    v["core.sink_us.p99"] = quantile(sink_us, 0.99);
    v["core.sink_busy_share"] =
        tracer().total_s("CornerSink::on_result") / traced.total_wall();

    const ReplayTotals r = replay(s, build, sampler0, o.seconds / 6.0);
    const double iters = static_cast<double>(r.iterations);
    v["ckt.newton_iter_us"] =
        1e6 * r.plain_s / static_cast<double>(r.plain_iterations);
    v["ckt.stamp_core_us"] = 1e6 * r.stamp_core_s / iters;
    v["ckt.commit_core_us"] = 1e6 * r.commit_core_s / iters;
    v["ckt.stamp_linear_us"] = 1e6 * r.stamp_linear_s / iters;
    v["ams.lu_factor_us"] = 1e6 * r.factor_s / iters;
    v["ams.lu_solve_us"] = 1e6 * r.solve_s / iters;
    v["ams.mna_size"] = static_cast<double>(r.mna_size);

    const KernelFigures k =
        measure_ja_kernels(core_lanes(build, sampler0, 8), o.seconds / 6.0);
    v["mag.ja_batch_ns_per_sample"] = k.batch_ns_per_sample;
    v["mag.ja_scalar_ns_per_sample"] = k.scalar_ns_per_sample;
    v["mag.substeps_per_sample"] = k.substeps_per_sample;
    print_split(o.workload, v);
  }
  return out;
}

void append_mc_reference(const Options& o, bool rectifier, std::FILE* out) {
  McSetup s = load(o, rectifier);
  const ckt::CornerBuilder build = make_builder(s.deck);
  s.options.corners = 8;
  s.options.packing = ckt::McPacking::kScalar;
  s.options.transient.dt_max /= 10.0;
  const auto results =
      ckt::MonteCarlo(ckt::CornerSampler(s.spec, kReferenceSeed), build)
          .run(s.options);
  for (const ckt::CornerResult& r : results) {
    std::fprintf(out, "mc_%s %zu %.17g", s.name.c_str(), r.index,
                 r.probes.front().abs_peak);
    for (double f : r.draws.factors) std::fprintf(out, " %.17g", f);
    std::fprintf(out, "\n");
  }
}

}  // namespace perfbench
