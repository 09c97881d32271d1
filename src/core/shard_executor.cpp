#include "core/shard_executor.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <optional>
#include <thread>
#include <utility>

#include "core/fault_injection.hpp"
#include "core/subprocess.hpp"
#include "core/thread_pool.hpp"
#include "core/wire.hpp"

namespace ferro::core {
namespace {

using Clock = std::chrono::steady_clock;

// -- Worker side -------------------------------------------------------------

volatile std::sig_atomic_t g_worker_term = 0;

void worker_term_handler(int) { g_worker_term = 1; }

/// The forked worker's whole life: read a shard frame, run its scenarios
/// serially through run_scenario (bitwise the in-process reference path),
/// stream results back, repeat until kShutdown/EOF. Exit codes classify
/// what went wrong for the supervisor's waitpid (any nonzero is a crash).
int worker_main(int in_fd, int out_fd) {
  std::signal(SIGTERM, worker_term_handler);
  for (;;) {
    wire::Frame frame;
    const Error err = wire::read_frame(in_fd, frame);
    // EOF means the supervisor is gone (or done with us): a clean exit.
    if (!err.ok()) return wire::is_eof(err) ? 0 : 3;
    if (frame.type == wire::FrameType::kShutdown) return 0;
    if (frame.type != wire::FrameType::kShard) continue;

    // Decode the whole shard up front so a malformed frame is rejected
    // before any scenario runs.
    std::uint64_t shard_id = 0;
    std::vector<std::pair<std::size_t, Scenario>> items;
    try {
      wire::Reader r(frame.payload);
      shard_id = r.u64();
      const std::uint64_t count = r.u64();
      items.reserve(count);
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto index = static_cast<std::size_t>(r.u64());
        items.emplace_back(index, wire::decode_scenario(r));
      }
      if (!r.exhausted()) return 4;
    } catch (const wire::DecodeError&) {
      return 4;
    }

    for (auto& [index, scenario] : items) {
      if (g_worker_term) return 0;  // supervisor emits the stop verdicts
      {
        // Heartbeat BEFORE the scenario: "alive, starting i" — the
        // supervisor's wedge timer measures from here, so the timeout has
        // to cover one scenario, never the whole shard.
        wire::Buffer hb;
        wire::Writer w(hb);
        w.u64(index);
        if (!wire::write_frame(out_fd, wire::FrameType::kHeartbeat, hb).ok()) {
          return 5;
        }
      }
      (void)FERRO_FAULT_HIT_CTX(FaultSite::kWorkerStall, scenario.name);
      (void)FERRO_FAULT_HIT_CTX(FaultSite::kWorkerCrash, scenario.name);
      ScenarioResult result = run_scenario(scenario);

      wire::Buffer payload;
      wire::Writer w(payload);
      w.u64(index);
      wire::encode_result(result, w);
      wire::Buffer bytes =
          wire::encode_frame(wire::FrameType::kResult, payload);
      if (FERRO_FAULT_HIT_CTX(FaultSite::kWireCorrupt, scenario.name)) {
        // Flip a payload bit after the checksum was computed: the
        // supervisor must reject the frame, not decode garbage.
        bytes[wire::kHeaderSize] ^= 0x01;
      }
      if (!wire::write_all(out_fd, bytes.data(), bytes.size()).ok()) return 5;
    }

    wire::Buffer done;
    wire::Writer w(done);
    w.u64(shard_id);
    if (!wire::write_frame(out_fd, wire::FrameType::kShardDone, done).ok()) {
      return 5;
    }
  }
}

// -- Supervisor side ---------------------------------------------------------

/// Scoped SIGPIPE suppression: a worker dying mid-write must surface as
/// EPIPE on the supervisor's write, not kill the whole process.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    sigaction(SIGPIPE, &ignore, &old_);
  }
  ~SigpipeGuard() { sigaction(SIGPIPE, &old_, nullptr); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  struct sigaction old_ {};
};

class Supervisor {
 public:
  Supervisor(const ShardOptions& options, const std::vector<Scenario>& scenarios,
             const ShardExecutor::EmitFn& emit, RunGate& gate,
             unsigned workers, std::size_t shard_size, ShardStats& stats)
      : options_(options),
        scenarios_(scenarios),
        emit_(emit),
        gate_(gate),
        target_workers_(workers),
        shard_size_(shard_size),
        stats_(stats),
        resolved_(scenarios.size(), 0),
        managed_(scenarios.size(), 0) {}

  void run() {
    partition();
    if (outstanding_ == 0) return;

    slots_.resize(target_workers_);
    spawn_fleet();
    if (live_workers() == 0) {
      // Nothing forked at all: graceful degradation — the batch still
      // completes, just without isolation.
      stats_.degraded_in_process = true;
      run_remaining_in_process();
      return;
    }

    while (outstanding_ > 0) {
      if (gate_.stopped()) {
        shutdown_on_stop();
        return;
      }
      if (!assign_ready()) {
        // No live worker, none spawnable: process isolation is out of
        // budget for this batch. The remainder is reported, not dropped.
        emit_remaining(
            {ErrorCode::kCancelled, "worker restart budget exhausted"},
            /*cancelled_verdict=*/true);
        return;
      }
      poll_events(kPollMs);
      check_heartbeats();
    }
    shutdown_graceful();
  }

 private:
  static constexpr int kPollMs = 50;  // also the gate-polling cadence

  struct Unit {
    std::vector<std::size_t> indices;  // unresolved scenario indices
    Backoff backoff;
    Clock::time_point ready_at{};
  };

  struct Slot {
    WorkerProcess proc;
    std::optional<std::size_t> unit;  // assigned unit id
    Clock::time_point last_seen{};
  };

  enum class Death { kCrash, kStall, kWire };

  [[nodiscard]] std::size_t live_workers() const {
    std::size_t n = 0;
    for (const Slot& s : slots_) n += s.proc.running() ? 1 : 0;
    return n;
  }

  /// Splits the batch into in-process fallbacks (run here and now) and the
  /// shard units the workers will chew through.
  void partition() {
    std::vector<std::size_t> shardable;
    shardable.reserve(scenarios_.size());
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      if (wire::serializable(scenarios_[i])) {
        shardable.push_back(i);
        managed_[i] = 1;
      } else {
        ++stats_.in_process_fallback;
        run_one_in_process(i);
      }
    }
    outstanding_ = shardable.size();
    for (std::size_t b = 0; b < shardable.size(); b += shard_size_) {
      const std::size_t e = std::min(shardable.size(), b + shard_size_);
      make_unit({shardable.begin() + static_cast<std::ptrdiff_t>(b),
                 shardable.begin() + static_cast<std::ptrdiff_t>(e)});
    }
  }

  void make_unit(std::vector<std::size_t> indices) {
    const std::uint64_t salt =
        0x9e3779b97f4a7c15ULL * (units_.size() + 1) + indices.front();
    units_.push_back(Unit{std::move(indices),
                          Backoff(options_.retry, options_.backoff_seed ^ salt),
                          Clock::now()});
    pending_.push_back(units_.size() - 1);
  }

  void spawn_fleet() {
    const std::size_t want = std::min<std::size_t>(target_workers_,
                                                   pending_.size());
    for (std::size_t s = 0; s < slots_.size() && s < want; ++s) {
      (void)spawn_into(slots_[s]);
    }
  }

  bool spawn_into(Slot& slot) {
    const Error err = slot.proc.spawn(worker_main);
    if (!err.ok()) return false;
    ++spawned_;
    ++stats_.workers_spawned;
    if (spawned_ > target_workers_) ++stats_.worker_restarts;
    slot.unit.reset();
    slot.last_seen = Clock::now();
    return true;
  }

  /// A respawn beyond the initial fleet needs budget left.
  [[nodiscard]] bool may_respawn() const {
    return spawned_ < target_workers_ + options_.max_worker_restarts;
  }

  // -- Emission (the exactly-once funnel) ------------------------------------

  void deliver(std::size_t i, ScenarioResult&& r, bool cancelled_verdict) {
    if (resolved_[i]) return;
    resolved_[i] = 1;
    if (managed_[i] && outstanding_ > 0) --outstanding_;
    if (cancelled_verdict) {
      gate_.count_cancelled();
    } else if (!r.ok()) {
      gate_.count_failure();
    }
    emit_(i, std::move(r));
  }

  void run_one_in_process(std::size_t i) {
    if (gate_.stopped()) {
      ScenarioResult r;
      r.name = scenarios_[i].name;
      r.model = scenarios_[i].kind();
      r.error = gate_.stop_error();
      deliver(i, std::move(r), /*cancelled_verdict=*/true);
      return;
    }
    deliver(i, run_scenario(scenarios_[i]), /*cancelled_verdict=*/false);
  }

  void run_remaining_in_process() {
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      if (managed_[i] && !resolved_[i]) run_one_in_process(i);
    }
  }

  void emit_remaining(const Error& error, bool cancelled_verdict) {
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      if (!managed_[i] || resolved_[i]) continue;
      ScenarioResult r;
      r.name = scenarios_[i].name;
      r.model = scenarios_[i].kind();
      r.error = error;
      deliver(i, std::move(r), cancelled_verdict);
    }
  }

  // -- Dispatch --------------------------------------------------------------

  /// Spawns/assigns what it can. Returns false only on the dead-end: work
  /// pending, no live worker, and no spawn possible.
  bool assign_ready() {
    const auto now = Clock::now();
    for (Slot& slot : slots_) {
      if (pending_.empty()) break;
      if (slot.proc.running() && slot.unit) continue;
      if (!slot.proc.running()) {
        if (!may_respawn() && spawned_ >= target_workers_) continue;
        if (!spawn_into(slot)) continue;
      }
      // First pending unit whose backoff delay has elapsed.
      auto it = std::find_if(pending_.begin(), pending_.end(),
                             [&](std::size_t u) {
                               return units_[u].ready_at <= now;
                             });
      if (it == pending_.end()) continue;
      const std::size_t unit_id = *it;
      pending_.erase(it);
      if (!send_shard(slot, unit_id)) {
        // The worker died before taking the shard: put the unit back
        // untouched (no retry consumed — it never ran) and handle the death.
        pending_.push_front(unit_id);
        handle_death(slot, Death::kCrash);
      }
    }
    if (outstanding_ > 0 && live_workers() == 0) {
      bool in_flight = false;  // defensive; dead workers hold nothing
      for (const Slot& s : slots_) in_flight |= s.unit.has_value();
      if (!in_flight && !pending_.empty()) return false;
    }
    return true;
  }

  bool send_shard(Slot& slot, std::size_t unit_id) {
    Unit& unit = units_[unit_id];
    // Drop anything a partial pass already resolved before the re-dispatch.
    std::erase_if(unit.indices,
                  [&](std::size_t i) { return resolved_[i] != 0; });
    if (unit.indices.empty()) return true;

    wire::Buffer payload;
    wire::Writer w(payload);
    w.u64(unit_id);
    w.u64(unit.indices.size());
    for (const std::size_t i : unit.indices) {
      w.u64(i);
      // Partition() pre-checked serializability, so this cannot fail.
      (void)wire::encode_scenario(scenarios_[i], w);
    }
    if (!wire::write_frame(slot.proc.write_fd(), wire::FrameType::kShard,
                           payload)
             .ok()) {
      return false;
    }
    slot.unit = unit_id;
    slot.last_seen = Clock::now();
    return true;
  }

  // -- Event loop ------------------------------------------------------------

  void poll_events(int timeout_ms) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (!slots_[s].proc.running()) continue;
      fds.push_back({slots_[s].proc.read_fd(), POLLIN, 0});
      owners.push_back(s);
    }
    if (fds.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
      return;
    }
    int rc;
    do {
      rc = ::poll(fds.data(), fds.size(), timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) return;
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      Slot& slot = slots_[owners[k]];
      if (!slot.proc.running()) continue;  // reaped by an earlier event
      if (fds[k].revents & POLLIN) {
        read_one_frame(slot);
      } else if (fds[k].revents & (POLLHUP | POLLERR | POLLNVAL)) {
        handle_death(slot, Death::kCrash);
      }
    }
  }

  void read_one_frame(Slot& slot) {
    wire::Frame frame;
    const Error err = wire::read_frame(slot.proc.read_fd(), frame);
    if (!err.ok()) {
      // EOF = the worker is gone (buffered frames were already consumed in
      // order, so nothing it finished is lost). Anything else is a corrupt
      // stream: kill it — resynchronising a byte stream isn't worth it.
      if (!wire::is_eof(err)) {
        ++stats_.wire_errors;
        handle_death(slot, Death::kWire);
      } else {
        handle_death(slot, Death::kCrash);
      }
      return;
    }
    slot.last_seen = Clock::now();
    switch (frame.type) {
      case wire::FrameType::kHeartbeat:
        break;
      case wire::FrameType::kResult: {
        try {
          wire::Reader r(frame.payload);
          const auto index = static_cast<std::size_t>(r.u64());
          ScenarioResult result = wire::decode_result(r);
          if (!r.exhausted() || index >= scenarios_.size() ||
              !managed_[index]) {
            throw wire::DecodeError("malformed result frame");
          }
          deliver(index, std::move(result), /*cancelled_verdict=*/false);
        } catch (const wire::DecodeError&) {
          ++stats_.wire_errors;
          handle_death(slot, Death::kWire);
        }
        break;
      }
      case wire::FrameType::kShardDone: {
        if (slot.unit) {
          const std::size_t unit_id = *slot.unit;
          slot.unit.reset();
          // Defensive: anything the worker claimed done but never sent goes
          // back through the retry machinery instead of vanishing.
          requeue_unit(unit_id);
        }
        break;
      }
      default:
        // A frame type workers never send: treat as protocol corruption.
        ++stats_.wire_errors;
        handle_death(slot, Death::kWire);
        break;
    }
  }

  void check_heartbeats() {
    const auto now = Clock::now();
    const auto limit = std::chrono::duration<double>(
        options_.heartbeat_timeout_s > 0 ? options_.heartbeat_timeout_s
                                         : 1e9);
    for (Slot& slot : slots_) {
      if (!slot.proc.running() || !slot.unit) continue;
      if (now - slot.last_seen > limit) {
        handle_death(slot, Death::kStall);
      }
    }
  }

  // -- Failure handling ------------------------------------------------------

  void handle_death(Slot& slot, Death kind) {
    // During the stop drain a worker leaving is the plan, not a failure:
    // reap it without stats or retries.
    if (!stopping_) {
      switch (kind) {
        case Death::kStall: ++stats_.worker_stalls; break;
        case Death::kWire:
        case Death::kCrash: ++stats_.worker_crashes; break;
      }
    }
    slot.proc.kill(SIGKILL);
    slot.proc.close_pipes();
    if (slot.proc.running()) (void)slot.proc.wait_exit();
    if (slot.unit) {
      const std::size_t unit_id = *slot.unit;
      slot.unit.reset();
      if (!stopping_) retry_unit(unit_id);
    }
  }

  /// Requeue without consuming a retry (used when the unit never actually
  /// failed — e.g. ShardDone with stragglers, or a dispatch that died
  /// before the worker read it).
  void requeue_unit(std::size_t unit_id) {
    Unit& unit = units_[unit_id];
    std::erase_if(unit.indices,
                  [&](std::size_t i) { return resolved_[i] != 0; });
    if (unit.indices.empty()) return;
    unit.ready_at = Clock::now();
    pending_.push_back(unit_id);
  }

  void retry_unit(std::size_t unit_id) {
    Unit& unit = units_[unit_id];
    std::erase_if(unit.indices,
                  [&](std::size_t i) { return resolved_[i] != 0; });
    if (unit.indices.empty()) return;

    if (const auto delay = unit.backoff.next_delay_ms()) {
      ++stats_.shard_retries;
      unit.ready_at = Clock::now() + std::chrono::microseconds(
                                         static_cast<long>(*delay * 1000.0));
      pending_.push_back(unit_id);
      return;
    }
    if (unit.indices.size() == 1) {
      // Bisection has cornered the poison: report it, quarantine it (it
      // will never be dispatched to a process again), and move on.
      const std::size_t i = unit.indices.front();
      ++stats_.poisoned;
      gate_.count_quarantined();
      ScenarioResult r;
      r.name = scenarios_[i].name;
      r.model = scenarios_[i].kind();
      r.error = {ErrorCode::kWorkerCrashed,
                 "scenario repeatedly killed worker processes (isolated by "
                 "shard bisection)"};
      deliver(i, std::move(r), /*cancelled_verdict=*/false);
      return;
    }
    // The unit keeps crashing workers but still holds several scenarios:
    // split it and let the halves prove themselves independently. Fresh
    // Backoff courses — each half gets the full retry budget, so the
    // recursion depth is log2(shard), not retries*log2.
    ++stats_.bisections;
    const std::size_t half = unit.indices.size() / 2;
    std::vector<std::size_t> left(unit.indices.begin(),
                                  unit.indices.begin() +
                                      static_cast<std::ptrdiff_t>(half));
    std::vector<std::size_t> right(unit.indices.begin() +
                                       static_cast<std::ptrdiff_t>(half),
                                   unit.indices.end());
    unit.indices.clear();  // the old unit is spent
    make_unit(std::move(left));
    make_unit(std::move(right));
    // Bisected halves jump the queue: isolating a poison fast keeps it from
    // wasting further whole-shard retries elsewhere in the batch.
    const std::size_t right_id = units_.size() - 1;
    const std::size_t left_id = units_.size() - 2;
    pending_.pop_back();
    pending_.pop_back();
    pending_.push_front(right_id);
    pending_.push_front(left_id);
  }

  // -- Shutdown --------------------------------------------------------------

  void shutdown_on_stop() {
    // Cooperative first: SIGTERM plus a shutdown frame, then a bounded
    // drain window in which already-computed results still land.
    stopping_ = true;
    for (Slot& slot : slots_) {
      if (!slot.proc.running()) continue;
      (void)wire::write_frame(slot.proc.write_fd(), wire::FrameType::kShutdown,
                              {});
      slot.proc.kill(SIGTERM);
    }
    const auto deadline =
        Clock::now() + std::chrono::microseconds(static_cast<long>(
                           options_.term_drain_s * 1e6));
    while (outstanding_ > 0 && Clock::now() < deadline && live_workers() > 0) {
      poll_events(kPollMs);
    }
    for (Slot& slot : slots_) {
      if (!slot.proc.running()) continue;
      slot.proc.kill(SIGKILL);
      slot.proc.close_pipes();
      (void)slot.proc.wait_exit();
    }
    emit_remaining(gate_.stop_error(), /*cancelled_verdict=*/true);
  }

  void shutdown_graceful() {
    for (Slot& slot : slots_) {
      if (!slot.proc.running()) continue;
      (void)wire::write_frame(slot.proc.write_fd(), wire::FrameType::kShutdown,
                              {});
      slot.proc.close_pipes();
    }
    // Workers exit on the shutdown frame (or the EOF behind it); give them
    // a moment before the destructors escalate to SIGKILL.
    const auto deadline = Clock::now() + std::chrono::milliseconds(500);
    for (Slot& slot : slots_) {
      while (slot.proc.running() && Clock::now() < deadline) {
        if (slot.proc.poll_exit()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  const ShardOptions& options_;
  const std::vector<Scenario>& scenarios_;
  const ShardExecutor::EmitFn& emit_;
  RunGate& gate_;
  unsigned target_workers_;
  std::size_t shard_size_;
  ShardStats& stats_;

  std::vector<char> resolved_;
  std::vector<char> managed_;
  std::size_t outstanding_ = 0;
  std::vector<Unit> units_;
  std::deque<std::size_t> pending_;
  std::vector<Slot> slots_;
  std::size_t spawned_ = 0;
  bool stopping_ = false;
};

}  // namespace

ShardExecutor::ShardExecutor(ShardOptions options) : options_(options) {}

unsigned ShardExecutor::resolved_workers(std::size_t n_jobs) const {
  return resolve_workers(options_.workers, n_jobs);
}

std::size_t ShardExecutor::resolved_shard_size(std::size_t n_jobs) const {
  if (options_.shard_size != 0) return options_.shard_size;
  const unsigned workers = resolved_workers(n_jobs);
  const std::size_t lanes = static_cast<std::size_t>(workers) * 4;
  const std::size_t size = (n_jobs + lanes - 1) / std::max<std::size_t>(lanes, 1);
  return std::clamp<std::size_t>(size, 1, 64);
}

ShardStats ShardExecutor::run(const std::vector<Scenario>& scenarios,
                              const EmitFn& emit, RunGate& gate) const {
  ShardStats stats;
  if (scenarios.empty()) return stats;
  const SigpipeGuard sigpipe;
  Supervisor supervisor(options_, scenarios, emit, gate,
                        resolved_workers(scenarios.size()),
                        resolved_shard_size(scenarios.size()), stats);
  supervisor.run();
  return stats;
}

}  // namespace ferro::core
