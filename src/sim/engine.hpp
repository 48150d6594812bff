#pragma once
// Discrete-event simulation engine.
//
// The simulation substrate for the whole WAN-transfer testbed: a
// monotonic SimClock, an EventQueue with deterministic
// (time, sequence) ordering, cancellable EventHandles, and named
// Process handles for tracking long-running activities. All the
// virtual-time subsystems (funcX dispatch, batch scheduling, GridFTP
// transfers, campaigns) run as callbacks on one Engine, so concurrent
// workloads contend for shared resources instead of living in
// separate, closed-form timelines.
//
// Fleet scale: the calendar-queue scheduler plus pooled event records
// and pooled process handles make the schedule→fire→drop cycle
// allocation-free in steady state.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/pool_alloc.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/process.hpp"

namespace ocelot::sim {

class Engine {
 public:
  using Callback = EventQueue::Callback;

  Engine() : pool_(std::make_shared<ChunkPool>()) {}

  /// Current virtual time in seconds.
  [[nodiscard]] double now() const { return clock_.now(); }

  /// Schedules `cb` at absolute virtual time `time` (>= now).
  EventHandle schedule_at(double time, Callback cb) {
    require(time >= clock_.now(), "Simulation: cannot schedule in the past");
    return queue_.push(time, std::move(cb));
  }

  /// Schedules `cb` after `delay` seconds of virtual time.
  EventHandle schedule_in(double delay, Callback cb) {
    require(delay >= 0.0, "Simulation: negative delay");
    return schedule_at(clock_.now() + delay, std::move(cb));
  }

  /// Runs until the event queue drains. Returns events executed.
  std::size_t run() {
    std::size_t executed = 0;
    while (!queue_.empty()) {
      step();
      ++executed;
    }
    return executed;
  }

  /// Runs events with time <= `t`, then advances the clock to `t`.
  std::size_t run_until(double t) {
    require(t >= clock_.now(), "Simulation: cannot run backwards");
    std::size_t executed = 0;
    while (!queue_.empty() && queue_.next_time() <= t) {
      step();
      ++executed;
    }
    clock_.advance_to(t);
    return executed;
  }

  [[nodiscard]] bool idle() { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.live(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Spawns a named process starting at the current virtual time.
  ProcessHandle spawn(std::string name) {
    auto proc = std::allocate_shared<Process>(PoolAllocator<Process>(pool_),
                                              *this, std::move(name),
                                              next_process_id_++, now());
    processes_.push_back(proc);
    return proc;
  }

  /// All processes ever spawned (running and exited).
  [[nodiscard]] const std::vector<ProcessHandle>& processes() const {
    return processes_;
  }

  /// Number of processes still in kRunning.
  [[nodiscard]] std::size_t running_processes() const {
    std::size_t n = 0;
    for (const auto& p : processes_) {
      if (p->running()) ++n;
    }
    return n;
  }

  /// The engine's object pool (processes; services sharing the
  /// engine's single-threaded lifecycle may draw from it too).
  [[nodiscard]] const std::shared_ptr<ChunkPool>& object_pool() const {
    return pool_;
  }

 private:
  void step() {
    auto [time, cb] = queue_.pop();
    clock_.advance_to(time);
    ++executed_;
    OCELOT_COUNT("sim.events", 1);
    OCELOT_HIST("sim.queue_depth", static_cast<double>(queue_.live()));
    cb();
  }

  SimClock clock_;
  EventQueue queue_;
  std::shared_ptr<ChunkPool> pool_;
  std::vector<ProcessHandle> processes_;
  std::uint64_t executed_ = 0;
  std::uint64_t next_process_id_ = 0;
};

inline void Process::exit_with(ProcessState state) {
  require(state_ == ProcessState::kRunning, "Process: already exited");
  state_ = state;
  exited_at_ = engine_.now();
  auto observers = std::move(observers_);
  observers_.clear();
  for (auto& cb : observers) cb();
}

inline void Process::finish() { exit_with(ProcessState::kDone); }
inline void Process::cancel() { exit_with(ProcessState::kCancelled); }

}  // namespace ocelot::sim
