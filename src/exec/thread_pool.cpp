#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace ocelot {

void parallel_for(std::size_t n, std::size_t n_threads,
                  const std::function<void(std::size_t)>& fn) {
  require(n_threads > 0, "parallel_for: need at least one thread");
  if (n == 0) return;
  OCELOT_SPAN("exec.wave");
  OCELOT_COUNT("exec.waves", 1);
  OCELOT_COUNT("exec.tasks", n);
  const std::uint64_t wave_from = monotonic_now_ns();
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto body = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const std::size_t workers = std::min(n, n_threads);
  if (workers == 1) {
    // Inline fast path: a lone worker gains nothing from a spawned
    // thread, and phase-heavy callers (the policy-driven block codec
    // runs several parallel_for phases per wave) would otherwise pay
    // a thread start/join per phase.
    body();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) threads.emplace_back(body);
    for (auto& t : threads) t.join();
  }
  OCELOT_HIST("exec.wave_us", (monotonic_now_ns() - wave_from) / 1000);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ocelot
