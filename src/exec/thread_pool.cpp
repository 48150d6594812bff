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

  // The caller is always one of the workers, so a lone worker starts
  // no thread at all. A helper that fails to start (std::system_error
  // or std::bad_alloc near the process's thread or memory limit) ends
  // the spawning: the caller and the helpers already running drain
  // the shared index, so every index still runs exactly once, and
  // every started helper is joined before anything unwinds.
  std::vector<std::thread> helpers;
  const std::size_t n_helpers = std::min(n, n_threads) - 1;
  helpers.reserve(n_helpers);
  for (std::size_t t = 0; t < n_helpers; ++t) {
    try {
      helpers.emplace_back(body);
    } catch (...) {
      break;
    }
  }
  body();
  for (auto& t : helpers) t.join();
  OCELOT_HIST("exec.wave_us", (monotonic_now_ns() - wave_from) / 1000);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ocelot
