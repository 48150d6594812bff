#pragma once
// parallel_for: the executor's one parallel primitive.
//
// The paper's compression executor is an MPI program where each rank
// compresses a disjoint set of files; on a single machine the same
// structure is a batch of tasks spread over worker threads. The block
// codec (exec/parallel_codec) runs every phase through parallel_for,
// so the local pipeline, the Fig. 9-style scaling measurements and
// the daemon's requests all share it. Its workers live for one call;
// the process-wide scratch pools (common/buffer_pool) carry capacity
// from one call to the next.

#include <cstddef>
#include <functional>

#include "common/error.hpp"

namespace ocelot {

/// Runs `fn(i)` for i in [0, n) across `n_threads` workers and waits.
/// Exceptions from tasks propagate (first one wins).
void parallel_for(std::size_t n, std::size_t n_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ocelot
