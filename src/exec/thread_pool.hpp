#pragma once
// parallel_for: the executor's one parallel primitive.
//
// The paper's compression executor is an MPI program where each rank
// compresses a disjoint set of files; on a single machine the same
// structure is a batch of tasks spread over worker threads. The block
// codec (exec/parallel_codec) runs every phase through parallel_for,
// so the local pipeline, the Fig. 9-style scaling measurements and
// the daemon's requests all share it. The calling thread is always one
// of the workers; the helper threads live for one call, and the
// process-wide scratch pools (common/buffer_pool) carry capacity from
// one call to the next.

#include <cstddef>
#include <functional>

#include "common/error.hpp"

namespace ocelot {

/// Runs `fn(i)` for i in [0, n) on the calling thread plus up to
/// min(n, n_threads) - 1 helper threads, and waits. A helper that
/// fails to start leaves its share to the others. Exceptions from
/// tasks propagate (first one wins).
void parallel_for(std::size_t n, std::size_t n_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ocelot
