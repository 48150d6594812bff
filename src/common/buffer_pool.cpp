#include "common/buffer_pool.hpp"

namespace ocelot {

BufferPool& BufferPool::shared() {
  static BufferPool pool;
  return pool;
}

}  // namespace ocelot
