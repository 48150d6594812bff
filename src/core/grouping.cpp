#include "core/grouping.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace ocelot {

GroupPlan plan_groups_by_world_size(std::size_t n_files,
                                    std::size_t world_size) {
  require(n_files > 0, "plan_groups: no files");
  require(world_size > 0, "plan_groups: zero world size");
  GroupPlan plan;
  for (std::size_t start = 0; start < n_files; start += world_size) {
    std::vector<std::size_t> group;
    const std::size_t end = std::min(n_files, start + world_size);
    for (std::size_t i = start; i < end; ++i) group.push_back(i);
    plan.push_back(std::move(group));
  }
  return plan;
}

std::vector<double> group_sizes(const GroupPlan& plan,
                                std::span<const double> file_bytes) {
  std::vector<double> sizes;
  sizes.reserve(plan.size());
  for (const auto& group : plan) {
    double bytes = 0.0;
    for (const std::size_t i : group) {
      require(i < file_bytes.size(), "group_sizes: index out of range");
      bytes += file_bytes[i];
    }
    sizes.push_back(bytes);
  }
  return sizes;
}

bool plan_is_partition(const GroupPlan& plan, std::size_t n_files) {
  std::vector<bool> seen(n_files, false);
  std::size_t count = 0;
  for (const auto& group : plan) {
    for (const std::size_t i : group) {
      if (i >= n_files || seen[i]) return false;
      seen[i] = true;
      ++count;
    }
  }
  return count == n_files;
}

}  // namespace ocelot
