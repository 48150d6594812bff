#pragma once
// File grouping strategies (Section VII-C).
//
// Grouping many small compressed files into fewer larger ones raises
// transfer throughput (Table II), but over-grouping starves the
// transfer service's concurrency (the paper's Miranda case: 8 groups
// could not fill the available concurrent threads). The planner
// implements the paper's default, "group by world size": each group
// holds the files one compression wave produced.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ocelot {

/// A grouping plan: per group, the indices of member files.
using GroupPlan = std::vector<std::vector<std::size_t>>;

/// Groups consecutive files so each group has `world_size` members
/// (the last may be smaller). world_size is the paper's "available
/// number of cores for compression".
GroupPlan plan_groups_by_world_size(std::size_t n_files,
                                    std::size_t world_size);

/// Aggregate per-group byte sizes under a plan.
std::vector<double> group_sizes(const GroupPlan& plan,
                                std::span<const double> file_bytes);

/// Sanity check: every index appears exactly once.
bool plan_is_partition(const GroupPlan& plan, std::size_t n_files);

}  // namespace ocelot
