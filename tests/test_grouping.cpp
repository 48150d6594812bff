// Tests for the file-grouping planner.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "core/grouping.hpp"

namespace ocelot {
namespace {

TEST(Grouping, WorldSizePartition) {
  const GroupPlan plan = plan_groups_by_world_size(768, 96);
  EXPECT_EQ(plan.size(), 8u);  // the paper's Miranda case
  for (const auto& g : plan) EXPECT_EQ(g.size(), 96u);
  EXPECT_TRUE(plan_is_partition(plan, 768));
}

TEST(Grouping, WorldSizeWithRemainder) {
  const GroupPlan plan = plan_groups_by_world_size(100, 30);
  EXPECT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.back().size(), 10u);
  EXPECT_TRUE(plan_is_partition(plan, 100));
}

TEST(Grouping, GroupSizesSumToTotal) {
  const std::vector<double> sizes = {1, 2, 3, 4, 5, 6, 7};
  const GroupPlan plan = plan_groups_by_world_size(sizes.size(), 3);
  const auto gsizes = group_sizes(plan, sizes);
  double total = 0.0;
  for (const double s : gsizes) total += s;
  EXPECT_DOUBLE_EQ(total, 28.0);
}

TEST(Grouping, PartitionDetectsDuplicatesAndGaps) {
  GroupPlan dup = {{0, 1}, {1, 2}};
  EXPECT_FALSE(plan_is_partition(dup, 3));
  GroupPlan gap = {{0}, {2}};
  EXPECT_FALSE(plan_is_partition(gap, 3));
  GroupPlan out_of_range = {{0, 5}};
  EXPECT_FALSE(plan_is_partition(out_of_range, 3));
}

TEST(Grouping, InvalidArgsThrow) {
  EXPECT_THROW((void)plan_groups_by_world_size(0, 4), InvalidArgument);
  EXPECT_THROW((void)plan_groups_by_world_size(4, 0), InvalidArgument);
}

}  // namespace
}  // namespace ocelot
