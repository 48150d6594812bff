// Tests for the funcX-style FaaS simulation.
#include <gtest/gtest.h>

#include "faas/funcx.hpp"

namespace ocelot {
namespace {

FuncXEndpointConfig test_endpoint() {
  FuncXEndpointConfig config;
  config.name = "anvil-ep";
  config.dispatch_latency_s = 0.1;
  config.cold_start_s = 2.0;
  config.warm_overhead_s = 0.01;
  return config;
}

TEST(FuncX, ColdThenWarmInvocation) {
  sim::Engine sim;
  FuncXService faas(sim);
  const std::size_t ep = faas.add_endpoint(test_endpoint());
  faas.register_function("compress");

  double first_done = 0.0, second_done = 0.0;
  faas.submit(ep, "compress", {1.0, [&] { first_done = sim.now(); }});
  sim.run();
  // Cold: dispatch 0.1 + cold 2.0 + compute 1.0.
  EXPECT_NEAR(first_done, 3.1, 1e-9);

  faas.submit(ep, "compress", {1.0, [&] { second_done = sim.now(); }});
  sim.run();
  // Warm: dispatch 0.1 + warm 0.01 + compute 1.0, on top of 3.1.
  EXPECT_NEAR(second_done - first_done, 1.11, 1e-9);
}

TEST(FuncX, ContainerWarmthIsPerFunctionPerEndpoint) {
  sim::Engine sim;
  FuncXService faas(sim);
  const std::size_t ep1 = faas.add_endpoint(test_endpoint());
  const std::size_t ep2 = faas.add_endpoint(test_endpoint());
  faas.register_function("compress");
  faas.register_function("decompress");

  double t1 = 0.0, t2 = 0.0, t3 = 0.0;
  faas.submit(ep1, "compress", {0.0, [&] { t1 = sim.now(); }});
  sim.run();
  faas.submit(ep1, "decompress", {0.0, [&] { t2 = sim.now(); }});
  sim.run();
  faas.submit(ep2, "compress", {0.0, [&] { t3 = sim.now(); }});
  sim.run();
  // All three are cold starts (different function or endpoint).
  EXPECT_NEAR(t1, 2.1, 1e-9);
  EXPECT_NEAR(t2 - t1, 2.1, 1e-9);
  EXPECT_NEAR(t3 - t2, 2.1, 1e-9);
}

TEST(FuncX, CompletedCounterTracksTasks) {
  sim::Engine sim;
  FuncXService faas(sim);
  const std::size_t ep = faas.add_endpoint(test_endpoint());
  faas.register_function("f");
  for (int i = 0; i < 7; ++i) faas.submit(ep, "f", {0.1, nullptr});
  sim.run();
  EXPECT_EQ(faas.completed_tasks(), 7u);
}

TEST(FuncX, UnknownEntitiesThrow) {
  sim::Engine sim;
  FuncXService faas(sim);
  const std::size_t ep = faas.add_endpoint(test_endpoint());
  EXPECT_THROW(faas.submit(ep, "nope", {0.1, nullptr}), NotFound);
  faas.register_function("f");
  EXPECT_THROW(faas.submit(99, "f", {0.1, nullptr}), NotFound);
  EXPECT_THROW((void)faas.endpoint(5), NotFound);
}

}  // namespace
}  // namespace ocelot
