// Determinism property: identical seeds must produce bit-identical
// environments and estimator behavior — the foundation for reproducible
// experiments on this repo's synthetic substrate.
#include <gtest/gtest.h>

#include "eval/harness.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, TrainTwiceEstimateIdentically) {
  const char* method = GetParam();
  EnvOptions opts;
  opts.num_segments = 4;
  opts.seed = 31415;
  auto env_a =
      std::move(BuildEnvironment("imagenet-sim", Scale::kTiny, opts).value());
  auto env_b =
      std::move(BuildEnvironment("imagenet-sim", Scale::kTiny, opts).value());
  ASSERT_TRUE(env_a.dataset.points().AllClose(env_b.dataset.points(), 0.0f));

  auto est_a = std::move(MakeEstimatorByName(method, Scale::kTiny).value());
  auto est_b = std::move(MakeEstimatorByName(method, Scale::kTiny).value());
  TrainContext ctx_a = MakeTrainContext(env_a);
  TrainContext ctx_b = MakeTrainContext(env_b);
  ASSERT_TRUE(est_a->Train(ctx_a).ok());
  ASSERT_TRUE(est_b->Train(ctx_b).ok());

  for (size_t i = 0; i < 5; ++i) {
    const auto& lq = env_a.workload.test[i];
    const float* q = env_a.workload.test_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      EXPECT_DOUBLE_EQ(
          testsupport::EstimateCard(*est_a, {q, env_a.dataset.dim()}, t.tau),
          testsupport::EstimateCard(*est_b, {q, env_a.dataset.dim()}, t.tau))
          << method;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, DeterminismTest,
                         ::testing::Values("MLP", "QES", "CardNet", "GL-CNN",
                                           "Kernel-based"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (auto& c : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace simcard
