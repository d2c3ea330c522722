#include "baselines/cardnet_estimator.h"

#include <gtest/gtest.h>
#include <cmath>

#include "eval/harness.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

using testsupport::EstimateCard;

ExperimentEnv MakeEnv(const char* name = "glove-sim") {
  EnvOptions opts;
  opts.num_segments = 4;
  return std::move(BuildEnvironment(name, Scale::kTiny, opts).value());
}

TEST(CardNetTest, TrainRequiresInputs) {
  CardNetEstimator est;
  TrainContext empty;
  EXPECT_FALSE(est.Train(empty).ok());
}

TEST(CardNetTest, TrainsAndEstimates) {
  ExperimentEnv env = MakeEnv();
  CardNetEstimator::Config config;
  config.epochs = 15;
  CardNetEstimator est(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  EXPECT_GT(est.num_buckets(), 0u);
  const float* q = env.workload.test_queries.Row(0);
  const double estimate = EstimateCard(est, {q, env.dataset.dim()}, 0.2f);
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, static_cast<double>(env.dataset.size()));
}

TEST(CardNetTest, MonotoneInTauByConstruction) {
  // The bucketed non-negative-increment decoder makes monotonicity a
  // structural property, matching CardNet's design.
  ExperimentEnv env = MakeEnv();
  CardNetEstimator::Config config;
  config.epochs = 10;
  CardNetEstimator est(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  for (size_t row = 0; row < 5; ++row) {
    const float* q = env.workload.test_queries.Row(row);
    double prev = -1.0;
    for (float tau = 0.0f; tau <= 0.8f; tau += 0.02f) {
      const double estimate = EstimateCard(est, {q, env.dataset.dim()}, tau);
      EXPECT_GE(estimate, prev - 1e-9) << "tau=" << tau;
      prev = estimate;
    }
  }
}

TEST(CardNetTest, BetterThanChanceOnTraining) {
  ExperimentEnv env = MakeEnv();
  CardNetEstimator::Config config;
  config.epochs = 30;
  CardNetEstimator est(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  // Mean q-error on *training* samples should be far below the scale of
  // the label range (a constant predictor would be much worse).
  double qsum = 0.0;
  size_t n = 0;
  for (const auto& lq : env.workload.train) {
    const float* q = env.workload.train_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      qsum += QError(EstimateCard(est, {q, env.dataset.dim()}, t.tau),
                     t.card);
      ++n;
    }
  }
  EXPECT_LT(qsum / n, 15.0);
}

TEST(CardNetTest, ModelSizeCountsWeightsAndBuckets) {
  ExperimentEnv env = MakeEnv();
  CardNetEstimator::Config config;
  config.epochs = 2;
  CardNetEstimator est(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  // d*128 + 128 + 128*64 + 64 + 64*nb + nb + nb floats.
  const size_t d = env.dataset.dim();
  const size_t nb = est.num_buckets();
  const size_t expected =
      (d * 128 + 128 + 128 * 64 + 64 + 64 * nb + nb + nb) * sizeof(float);
  EXPECT_EQ(est.ModelSizeBytes(), expected);
}

TEST(CardNetTest, WorksOnHammingData) {
  ExperimentEnv env = MakeEnv("imagenet-sim");
  CardNetEstimator::Config config;
  config.epochs = 10;
  CardNetEstimator est(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  auto result = EvaluateSearch(&est, env.workload);
  EXPECT_TRUE(std::isfinite(result.qerror.mean));
}

TEST(CardNetTest, ShortQuerySpanAnswersZero) {
  ExperimentEnv env = MakeEnv();
  CardNetEstimator::Config config;
  config.epochs = 2;
  CardNetEstimator est(config);
  ASSERT_TRUE(est.Train(MakeTrainContext(env)).ok());
  const float* q = env.workload.test_queries.Row(0);
  testsupport::ExpectShortQueriesRefused(est, {q, env.dataset.dim()}, 0.5f);
}

}  // namespace
}  // namespace simcard
