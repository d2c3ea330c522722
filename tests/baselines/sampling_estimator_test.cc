#include "baselines/sampling_estimator.h"

#include <gtest/gtest.h>
#include <cmath>

#include "eval/harness.h"
#include "index/ground_truth.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

using testsupport::EstimateCard;

ExperimentEnv MakeEnv() {
  EnvOptions opts;
  opts.num_segments = 4;
  return std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
}

TEST(SamplingEstimatorTest, RejectsBadFraction) {
  SamplingEstimator bad("bad", 0.0);
  ExperimentEnv env = MakeEnv();
  TrainContext ctx = MakeTrainContext(env);
  EXPECT_FALSE(bad.Train(ctx).ok());
  SamplingEstimator bad2("bad2", 1.5);
  EXPECT_FALSE(bad2.Train(ctx).ok());
}

TEST(SamplingEstimatorTest, FullSampleIsExact) {
  ExperimentEnv env = MakeEnv();
  SamplingEstimator est("Sampling (100%)", 1.0);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  GroundTruth gt(&env.dataset);
  const float* q = env.workload.test_queries.Row(0);
  for (float tau : {0.05f, 0.2f, 0.4f}) {
    EXPECT_DOUBLE_EQ(EstimateCard(est, {q, env.dataset.dim()}, tau),
                     static_cast<double>(gt.Count(q, tau)));
  }
}

TEST(SamplingEstimatorTest, EstimateScalesByInverseRatio) {
  ExperimentEnv env = MakeEnv();
  SamplingEstimator est("Sampling (10%)", 0.10);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  // Any estimate is a multiple of dataset_size / sample_size.
  const double unit = static_cast<double>(env.dataset.size()) /
                      static_cast<double>(est.sample_rows());
  const float* q = env.workload.test_queries.Row(1);
  const double estimate = EstimateCard(est, {q, env.dataset.dim()}, 0.3f);
  EXPECT_NEAR(std::fmod(estimate, unit), 0.0, 1e-6);
}

TEST(SamplingEstimatorTest, ZeroTupleProblemOnLowSelectivity) {
  // With a 1% sample, most low-selectivity queries hit zero samples —
  // the failure mode that motivates learned estimators (Exp-1).
  ExperimentEnv env = MakeEnv();
  SamplingEstimator est("Sampling (1%)", 0.01);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  size_t zeros = 0;
  size_t total = 0;
  for (const auto& lq : env.workload.test) {
    const float* q = env.workload.test_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      if (t.card > 0 && t.card < 20) {
        zeros += EstimateCard(est, {q, env.dataset.dim()}, t.tau) == 0.0;
        ++total;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(zeros, total / 4);
}

TEST(SamplingEstimatorTest, EqualVariantMatchesTargetBytes) {
  ExperimentEnv env = MakeEnv();
  const size_t target = 64 * 1024;
  auto est = SamplingEstimator::Equal(target);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est->Train(ctx).ok());
  EXPECT_LE(est->ModelSizeBytes(), target);
  EXPECT_GT(est->ModelSizeBytes(), target / 2);
  EXPECT_EQ(est->Name(), "Sampling (equal)");
}

TEST(SamplingEstimatorTest, HammingFastPathMatchesGroundTruthAtFullSample) {
  EnvOptions opts;
  opts.num_segments = 4;
  auto env =
      std::move(BuildEnvironment("imagenet-sim", Scale::kTiny, opts).value());
  SamplingEstimator est("full", 1.0);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  GroundTruth gt(&env.dataset);
  const float* q = env.workload.test_queries.Row(0);
  for (float tau : {0.1f, 0.3f}) {
    EXPECT_DOUBLE_EQ(EstimateCard(est, {q, env.dataset.dim()}, tau),
                     static_cast<double>(gt.Count(q, tau)));
  }
}

TEST(SamplingEstimatorTest, ModelSizeIsSampleBytes) {
  ExperimentEnv env = MakeEnv();
  SamplingEstimator est("Sampling (10%)", 0.10);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  EXPECT_EQ(est.ModelSizeBytes(),
            est.sample_rows() * env.dataset.dim() * sizeof(float));
}

TEST(SamplingEstimatorTest, ShortQuerySpanAnswersZero) {
  ExperimentEnv env = MakeEnv();
  SamplingEstimator est("Sampling (10%)", 0.10);
  ASSERT_TRUE(est.Train(MakeTrainContext(env)).ok());
  const float* q = env.workload.test_queries.Row(0);
  testsupport::ExpectShortQueriesRefused(est, {q, env.dataset.dim()}, 0.5f);
}

}  // namespace
}  // namespace simcard
