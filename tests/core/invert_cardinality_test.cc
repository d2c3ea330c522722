#include <gtest/gtest.h>

#include "eval/harness.h"
#include "index/ground_truth.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

using testsupport::EstimateCard;

struct InvertEnv {
  ExperimentEnv env;
  std::unique_ptr<Estimator> estimator;
};

const InvertEnv& Shared() {
  static const InvertEnv* shared = [] {
    auto* out = new InvertEnv;
    EnvOptions opts;
    opts.num_segments = 4;
    out->env = std::move(
        BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
    out->estimator =
        std::move(MakeEstimatorByName("QES", Scale::kTiny).value());
    TrainContext ctx = MakeTrainContext(out->env);
    EXPECT_TRUE(out->estimator->Train(ctx).ok());
    return out;
  }();
  return *shared;
}

TEST(InvertCardinalityTest, EstimateAtInvertedTauReachesTarget) {
  const auto& s = Shared();
  const float* q = s.env.workload.test_queries.Row(0);
  const size_t dim = s.env.dataset.dim();
  for (double target : {3.0, 10.0, 25.0}) {
    const float tau =
        InvertCardinality(s.estimator.get(), {q, dim}, target, 0.0f, 1.0f);
    EXPECT_GE(EstimateCard(*s.estimator, {q, dim}, tau), target * 0.999);
    // Just below tau the estimate must fall short (minimality), unless the
    // search bottomed out at lo.
    if (tau > 1e-4f) {
      EXPECT_LT(EstimateCard(*s.estimator, {q, dim}, tau * 0.95f),
                target * 1.5);
    }
  }
}

TEST(InvertCardinalityTest, UnreachableTargetReturnsHi) {
  const auto& s = Shared();
  const float* q = s.env.workload.test_queries.Row(1);
  const size_t dim = s.env.dataset.dim();
  EXPECT_EQ(InvertCardinality(s.estimator.get(), {q, dim}, 1e12, 0.0f, 0.8f),
            0.8f);
}

TEST(InvertCardinalityTest, MonotoneInTarget) {
  const auto& s = Shared();
  const float* q = s.env.workload.test_queries.Row(2);
  const size_t dim = s.env.dataset.dim();
  float prev = -1.0f;
  for (double target = 2.0; target <= 64.0; target *= 2.0) {
    const float tau =
        InvertCardinality(s.estimator.get(), {q, dim}, target, 0.0f, 1.0f);
    EXPECT_GE(tau, prev);
    prev = tau;
  }
}

TEST(InvertCardinalityTest, TrueCountNearTargetOnTrainedModel) {
  // End-to-end usefulness: the exact count at the inverted tau should be in
  // the target's ballpark (bounded by the estimator's own q-error).
  const auto& s = Shared();
  GroundTruth gt(&s.env.dataset);
  const float* q = s.env.workload.test_queries.Row(3);
  const size_t dim = s.env.dataset.dim();
  const double target = 20.0;
  const float tau =
      InvertCardinality(s.estimator.get(), {q, dim}, target, 0.0f, 1.0f);
  const double truth = static_cast<double>(gt.Count(q, tau));
  EXPECT_GT(truth, 1.0);
  EXPECT_LT(truth, 400.0);  // within ~one order of magnitude both ways
}

}  // namespace
}  // namespace simcard
