// Integration tests for the GL estimator family on a tiny environment.
#include "core/gl_estimator.h"

#include <gtest/gtest.h>

#include "eval/harness.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

using testsupport::EstimateCard;

// A shared tiny environment; building it once keeps this suite fast.
const ExperimentEnv& SharedEnv() {
  static const ExperimentEnv* env = [] {
    EnvOptions opts;
    opts.num_segments = 6;
    return new ExperimentEnv(std::move(
        BuildEnvironment("glove-sim", Scale::kTiny, opts).value()));
  }();
  return *env;
}

GlEstimatorConfig FastConfig(GlEstimatorConfig config) {
  config.local_train.epochs = 15;
  config.global_train.epochs = 15;
  config.tuner.max_trials = 4;
  config.tuner.trial_epochs = 6;
  config.tuner.train_subsample = 200;
  config.tuner.val_subsample = 60;
  config.tune_per_segment = false;
  return config;
}

TEST(GlEstimatorTest, RequiresSegmentation) {
  GlEstimator est(FastConfig(GlEstimatorConfig::GlCnn()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ctx.segmentation = nullptr;
  EXPECT_FALSE(est.Train(ctx).ok());
}

TEST(GlEstimatorTest, PresetsMatchTable2) {
  auto local_plus = GlEstimatorConfig::LocalPlus();
  EXPECT_FALSE(local_plus.use_global_model);
  EXPECT_TRUE(local_plus.auto_tune);
  EXPECT_TRUE(local_plus.use_cnn_query_tower);

  auto gl_mlp = GlEstimatorConfig::GlMlp();
  EXPECT_TRUE(gl_mlp.use_global_model);
  EXPECT_FALSE(gl_mlp.use_cnn_query_tower);
  EXPECT_FALSE(gl_mlp.auto_tune);

  auto gl_cnn = GlEstimatorConfig::GlCnn();
  EXPECT_TRUE(gl_cnn.use_cnn_query_tower);
  EXPECT_FALSE(gl_cnn.auto_tune);

  auto gl_plus = GlEstimatorConfig::GlPlus();
  EXPECT_TRUE(gl_plus.auto_tune);
}

TEST(GlEstimatorTest, TrainsAndEstimatesReasonably) {
  GlEstimator est(FastConfig(GlEstimatorConfig::GlCnn()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  EXPECT_EQ(est.num_local_models(), env.segmentation.num_segments());
  EXPECT_NE(est.global_model(), nullptr);
  EXPECT_GT(est.training_seconds(), 0.0);

  auto result = EvaluateSearch(&est, env.workload);
  EXPECT_LT(result.qerror.mean, 25.0);
  EXPECT_LT(result.qerror.median, 6.0);
}

TEST(GlEstimatorTest, LocalPlusEvaluatesAllSegments) {
  GlEstimator est(FastConfig(GlEstimatorConfig::LocalPlus()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  EXPECT_EQ(est.global_model(), nullptr);
  const float* q = env.workload.test_queries.Row(0);
  auto per_seg = est.EstimatePerSegment(q, 0.2f);
  EXPECT_EQ(per_seg.size(), env.segmentation.num_segments());
}

TEST(GlEstimatorTest, GlobalSelectsFewSegments) {
  GlEstimator est(FastConfig(GlEstimatorConfig::GlCnn()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  const double mean_selected = est.MeanSelectedSegments(env.workload);
  EXPECT_LT(mean_selected, env.segmentation.num_segments() * 0.7);
  EXPECT_GE(mean_selected, 1.0);
}

TEST(GlEstimatorTest, MissingRateLowWithPenalty) {
  GlEstimator est(FastConfig(GlEstimatorConfig::GlCnn()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  EXPECT_LT(est.MissingRate(env.workload), 0.25);
}

TEST(GlEstimatorTest, SumOfSegmentsEqualsSearchEstimate) {
  GlEstimator est(FastConfig(GlEstimatorConfig::GlCnn()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  const float* q = env.workload.test_queries.Row(1);
  const float tau = env.workload.test[1].thresholds[3].tau;
  double sum = 0.0;
  for (const SegmentEstimate& se : est.EstimatePerSegment(q, tau)) {
    sum += se.estimate;
  }
  EXPECT_NEAR(EstimateCard(est, {q, est.dim()}, tau), sum,
              1e-9 + 1e-6 * sum);
}

TEST(GlEstimatorTest, EstimateMonotoneInTau) {
  GlEstimator est(FastConfig(GlEstimatorConfig::LocalPlus()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  // Local+ sums ALL local models, each monotone in tau, so the total is
  // monotone (with a global model, *selection* changes with tau, which can
  // make the summed estimate non-monotone even though each local is).
  const float* q = env.workload.test_queries.Row(2);
  double prev = -1.0;
  for (float tau = 0.02f; tau <= 0.4f; tau += 0.02f) {
    const double est_v = EstimateCard(est, {q, est.dim()}, tau);
    EXPECT_GE(est_v, prev * (1.0 - 1e-6));
    prev = est_v;
  }
}

TEST(GlEstimatorTest, ModelSizeIncludesCentroids) {
  GlEstimator est(FastConfig(GlEstimatorConfig::GlCnn()));
  const ExperimentEnv& env = SharedEnv();
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  EXPECT_GT(est.ModelSizeBytes(),
            env.segmentation.centroids.size() * sizeof(float));
}

TEST(GlEstimatorTest, PenaltyAblationReducesMissingRate) {
  // Exp-6 / Figure 9: penalty reduces missed cardinality.
  const ExperimentEnv& env = SharedEnv();
  GlEstimatorConfig with = FastConfig(GlEstimatorConfig::GlCnn());
  with.use_penalty = true;
  GlEstimatorConfig without = FastConfig(GlEstimatorConfig::GlCnn());
  without.use_penalty = false;
  GlEstimator est_with(with);
  GlEstimator est_without(without);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est_with.Train(ctx).ok());
  ASSERT_TRUE(est_without.Train(ctx).ok());
  // Allow slack: on a tiny dataset the effect is noisy, but the penalty
  // must never make missing drastically worse.
  EXPECT_LE(est_with.MissingRate(env.workload),
            est_without.MissingRate(env.workload) + 0.05);
}

TEST(GlEstimatorTest, IncrementalUpdatesKeepAccuracy) {
  // Section 5.3 / Exp-11: insert points, reroute, fine-tune; error must
  // stay bounded.
  EnvOptions opts;
  opts.num_segments = 5;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  GlEstimator est(FastConfig(GlEstimatorConfig::GlCnn()));
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  const double before = EvaluateSearch(&est, env.workload).qerror.median;

  // Insert 5% new points drawn from the same distribution.
  const size_t n_new = env.dataset.size() / 20;
  Matrix updates =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, n_new, env.seed).value();
  const uint32_t first_new = static_cast<uint32_t>(env.dataset.size());
  env.dataset.Append(updates);
  std::vector<uint32_t> new_rows(n_new);
  for (size_t i = 0; i < n_new; ++i) {
    new_rows[i] = first_new + static_cast<uint32_t>(i);
  }
  ASSERT_TRUE(est.ApplyUpdates(env.dataset, &env.workload, new_rows,
                               /*seed=*/17, /*fine_tune_epochs=*/3)
                  .ok());

  const double after = EvaluateSearch(&est, env.workload).qerror.median;
  EXPECT_LT(after, std::max(4.0, 2.5 * before));
}

}  // namespace
}  // namespace simcard
