#include "core/join_estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include "common/stopwatch.h"

#include "eval/harness.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

using testsupport::EstimateCard;

struct JoinEnv {
  ExperimentEnv env;
  JoinWorkload joins;
};

const JoinEnv& SharedJoinEnv() {
  static const JoinEnv* shared = [] {
    auto* out = new JoinEnv;
    EnvOptions opts;
    opts.num_segments = 5;
    out->env = std::move(
        BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
    JoinWorkloadOptions jopts;
    jopts.num_train_sets = 20;
    jopts.num_test_sets = 4;
    jopts.thresholds_per_set = 5;
    out->joins = BuildJoinWorkload(out->env.workload,
                                   out->env.segmentation.num_segments(),
                                   jopts)
                     .value();
    return out;
  }();
  return *shared;
}

CnnJoinEstimator::Config FastCnnJoin() {
  CnnJoinEstimator::Config config;
  config.base.train.epochs = 12;
  config.pooled.epochs = 3;
  return config;
}

GlJoinEstimator::Config FastGlJoin(bool cnn) {
  GlJoinEstimator::Config config =
      cnn ? GlJoinEstimator::Config::GlJoinPlus()
          : GlJoinEstimator::Config::GlJoin();
  config.base.local_train.epochs = 12;
  config.base.global_train.epochs = 12;
  config.base.auto_tune = false;  // keep the test fast
  config.pooled.epochs = 3;
  return config;
}

TEST(CnnJoinTest, FineTuneRequiresTraining) {
  CnnJoinEstimator est(FastCnnJoin());
  const JoinEnv& je = SharedJoinEnv();
  TrainContext ctx = MakeTrainContext(je.env);
  EXPECT_FALSE(est.FineTuneOnJoins(ctx, je.joins).ok());
}

TEST(CnnJoinTest, TrainsAndEstimatesJoins) {
  CnnJoinEstimator est(FastCnnJoin());
  const JoinEnv& je = SharedJoinEnv();
  TrainContext ctx = MakeTrainContext(je.env);
  ASSERT_TRUE(est.Train(ctx).ok());
  ASSERT_TRUE(est.FineTuneOnJoins(ctx, je.joins).ok());
  auto result = EvaluateJoin(&est, je.env.workload, je.joins.test_buckets[0]);
  EXPECT_TRUE(std::isfinite(result.qerror.mean));
  EXPECT_LT(result.qerror.median, 30.0);
}

TEST(CnnJoinTest, JoinEstimateBoundedByQSizeTimesN) {
  CnnJoinEstimator est(FastCnnJoin());
  const JoinEnv& je = SharedJoinEnv();
  TrainContext ctx = MakeTrainContext(je.env);
  ASSERT_TRUE(est.Train(ctx).ok());
  const auto& js = je.joins.test_buckets[0][0];
  const double estimate =
      est.EstimateJoin(je.env.workload.test_queries, js.query_rows, js.tau);
  EXPECT_LE(estimate, static_cast<double>(js.query_rows.size()) *
                          je.env.dataset.size());
  EXPECT_GE(estimate, 0.0);
}

TEST(GlJoinTest, PresetsMatchTable2) {
  auto gl_join = GlJoinEstimator::Config::GlJoin();
  EXPECT_FALSE(gl_join.base.use_cnn_query_tower);
  auto gl_join_plus = GlJoinEstimator::Config::GlJoinPlus();
  EXPECT_TRUE(gl_join_plus.base.use_cnn_query_tower);
  EXPECT_TRUE(gl_join_plus.base.auto_tune);
}

TEST(GlJoinTest, TrainsRoutesAndEstimates) {
  GlJoinEstimator est(FastGlJoin(/*cnn=*/true));
  const JoinEnv& je = SharedJoinEnv();
  TrainContext ctx = MakeTrainContext(je.env);
  ASSERT_TRUE(est.Train(ctx).ok());
  ASSERT_TRUE(est.FineTuneOnJoins(ctx, je.joins).ok());
  auto result = EvaluateJoin(&est, je.env.workload, je.joins.test_buckets[0]);
  EXPECT_TRUE(std::isfinite(result.qerror.mean));
  EXPECT_LT(result.qerror.median, 30.0);
}

TEST(GlJoinTest, BatchFasterThanPerQueryOnLargeSets) {
  // Exp-13: pooled evaluation beats per-query evaluation.
  GlJoinEstimator est(FastGlJoin(/*cnn=*/true));
  const JoinEnv& je = SharedJoinEnv();
  TrainContext ctx = MakeTrainContext(je.env);
  ASSERT_TRUE(est.Train(ctx).ok());

  const auto& js = je.joins.test_buckets[0][0];
  Stopwatch watch;
  for (int rep = 0; rep < 5; ++rep) {
    est.EstimateJoin(je.env.workload.test_queries, js.query_rows, js.tau);
  }
  const double batch_ms = watch.ElapsedMillis();
  watch.Restart();
  for (int rep = 0; rep < 5; ++rep) {
    // Per-query path: sum of individual search estimates (GL+ style).
    double total = 0.0;
    for (uint32_t row : js.query_rows) {
      total += EstimateCard(
          est, {je.env.workload.test_queries.Row(row), je.env.dataset.dim()},
          js.tau);
    }
    (void)total;
  }
  const double per_query_ms = watch.ElapsedMillis();
  EXPECT_LT(batch_ms, per_query_ms);
}

TEST(GlJoinTest, SearchEstimatesDelegateToGl) {
  GlJoinEstimator est(FastGlJoin(/*cnn=*/false));
  const JoinEnv& je = SharedJoinEnv();
  TrainContext ctx = MakeTrainContext(je.env);
  ASSERT_TRUE(est.Train(ctx).ok());
  const float* q = je.env.workload.test_queries.Row(0);
  const size_t dim = je.env.dataset.dim();
  EXPECT_NEAR(EstimateCard(est, {q, dim}, 0.2f),
              EstimateCard(*est.gl(), {q, dim}, 0.2f), 1e-9);
}

TEST(FineTunePooledTest, EmptySetsIsNoop) {
  Rng rng(1);
  CardModelConfig config;
  config.query_dim = 4;
  config.use_cnn_query_tower = false;
  auto model = CardModel::Build(config, &rng).value();
  PooledTrainOptions opts;
  EXPECT_EQ(FineTunePooled(model.get(), Matrix(2, 4), nullptr, {}, opts), 0.0);
}

TEST(FineTunePooledTest, ReducesJoinLossOnToyData) {
  // One fixed member multiset whose target is far from the initial output:
  // a few pooled epochs must reduce the hybrid loss.
  Rng rng(2);
  CardModelConfig config;
  config.query_dim = 4;
  config.use_cnn_query_tower = false;
  config.mlp_hidden = 8;
  config.query_embed = 4;
  config.head_hidden = 8;
  auto model = CardModel::Build(config, &rng).value();
  Matrix queries = Matrix::Gaussian(10, 4, 1.0f, &rng);
  std::vector<PooledSample> sets;
  for (int i = 0; i < 8; ++i) {
    sets.push_back({{0, 1, 2, 3, 4}, 0.3f, 500.0f});
  }
  PooledTrainOptions opts;
  opts.epochs = 1;
  const double first = FineTunePooled(model.get(), queries, nullptr, sets,
                                      opts);
  opts.epochs = 30;
  const double later = FineTunePooled(model.get(), queries, nullptr, sets,
                                      opts);
  EXPECT_LT(later, first);
}

}  // namespace
}  // namespace simcard
