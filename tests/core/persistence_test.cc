// Model persistence: a trained estimator saved to disk and loaded into a
// fresh object must produce bit-identical estimates — the paper's workflow
// of "trained in PyTorch, copied into a C++ implementation for testing"
// needs exactly this property.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/gl_estimator.h"
#include "eval/harness.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

using testsupport::EstimateCard;

GlEstimatorConfig FastGlConfig() {
  GlEstimatorConfig config = GlEstimatorConfig::GlCnn();
  config.local_train.epochs = 10;
  config.global_train.epochs = 10;
  return config;
}

TEST(PersistenceTest, SaveRequiresTrainedEstimator) {
  GlEstimator est(FastGlConfig());
  EXPECT_FALSE(est.SaveToFile(testing::TempDir() + "/untrained.bin").ok());
}

TEST(PersistenceTest, GlRoundTripEstimatesIdentically) {
  EnvOptions opts;
  opts.num_segments = 4;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  GlEstimator trained(FastGlConfig());
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(trained.Train(ctx).ok());

  const std::string path = testing::TempDir() + "/simcard_gl_model.bin";
  ASSERT_TRUE(trained.SaveToFile(path).ok());

  GlEstimator restored(FastGlConfig());
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.num_local_models(), trained.num_local_models());
  EXPECT_NE(restored.global_model(), nullptr);

  for (size_t i = 0; i < 5; ++i) {
    const auto& lq = env.workload.test[i];
    const float* q = env.workload.test_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      EXPECT_DOUBLE_EQ(EstimateCard(restored, {q, env.dataset.dim()}, t.tau),
                       EstimateCard(trained, {q, env.dataset.dim()}, t.tau));
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, LocalPlusRoundTripWithoutGlobal) {
  EnvOptions opts;
  opts.num_segments = 3;
  auto env =
      std::move(BuildEnvironment("imagenet-sim", Scale::kTiny, opts).value());
  GlEstimatorConfig config = GlEstimatorConfig::LocalPlus();
  config.auto_tune = false;
  config.local_train.epochs = 8;
  GlEstimator trained(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(trained.Train(ctx).ok());

  const std::string path = testing::TempDir() + "/simcard_localplus.bin";
  ASSERT_TRUE(trained.SaveToFile(path).ok());
  GlEstimator restored(config);
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.global_model(), nullptr);
  const float* q = env.workload.test_queries.Row(0);
  EXPECT_DOUBLE_EQ(EstimateCard(restored, {q, env.dataset.dim()}, 0.2f),
                   EstimateCard(trained, {q, env.dataset.dim()}, 0.2f));
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsGarbageFile) {
  const std::string path = testing::TempDir() + "/simcard_garbage.bin";
  Serializer out;
  out.WriteString("not a model");
  ASSERT_TRUE(out.SaveToFile(path).ok());
  GlEstimator est(FastGlConfig());
  EXPECT_FALSE(est.LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsMissingFile) {
  GlEstimator est(FastGlConfig());
  EXPECT_FALSE(est.LoadFromFile("/nonexistent/model.bin").ok());
}

// A refresh mutates the segmentation in ways the assignment vector alone
// cannot reconstruct (member-list order seeds the fallback sampling; rows
// routed with gaps are in no member list at all). Snapshotting mid-refresh
// must round-trip that state exactly through the checked container.
TEST(PersistenceTest, MidRefreshSnapshotRoundTripsSegmentation) {
  EnvOptions opts;
  opts.num_segments = 5;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  GlEstimator trained(FastGlConfig());
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(trained.Train(ctx).ok());

  // Mid-refresh state: erase a scattered batch, route an insert batch,
  // re-sample the touched fallbacks.
  std::vector<uint32_t> erases;
  for (uint32_t row = 5; row < 200; row += 13) erases.push_back(row);
  env.dataset.EraseRows(erases);
  std::vector<size_t> touched;
  ASSERT_TRUE(trained.EraseRows(env.dataset, erases, &touched).ok());
  Matrix updates =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 30, env.seed + 1).value();
  const uint32_t first_new = static_cast<uint32_t>(env.dataset.size());
  env.dataset.Append(updates);
  std::vector<uint32_t> new_rows(30);
  for (size_t i = 0; i < 30; ++i) {
    new_rows[i] = first_new + static_cast<uint32_t>(i);
  }
  ASSERT_TRUE(trained.RouteInserts(env.dataset, new_rows, &touched).ok());
  trained.RebuildFallbacks(env.dataset, touched, /*seed=*/17);

  std::vector<uint8_t> bytes = trained.SaveToBytes();
  ASSERT_FALSE(bytes.empty());
  GlEstimator restored(FastGlConfig());
  ASSERT_TRUE(restored.LoadFromBytes(std::move(bytes)).ok());

  const Segmentation& a = trained.segmentation();
  const Segmentation& b = restored.segmentation();
  EXPECT_EQ(b.assignment, a.assignment);
  EXPECT_EQ(b.members, a.members);  // exact lists, including order
  EXPECT_EQ(b.radius, a.radius);
  ASSERT_EQ(b.centroids.rows(), a.centroids.rows());
  for (size_t s = 0; s < a.centroids.rows(); ++s) {
    for (size_t j = 0; j < a.centroids.cols(); ++j) {
      EXPECT_EQ(b.centroids.at(s, j), a.centroids.at(s, j));
    }
  }
  for (size_t s = 0; s < trained.num_local_models(); ++s) {
    EXPECT_EQ(restored.segment_fallback(s).samples,
              trained.segment_fallback(s).samples);
    EXPECT_EQ(restored.segment_fallback(s).segment_size,
              trained.segment_fallback(s).segment_size);
  }
  // Identical member order => identical fallback re-sampling downstream.
  std::vector<size_t> all(trained.num_local_models());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  trained.RebuildFallbacks(env.dataset, all, /*seed=*/23);
  restored.RebuildFallbacks(env.dataset, all, /*seed=*/23);
  for (size_t s = 0; s < trained.num_local_models(); ++s) {
    EXPECT_EQ(restored.segment_fallback(s).samples,
              trained.segment_fallback(s).samples);
  }
}

// A routing gap (rows appended but not yet routed) leaves rows that belong
// to NO segment: assignment-derived member lists would misfile them, so the
// exact-members section must win.
TEST(PersistenceTest, GapRowsSurviveRoundTrip) {
  EnvOptions opts;
  opts.num_segments = 4;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  GlEstimator trained(FastGlConfig());
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(trained.Train(ctx).ok());

  Matrix updates =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 4, env.seed + 2).value();
  const uint32_t first_new = static_cast<uint32_t>(env.dataset.size());
  env.dataset.Append(updates);
  // Route only the LAST appended row: the first three become gap rows
  // (assignment padded, member of nothing).
  std::vector<uint32_t> routed{first_new + 3};
  std::vector<size_t> touched;
  ASSERT_TRUE(trained.RouteInserts(env.dataset, routed, &touched).ok());
  size_t total_members = 0;
  for (const auto& m : trained.segmentation().members) {
    total_members += m.size();
  }
  ASSERT_EQ(total_members, trained.segmentation().assignment.size() - 3);

  std::vector<uint8_t> bytes = trained.SaveToBytes();
  GlEstimator restored(FastGlConfig());
  ASSERT_TRUE(restored.LoadFromBytes(std::move(bytes)).ok());
  EXPECT_EQ(restored.segmentation().members,
            trained.segmentation().members);
  size_t restored_members = 0;
  for (const auto& m : restored.segmentation().members) {
    restored_members += m.size();
  }
  // Without the members section the three gap rows would be misfiled into
  // segment 0 by the assignment-derived reconstruction.
  EXPECT_EQ(restored_members, total_members);
}

TEST(PersistenceTest, LoadedModelSupportsFurtherUpdates) {
  EnvOptions opts;
  opts.num_segments = 4;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  GlEstimator trained(FastGlConfig());
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(trained.Train(ctx).ok());
  const std::string path = testing::TempDir() + "/simcard_updatable.bin";
  ASSERT_TRUE(trained.SaveToFile(path).ok());

  GlEstimator restored(FastGlConfig());
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  // Stream an update batch through the restored estimator.
  Matrix updates =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 20, env.seed).value();
  const uint32_t first_new = static_cast<uint32_t>(env.dataset.size());
  env.dataset.Append(updates);
  std::vector<uint32_t> new_rows(20);
  for (size_t i = 0; i < 20; ++i) {
    new_rows[i] = first_new + static_cast<uint32_t>(i);
  }
  EXPECT_TRUE(
      restored.ApplyUpdates(env.dataset, &env.workload, new_rows, 7).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simcard
