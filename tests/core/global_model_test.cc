#include "core/global_model.h"

#include <gtest/gtest.h>

#include "core/features.h"
#include "eval/harness.h"

namespace simcard {
namespace {

GlobalModelConfig SmallConfig(size_t query_dim, size_t num_segments) {
  GlobalModelConfig config;
  config.query_dim = query_dim;
  config.num_segments = num_segments;
  config.use_cnn_query_tower = false;
  config.mlp_hidden = 16;
  config.query_embed = 8;
  config.tau_hidden = 8;
  config.tau_embed = 4;
  config.aux_hidden = 8;
  config.head_hidden = 16;
  return config;
}

TEST(GlobalModelTest, RejectsBadConfig) {
  Rng rng(1);
  EXPECT_FALSE(GlobalModel::Build(SmallConfig(0, 4), &rng).ok());
  EXPECT_FALSE(GlobalModel::Build(SmallConfig(8, 0), &rng).ok());
}

TEST(GlobalModelTest, LogitsShape) {
  Rng rng(2);
  auto model = GlobalModel::Build(SmallConfig(8, 5), &rng).value();
  Matrix xq = Matrix::Gaussian(3, 8, 1.0f, &rng);
  Matrix xtau = Matrix::Full(3, 1, 0.2f);
  Matrix xc = Matrix::Gaussian(3, 5, 1.0f, &rng);
  Matrix logits = model->ForwardLogits(xq, xtau, xc);
  EXPECT_EQ(logits.rows(), 3u);
  EXPECT_EQ(logits.cols(), 5u);
}

TEST(GlobalModelTest, ProbabilitiesInUnitInterval) {
  Rng rng(3);
  auto model = GlobalModel::Build(SmallConfig(8, 4), &rng).value();
  std::vector<float> q(8, 0.5f);
  std::vector<float> xc(4, 0.3f);
  auto probs = model->Probabilities(q.data(), 0.2f, xc.data());
  ASSERT_EQ(probs.size(), 4u);
  for (float p : probs) {
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(GlobalModelTest, ProbabilitiesMonotoneInTau) {
  // Section 5.1: the learnable threshold before the sigmoid makes the
  // output probability monotonic with the original threshold.
  Rng rng(4);
  auto model = GlobalModel::Build(SmallConfig(8, 4), &rng).value();
  Rng data_rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(8);
    std::vector<float> xc(4);
    for (auto& v : q) v = static_cast<float>(data_rng.NextGaussian());
    for (auto& v : xc) v = data_rng.NextFloat();
    std::vector<float> prev(4, -1.0f);
    for (float tau = 0.0f; tau <= 1.0f; tau += 0.1f) {
      auto probs = model->Probabilities(q.data(), tau, xc.data());
      for (size_t s = 0; s < 4; ++s) {
        EXPECT_GE(probs[s], prev[s] - 1e-6f);
        prev[s] = probs[s];
      }
    }
  }
}

TEST(GlobalModelTest, SelectSegmentsThresholdAndFallback) {
  Rng rng(6);
  GlobalModelConfig config = SmallConfig(8, 3);
  config.sigma = 0.5f;
  auto model = GlobalModel::Build(config, &rng).value();
  EXPECT_EQ(model->SelectSegments({0.9f, 0.2f, 0.6f}),
            (std::vector<size_t>{0, 2}));
  // Fallback: nothing above sigma -> single argmax.
  EXPECT_EQ(model->SelectSegments({0.1f, 0.4f, 0.2f}),
            (std::vector<size_t>{1}));
}

TEST(GlobalModelTest, TrainingLearnsRouting) {
  // End-to-end on a tiny environment: after training, the argmax segment
  // should contain similar objects for most test samples.
  EnvOptions env_opts;
  env_opts.num_segments = 6;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, env_opts).value());
  const size_t n_seg = env.segmentation.num_segments();
  GlobalModelConfig config = SmallConfig(env.dataset.dim(), n_seg);
  Rng rng(7);
  auto model = GlobalModel::Build(config, &rng).value();

  Matrix xc = BuildCentroidDistanceFeatures(env.workload.train_queries,
                                            env.segmentation,
                                            env.dataset.metric());
  GlobalLabels labels = BuildGlobalLabels(env.workload.train, n_seg);
  GlobalTrainOptions opts;
  opts.epochs = 30;
  TrainGlobalModel(model.get(), env.workload.train_queries, xc, labels, opts);

  Matrix xct = BuildCentroidDistanceFeatures(env.workload.test_queries,
                                             env.segmentation,
                                             env.dataset.metric());
  size_t hits = 0;
  size_t total = 0;
  for (const auto& lq : env.workload.test) {
    const float* q = env.workload.test_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      if (t.card <= 0.0f) continue;
      auto probs = model->Probabilities(q, t.tau, xct.Row(lq.row));
      size_t best = 0;
      for (size_t s = 1; s < n_seg; ++s) {
        if (probs[s] > probs[best]) best = s;
      }
      hits += t.seg_cards[best] > 0.0f;
      ++total;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(hits) / total, 0.8);
}

// SaveWithConfig/LoadWithConfig restore G exactly, with either query
// tower: the same probabilities bit for bit, and the same bytes on a second
// save.
TEST(GlobalModelTest, SerializationRoundTrip) {
  for (const bool cnn : {false, true}) {
    SCOPED_TRACE(cnn ? "QES tower" : "MLP tower");
    Rng rng(8);
    GlobalModelConfig config = SmallConfig(32, 4);
    config.use_cnn_query_tower = cnn;
    config.qes = QesConfig::Default(32);
    auto model = GlobalModel::Build(config, &rng).value();
    model->SetInputNormalization(0.2f, 0.1f, std::vector<float>(4, 0.5f),
                                 std::vector<float>(4, 0.2f));
    const Matrix q = Matrix::Gaussian(1, 32, 1.0f, &rng);
    const Matrix xc = Matrix::Gaussian(1, 4, 1.0f, &rng);
    const std::vector<float> before =
        model->Probabilities(q.Row(0), 0.25f, xc.Row(0));

    Serializer out;
    model->SaveWithConfig(&out);
    Deserializer in(out.bytes());
    auto restored_or = GlobalModel::LoadWithConfig(&in);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
    const auto restored = std::move(restored_or).value();
    EXPECT_EQ(restored->Probabilities(q.Row(0), 0.25f, xc.Row(0)), before);
    Serializer again;
    restored->SaveWithConfig(&again);
    EXPECT_EQ(again.bytes(), out.bytes());
  }
}

// A loaded x_C standardization must be one column per segment.
TEST(GlobalModelTest, LoadRejectsMisfitXcNormalization) {
  Rng rng(9);
  auto model = GlobalModel::Build(SmallConfig(8, 4), &rng).value();
  model->SetInputNormalization(0.0f, 1.0f, {0.0f, 0.0f}, {1.0f, 1.0f});
  Serializer out;
  model->SaveWithConfig(&out);
  Deserializer in(out.bytes());
  EXPECT_FALSE(GlobalModel::LoadWithConfig(&in).ok());
}

}  // namespace
}  // namespace simcard
