#include "core/card_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace simcard {
namespace {

CardModelConfig MlpConfig(size_t query_dim = 8, size_t aux_dim = 4) {
  CardModelConfig config;
  config.query_dim = query_dim;
  config.use_cnn_query_tower = false;
  config.mlp_hidden = 16;
  config.query_embed = 8;
  config.tau_hidden = 8;
  config.tau_embed = 4;
  config.aux_dim = aux_dim;
  config.aux_hidden = 8;
  config.head_hidden = 16;
  return config;
}

TEST(CardModelTest, RejectsZeroQueryDim) {
  Rng rng(1);
  CardModelConfig config = MlpConfig();
  config.query_dim = 0;
  EXPECT_FALSE(CardModel::Build(config, &rng).ok());
}

TEST(CardModelTest, ForwardShape) {
  Rng rng(2);
  auto model = CardModel::Build(MlpConfig(), &rng).value();
  Matrix xq = Matrix::Gaussian(6, 8, 1.0f, &rng);
  Matrix xtau = Matrix::Gaussian(6, 1, 0.1f, &rng);
  Matrix xaux = Matrix::Gaussian(6, 4, 1.0f, &rng);
  Matrix y = model->Forward(xq, xtau, xaux);
  EXPECT_EQ(y.rows(), 6u);
  EXPECT_EQ(y.cols(), 1u);
}

TEST(CardModelTest, NoAuxTowerWhenAuxDimZero) {
  Rng rng(3);
  auto model = CardModel::Build(MlpConfig(8, 0), &rng).value();
  Matrix xq = Matrix::Gaussian(2, 8, 1.0f, &rng);
  Matrix xtau = Matrix::Gaussian(2, 1, 0.1f, &rng);
  Matrix y = model->Forward(xq, xtau, Matrix());
  EXPECT_EQ(y.rows(), 2u);
}

TEST(CardModelTest, EstimateCardIsPositiveAndFinite) {
  Rng rng(4);
  auto model = CardModel::Build(MlpConfig(), &rng).value();
  std::vector<float> q(8, 0.3f);
  std::vector<float> aux(4, 0.5f);
  const double est = model->EstimateCard(q.data(), 0.2f, aux.data());
  EXPECT_GT(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST(CardModelTest, SetOutputBiasShiftsLogEstimateExactly) {
  Rng rng(5);
  auto model = CardModel::Build(MlpConfig(8, 0), &rng).value();
  std::vector<float> q(8, 0.2f);
  model->SetOutputBias(1.0f);
  const double est1 = model->EstimateCard(q.data(), 0.1f, nullptr);
  model->SetOutputBias(3.0f);
  const double est2 = model->EstimateCard(q.data(), 0.1f, nullptr);
  // The bias is purely additive in log space (unless the clamp engages).
  if (est2 < 1e10) {
    EXPECT_NEAR(std::log(est2) - std::log(est1), 2.0, 1e-4);
  }
}

TEST(CardModelTest, MonotoneInTau) {
  Rng rng(6);
  auto model = CardModel::Build(MlpConfig(), &rng).value();
  Rng data_rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(8);
    std::vector<float> aux(4);
    for (auto& v : q) v = static_cast<float>(data_rng.NextGaussian());
    for (auto& v : aux) v = data_rng.NextFloat();
    double prev = -1.0;
    for (float tau = 0.0f; tau <= 1.0f; tau += 0.05f) {
      const double est = model->EstimateCard(q.data(), tau, aux.data());
      EXPECT_GE(est, prev * (1.0 - 1e-6)) << "tau=" << tau;
      prev = est;
    }
  }
}

TEST(CardModelTest, TrainingFitsSyntheticCardFunction) {
  // card(q, tau) = round(1000 * tau * sigmoid(q[0])) — learnable from
  // (q, tau) alone.
  Rng rng(8);
  CardModelConfig config = MlpConfig(4, 0);
  auto model = CardModel::Build(config, &rng).value();

  Rng data_rng(9);
  const size_t n_queries = 50;
  Matrix queries = Matrix::Gaussian(n_queries, 4, 1.0f, &data_rng);
  std::vector<SampleRef> samples;
  for (uint32_t i = 0; i < n_queries; ++i) {
    for (int t = 1; t <= 8; ++t) {
      const float tau = 0.1f * t;
      const float s = 1.0f / (1.0f + std::exp(-queries.at(i, 0)));
      samples.push_back({i, tau, std::round(1000.0f * tau * s)});
    }
  }
  CardTrainOptions opts;
  opts.epochs = 120;
  opts.patience = 30;
  opts.seed = 10;
  TrainCardModel(model.get(), queries, nullptr, samples, opts);

  double qerr_sum = 0.0;
  for (const auto& s : samples) {
    const double est =
        model->EstimateCard(queries.Row(s.query_row), s.tau, nullptr);
    const double truth = std::max(0.1f, s.card);
    qerr_sum += std::max(est, truth) / std::max(0.1, std::min(est, truth));
  }
  EXPECT_LT(qerr_sum / samples.size(), 1.6);
}

TEST(CardModelTest, PooledForwardMatchesManualPoolingSemantics) {
  // For a single member, pooled forward == per-sample forward.
  Rng rng(11);
  auto model = CardModel::Build(MlpConfig(), &rng).value();
  Matrix xq = Matrix::Gaussian(1, 8, 1.0f, &rng);
  Matrix xaux = Matrix::Gaussian(1, 4, 1.0f, &rng);
  Matrix xtau(1, 1);
  xtau.at(0, 0) = 0.4f;
  const float per_sample = model->Forward(xq, xtau, xaux).at(0, 0);
  const float pooled = model->ForwardPooled(xq, 0.4f, xaux).at(0, 0);
  EXPECT_NEAR(per_sample, pooled, 1e-5f);
}

TEST(CardModelTest, PooledBackwardRuns) {
  Rng rng(12);
  auto model = CardModel::Build(MlpConfig(), &rng).value();
  Matrix xq = Matrix::Gaussian(5, 8, 1.0f, &rng);
  Matrix xaux = Matrix::Gaussian(5, 4, 1.0f, &rng);
  model->ForwardPooled(xq, 0.3f, xaux);
  Matrix grad(1, 1);
  grad.at(0, 0) = 1.0f;
  for (auto* p : model->Parameters()) p->ZeroGrad();
  model->BackwardPooled(grad);
  double grad_norm = 0.0;
  for (auto* p : model->Parameters()) grad_norm += p->grad().Norm();
  EXPECT_GT(grad_norm, 0.0);
}

TEST(CardModelTest, InputNormalizationPreservesMonotonicity) {
  Rng rng(13);
  auto model = CardModel::Build(MlpConfig(), &rng).value();
  model->SetInputNormalization(0.5f, 0.01f, std::vector<float>(4, 0.2f),
                               std::vector<float>(4, 0.1f));
  std::vector<float> q(8, 0.1f);
  std::vector<float> aux(4, 0.3f);
  double prev = -1.0;
  for (float tau = 0.4f; tau <= 0.6f; tau += 0.01f) {
    const double est = model->EstimateCard(q.data(), tau, aux.data());
    EXPECT_GE(est, prev * (1.0 - 1e-6));
    prev = est;
  }
}

// SaveWithConfig/LoadWithConfig restore the model exactly, with either
// query tower: the same estimate bit for bit, and the same bytes on a
// second save.
TEST(CardModelTest, SerializationRoundTrip) {
  for (const bool cnn : {false, true}) {
    SCOPED_TRACE(cnn ? "QES tower" : "MLP tower");
    Rng rng(14);
    CardModelConfig config = MlpConfig(32, 4);
    config.use_cnn_query_tower = cnn;
    config.qes = QesConfig::Default(32);
    auto model = CardModel::Build(config, &rng).value();
    model->SetInputNormalization(0.1f, 0.05f, std::vector<float>(4, 1.0f),
                                 std::vector<float>(4, 2.0f));
    const Matrix q = Matrix::Gaussian(1, 32, 1.0f, &rng);
    const Matrix aux = Matrix::Gaussian(1, 4, 1.0f, &rng);
    const double before = model->EstimateCard(q.Row(0), 0.3f, aux.Row(0));

    Serializer out;
    model->SaveWithConfig(&out);
    Deserializer in(out.bytes());
    auto restored_or = CardModel::LoadWithConfig(&in);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
    const auto restored = std::move(restored_or).value();
    EXPECT_EQ(restored->EstimateCard(q.Row(0), 0.3f, aux.Row(0)), before);
    Serializer again;
    restored->SaveWithConfig(&again);
    EXPECT_EQ(again.bytes(), out.bytes());
  }
}

// A loaded aux standardization must be as wide as the aux input:
// NormalizeAux indexes it by column, so a narrower one would read past it.
TEST(CardModelTest, LoadRejectsMisfitAuxNormalization) {
  Rng rng(16);
  auto model = CardModel::Build(MlpConfig(8, 4), &rng).value();
  model->SetInputNormalization(0.0f, 1.0f, {0.0f}, {1.0f});
  Serializer out;
  model->SaveWithConfig(&out);
  Deserializer in(out.bytes());
  EXPECT_FALSE(CardModel::LoadWithConfig(&in).ok());
}

TEST(CardModelTest, CnnTowerVariantBuildsAndRuns) {
  Rng rng(15);
  CardModelConfig config = MlpConfig(32, 4);
  config.use_cnn_query_tower = true;
  config.qes = QesConfig::Default(32);
  auto model = CardModel::Build(config, &rng).value();
  Matrix xq = Matrix::Gaussian(3, 32, 1.0f, &rng);
  Matrix xtau = Matrix::Full(3, 1, 0.2f);
  Matrix xaux = Matrix::Gaussian(3, 4, 1.0f, &rng);
  Matrix y = model->Forward(xq, xtau, xaux);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_GT(model->NumScalars(), 100u);
}

}  // namespace
}  // namespace simcard
