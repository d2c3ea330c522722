// Pins the batched inference path to the single-query path bit for bit.
//
// EstimateSearchBatch shares SelectWithGuards with the single path and
// accumulates per-row sums in the same ascending-segment order, so on a
// deterministic model batch and single answers must be EXACTLY equal — not
// approximately. Any reassociation of the floating-point reductions (in the
// blocked matmuls, the batched distance kernel, or the per-segment sum)
// breaks these EXPECT_EQ checks. Coverage includes invalid rows, mixed
// valid/invalid batches, quarantined locals answering through the sampling
// fallback, and the default Estimator::EstimateBatch loop on a baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "common/checked_file.h"
#include "common/rng.h"
#include "core/gl_estimator.h"
#include "dist/metric.h"
#include "baselines/sampling_estimator.h"
#include "eval/harness.h"
#include "obs/metrics.h"

namespace simcard {
namespace {

constexpr float kNaNf = std::numeric_limits<float>::quiet_NaN();

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
  config.local_train.epochs = 8;
  config.global_train.epochs = 8;
  config.tuner.max_trials = 2;
  config.tuner.trial_epochs = 4;
  config.tuner.train_subsample = 200;
  config.tuner.val_subsample = 60;
  config.tune_per_segment = false;
  return config;
}

const GlEstimator& TrainedGlCnn() {
  static const GlEstimator* est = [] {
    auto* e = new GlEstimator(FastConfig(GlEstimatorConfig::GlCnn()));
    TrainContext ctx = MakeTrainContext(SharedEnv());
    EXPECT_TRUE(e->Train(ctx).ok());
    return e;
  }();
  return *est;
}

double Single(const GlEstimator& est, const float* q, size_t dim, float tau) {
  EstimateRequest request;
  request.query = std::span<const float>(q, dim);
  request.tau = tau;
  return est.Estimate(request);
}

// Every (test query, threshold) pair of the workload in one batch: the
// batched path must reproduce the single-query path exactly, including all
// per-row pruning decisions.
TEST(BatchParityTest, WholeWorkloadBitwiseEqual) {
  const GlEstimator& est = TrainedGlCnn();
  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();

  std::vector<const float*> rows;
  std::vector<float> taus;
  for (const auto& lq : wl.test) {
    for (const auto& t : lq.thresholds) {
      rows.push_back(wl.test_queries.Row(lq.row));
      taus.push_back(t.tau);
    }
  }
  ASSERT_GT(rows.size(), 16u);

  Matrix queries(rows.size(), dim);
  for (size_t i = 0; i < rows.size(); ++i) queries.SetRow(i, rows[i]);
  const std::vector<double> batch = est.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch[i], Single(est, rows[i], dim, taus[i])) << "row " << i;
  }
}

// Invalid rows (non-finite query, NaN/negative tau) answer 0.0 in both
// paths, and their presence must not disturb the valid rows packed around
// them.
TEST(BatchParityTest, InvalidRowsIsolatedInMixedBatch) {
  const GlEstimator& est = TrainedGlCnn();
  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();

  Matrix queries(5, dim);
  queries.SetRow(0, wl.test_queries.Row(0));
  queries.SetRow(1, wl.test_queries.Row(1));
  queries.SetRow(2, wl.test_queries.Row(2));
  queries.at(2, dim / 2) = kNaNf;  // poisoned query vector
  queries.SetRow(3, wl.test_queries.Row(3));
  queries.SetRow(4, wl.test_queries.Row(4));
  const std::vector<float> taus = {0.2f, kNaNf, 0.2f, -0.5f, 0.3f};

  const std::vector<double> batch = est.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[1], 0.0);  // NaN tau
  EXPECT_EQ(batch[2], 0.0);  // NaN query
  EXPECT_EQ(batch[3], 0.0);  // negative tau
  EXPECT_EQ(batch[0], Single(est, wl.test_queries.Row(0), dim, 0.2f));
  EXPECT_EQ(batch[4], Single(est, wl.test_queries.Row(4), dim, 0.3f));
}

// A taus span shorter than the batch marks the tail rows invalid (0.0)
// instead of reading out of bounds.
TEST(BatchParityTest, ShortTauSpanZeroesTail) {
  const GlEstimator& est = TrainedGlCnn();
  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();

  Matrix queries(3, dim);
  for (size_t i = 0; i < 3; ++i) queries.SetRow(i, wl.test_queries.Row(i));
  const std::vector<float> taus = {0.25f};  // rows 1..2 have no tau
  const std::vector<double> batch = est.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], Single(est, wl.test_queries.Row(0), dim, 0.25f));
  EXPECT_EQ(batch[1], 0.0);
  EXPECT_EQ(batch[2], 0.0);
}

// Quarantined locals (degraded load) answer through the sampling fallback;
// the batch path must route those rows through the same fallback and stay
// bitwise-equal to the single path.
TEST(BatchParityTest, QuarantinedSegmentRowsMatchSinglePath) {
  const GlEstimator& trained = TrainedGlCnn();
  const std::string path = testing::TempDir() + "/batch_parity_model.bin";
  ASSERT_TRUE(trained.SaveToFile(path).ok());

  // Corrupt one payload byte of "local.1" so degraded load quarantines it.
  std::vector<uint8_t> bytes;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(ftell(f)));
    fseek(f, 0, SEEK_SET);
    ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
  }
  auto reader_or = CheckedFileReader::FromBytes(bytes);
  ASSERT_TRUE(reader_or.ok());
  bool found = false;
  for (const auto& info : reader_or.value().sections()) {
    if (info.name == "local.1") {
      ASSERT_GT(info.size, 8u);
      bytes[info.offset + info.size / 2] ^= 0x40;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
  }

  GlEstimator degraded(GlEstimatorConfig::GlCnn());
  ASSERT_TRUE(
      degraded.LoadFromFile(path, GlEstimator::LoadMode::kDegraded).ok());
  ASSERT_EQ(degraded.num_quarantined_locals(), 1u);

  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();
  const size_t n = std::min<size_t>(12, wl.test_queries.rows());
  Matrix queries(n, dim);
  std::vector<float> taus(n);
  for (size_t i = 0; i < n; ++i) {
    queries.SetRow(i, wl.test_queries.Row(i));
    // Large taus pull in many segments, including the quarantined one.
    taus[i] = 0.4f + 0.05f * static_cast<float>(i % 4);
  }
  const std::vector<double> batch = degraded.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], Single(degraded, wl.test_queries.Row(i), dim, taus[i]))
        << "row " << i;
  }
  std::remove(path.c_str());
}

// Estimators without a specialized batch path inherit the base EstimateBatch
// loop, which must agree with per-row Estimate calls.
TEST(BatchParityTest, DefaultEstimateBatchLoopsSingle) {
  SamplingEstimator est("Sampling (10%)", 0.10);
  TrainContext ctx = MakeTrainContext(SharedEnv());
  ASSERT_TRUE(est.Train(ctx).ok());

  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();
  const size_t n = std::min<size_t>(8, wl.test_queries.rows());
  Matrix queries(n, dim);
  std::vector<float> taus(n);
  for (size_t i = 0; i < n; ++i) {
    queries.SetRow(i, wl.test_queries.Row(i));
    taus[i] = 0.1f + 0.05f * static_cast<float>(i);
  }
  BatchEstimateRequest request;
  request.queries = &queries;
  request.taus = std::span<const float>(taus.data(), taus.size());
  const std::vector<double> batch = est.EstimateBatch(request);
  ASSERT_EQ(batch.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EstimateRequest single;
    single.query = std::span<const float>(queries.Row(i), dim);
    single.tau = taus[i];
    EXPECT_EQ(batch[i], est.Estimate(single)) << "row " << i;
  }
}

// The default loop's twin of ShortTauSpanZeroesTail: a row without a tau
// answers 0 and counts simcard.fallback.invalid_tau. On a Hamming dataset
// with the whole dataset as the sample, each row lies at distance exactly 0
// from itself, so estimating such a row at tau 0 would answer at least 1.
TEST(BatchParityTest, DefaultBatchShortTauSpanZeroesTail) {
  const Dataset data =
      MakeAnalogDataset("imagenet-sim", Scale::kTiny, 3).value();
  ASSERT_EQ(data.metric(), Metric::kHamming);
  SamplingEstimator est("Sampling (100%)", 1.0);
  TrainContext ctx;
  ctx.dataset = &data;
  ASSERT_TRUE(est.Train(ctx).ok());

  Matrix queries(3, data.dim());
  for (size_t i = 0; i < 3; ++i) queries.SetRow(i, data.points().Row(i));
  const std::vector<float> taus = {0.25f};  // rows 1..2 have no tau
  BatchEstimateRequest request;
  request.queries = &queries;
  request.taus = std::span<const float>(taus.data(), taus.size());

  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter* invalid_tau = obs::GetCounter("simcard.fallback.invalid_tau");
  const int64_t before = invalid_tau->Value();
  const std::vector<double> batch = est.EstimateBatch(request);
  const int64_t counted = invalid_tau->Value() - before;
  obs::SetMetricsEnabled(was_enabled);

  ASSERT_EQ(batch.size(), 3u);
  EstimateRequest single;
  single.query = std::span<const float>(queries.Row(0), data.dim());
  single.tau = 0.25f;
  EXPECT_EQ(batch[0], est.Estimate(single));
  EXPECT_EQ(batch[1], 0.0);
  EXPECT_EQ(batch[2], 0.0);
  EXPECT_EQ(counted, 2);
}

// The batched distance kernel behind the feature builders must reproduce the
// scalar Distance() for every metric, including the zero-norm cosine branch.
TEST(BatchParityTest, BatchDistancesMatchScalarKernel) {
  Rng rng(17);
  const size_t d = 9;
  Matrix queries(5, d);
  Matrix points(7, d);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries.data()[i] = rng.NextFloat() * 2.0f - 1.0f;
  }
  for (size_t i = 0; i < points.size(); ++i) {
    points.data()[i] = rng.NextFloat() * 2.0f - 1.0f;
  }
  // Exercise the zero-norm branches of cosine/angular.
  for (size_t c = 0; c < d; ++c) queries.at(4, c) = 0.0f;

  for (Metric metric : {Metric::kL1, Metric::kL2, Metric::kCosine,
                        Metric::kAngular, Metric::kHamming}) {
    const Matrix dists = BatchDistances(queries, points, metric);
    ASSERT_EQ(dists.rows(), queries.rows());
    ASSERT_EQ(dists.cols(), points.rows());
    for (size_t i = 0; i < queries.rows(); ++i) {
      for (size_t j = 0; j < points.rows(); ++j) {
        EXPECT_EQ(dists.at(i, j),
                  Distance(queries.Row(i), points.Row(j), d, metric))
            << MetricName(metric) << " (" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace simcard
