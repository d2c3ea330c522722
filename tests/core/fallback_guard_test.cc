// Graceful degradation at inference time: invalid inputs answer 0, broken
// local models fall back to the per-segment sampling estimate, totals are
// clamped to [0, |D|], and every degradation is counted in the metrics
// registry under simcard.fallback.*.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <span>

#include "common/checked_file.h"
#include "common/fault.h"
#include "core/gl_estimator.h"
#include "core/qes_estimator.h"
#include "core/segment_fallback.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

using testsupport::EstimateCard;

constexpr float kNaNf = std::numeric_limits<float>::quiet_NaN();

// ---- SegmentFallback unit tests -------------------------------------------

Dataset GridDataset() {
  // 8 points on a line: (0,0), (1,0), ..., (7,0) under L2.
  Matrix points(8, 2);
  for (size_t i = 0; i < 8; ++i) {
    points.at(i, 0) = static_cast<float>(i);
    points.at(i, 1) = 0.0f;
  }
  return Dataset("grid", std::move(points), Metric::kL2, /*tau_max=*/8.0f);
}

TEST(SegmentFallbackTest, ScaledSampleCount) {
  Dataset data = GridDataset();
  std::vector<uint32_t> members{0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(3);
  // All 8 members retained: the estimate is the exact in-tau count.
  SegmentFallback fb = SegmentFallback::FromSegment(data, members, 8, &rng);
  EXPECT_EQ(fb.SampleCount(2), 8u);
  const float origin[2] = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(fb.Estimate(origin, 2.5f, 2, Metric::kL2), 3.0);
  EXPECT_DOUBLE_EQ(fb.Estimate(origin, 100.0f, 2, Metric::kL2), 8.0);
  EXPECT_DOUBLE_EQ(fb.Estimate(origin, -1.0f, 2, Metric::kL2), 0.0);
}

TEST(SegmentFallbackTest, SubsampleScalesToPopulation) {
  Dataset data = GridDataset();
  std::vector<uint32_t> members{0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(4);
  SegmentFallback fb = SegmentFallback::FromSegment(data, members, 4, &rng);
  EXPECT_EQ(fb.SampleCount(2), 4u);
  EXPECT_EQ(fb.segment_size, 8u);
  const float origin[2] = {0.0f, 0.0f};
  // Every sample within a huge tau -> estimate equals the full population.
  EXPECT_DOUBLE_EQ(fb.Estimate(origin, 100.0f, 2, Metric::kL2), 8.0);
}

TEST(SegmentFallbackTest, EmptyAnswersZeroAndRoundTrips) {
  SegmentFallback fb;
  fb.segment_size = 42;
  const float origin[2] = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(fb.Estimate(origin, 1.0f, 2, Metric::kL2), 0.0);

  Serializer out;
  fb.Serialize(&out);
  Deserializer in(out.bytes());
  SegmentFallback back;
  ASSERT_TRUE(back.Deserialize(&in).ok());
  EXPECT_EQ(back.segment_size, 42u);
  EXPECT_TRUE(back.samples.empty());
}

// ---- GlEstimator guard tests ----------------------------------------------

// One trained tiny estimator shared across tests (training dominates the
// test's cost).
GlEstimator& TrainedEstimator() {
  static GlEstimator* est = [] {
    EnvOptions opts;
    opts.num_segments = 3;
    auto env = std::move(
        BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
    GlEstimatorConfig config = GlEstimatorConfig::GlCnn();
    config.local_train.epochs = 4;
    config.global_train.epochs = 4;
    auto* e = new GlEstimator(config);
    TrainContext ctx = MakeTrainContext(env);
    EXPECT_TRUE(e->Train(ctx).ok());
    return e;
  }();
  return *est;
}

double DatasetSize(const GlEstimator& est) {
  return static_cast<double>(est.segmentation().assignment.size());
}

// Reads a fallback counter, running `fn` with metrics enabled.
template <typename Fn>
int64_t CounterDelta(const char* name, Fn fn) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter* counter = obs::GetCounter(name);
  const int64_t before = counter->Value();
  fn();
  obs::SetMetricsEnabled(was_enabled);
  return counter->Value() - before;
}

TEST(GlEstimatorGuardTest, NanQueryAnswersZero) {
  GlEstimator& est = TrainedEstimator();
  std::vector<float> q(16, 0.1f);
  q[3] = kNaNf;
  double out = -1.0;
  const int64_t delta =
      CounterDelta("simcard.fallback.invalid_query",
                   [&] { out = EstimateCard(est, q, 0.2f); });
  EXPECT_EQ(out, 0.0);
  EXPECT_EQ(delta, 1);
}

TEST(GlEstimatorGuardTest, InfQueryAnswersZero) {
  GlEstimator& est = TrainedEstimator();
  std::vector<float> q(16, 0.1f);
  q[0] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(EstimateCard(est, q, 0.2f), 0.0);
}

TEST(GlEstimatorGuardTest, UnsizedQueryAnswersZero) {
  GlEstimator& est = TrainedEstimator();
  std::vector<float> q(16, 0.1f);
  ASSERT_EQ(q.size(), est.dim());
  testsupport::ExpectShortQueriesRefused(est, q, 0.2f);
}

TEST(GlEstimatorGuardTest, BadTauAnswersZero) {
  GlEstimator& est = TrainedEstimator();
  std::vector<float> q(16, 0.1f);
  double nan_out = -1.0, neg_out = -1.0;
  const int64_t delta =
      CounterDelta("simcard.fallback.invalid_tau", [&] {
        nan_out = EstimateCard(est, q, kNaNf);
        neg_out = EstimateCard(est, q, -0.5f);
      });
  EXPECT_EQ(nan_out, 0.0);
  EXPECT_EQ(neg_out, 0.0);
  EXPECT_EQ(delta, 2);
}

TEST(GlEstimatorGuardTest, InjectedLocalFaultFallsBackFinite) {
  GlEstimator& est = TrainedEstimator();
  std::vector<float> q(16, 0.1f);

  fault::FaultConfig config;
  config.sites = "gl.local_eval";  // every local evaluation goes NaN
  fault::Configure(config);
  double out = std::numeric_limits<double>::quiet_NaN();
  const int64_t delta =
      CounterDelta("simcard.fallback.local_nonfinite",
                   [&] { out = EstimateCard(est, q, 0.3f); });
  fault::Disable();

  EXPECT_TRUE(std::isfinite(out));
  EXPECT_GE(out, 0.0);
  EXPECT_LE(out, DatasetSize(est));
  EXPECT_GE(delta, 1);  // at least one segment fell back

  // Disarmed again: the normal path answers without touching the counter.
  EXPECT_TRUE(std::isfinite(EstimateCard(est, q, 0.3f)));
}

TEST(GlEstimatorGuardTest, EstimateNeverExceedsDatasetSize) {
  GlEstimator& est = TrainedEstimator();
  // A huge tau drives every model to its ceiling; the sum of per-segment
  // clamps already bounds by |D|, and the final clamp guarantees it.
  std::vector<float> q(16, 0.0f);
  const double out = EstimateCard(est, q, 1e6f);
  EXPECT_TRUE(std::isfinite(out));
  EXPECT_LE(out, DatasetSize(est));
}

// ---- Degraded load --------------------------------------------------------

struct SavedModel {
  std::string path;
  std::vector<uint8_t> bytes;
};

SavedModel SaveTrainedModel() {
  SavedModel out;
  out.path = testing::TempDir() + "/fallback_guard_model.bin";
  EXPECT_TRUE(TrainedEstimator().SaveToFile(out.path).ok());
  auto reader_or = CheckedFileReader::Open(out.path);
  EXPECT_TRUE(reader_or.ok());
  FILE* f = fopen(out.path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  out.bytes.resize(static_cast<size_t>(ftell(f)));
  fseek(f, 0, SEEK_SET);
  EXPECT_EQ(fread(out.bytes.data(), 1, out.bytes.size(), f),
            out.bytes.size());
  fclose(f);
  return out;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
}

TEST(GlEstimatorGuardTest, DegradedLoadQuarantinesCorruptLocal) {
  SavedModel saved = SaveTrainedModel();
  // Corrupt one payload byte of "local.1".
  auto reader_or = CheckedFileReader::FromBytes(saved.bytes);
  ASSERT_TRUE(reader_or.ok());
  auto corrupted = saved.bytes;
  bool found = false;
  for (const auto& info : reader_or.value().sections()) {
    if (info.name == "local.1") {
      ASSERT_GT(info.size, 8u);
      corrupted[info.offset + info.size / 2] ^= 0x40;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  WriteBytes(saved.path, corrupted);

  // Strict mode refuses the file outright.
  GlEstimator strict(GlEstimatorConfig::GlCnn());
  Status st = strict.LoadFromFile(saved.path);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos);

  // Degraded mode quarantines the one bad local and keeps serving.
  GlEstimator degraded(GlEstimatorConfig::GlCnn());
  ASSERT_TRUE(
      degraded.LoadFromFile(saved.path, GlEstimator::LoadMode::kDegraded)
          .ok());
  EXPECT_EQ(degraded.num_quarantined_locals(), 1u);
  EXPECT_EQ(degraded.local_model(1), nullptr);

  std::vector<float> q(16, 0.1f);
  double out = std::numeric_limits<double>::quiet_NaN();
  const int64_t delta =
      CounterDelta("simcard.fallback.local_missing",
                   [&] { out = EstimateCard(degraded, q, 0.5f); });
  EXPECT_TRUE(std::isfinite(out));
  EXPECT_GE(out, 0.0);
  EXPECT_LE(out, DatasetSize(degraded));
  (void)delta;  // the global router may not select segment 1 for this query

  std::remove(saved.path.c_str());
}

TEST(GlEstimatorGuardTest, CheckedRoundTripPreservesEstimates) {
  SavedModel saved = SaveTrainedModel();
  GlEstimator loaded(GlEstimatorConfig::GlCnn());
  ASSERT_TRUE(loaded.LoadFromFile(saved.path).ok());
  EXPECT_EQ(loaded.num_quarantined_locals(), 0u);

  GlEstimator& orig = TrainedEstimator();
  std::vector<float> q(16, 0.05f);
  for (float tau : {0.05f, 0.2f, 0.5f}) {
    EXPECT_DOUBLE_EQ(EstimateCard(loaded, q, tau),
                     EstimateCard(orig, q, tau))
        << "tau " << tau;
  }
  std::remove(saved.path.c_str());
}

// ---- FlatCardEstimator guard test ----------------------------------------

TEST(FlatCardEstimatorGuardTest, ShortQuerySpanAnswersZero) {
  EnvOptions opts;
  opts.num_segments = 3;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  FlatCardEstimatorConfig config = FlatCardEstimatorConfig::Qes();
  config.train.epochs = 2;
  FlatCardEstimator est(config);
  ASSERT_TRUE(est.Train(MakeTrainContext(env)).ok());
  const float* q = env.workload.test_queries.Row(0);
  testsupport::ExpectShortQueriesRefused(est, {q, env.dataset.dim()}, 0.5f);
}

}  // namespace
}  // namespace simcard
