// End-to-end check of the "simcard.metrics.v1" run report: train a tiny GL
// estimator with metrics on, evaluate it, and assert the exported JSON
// carries the documented sections — per-query latency quantiles, the
// segment-pruning counters, and per-epoch training-loss series.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/gl_estimator.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "support/request_helpers.h"

namespace simcard {
namespace {

const ExperimentEnv& SharedEnv() {
  static const ExperimentEnv* env = [] {
    EnvOptions opts;
    opts.num_segments = 6;
    return new ExperimentEnv(std::move(
        BuildEnvironment("glove-sim", Scale::kTiny, opts).value()));
  }();
  return *env;
}

// Trained once with metrics enabled so the registry holds full training
// series; every test in this binary shares it.
GlEstimator& SharedEstimator() {
  static GlEstimator* est = [] {
    obs::SetMetricsEnabled(true);
    GlEstimatorConfig config = GlEstimatorConfig::GlCnn();
    config.local_train.epochs = 15;
    config.global_train.epochs = 15;
    config.tune_per_segment = false;
    auto* e = new GlEstimator(std::move(config));
    TrainContext ctx = MakeTrainContext(SharedEnv());
    Status st = e->Train(ctx);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return e;
  }();
  return *est;
}

TEST(ReportSchemaTest, ReportCarriesDocumentedSections) {
  obs::SetMetricsEnabled(true);
  GlEstimator& est = SharedEstimator();
  EvaluateSearch(&est, SharedEnv().workload);

  const obs::JsonValue root = obs::MetricsRegistry::Default().ToJson();
  EXPECT_EQ(root.Get("schema").string_value(), "simcard.metrics.v1");
  EXPECT_TRUE(root.Get("meta").Get("metrics_enabled").bool_value());

  // Segment-pruning accounting from GlEstimator::Estimate.
  const obs::JsonValue& counters = root.Get("counters");
  ASSERT_TRUE(counters.Has("gl.queries"));
  ASSERT_TRUE(counters.Has("gl.segments_evaluated"));
  ASSERT_TRUE(counters.Has("gl.segments_pruned"));
  EXPECT_GT(counters.Get("gl.queries").number_value(), 0.0);
  EXPECT_GT(counters.Get("gl.segments_evaluated").number_value(), 0.0);
  EXPECT_GE(counters.Get("gl.segments_pruned").number_value(), 0.0);

  // Per-query latency histograms with quantiles, from the estimator's
  // phase breakdown and from the evaluation harness.
  for (const char* name : {"gl.latency.total_us", "gl.latency.locals_us",
                           "eval.query_latency_us"}) {
    SCOPED_TRACE(name);
    const obs::JsonValue& hist = root.Get("histograms").Get(name);
    ASSERT_TRUE(hist.is_object());
    EXPECT_GT(hist.Get("count").number_value(), 0.0);
    for (const char* field : {"sum", "mean", "min", "max", "p50", "p90",
                              "p95", "p99"}) {
      EXPECT_TRUE(hist.Has(field)) << field;
    }
    EXPECT_LE(hist.Get("p50").number_value(),
              hist.Get("p99").number_value() + 1e-9);
    const obs::JsonValue& buckets = hist.Get("buckets");
    ASSERT_TRUE(buckets.is_array());
    ASSERT_GT(buckets.size(), 0u);
    EXPECT_TRUE(buckets.at(0).Has("le"));
    EXPECT_TRUE(buckets.at(0).Has("count"));
  }

  // Per-epoch training-loss series from the TrainingObserver hook: the
  // global model plus at least one local model.
  const obs::JsonValue& series = root.Get("series");
  ASSERT_TRUE(series.Has("train.global.loss"));
  EXPECT_GE(series.Get("train.global.loss").size(), 1u);
  bool has_local_series = false;
  for (const auto& [name, points] : series.members()) {
    if (name.rfind("train.local.", 0) == 0 && points.size() > 0) {
      has_local_series = true;
      ASSERT_EQ(points.at(0).size(), 2u);  // [epoch, loss] pairs
    }
  }
  EXPECT_TRUE(has_local_series);

  EXPECT_GT(root.Get("gauges").Get("gl.train_seconds").number_value(), 0.0);
}

TEST(ReportSchemaTest, DumpedFileParsesBack) {
  obs::SetMetricsEnabled(true);
  SharedEstimator();  // make sure the registry is populated
  const std::string path = ::testing::TempDir() + "simcard_report_test.json";
  Status st = obs::DumpMetricsJson(path);
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = obs::JsonValue::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Get("schema").string_value(),
            "simcard.metrics.v1");
  EXPECT_TRUE(parsed.value().Get("histograms").is_object());
}

TEST(ReportSchemaTest, DisabledMetricsRecordNothing) {
  GlEstimator& est = SharedEstimator();
  obs::SetMetricsEnabled(false);
  obs::Counter* queries = obs::GetCounter("gl.queries");
  const int64_t before = queries->Value();
  const float* q = SharedEnv().workload.test_queries.Row(0);
  for (int i = 0; i < 5; ++i) {
    testsupport::EstimateCard(est, {q, est.dim()}, 0.2f + 0.05f * i);
  }
  EXPECT_EQ(queries->Value(), before);
  obs::SetMetricsEnabled(true);
  testsupport::EstimateCard(est, {q, est.dim()}, 0.3f);
  EXPECT_EQ(queries->Value(), before + 1);
}

}  // namespace
}  // namespace simcard
