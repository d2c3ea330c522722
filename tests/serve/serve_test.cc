// Unit tests for the serving layer: registry publish/epoch semantics,
// typed shed and deadline statuses (driven by the serve.* fault sites),
// and the per-segment circuit breaker state machine.
#include "serve/estimation_service.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "support/request_helpers.h"

namespace simcard {
namespace serve {
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

// One trained model shared across the suite; training dominates test time.
std::shared_ptr<const GlEstimator> SharedModel() {
  static std::shared_ptr<const GlEstimator> model = [] {
    auto est =
        std::make_shared<GlEstimator>(FastConfig(GlEstimatorConfig::GlCnn()));
    TrainContext ctx = MakeTrainContext(SharedEnv());
    EXPECT_TRUE(est->Train(ctx).ok());
    return std::shared_ptr<const GlEstimator>(est);
  }();
  return model;
}

std::vector<float> TestQuery(size_t row = 0) {
  const Matrix& queries = SharedEnv().workload.test_queries;
  const float* q = queries.Row(row);
  return std::vector<float>(q, q + queries.cols());
}

uint64_t CounterValue(const char* name) {
  return obs::GetCounter(name)->Value();
}

// Unified-API submit; the service copies the query, so taking the vector by
// value keeps the span alive exactly long enough.
std::future<EstimateResponse> SubmitQuery(EstimationService& service,
                                          std::vector<float> query, float tau,
                                          double deadline_ms) {
  EstimateRequest request;
  request.query = std::span<const float>(query);
  request.tau = tau;
  request.options.deadline_ms = deadline_ms;
  return service.Submit(request);
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override {
    fault::Disable();
    obs::SetMetricsEnabled(false);
  }
};

TEST_F(ServeTest, RegistryPublishAdvancesEpoch) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.has_model());
  EXPECT_EQ(registry.epoch(), 0u);
  EXPECT_EQ(registry.Current().estimator, nullptr);

  EXPECT_EQ(registry.Publish(SharedModel()), 1u);
  EXPECT_TRUE(registry.has_model());
  ModelSnapshot snap = registry.Current();
  EXPECT_EQ(snap.epoch, 1u);
  EXPECT_EQ(snap.estimator.get(), SharedModel().get());

  // Unpublishing (nullptr) still advances the epoch: readers can tell the
  // model they hold has been retired.
  EXPECT_EQ(registry.Publish(nullptr), 2u);
  EXPECT_FALSE(registry.has_model());
  // The old snapshot stays valid — the shared_ptr keeps the model alive.
  EXPECT_NE(snap.estimator, nullptr);
}

TEST_F(ServeTest, SubmitWithoutModelReturnsUnavailable) {
  ModelRegistry registry;
  EstimationService service(&registry, ServeOptions{});
  const uint64_t no_model_before = CounterValue("simcard.serve.no_model");

  EstimateResponse response =
      SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/1000.0).get();
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(CounterValue("simcard.serve.no_model"), no_model_before + 1);
}

TEST_F(ServeTest, AnswersWithPublishedModel) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  EstimationService service(&registry, ServeOptions{});

  EstimateResponse response =
      SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/10000.0).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(std::isfinite(response.estimate));
  EXPECT_GE(response.estimate, 0.0);
  EXPECT_EQ(response.model_epoch, 1u);
  EXPECT_GE(response.total_us, response.eval_us);

  // Sanity: the served estimate matches a direct synchronous call.
  std::vector<float> q = TestQuery();
  const double direct =
      testsupport::EstimateCard(*SharedModel(), q, 0.5f);
  EXPECT_DOUBLE_EQ(response.estimate, direct);
}

TEST_F(ServeTest, ZeroCapacityShedsEveryRequest) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  ServeOptions options;
  options.queue_capacity = 0;
  EstimationService service(&registry, options);
  const uint64_t shed_before = CounterValue("simcard.serve.shed");

  for (int i = 0; i < 3; ++i) {
    EstimateResponse response =
        SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/1000.0).get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(CounterValue("simcard.serve.shed"), shed_before + 3);
}

TEST_F(ServeTest, QueueFullFaultForcesShed) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  EstimationService service(&registry, ServeOptions{});

  fault::FaultConfig config;
  config.sites = "serve.queue_full";
  config.probability = 1.0;
  fault::Configure(config);
  const uint64_t shed_before = CounterValue("simcard.serve.shed");

  EstimateResponse response =
      SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/1000.0).get();
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(CounterValue("simcard.serve.shed"), shed_before + 1);

  fault::Disable();
  EXPECT_TRUE(
      SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/10000.0).get()
          .status.ok());
}

TEST_F(ServeTest, SlowEvalFaultExceedsDeadline) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  EstimationService service(&registry, ServeOptions{});

  fault::FaultConfig config;
  config.sites = "serve.slow_eval";
  config.probability = 1.0;
  fault::Configure(config);
  const uint64_t exceeded_before =
      CounterValue("simcard.serve.deadline_exceeded");

  EstimateResponse response =
      SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/5.0).get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(CounterValue("simcard.serve.deadline_exceeded"),
            exceeded_before + 1);

  fault::Disable();
  EXPECT_TRUE(
      SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/10000.0).get()
          .status.ok());
}

TEST_F(ServeTest, BreakerTripsOnLocalFailuresAndRecovers) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  ServeOptions options;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_requests = 2;
  EstimationService service(&registry, options);

  // Make every local-model evaluation return NaN: the estimator falls back
  // per request, and the breaker counts consecutive failures per segment.
  fault::FaultConfig config;
  config.sites = "gl.local_eval";
  config.probability = 1.0;
  fault::Configure(config);
  const uint64_t open_before = CounterValue("simcard.serve.breaker_open");

  for (int i = 0; i < 6; ++i) {
    EstimateResponse response =
        SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/10000.0).get();
    // Fallback still produces an answer; the request itself succeeds.
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(std::isfinite(response.estimate));
  }
  EXPECT_GT(service.breaker()->trips(), 0u);
  EXPECT_GT(CounterValue("simcard.serve.breaker_open"), open_before);
  bool any_open = false;
  for (size_t s = 0; s < SharedModel()->num_local_models(); ++s) {
    any_open = any_open || service.breaker()->IsOpen(s);
  }
  EXPECT_TRUE(any_open);

  // Heal the locals: cooldown slots burn down, the half-open probe succeeds,
  // and every breaker this query touched closes again.
  fault::Disable();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        SubmitQuery(service, TestQuery(), 0.5f, /*deadline_ms=*/10000.0).get()
            .status.ok());
  }
  for (size_t s = 0; s < SharedModel()->num_local_models(); ++s) {
    EXPECT_FALSE(service.breaker()->IsOpen(s)) << "segment " << s;
  }
}

TEST_F(ServeTest, BreakerStateMachineDirect) {
  SegmentCircuitBreaker breaker(/*failure_threshold=*/2,
                                /*cooldown_requests=*/3, /*max_segments=*/4);
  EXPECT_FALSE(breaker.ForceFallback(0));
  breaker.OnLocalResult(0, false);
  EXPECT_FALSE(breaker.IsOpen(0));  // one failure: below threshold
  breaker.OnLocalResult(0, false);
  EXPECT_TRUE(breaker.IsOpen(0));  // second consecutive failure trips it
  EXPECT_EQ(breaker.trips(), 1u);

  // Cooldown: two short-circuits, then the third request probes.
  EXPECT_TRUE(breaker.ForceFallback(0));
  EXPECT_TRUE(breaker.ForceFallback(0));
  EXPECT_FALSE(breaker.ForceFallback(0));  // half-open probe
  breaker.OnLocalResult(0, true);          // probe succeeds
  EXPECT_FALSE(breaker.IsOpen(0));

  // A failed probe reopens for another full cooldown.
  breaker.OnLocalResult(0, false);
  breaker.OnLocalResult(0, false);
  ASSERT_TRUE(breaker.IsOpen(0));
  breaker.ForceFallback(0);
  breaker.ForceFallback(0);
  EXPECT_FALSE(breaker.ForceFallback(0));  // probe
  breaker.OnLocalResult(0, false);         // probe fails
  EXPECT_TRUE(breaker.IsOpen(0));
  EXPECT_EQ(breaker.trips(), 3u);

  // Other segments are independent; out-of-range segments are never open.
  EXPECT_FALSE(breaker.IsOpen(1));
  EXPECT_FALSE(breaker.ForceFallback(99));
  EXPECT_FALSE(breaker.IsOpen(99));

  breaker.Reset();
  EXPECT_FALSE(breaker.IsOpen(0));
}

TEST_F(ServeTest, SingleFailureDoesNotTrip) {
  SegmentCircuitBreaker breaker(/*failure_threshold=*/3,
                                /*cooldown_requests=*/2, /*max_segments=*/2);
  breaker.OnLocalResult(0, false);
  breaker.OnLocalResult(0, false);
  breaker.OnLocalResult(0, true);  // success resets the streak
  breaker.OnLocalResult(0, false);
  breaker.OnLocalResult(0, false);
  EXPECT_FALSE(breaker.IsOpen(0));
  EXPECT_EQ(breaker.trips(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace simcard
