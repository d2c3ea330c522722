// Micro-batching in the serving layer: request coalescing under a linger
// window, batch-vs-single answer parity through the service, per-request
// error isolation inside a batch (serve.batch_eval), and deadline checks
// applied per batch member.
#include "serve/estimation_service.h"

#include <cmath>
#include <future>
#include <memory>
#include <span>
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

EstimateRequest RequestFor(size_t row, float tau, double deadline_ms) {
  const Matrix& queries = SharedEnv().workload.test_queries;
  EstimateRequest request;
  request.query = std::span<const float>(queries.Row(row), queries.cols());
  request.tau = tau;
  request.options.deadline_ms = deadline_ms;
  return request;
}

class ServeBatchTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override {
    fault::Disable();
    obs::SetMetricsEnabled(false);
  }
};

// One worker with a generous linger: a burst submitted together must be
// drained as one batch, every response carrying the coalesced batch size and
// the exact answer the single-query path would give.
TEST_F(ServeBatchTest, BurstCoalescesAndMatchesSinglePath) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 8;
  options.batch_linger_us = 200000.0;  // 200ms: the burst always coalesces
  EstimationService service(&registry, options);

  constexpr size_t kBurst = 8;
  std::vector<std::future<EstimateResponse>> inflight;
  for (size_t i = 0; i < kBurst; ++i) {
    inflight.push_back(
        service.Submit(RequestFor(i, 0.4f, /*deadline_ms=*/20000.0)));
  }
  const Matrix& queries = SharedEnv().workload.test_queries;
  for (size_t i = 0; i < kBurst; ++i) {
    EstimateResponse response = inflight[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // All 8 landed before the worker's linger expired, so at least the tail
    // of the burst shares one evaluation.
    if (i == kBurst - 1) {
      EXPECT_GE(response.batch_size, 2u);
    }
    EXPECT_DOUBLE_EQ(
        response.estimate,
        testsupport::EstimateCard(*SharedModel(),
                                  {queries.Row(i), queries.cols()}, 0.4f));
  }
  service.Drain();
}

// serve.batch_eval poisons exactly one member (max_injections=1); its batch
// mates must still evaluate and succeed.
TEST_F(ServeBatchTest, PoisonedMemberIsolatedFromBatchMates) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 8;
  options.batch_linger_us = 200000.0;
  EstimationService service(&registry, options);

  fault::FaultConfig config;
  config.sites = "serve.batch_eval";
  config.probability = 1.0;
  config.max_injections = 1;
  fault::Configure(config);
  const int64_t isolated_before =
      obs::GetCounter("simcard.batch.isolated_errors")->Value();

  constexpr size_t kBurst = 6;
  std::vector<std::future<EstimateResponse>> inflight;
  for (size_t i = 0; i < kBurst; ++i) {
    inflight.push_back(
        service.Submit(RequestFor(i, 0.3f, /*deadline_ms=*/20000.0)));
  }
  size_t failed = 0;
  size_t succeeded = 0;
  for (auto& f : inflight) {
    EstimateResponse response = f.get();
    if (response.status.ok()) {
      ++succeeded;
      EXPECT_TRUE(std::isfinite(response.estimate));
    } else {
      ++failed;
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(succeeded, kBurst - 1);
  EXPECT_EQ(obs::GetCounter("simcard.batch.isolated_errors")->Value(),
            isolated_before + 1);
  service.Drain();
}

// A query whose length does not match the model's dim gets a typed
// kInvalidArgument instead of undefined behavior, without sinking the batch.
TEST_F(ServeBatchTest, DimMismatchRejectedPerRequest) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 4;
  options.batch_linger_us = 100000.0;
  EstimationService service(&registry, options);

  std::vector<float> short_query(3, 0.1f);
  EstimateRequest bad;
  bad.query = std::span<const float>(short_query.data(), short_query.size());
  bad.tau = 0.2f;
  bad.options.deadline_ms = 20000.0;

  std::future<EstimateResponse> bad_future = service.Submit(bad);
  std::future<EstimateResponse> good_future =
      service.Submit(RequestFor(0, 0.2f, /*deadline_ms=*/20000.0));

  EstimateResponse bad_response = bad_future.get();
  EstimateResponse good_response = good_future.get();
  EXPECT_EQ(bad_response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(good_response.status.ok()) << good_response.status.ToString();
  service.Drain();
}

// max_batch=1 (the default) never reports coalesced batches: the PR3
// single-request semantics are the degenerate case of the batched worker.
TEST_F(ServeBatchTest, MaxBatchOneKeepsSingleSemantics) {
  ModelRegistry registry;
  registry.Publish(SharedModel());
  EstimationService service(&registry, ServeOptions{});

  EstimateResponse response =
      service.Submit(RequestFor(1, 0.5f, /*deadline_ms=*/20000.0)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.batch_size, 1u);
  const Matrix& queries = SharedEnv().workload.test_queries;
  EXPECT_DOUBLE_EQ(
      response.estimate,
      testsupport::EstimateCard(*SharedModel(),
                                {queries.Row(1), queries.cols()}, 0.5f));
}

}  // namespace
}  // namespace serve
}  // namespace simcard
