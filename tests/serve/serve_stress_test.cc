// Concurrency stress test: reader threads hammer the serving layer while a
// writer thread keeps cloning and hot-swapping the model. Run under TSan
// (scripts/check_sanitize.sh tsan) to prove the snapshot/Apply path is
// data-race free; under plain builds it still checks functional invariants
// (every request answered, estimates finite, epochs monotone per reader).
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/harness.h"
#include "serve/estimation_service.h"
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

// Shared body for the hot-swap races below: readers hammer the service
// (single-request or micro-batched, per `options`) while a writer keeps
// publishing freshly loaded clones.
void RunReadersRaceModelSwaps(ServeOptions options) {
  const ExperimentEnv& env = SharedEnv();
  const GlEstimatorConfig config = FastConfig(GlEstimatorConfig::GlCnn());

  auto initial = std::make_shared<GlEstimator>(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(initial->Train(ctx).ok());
  const std::vector<uint8_t> bytes = initial->SaveToBytes();
  ASSERT_FALSE(bytes.empty());

  ModelRegistry registry;
  registry.Publish(std::shared_ptr<const GlEstimator>(initial));

  EstimationService service(&registry, options);

  constexpr int kReaders = 4;
  constexpr int kRequestsPerReader = 60;
  constexpr int kSwaps = 8;

  const Matrix& queries = env.workload.test_queries;
  std::atomic<int> answered{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      for (int i = 0; i < kRequestsPerReader; ++i) {
        const size_t row = static_cast<size_t>(r + i) % queries.rows();
        const float* q = queries.Row(row);
        std::vector<float> query(q, q + queries.cols());
        const float tau = 0.3f + 0.05f * static_cast<float>(i % 5);
        EstimateRequest request;
        request.query = std::span<const float>(query);
        request.tau = tau;
        request.options.deadline_ms = 10000.0;
        EstimateResponse response = service.Submit(request).get();
        if (response.status.code() == StatusCode::kUnavailable) {
          continue;  // shed under burst load: acceptable, just not counted
        }
        if (!response.status.ok() || !std::isfinite(response.estimate) ||
            response.estimate < 0.0) {
          failures.fetch_add(1);
          continue;
        }
        // Epochs may only move forward from any single reader's view.
        if (response.model_epoch < last_epoch) failures.fetch_add(1);
        last_epoch = response.model_epoch;
        answered.fetch_add(1);
      }
    });
  }

  // Writer: clone from the serialized image and hot-swap while reads fly.
  std::thread writer([&] {
    for (int i = 0; i < kSwaps; ++i) {
      auto clone = std::make_shared<GlEstimator>(config);
      Status status =
          clone->LoadFromBytes(bytes, GlEstimator::LoadMode::kStrict);
      if (!status.ok()) {
        failures.fetch_add(1);
        return;
      }
      registry.Publish(std::shared_ptr<const GlEstimator>(std::move(clone)));
      std::this_thread::yield();
    }
  });

  for (auto& t : readers) t.join();
  writer.join();
  service.Drain();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(registry.epoch(), static_cast<uint64_t>(kSwaps) + 1);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(ServeStressTest, ReadersRaceModelSwaps) {
  ServeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 256;
  options.default_deadline_ms = 10000.0;
  RunReadersRaceModelSwaps(options);
}

// Same race with micro-batching on: workers coalesce concurrent readers'
// requests into shared EstimateSearchBatch calls while models hot-swap.
// This is the TSan target for the batched worker loop (linger wait, batch
// drain, per-request promise fulfillment).
TEST(ServeStressTest, ReadersRaceModelSwapsMicroBatched) {
  ServeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 256;
  options.default_deadline_ms = 10000.0;
  options.max_batch = 8;
  options.batch_linger_us = 200.0;
  RunReadersRaceModelSwaps(options);
}

TEST(ServeStressTest, ConcurrentEstimatesMatchSerialOnSharedModel) {
  const ExperimentEnv& env = SharedEnv();
  auto est = std::make_shared<GlEstimator>(FastConfig(
      GlEstimatorConfig::GlCnn()));
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est->Train(ctx).ok());
  const std::shared_ptr<const GlEstimator> model = est;

  const Matrix& queries = env.workload.test_queries;
  const size_t n = std::min<size_t>(queries.rows(), 32);
  std::vector<double> serial(n);
  for (size_t i = 0; i < n; ++i) {
    serial[i] = testsupport::EstimateCard(
        *model, {queries.Row(i), queries.cols()}, 0.5f);
  }

  // The same estimates computed by many threads through the const Apply
  // path must match the serial answers exactly: shared state would show up
  // here (and as a race under TSan).
  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < n; ++i) {
        const double got = testsupport::EstimateCard(
            *model, {queries.Row(i), queries.cols()}, 0.5f);
        if (got != serial[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace simcard
