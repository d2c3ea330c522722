// Sharded scatter-gather tier: partition determinism, sharded==unsharded
// parity (N=1 bitwise, N>1 sum decomposition), and the fault matrix —
// stall/fail/fallback_fail provenance bitmaps, the shard breaker, the
// degraded circuit, and the [0, |D|] clamp under degradation.
#include "shard/sharded_service.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/segment_health.h"
#include "serve/estimation_service.h"
#include "serve/model_registry.h"
#include "shard/shard_partition.h"
#include "shard_test_env.h"

namespace simcard {
namespace shard {
namespace {

using shardtest::SharedBuild;
using shardtest::SharedEnv;

EstimateRequest MakeRequest(const float* query, size_t dim, float tau,
                            double deadline_ms = 5000.0) {
  EstimateRequest request;
  request.query = std::span<const float>(query, dim);
  request.tau = tau;
  request.options.deadline_ms = deadline_ms;
  return request;
}

// Registries stay alive across the service's lifetime (the service borrows
// them), so tests hold them in this bundle.
struct Tier {
  std::vector<std::unique_ptr<serve::ModelRegistry>> registries;
  std::unique_ptr<ShardedEstimationService> service;
};

Tier MakeTier(size_t n, ShardedServeOptions options = {}) {
  const shardtest::CachedBuild& build = SharedBuild(n);
  Tier tier;
  std::vector<serve::ModelRegistry*> raw;
  for (size_t k = 0; k < n; ++k) {
    tier.registries.push_back(std::make_unique<serve::ModelRegistry>());
    tier.registries.back()->Publish(build.models[k]);
    raw.push_back(tier.registries.back().get());
  }
  tier.service =
      std::make_unique<ShardedEstimationService>(std::move(raw), options);
  return tier;
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override {
    fault::Disable();
    obs::SetMetricsEnabled(false);
    obs::ShardHealthRegistry::Default().ResetForTesting();
  }
};

TEST_F(ShardedServiceTest, PlanPartitionIsDeterministicAndBalanced) {
  const ShardPlan plan = PlanPartition(10, 3).value();
  EXPECT_EQ(plan.num_shards, 3u);
  EXPECT_EQ(plan.rows[0].size(), 4u);
  EXPECT_EQ(plan.rows[1].size(), 3u);
  EXPECT_EQ(plan.rows[2].size(), 3u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(plan.shard_of_row[i], i % 3);
  }
  // Every row lands in exactly one shard.
  size_t total = 0;
  for (const auto& rows : plan.rows) total += rows.size();
  EXPECT_EQ(total, 10u);

  EXPECT_FALSE(PlanPartition(10, 0).ok());
  EXPECT_FALSE(PlanPartition(10, 11).ok());
  EXPECT_FALSE(PlanPartition(100, kMaxShards + 1).ok());
}

TEST_F(ShardedServiceTest, PartitionDatasetCopiesPlannedRows) {
  const Dataset& data = SharedEnv().dataset;
  const ShardPlan plan = PlanPartition(data.size(), 4).value();
  const std::vector<Dataset> shards = PartitionDataset(data, plan).value();
  ASSERT_EQ(shards.size(), 4u);
  size_t total = 0;
  for (size_t k = 0; k < shards.size(); ++k) {
    total += shards[k].size();
    EXPECT_EQ(shards[k].dim(), data.dim());
    for (size_t r = 0; r < shards[k].size(); ++r) {
      const float* expect = data.Point(plan.rows[k][r]);
      const float* got = shards[k].Point(r);
      for (size_t d = 0; d < data.dim(); ++d) EXPECT_EQ(got[d], expect[d]);
    }
  }
  EXPECT_EQ(total, data.size());
}

// N=1: one shard owns the whole dataset, so the sharded response must be
// bitwise-identical to the plain EstimationService over the same model.
TEST_F(ShardedServiceTest, SingleShardMatchesPlainServiceBitwise) {
  const shardtest::CachedBuild& build = SharedBuild(1);
  serve::ModelRegistry plain_registry;
  plain_registry.Publish(build.models[0]);
  serve::EstimationService plain(&plain_registry, serve::ServeOptions{});

  // After warmup the hedge fires at 2 x p99 (at least 0.2 ms), so a primary
  // that CPU contention holds up loses to the fallback at the default
  // strict first-answer-wins. A full grace window, as the CLI drills use,
  // lets a merely slow primary land and win; a fired hedge is then wasted
  // and must leave the sum untouched.
  ShardedServeOptions options;
  options.hedge.grace_ms = 5000.0;
  Tier tier = MakeTier(1, options);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  for (size_t q = 0; q < std::min<size_t>(queries.rows(), 12); ++q) {
    for (float tau : {0.05f, 0.1f, 0.2f}) {
      EstimateRequest request = MakeRequest(queries.Row(q), dim, tau);
      serve::EstimateResponse direct = plain.Submit(request).get();
      ShardedEstimateResponse sharded = tier.service->Estimate(request);
      ASSERT_TRUE(direct.status.ok());
      ASSERT_TRUE(sharded.status.ok());
      EXPECT_FALSE(sharded.partial);
      EXPECT_EQ(sharded.fallback_mask, 0u);
      EXPECT_EQ(sharded.estimate, direct.estimate);  // bitwise
    }
  }
}

// N>1: the sharded total equals the sum of per-shard estimates computed
// independently on the split dataset (the GL sum decomposition).
TEST_F(ShardedServiceTest, MultiShardTotalIsSumOfPerShardEstimates) {
  const size_t n = 3;
  const shardtest::CachedBuild& build = SharedBuild(n);
  Tier tier = MakeTier(n);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  for (size_t q = 0; q < std::min<size_t>(queries.rows(), 12); ++q) {
    EstimateRequest request = MakeRequest(queries.Row(q), dim, 0.1f);
    double expected = 0.0;
    for (size_t k = 0; k < n; ++k) {
      expected += build.models[k]->Estimate(request);
    }
    ShardedEstimateResponse sharded = tier.service->Estimate(request);
    ASSERT_TRUE(sharded.status.ok());
    EXPECT_FALSE(sharded.partial);
    EXPECT_EQ(sharded.num_shards, n);
    EXPECT_EQ(sharded.estimate, expected);  // exact sum, no re-clamping
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(sharded.shard_epochs[k], 1u);
      EXPECT_EQ(sharded.source(k), ShardSource::kModel);
    }
  }
}

// Acceptance drill: a single stalled shard (fault site shard.stall) must
// never break the request path — every request answered within deadline,
// exactly the faulted shard marked fallback-sourced, total within
// [0, |D|].
TEST_F(ShardedServiceTest, SingleShardStallDegradesExactlyThatShard) {
  const size_t n = 3;
  Tier tier = MakeTier(n);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  const double population = tier.service->total_population();
  EXPECT_EQ(population, static_cast<double>(SharedEnv().dataset.size()));

  // Consults go (request, shard) in shard order; skip_first=1 + max=1
  // stalls exactly (request 0, shard 1).
  fault::FaultConfig config;
  config.sites = "shard.stall";
  config.probability = 1.0;
  config.seed = 7;
  config.skip_first = 1;
  config.max_injections = 1;
  fault::Configure(config);

  const double deadline_ms = 2000.0;
  for (size_t q = 0; q < 6; ++q) {
    EstimateRequest request = MakeRequest(queries.Row(q), dim, 0.1f,
                                          deadline_ms);
    ShardedEstimateResponse response = tier.service->Estimate(request);
    ASSERT_TRUE(response.status.ok()) << "request " << q << " unanswered";
    EXPECT_LE(response.total_us, deadline_ms * 1000.0);
    EXPECT_GE(response.estimate, 0.0);
    EXPECT_LE(response.estimate, population);
    if (q == 0) {
      EXPECT_TRUE(response.partial);
      EXPECT_EQ(response.fallback_mask, uint64_t{1} << 1);
      EXPECT_EQ(response.failed_mask, 0u);
      EXPECT_EQ(response.hedged_mask, uint64_t{1} << 1);
      EXPECT_EQ(response.source(0), ShardSource::kModel);
      EXPECT_EQ(response.source(1), ShardSource::kFallback);
      EXPECT_EQ(response.source(2), ShardSource::kModel);
    } else {
      EXPECT_FALSE(response.partial) << "request " << q;
    }
  }
  EXPECT_EQ(tier.service->hedges_fired(), 1u);
  EXPECT_EQ(tier.service->hedges_won(), 1u);
  EXPECT_EQ(tier.service->hedges_wasted(), 0u);
}

// A shard whose primary is down (killed registry) AND whose fallback tier
// fails (fault site shard.fallback_fail) contributes nothing and is marked
// failed — but the response still answers from the others.
TEST_F(ShardedServiceTest, FallbackFailureMarksShardFailed) {
  const size_t n = 2;
  const shardtest::CachedBuild& build = SharedBuild(n);
  Tier tier = MakeTier(n);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();

  tier.registries[0]->Publish(nullptr);  // shard 0 primary is down
  fault::FaultConfig config;
  config.sites = "shard.fallback_fail";
  config.probability = 1.0;
  config.seed = 3;
  config.max_injections = 1;  // only shard 0's fallback is consulted
  fault::Configure(config);

  EstimateRequest request = MakeRequest(queries.Row(0), dim, 0.1f);
  ShardedEstimateResponse response = tier.service->Estimate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.partial);
  EXPECT_EQ(response.failed_mask, uint64_t{1} << 0);
  EXPECT_EQ(response.fallback_mask, 0u);
  EXPECT_EQ(response.source(0), ShardSource::kFailed);
  EXPECT_EQ(response.source(1), ShardSource::kModel);
  EXPECT_GE(response.estimate, 0.0);

  // Fault budget exhausted: the fallback tier answers again (still
  // partial while the primary stays down), and a republish heals fully.
  response = tier.service->Estimate(request);
  EXPECT_TRUE(response.partial);
  EXPECT_EQ(response.fallback_mask, uint64_t{1} << 0);
  tier.registries[0]->Publish(build.models[0]);
  response = tier.service->Estimate(request);
  EXPECT_FALSE(response.partial);
}

// shard.fail without fallback_fail: the fallback tier answers and the
// response is partial with the shard fallback-sourced.
TEST_F(ShardedServiceTest, FailedPrimaryAnswersFromFallbackTier) {
  Tier tier = MakeTier(2);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();

  fault::FaultConfig config;
  config.sites = "shard.fail";
  config.probability = 1.0;
  config.seed = 5;
  config.max_injections = 1;
  fault::Configure(config);

  EstimateRequest request = MakeRequest(queries.Row(1), dim, 0.1f);
  ShardedEstimateResponse response = tier.service->Estimate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.partial);
  EXPECT_EQ(response.fallback_mask, uint64_t{1} << 0);
  EXPECT_EQ(response.hedged_mask, 0u);  // fail-fast skips the hedge race
  // The fallback value is the shard's sampling estimate: finite, bounded
  // by the shard population.
  EXPECT_TRUE(std::isfinite(response.estimate));
  EXPECT_LE(response.estimate, tier.service->total_population());
}

TEST_F(ShardedServiceTest, DegradedShardShortCircuitsToFallback) {
  Tier tier = MakeTier(2);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  EstimateRequest request = MakeRequest(queries.Row(2), dim, 0.1f);

  tier.service->SetShardDegraded(1, true);
  EXPECT_TRUE(tier.service->shard_degraded(1));
  ShardedEstimateResponse response = tier.service->Estimate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.partial);
  EXPECT_EQ(response.fallback_mask, uint64_t{1} << 1);

  tier.service->SetShardDegraded(1, false);
  response = tier.service->Estimate(request);
  EXPECT_FALSE(response.partial);
}

// Consecutive primary failures trip the shard breaker; the cooldown's
// requests short-circuit to the fallback tier, then a half-open probe
// closes it again.
TEST_F(ShardedServiceTest, ShardBreakerOpensAndProbesClosed) {
  ShardedServeOptions options;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown = 3;
  Tier tier = MakeTier(2, options);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  EstimateRequest request = MakeRequest(queries.Row(0), dim, 0.1f);

  // Two fail-fasts at shard 0 trip its breaker. Each single-injection
  // config fires on the first armed consult — (request, shard 0) — and is
  // exhausted before shard 1's consult, so only shard 0 ever fails.
  fault::FaultConfig config;
  config.sites = "shard.fail";
  config.probability = 1.0;
  config.seed = 11;
  config.max_injections = 1;
  for (int i = 0; i < 2; ++i) {
    fault::Configure(config);  // fresh single-shot budget each request
    ShardedEstimateResponse response = tier.service->Estimate(request);
    EXPECT_TRUE(response.partial);
    EXPECT_EQ(response.fallback_mask, uint64_t{1} << 0);
  }
  fault::Disable();  // breaker is now open on shard 0

  // Cooldown: 2 short-circuited requests (cooldown 3 means the third is
  // the probe), still answered from the fallback tier.
  for (int i = 0; i < 2; ++i) {
    ShardedEstimateResponse response = tier.service->Estimate(request);
    EXPECT_TRUE(response.partial) << "cooldown request " << i;
    EXPECT_EQ(response.fallback_mask, uint64_t{1} << 0);
  }
  // Probe request: primary admitted, healthy again -> breaker closes.
  ShardedEstimateResponse probe = tier.service->Estimate(request);
  EXPECT_FALSE(probe.partial);
  // And stays closed.
  ShardedEstimateResponse after = tier.service->Estimate(request);
  EXPECT_FALSE(after.partial);
}

// A query of the wrong length is refused before the scatter, as the
// unsharded service refuses it, so threshold-many of them open no breaker
// and the next valid request is served whole.
TEST_F(ShardedServiceTest, WrongLengthQueryRefusedBeforeScatter) {
  ShardedServeOptions options;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown = 3;
  Tier tier = MakeTier(2, options);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  const std::vector<float> wide(dim + 1, 0.5f);
  auto counter = [](const char* name) {
    return obs::GetCounter(name)->Value();
  };
  const int64_t trips = counter("simcard.shard.breaker_trips");
  const int64_t failures = counter("simcard.shard.shard_failures");
  const int64_t fallbacks = counter("simcard.shard.fallbacks");

  for (uint32_t i = 0; i < options.breaker_failure_threshold; ++i) {
    for (size_t len : {dim - 1, dim + 1}) {
      ShardedEstimateResponse response =
          tier.service->Estimate(MakeRequest(wide.data(), len, 0.1f));
      EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
          << "length " << len;
      EXPECT_EQ(response.failed_mask, 0u);
      EXPECT_EQ(response.fallback_mask, 0u);
    }
  }
  ShardedEstimateResponse valid =
      tier.service->Estimate(MakeRequest(queries.Row(0), dim, 0.1f));
  EXPECT_TRUE(valid.status.ok()) << valid.status.ToString();
  EXPECT_FALSE(valid.partial);
  EXPECT_EQ(valid.fallback_mask, 0u);
  EXPECT_EQ(counter("simcard.shard.breaker_trips"), trips);
  EXPECT_EQ(counter("simcard.shard.shard_failures"), failures);
  EXPECT_EQ(counter("simcard.shard.fallbacks"), fallbacks);
  EXPECT_EQ(tier.service->hedges_fired(), 0u);
}

// No model ever published anywhere: every shard fails, the response is
// kUnavailable with estimate 0 (still clamped, still within deadline).
TEST_F(ShardedServiceTest, AllShardsFailedIsUnavailable) {
  std::vector<std::unique_ptr<serve::ModelRegistry>> registries;
  std::vector<serve::ModelRegistry*> raw;
  for (size_t k = 0; k < 2; ++k) {
    registries.push_back(std::make_unique<serve::ModelRegistry>());
    raw.push_back(registries.back().get());
  }
  ShardedEstimationService service(std::move(raw), ShardedServeOptions{});
  const Matrix& queries = SharedEnv().workload.test_queries;
  EstimateRequest request =
      MakeRequest(queries.Row(0), queries.cols(), 0.1f, 200.0);
  ShardedEstimateResponse response = service.Estimate(request);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(response.estimate, 0.0);
  EXPECT_EQ(response.failed_mask, 0b11u);
  EXPECT_TRUE(response.partial);
}

// A kill (unpublish) leaves the fallback tier on the last good snapshot;
// a later publish (recovery) restores whole answers at a higher epoch.
TEST_F(ShardedServiceTest, KilledShardAnswersFromLastSnapshotUntilRecovered) {
  const size_t n = 2;
  const shardtest::CachedBuild& build = SharedBuild(n);
  Tier tier = MakeTier(n);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  EstimateRequest request = MakeRequest(queries.Row(3), dim, 0.1f);

  tier.registries[0]->Publish(nullptr);  // simulated crash of shard 0
  ShardedEstimateResponse during = tier.service->Estimate(request);
  ASSERT_TRUE(during.status.ok());
  EXPECT_TRUE(during.partial);
  EXPECT_EQ(during.fallback_mask, uint64_t{1} << 0);
  EXPECT_EQ(during.source(1), ShardSource::kModel);

  const uint64_t recovered_epoch =
      tier.registries[0]->Publish(build.models[0]);
  ShardedEstimateResponse after = tier.service->Estimate(request);
  EXPECT_FALSE(after.partial);
  EXPECT_EQ(after.shard_epochs[0], recovered_epoch);
  // Shard 1 never saw a new epoch: per-shard epochs are independent.
  EXPECT_EQ(after.shard_epochs[1], 1u);
}

TEST_F(ShardedServiceTest, ShardHealthRegistryTracksProvenance) {
  Tier tier = MakeTier(2);
  const Matrix& queries = SharedEnv().workload.test_queries;
  EstimateRequest request = MakeRequest(queries.Row(0), queries.cols(), 0.1f);

  tier.service->SetShardDegraded(1, true);
  (void)tier.service->Estimate(request);
  (void)tier.service->Estimate(request);
  const auto snapshot = obs::ShardHealthRegistry::Default().Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].requests, 2u);
  EXPECT_EQ(snapshot[0].model_answers, 2u);
  EXPECT_EQ(snapshot[0].epoch, 1u);
  EXPECT_EQ(snapshot[1].fallbacks, 2u);
  EXPECT_TRUE(snapshot[1].degraded);
}

}  // namespace
}  // namespace shard
}  // namespace simcard
