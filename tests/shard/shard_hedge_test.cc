// Hedging determinism: a seeded stall schedule produces a reproducible
// hedge count; a hedge that loses the race to its primary is counted
// wasted but never double-summed; hedge delays respect the budget clamp.
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/segment_health.h"
#include "serve/model_registry.h"
#include "shard/sharded_service.h"
#include "shard_test_env.h"

namespace simcard {
namespace shard {
namespace {

using shardtest::SharedBuild;
using shardtest::SharedEnv;

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

EstimateRequest MakeRequest(const float* query, size_t dim, float tau) {
  EstimateRequest request;
  request.query = std::span<const float>(query, dim);
  request.tau = tau;
  request.options.deadline_ms = 5000.0;
  return request;
}

class ShardHedgeTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override {
    fault::Disable();
    obs::SetMetricsEnabled(false);
    obs::ShardHealthRegistry::Default().ResetForTesting();
  }
};

// One seeded run of R requests against a fresh tier under a shard.stall
// schedule; returns {fired, won, wasted, sum of fallback_mask popcounts}.
struct HedgeTally {
  uint64_t fired = 0;
  uint64_t won = 0;
  uint64_t wasted = 0;
  uint64_t fallback_bits = 0;
  uint64_t schedule = 0;  // order-sensitive hash of per-request masks
  double estimate_sum = 0.0;
};

HedgeTally RunSeededStallSchedule(uint64_t seed) {
  const size_t n = 3;
  Tier tier = MakeTier(n);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();

  fault::FaultConfig config;
  config.sites = "shard.stall";
  config.probability = 0.25;  // seeded per-(request, shard) coin flips
  config.seed = seed;
  fault::Configure(config);

  HedgeTally tally;
  for (size_t q = 0; q < 8; ++q) {
    EstimateRequest request = MakeRequest(queries.Row(q % queries.rows()),
                                          dim, 0.1f);
    ShardedEstimateResponse response = tier.service->Estimate(request);
    EXPECT_TRUE(response.status.ok());
    tally.fallback_bits +=
        static_cast<uint64_t>(__builtin_popcountll(response.fallback_mask));
    tally.schedule =
        tally.schedule * 1099511628211ULL + response.fallback_mask + 1;
    tally.estimate_sum += response.estimate;
  }
  tally.fired = tier.service->hedges_fired();
  tally.won = tier.service->hedges_won();
  tally.wasted = tier.service->hedges_wasted();
  fault::Disable();
  return tally;
}

TEST_F(ShardHedgeTest, SeededStallScheduleReproducesHedgeCounts) {
  const HedgeTally first = RunSeededStallSchedule(42);
  const HedgeTally second = RunSeededStallSchedule(42);
  // The schedule actually stalled something (24 coin flips at p=0.25).
  EXPECT_GT(first.fired, 0u);
  // Stalled primaries never answer, so every fired hedge wins.
  EXPECT_EQ(first.won, first.fired);
  EXPECT_EQ(first.wasted, 0u);
  // Every hedge win is a fallback-sourced shard, bit for bit.
  EXPECT_EQ(first.fallback_bits, first.fired);
  // Bitwise-reproducible across runs with the same seed...
  EXPECT_EQ(second.fired, first.fired);
  EXPECT_EQ(second.won, first.won);
  EXPECT_EQ(second.fallback_bits, first.fallback_bits);
  EXPECT_EQ(second.schedule, first.schedule);
  EXPECT_EQ(second.estimate_sum, first.estimate_sum);
  // ...and a different seed picks a different schedule. Counts can collide
  // (both seeds may stall ~p*flips cells), so compare the order-sensitive
  // schedule hash: identical masks across 24 flips is (approx) 2^-24.
  const HedgeTally other = RunSeededStallSchedule(43);
  EXPECT_NE(other.schedule, first.schedule);
}

// A hedge that loses the race is counted wasted and never double-summed:
// with a near-zero pinned hedge delay and a generous grace window, every
// shard's hedge fires but every primary lands inside the grace window and
// wins. The estimate must equal the unhedged estimate exactly.
TEST_F(ShardHedgeTest, LosingHedgeIsWastedAndNeverDoubleSummed) {
  // One shard whose serve worker lingers 30ms for a batch that never
  // fills: the primary cannot be ready before the (near-zero) hedge delay
  // expires, so the hedge always fires; the generous grace window then
  // always lets the primary land and win. Deterministic on any machine.
  const size_t n = 1;
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();

  ShardedServeOptions hedged;
  hedged.serve.max_batch = 8;            // linger waits for stragglers...
  hedged.serve.batch_linger_us = 30000;  // ...pinning primary >= 30ms out
  hedged.hedge.fixed_delay_ms = 0.001;   // fire (almost) immediately
  hedged.hedge.grace_ms = 4000.0;        // primary always lands in grace
  Tier hedged_tier = MakeTier(n, hedged);

  ShardedServeOptions unhedged;
  unhedged.hedge.enabled = false;
  Tier plain_tier = MakeTier(n, unhedged);

  const size_t requests = 6;
  for (size_t q = 0; q < requests; ++q) {
    EstimateRequest request = MakeRequest(queries.Row(q), dim, 0.1f);
    ShardedEstimateResponse h = hedged_tier.service->Estimate(request);
    ShardedEstimateResponse p = plain_tier.service->Estimate(request);
    ASSERT_TRUE(h.status.ok());
    ASSERT_TRUE(p.status.ok());
    // The primary won: response is whole, sourced from the model, and the
    // hedge never leaked into the sum.
    EXPECT_FALSE(h.partial);
    EXPECT_EQ(h.fallback_mask, 0u);
    EXPECT_EQ(h.hedged_mask, (uint64_t{1} << n) - 1);
    EXPECT_EQ(h.estimate, p.estimate);  // bitwise: no double-summing
  }
  EXPECT_EQ(hedged_tier.service->hedges_fired(), requests * n);
  EXPECT_EQ(hedged_tier.service->hedges_wasted(), requests * n);
  EXPECT_EQ(hedged_tier.service->hedges_won(), 0u);
  EXPECT_EQ(plain_tier.service->hedges_fired(), 0u);
}

// The hedge delay honors the clamp: pinned delays cannot exceed the
// max_delay_fraction share of the shard budget, and a stalled shard still
// answers within the request deadline through the hedge.
TEST_F(ShardHedgeTest, StalledShardAnswersWithinDeadline) {
  Tier tier = MakeTier(2);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();

  fault::FaultConfig config;
  config.sites = "shard.stall";
  config.probability = 1.0;
  config.seed = 9;
  config.max_injections = 1;  // stall (request 0, shard 0)
  fault::Configure(config);

  const double deadline_ms = 300.0;
  EstimateRequest request = MakeRequest(queries.Row(0), dim, 0.1f);
  request.options.deadline_ms = deadline_ms;
  ShardedEstimateResponse response = tier.service->Estimate(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.partial);
  EXPECT_EQ(response.fallback_mask, uint64_t{1} << 0);
  // Answered within the deadline: the hedge fired at most at the
  // max_delay_fraction point of the shard budget.
  EXPECT_LE(response.total_us, deadline_ms * 1000.0);
}

// Shard k's hedge is armed from the request's start, so its latency
// samples must run from there too. Each shard's service gets one worker,
// and a request sent straight to a shard's service while serve.slow_eval is
// armed holds that worker for at most hold_ms.
//  * Warm-up: shard 0 is held, so the gather waits on shard 0 until the
//    hold ends. Shard 1's primary answered at once, but its samples must
//    cover that wait.
//  * Probe: shard 1 is held. Its hedge now waits four times its p99, well
//    past the hold, so the primary answers and no hedge fires. Samples
//    taken from when the gather reached shard 1 would be near zero, and the
//    hedge would fire long before the hold ends.
TEST_F(ShardHedgeTest, LatencySamplesCoverTheGatherWaitOnEarlierShards) {
  ShardedServeOptions options;
  options.serve.num_threads = 1;
  options.hedge.warmup = 4;
  options.hedge.p99_multiplier = 4.0;
  Tier tier = MakeTier(2, options);
  const Matrix& queries = SharedEnv().workload.test_queries;
  const size_t dim = queries.cols();
  const double deadline_ms = 1000.0;  // hedge ceiling 1000 * 0.85 * 0.6 = 510
  const double hold_ms = 100.0;

  const auto hold = [&](size_t k) {
    fault::FaultConfig slow;
    slow.sites = "serve.slow_eval";
    slow.max_injections = 1;
    fault::Configure(slow);
    EstimateRequest blocker = MakeRequest(queries.Row(0), dim, 0.1f);
    blocker.options.deadline_ms = hold_ms;
    auto held = tier.service->shard_service(k)->Submit(blocker);
    // Only the blocker may take the injection: wait until it has.
    while (fault::InjectionCount() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return held;
  };
  const auto estimate = [&](size_t q) {
    EstimateRequest request = MakeRequest(queries.Row(q), dim, 0.1f);
    request.options.deadline_ms = deadline_ms;
    return tier.service->Estimate(request);
  };

  for (size_t r = 0; r < options.hedge.warmup; ++r) {
    auto held = hold(0);
    const ShardedEstimateResponse response = estimate(r);
    held.wait();
    ASSERT_TRUE(response.status.ok());
    // Both primaries answered, so both shards recorded a sample.
    ASSERT_EQ(response.hedged_mask, 0u);
    ASSERT_EQ(response.fallback_mask, 0u);
  }

  auto held = hold(1);
  const ShardedEstimateResponse response = estimate(0);
  held.wait();
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.hedged_mask, 0u);
  EXPECT_EQ(response.fallback_mask, 0u);
  EXPECT_EQ(tier.service->hedges_fired(), 0u);
}

}  // namespace
}  // namespace shard
}  // namespace simcard
