// Fault-tolerant sharded scatter-gather estimation tier.
//
// The GL total estimate is an exact sum over segments, so it decomposes
// losslessly across a row partition of D (shard_partition.h): a
// ShardedEstimationService fans each EstimateRequest out to N per-shard
// EstimationServices and sums the per-shard answers. The fault path is the
// point of the tier — one slow, degraded, or crashed shard must never take
// down the request path:
//
//   * Deadline budget: each shard gets `deadline_ms * shard_deadline_
//     fraction` of the request deadline; the remainder is the gather
//     margin, so the caller's deadline holds even when every shard runs to
//     its own limit.
//   * Hedged re-dispatch: per-shard p99 latency is tracked from completed
//     primaries; when a primary has not answered after the hedge delay
//     (p99 * multiplier, clamped into the budget), the request is
//     re-dispatched to the shard's sampling-fallback tier — the retained
//     SegmentFallback samples of the shard's last published model — and
//     the first answer wins. A primary that lands while the hedge is being
//     computed (within `grace_ms`) still wins; the hedge is then counted
//     wasted, never double-summed.
//   * Degradation: a shard that sheds, times out, errors, has no model,
//     is breaker-open, or sits in the update subsystem's degraded circuit
//     answers from the fallback tier; the response is marked `partial`
//     with per-shard provenance bitmaps (fallback/hedged/failed). Only
//     when the fallback tier itself fails (fault site shard.fallback_fail)
//     does the shard contribute nothing; the total stays clamped to
//     [0, sum of shard populations].
//   * Per-shard epochs: each shard has its own ModelRegistry (and,
//     typically, UpdateManager + journal directory), so one shard's
//     refresh or crash-recovery never blocks the others. A registry
//     listener retains the last non-null snapshot as the fallback tier,
//     so a shard mid-recovery (unpublished model) still answers.
//
// Deterministic fault sites: `shard.stall` (a primary never answers; the
// hedge path must carry the request), `shard.fail` (a primary fails
// instantly), `shard.fallback_fail` (the fallback tier fails). Sites are
// consulted once per (request, shard) in shard order, so seeded schedules
// pick exact (request, shard) cells.
#ifndef SIMCARD_SHARD_SHARDED_SERVICE_H_
#define SIMCARD_SHARD_SHARDED_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/estimator.h"
#include "obs/request_trace.h"
#include "serve/estimation_service.h"
#include "serve/model_registry.h"
#include "shard/shard_partition.h"

namespace simcard {
namespace shard {

/// \brief Hedge policy knobs.
struct HedgeOptions {
  bool enabled = true;
  /// Hedge delay = clamp(p99 * p99_multiplier, min_delay_ms,
  /// max_delay_fraction * shard budget). Before `warmup` tracked
  /// primaries, the upper clamp is used outright.
  double p99_multiplier = 2.0;
  double min_delay_ms = 0.2;
  double max_delay_fraction = 0.6;
  size_t warmup = 16;
  /// >0 pins the hedge delay (tests/benches); tracking is bypassed.
  double fixed_delay_ms = 0.0;
  /// After the hedge answer is computed, how long the primary may still
  /// land and win the race (counted hedge.wasted). 0 = one non-blocking
  /// poll: strict first-answer-wins.
  double grace_ms = 0.0;
};

/// \brief Options for ShardedEstimationService.
struct ShardedServeOptions {
  /// Per-shard EstimationService options (worker pool, queue, batching).
  serve::ServeOptions serve;
  /// Applied when EstimateRequest.options.deadline_ms == 0.
  double default_deadline_ms = 50.0;
  /// Fraction of the request deadline granted to each shard; the rest is
  /// the gather margin.
  double shard_deadline_fraction = 0.85;
  HedgeOptions hedge;
  /// Shard breaker: this many consecutive primary failures open the shard
  /// (requests go straight to the fallback tier) for `breaker_cooldown`
  /// requests, after which one probe request tries the primary again.
  uint32_t breaker_failure_threshold = 8;
  uint32_t breaker_cooldown = 32;
  /// Threads running gathers for Submit(); Estimate() runs on the caller.
  size_t gather_threads = 2;
};

/// Per-shard answer provenance.
enum class ShardSource : uint8_t {
  kModel = 0,     ///< primary (served model) answered in time
  kFallback = 1,  ///< sampling-fallback tier answered
  kFailed = 2,    ///< no answer; shard contributed 0
};

/// \brief The gathered answer.
struct ShardedEstimateResponse {
  /// kOk whenever at least one shard contributed (even if partial);
  /// kUnavailable when every shard failed outright.
  Status status = Status::OK();
  double estimate = 0.0;
  /// True when any shard's contribution is not a fresh primary answer.
  bool partial = false;
  uint32_t num_shards = 0;
  /// Bit k set: shard k's contribution came from its fallback tier.
  uint64_t fallback_mask = 0;
  /// Bit k set: a hedge fired for shard k (won or wasted).
  uint64_t hedged_mask = 0;
  /// Bit k set: shard k contributed nothing.
  uint64_t failed_mask = 0;
  /// Bit k set: shard k's primary answer was feedback-corrected (see
  /// src/feedback/; per-shard stores ride inside the per-shard services).
  uint64_t corrected_mask = 0;
  ShardSource source(size_t k) const {
    const uint64_t bit = uint64_t{1} << k;
    if (failed_mask & bit) return ShardSource::kFailed;
    if (fallback_mask & bit) return ShardSource::kFallback;
    return ShardSource::kModel;
  }
  uint64_t request_id = 0;
  double total_us = 0.0;
  /// Served model epoch per shard at answer time (0 = none published).
  std::vector<uint64_t> shard_epochs;
};

/// \brief Scatter-gather front-end over N per-shard EstimationServices.
///
/// Thread-safe: any number of concurrent Estimate()/Submit() callers.
/// `registries[k]` must outlive the service; each shard's publishes
/// (refresh, recovery) flow through its own registry, so per-shard epochs
/// advance independently.
class ShardedEstimationService {
 public:
  ShardedEstimationService(std::vector<serve::ModelRegistry*> registries,
                           const ShardedServeOptions& options);
  ~ShardedEstimationService();

  ShardedEstimationService(const ShardedEstimationService&) = delete;
  ShardedEstimationService& operator=(const ShardedEstimationService&) =
      delete;

  /// Scatter, gather, and sum on the calling thread. Always returns within
  /// the request deadline (plus the hedge computation, microseconds). A
  /// query whose length is not the shards' model dim, or a bad tau, is
  /// refused with InvalidArgument before the scatter, as the unsharded
  /// service refuses it: no breaker, hedge or shard counter moves.
  ShardedEstimateResponse Estimate(const EstimateRequest& request);

  /// Estimate() on the gather pool.
  std::future<ShardedEstimateResponse> Submit(const EstimateRequest& request);

  /// Blocks until every per-shard service's queue is empty and the gather
  /// pool is idle.
  void Drain();

  size_t num_shards() const { return shards_.size(); }
  serve::EstimationService* shard_service(size_t k) {
    return shards_[k]->service.get();
  }

  /// Marks shard `k` as sitting in the update subsystem's degraded circuit
  /// (PR 7): requests skip its primary and answer from the fallback tier
  /// until cleared. Wire to UpdateManager::degraded() after Tick/Refresh.
  void SetShardDegraded(size_t k, bool degraded);
  bool shard_degraded(size_t k) const;

  /// Total population across shards (the clamp bound). Tracks publishes:
  /// each shard contributes its latest non-null model's summed segment
  /// populations.
  double total_population() const;

  uint64_t hedges_fired() const {
    return hedges_fired_.load(std::memory_order_relaxed);
  }
  uint64_t hedges_won() const {
    return hedges_won_.load(std::memory_order_relaxed);
  }
  uint64_t hedges_wasted() const {
    return hedges_wasted_.load(std::memory_order_relaxed);
  }

  const ShardedServeOptions& options() const { return options_; }

 private:
  struct LatencyRing {
    static constexpr size_t kCapacity = 256;
    std::mutex mu;
    std::array<float, kCapacity> us;
    size_t count = 0;
    size_t pos = 0;
    void Record(double v);
    /// p99 of the recorded window; <0 while under `warmup` samples.
    double P99Us(size_t warmup);
  };

  struct Shard {
    serve::ModelRegistry* registry = nullptr;
    std::unique_ptr<serve::EstimationService> service;
    uint64_t listener_id = 0;
    /// Last non-null published snapshot: the fallback tier's model and the
    /// population this shard represents. Guarded by `mu` (swapped on
    /// publish, read per fallback answer).
    mutable std::mutex mu;
    std::shared_ptr<const GlEstimator> fallback_model;
    double population = 0.0;
    std::atomic<bool> degraded{false};
    // Shard breaker (closed / open / half-open probe).
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<uint32_t> cooldown_left{0};
    LatencyRing latency;
  };

  /// One shard's resolved contribution.
  struct ShardAnswer {
    ShardSource source = ShardSource::kFailed;
    bool hedged = false;
    double value = 0.0;
    uint64_t epoch = 0;
  };

  /// Fallback-tier answer: sum of SegmentFallback estimates over the
  /// shard's retained model. Returns false when the tier cannot answer
  /// (no snapshot ever published, or shard.fallback_fail fired).
  bool FallbackEstimate(Shard& shard, const EstimateRequest& request,
                        double* out) const;
  /// True when the breaker admits a primary attempt for this request.
  bool BreakerAdmits(Shard& shard, size_t k);
  void BreakerOnResult(Shard& shard, size_t k, bool ok);
  std::shared_ptr<const GlEstimator> FallbackModel(const Shard& shard) const;
  double HedgeDelayMs(Shard& shard, double budget_ms);

  std::vector<std::unique_ptr<Shard>> shards_;
  ShardedServeOptions options_;
  std::unique_ptr<ThreadPool> gather_pool_;
  /// Query width of the last published model (every shard partitions one
  /// dataset); 0 until a shard publishes.
  std::atomic<size_t> model_dim_{0};
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> hedges_fired_{0};
  std::atomic<uint64_t> hedges_won_{0};
  std::atomic<uint64_t> hedges_wasted_{0};
};

}  // namespace shard
}  // namespace simcard

#endif  // SIMCARD_SHARD_SHARDED_SERVICE_H_
