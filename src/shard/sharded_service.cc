#include "shard/sharded_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/segment_health.h"

namespace simcard {
namespace shard {
namespace {

using std::chrono::steady_clock;

// Metric objects resolved once; recording sites gate on MetricsEnabled().
// Registered as one struct so the simcard.shard.* family is all-or-nothing
// in a metrics report (check_metrics_json.py validates the set).
struct ShardMetrics {
  obs::Counter* requests = obs::GetCounter("simcard.shard.requests");
  obs::Counter* completed = obs::GetCounter("simcard.shard.completed");
  obs::Counter* partial = obs::GetCounter("simcard.shard.partial");
  obs::Counter* fallbacks = obs::GetCounter("simcard.shard.fallbacks");
  obs::Counter* shard_failures =
      obs::GetCounter("simcard.shard.shard_failures");
  obs::Counter* hedge_fired = obs::GetCounter("simcard.shard.hedge.fired");
  obs::Counter* hedge_won = obs::GetCounter("simcard.shard.hedge.won");
  obs::Counter* hedge_wasted = obs::GetCounter("simcard.shard.hedge.wasted");
  obs::Counter* breaker_trips =
      obs::GetCounter("simcard.shard.breaker_trips");
  obs::Counter* breaker_short_circuits =
      obs::GetCounter("simcard.shard.breaker_short_circuits");
  obs::Counter* degraded_skips =
      obs::GetCounter("simcard.shard.degraded_skips");
  obs::Counter* fallback_failures =
      obs::GetCounter("simcard.shard.fallback_failures");
  obs::Gauge* shard_count = obs::GetGauge("simcard.shard.count");
  obs::Histogram* total_us =
      obs::GetHistogram("simcard.shard.latency.total_us");
  obs::Histogram* shard_us =
      obs::GetHistogram("simcard.shard.latency.shard_us");
  obs::Histogram* hedge_delay_us =
      obs::GetHistogram("simcard.shard.hedge.delay_us");
};

ShardMetrics& Metrics() {
  static ShardMetrics metrics;
  return metrics;
}

steady_clock::time_point PlusMs(steady_clock::time_point tp, double ms) {
  return tp + std::chrono::microseconds(
                  static_cast<int64_t>(std::max(0.0, ms) * 1000.0));
}

double SnapshotPopulation(const GlEstimator& model) {
  double population = 0.0;
  for (size_t s = 0; s < model.num_local_models(); ++s) {
    population += static_cast<double>(model.segment_fallback(s).segment_size);
  }
  return population;
}

}  // namespace

void ShardedEstimationService::LatencyRing::Record(double v) {
  std::lock_guard<std::mutex> lock(mu);
  us[pos] = static_cast<float>(v);
  pos = (pos + 1) % kCapacity;
  if (count < kCapacity) ++count;
}

double ShardedEstimationService::LatencyRing::P99Us(size_t warmup) {
  std::array<float, kCapacity> copy;
  size_t n;
  {
    std::lock_guard<std::mutex> lock(mu);
    n = count;
    if (n < std::max<size_t>(warmup, 1)) return -1.0;
    std::copy(us.begin(), us.begin() + n, copy.begin());
  }
  const size_t idx = (n * 99) / 100;
  const size_t rank = std::min(idx, n - 1);
  std::nth_element(copy.begin(), copy.begin() + rank, copy.begin() + n);
  return static_cast<double>(copy[rank]);
}

ShardedEstimationService::ShardedEstimationService(
    std::vector<serve::ModelRegistry*> registries,
    const ShardedServeOptions& options)
    : options_(options) {
  const size_t n = std::min(registries.size(), kMaxShards);
  shards_.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->registry = registries[k];
    shard->service = std::make_unique<serve::EstimationService>(
        registries[k], options_.serve);
    // Seed the fallback tier from whatever is already published, then track
    // future publishes. The listener keeps the last non-null snapshot: a
    // shard mid-crash-recovery (unpublished model) still answers from its
    // previous model's retained samples.
    Shard* raw = shard.get();
    auto retain = [this, raw, k](const serve::ModelSnapshot& snap) {
      if (snap.estimator != nullptr) {
        model_dim_.store(snap.estimator->dim(), std::memory_order_relaxed);
        const double population = SnapshotPopulation(*snap.estimator);
        std::lock_guard<std::mutex> lock(raw->mu);
        raw->fallback_model = snap.estimator;
        raw->population = population;
      }
      if (obs::MetricsEnabled()) {
        obs::ShardHealthRegistry::Default().SetEpoch(k, snap.epoch);
      }
    };
    retain(registries[k]->Current());
    shard->listener_id = registries[k]->AddListener(retain);
    shards_.push_back(std::move(shard));
  }
  gather_pool_ =
      std::make_unique<ThreadPool>(std::max<size_t>(1, options_.gather_threads));
  if (obs::MetricsEnabled()) {
    Metrics().shard_count->Set(static_cast<double>(shards_.size()));
  }
}

ShardedEstimationService::~ShardedEstimationService() {
  gather_pool_.reset();  // drains in-flight gathers first
  for (auto& shard : shards_) {
    shard->registry->RemoveListener(shard->listener_id);
    shard->service.reset();
  }
}

void ShardedEstimationService::Drain() {
  gather_pool_->Wait();
  for (auto& shard : shards_) shard->service->Drain();
}

void ShardedEstimationService::SetShardDegraded(size_t k, bool degraded) {
  if (k >= shards_.size()) return;
  shards_[k]->degraded.store(degraded, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    obs::ShardHealthRegistry::Default().SetDegraded(k, degraded);
  }
}

bool ShardedEstimationService::shard_degraded(size_t k) const {
  return k < shards_.size() &&
         shards_[k]->degraded.load(std::memory_order_relaxed);
}

double ShardedEstimationService::total_population() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->population;
  }
  return total;
}

std::shared_ptr<const GlEstimator> ShardedEstimationService::FallbackModel(
    const Shard& shard) const {
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.fallback_model;
}

bool ShardedEstimationService::FallbackEstimate(Shard& shard,
                                                const EstimateRequest& request,
                                                double* out) const {
  std::shared_ptr<const GlEstimator> model = FallbackModel(shard);
  if (model == nullptr) return false;
  if (request.query.size() != model->dim()) return false;
  if (!std::isfinite(request.tau) || request.tau < 0.0f) return false;
  if (fault::Enabled() && fault::ShouldFail("shard.fallback_fail")) {
    if (obs::MetricsEnabled()) Metrics().fallback_failures->Increment();
    return false;
  }
  double total = 0.0;
  double population = 0.0;
  for (size_t s = 0; s < model->num_local_models(); ++s) {
    const SegmentFallback& fb = model->segment_fallback(s);
    total += fb.Estimate(request.query.data(), request.tau, model->dim(),
                         model->metric());
    population += static_cast<double>(fb.segment_size);
  }
  if (!std::isfinite(total)) return false;
  *out = std::clamp(total, 0.0, population);
  return true;
}

bool ShardedEstimationService::BreakerAdmits(Shard& shard, size_t k) {
  uint32_t cooldown = shard.cooldown_left.load(std::memory_order_relaxed);
  while (cooldown > 0) {
    if (shard.cooldown_left.compare_exchange_weak(cooldown, cooldown - 1,
                                                  std::memory_order_relaxed)) {
      if (cooldown == 1) {
        // Cooldown exhausted: this request is the half-open probe.
        if (obs::MetricsEnabled()) {
          obs::ShardHealthRegistry::Default().SetBreakerState(
              k, obs::BreakerHealth::kHalfOpen);
        }
        return true;
      }
      return false;
    }
  }
  return true;
}

void ShardedEstimationService::BreakerOnResult(Shard& shard, size_t k,
                                               bool ok) {
  if (ok) {
    shard.consecutive_failures.store(0, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) {
      obs::ShardHealthRegistry::Default().SetBreakerState(
          k, obs::BreakerHealth::kClosed);
    }
    return;
  }
  const uint32_t failures =
      shard.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures >= options_.breaker_failure_threshold) {
    shard.consecutive_failures.store(0, std::memory_order_relaxed);
    shard.cooldown_left.store(options_.breaker_cooldown,
                              std::memory_order_relaxed);
    if (obs::MetricsEnabled()) {
      Metrics().breaker_trips->Increment();
      obs::ShardHealthRegistry::Default().SetBreakerState(
          k, obs::BreakerHealth::kOpen);
      obs::ShardHealthRegistry::Default().RecordBreakerTrip(k);
    }
  }
}

double ShardedEstimationService::HedgeDelayMs(Shard& shard, double budget_ms) {
  const HedgeOptions& hedge = options_.hedge;
  const double ceiling = budget_ms * hedge.max_delay_fraction;
  if (hedge.fixed_delay_ms > 0.0) {
    return std::min(hedge.fixed_delay_ms, ceiling);
  }
  const double p99_us = shard.latency.P99Us(hedge.warmup);
  if (p99_us < 0.0) return ceiling;  // under warmup: hedge late
  const double delay_ms = (p99_us / 1000.0) * hedge.p99_multiplier;
  return std::clamp(delay_ms, std::min(hedge.min_delay_ms, ceiling), ceiling);
}

ShardedEstimateResponse ShardedEstimationService::Estimate(
    const EstimateRequest& request) {
  ShardMetrics& m = Metrics();
  const bool metrics = obs::MetricsEnabled();
  obs::ShardHealthRegistry& health = obs::ShardHealthRegistry::Default();
  const steady_clock::time_point start = steady_clock::now();

  ShardedEstimateResponse response;
  response.num_shards = static_cast<uint32_t>(shards_.size());
  response.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  response.shard_epochs.resize(shards_.size(), 0);
  if (metrics) m.requests->Increment();

  const size_t dim = model_dim_.load(std::memory_order_relaxed);
  if (request.query.empty() || (dim != 0 && request.query.size() != dim) ||
      !std::isfinite(request.tau) || request.tau < 0.0f) {
    response.status =
        Status::InvalidArgument("sharded estimate: bad query or tau");
    return response;
  }

  const double deadline_ms = request.options.deadline_ms > 0.0
                                 ? request.options.deadline_ms
                                 : options_.default_deadline_ms;
  const double budget_ms = deadline_ms * options_.shard_deadline_fraction;
  const steady_clock::time_point shard_deadline = PlusMs(start, budget_ms);

  obs::TraceContext trace;
  trace.Start("shard.request");

  // Scatter. Fault sites are consulted once per (request, shard), in shard
  // order, `shard.fail` before `shard.stall`, so a seeded schedule selects
  // exact (request, shard) cells deterministically.
  struct Pending {
    std::future<serve::EstimateResponse> future;
    bool submitted = false;
    bool stalled = false;        // shard.stall: primary never answers
    bool failed_fast = false;    // shard.fail: primary failed instantly
    bool skipped_breaker = false;
    bool skipped_degraded = false;
  };
  std::vector<Pending> pending(shards_.size());
  const bool faults = fault::Enabled();
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    Pending& p = pending[k];
    if (faults && fault::ShouldFail("shard.fail")) {
      p.failed_fast = true;
      continue;
    }
    p.stalled = faults && fault::ShouldFail("shard.stall");
    if (shard.degraded.load(std::memory_order_relaxed)) {
      p.skipped_degraded = true;
      if (metrics) m.degraded_skips->Increment();
      continue;
    }
    if (!BreakerAdmits(shard, k)) {
      p.skipped_breaker = true;
      if (metrics) m.breaker_short_circuits->Increment();
      continue;
    }
    EstimateRequest shard_request;
    shard_request.query = request.query;
    shard_request.tau = request.tau;
    // Segment-scoped options (policy, probe) carry unsharded segment
    // indices; only the deadline crosses the shard boundary.
    shard_request.options.deadline_ms = budget_ms;
    p.future = shard.service->Submit(shard_request);
    p.submitted = true;
  }

  // Gather, in shard order against absolute deadlines: every shard runs
  // concurrently, so the total wall time is bounded by the shard budget
  // plus the hedge computations, not by a per-shard sum.
  double sum = 0.0;
  size_t answered = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    Pending& p = pending[k];
    const uint64_t bit = uint64_t{1} << k;
    const steady_clock::time_point shard_start = steady_clock::now();
    ShardAnswer answer;
    answer.epoch = shard.registry->epoch();

    bool primary_taken = false;
    serve::EstimateResponse primary;
    bool hedge_value_ok = false;
    double hedge_value = 0.0;

    if (p.submitted) {
      const bool hedging = options_.hedge.enabled;
      if (!p.stalled) {
        const steady_clock::time_point first_wait =
            hedging ? std::min(shard_deadline,
                               PlusMs(start, HedgeDelayMs(shard, budget_ms)))
                    : shard_deadline;
        if (p.future.wait_until(first_wait) == std::future_status::ready) {
          primary = p.future.get();
          primary_taken = true;
        }
      }
      if (!primary_taken && hedging) {
        // Hedged re-dispatch to the sampling-fallback tier. A stalled
        // shard (fault shard.stall) reaches here unconditionally: its
        // primary never answers by definition.
        answer.hedged = true;
        response.hedged_mask |= bit;
        hedges_fired_.fetch_add(1, std::memory_order_relaxed);
        if (metrics) {
          m.hedge_fired->Increment();
          m.hedge_delay_us->Record(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  steady_clock::now() - start)
                  .count());
        }
        trace.RecordInstant("shard.hedge", obs::TraceContext::kRootSpan,
                            "shard", static_cast<double>(k));
        hedge_value_ok = FallbackEstimate(shard, request, &hedge_value);
        if (!p.stalled) {
          // The race: the primary may still land and win within the grace
          // window (first answer wins; grace 0 = one non-blocking poll).
          const steady_clock::time_point grace_deadline = std::min(
              shard_deadline,
              PlusMs(steady_clock::now(), options_.hedge.grace_ms));
          if (p.future.wait_until(grace_deadline) ==
              std::future_status::ready) {
            primary = p.future.get();
            primary_taken = true;
          }
        }
      }
    }

    bool resolved = false;
    if (primary_taken && primary.status.ok()) {
      answer.source = ShardSource::kModel;
      answer.value = primary.estimate;
      answer.epoch = primary.model_epoch;
      if (primary.corrected) response.corrected_mask |= bit;
      BreakerOnResult(shard, k, true);
      // From `start`, the origin the hedge is armed from: shard k's
      // primary has been running since the scatter, so the gather's wait
      // on earlier shards is part of its latency.
      shard.latency.Record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              steady_clock::now() - start)
              .count());
      if (answer.hedged) {
        hedges_wasted_.fetch_add(1, std::memory_order_relaxed);
        if (metrics) {
          m.hedge_wasted->Increment();
          health.RecordHedge(k, /*won=*/false);
        }
      }
      resolved = true;
    } else {
      // Primary unavailable: timed out, stalled, errored, shed, no model,
      // failed fast, breaker-open, or degraded. Record breaker signal for
      // genuine primary failures (not for skips the breaker itself or the
      // degraded circuit caused).
      if (p.failed_fast || p.stalled || (p.submitted && !primary_taken) ||
          (primary_taken && !primary.status.ok())) {
        BreakerOnResult(shard, k, false);
      }
      if (answer.hedged && hedge_value_ok) {
        hedges_won_.fetch_add(1, std::memory_order_relaxed);
        if (metrics) {
          m.hedge_won->Increment();
          health.RecordHedge(k, /*won=*/true);
        }
      }
      if (!answer.hedged) {
        hedge_value_ok = FallbackEstimate(shard, request, &hedge_value);
      }
      if (hedge_value_ok) {
        answer.source = ShardSource::kFallback;
        answer.value = hedge_value;
        response.fallback_mask |= bit;
        if (metrics) m.fallbacks->Increment();
        trace.AddFlag(obs::kTraceFallback);
        trace.RecordInstant("shard.fallback", obs::TraceContext::kRootSpan,
                            "shard", static_cast<double>(k));
        resolved = true;
      }
    }

    if (!resolved) {
      answer.source = ShardSource::kFailed;
      answer.value = 0.0;
      response.failed_mask |= bit;
      if (metrics) m.shard_failures->Increment();
      trace.AddFlag(obs::kTraceError);
      trace.RecordInstant("shard.shard_fail", obs::TraceContext::kRootSpan,
                          "shard", static_cast<double>(k));
    }
    if (metrics) {
      health.RecordAnswer(k, answer.source == ShardSource::kModel,
                          answer.source == ShardSource::kFallback);
      m.shard_us->Record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              steady_clock::now() - shard_start)
              .count());
    }
    if (answer.source != ShardSource::kFailed) ++answered;
    sum += answer.value;
    response.shard_epochs[k] = answer.epoch;
  }

  response.partial =
      (response.fallback_mask | response.failed_mask) != 0;
  response.estimate = std::clamp(sum, 0.0, total_population());
  if (answered == 0) {
    response.status =
        Status(StatusCode::kUnavailable, "every shard failed to answer");
  }
  response.total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          steady_clock::now() - start)
                          .count();
  if (metrics) {
    if (response.status.ok()) m.completed->Increment();
    if (response.partial) m.partial->Increment();
    m.total_us->Record(response.total_us);
  }
  if (response.partial) {
    trace.RecordInstant("shard.partial", obs::TraceContext::kRootSpan,
                        "fallback_mask",
                        static_cast<double>(response.fallback_mask));
  }
  return response;
}

std::future<ShardedEstimateResponse> ShardedEstimationService::Submit(
    const EstimateRequest& request) {
  auto task = std::make_shared<std::packaged_task<ShardedEstimateResponse()>>(
      [this, query = std::vector<float>(request.query.begin(),
                                        request.query.end()),
       tau = request.tau, options = request.options]() mutable {
        EstimateRequest owned;
        owned.query = std::span<const float>(query.data(), query.size());
        owned.tau = tau;
        owned.options = options;
        return Estimate(owned);
      });
  std::future<ShardedEstimateResponse> future = task->get_future();
  gather_pool_->Submit([task] { (*task)(); });
  return future;
}

}  // namespace shard
}  // namespace simcard
