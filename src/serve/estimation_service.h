// Concurrent estimation service: deadlines, load shedding, circuit breaker,
// and request micro-batching.
//
// Wraps the const inference path of a published GlEstimator (see
// serve/model_registry.h) behind a fixed worker pool. Each request carries a
// deadline; the service sheds load with a typed kUnavailable status when its
// bounded queue is full, answers kDeadlineExceeded when a request's deadline
// passes before (or during) evaluation, and routes segments whose local
// model keeps failing to the sampling fallback through a per-segment circuit
// breaker (the SegmentEvalPolicy hook in core/estimator.h).
//
// Micro-batching: when ServeOptions::max_batch > 1 each worker drains up to
// max_batch queued requests per pass — waiting up to batch_linger_us for a
// burst to accumulate — and evaluates them through
// GlEstimator::EstimateSearchBatch (one feature build + one global forward +
// one local forward per segment for the whole batch). Every future is still
// fulfilled individually, deadlines are still checked per request at dequeue
// and after evaluation, and a failure injected into one batch member never
// touches its batch mates. max_batch = 1 (the default) preserves the
// one-request-per-worker behavior exactly.
//
// Observability (all gated on obs::MetricsEnabled()):
//   counters   simcard.serve.requests, .accepted, .shed, .deadline_exceeded,
//              .completed, .no_model, .breaker_open, .breaker_short_circuited,
//              .actual_reports, .actual_unmatched, .actual_duplicate,
//              simcard.batch.evals, .coalesced, .isolated_errors
//   gauge      simcard.serve.queue_depth (plus .model_epoch / .publishes
//              from the registry)
//   histograms simcard.serve.latency.queue_us, .eval_us, .total_us,
//              simcard.serve.batch_size
//
// Request tracing (gated on obs::TracingEnabled(), see obs/request_trace.h):
// every submitted request carries a TraceContext; the service publishes a
// "serve.request" root span plus "serve.queue" / "serve.eval" child spans
// and instants for shed, deadline, no-model, and fault outcomes, and the
// estimator parents its per-segment events under the eval span. Shed,
// deadline-exceeded, fallback-served, and breaker-short-circuited requests
// are flag-marked so tail sampling always keeps them.
//
// Online accuracy: completed requests are remembered in a fixed ring;
// ReportActual(request_id, true_card) matches a ticket to its estimate and
// feeds sliding Q-error windows (overall / per tau bucket / per evaluated
// segment) exposed via accuracy() for telemetry export and drift gating.
//
// Fault sites (common/fault.h):
//   serve.queue_full  forces admission control to shed the request
//   serve.slow_eval   stalls evaluation past the request's deadline
//   serve.batch_eval  poisons one batch member with an injected error
//                     (its batch mates must still succeed)
#ifndef SIMCARD_SERVE_ESTIMATION_SERVICE_H_
#define SIMCARD_SERVE_ESTIMATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/gl_estimator.h"
#include "feedback/feedback_manager.h"
#include "obs/qerror_tracker.h"
#include "obs/request_trace.h"
#include "serve/model_registry.h"

namespace simcard {
namespace serve {

/// \brief Serving knobs.
struct ServeOptions {
  size_t num_threads = 2;          ///< worker threads (0 = hardware)
  size_t queue_capacity = 64;      ///< max queued + running requests
  double default_deadline_ms = 50.0;

  /// Micro-batching: max requests one worker drains per pass (1 = no
  /// batching) and how long an under-filled worker waits for stragglers
  /// before evaluating what it has. The linger is bounded by max_batch
  /// arrivals, so it adds at most batch_linger_us to a lone request's
  /// latency while letting bursts share one forward pass.
  size_t max_batch = 1;
  double batch_linger_us = 50.0;

  /// Circuit breaker: consecutive local-model failures before a segment is
  /// routed to its sampling fallback, and how many short-circuited requests
  /// the segment sits out before a half-open probe re-tries the model.
  size_t breaker_failure_threshold = 3;
  size_t breaker_cooldown_requests = 32;
  /// Segments tracked by the breaker; segments at or beyond this index are
  /// never short-circuited (they still fall back on non-finite estimates).
  size_t breaker_max_segments = 256;

  /// Online accuracy accounting: completed requests are remembered in a
  /// fixed ring of `recent_capacity` entries so a later
  /// ReportActual(request_id, true_card) can be matched to its estimate and
  /// fed into the sliding Q-error windows. 0 (or track_accuracy = false)
  /// disables the ledger; ReportActual then answers kFailedPrecondition.
  bool track_accuracy = true;
  size_t recent_capacity = 4096;
  /// Knobs for the Q-error windows (window size, tau bucket edges).
  obs::QErrorTrackerOptions accuracy;

  /// Serve-time feedback correction (src/feedback/): with
  /// feedback.enabled, matched ReportActual observations are teed into an
  /// in-memory FeedbackStore and later same-subspace requests are answered
  /// with a residual-corrected estimate (provenance on EstimateResponse).
  /// Requires track_accuracy; per-request opt-out via
  /// EstimateOptions::allow_feedback_correction.
  feedback::FeedbackOptions feedback;
};

/// \brief Outcome of one request.
struct EstimateResponse {
  Status status;
  double estimate = 0.0;
  uint64_t request_id = 0;   ///< ticket for ReportActual (never 0)
  uint64_t model_epoch = 0;  ///< epoch of the snapshot that answered
  double queue_us = 0.0;     ///< submit -> worker pickup
  double eval_us = 0.0;      ///< model evaluation only (shared by the batch)
  double total_us = 0.0;     ///< submit -> response
  size_t batch_size = 1;     ///< requests drained in the same worker pass
  size_t fallback_segments = 0;  ///< segments answered by the fallback

  /// Feedback-correction provenance (src/feedback/). When `corrected` is
  /// true, `estimate` is the residual-corrected answer and
  /// `base_estimate` the raw model one; otherwise they are equal.
  bool corrected = false;
  size_t feedback_neighbors = 0;  ///< store matches that backed the blend
  double blend_weight = 0.0;      ///< confidence applied to the residual
  double base_estimate = 0.0;     ///< raw model estimate (pre-correction)
};

/// \brief Per-segment circuit breaker implementing SegmentEvalPolicy.
///
/// closed --(threshold consecutive failures)--> open
/// open   --(cooldown_requests short-circuits)--> half-open (one probe)
/// probe ok -> closed; probe fails -> open again.
///
/// All state is atomic; concurrent requests may race on transitions, which
/// is benign for a heuristic — at worst a segment probes once more or sits
/// out a few extra requests.
class SegmentCircuitBreaker : public SegmentEvalPolicy {
 public:
  SegmentCircuitBreaker(size_t failure_threshold, size_t cooldown_requests,
                        size_t max_segments);

  bool ForceFallback(size_t s) override;
  void OnLocalResult(size_t s, bool ok) override;

  /// True while segment `s` short-circuits to the fallback.
  bool IsOpen(size_t s) const;

  /// Total times any segment's breaker tripped open.
  uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }

  /// Closes every breaker and clears failure counts (e.g. after publishing
  /// a retrained model).
  void Reset();

 private:
  enum : uint32_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
  struct SegState {
    std::atomic<uint32_t> state{kClosed};
    std::atomic<uint32_t> failures{0};
    std::atomic<uint32_t> cooldown{0};
  };

  void TripOpen(SegState* st);

  size_t failure_threshold_;
  size_t cooldown_requests_;
  std::vector<SegState> states_;
  std::atomic<uint64_t> trips_{0};
};

/// \brief Worker-pooled estimation front end over a ModelRegistry.
///
/// Thread-safe: Submit may be called from any thread, including while a
/// writer thread publishes replacement models through the registry. The
/// destructor drains in-flight requests.
class EstimationService {
 public:
  /// `registry` must outlive the service.
  EstimationService(ModelRegistry* registry, const ServeOptions& options);
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Enqueues one request. `request.query` must be a sized span of the
  /// model's dim() floats (it is copied, so the caller's buffer may be
  /// reused immediately); `request.options.deadline_ms` <= 0 uses the
  /// default deadline; `request.options.policy` is ignored — the service
  /// applies its own circuit breaker. Shed requests resolve immediately
  /// with kUnavailable.
  std::future<EstimateResponse> Submit(const EstimateRequest& request);

  /// Blocks until every accepted request has completed.
  void Drain();

  /// \brief Feeds the true cardinality for an answered request into the
  /// online Q-error windows (overall, per tau bucket, per evaluated
  /// segment).
  ///
  /// `request_id` is the ticket from the request's EstimateResponse. Each
  /// ticket matches at most once; a ticket that was never issued, was
  /// evicted from the recent-request ring (capacity
  /// ServeOptions::recent_capacity), already matched, or belongs to a
  /// request that did not produce an estimate answers kNotFound.
  /// kFailedPrecondition when accuracy tracking is disabled.
  Status ReportActual(uint64_t request_id, double true_card);

  /// The online accuracy windows fed by ReportActual. Valid for the
  /// service's lifetime; hand to TelemetryExporter / UpdateManager.
  const obs::QErrorTracker& accuracy() const { return accuracy_; }

  /// Queued + running requests (admission-control view).
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

  SegmentCircuitBreaker* breaker() { return &breaker_; }
  const ServeOptions& options() const { return options_; }

  /// The serve-time feedback state, or nullptr when
  /// ServeOptions::feedback.enabled is false (or accuracy tracking is off).
  const feedback::FeedbackManager* feedback() const {
    return feedback_.get();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::vector<float> query;
    float tau = 0.0f;
    uint64_t request_id = 0;
    bool allow_feedback = true;
    Clock::time_point submitted;
    Clock::time_point deadline;
    obs::TraceContext trace;  // inactive unless tracing is enabled
    std::promise<EstimateResponse> promise;
  };

  /// One completed request remembered for ReportActual matching. A slot is
  /// valid only while `id` matches the ticket being reported (the ring
  /// overwrites at id % capacity, so eviction is implicit). `reported_id`
  /// survives overwrites: it is the last ticket consumed from this slot,
  /// so a duplicate report after the ring wraps is rejected explicitly
  /// instead of risking a match against the recycled slot.
  struct RecentRequest {
    uint64_t id = 0;
    uint64_t reported_id = 0;
    double estimate = 0.0;       ///< served (possibly corrected) estimate
    double base_estimate = 0.0;  ///< raw model estimate
    uint64_t epoch = 0;          ///< model epoch that answered
    float tau = 0.0f;
    uint16_t num_segments = 0;
    uint32_t segments[EstimateProbe::kMaxSegments] = {};
    float probs[EstimateProbe::kMaxSegments] = {};
  };

  void RememberCompleted(const Pending& item, double served_estimate,
                         double base_estimate, uint64_t epoch,
                         const EstimateProbe& probe);

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending>* batch);

  ModelRegistry* registry_;
  ServeOptions options_;
  SegmentCircuitBreaker breaker_;
  /// Non-null when feedback correction is on; also reset by the publish
  /// listener (epoch advance invalidates store + guards).
  std::unique_ptr<feedback::FeedbackManager> feedback_;
  uint64_t publish_listener_id_ = 0;  // breaker/feedback reset on hot-swap
  std::atomic<size_t> pending_{0};

  obs::QErrorTracker accuracy_;
  std::mutex recent_mu_;
  std::vector<RecentRequest> recent_;  // empty when tracking is disabled

  std::mutex mu_;
  std::condition_variable cv_;       // queue has work / stopping
  std::condition_variable idle_cv_;  // queue empty and no batch running
  std::deque<Pending> queue_;
  size_t running_ = 0;  // workers currently evaluating a batch
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace simcard

#endif  // SIMCARD_SERVE_ESTIMATION_SERVICE_H_
