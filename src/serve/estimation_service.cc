#include "serve/estimation_service.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/segment_health.h"
#include "tensor/matrix.h"

namespace simcard {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Metric objects resolved once (registry pointers are stable); every
// recording site is gated on obs::MetricsEnabled() by the caller.
struct ServeMetrics {
  obs::Counter* requests = obs::GetCounter("simcard.serve.requests");
  obs::Counter* accepted = obs::GetCounter("simcard.serve.accepted");
  obs::Counter* shed = obs::GetCounter("simcard.serve.shed");
  obs::Counter* deadline_exceeded =
      obs::GetCounter("simcard.serve.deadline_exceeded");
  obs::Counter* completed = obs::GetCounter("simcard.serve.completed");
  obs::Counter* no_model = obs::GetCounter("simcard.serve.no_model");
  obs::Counter* batch_evals = obs::GetCounter("simcard.batch.evals");
  obs::Counter* batch_coalesced = obs::GetCounter("simcard.batch.coalesced");
  obs::Counter* batch_isolated_errors =
      obs::GetCounter("simcard.batch.isolated_errors");
  obs::Counter* actual_reports =
      obs::GetCounter("simcard.serve.actual_reports");
  obs::Counter* actual_unmatched =
      obs::GetCounter("simcard.serve.actual_unmatched");
  obs::Counter* actual_duplicate =
      obs::GetCounter("simcard.serve.actual_duplicate");
  obs::Gauge* queue_depth = obs::GetGauge("simcard.serve.queue_depth");
  obs::Histogram* queue_us =
      obs::GetHistogram("simcard.serve.latency.queue_us");
  obs::Histogram* eval_us = obs::GetHistogram("simcard.serve.latency.eval_us");
  obs::Histogram* total_us =
      obs::GetHistogram("simcard.serve.latency.total_us");
  obs::Histogram* batch_size = obs::GetHistogram(
      "simcard.serve.batch_size", obs::Histogram::LinearBuckets(1.0, 1.0, 64));
};

ServeMetrics& Metrics() {
  static ServeMetrics metrics;
  return metrics;
}

// Process-wide ticket source. Per-service counters all started at 1, so
// two services (chaos-drill recreating one after a simulated kill, or the
// per-shard services of a sharded tier) issued overlapping ticket ids and
// a ReportActual against the wrong instance could match a recycled id.
// One shared sequence makes every ticket unique across instances for the
// life of the process.
std::atomic<uint64_t> g_next_request_id{1};

}  // namespace

SegmentCircuitBreaker::SegmentCircuitBreaker(size_t failure_threshold,
                                             size_t cooldown_requests,
                                             size_t max_segments)
    : failure_threshold_(failure_threshold > 0 ? failure_threshold : 1),
      cooldown_requests_(cooldown_requests > 0 ? cooldown_requests : 1),
      states_(max_segments) {}

void SegmentCircuitBreaker::TripOpen(SegState* st) {
  st->failures.store(0, std::memory_order_relaxed);
  st->cooldown.store(static_cast<uint32_t>(cooldown_requests_),
                     std::memory_order_relaxed);
  st->state.store(kOpen, std::memory_order_release);
  trips_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    obs::GetCounter("simcard.serve.breaker_open")->Increment();
    const size_t s = static_cast<size_t>(st - states_.data());
    obs::SegmentHealthRegistry::Default().RecordBreakerTrip(s);
    obs::SegmentHealthRegistry::Default().SetBreakerState(
        s, obs::BreakerHealth::kOpen);
  }
}

bool SegmentCircuitBreaker::ForceFallback(size_t s) {
  if (s >= states_.size()) return false;
  SegState& st = states_[s];
  const uint32_t cur = st.state.load(std::memory_order_acquire);
  if (cur == kClosed) return false;
  if (cur == kOpen) {
    // Burn one cooldown slot; the request that takes the last slot becomes
    // the half-open probe and evaluates the local model.
    uint32_t c = st.cooldown.load(std::memory_order_relaxed);
    while (c > 0 &&
           !st.cooldown.compare_exchange_weak(c, c - 1,
                                              std::memory_order_acq_rel)) {
    }
    if (c == 1) {
      st.state.store(kHalfOpen, std::memory_order_release);
      if (obs::MetricsEnabled()) {
        obs::SegmentHealthRegistry::Default().SetBreakerState(
            s, obs::BreakerHealth::kHalfOpen);
      }
      return false;  // this request probes
    }
  }
  // kOpen with cooldown remaining, or kHalfOpen with a probe in flight.
  if (obs::MetricsEnabled()) {
    obs::GetCounter("simcard.serve.breaker_short_circuited")->Increment();
  }
  return true;
}

void SegmentCircuitBreaker::OnLocalResult(size_t s, bool ok) {
  if (s >= states_.size()) return;
  SegState& st = states_[s];
  if (ok) {
    // Avoid spamming the health registry on the common path: only a
    // not-closed -> closed transition is worth recording.
    const bool was_open =
        st.state.load(std::memory_order_acquire) != kClosed;
    st.failures.store(0, std::memory_order_relaxed);
    st.state.store(kClosed, std::memory_order_release);
    if (was_open && obs::MetricsEnabled()) {
      obs::SegmentHealthRegistry::Default().SetBreakerState(
          s, obs::BreakerHealth::kClosed);
    }
    return;
  }
  if (st.state.load(std::memory_order_acquire) == kHalfOpen) {
    TripOpen(&st);  // probe failed: back to open for another cooldown
    return;
  }
  const uint32_t failures =
      st.failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= failure_threshold_) TripOpen(&st);
}

bool SegmentCircuitBreaker::IsOpen(size_t s) const {
  if (s >= states_.size()) return false;
  return states_[s].state.load(std::memory_order_acquire) != kClosed;
}

void SegmentCircuitBreaker::Reset() {
  const bool enabled = obs::MetricsEnabled();
  for (size_t s = 0; s < states_.size(); ++s) {
    SegState& st = states_[s];
    const bool was_open =
        st.state.load(std::memory_order_acquire) != kClosed;
    st.state.store(kClosed, std::memory_order_release);
    st.failures.store(0, std::memory_order_relaxed);
    st.cooldown.store(0, std::memory_order_relaxed);
    if (was_open && enabled) {
      obs::SegmentHealthRegistry::Default().SetBreakerState(
          s, obs::BreakerHealth::kClosed);
    }
  }
}

EstimationService::EstimationService(ModelRegistry* registry,
                                     const ServeOptions& options)
    : registry_(registry),
      options_(options),
      breaker_(options.breaker_failure_threshold,
               options.breaker_cooldown_requests,
               options.breaker_max_segments),
      accuracy_(options.accuracy) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.recent_capacity == 0) options_.track_accuracy = false;
  if (options_.track_accuracy) recent_.resize(options_.recent_capacity);
  // Feedback correction needs ReportActual observations, so it rides on
  // accuracy tracking; disabled it costs nothing (null pointer check).
  if (options_.feedback.enabled && options_.track_accuracy) {
    feedback_ =
        std::make_unique<feedback::FeedbackManager>(options_.feedback);
  }
  size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // A publish replaces the model the breaker was judging: failure history
  // against the old weights says nothing about the new ones, so start the
  // new epoch with every segment closed instead of serving fallbacks until
  // cooldowns expire. The feedback store likewise keys its corrections to
  // the served model: the publish's PublishInfo decides how much it drops.
  publish_listener_id_ =
      registry_->AddListener([this](const ModelSnapshot& snapshot) {
        breaker_.Reset();
        if (feedback_ != nullptr) feedback_->OnPublish(snapshot);
      });
}

EstimationService::~EstimationService() {
  registry_->RemoveListener(publish_listener_id_);
  Drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void EstimationService::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
}

std::future<EstimateResponse> EstimationService::Submit(
    const EstimateRequest& request) {
  const bool enabled = obs::MetricsEnabled();
  ServeMetrics& m = Metrics();
  if (enabled) m.requests->Increment();

  std::promise<EstimateResponse> promise;
  std::future<EstimateResponse> future = promise.get_future();
  const uint64_t request_id =
      g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  obs::TraceContext trace;
  trace.Start("serve.request");  // no-op while tracing is disabled

  // Admission control: the pending count covers queued + running requests.
  // Over capacity (or a forced serve.queue_full fault) sheds immediately —
  // a typed refusal now beats a deadline miss later.
  const size_t prev = pending_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= options_.queue_capacity ||
      fault::ShouldFail("serve.queue_full")) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    if (enabled) m.shed->Increment();
    if (trace.active()) {
      trace.AddFlag(obs::kTraceShed);
      trace.RecordInstant("serve.shed", obs::TraceContext::kRootSpan,
                          "queue_capacity",
                          static_cast<double>(options_.queue_capacity));
    }
    trace.Finish();
    EstimateResponse response;
    response.request_id = request_id;
    response.status =
        Status::Unavailable("serve: queue full, request shed (capacity " +
                            std::to_string(options_.queue_capacity) + ")");
    promise.set_value(std::move(response));
    return future;
  }
  if (enabled) {
    m.accepted->Increment();
    m.queue_depth->Set(static_cast<double>(prev + 1));
  }
  if (trace.active()) {
    trace.RecordInstant("serve.enqueue", obs::TraceContext::kRootSpan,
                        "queue_depth", static_cast<double>(prev + 1));
  }

  double deadline_ms = request.options.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = options_.default_deadline_ms;
  Pending item;
  item.query.assign(request.query.begin(), request.query.end());
  item.tau = request.tau;
  item.request_id = request_id;
  item.allow_feedback = request.options.allow_feedback_correction;
  item.trace = std::move(trace);
  item.submitted = Clock::now();
  item.deadline =
      item.submitted +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(deadline_ms));
  item.promise = std::move(promise);
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(item));
    depth = queue_.size();
  }
  // Notify only on the transitions that matter: empty -> non-empty (liveness
  // — workers never block on cv_ while the queue is non-empty, because the
  // wait predicate is evaluated under mu_) and reaching a full batch (cuts a
  // lingering worker's wait_for short). Enqueues in between stay silent, so
  // a worker lingering for its batch to fill is not woken once per submit.
  if (depth == 1 || depth >= options_.max_batch) cv_.notify_one();
  return future;
}

void EstimationService::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    // Micro-batching: give a burst batch_linger_us to fill the batch before
    // evaluating what we have. A full batch (or shutdown) cuts the wait
    // short, so a lone request pays at most the linger.
    if (options_.max_batch > 1 && options_.batch_linger_us > 0.0 &&
        queue_.size() < options_.max_batch && !stop_) {
      cv_.wait_for(
          lk,
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::micro>(
                  options_.batch_linger_us)),
          [this] { return stop_ || queue_.size() >= options_.max_batch; });
    }
    std::vector<Pending> batch;
    const size_t take = std::min(queue_.size(), options_.max_batch);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (batch.empty()) continue;
    ++running_;
    lk.unlock();
    ProcessBatch(&batch);
    lk.lock();
    --running_;
    if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
  }
}

void EstimationService::ProcessBatch(std::vector<Pending>* batch_ptr) {
  std::vector<Pending>& batch = *batch_ptr;
  const size_t n = batch.size();
  const bool metrics_on = obs::MetricsEnabled();
  ServeMetrics& m = Metrics();
  if (metrics_on) {
    m.batch_size->Record(static_cast<double>(n));
    if (n > 1) m.batch_coalesced->Add(static_cast<int64_t>(n));
  }

  std::vector<EstimateResponse> responses(n);
  auto finish = [&](size_t i) {
    EstimateResponse& response = responses[i];
    response.batch_size = n;
    response.total_us = MicrosSince(batch[i].submitted);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    if (metrics_on) {
      m.queue_depth->Set(
          static_cast<double>(pending_.load(std::memory_order_relaxed)));
      m.queue_us->Record(response.queue_us);
      m.total_us->Record(response.total_us);
    }
    // Publish the root span (with accumulated outcome flags) before the
    // caller is unblocked, so a DumpTraceJson right after future.get()
    // always sees a complete trace.
    batch[i].trace.Finish();
    batch[i].promise.set_value(std::move(response));
  };

  // Per-request dequeue checks. A request that waited out its deadline in
  // the queue must not consume eval capacity, and a serve.batch_eval fault
  // poisons only its own request — batch mates proceed to evaluation.
  std::vector<size_t> live;
  live.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    responses[i].request_id = batch[i].request_id;
    responses[i].queue_us = MicrosSince(batch[i].submitted);
    obs::TraceContext& trace = batch[i].trace;
    if (trace.active()) {
      // Retro-span over the time the request sat in the queue: the submit
      // timestamp is already on hand, so this costs one clock read.
      const int64_t enq_us = obs::TraceTimeUs(batch[i].submitted);
      trace.RecordSpan("serve.queue", enq_us, obs::TraceNowUs(),
                       trace.NewSpanId(), obs::TraceContext::kRootSpan,
                       "batch_size", static_cast<double>(n));
    }
    if (Clock::now() > batch[i].deadline) {
      if (metrics_on) m.deadline_exceeded->Increment();
      if (trace.active()) {
        trace.AddFlag(obs::kTraceDeadlineExceeded);
        trace.RecordInstant("serve.deadline.queue");
      }
      responses[i].status =
          Status::DeadlineExceeded("serve: deadline passed in queue");
      finish(i);
      continue;
    }
    if (fault::ShouldFail("serve.batch_eval")) {
      if (metrics_on) m.batch_isolated_errors->Increment();
      if (trace.active()) {
        trace.AddFlag(obs::kTraceError);
        trace.RecordInstant("serve.fault.batch_eval");
      }
      responses[i].status = fault::InjectedError("serve.batch_eval");
      finish(i);
      continue;
    }
    live.push_back(i);
  }
  if (live.empty()) return;

  const ModelSnapshot snapshot = registry_->Current();
  if (snapshot.estimator == nullptr) {
    for (size_t i : live) {
      if (metrics_on) m.no_model->Increment();
      obs::TraceContext& trace = batch[i].trace;
      if (trace.active()) {
        trace.AddFlag(obs::kTraceNoModel);
        trace.RecordInstant("serve.no_model");
      }
      responses[i].status = Status::Unavailable("serve: no model published");
      finish(i);
    }
    return;
  }

  const size_t dim = snapshot.estimator->dim();
  std::vector<size_t> eval;
  eval.reserve(live.size());
  for (size_t i : live) {
    if (batch[i].query.size() != dim) {
      obs::TraceContext& trace = batch[i].trace;
      if (trace.active()) {
        trace.AddFlag(obs::kTraceError);
        trace.RecordInstant("serve.bad_request");
      }
      responses[i].status = Status::InvalidArgument(
          "serve: query has " + std::to_string(batch[i].query.size()) +
          " dims, model expects " + std::to_string(dim));
      finish(i);
      continue;
    }
    responses[i].model_epoch = snapshot.epoch;
    eval.push_back(i);
  }
  if (eval.empty()) return;

  // One probe per evaluated request: the estimator fills in per-segment
  // provenance (and parents its per-segment trace events under a
  // pre-allocated "serve.eval" span id — the span itself is recorded
  // retroactively after evaluation, which is legal because span ids are
  // just counters).
  std::vector<EstimateProbe> probes(eval.size());
  std::vector<EstimateProbe*> probe_ptrs(eval.size());
  for (size_t j = 0; j < eval.size(); ++j) {
    obs::TraceContext& trace = batch[eval[j]].trace;
    if (trace.active()) {
      probes[j].trace = &trace;
      probes[j].trace_parent = trace.NewSpanId();
    }
    probe_ptrs[j] = &probes[j];
  }

  const Clock::time_point eval_start = Clock::now();
  std::vector<double> estimates;
  if (eval.size() == 1) {
    // A batch of one takes the single-query path: identical estimates (the
    // batch kernel is parity-tested against it) and no Matrix staging.
    const Pending& p = batch[eval[0]];
    EstimateRequest request;
    request.query = std::span<const float>(p.query.data(), p.query.size());
    request.tau = p.tau;
    request.options.policy = &breaker_;
    request.options.probe = &probes[0];
    estimates.push_back(snapshot.estimator->Estimate(request));
  } else {
    if (metrics_on) m.batch_evals->Increment();
    Matrix queries = Matrix::Uninit(eval.size(), dim);
    std::vector<float> taus(eval.size());
    for (size_t j = 0; j < eval.size(); ++j) {
      queries.SetRow(j, batch[eval[j]].query.data());
      taus[j] = batch[eval[j]].tau;
    }
    estimates = snapshot.estimator->EstimateSearchBatch(
        queries, std::span<const float>(taus.data(), taus.size()), &breaker_,
        std::span<EstimateProbe* const>(probe_ptrs.data(),
                                        probe_ptrs.size()));
  }

  for (size_t j = 0; j < eval.size(); ++j) {
    const size_t i = eval[j];
    obs::TraceContext& trace = batch[i].trace;
    responses[i].estimate = estimates[j];
    responses[i].base_estimate = estimates[j];
    responses[i].fallback_segments = probes[j].fallback_segments;
    if (fault::ShouldFail("serve.slow_eval")) {
      // Deterministically stall past this request's deadline so the
      // post-eval check below fires.
      std::this_thread::sleep_until(batch[i].deadline +
                                    std::chrono::milliseconds(2));
    }
    responses[i].eval_us = MicrosSince(eval_start);
    if (metrics_on) m.eval_us->Record(responses[i].eval_us);
    if (trace.active()) {
      const int64_t start_us = obs::TraceTimeUs(eval_start);
      trace.RecordSpan("serve.eval", start_us,
                       start_us + static_cast<int64_t>(responses[i].eval_us),
                       probes[j].trace_parent, obs::TraceContext::kRootSpan,
                       "segments_evaluated",
                       static_cast<double>(probes[j].evaluated));
    }
    if (Clock::now() > batch[i].deadline) {
      if (metrics_on) m.deadline_exceeded->Increment();
      if (trace.active()) {
        trace.AddFlag(obs::kTraceDeadlineExceeded);
        trace.RecordInstant("serve.deadline.eval", probes[j].trace_parent);
      }
      responses[i].status =
          Status::DeadlineExceeded("serve: evaluation exceeded deadline");
      finish(i);
      continue;
    }
    if (metrics_on) m.completed->Increment();
    // Feedback correction: between the deadline check and the ledger so a
    // corrected answer is both what the caller sees and what the accuracy
    // windows judge; the residual in the store stays relative to the BASE
    // estimate (RememberCompleted keeps both).
    double served = estimates[j];
    if (feedback_ != nullptr && batch[i].allow_feedback) {
      const feedback::FeedbackFeature feature =
          feedback::FeedbackFeature::FromProbe(probes[j], batch[i].tau,
                                               estimates[j]);
      const double population = static_cast<double>(
          snapshot.estimator->segmentation().assignment.size());
      const feedback::CorrectionResult corr =
          feedback_->Correct(feature, population);
      if (corr.corrected) {
        served = corr.estimate;
        responses[i].estimate = served;
        responses[i].corrected = true;
        responses[i].feedback_neighbors = corr.neighbors;
        responses[i].blend_weight = corr.blend_weight;
        if (trace.active()) {
          trace.RecordInstant("serve.feedback", probes[j].trace_parent,
                              "neighbors",
                              static_cast<double>(corr.neighbors));
        }
      }
    }
    RememberCompleted(batch[i], served, estimates[j], snapshot.epoch,
                      probes[j]);
    finish(i);
  }
}

void EstimationService::RememberCompleted(const Pending& item,
                                          double served_estimate,
                                          double base_estimate,
                                          uint64_t epoch,
                                          const EstimateProbe& probe) {
  if (recent_.empty()) return;
  RecentRequest entry;
  entry.id = item.request_id;
  entry.estimate = served_estimate;
  entry.base_estimate = base_estimate;
  entry.epoch = epoch;
  entry.tau = item.tau;
  entry.num_segments = probe.stored;
  for (uint16_t k = 0; k < probe.stored; ++k) {
    entry.segments[k] = probe.segments[k];
    entry.probs[k] = probe.probs[k];
  }
  std::lock_guard<std::mutex> lk(recent_mu_);
  RecentRequest& slot = recent_[item.request_id % recent_.size()];
  // The last ticket consumed from this slot outlives the overwrite so a
  // late duplicate report is rejected explicitly (see ReportActual).
  entry.reported_id = slot.reported_id;
  slot = entry;
}

Status EstimationService::ReportActual(uint64_t request_id,
                                       double true_card) {
  if (!options_.track_accuracy) {
    return Status::FailedPrecondition(
        "serve: accuracy tracking disabled (ServeOptions::track_accuracy)");
  }
  if (request_id == 0) {
    return Status::InvalidArgument("serve: request id 0 is never issued");
  }
  RecentRequest entry;
  {
    std::lock_guard<std::mutex> lk(recent_mu_);
    RecentRequest& slot = recent_[request_id % recent_.size()];
    if (slot.id != request_id) {
      // A second report for a ticket this slot already matched must not be
      // confused with an evicted one — after the ring wraps the slot holds
      // a different live ticket, and only the reported_id pin tells the
      // two cases apart.
      if (slot.reported_id == request_id) {
        if (obs::MetricsEnabled()) Metrics().actual_duplicate->Increment();
        return Status::NotFound("serve: request " +
                                std::to_string(request_id) +
                                " was already reported (duplicate)");
      }
      if (obs::MetricsEnabled()) Metrics().actual_unmatched->Increment();
      return Status::NotFound(
          "serve: request " + std::to_string(request_id) +
          " not in the recent-request ring (unknown, evicted, or already "
          "reported)");
    }
    entry = slot;
    slot.id = 0;  // consume: each ticket matches at most once
    slot.reported_id = request_id;
  }
  // Accuracy windows judge the SERVED estimate (what the caller acted on);
  // the feedback store logs the residual against the BASE estimate (what
  // the model got wrong) — correcting a correction would compound.
  accuracy_.Record(entry.estimate, true_card, entry.tau,
                   std::span<const uint32_t>(entry.segments,
                                             entry.num_segments));
  if (obs::MetricsEnabled()) Metrics().actual_reports->Increment();
  if (feedback_ != nullptr) {
    feedback_->Report(
        feedback::FeedbackFeature::FromArrays(entry.segments, entry.probs,
                                              entry.num_segments, entry.tau,
                                              entry.base_estimate),
        true_card, entry.epoch);
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace simcard
