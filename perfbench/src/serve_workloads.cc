// `plan` and `bulk`: one glove-sim model behind an EstimationService, driven
// by two traffic shapes. plan is the optimizer-in-the-loop path (two
// planners, each Submit -> wait -> ReportActual, feedback on, no batching);
// bulk keeps a 256-request window in flight against batching workers.
#include <algorithm>
#include <deque>
#include <future>
#include <thread>

#include "feedback/feedback_manager.h"
#include "serve/estimation_service.h"
#include "serve/model_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using simcard::serve::EstimateResponse;
using simcard::serve::EstimationService;
using simcard::serve::ModelRegistry;
using simcard::serve::ServeOptions;

constexpr size_t kBulkWindow = 256;
// Deadlines far above any healthy latency: a host stall must show as
// latency, not as a failed request.
constexpr double kDeadlineMs = 2000.0;
// Warm-up bounds: at least this long, and for plan until the feedback store
// has filled (capped so a broken store cannot hang the run).
constexpr double kWarmupS = 0.5;
constexpr double kWarmupCapS = 10.0;

struct ServeShape {
  bool plan = true;
  size_t generators = 2;
  ServeOptions options;
};

ServeShape MakeShape(bool plan) {
  ServeShape shape;
  shape.plan = plan;
  shape.options.default_deadline_ms = kDeadlineMs;
  if (plan) {
    shape.generators = 2;
    shape.options.num_threads = 2;
    shape.options.max_batch = 1;
    shape.options.feedback.enabled = true;
  } else {
    shape.generators = 1;
    shape.options.num_threads = 3;
    shape.options.max_batch = 64;
    shape.options.batch_linger_us = 50.0;
    shape.options.queue_capacity = 2 * kBulkWindow;
  }
  return shape;
}

/// What the stream needs to send and check requests.
struct Stream {
  const Matrix* queries = nullptr;
  const std::vector<Pair>* pairs = nullptr;
  std::vector<uint32_t> order;
  std::vector<double> expected;  ///< single-path Estimate per pair
  double population = 0.0;
};

/// One client thread's results; the traced samples stay empty untraced.
struct ClientOut {
  uint64_t ok = 0;
  uint64_t failed = 0;
  Samples submit_us, wait_us, report_us, queue_us, eval_us, batch_rows;
  /// (report time, pair index) of every ReportActual, for the replay.
  std::vector<std::pair<int64_t, uint32_t>> reported;
  /// plan: client latency minus the service's own queue_us + eval_us.
  Samples handoff_us;
  /// plan: requests whose queue_us + eval_us fit inside the client latency.
  uint64_t within = 0;
};

/// One measured phase: each client's reads and the clients' other results
/// merged.
struct PhaseOut {
  std::vector<ReadLog> logs;
  ClientOut merged;
};

simcard::EstimateRequest MakeRequest(const Stream& s, uint32_t i) {
  return RequestFor(*s.queries, (*s.pairs)[i]);
}

void PlanClient(EstimationService* svc, const Stream& s,
                std::atomic<uint64_t>* cursor, int64_t end_ns,
                SpanBuffer* buf, SpanRecorder* spans, ReadLog* reads,
                ClientOut* out) {
  const uint32_t id_req = spans->NameId("plan.request");
  const uint32_t id_submit = spans->NameId("serve.submit");
  const uint32_t id_wait = spans->NameId("serve.wait");
  const uint32_t id_report = spans->NameId("serve.report");
  while (NowNs() < end_ns) {
    const uint32_t i = s.order[cursor->fetch_add(1) % s.order.size()];
    const simcard::EstimateRequest req = MakeRequest(s, i);
    const int64_t t0 = NowNs();
    std::future<EstimateResponse> fut = svc->Submit(req);
    const int64_t t1 = NowNs();
    const EstimateResponse r = fut.get();
    const int64_t t2 = NowNs();
    bool ok = AnswerOk(r.status, r.estimate, s.population) &&
              SameBits(r.base_estimate, s.expected[i]);
    if (r.status.ok()) {
      ok = svc->ReportActual(r.request_id, (*s.pairs)[i].truth).ok() && ok;
    }
    const int64_t t3 = NowNs();
    if (!ok) {
      ++out->failed;
      continue;
    }
    ++out->ok;
    reads->Add(t2, NsToUs(t2 - t0));
    if (buf->enabled()) {
      const uint32_t root = buf->Add(id_req, t0, t3, 0, r.request_id);
      buf->Add(id_submit, t0, t1, root, r.request_id);
      buf->Add(id_wait, t1, t2, root, r.request_id);
      buf->Add(id_report, t2, t3, root, r.request_id);
      // The service times queue and eval on its own clock reads; what the
      // client waits beyond them is handoff (submit, wake-up, feedback
      // lookup, promise delivery).
      const double client_us = NsToUs(t2 - t0);
      const double service_us = r.queue_us + r.eval_us;
      out->handoff_us.Add(client_us - service_us);
      out->within += service_us <= client_us ? 1 : 0;
      out->submit_us.Add(NsToUs(t1 - t0));
      out->wait_us.Add(NsToUs(t2 - t1));
      out->report_us.Add(NsToUs(t3 - t2));
      out->queue_us.Add(r.queue_us);
      out->eval_us.Add(r.eval_us);
      out->batch_rows.Add(static_cast<double>(r.batch_size));
      out->reported.emplace_back(t3, i);
    }
  }
}

void BulkClient(EstimationService* svc, const Stream& s,
                std::atomic<uint64_t>* cursor, int64_t end_ns,
                SpanBuffer* buf, SpanRecorder* spans, ReadLog* reads,
                ClientOut* out) {
  const uint32_t id_req = spans->NameId("bulk.request");
  const uint32_t id_submit = spans->NameId("serve.submit");
  const uint32_t id_wait = spans->NameId("serve.wait");
  struct InFlight {
    std::future<EstimateResponse> fut;
    int64_t t0 = 0;
    int64_t t1 = 0;
    uint32_t i = 0;
  };
  std::deque<InFlight> window;
  while (true) {
    while (window.size() < kBulkWindow && NowNs() < end_ns) {
      InFlight f;
      f.i = s.order[cursor->fetch_add(1) % s.order.size()];
      const simcard::EstimateRequest req = MakeRequest(s, f.i);
      f.t0 = NowNs();
      f.fut = svc->Submit(req);
      f.t1 = NowNs();
      window.push_back(std::move(f));
    }
    if (window.empty()) break;
    InFlight f = std::move(window.front());
    window.pop_front();
    const EstimateResponse r = f.fut.get();
    const int64_t t2 = NowNs();
    // Batched answers must be bitwise the single-query answers.
    if (!AnswerOk(r.status, r.estimate, s.population) ||
        !SameBits(r.estimate, s.expected[f.i])) {
      ++out->failed;
      continue;
    }
    ++out->ok;
    reads->Add(t2, NsToUs(t2 - f.t0));
    if (buf->enabled()) {
      const uint32_t root = buf->Add(id_req, f.t0, t2, 0, r.request_id);
      buf->Add(id_submit, f.t0, f.t1, root, r.request_id);
      buf->Add(id_wait, f.t1, t2, root, r.request_id);
      out->submit_us.Add(NsToUs(f.t1 - f.t0));
      out->wait_us.Add(NsToUs(t2 - f.t1));
      out->queue_us.Add(r.queue_us);
      out->eval_us.Add(r.eval_us);
      out->batch_rows.Add(static_cast<double>(r.batch_size));
    }
  }
}

/// Runs the shape's clients for `seconds` and merges their results.
PhaseOut RunPhase(const ServeShape& shape, EstimationService* svc,
                  const Stream& s, std::atomic<uint64_t>* cursor,
                  double seconds, SpanRecorder* spans) {
  std::vector<ClientOut> outs(shape.generators);
  std::vector<SpanBuffer*> bufs;
  for (size_t c = 0; c < shape.generators; ++c) {
    bufs.push_back(spans->NewBuffer());
  }
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  PhaseOut phase;
  for (size_t c = 0; c < shape.generators; ++c) {
    phase.logs.emplace_back(start, seconds, c + 1);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < shape.generators; ++c) {
    threads.emplace_back([&, c] {
      if (shape.plan) {
        PlanClient(svc, s, cursor, end, bufs[c], spans, &phase.logs[c],
                   &outs[c]);
      } else {
        BulkClient(svc, s, cursor, end, bufs[c], spans, &phase.logs[c],
                   &outs[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClientOut& merged = phase.merged;
  for (const ClientOut& o : outs) {
    merged.ok += o.ok;
    merged.failed += o.failed;
    merged.submit_us.Append(o.submit_us);
    merged.wait_us.Append(o.wait_us);
    merged.report_us.Append(o.report_us);
    merged.queue_us.Append(o.queue_us);
    merged.eval_us.Append(o.eval_us);
    merged.batch_rows.Append(o.batch_rows);
    merged.reported.insert(merged.reported.end(), o.reported.begin(),
                           o.reported.end());
    merged.handoff_us.Append(o.handoff_us);
    merged.within += o.within;
  }
  std::sort(merged.reported.begin(), merged.reported.end());
  return phase;
}

/// The feedback layer replayed on a benchmark-owned manager fed the same
/// reports, in the same order, as the service's own manager.
void ReplayFeedback(const GlEstimator& model, uint64_t epoch,
                    const simcard::feedback::FeedbackOptions& options,
                    const Stream& s,
                    const std::vector<std::pair<int64_t, uint32_t>>& reported,
                    SpanRecorder* spans, Record* record) {
  namespace fb = simcard::feedback;
  SpanBuffer* buf = spans->NewBuffer();
  const uint32_t id_correct = spans->NameId("feedback.correct");
  const uint32_t id_record = spans->NameId("feedback.record");
  std::vector<fb::FeedbackFeature> features(s.pairs->size());
  for (size_t i = 0; i < features.size(); ++i) {
    simcard::EstimateProbe probe;
    simcard::EstimateRequest req = MakeRequest(s, static_cast<uint32_t>(i));
    req.options.probe = &probe;
    const double base = model.Estimate(req);
    features[i] = fb::FeedbackFeature::FromProbe(probe, req.tau, base);
  }
  fb::FeedbackManager manager(options);
  Samples correct_us, record_us;
  size_t corrected = 0;
  uint64_t request = 0;
  for (const auto& [at, i] : reported) {
    ++request;
    const int64_t t0 = NowNs();
    const fb::CorrectionResult corr =
        manager.Correct(features[i], s.population);
    const int64_t t1 = NowNs();
    manager.Report(features[i], (*s.pairs)[i].truth, epoch);
    const int64_t t2 = NowNs();
    buf->Add(id_correct, t0, t1, 0, request);
    buf->Add(id_record, t1, t2, 0, request);
    correct_us.Add(NsToUs(t1 - t0));
    record_us.Add(NsToUs(t2 - t1));
    corrected += corr.corrected ? 1 : 0;
  }
  record->SetTiming("feedback.correct_us", correct_us, "us");
  record->SetTiming("feedback.record_us", record_us, "us");
  record->Set("feedback.corrected_ratio",
              static_cast<double>(corrected) /
                  static_cast<double>(std::max<size_t>(reported.size(), 1)),
              "ratio", reported.size());
}

}  // namespace

int RunServeWorkload(const Args& args, bool plan, Record* record) {
  const ServeShape shape = MakeShape(plan);
  RecordRun(args, shape.generators, shape.options.num_threads, record);
  if (shape.generators + shape.options.num_threads > UsableCpus()) {
    std::fprintf(stderr, "refusing to run: %zu threads exceed %zu CPUs\n",
                 shape.generators + shape.options.num_threads, UsableCpus());
    return 2;
  }

  // Set-up, repeated: each repetition must produce the identical model.
  SetupTimes times;
  std::unique_ptr<GlSetup> setup;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<EstimationService> service;
  std::shared_ptr<const GlEstimator> model;
  std::vector<uint8_t> first_bytes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    registry.reset();
    model.reset();
    setup.reset();
    const int64_t t0 = NowNs();
    auto built = BuildGl("glove-sim", args.scale);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up: %s\n", built.status().ToString().c_str());
      return 1;
    }
    setup = std::make_unique<GlSetup>(std::move(built).value());
    model = std::shared_ptr<const GlEstimator>(std::move(setup->model));
    registry = std::make_unique<ModelRegistry>();
    registry->Publish(model);
    service = std::make_unique<EstimationService>(registry.get(),
                                                  shape.options);
    times.total_s.Add(NsToS(NowNs() - t0));
    times.generate_s.Add(setup->generate_s);
    times.segment_s.Add(setup->segment_s);
    times.label_s.Add(setup->label_s);
    times.train_s.Add(setup->train_s);
    std::vector<uint8_t> bytes = model->SaveToBytes();
    if (rep == 0) first_bytes = bytes;
    record->Check("setup_models_identical", bytes == first_bytes,
                  "model bytes of set-up repetition " + std::to_string(rep) +
                      (bytes == first_bytes ? " match" : " differ"));
  }
  times.Report(record);

  const std::vector<Pair> pairs = ProbePairs(setup->workload);
  Stream stream;
  stream.queries = &setup->workload.test_queries;
  stream.pairs = &pairs;
  stream.order = StreamOrder(pairs.size(), args.seed);
  stream.population = static_cast<double>(setup->dataset.size());
  stream.expected.resize(pairs.size());
  for (uint32_t i = 0; i < pairs.size(); ++i) {
    stream.expected[i] = model->Estimate(MakeRequest(stream, i));
  }

  std::atomic<uint64_t> cursor{0};
  SpanRecorder untraced(false);
  {
    // Warm-up: lazy set-up done, and for plan the feedback store full.
    const int64_t start = NowNs();
    while (true) {
      RunPhase(shape, service.get(), stream, &cursor, 0.1, &untraced);
      const double waited = NsToS(NowNs() - start);
      const bool store_full =
          !plan || service->feedback()->store().size() >=
                       service->feedback()->store().capacity();
      if ((waited >= kWarmupS && store_full) || waited >= kWarmupCapS) {
        record->Check("warmup_complete", store_full,
                      !plan        ? "warm-up done"
                      : store_full ? "feedback store full"
                                   : "feedback store not full after warm-up");
        break;
      }
    }
  }

  const double measured = args.trace ? args.seconds / 2 : args.seconds;
  const PhaseOut base_phase = RunPhase(shape, service.get(), stream, &cursor,
                                       measured, &untraced);
  const ClientOut& base = base_phase.merged;
  record->CountOps("read", base.ok + base.failed, base.failed);
  ReportPeakRss(record);
  ReportReads(base_phase.logs, measured, record);
  const double base_qps = static_cast<double>(base.ok) / measured;

  if (args.trace) {
    SpanRecorder spans(true);
    const PhaseOut traced_phase = RunPhase(shape, service.get(), stream,
                                           &cursor, measured, &spans);
    const ClientOut& traced = traced_phase.merged;
    record->CountOps("read", traced.ok + traced.failed, traced.failed);
    const double traced_qps = static_cast<double>(traced.ok) / measured;
    record->Set("trace.overhead_pct", (base_qps - traced_qps) / base_qps * 100,
                "%");
    record->SetTiming("serve.submit_us", traced.submit_us, "us");
    record->SetTiming("serve.wait_us", traced.wait_us, "us");
    record->SetTiming("serve.queue_us", traced.queue_us, "us");
    record->SetTiming("serve.eval_us", traced.eval_us, "us");
    record->SetTiming("serve.batch_rows", traced.batch_rows, "count");
    if (plan) {
      record->SetTiming("serve.report_us", traced.report_us, "us");
      record->SetTiming("reconcile.plan_handoff_us", traced.handoff_us, "us");
      record->Set("reconcile.plan_service_within_ratio",
                  static_cast<double>(traced.within) /
                      static_cast<double>(std::max<uint64_t>(traced.ok, 1)),
                  "ratio", traced.ok);
      ReplayFeedback(*model, registry->epoch(), shape.options.feedback,
                     stream, traced.reported, &spans, record);
    }
    ReplayCore({model.get()}, *stream.queries, pairs, &spans, record);
    WriteSpans(args, spans, record);
  }

  service->Drain();
  ScoreProbe(
      pairs,
      [&](const Pair& p) {
        return model->Estimate(RequestFor(*stream.queries, p));
      },
      record);
  return 0;
}

}  // namespace perfbench
