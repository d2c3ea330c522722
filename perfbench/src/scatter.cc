// `scatter`: the sharded tier. A glove-sim dataset is split over 2 shards x
// 8 segments by BuildShardEstimators, each shard served by its own
// one-worker EstimationService behind a ShardedEstimationService configured
// as bench_shard_scatter does. Two planners call Estimate, which scatters
// to the shards and gathers on the calling thread.
#include <thread>

#include "serve/model_registry.h"
#include "shard/shard_builder.h"
#include "shard/shard_partition.h"
#include "shard/sharded_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using simcard::serve::EstimateResponse;
using simcard::serve::ModelRegistry;
using simcard::shard::ShardedEstimateResponse;
using simcard::shard::ShardedEstimationService;

constexpr const char* kDataset = "glove-sim";
constexpr size_t kShards = 2;
constexpr size_t kSegmentsPerShard = 8;
constexpr size_t kPlanners = 2;
constexpr size_t kWorkersPerShard = 1;
// bench_shard_scatter's request deadline; a fired hedge may still lose to
// its primary for the whole budget.
constexpr double kDeadlineMs = 250.0;
constexpr double kWarmupS = 0.5;

simcard::shard::ShardBuildOptions BuildOptions() {
  simcard::shard::ShardBuildOptions options;
  options.num_shards = kShards;
  options.segments_per_shard = kSegmentsPerShard;
  options.seed = kDataSeed;
  options.config = TrainConfig();
  return options;
}

struct Tier {
  Dataset dataset;
  std::vector<std::unique_ptr<ModelRegistry>> registries;
  std::vector<std::shared_ptr<const GlEstimator>> models;
  std::unique_ptr<ShardedEstimationService> service;
};

struct ClientOut {
  uint64_t failed = 0;
  uint64_t partial = 0;
};

/// What the tier must answer when no shard is partial: the per-shard model
/// estimates summed in shard order, clamped to the total population.
double ExpectedSum(const Tier& tier, const simcard::EstimateRequest& req) {
  double sum = 0.0;
  for (const auto& model : tier.models) sum += model->Estimate(req);
  return std::clamp(sum, 0.0, tier.service->total_population());
}

/// One measured phase: each planner's reads and the tier's counts over the
/// phase.
struct PhaseOut {
  std::vector<ReadLog> reads;
  uint64_t ok = 0, failed = 0, partial = 0, hedges = 0, hedges_won = 0;
};

PhaseOut RunPhase(Tier* tier, const Matrix& queries,
                  const std::vector<Pair>& pairs,
                  const std::vector<uint32_t>& order,
                  const std::vector<double>& expected,
                  std::atomic<uint64_t>* cursor, double seconds,
                  SpanRecorder* spans) {
  const uint64_t hedges_before = tier->service->hedges_fired();
  const uint64_t won_before = tier->service->hedges_won();
  const double population = tier->service->total_population();
  const uint32_t id_req = spans->NameId("shard.estimate");
  std::vector<ClientOut> outs(kPlanners);
  std::vector<SpanBuffer*> bufs;
  for (size_t c = 0; c < kPlanners; ++c) bufs.push_back(spans->NewBuffer());
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  PhaseOut phase;
  for (size_t c = 0; c < kPlanners; ++c) {
    phase.reads.emplace_back(start, seconds, c + 1);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kPlanners; ++c) {
    threads.emplace_back([&, c] {
      ClientOut& out = outs[c];
      while (NowNs() < end) {
        const uint32_t i = order[cursor->fetch_add(1) % order.size()];
        const simcard::EstimateRequest req = RequestFor(queries, pairs[i]);
        const int64_t t0 = NowNs();
        const ShardedEstimateResponse r = tier->service->Estimate(req);
        const int64_t t1 = NowNs();
        bool ok = AnswerOk(r.status, r.estimate, population);
        if (r.partial) {
          ++out.partial;
        } else {
          ok = ok && SameBits(r.estimate, expected[i]);
        }
        if (!ok) {
          ++out.failed;
          continue;
        }
        phase.reads[c].Add(t1, NsToUs(t1 - t0));
        bufs[c]->Add(id_req, t0, t1, 0, r.request_id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < kPlanners; ++c) {
    phase.ok += phase.reads[c].size();
    phase.failed += outs[c].failed;
    phase.partial += outs[c].partial;
  }
  phase.hedges = tier->service->hedges_fired() - hedges_before;
  phase.hedges_won = tier->service->hedges_won() - won_before;
  return phase;
}

/// Each request replayed against the tier and then against every shard's
/// own service (the primaries), to split the tier's latency into the
/// slowest primary and the gather around it.
void ReplayShards(Tier* tier, const Matrix& queries,
                  const std::vector<Pair>& pairs, SpanRecorder* spans,
                  Record* record) {
  SpanBuffer* buf = spans->NewBuffer();
  const uint32_t id_tier = spans->NameId("shard.tier");
  const uint32_t id_primary = spans->NameId("shard.primary");
  const uint32_t id_submit = spans->NameId("serve.submit");
  const uint32_t id_wait = spans->NameId("serve.wait");
  Samples tier_us, primary_us, gather_us, submit_us, wait_us, queue_us,
      eval_us, batch_rows;
  uint64_t request = 0;
  for (const Pair& p : pairs) {
    const simcard::EstimateRequest req = RequestFor(queries, p);
    ++request;
    const int64_t t0 = NowNs();
    tier->service->Estimate(req);
    const int64_t t1 = NowNs();
    buf->Add(id_tier, t0, t1, 0, request);
    std::vector<std::future<EstimateResponse>> futures;
    std::vector<int64_t> submitted(kShards);
    const int64_t s0 = NowNs();
    for (size_t k = 0; k < kShards; ++k) {
      futures.push_back(tier->service->shard_service(k)->Submit(req));
      submitted[k] = NowNs();
    }
    int64_t last = s0;
    int64_t prev = s0;
    for (size_t k = 0; k < kShards; ++k) {
      const EstimateResponse r = futures[k].get();
      const int64_t done = NowNs();
      last = std::max(last, done);
      buf->Add(id_submit, prev, submitted[k], 0, request);
      buf->Add(id_wait, submitted[k], done, 0, request);
      submit_us.Add(NsToUs(submitted[k] - prev));
      wait_us.Add(NsToUs(done - submitted[k]));
      queue_us.Add(r.queue_us);
      eval_us.Add(r.eval_us);
      batch_rows.Add(static_cast<double>(r.batch_size));
      prev = submitted[k];
    }
    buf->Add(id_primary, s0, last, 0, request);
    tier_us.Add(NsToUs(t1 - t0));
    primary_us.Add(NsToUs(last - s0));
    gather_us.Add(NsToUs((t1 - t0) - (last - s0)));
  }
  record->SetTiming("serve.submit_us", submit_us, "us");
  record->SetTiming("serve.wait_us", wait_us, "us");
  record->SetTiming("serve.queue_us", queue_us, "us");
  record->SetTiming("serve.eval_us", eval_us, "us");
  record->SetTiming("serve.batch_rows", batch_rows, "count");
  record->SetTiming("shard.primary_us", primary_us, "us");
  // Per request: the tier's latency minus its slowest primary measured
  // right after it on the same input (can read below zero under noise).
  record->SetTiming("shard.gather_us", gather_us, "us");
}

/// BuildShardEstimators' per-shard steps replayed with the same seeds, to
/// time segmentation, labelling and training inside the shard build.
void ReplayShardBuild(const Tier& tier, SpanRecorder* spans,
                      Record* record) {
  const simcard::shard::ShardBuildOptions options = BuildOptions();
  SpanBuffer* buf = spans->NewBuffer();
  auto plan = simcard::shard::PlanPartition(tier.dataset.size(), kShards);
  if (!plan.ok()) return;
  auto parts = simcard::shard::PartitionDataset(tier.dataset, plan.value());
  if (!parts.ok()) return;
  double segment_s = 0.0, label_s = 0.0, train_s = 0.0;
  size_t matches = 0;
  for (size_t k = 0; k < kShards; ++k) {
    const Dataset& data = parts.value()[k];
    int64_t t0 = NowNs();
    simcard::SegmentationOptions seg_opts;
    seg_opts.target_segments = options.segments_per_shard;
    seg_opts.seed = options.seed + 1 + k;
    auto seg = simcard::SegmentData(data, seg_opts);
    int64_t t1 = NowNs();
    buf->Add(spans->NameId("cluster.segment"), t0, t1, 0, k + 1);
    segment_s += NsToS(t1 - t0);
    if (!seg.ok()) return;

    t0 = NowNs();
    simcard::WorkloadOptions wl_opts;
    wl_opts.num_train = options.train_queries;
    wl_opts.num_test = options.test_queries;
    wl_opts.max_selectivity = options.max_selectivity;
    wl_opts.seed = options.seed + 101 + k;
    wl_opts.keep_profiles = false;
    auto wl = simcard::BuildSearchWorkload(data, &seg.value(), wl_opts);
    t1 = NowNs();
    buf->Add(spans->NameId("workload.label"), t0, t1, 0, k + 1);
    label_s += NsToS(t1 - t0);
    if (!wl.ok()) return;

    t0 = NowNs();
    GlEstimator model(options.config);
    simcard::TrainContext ctx;
    ctx.dataset = &data;
    ctx.workload = &wl.value();
    ctx.segmentation = &seg.value();
    ctx.seed = options.seed + 201 + k;
    const simcard::Status st = model.Train(ctx);
    t1 = NowNs();
    buf->Add(spans->NameId("core.train"), t0, t1, 0, k + 1);
    train_s += NsToS(t1 - t0);
    if (st.ok() && model.SaveToBytes() == tier.models[k]->SaveToBytes()) {
      ++matches;
    }
  }
  record->Set("cluster.segment_s", segment_s, "s");
  record->Set("workload.label_s", label_s, "s");
  record->Set("core.train_s", train_s, "s");
  record->SetInfo("shard.build_replay_matches",
                  std::to_string(matches) + "/" + std::to_string(kShards));
}

}  // namespace

int RunScatter(const Args& args, Record* record) {
  RecordRun(args, kPlanners, kShards * kWorkersPerShard, record);
  record->SetInfo("threads.idle",
                  "1 (gather pool; Estimate gathers on the caller)");
  if (kPlanners + kShards * kWorkersPerShard > UsableCpus()) {
    std::fprintf(stderr, "refusing to run: %zu threads exceed %zu CPUs\n",
                 kPlanners + kShards * kWorkersPerShard, UsableCpus());
    return 2;
  }
  simcard::shard::ShardedServeOptions serve_options;
  serve_options.serve.num_threads = kWorkersPerShard;
  serve_options.default_deadline_ms = kDeadlineMs;
  serve_options.hedge.grace_ms = kDeadlineMs;
  serve_options.gather_threads = 1;

  SetupTimes times;
  Samples build_s;
  Tier tier;
  std::vector<std::vector<uint8_t>> first_bytes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tier.service.reset();  // stop the previous repetition before its registries
    tier = Tier{};
    const int64_t t0 = NowNs();
    auto data = simcard::MakeAnalogDataset(kDataset, args.scale, kDataSeed);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    tier.dataset = std::move(data).value();
    const int64_t t1 = NowNs();
    auto built = simcard::shard::BuildShardEstimators(
        tier.dataset, BuildOptions());
    if (!built.ok()) {
      std::fprintf(stderr, "shard build: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    const int64_t t2 = NowNs();
    std::vector<ModelRegistry*> raw;
    for (auto& est : built.value().estimators) {
      tier.models.push_back(std::shared_ptr<const GlEstimator>(std::move(est)));
      tier.registries.push_back(std::make_unique<ModelRegistry>());
      tier.registries.back()->Publish(tier.models.back());
      raw.push_back(tier.registries.back().get());
    }
    tier.service = std::make_unique<ShardedEstimationService>(std::move(raw),
                                                              serve_options);
    times.total_s.Add(NsToS(NowNs() - t0));
    times.generate_s.Add(NsToS(t1 - t0));
    build_s.Add(NsToS(t2 - t1));
    for (size_t k = 0; k < tier.models.size(); ++k) {
      std::vector<uint8_t> bytes = tier.models[k]->SaveToBytes();
      if (rep == 0) first_bytes.push_back(bytes);
      const bool same = bytes == first_bytes[k];
      record->Check("setup_models_identical", same,
                    "shard " + std::to_string(k) + " of repetition " +
                        std::to_string(rep) + (same ? " matches" : " differs"));
    }
  }
  record->Set("setup_s", times.total_s.Percentile(0.5), "s",
              times.total_s.size());
  record->Set("data.generate_s", times.generate_s.Percentile(0.5), "s",
              times.generate_s.size());
  record->Set("shard.build_s", build_s.Percentile(0.5), "s", build_s.size());

  // The held-out probe set: the same test queries and exact labels as plan
  // and bulk (same dataset, counts and seed), labelled once outside set-up.
  auto spec = simcard::GetAnalogSpec(kDataset, args.scale);
  if (!spec.ok()) return 1;
  simcard::WorkloadOptions wl_opts;
  wl_opts.num_train = std::min(kTrainQueries, spec.value().train_queries);
  wl_opts.num_test = spec.value().test_queries;
  wl_opts.seed = kDataSeed + 2;
  wl_opts.keep_profiles = false;
  auto truth = simcard::BuildSearchWorkload(tier.dataset, nullptr, wl_opts);
  if (!truth.ok()) {
    std::fprintf(stderr, "%s\n", truth.status().ToString().c_str());
    return 1;
  }
  const Matrix& queries = truth.value().test_queries;
  const std::vector<Pair> pairs = ProbePairs(truth.value());
  const std::vector<uint32_t> order = StreamOrder(pairs.size(), args.seed);
  std::vector<double> expected(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = ExpectedSum(tier, RequestFor(queries, pairs[i]));
  }

  std::atomic<uint64_t> cursor{0};
  SpanRecorder untraced(false);
  RunPhase(&tier, queries, pairs, order, expected, &cursor, kWarmupS,
           &untraced);
  const double measured = args.trace ? args.seconds / 2 : args.seconds;
  auto account = [&](const PhaseOut& o) {
    record->CountOps("read", o.ok + o.failed, o.failed);
  };
  const PhaseOut base = RunPhase(&tier, queries, pairs, order, expected,
                                 &cursor, measured, &untraced);
  account(base);
  ReportPeakRss(record);
  ReportReads(base.reads, measured, record);
  const double base_qps = static_cast<double>(base.ok) / measured;

  if (args.trace) {
    SpanRecorder spans(true);
    const PhaseOut traced = RunPhase(&tier, queries, pairs, order, expected,
                                     &cursor, measured, &spans);
    account(traced);
    const double traced_qps = static_cast<double>(traced.ok) / measured;
    record->Set("trace.overhead_pct", (base_qps - traced_qps) / base_qps * 100,
                "%");
    const double answered =
        static_cast<double>(std::max<uint64_t>(traced.ok, 1));
    record->Set("shard.hedge_ratio",
                static_cast<double>(traced.hedges) / answered, "ratio",
                traced.ok);
    record->Set("shard.hedge_won_ratio",
                static_cast<double>(traced.hedges_won) /
                    static_cast<double>(std::max<uint64_t>(traced.hedges, 1)),
                "ratio", traced.hedges);
    record->Set("shard.partial_ratio",
                static_cast<double>(traced.partial) / answered, "ratio",
                traced.ok);
    ReplayShards(&tier, queries, pairs, &spans, record);
    std::vector<const GlEstimator*> models;
    for (const auto& m : tier.models) models.push_back(m.get());
    ReplayCore(models, queries, pairs, &spans, record);
    ReplayShardBuild(tier, &spans, record);
    WriteSpans(args, spans, record);
  }

  tier.service->Drain();
  // Exact accuracy through the published shard models, with hedging and the
  // fallback tier kept out of the path.
  ScoreProbe(
      pairs,
      [&](const Pair& p) { return ExpectedSum(tier, RequestFor(queries, p)); },
      record);
  return 0;
}

}  // namespace perfbench
