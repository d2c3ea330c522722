#include "common.h"

#include <cmath>
#include <cstdlib>

#include "common/rng.h"
#include "core/features.h"
#include "shard/shard_builder.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

// Passes of the core replay over the probe set; the first pass also
// counts routing decisions.
constexpr int kCorePasses = 3;
// Rows per EstimateSearchBatch call in the replay (bulk's max_batch).
constexpr size_t kReplayBatch = 64;
// Spans written per traced run; the aggregates use every span.
constexpr size_t kMaxWrittenSpans = 50000;

}  // namespace

simcard::GlEstimatorConfig TrainConfig() {
  return simcard::shard::FastShardConfig(simcard::GlEstimatorConfig::GlCnn());
}

simcard::EstimateRequest RequestFor(const Matrix& queries, const Pair& p) {
  simcard::EstimateRequest req;
  req.query = std::span<const float>(queries.Row(p.row), queries.cols());
  req.tau = p.tau;
  return req;
}

std::vector<Pair> ProbePairs(const SearchWorkload& workload) {
  std::vector<Pair> pairs;
  for (const simcard::LabeledQuery& lq : workload.test) {
    for (const simcard::ThresholdLabel& t : lq.thresholds) {
      pairs.push_back(Pair{lq.row, t.tau, static_cast<double>(t.card)});
    }
  }
  return pairs;
}

std::vector<uint32_t> StreamOrder(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  simcard::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  rng.Shuffle(&order);
  return order;
}

simcard::Result<GlSetup> BuildGl(const std::string& dataset, Scale scale) {
  // The same steps and seeds as eval/harness.cc BuildEnvironment, split so
  // each phase is timed on its own.
  GlSetup s;
  auto spec_or = simcard::GetAnalogSpec(dataset, scale);
  if (!spec_or.ok()) return spec_or.status();
  int64_t t = NowNs();
  auto data_or = simcard::MakeAnalogDataset(dataset, scale, kDataSeed);
  if (!data_or.ok()) return data_or.status();
  s.dataset = std::move(data_or).value();
  s.generate_s = NsToS(NowNs() - t);

  t = NowNs();
  simcard::SegmentationOptions seg_opts;
  seg_opts.target_segments = kSegments;
  seg_opts.seed = kDataSeed + 1;
  auto seg_or = simcard::SegmentData(s.dataset, seg_opts);
  if (!seg_or.ok()) return seg_or.status();
  s.segmentation = std::move(seg_or).value();
  s.segment_s = NsToS(NowNs() - t);

  t = NowNs();
  simcard::WorkloadOptions wl_opts;
  wl_opts.num_train = std::min(kTrainQueries, spec_or.value().train_queries);
  wl_opts.num_test = spec_or.value().test_queries;
  wl_opts.seed = kDataSeed + 2;
  wl_opts.keep_profiles = true;
  auto wl_or =
      simcard::BuildSearchWorkload(s.dataset, &s.segmentation, wl_opts);
  if (!wl_or.ok()) return wl_or.status();
  s.workload = std::move(wl_or).value();
  s.label_s = NsToS(NowNs() - t);

  t = NowNs();
  s.model = std::make_unique<GlEstimator>(TrainConfig());
  simcard::TrainContext ctx;
  ctx.dataset = &s.dataset;
  ctx.workload = &s.workload;
  ctx.segmentation = &s.segmentation;
  ctx.seed = kDataSeed + 7;
  SIMCARD_RETURN_IF_ERROR(s.model->Train(ctx));
  s.train_s = NsToS(NowNs() - t);
  return s;
}

bool AnswerOk(const simcard::Status& status, double estimate,
              double population) {
  return status.ok() && std::isfinite(estimate) && estimate >= 0.0 &&
         estimate <= population;
}

void SetupTimes::Report(Record* record) const {
  record->Set("setup_s", total_s.Percentile(0.5), "s", total_s.size());
  record->Set("data.generate_s", generate_s.Percentile(0.5), "s",
              generate_s.size());
  record->Set("cluster.segment_s", segment_s.Percentile(0.5), "s",
              segment_s.size());
  record->Set("workload.label_s", label_s.Percentile(0.5), "s",
              label_s.size());
  record->Set("core.train_s", train_s.Percentile(0.5), "s", train_s.size());
}

void ReplayCore(const std::vector<const GlEstimator*>& models,
                const Matrix& queries, const std::vector<Pair>& pairs,
                SpanRecorder* spans, Record* record) {
  SpanBuffer* buf = spans->NewBuffer();
  const uint32_t id_features = spans->NameId("core.features");
  const uint32_t id_global = spans->NameId("core.global");
  const uint32_t id_local = spans->NameId("core.local");
  const uint32_t id_estimate = spans->NameId("core.estimate");
  const uint32_t id_batch = spans->NameId("core.batch");
  const uint32_t id_request = spans->NameId("core.replay");

  Samples features_us, global_us, local_us, estimate_us, batch_row_us;
  double parts_ns_total = 0.0, estimate_ns_total = 0.0;
  size_t selected = 0, forced = 0, fallback = 0, routed = 0;
  size_t batch_mismatch = 0;
  size_t model_bytes = 0;
  uint64_t request = 0;
  const size_t dim = queries.cols();

  for (const GlEstimator* model : models) {
    model_bytes += model->ModelSizeBytes();
    std::vector<double> single(pairs.size());
    for (int pass = 0; pass < kCorePasses; ++pass) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        const float* q = queries.Row(pairs[i].row);
        const float tau = pairs[i].tau;
        ++request;
        const int64_t t0 = NowNs();
        std::vector<float> xc = simcard::CentroidDistanceRow(
            q, model->segmentation(), model->dim(), model->metric());
        const int64_t t1 = NowNs();
        std::vector<float> probs =
            model->global_model()->Probabilities(q, tau, xc.data());
        const int64_t t2 = NowNs();
        const uint32_t root = buf->Add(id_request, t0, t2, 0, request);
        buf->Add(id_features, t0, t1, root, request);
        buf->Add(id_global, t1, t2, root, request);

        // The selection itself comes from the estimator; only the local
        // forwards it chose are timed here.
        const std::vector<simcard::SegmentEstimate> segs =
            model->EstimatePerSegment(q, tau);
        int64_t local_ns = 0;
        for (const simcard::SegmentEstimate& se : segs) {
          const simcard::LocalModel* local = model->local_model(se.segment);
          if (se.used_fallback || local == nullptr) continue;
          const int64_t a = NowNs();
          volatile double sink = local->Estimate(q, tau, xc.data());
          (void)sink;
          const int64_t b = NowNs();
          buf->Add(id_local, a, b, root, request);
          local_us.Add(NsToUs(b - a));
          local_ns += b - a;
        }
        simcard::EstimateRequest req;
        req.query = std::span<const float>(q, dim);
        req.tau = tau;
        const int64_t t3 = NowNs();
        single[i] = model->Estimate(req);
        const int64_t t4 = NowNs();
        buf->Add(id_estimate, t3, t4, root, request);

        features_us.Add(NsToUs(t1 - t0));
        global_us.Add(NsToUs(t2 - t1));
        estimate_us.Add(NsToUs(t4 - t3));
        parts_ns_total += static_cast<double>((t2 - t0) + local_ns);
        estimate_ns_total += static_cast<double>(t4 - t3);
        if (pass == 0) {
          ++routed;
          selected += segs.size();
          for (const simcard::SegmentEstimate& se : segs) {
            forced += se.forced ? 1 : 0;
            fallback += se.used_fallback ? 1 : 0;
          }
        }
      }
    }
    for (int pass = 0; pass < kCorePasses; ++pass) {
    for (size_t first = 0; first < pairs.size(); first += kReplayBatch) {
      const size_t rows = std::min(kReplayBatch, pairs.size() - first);
      Matrix batch(rows, dim);
      std::vector<float> taus(rows);
      for (size_t j = 0; j < rows; ++j) {
        batch.SetRow(j, queries.Row(pairs[first + j].row));
        taus[j] = pairs[first + j].tau;
      }
      const int64_t a = NowNs();
      const std::vector<double> out = model->EstimateSearchBatch(
          batch, std::span<const float>(taus.data(), taus.size()));
      const int64_t b = NowNs();
      buf->Add(id_batch, a, b, 0, ++request);
      batch_row_us.Add(NsToUs(b - a) / static_cast<double>(rows));
      for (size_t j = 0; j < rows; ++j) {
        if (!SameBits(out[j], single[first + j])) ++batch_mismatch;
      }
    }
    }
  }
  record->CountOps("core_replay", kCorePasses * pairs.size() * models.size(),
                   batch_mismatch);
  record->Check("core_batch_equals_single", batch_mismatch == 0,
                std::to_string(batch_mismatch) + " batch rows differ");
  record->SetTiming("core.features_us", features_us, "us");
  record->SetTiming("core.global_us", global_us, "us");
  record->SetTiming("core.local_us", local_us, "us");
  record->SetTiming("core.estimate_us", estimate_us, "us");
  record->SetTiming("core.batch_row_us", batch_row_us, "us");
  const double sel = static_cast<double>(std::max<size_t>(selected, 1));
  record->Set("core.segments_per_query",
              static_cast<double>(selected) /
                  static_cast<double>(std::max<size_t>(routed, 1)),
              "count", routed);
  record->Set("core.forced_ratio", static_cast<double>(forced) / sel,
              "ratio", selected);
  record->Set("core.fallback_ratio", static_cast<double>(fallback) / sel,
              "ratio", selected);
  record->Set("core.model_bytes", static_cast<double>(model_bytes), "bytes");
  // Reconciliation: features + global + the selected locals should account
  // for the whole Estimate within 10%; the rest is routing and bookkeeping.
  const double pct =
      estimate_ns_total > 0.0
          ? (parts_ns_total - estimate_ns_total) / estimate_ns_total * 100.0
          : 0.0;
  record->Set("reconcile.core_parts_pct", pct, "%", estimate_us.size());
  record->SetInfo("reconcile.core_within_10pct",
                  std::abs(pct) <= 10.0 ? "yes" : "no");
}

void WriteSpans(const Args& args, const SpanRecorder& spans, Record* record) {
  const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".csv";
  const bool ok = spans.WriteCsv(path, kMaxWrittenSpans);
  record->SetInfo("spans.file", ok ? path : "(write failed)");
  record->SetInfo("spans.recorded", std::to_string(spans.TotalSpans()));
}

void RecordRun(const Args& args, size_t generator_threads,
               size_t service_threads, Record* record) {
  record->SetInfo("nproc", std::to_string(UsableCpus()));
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  record->SetInfo("git_sha", sha != nullptr ? sha : "unknown");
  record->SetInfo("build_type", PERFBENCH_BUILD_TYPE);
  record->SetInfo("cxx_flags", PERFBENCH_CXX_FLAGS);
  record->SetInfo("compiler", __VERSION__);
  record->SetInfo("threads.generator", std::to_string(generator_threads));
  record->SetInfo("threads.service", std::to_string(service_threads));
  record->SetInfo("seed", std::to_string(args.seed));
  record->SetInfo("data_seed", std::to_string(kDataSeed));
  record->SetInfo("scale", simcard::ScaleName(args.scale));
  record->SetInfo("seconds", std::to_string(args.seconds));
  record->SetInfo("trace", args.trace ? "1" : "0");
}

void ReportPeakRss(Record* record) {
  record->Set("peak_rss_mb", PeakRssMb(), "MB");
}

ReadLog::ReadLog(int64_t start_ns, double seconds, uint64_t seed)
    : start_ns_(start_ns),
      end_ns_(start_ns + static_cast<int64_t>(seconds * 1e9)),
      samples_(kSamples, 0.0f),
      rng_(seed * 0x9E3779B97F4A7C15ULL | 1) {}

void ReadLog::Add(int64_t done_ns, double latency_us) {
  ++total_;
  if (done_ns < start_ns_ || done_ns >= end_ns_) return;
  const uint64_t n = ++measured_;
  if (n <= kSamples) {
    samples_[n - 1] = static_cast<float>(latency_us);
    return;
  }
  // Algorithm R: the n-th operation replaces a kept one with probability
  // k/n.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const uint64_t slot = rng_ % n;
  if (slot < kSamples) samples_[slot] = static_cast<float>(latency_us);
}

void ReportReads(std::span<const ReadLog> logs, double seconds,
                 Record* record) {
  // Each kept sample stands for measured / kept operations of its client.
  std::vector<std::pair<float, double>> weighted;
  uint64_t measured = 0;
  for (const ReadLog& log : logs) {
    const size_t kept = std::min<uint64_t>(log.measured_, ReadLog::kSamples);
    const double weight = kept > 0 ? static_cast<double>(log.measured_) /
                                         static_cast<double>(kept)
                                   : 0.0;
    for (size_t i = 0; i < kept; ++i) {
      weighted.emplace_back(log.samples_[i], weight);
    }
    measured += log.measured_;
  }
  std::sort(weighted.begin(), weighted.end());
  double total = 0.0;
  for (const auto& v : weighted) total += v.second;
  // Nearest-rank percentile of the weighted samples.
  auto percentile = [&](double q) -> double {
    double seen = 0.0;
    for (const auto& v : weighted) {
      seen += v.second;
      if (seen >= q * total) return v.first;
    }
    return weighted.empty() ? 0.0 : weighted.back().first;
  };
  record->Set("qps", static_cast<double>(measured) / seconds, "1/s",
              measured);
  record->Set("lat_p50_us", percentile(0.50), "us", measured);
  record->Set("lat_p90_us", percentile(0.90), "us", measured);
  record->Set("lat_p99_us", percentile(0.99), "us", measured);
}

}  // namespace perfbench
