#include "core/gl_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/checked_file.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/features.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/segment_health.h"
#include "obs/trace.h"

namespace simcard {

GlEstimatorConfig GlEstimatorConfig::LocalPlus() {
  GlEstimatorConfig c;
  c.name = "Local+";
  c.use_cnn_query_tower = true;
  c.use_global_model = false;
  c.auto_tune = true;
  return c;
}

GlEstimatorConfig GlEstimatorConfig::GlMlp() {
  GlEstimatorConfig c;
  c.name = "GL-MLP";
  c.use_cnn_query_tower = false;
  c.use_global_model = true;
  c.auto_tune = false;
  return c;
}

GlEstimatorConfig GlEstimatorConfig::GlCnn() {
  GlEstimatorConfig c;
  c.name = "GL-CNN";
  c.use_cnn_query_tower = true;
  c.use_global_model = true;
  c.auto_tune = false;
  return c;
}

GlEstimatorConfig GlEstimatorConfig::GlPlus() {
  GlEstimatorConfig c;
  c.name = "GL+";
  c.use_cnn_query_tower = true;
  c.use_global_model = true;
  c.auto_tune = true;
  return c;
}

CardModelConfig GlEstimator::LocalConfig() const {
  CardModelConfig config;
  config.query_dim = dim_;
  config.use_cnn_query_tower = config_.use_cnn_query_tower;
  config.qes = tuned_qes_;
  config.mlp_hidden = config_.mlp_hidden;
  config.query_embed = config_.query_embed;
  config.tau_hidden = config_.tau_hidden;
  config.tau_embed = config_.tau_embed;
  config.aux_dim = segmentation_.num_segments();
  config.aux_hidden = config_.aux_hidden;
  config.head_hidden = config_.head_hidden;
  return config;
}

Status GlEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr || ctx.workload == nullptr) {
    return Status::InvalidArgument("GlEstimator: dataset/workload required");
  }
  if (ctx.segmentation == nullptr) {
    return Status::InvalidArgument(
        "GlEstimator: a segmentation is required (Table 2: all GL-family "
        "methods use data segmentation)");
  }
  obs::TraceSpan train_span("gl.train");
  Stopwatch watch;
  segmentation_ = *ctx.segmentation;  // own a mutable copy
  metric_ = ctx.dataset->metric();
  dim_ = ctx.dataset->dim();
  tuned_qes_ = config_.qes;

  const Matrix& queries = ctx.workload->train_queries;
  const Matrix xc =
      BuildCentroidDistanceFeatures(queries, segmentation_, metric_);
  const size_t n_seg = segmentation_.num_segments();

  // Algorithm 3: tune the QES geometry. By default one tuning run on the
  // densest segment's samples is shared by all local models, which keeps
  // the serial part of training short; tune_per_segment restores the
  // paper's per-segment runs.
  if (config_.auto_tune && config_.use_cnn_query_tower &&
      !config_.tune_per_segment) {
    size_t densest = 0;
    for (size_t s = 1; s < n_seg; ++s) {
      if (segmentation_.members[s].size() >
          segmentation_.members[densest].size()) {
        densest = s;
      }
    }
    Rng rng(ctx.seed);
    auto samples = FlattenSegment(ctx.workload->train, densest,
                                  config_.zero_keep_prob, &rng);
    CardModelConfig base = LocalConfig();
    TunerOptions tuner_opts = config_.tuner;
    tuner_opts.seed = ctx.seed + 17;
    auto tuned_or = GreedyTuneQes(queries, &xc, samples, base, tuner_opts);
    if (tuned_or.ok()) {
      tuned_qes_ = tuned_or.value().config;
      SIMCARD_LOG(DEBUG) << Name() << ": tuned " << tuned_qes_.ToString();
    }
  }

  // Serial prelude: build every model in order from its own seed. The
  // per-segment tuning chain stays here too, because each segment's tuning
  // starts from the previous segment's tuned_qes_. status[s] holds local s's
  // outcome and status[n_seg] the global model's; a failed build ends the
  // prelude, as it would have ended the serial loop.
  std::vector<Status> status(n_seg + 1);
  locals_.clear();
  locals_.reserve(n_seg);
  for (size_t s = 0; s < n_seg; ++s) {
    if (config_.auto_tune && config_.use_cnn_query_tower &&
        config_.tune_per_segment) {
      Rng rng(ctx.seed + s);
      auto samples = FlattenSegment(ctx.workload->train, s,
                                    config_.zero_keep_prob, &rng);
      if (samples.size() >= 10) {
        TunerOptions tuner_opts = config_.tuner;
        tuner_opts.seed = ctx.seed + 17 + s;
        auto tuned_or =
            GreedyTuneQes(queries, &xc, samples, LocalConfig(), tuner_opts);
        if (tuned_or.ok()) tuned_qes_ = tuned_or.value().config;
      }
    }
    Rng rng(ctx.seed + 31 * s + 1);
    auto local_or = LocalModel::Build(s, LocalConfig(), &rng);
    if (!local_or.ok()) {
      status[s] = local_or.status();
      break;
    }
    locals_.push_back(std::move(local_or.value()));
    locals_.back()->set_max_card(
        static_cast<double>(segmentation_.members[s].size()));
  }
  global_.reset();
  if (config_.use_global_model && locals_.size() == n_seg) {
    GlobalModelConfig gconfig;
    gconfig.query_dim = dim_;
    gconfig.num_segments = n_seg;
    gconfig.use_cnn_query_tower =
        config_.use_cnn_query_tower && config_.global_use_cnn_query_tower;
    gconfig.qes = config_.qes;  // default geometry, not the tuned one
    gconfig.mlp_hidden = config_.mlp_hidden;
    gconfig.query_embed = config_.query_embed;
    gconfig.tau_hidden = config_.tau_hidden;
    gconfig.tau_embed = config_.tau_embed;
    gconfig.aux_hidden = config_.aux_hidden;
    gconfig.head_hidden = config_.head_hidden;
    gconfig.sigma = config_.sigma;
    Rng rng(ctx.seed + 997);
    auto global_or = GlobalModel::Build(gconfig, &rng);
    if (global_or.ok()) {
      global_ = std::move(global_or.value());
    } else {
      status[n_seg] = global_or.status();
    }
  }

  // Parallel section: Algorithm 1 per segment and Algorithm 2 are
  // independent tasks that share only read-only inputs (queries, xc, the
  // training labels); each owns its model, seeds, watchdog and loss series.
  // The global model, the longest task, is task 0 so it starts first. While
  // fault injection is armed the same loop runs on this thread in task
  // order, so train.nan_loss's shared hit counter picks the same model on
  // every run.
  const size_t first_local = global_ != nullptr ? 1 : 0;
  const size_t num_tasks = first_local + locals_.size();
  {
    obs::TraceSpan models_span("gl.train.models");
    ParallelFor(
        0, num_tasks,
        [&](size_t task) {
          if (task < first_local) {
            obs::TraceSpan global_span("gl.train.global");
            GlobalLabels labels =
                BuildGlobalLabels(ctx.workload->train, n_seg);
            GlobalTrainOptions gopts = config_.global_train;
            gopts.use_penalty = config_.use_penalty;
            gopts.seed = ctx.seed + 499;
            status[n_seg] =
                TrainGlobalModel(global_.get(), queries, xc, labels, gopts)
                    .status();
            return;
          }
          const size_t s = task - first_local;
          CardTrainOptions train_opts = config_.local_train;
          train_opts.seed = ctx.seed + 101 * s;
          status[s] = locals_[s]
                          ->Train(queries, xc, ctx.workload->train,
                                  config_.zero_keep_prob, train_opts)
                          .status();
        },
        /*min_chunk=*/fault::Enabled() ? num_tasks : 1);
  }
  // What the serial loop would have returned: the lowest-numbered failing
  // local, then the global model's failure.
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }

  // Retain a small member sample per segment so inference can degrade to a
  // sampling estimate when a local model is quarantined or non-finite.
  fallbacks_.clear();
  fallbacks_.reserve(n_seg);
  {
    Rng fb_rng(ctx.seed + 7919);
    for (size_t s = 0; s < n_seg; ++s) {
      fallbacks_.push_back(SegmentFallback::FromSegment(
          *ctx.dataset, segmentation_.members[s],
          SegmentFallback::kDefaultSamples, &fb_rng));
    }
  }

  set_training_seconds(watch.ElapsedSeconds());
  if (obs::MetricsEnabled()) {
    obs::GetGauge("gl.train_seconds")->Set(training_seconds());
    obs::GetGauge("gl.num_segments")->Set(static_cast<double>(n_seg));
  }
  return Status::OK();
}

namespace {

// Per-query instrumentation for the GL estimation path. Metric objects are
// resolved once and cached (registry pointers are stable); every recording
// site is gated on the per-query `enabled` flag so a disabled run pays one
// relaxed atomic load and branch.
struct GlQueryMetrics {
  obs::Counter* queries = obs::GetCounter("gl.queries");
  obs::Counter* evaluated = obs::GetCounter("gl.segments_evaluated");
  obs::Counter* pruned = obs::GetCounter("gl.segments_pruned");
  obs::Counter* triangle_excluded = obs::GetCounter("gl.triangle_excluded");
  obs::Counter* triangle_forced = obs::GetCounter("gl.triangle_forced");
  obs::Histogram* global_prob = obs::GetHistogram(
      "gl.global_prob", obs::Histogram::LinearBuckets(0.05, 0.05, 20));
  obs::Histogram* selected_hist = obs::GetHistogram(
      "gl.selected_segments", obs::Histogram::LinearBuckets(1.0, 1.0, 64));
  obs::Histogram* features_us = obs::GetHistogram("gl.latency.features_us");
  obs::Histogram* global_us = obs::GetHistogram("gl.latency.global_us");
  obs::Histogram* locals_us = obs::GetHistogram("gl.latency.locals_us");
  obs::Histogram* total_us = obs::GetHistogram("gl.latency.total_us");
  // Batch-path phase timings are recorded per *batch* (the per-query
  // gl.latency.* histograms stay single-path only so their distributions
  // keep meaning "one query's cost").
  obs::Histogram* batch_rows = obs::GetHistogram(
      "gl.batch.rows", obs::Histogram::LinearBuckets(1.0, 1.0, 64));
  obs::Histogram* batch_features_us =
      obs::GetHistogram("gl.batch.features_us");
  obs::Histogram* batch_global_us = obs::GetHistogram("gl.batch.global_us");
  obs::Histogram* batch_locals_us = obs::GetHistogram("gl.batch.locals_us");
  obs::Histogram* batch_total_us = obs::GetHistogram("gl.batch.total_us");
  // Degradation events, labeled by reason (see DESIGN.md, failure model).
  obs::Counter* fb_invalid_query = obs::GetCounter("simcard.fallback.invalid_query");
  obs::Counter* fb_invalid_tau = obs::GetCounter("simcard.fallback.invalid_tau");
  obs::Counter* fb_local_missing = obs::GetCounter("simcard.fallback.local_missing");
  obs::Counter* fb_local_nonfinite =
      obs::GetCounter("simcard.fallback.local_nonfinite");
  obs::Counter* fb_clamped = obs::GetCounter("simcard.fallback.clamped");
};

GlQueryMetrics& QueryMetrics() {
  static GlQueryMetrics metrics;
  return metrics;
}

// How one selected segment was answered; drives the probe/trace/health
// bookkeeping shared by the single and batch eval loops.
enum class SegOutcome {
  kLocal,     // local model produced the answer
  kFallback,  // sampling fallback (quarantined slot or non-finite local)
  kBreaker,   // policy (circuit breaker) diverted to the fallback
};

// Records one (segment, outcome): per-segment health registry (when
// metrics are on), the request probe, and — when the probe carries an
// active TraceContext — a per-segment trace instant parented under the
// request's eval span. Static-literal event names keep this path
// allocation-free.
void NoteSegmentOutcome(EstimateProbe* probe, bool metrics_enabled, size_t s,
                        SegOutcome outcome, float prob = 1.0f) {
  const bool used_fallback = outcome != SegOutcome::kLocal;
  if (metrics_enabled) {
    obs::SegmentHealthRegistry::Default().RecordEval(s, used_fallback);
  }
  if (probe == nullptr) return;
  probe->NoteSegment(static_cast<uint32_t>(s), used_fallback, prob);
  obs::TraceContext* trace = probe->trace;
  if (trace == nullptr || !trace->active()) return;
  const char* name = "gl.segment";
  switch (outcome) {
    case SegOutcome::kLocal:
      break;
    case SegOutcome::kFallback:
      name = "gl.segment.fallback";
      trace->AddFlag(obs::kTraceFallback);
      break;
    case SegOutcome::kBreaker:
      name = "gl.segment.breaker";
      trace->AddFlag(obs::kTraceFallback | obs::kTraceBreakerShortCircuit);
      break;
  }
  trace->RecordInstant(name, probe->trace_parent, "segment",
                       static_cast<double>(s));
}

bool VectorIsFinite(const float* v, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

// Merges `extra` into the caller's touched-segment list, keeping it
// ascending and unique (callers chain RouteInserts / EraseRows and want one
// combined set).
void MergeTouched(const std::set<size_t>& extra, std::vector<size_t>* out) {
  if (out == nullptr) return;
  std::set<size_t> merged(out->begin(), out->end());
  merged.insert(extra.begin(), extra.end());
  out->assign(merged.begin(), merged.end());
}

// Restores the exact per-segment member lists from a "members" section.
// Validated against the already-loaded segmentation; on any mismatch the
// segmentation keeps its assignment-derived lists and the caller decides
// whether that is fatal (kStrict) or a degradation (kDegraded).
Status RestoreExactMembers(Deserializer* in, Segmentation* seg) {
  uint64_t n = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&n));
  if (n != seg->members.size()) {
    return Status::Internal("members: segment count mismatch");
  }
  std::vector<std::vector<uint32_t>> lists(n);
  for (uint64_t s = 0; s < n; ++s) {
    std::vector<uint64_t> m64;
    SIMCARD_RETURN_IF_ERROR(in->ReadU64Vector(&m64));
    lists[s].reserve(m64.size());
    for (uint64_t idx : m64) {
      if (idx >= seg->assignment.size()) {
        return Status::Internal("members: index out of range");
      }
      lists[s].push_back(static_cast<uint32_t>(idx));
    }
  }
  seg->members = std::move(lists);
  return Status::OK();
}

}  // namespace

double GlEstimator::FallbackEstimate(size_t s, const float* query,
                                     float tau) const {
  if (s >= fallbacks_.size()) return 0.0;
  return fallbacks_[s].Estimate(query, tau, dim_, metric_);
}

size_t GlEstimator::num_quarantined_locals() const {
  size_t n = 0;
  for (const auto& local : locals_) {
    if (local == nullptr) ++n;
  }
  return n;
}

void GlEstimator::SelectWithGuards(const float* probs, const float* xc,
                                   float tau, SelectScratch* scratch,
                                   std::vector<size_t>* selected_out,
                                   std::vector<char>* forced_out) const {
  const bool enabled = obs::MetricsEnabled();
  GlQueryMetrics& m = QueryMetrics();
  const size_t n_seg = locals_.size();
  std::vector<size_t>& selected = *selected_out;
  global_->SelectSegmentsInto(std::span<const float>(probs, n_seg),
                              &selected);
  std::vector<char>& forced = scratch->forced;
  forced.assign(n_seg, 0);
  if (config_.use_triangle_guards) {
    // Exclusion: |d(q,p) - d(q,c)| <= d(c,p) <= radius for all members p,
    // so xc[s] > tau + radius[s] proves the segment holds no match.
    std::vector<char>& keep = scratch->keep;
    keep.assign(n_seg, 0);
    for (size_t s : selected) {
      keep[s] = xc[s] <= tau + segmentation_.radius[s];
      if (enabled && keep[s] == 0) m.triangle_excluded->Increment();
    }
    // Inclusion: a centroid within tau strongly indicates matches; back-
    // stop a global-model miss.
    for (size_t s = 0; s < n_seg; ++s) {
      if (xc[s] <= tau) {
        if (keep[s] == 0) {
          forced[s] = 1;
          if (enabled) m.triangle_forced->Increment();
        }
        keep[s] = 1;
      }
    }
    selected.clear();
    for (size_t s = 0; s < n_seg; ++s) {
      if (keep[s]) selected.push_back(s);
    }
  }
  // The forced flags come back parallel to the selected list; callers that
  // only need the segment set (the batch path) pass null and skip the copy.
  if (forced_out != nullptr) {
    forced_out->clear();
    forced_out->reserve(selected.size());
    for (size_t s : selected) forced_out->push_back(forced[s]);
  }
}

std::vector<SegmentEstimate> GlEstimator::EstimatePerSegment(
    const float* query, float tau, SegmentEvalPolicy* policy,
    EstimateProbe* probe) const {
  const bool enabled = obs::MetricsEnabled();
  GlQueryMetrics& m = QueryMetrics();
  Stopwatch total;
  Stopwatch phase;
  // An estimator must never turn a malformed query into NaN arithmetic: a
  // non-finite query vector or threshold has no meaningful cardinality, so
  // answer 0 (the only estimate valid for every dataset) and record why.
  if (query == nullptr || !VectorIsFinite(query, dim_)) {
    if (enabled) m.fb_invalid_query->Increment();
    return {};
  }
  if (!std::isfinite(tau) || tau < 0.0f) {
    if (enabled) m.fb_invalid_tau->Increment();
    return {};
  }
  std::vector<float> xc =
      segmentation_.CentroidDistances(query, dim_, metric_);
  if (enabled) m.features_us->Record(phase.ElapsedMicros());
  std::vector<size_t> selected;
  std::vector<char> forced;
  // Hoisted out of the global_ branch so the per-segment outcome loop below
  // can hand each segment's membership probability to the probe (empty means
  // no global model: every segment reports probability 1).
  std::vector<float> gprobs;
  if (global_ != nullptr) {
    if (enabled) phase.Restart();
    gprobs = global_->Probabilities(query, tau, xc.data());
    if (enabled) {
      m.global_us->Record(phase.ElapsedMicros());
      for (float p : gprobs) m.global_prob->Record(p);
    }
    SelectScratch scratch;
    SelectWithGuards(gprobs.data(), xc.data(), tau, &scratch, &selected,
                     &forced);
  } else {
    selected.resize(locals_.size());
    for (size_t s = 0; s < locals_.size(); ++s) selected[s] = s;
    forced.assign(locals_.size(), 0);
  }
  if (enabled) phase.Restart();
  std::vector<SegmentEstimate> out;
  out.reserve(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    const size_t s = selected[i];
    const float prob = gprobs.empty() ? 1.0f : gprobs[s];
    SegmentEstimate se;
    se.segment = s;
    se.forced = forced[i] != 0;
    if (probe != nullptr && se.forced) probe->NoteForced();
    if (locals_[s] == nullptr) {
      // Quarantined by a degraded load: the sampling fallback answers.
      se.estimate = FallbackEstimate(s, query, tau);
      se.used_fallback = true;
      if (enabled) m.fb_local_missing->Increment();
      NoteSegmentOutcome(probe, enabled, s, SegOutcome::kFallback, prob);
    } else if (policy != nullptr && policy->ForceFallback(s)) {
      // The caller's policy (e.g. an open circuit breaker) short-circuits
      // this segment to the fallback without touching the local model.
      se.estimate = FallbackEstimate(s, query, tau);
      se.used_fallback = true;
      NoteSegmentOutcome(probe, enabled, s, SegOutcome::kBreaker, prob);
    } else {
      double est = locals_[s]->Estimate(query, tau, xc.data());
      if (fault::ShouldFail("gl.local_eval")) {
        est = std::numeric_limits<double>::quiet_NaN();
      }
      const bool ok = std::isfinite(est) && est >= 0.0;
      if (policy != nullptr) policy->OnLocalResult(s, ok);
      if (!ok) {
        est = FallbackEstimate(s, query, tau);
        se.used_fallback = true;
        if (enabled) m.fb_local_nonfinite->Increment();
      }
      se.estimate = est;
      NoteSegmentOutcome(probe, enabled, s,
                         ok ? SegOutcome::kLocal : SegOutcome::kFallback,
                         prob);
    }
    out.push_back(se);
  }
  if (enabled) {
    m.locals_us->Record(phase.ElapsedMicros());
    m.total_us->Record(total.ElapsedMicros());
    m.queries->Increment();
    m.evaluated->Add(static_cast<int64_t>(selected.size()));
    m.pruned->Add(static_cast<int64_t>(locals_.size() - selected.size()));
    m.selected_hist->Record(static_cast<double>(selected.size()));
  }
  return out;
}

double GlEstimator::Estimate(const EstimateRequest& request) {
  return static_cast<const GlEstimator*>(this)->Estimate(request);
}

double GlEstimator::Estimate(const EstimateRequest& request) const {
  if (!QueryHasDim(request, dim_)) return 0.0;
  double total = 0.0;
  for (const SegmentEstimate& se :
       EstimatePerSegment(request.query.data(), request.tau,
                          request.options.policy, request.options.probe)) {
    total += se.estimate;
  }
  // A cardinality is a count over the dataset: clamp to [0, |D|] so no
  // degradation path can surface an impossible answer.
  const double dataset_size =
      static_cast<double>(segmentation_.assignment.size());
  if (!std::isfinite(total) || total < 0.0) {
    if (obs::MetricsEnabled()) QueryMetrics().fb_clamped->Increment();
    return 0.0;
  }
  if (total > dataset_size) {
    if (obs::MetricsEnabled()) QueryMetrics().fb_clamped->Increment();
    return dataset_size;
  }
  return total;
}

std::vector<double> GlEstimator::EstimateBatch(
    const BatchEstimateRequest& request) {
  if (request.queries == nullptr) return {};
  return EstimateSearchBatch(*request.queries, request.taus,
                             request.options.policy);
}

std::vector<double> GlEstimator::EstimateSearchBatch(
    const Matrix& queries, std::span<const float> taus,
    SegmentEvalPolicy* policy,
    std::span<EstimateProbe* const> probes) const {
  const bool enabled = obs::MetricsEnabled();
  // `probes` is indexed by original row; packed index i maps back through
  // valid[i]. Short spans and null entries mean "no probe for that row".
  auto probe_for = [&](size_t packed_i, const std::vector<size_t>& valid)
      -> EstimateProbe* {
    const size_t r = valid[packed_i];
    return r < probes.size() ? probes[r] : nullptr;
  };
  GlQueryMetrics& m = QueryMetrics();
  const size_t batch = queries.rows();
  std::vector<double> out(batch, 0.0);
  if (batch == 0) return out;
  Stopwatch total;
  Stopwatch phase;
  if (enabled) m.batch_rows->Record(static_cast<double>(batch));

  // Per-row validation mirrors the single-query path: malformed rows answer
  // 0 (with the same fallback counters) and drop out of the packed batch.
  std::vector<size_t> valid;
  valid.reserve(batch);
  for (size_t r = 0; r < batch; ++r) {
    if (queries.cols() != dim_ || !VectorIsFinite(queries.Row(r), dim_)) {
      if (enabled) m.fb_invalid_query->Increment();
      continue;
    }
    const float tau = r < taus.size()
                          ? taus[r]
                          : std::numeric_limits<float>::quiet_NaN();
    if (!std::isfinite(tau) || tau < 0.0f) {
      if (enabled) m.fb_invalid_tau->Increment();
      continue;
    }
    valid.push_back(r);
  }
  if (valid.empty()) return out;
  const size_t nv = valid.size();
  const size_t n_seg = locals_.size();

  // One x_C feature build for the whole batch (BatchDistances kernel). The
  // common all-rows-valid batch runs on the caller's matrix directly; only
  // a batch with rejected rows pays for a packed copy. valid[i] == i when
  // nothing was rejected, so vq->Row(i) is the right row either way, and
  // taus[valid[i]] is row i's threshold in both cases.
  Matrix packed;
  const Matrix* vq = &queries;
  if (nv != batch) {
    packed = Matrix::Uninit(nv, dim_);
    for (size_t i = 0; i < nv; ++i) packed.SetRow(i, queries.Row(valid[i]));
    vq = &packed;
  }
  const Matrix xc =
      BuildCentroidDistanceFeatures(*vq, segmentation_, metric_);
  if (enabled) m.batch_features_us->Record(phase.ElapsedMicros());

  // One global forward for the whole batch; routing is thresholded row by
  // row through the same SelectWithGuards as the single-query path, so the
  // per-query pruning decisions are identical. Each row's segment set is
  // scattered straight into the per-segment row lists (the inverted
  // routing): segments are walked in ascending order downstream, and each
  // row was admitted to its segments in ascending order here, so every
  // row's contributions accumulate in ascending-segment order — the same
  // summation order as the single-query path, which is what keeps the
  // final totals bitwise identical.
  std::vector<std::vector<size_t>> rows_for_seg(n_seg);
  std::vector<uint32_t> sel_count(nv, 0);
  if (enabled) phase.Restart();
  // Hoisted out of the global_ branch so the per-segment outcome loops below
  // can hand each (row, segment) membership probability to the row's probe
  // (zero rows means no global model: probability 1 everywhere).
  Matrix gprobs;
  auto prob_at = [&](size_t i, size_t s) -> float {
    return gprobs.rows() == 0 ? 1.0f : gprobs.Row(i)[s];
  };
  if (global_ != nullptr) {
    Matrix vtau = Matrix::Uninit(nv, 1);
    for (size_t i = 0; i < nv; ++i) vtau.at(i, 0) = taus[valid[i]];
    gprobs = global_->ApplyBatch(*vq, vtau, xc);
    SelectScratch scratch;
    std::vector<size_t> selected_row;
    std::vector<char> forced_row;
    for (size_t i = 0; i < nv; ++i) {
      const float* src = gprobs.Row(i);
      if (enabled) {
        for (size_t s = 0; s < n_seg; ++s) m.global_prob->Record(src[s]);
      }
      // Forced-include flags are only materialized when this row has a
      // probe to receive them; probe-less batches keep the cheaper call.
      EstimateProbe* probe = probe_for(i, valid);
      SelectWithGuards(src, xc.Row(i), taus[valid[i]], &scratch,
                       &selected_row, probe != nullptr ? &forced_row : nullptr);
      sel_count[i] = static_cast<uint32_t>(selected_row.size());
      if (probe != nullptr) {
        for (char f : forced_row) {
          if (f) probe->NoteForced();
        }
      }
      for (size_t s : selected_row) rows_for_seg[s].push_back(i);
    }
  } else {
    for (size_t s = 0; s < n_seg; ++s) {
      rows_for_seg[s].resize(nv);
      for (size_t i = 0; i < nv; ++i) rows_for_seg[s][i] = i;
    }
    for (size_t i = 0; i < nv; ++i) sel_count[i] = static_cast<uint32_t>(n_seg);
  }
  if (enabled) m.batch_global_us->Record(phase.ElapsedMicros());

  if (enabled) phase.Restart();
  std::vector<double> sums(nv, 0.0);
  std::vector<size_t> eval_rows;
  for (size_t s = 0; s < n_seg; ++s) {
    const std::vector<size_t>& rows = rows_for_seg[s];
    if (rows.empty()) continue;
    if (locals_[s] == nullptr) {
      // Quarantined by a degraded load: the sampling fallback answers.
      for (size_t i : rows) {
        sums[i] += FallbackEstimate(s, vq->Row(i), taus[valid[i]]);
        if (enabled) m.fb_local_missing->Increment();
        NoteSegmentOutcome(probe_for(i, valid), enabled, s,
                           SegOutcome::kFallback, prob_at(i, s));
      }
      continue;
    }
    // The policy is consulted once per (row, segment) pair, matching the
    // single path's call count; rows it diverts answer from the fallback.
    eval_rows.clear();
    for (size_t i : rows) {
      if (policy != nullptr && policy->ForceFallback(s)) {
        sums[i] += FallbackEstimate(s, vq->Row(i), taus[valid[i]]);
        NoteSegmentOutcome(probe_for(i, valid), enabled, s,
                           SegOutcome::kBreaker, prob_at(i, s));
      } else {
        eval_rows.push_back(i);
      }
    }
    if (eval_rows.empty()) continue;
    Matrix sq = Matrix::Uninit(eval_rows.size(), dim_);
    Matrix stau = Matrix::Uninit(eval_rows.size(), 1);
    Matrix sxc = Matrix::Uninit(eval_rows.size(), xc.cols());
    for (size_t j = 0; j < eval_rows.size(); ++j) {
      const size_t i = eval_rows[j];
      sq.SetRow(j, vq->Row(i));
      stau.at(j, 0) = taus[valid[i]];
      sxc.SetRow(j, xc.Row(i));
    }
    const std::vector<double> ests = locals_[s]->EstimateBatch(sq, stau, sxc);
    for (size_t j = 0; j < eval_rows.size(); ++j) {
      const size_t i = eval_rows[j];
      double est = ests[j];
      if (fault::ShouldFail("gl.local_eval")) {
        est = std::numeric_limits<double>::quiet_NaN();
      }
      const bool ok = std::isfinite(est) && est >= 0.0;
      if (policy != nullptr) policy->OnLocalResult(s, ok);
      if (!ok) {
        est = FallbackEstimate(s, vq->Row(i), taus[valid[i]]);
        if (enabled) m.fb_local_nonfinite->Increment();
      }
      NoteSegmentOutcome(probe_for(i, valid), enabled, s,
                         ok ? SegOutcome::kLocal : SegOutcome::kFallback,
                         prob_at(i, s));
      sums[i] += est;
    }
  }
  if (enabled) m.batch_locals_us->Record(phase.ElapsedMicros());

  // Per-row clamp to [0, |D|] plus the per-query counters, identical to
  // the single-query path.
  const double dataset_size =
      static_cast<double>(segmentation_.assignment.size());
  for (size_t i = 0; i < nv; ++i) {
    double v = sums[i];
    if (!std::isfinite(v) || v < 0.0) {
      if (enabled) m.fb_clamped->Increment();
      v = 0.0;
    } else if (v > dataset_size) {
      if (enabled) m.fb_clamped->Increment();
      v = dataset_size;
    }
    out[valid[i]] = v;
    if (enabled) {
      m.queries->Increment();
      m.evaluated->Add(static_cast<int64_t>(sel_count[i]));
      m.pruned->Add(static_cast<int64_t>(n_seg - sel_count[i]));
      m.selected_hist->Record(static_cast<double>(sel_count[i]));
    }
  }
  if (enabled) m.batch_total_us->Record(total.ElapsedMicros());
  return out;
}

size_t GlEstimator::ModelSizeBytes() const {
  size_t scalars = 0;
  for (const auto& local : locals_) {
    if (local == nullptr) continue;  // quarantined by a degraded load
    scalars += local->NumScalars();
  }
  if (global_ != nullptr) scalars += global_->NumScalars();
  // Centroids are part of the deployed model (x_C needs them), as are the
  // retained fallback samples.
  scalars += segmentation_.centroids.size();
  for (const auto& fb : fallbacks_) scalars += fb.samples.size();
  return scalars * sizeof(float);
}

double GlEstimator::MissingRate(const SearchWorkload& workload) const {
  if (global_ == nullptr) return 0.0;
  double missing = 0.0;
  size_t counted = 0;
  for (const auto& lq : workload.test) {
    const float* q = workload.test_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      if (t.card <= 0.0f || t.seg_cards.empty()) continue;
      std::vector<float> xc = segmentation_.CentroidDistances(q, dim_, metric_);
      auto selected = global_->SelectSegments(
          global_->Probabilities(q, t.tau, xc.data()));
      std::set<size_t> chosen(selected.begin(), selected.end());
      double missed = 0.0;
      for (size_t s = 0; s < t.seg_cards.size(); ++s) {
        if (chosen.count(s) == 0) missed += t.seg_cards[s];
      }
      missing += missed / t.card;
      ++counted;
    }
  }
  return counted > 0 ? missing / static_cast<double>(counted) : 0.0;
}

double GlEstimator::MeanSelectedSegments(
    const SearchWorkload& workload) const {
  if (global_ == nullptr) return static_cast<double>(locals_.size());
  double total = 0.0;
  size_t counted = 0;
  for (const auto& lq : workload.test) {
    const float* q = workload.test_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      std::vector<float> xc = segmentation_.CentroidDistances(q, dim_, metric_);
      total += static_cast<double>(
          global_->SelectSegments(global_->Probabilities(q, t.tau, xc.data()))
              .size());
      ++counted;
    }
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

Status GlEstimator::ApplyDeletions(const Dataset& dataset,
                                   SearchWorkload* workload,
                                   size_t num_removed, uint64_t seed,
                                   size_t fine_tune_epochs) {
  if (locals_.empty()) {
    return Status::FailedPrecondition("ApplyDeletions: estimator not trained");
  }
  if (workload == nullptr) {
    return Status::InvalidArgument("ApplyDeletions: workload required");
  }
  if (dataset.size() + num_removed != segmentation_.assignment.size()) {
    return Status::InvalidArgument(
        "ApplyDeletions: dataset must already be truncated by num_removed");
  }
  const std::vector<size_t> touched =
      segmentation_.RemoveTrailingPoints(num_removed);
  RebuildFallbacks(dataset, touched, seed);
  SIMCARD_RETURN_IF_ERROR(RelabelWorkload(dataset, &segmentation_, workload));

  const Matrix xc = BuildCentroidDistanceFeatures(workload->train_queries,
                                                  segmentation_, metric_);
  SIMCARD_RETURN_IF_ERROR(FineTuneLocalsSeeded(*workload, xc, touched, seed,
                                               41, 3, fine_tune_epochs));
  return FineTuneGlobalWithFeatures(*workload, xc, seed + 43,
                                    fine_tune_epochs);
}

Status GlEstimator::RouteInserts(const Dataset& dataset,
                                 const std::vector<uint32_t>& new_rows,
                                 std::vector<size_t>* touched) {
  if (locals_.empty()) {
    return Status::FailedPrecondition("RouteInserts: estimator not trained");
  }
  for (uint32_t row : new_rows) {
    if (row >= dataset.size()) {
      return Status::InvalidArgument(
          "RouteInserts: new_rows must index appended dataset rows");
    }
  }
  std::set<size_t> t;
  for (uint32_t row : new_rows) {
    const float* p = dataset.Point(row);
    const size_t seg = segmentation_.NearestSegment(p, dim_, metric_);
    segmentation_.AddPoint(seg, row, p, dim_, metric_);
    t.insert(seg);
    if (locals_[seg] == nullptr) continue;  // quarantined; fallback only
    // Keep the clamp consistent with the grown segment.
    locals_[seg]->set_max_card(
        static_cast<double>(segmentation_.members[seg].size()));
  }
  MergeTouched(t, touched);
  return Status::OK();
}

Status GlEstimator::EraseRows(const Dataset& dataset,
                              const std::vector<uint32_t>& rows,
                              std::vector<size_t>* touched,
                              bool recompute_summaries) {
  if (locals_.empty()) {
    return Status::FailedPrecondition("EraseRows: estimator not trained");
  }
  if (rows.empty()) return Status::OK();
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i] >= rows[i + 1]) {
      return Status::InvalidArgument(
          "EraseRows: rows must be ascending and unique");
    }
  }
  if (dataset.size() + rows.size() != segmentation_.assignment.size() ||
      rows.back() >= segmentation_.assignment.size()) {
    return Status::InvalidArgument(
        "EraseRows: dataset must already be compacted by exactly these rows");
  }
  const std::vector<size_t> t = segmentation_.EraseRows(rows);
  if (recompute_summaries) segmentation_.RecomputeSummaries(dataset, t);
  for (size_t s : t) {
    if (locals_[s] == nullptr) continue;
    locals_[s]->set_max_card(
        static_cast<double>(segmentation_.members[s].size()));
  }
  MergeTouched(std::set<size_t>(t.begin(), t.end()), touched);
  return Status::OK();
}

void GlEstimator::RebuildFallbacks(const Dataset& dataset,
                                   const std::vector<size_t>& segments,
                                   uint64_t seed) {
  if (fallbacks_.size() < locals_.size()) fallbacks_.resize(locals_.size());
  Rng fb_rng(seed + 7919);
  for (size_t s : segments) {
    if (s >= fallbacks_.size()) continue;
    fallbacks_[s] = SegmentFallback::FromSegment(
        dataset, segmentation_.members[s], SegmentFallback::kDefaultSamples,
        &fb_rng);
    if (s >= locals_.size() || locals_[s] == nullptr) continue;
    locals_[s]->set_max_card(
        static_cast<double>(segmentation_.members[s].size()));
  }
}

Status GlEstimator::FineTuneLocalsSeeded(const SearchWorkload& workload,
                                         const Matrix& xc,
                                         const std::vector<size_t>& segments,
                                         uint64_t base_seed, uint64_t mul,
                                         uint64_t add, size_t epochs) {
  const Matrix& queries = workload.train_queries;
  for (size_t s : segments) {
    if (s >= locals_.size() || locals_[s] == nullptr) continue;
    CardTrainOptions opts = config_.local_train;
    opts.seed = base_seed + mul * s + add;
    auto ft_or = locals_[s]->FineTune(queries, xc, workload.train,
                                      config_.zero_keep_prob, opts, epochs);
    if (!ft_or.ok()) return ft_or.status();
  }
  return Status::OK();
}

Status GlEstimator::FineTuneGlobalWithFeatures(const SearchWorkload& workload,
                                               const Matrix& xc, uint64_t seed,
                                               size_t epochs) {
  if (global_ == nullptr) return Status::OK();
  GlobalLabels labels =
      BuildGlobalLabels(workload.train, segmentation_.num_segments());
  GlobalTrainOptions gopts = config_.global_train;
  gopts.use_penalty = config_.use_penalty;
  gopts.epochs = epochs;
  gopts.seed = seed;
  auto gloss_or = TrainGlobalModel(global_.get(), workload.train_queries, xc,
                                   labels, gopts);
  if (!gloss_or.ok()) return gloss_or.status();
  return Status::OK();
}

Status GlEstimator::FineTuneSegments(const SearchWorkload& workload,
                                     const std::vector<size_t>& segments,
                                     uint64_t seed, size_t epochs) {
  if (locals_.empty()) {
    return Status::FailedPrecondition(
        "FineTuneSegments: estimator not trained");
  }
  const Matrix xc = BuildCentroidDistanceFeatures(workload.train_queries,
                                                  segmentation_, metric_);
  return FineTuneLocalsSeeded(workload, xc, segments, seed, 13, 7, epochs);
}

Status GlEstimator::FineTuneGlobal(const SearchWorkload& workload,
                                   uint64_t seed, size_t epochs) {
  if (global_ == nullptr) return Status::OK();
  const Matrix xc = BuildCentroidDistanceFeatures(workload.train_queries,
                                                  segmentation_, metric_);
  return FineTuneGlobalWithFeatures(workload, xc, seed, epochs);
}

Status GlEstimator::WriteCheckedSections(CheckedFileWriter* writer_ptr) const {
  if (locals_.empty()) {
    return Status::FailedPrecondition("SaveToFile: estimator not trained");
  }
  CheckedFileWriter& writer = *writer_ptr;
  Serializer* meta = writer.AddSection("meta");
  meta->WriteU32(static_cast<uint32_t>(metric_));
  meta->WriteU64(dim_);
  meta->WriteU64(locals_.size());
  meta->WriteU32(global_ != nullptr ? 1 : 0);
  segmentation_.Serialize(writer.AddSection("segmentation"));
  {
    // The segmentation section only carries `assignment`; deriving member
    // lists from it loses their ORDER (which seeds fallback re-sampling)
    // and mis-files rows that AddPoint's resize zero-filled but never
    // routed. Persisting the exact lists makes a snapshot taken mid-refresh
    // round-trip bit-for-bit.
    Serializer* mem = writer.AddSection("members");
    mem->WriteU64(segmentation_.members.size());
    for (const auto& m : segmentation_.members) {
      mem->WriteU64Vector(std::vector<uint64_t>(m.begin(), m.end()));
    }
  }
  tuned_qes_.Serialize(writer.AddSection("qes"));
  {
    Serializer* fb = writer.AddSection("fallback");
    fb->WriteU64(fallbacks_.size());
    for (const auto& fallback : fallbacks_) fallback.Serialize(fb);
  }
  for (size_t s = 0; s < locals_.size(); ++s) {
    Serializer* out = writer.AddSection("local." + std::to_string(s));
    // A quarantined slot round-trips as "absent" so a degraded model can
    // still be re-saved.
    out->WriteU32(locals_[s] != nullptr ? 1 : 0);
    if (locals_[s] != nullptr) locals_[s]->Save(out);
  }
  if (global_ != nullptr) {
    global_->SaveWithConfig(writer.AddSection("global"));
  }
  return Status::OK();
}

Status GlEstimator::SaveToFile(const std::string& path) const {
  CheckedFileWriter writer;
  SIMCARD_RETURN_IF_ERROR(WriteCheckedSections(&writer));
  return writer.Save(path);
}

std::vector<uint8_t> GlEstimator::SaveToBytes() const {
  CheckedFileWriter writer;
  if (!WriteCheckedSections(&writer).ok()) return {};
  return writer.Assemble();
}

Status GlEstimator::LoadFromBytes(std::vector<uint8_t> bytes, LoadMode mode) {
  auto reader_or = CheckedFileReader::FromBytes(std::move(bytes));
  if (!reader_or.ok()) return reader_or.status();
  const CheckedFileReader reader = std::move(reader_or).value();

  // Structural sections are required intact in both modes: without them
  // there is no segmentation to route queries or bound estimates with.
  auto meta_or = reader.OpenSection("meta");
  if (!meta_or.ok()) return meta_or.status();
  Deserializer meta = std::move(meta_or).value();
  uint32_t metric = 0;
  uint64_t dim = 0;
  uint64_t n_locals = 0;
  uint32_t has_global = 0;
  SIMCARD_RETURN_IF_ERROR(meta.ReadU32(&metric));
  SIMCARD_RETURN_IF_ERROR(meta.ReadU64(&dim));
  SIMCARD_RETURN_IF_ERROR(meta.ReadU64(&n_locals));
  SIMCARD_RETURN_IF_ERROR(meta.ReadU32(&has_global));
  metric_ = static_cast<Metric>(metric);
  dim_ = dim;

  auto seg_or = reader.OpenSection("segmentation");
  if (!seg_or.ok()) return seg_or.status();
  Deserializer seg = std::move(seg_or).value();
  SIMCARD_RETURN_IF_ERROR(segmentation_.Deserialize(&seg));
  // Exact member lists, when present (files written before the section
  // existed keep the assignment-derived lists). Corruption fails a strict
  // load; a degraded load keeps the derived lists — routing still works,
  // only fallback re-sampling order is lost.
  if (reader.HasSection("members")) {
    auto mem_or = reader.OpenSection("members");
    Status st = mem_or.status();
    if (mem_or.ok()) {
      Deserializer mem = std::move(mem_or).value();
      st = RestoreExactMembers(&mem, &segmentation_);
    }
    if (!st.ok()) {
      if (mode == LoadMode::kStrict) return st;
      SIMCARD_LOG(WARN) << "degraded load: exact member lists unavailable, "
                        << "keeping assignment-derived lists ("
                        << st.ToString() << ")";
    }
  }
  auto qes_or = reader.OpenSection("qes");
  if (!qes_or.ok()) return qes_or.status();
  Deserializer qes = std::move(qes_or).value();
  SIMCARD_RETURN_IF_ERROR(tuned_qes_.Deserialize(&qes));

  fallbacks_.clear();
  {
    auto fb_or = reader.OpenSection("fallback");
    if (!fb_or.ok() && mode == LoadMode::kStrict) return fb_or.status();
    if (fb_or.ok()) {
      Deserializer fb = std::move(fb_or).value();
      uint64_t n_fb = 0;
      SIMCARD_RETURN_IF_ERROR(fb.ReadU64(&n_fb));
      fallbacks_.reserve(n_fb);
      for (uint64_t i = 0; i < n_fb; ++i) {
        SegmentFallback fallback;
        SIMCARD_RETURN_IF_ERROR(fallback.Deserialize(&fb));
        fallbacks_.push_back(std::move(fallback));
      }
    } else {
      SIMCARD_LOG(WARN) << "degraded load: fallback samples unavailable ("
                        << fb_or.status().ToString() << ")";
    }
  }
  if (fallbacks_.size() < n_locals) fallbacks_.resize(n_locals);

  locals_.clear();
  locals_.reserve(n_locals);
  size_t quarantined = 0;
  for (uint64_t s = 0; s < n_locals; ++s) {
    const std::string name = "local." + std::to_string(s);
    auto section_or = reader.OpenSection(name);
    Status st = section_or.status();
    if (section_or.ok()) {
      Deserializer in = std::move(section_or).value();
      uint32_t present = 0;
      st = in.ReadU32(&present);
      if (st.ok() && present == 0) {
        locals_.push_back(nullptr);  // saved as absent; not corruption
        continue;
      }
      if (st.ok()) {
        auto local_or = LocalModel::Load(&in);
        st = local_or.status();
        if (st.ok()) {
          locals_.push_back(std::move(local_or).value());
          continue;
        }
      }
    }
    if (mode == LoadMode::kStrict) return st;
    SIMCARD_LOG(WARN) << "degraded load: quarantining " << name << " ("
                      << st.ToString() << ")";
    locals_.push_back(nullptr);
    ++quarantined;
  }
  if (obs::MetricsEnabled() && quarantined > 0) {
    obs::GetCounter("simcard.load.quarantined")
        ->Add(static_cast<int64_t>(quarantined));
  }

  global_.reset();
  if (has_global != 0) {
    auto section_or = reader.OpenSection("global");
    Status st = section_or.status();
    if (section_or.ok()) {
      Deserializer in = std::move(section_or).value();
      auto global_or = GlobalModel::LoadWithConfig(&in);
      st = global_or.status();
      if (st.ok()) global_ = std::move(global_or).value();
    }
    if (global_ == nullptr) {
      if (mode == LoadMode::kStrict) return st;
      // Without a router every local model is evaluated — slower, but the
      // estimate quality only depends on the locals.
      SIMCARD_LOG(WARN) << "degraded load: global model unavailable, "
                        << "evaluating all segments (" << st.ToString()
                        << ")";
    }
  }
  return Status::OK();
}

Status GlEstimator::LoadFromFile(const std::string& path, LoadMode mode) {
  auto bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  return LoadFromBytes(std::move(bytes_or).value(), mode);
}

Status GlEstimator::ApplyUpdates(const Dataset& dataset,
                                 SearchWorkload* workload,
                                 const std::vector<uint32_t>& new_rows,
                                 uint64_t seed, size_t fine_tune_epochs) {
  if (locals_.empty()) {
    return Status::FailedPrecondition("ApplyUpdates: estimator not trained");
  }
  if (workload == nullptr) {
    return Status::InvalidArgument("ApplyUpdates: workload required");
  }

  // Step 1 (Section 5.3): route each inserted point to its nearest segment.
  std::vector<size_t> touched;
  SIMCARD_RETURN_IF_ERROR(RouteInserts(dataset, new_rows, &touched));
  RebuildFallbacks(dataset, touched, seed);

  // Step 2: refresh query labels against the grown dataset.
  SIMCARD_RETURN_IF_ERROR(RelabelWorkload(dataset, &segmentation_, workload));

  // Step 3: fine-tune the affected local models and the global model.
  const Matrix xc = BuildCentroidDistanceFeatures(workload->train_queries,
                                                  segmentation_, metric_);
  SIMCARD_RETURN_IF_ERROR(FineTuneLocalsSeeded(*workload, xc, touched, seed,
                                               13, 7, fine_tune_epochs));
  return FineTuneGlobalWithFeatures(*workload, xc, seed + 29,
                                    fine_tune_epochs);
}

}  // namespace simcard
