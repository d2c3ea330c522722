#include "app/cli_app.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/gl_estimator.h"
#include "data/generators.h"
#include "dist/metric.h"
#include "eval/harness.h"
#include "eval/reporter.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/telemetry.h"
#include "serve/estimation_service.h"
#include "serve/model_registry.h"
#include "shard/shard_builder.h"
#include "shard/sharded_service.h"
#include "update/update_manager.h"

namespace simcard {
namespace {

constexpr char kUsage[] =
    "usage: simcard_cli "
    "<generate|train|estimate|evaluate|update-bench|telemetry-dump|"
    "chaos-drill|shard-bench|feedback-bench> "
    "[flags]\n"
    "  generate --dataset=<analog> [--scale=S] [--seed=N] --out=FILE\n"
    "  train    --data=FILE --method=M [--segments=N] [--scale=S]\n"
    "           [--seed=N] --out=FILE        (M in GL+/Local+/GL-CNN/GL-MLP)\n"
    "  estimate --data=FILE --model=FILE --query-row=N --tau=X\n"
    "  evaluate --data=FILE --model=FILE [--segments=N] [--seed=N]\n"
    "  update-bench --data=FILE --model=FILE [--delta-fraction=F]\n"
    "           [--refresh-threshold=N] [--refresh-epochs=N]\n"
    "           [--refresh-stale-fraction=F] [--refresh-stale-shift=F]\n"
    "           [--refresh-full-reseg=F] [--segments=N] [--scale=S]\n"
    "           [--seed=N]\n"
    "           (online-update drill: stages F*|D| inserts+erases against a\n"
    "           served model, runs a drift-aware refresh, and reports stale\n"
    "           vs refreshed q-error; --refresh-threshold=N refreshes via\n"
    "           periodic Tick once N deltas are pending instead of one\n"
    "           explicit Refresh)\n"
    "  telemetry-dump --data=FILE --model=FILE [--requests=N] [--tau=X]\n"
    "           [--threads=N] [--deadline-ms=D] [--max-batch=N]\n"
    "           [--telemetry-out=STEM] [--trace-out=FILE]\n"
    "           (observability drill: serves phased traffic — normal with\n"
    "           ground-truth ReportActual, forced sheds, forced deadline\n"
    "           misses, forced local-model failures — then writes a\n"
    "           telemetry snapshot + Prometheus text; arms its own faults)\n"
    "  chaos-drill --data=FILE --model=FILE [--journal=DIR] [--rounds=N]\n"
    "           [--requests=N] [--deltas=N] [--threads=N] [--tau=X]\n"
    "           [--group-commit=N] [--delta-capacity=N]\n"
    "           [--refresh-retry-budget=N] [--refresh-retry-base-ms=D]\n"
    "           [--refresh-retry-max-ms=D] [--segments=N] [--scale=S]\n"
    "           [--seed=N]\n"
    "           (durability drill: concurrent serving + delta ingestion +\n"
    "           refreshes under a seeded fault schedule with simulated\n"
    "           process kills + journal recovery between rounds; verifies\n"
    "           zero acked-delta loss, monotone epochs, clamped estimates,\n"
    "           and recovery convergence, then prints key=value invariants\n"
    "           and PASS/FAIL; --shards=N switches to the sharded drill:\n"
    "           N per-shard update managers + journals behind one\n"
    "           scatter-gather tier, with individual shards stalled,\n"
    "           failed, killed, and recovered mid-traffic — verifies every\n"
    "           request answered, partial responses only in faulted\n"
    "           rounds, zero acked-delta loss per shard, per-shard\n"
    "           monotone epochs; prints shard-drill: key=value lines;\n"
    "           the single-node drill also serves with the execution-\n"
    "           feedback loop enabled and runs a final feedback phase on\n"
    "           the recovered registry, asserting corrected answers stay\n"
    "           clamped + provenance-marked and that corrections never\n"
    "           survive recovery)\n"
    "  shard-bench --data=FILE [--shards=N] [--requests=N] [--tau=X]\n"
    "           [--deadline-ms=D] [--segments=N] [--seed=N]\n"
    "           (sharded scatter-gather drill: trains one estimator per\n"
    "           shard in-process, serves a clean phase then a stall-\n"
    "           injected phase so hedges fire and partial provenance\n"
    "           appears; the canonical producer of simcard.shard.*\n"
    "           metrics for --metrics-out / --trace-out)\n"
    "  feedback-bench --data=FILE --model=FILE [--requests=N] [--tau=X]\n"
    "           [--threads=N] [--deadline-ms=D] [--feedback-capacity=N]\n"
    "           [--feedback-min-neighbors=K] [--feedback-radius=R]\n"
    "           [--feedback-max-factor=F] [--telemetry-out=STEM]\n"
    "           (execution-feedback drill: repeated waves of the same N\n"
    "           query rows close the loop with brute-force ground truth\n"
    "           through ReportActual; once K same-key observations\n"
    "           accumulate, answers come back residual-corrected — the\n"
    "           drill reports base vs corrected q-error, then re-publishes\n"
    "           the model to prove epoch invalidation: the store drains\n"
    "           and a pre-publish ticket reports stale. The canonical\n"
    "           producer of the simcard.feedback.* metric family and the\n"
    "           telemetry snapshot's \"feedback\" rows)\n"
    "every command also accepts --metrics-out=FILE to write a JSON metrics\n"
    "report (SIMCARD_METRICS=1 enables collection without a report file),\n"
    "--trace-out=FILE to enable request tracing and write the tail-sampled\n"
    "simcard.traces.v1 report at exit (SIMCARD_TRACE=1 enables collection\n"
    "without a report file), --telemetry-out=STEM to write a telemetry\n"
    "snapshot (STEM-latest.json + STEM.prom) at exit,\n"
    "--fault=SPEC to arm deterministic fault injection (e.g.\n"
    "\"points=io.load;prob=0.5;seed=7\"; see SIMCARD_FAULT_* env knobs),\n"
    "and estimate/evaluate accept --degraded to quarantine corrupt model\n"
    "sections instead of failing the load\n";

Result<CommandLine> ParseFlags(int argc, const char* const* argv,
                               std::vector<std::string> known) {
  // Skip argv[1] (the subcommand) by shifting.
  std::vector<char*> shifted;
  shifted.push_back(const_cast<char*>(argv[0]));
  for (int i = 2; i < argc; ++i) {
    shifted.push_back(const_cast<char*>(argv[i]));
  }
  return CommandLine::Parse(static_cast<int>(shifted.size()), shifted.data(),
                            known);
}

Result<Dataset> LoadDataset(const std::string& path) {
  auto in_or = Deserializer::FromFile(path);
  if (!in_or.ok()) return in_or.status();
  Deserializer in = std::move(in_or).value();
  return Dataset::Deserialize(&in);
}

// Deterministically rebuilds segmentation + workload for a dataset file, so
// train/evaluate agree on the split without persisting labels.
Result<ExperimentEnv> RebuildEnv(Dataset dataset, size_t segments,
                                 uint64_t seed, Scale scale) {
  ExperimentEnv env;
  auto spec_or = GetAnalogSpec(dataset.name(), scale);
  if (!spec_or.ok()) return spec_or.status();
  env.spec = spec_or.value();
  env.scale = scale;
  env.seed = seed;
  env.dataset = std::move(dataset);

  SegmentationOptions seg_opts;
  seg_opts.target_segments = segments;
  seg_opts.seed = seed + 1;
  auto seg_or = SegmentData(env.dataset, seg_opts);
  if (!seg_or.ok()) return seg_or.status();
  env.segmentation = std::move(seg_or.value());

  WorkloadOptions wl_opts;
  wl_opts.num_train = std::min<size_t>(env.spec.train_queries,
                                       env.dataset.size() / 4);
  wl_opts.num_test = std::min<size_t>(env.spec.test_queries,
                                      env.dataset.size() / 8);
  wl_opts.seed = seed + 2;
  wl_opts.keep_profiles = false;
  auto wl_or = BuildSearchWorkload(env.dataset, &env.segmentation, wl_opts);
  if (!wl_or.ok()) return wl_or.status();
  env.workload = std::move(wl_or).value();
  return env;
}

int Fail(std::ostream& err, const Status& status) {
  err << status.ToString() << "\n";
  return 1;
}

int CmdGenerate(const CommandLine& cl, std::ostream& out, std::ostream& err) {
  const std::string name = cl.GetString("dataset", "");
  const std::string path = cl.GetString("out", "");
  if (name.empty() || path.empty()) {
    err << "generate: --dataset and --out are required\n";
    return 2;
  }
  auto scale_or = ParseScale(cl.GetString("scale", "small"));
  if (!scale_or.ok()) return Fail(err, scale_or.status());
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 2026));
  auto data_or = MakeAnalogDataset(name, scale_or.value(), seed);
  if (!data_or.ok()) return Fail(err, data_or.status());
  Serializer ser;
  data_or.value().Serialize(&ser);
  if (Status st = ser.SaveToFile(path); !st.ok()) return Fail(err, st);
  out << "wrote " << data_or.value().size() << " points ("
      << data_or.value().dim() << " dims, "
      << MetricName(data_or.value().metric()) << ") to " << path << "\n";
  return 0;
}

int CmdTrain(const CommandLine& cl, std::ostream& out, std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  const std::string model_path = cl.GetString("out", "");
  const std::string method = cl.GetString("method", "GL-CNN");
  if (data_path.empty() || model_path.empty()) {
    err << "train: --data and --out are required\n";
    return 2;
  }
  auto scale_or = ParseScale(cl.GetString("scale", "small"));
  if (!scale_or.ok()) return Fail(err, scale_or.status());
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 2026));
  const size_t segments = static_cast<size_t>(cl.GetInt("segments", 16));
  auto env_or = RebuildEnv(std::move(data_or).value(), segments, seed,
                           scale_or.value());
  if (!env_or.ok()) return Fail(err, env_or.status());
  ExperimentEnv env = std::move(env_or).value();

  auto est_or = MakeEstimatorByName(method, scale_or.value());
  if (!est_or.ok()) return Fail(err, est_or.status());
  auto* gl = dynamic_cast<GlEstimator*>(est_or.value().get());
  if (gl == nullptr) {
    err << "train: only GL-family methods can be saved (got " << method
        << ")\n";
    return 2;
  }
  TrainContext ctx = MakeTrainContext(env);
  if (Status st = gl->Train(ctx); !st.ok()) return Fail(err, st);
  if (Status st = gl->SaveToFile(model_path); !st.ok()) return Fail(err, st);
  out << "trained " << method << " in " << FormatPaperNumber(
             gl->training_seconds())
      << "s (" << gl->num_local_models() << " local models, "
      << FormatPaperNumber(gl->ModelSizeBytes() / 1e6) << " MB) -> "
      << model_path << "\n";
  return 0;
}

// Loads a model with a neutral config (behavioral knobs only matter for
// further training).
Result<std::unique_ptr<GlEstimator>> LoadModel(const CommandLine& cl,
                                               const std::string& path) {
  auto est = std::make_unique<GlEstimator>(GlEstimatorConfig::GlCnn());
  const auto mode = cl.GetBool("degraded", false)
                        ? GlEstimator::LoadMode::kDegraded
                        : GlEstimator::LoadMode::kStrict;
  SIMCARD_RETURN_IF_ERROR(est->LoadFromFile(path, mode));
  return est;
}

int CmdEstimate(const CommandLine& cl, std::ostream& out, std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  const std::string model_path = cl.GetString("model", "");
  if (data_path.empty() || model_path.empty()) {
    err << "estimate: --data and --model are required\n";
    return 2;
  }
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const Dataset& dataset = data_or.value();
  auto est_or = LoadModel(cl, model_path);
  if (!est_or.ok()) return Fail(err, est_or.status());
  const size_t row = static_cast<size_t>(cl.GetInt("query-row", 0));
  if (row >= dataset.size()) {
    err << "estimate: --query-row out of range\n";
    return 2;
  }
  const float tau = static_cast<float>(cl.GetDouble("tau", 0.1));
  EstimateRequest request;
  request.query =
      std::span<const float>(dataset.Point(row), dataset.dim());
  request.tau = tau;
  const double estimate = est_or.value()->Estimate(request);
  out << "card(row " << row << ", tau " << tau
      << ") ~= " << FormatPaperNumber(estimate) << "\n";
  return 0;
}

int CmdEvaluate(const CommandLine& cl, std::ostream& out, std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  const std::string model_path = cl.GetString("model", "");
  if (data_path.empty() || model_path.empty()) {
    err << "evaluate: --data and --model are required\n";
    return 2;
  }
  auto scale_or = ParseScale(cl.GetString("scale", "small"));
  if (!scale_or.ok()) return Fail(err, scale_or.status());
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 2026));
  const size_t segments = static_cast<size_t>(cl.GetInt("segments", 16));
  auto env_or = RebuildEnv(std::move(data_or).value(), segments, seed,
                           scale_or.value());
  if (!env_or.ok()) return Fail(err, env_or.status());
  auto est_or = LoadModel(cl, model_path);
  if (!est_or.ok()) return Fail(err, est_or.status());

  EvalResult result =
      EvaluateSearch(est_or.value().get(), env_or.value().workload);
  TableReporter table(SummaryColumns("Metric"));
  table.AddSummaryRow("Q-error", result.qerror);
  table.AddSummaryRow("MAPE", result.mape);
  table.Print(out);
  out << "mean latency: " << FormatPaperNumber(result.mean_latency_ms)
      << " ms/query over " << result.qerror.count << " test samples\n";
  return 0;
}

// Online-update drill: loads a served model, stages --delta-fraction of the
// dataset as inserts + erases through an UpdateManager, runs a drift-aware
// refresh (threshold Tick or explicit Refresh), and reports stale vs
// refreshed q-error on the relabeled workload. With --metrics-out this is
// the canonical producer of the simcard.update.* metric families.
int CmdUpdateBench(const CommandLine& cl, std::ostream& out,
                   std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  const std::string model_path = cl.GetString("model", "");
  if (data_path.empty() || model_path.empty()) {
    err << "update-bench: --data and --model are required\n";
    return 2;
  }
  auto scale_or = ParseScale(cl.GetString("scale", "small"));
  if (!scale_or.ok()) return Fail(err, scale_or.status());
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const std::string dataset_name = data_or.value().name();
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 2026));
  const size_t segments = static_cast<size_t>(cl.GetInt("segments", 16));
  auto env_or = RebuildEnv(std::move(data_or).value(), segments, seed,
                           scale_or.value());
  if (!env_or.ok()) return Fail(err, env_or.status());
  ExperimentEnv env = std::move(env_or).value();
  auto est_or = LoadModel(cl, model_path);
  if (!est_or.ok()) return Fail(err, est_or.status());

  const double delta_fraction = cl.GetDouble("delta-fraction", 0.2);
  update::UpdateOptions opts;
  opts.refresh_delta_threshold =
      static_cast<size_t>(cl.GetInt("refresh-threshold", 0));
  opts.fine_tune_epochs =
      static_cast<size_t>(cl.GetInt("refresh-epochs", 3));
  opts.seed = seed + 17;
  opts.drift.stale_delta_fraction = cl.GetDouble(
      "refresh-stale-fraction", opts.drift.stale_delta_fraction);
  opts.drift.stale_centroid_shift = cl.GetDouble(
      "refresh-stale-shift", opts.drift.stale_centroid_shift);
  const double reseg_fraction = cl.GetDouble(
      "refresh-full-reseg", opts.drift.full_reseg_fraction);
  opts.allow_full_reseg = reseg_fraction > 0.0;
  if (opts.allow_full_reseg) opts.drift.full_reseg_fraction = reseg_fraction;

  const size_t base_rows = env.dataset.size();
  const size_t num_inserts =
      static_cast<size_t>(static_cast<double>(base_rows) * delta_fraction /
                          2.0);
  auto inserts_or = MakeAnalogUpdates(dataset_name, scale_or.value(),
                                      num_inserts, seed + 18);
  if (!inserts_or.ok()) return Fail(err, inserts_or.status());
  const Matrix& inserts = inserts_or.value();

  serve::ModelRegistry registry;
  update::UpdateManager manager(std::move(env.dataset),
                                std::move(env.workload), &registry, opts);
  if (Status st = manager.Start(*est_or.value()); !st.ok()) {
    return Fail(err, st);
  }
  // The stale contender keeps answering from the pre-delta weights.
  std::unique_ptr<GlEstimator> stale = std::move(est_or).value();

  for (size_t i = 0; i < inserts.rows(); ++i) {
    Status st = manager.Insert(
        std::span<const float>(inserts.Row(i), inserts.cols()));
    if (!st.ok()) return Fail(err, st);
  }
  Rng erase_rng(seed + 19);
  for (size_t row :
       erase_rng.SampleWithoutReplacement(base_rows, num_inserts)) {
    if (Status st = manager.Erase(static_cast<uint32_t>(row)); !st.ok()) {
      return Fail(err, st);
    }
  }
  out << "update-bench: staged " << inserts.rows() << " inserts + "
      << num_inserts << " erases (" << (delta_fraction * 100.0)
      << "% of " << base_rows << " rows), pending " << manager.pending()
      << "\n";

  auto outcome_or = opts.refresh_delta_threshold > 0 ? manager.Tick()
                                                     : manager.Refresh();
  if (!outcome_or.ok()) return Fail(err, outcome_or.status());
  const update::RefreshOutcome& outcome = outcome_or.value();
  if (!outcome.refreshed) {
    out << "update-bench: refresh not due (pending " << manager.pending()
        << " < threshold " << opts.refresh_delta_threshold << ")\n";
    return 0;
  }
  out << "update-bench: " << (outcome.full_reseg
                                  ? "full re-segmentation"
                                  : "incremental refresh")
      << " published epoch " << outcome.epoch << " in "
      << FormatPaperNumber(outcome.refresh_ms) << " ms ("
      << outcome.segments_refreshed << " locals fine-tuned, "
      << outcome.segments_cloned << " cloned)\n";

  // Both contenders answer the post-delta relabeled workload.
  auto refreshed = std::make_unique<GlEstimator>(stale->config());
  if (Status st = refreshed->LoadFromBytes(
          registry.Current().estimator->SaveToBytes());
      !st.ok()) {
    return Fail(err, st);
  }
  const EvalResult stale_eval =
      EvaluateSearch(stale.get(), manager.workload());
  const EvalResult fresh_eval =
      EvaluateSearch(refreshed.get(), manager.workload());
  TableReporter table({"Model", "Mean Q-error", "Median Q-error"});
  table.AddRow({"stale (pre-delta)", FormatPaperNumber(stale_eval.qerror.mean),
                FormatPaperNumber(stale_eval.qerror.median)});
  table.AddRow({"refreshed", FormatPaperNumber(fresh_eval.qerror.mean),
                FormatPaperNumber(fresh_eval.qerror.median)});
  table.Print(out);
  out << "refreshed improves on stale by "
      << FormatPaperNumber(stale_eval.qerror.mean / fresh_eval.qerror.mean)
      << "x on " << fresh_eval.qerror.count << " test samples\n";
  return 0;
}

// The --feedback-* knob family, shared by feedback-bench and the chaos
// drill's feedback phase. The defaults are drill-sized: a small ring so the
// eviction path is exercised, and a low neighbor floor so corrections fire
// within a few waves.
feedback::FeedbackOptions FeedbackOptionsFromFlags(const CommandLine& cl) {
  feedback::FeedbackOptions f;
  f.capacity = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("feedback-capacity", 128)));
  f.min_neighbors = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("feedback-min-neighbors", 2)));
  f.radius = cl.GetDouble("feedback-radius", f.radius);
  f.max_factor = cl.GetDouble("feedback-max-factor", f.max_factor);
  return f;
}

// --telemetry-out takes a path STEM ("out/telem" or "out/telem.json"); the
// exporter then writes STEM-<seq>.json, STEM-latest.json, and STEM.prom.
obs::TelemetryOptions TelemetryOptionsForStem(std::string stem) {
  if (stem.size() > 5 && stem.ends_with(".json")) {
    stem.resize(stem.size() - 5);
  }
  obs::TelemetryOptions topts;
  const size_t slash = stem.find_last_of('/');
  if (slash == std::string::npos) {
    topts.basename = stem;
  } else {
    topts.dir = stem.substr(0, slash);
    topts.basename = stem.substr(slash + 1);
  }
  if (topts.dir.empty()) topts.dir = ".";
  if (topts.basename.empty()) topts.basename = "telemetry";
  return topts;
}

int WriteTelemetrySnapshot(const std::string& stem,
                           const obs::QErrorTracker* accuracy,
                           std::ostream& out, std::ostream& err,
                           std::function<obs::JsonValue()> feedback = nullptr) {
  const obs::TelemetryOptions topts = TelemetryOptionsForStem(stem);
  obs::TelemetryExporter exporter(topts, accuracy);
  if (feedback) exporter.SetFeedbackSource(std::move(feedback));
  if (Status st = exporter.DumpNow(); !st.ok()) {
    err << "writing telemetry snapshot: " << st.ToString() << "\n";
    return 1;
  }
  out << "telemetry snapshot -> " << topts.dir << "/" << topts.basename
      << "-latest.json (+ .prom)\n";
  return 0;
}

// Observability drill: serves phased traffic against a saved model — normal
// requests (answered with brute-force ground truth through ReportActual),
// forced sheds, forced deadline misses, forced local-model failures — so a
// single run populates every telemetry surface: serve/batch metrics,
// per-segment health, Q-error accuracy windows, and flag-marked traces
// (shed / deadline-exceeded / fallback / breaker). Arms and disarms its own
// fault sites; combine with --trace-out for the trace report.
int CmdTelemetryDump(const CommandLine& cl, std::ostream& out,
                     std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  const std::string model_path = cl.GetString("model", "");
  if (data_path.empty() || model_path.empty()) {
    err << "telemetry-dump: --data and --model are required\n";
    return 2;
  }
  // The drill is pointless without collection: imply both switches (the
  // global --trace-out/--metrics-out handling may have set them already).
  obs::SetMetricsEnabled(true);
  obs::SetTracingEnabled(true);

  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const Dataset& dataset = data_or.value();
  auto est_or = LoadModel(cl, model_path);
  if (!est_or.ok()) return Fail(err, est_or.status());
  const std::shared_ptr<const GlEstimator> model = std::move(est_or).value();

  serve::ServeOptions options;
  options.num_threads = static_cast<size_t>(cl.GetInt("threads", 2));
  options.queue_capacity = 64;
  options.default_deadline_ms = cl.GetDouble("deadline-ms", 25.0);
  options.max_batch = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("max-batch", 4)));
  // A low trip threshold so the failure phase also exercises the breaker
  // (open -> short-circuit -> half-open probe shows up in segment health).
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_requests = 4;
  const size_t per_phase =
      static_cast<size_t>(std::max<int64_t>(1, cl.GetInt("requests", 24)));
  const float tau = static_cast<float>(cl.GetDouble("tau", 0.1));

  serve::ModelRegistry registry;
  registry.Publish(model);
  serve::EstimationService service(&registry, options);

  auto wave = [&](size_t count) {
    std::vector<std::future<serve::EstimateResponse>> futures;
    futures.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const size_t row = i % dataset.size();
      EstimateRequest request;
      request.query =
          std::span<const float>(dataset.Point(row), dataset.dim());
      request.tau = tau;
      request.options.deadline_ms = options.default_deadline_ms;
      futures.push_back(service.Submit(request));
    }
    std::vector<serve::EstimateResponse> responses;
    responses.reserve(count);
    for (auto& f : futures) responses.push_back(f.get());
    return responses;
  };
  auto count_ok = [](const std::vector<serve::EstimateResponse>& rs) {
    size_t n = 0;
    for (const auto& r : rs) n += r.status.ok() ? 1 : 0;
    return n;
  };

  // Phase 1 — normal traffic, then close the loop on accuracy: brute-force
  // the true cardinality for a handful of completed requests and feed it
  // back through ReportActual so the Q-error windows populate.
  const std::vector<serve::EstimateResponse> normal = wave(per_phase);
  size_t reported = 0;
  constexpr size_t kMaxGroundTruth = 16;  // bounds the O(n^2) distance scan
  for (size_t i = 0; i < normal.size() && reported < kMaxGroundTruth; ++i) {
    if (!normal[i].status.ok()) continue;
    const size_t row = i % dataset.size();
    const float* q = dataset.Point(row);
    size_t true_card = 0;
    for (size_t r = 0; r < dataset.size(); ++r) {
      if (Distance(q, dataset.Point(r), dataset.dim(), dataset.metric()) <=
          tau) {
        ++true_card;
      }
    }
    if (service
            .ReportActual(normal[i].request_id,
                          static_cast<double>(true_card))
            .ok()) {
      ++reported;
    }
  }

  // Phase 2 — admission control: every submit is refused, flag-marking a
  // shed trace per request.
  fault::Configure({.sites = "serve.queue_full", .probability = 1.0});
  const std::vector<serve::EstimateResponse> shed = wave(per_phase);

  // Phase 3 — evaluation stalls past the deadline.
  fault::Configure({.sites = "serve.slow_eval", .probability = 1.0});
  const std::vector<serve::EstimateResponse> late = wave(per_phase);

  // Phase 4 — local models fail: segments answer from their sampling
  // fallback and the circuit breaker trips open.
  fault::Configure({.sites = "gl.local_eval", .probability = 1.0});
  const std::vector<serve::EstimateResponse> degraded = wave(per_phase);
  fault::Disable();

  service.Drain();

  size_t fallback_served = 0;
  for (const auto& r : degraded) {
    fallback_served += r.fallback_segments > 0 ? 1 : 0;
  }
  size_t deadline_missed = 0;
  for (const auto& r : late) {
    deadline_missed +=
        r.status.code() == StatusCode::kDeadlineExceeded ? 1 : 0;
  }
  out << "telemetry-dump: " << 4 * per_phase << " requests in 4 phases\n";
  out << "  normal: ok " << count_ok(normal) << ", accuracy reports "
      << reported << "\n";
  out << "  shed: " << (shed.size() - count_ok(shed)) << "/" << shed.size()
      << " refused\n";
  out << "  deadline: " << deadline_missed << "/" << late.size()
      << " exceeded\n";
  out << "  degraded: " << fallback_served << "/" << degraded.size()
      << " fallback-served (breaker trips " << service.breaker()->trips()
      << ")\n";

  return WriteTelemetrySnapshot(cl.GetString("telemetry-out", "telemetry"),
                                &service.accuracy(), out, err);
}

// Execution-feedback drill/bench (see src/feedback/): waves of the same
// query rows are served with the feedback loop enabled and answered with
// brute-force ground truth through ReportActual. Warm waves populate the
// store; the measure wave must come back corrected (k same-key neighbors at
// distance ~0) and strictly closer to the truth than the base estimate; a
// mid-run re-publish proves epoch invalidation: corrections stop, a
// pre-publish ticket reports stale, and the store size drops to zero. The
// canonical producer of simcard.feedback.* for scripts/check_metrics_json.py
// (its defaults also wrap the ring, so the evicted counter moves).
int CmdFeedbackBench(const CommandLine& cl, std::ostream& out,
                     std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  const std::string model_path = cl.GetString("model", "");
  if (data_path.empty() || model_path.empty()) {
    err << "feedback-bench: --data and --model are required\n";
    return 2;
  }
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const Dataset& dataset = data_or.value();
  auto est_or = LoadModel(cl, model_path);
  if (!est_or.ok()) return Fail(err, est_or.status());
  const std::shared_ptr<const GlEstimator> model = std::move(est_or).value();

  serve::ServeOptions options;
  options.num_threads = static_cast<size_t>(cl.GetInt("threads", 2));
  options.default_deadline_ms = cl.GetDouble("deadline-ms", 100.0);
  options.feedback = FeedbackOptionsFromFlags(cl);
  options.feedback.enabled = true;
  const size_t queries = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("requests", 48)));
  const float tau = static_cast<float>(cl.GetDouble("tau", 0.1));

  serve::ModelRegistry registry;
  registry.Publish(model);
  serve::EstimationService service(&registry, options);

  // Ground truth per query row, computed once (rows repeat across waves).
  std::vector<double> truth_cache(std::min(queries, dataset.size()), -1.0);
  auto truth_for = [&](size_t row) {
    double& slot = truth_cache[row % truth_cache.size()];
    if (slot < 0.0) {
      const float* q = dataset.Point(row);
      size_t card = 0;
      for (size_t r = 0; r < dataset.size(); ++r) {
        if (Distance(q, dataset.Point(r), dataset.dim(), dataset.metric()) <=
            tau) {
          ++card;
        }
      }
      slot = static_cast<double>(card);
    }
    return slot;
  };

  struct WaveStats {
    size_t ok = 0;
    size_t corrected = 0;
    bool first_ok_corrected = false;
    double base_qerr = 0.0;  // summed, divide by ok for the mean
    double corr_qerr = 0.0;
    uint64_t unreported_ticket = 0;
  };
  auto qerr = [](double est, double truth) {
    const double e = est + 1.0;
    const double t = truth + 1.0;
    return std::max(e / t, t / e);
  };
  // One sequential wave over the query rows: submit, score against ground
  // truth, and (unless `hold_last` asks to keep one pre-publish ticket
  // unreported for the stale-report probe) close the loop via ReportActual.
  auto wave = [&](bool hold_last) {
    WaveStats w;
    for (size_t i = 0; i < queries; ++i) {
      const size_t row = i % dataset.size();
      EstimateRequest request;
      request.query =
          std::span<const float>(dataset.Point(row), dataset.dim());
      request.tau = tau;
      request.options.deadline_ms = options.default_deadline_ms;
      const serve::EstimateResponse response = service.Submit(request).get();
      if (!response.status.ok()) continue;
      ++w.ok;
      if (w.ok == 1) w.first_ok_corrected = response.corrected;
      const double truth = truth_for(row);
      w.base_qerr += qerr(response.base_estimate, truth);
      w.corr_qerr += qerr(response.estimate, truth);
      if (response.corrected) ++w.corrected;
      if (hold_last && i + 1 == queries) {
        w.unreported_ticket = response.request_id;
      } else {
        (void)service.ReportActual(response.request_id, truth);
      }
    }
    return w;
  };

  const size_t warm_waves = options.feedback.min_neighbors;
  size_t warm_ok = 0, warm_corrected = 0;
  for (size_t v = 0; v < warm_waves; ++v) {
    const WaveStats w = wave(/*hold_last=*/false);
    warm_ok += w.ok;
    warm_corrected += w.corrected;
  }
  const WaveStats measure = wave(/*hold_last=*/true);

  // Epoch invalidation: re-publishing (even the same weights) is a full
  // remap — every correction must drop, and a residual measured against the
  // old epoch must be rejected as stale.
  registry.Publish(model);
  const size_t store_after_publish = service.feedback()->store().size();
  Status stale_status = Status::OK();
  if (measure.unreported_ticket != 0) {
    stale_status = service.ReportActual(
        measure.unreported_ticket,
        truth_for((queries - 1) % dataset.size()));
  }
  const WaveStats post = wave(/*hold_last=*/false);
  service.Drain();

  const feedback::FeedbackTotals totals = service.feedback()->totals();
  const auto mean = [](double sum, size_t n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  out << "feedback-bench: waves=" << warm_waves << "+1+1 queries=" << queries
      << " tau=" << tau << " capacity=" << options.feedback.capacity
      << " min-neighbors=" << options.feedback.min_neighbors << "\n";
  out << "  warm: ok " << warm_ok << ", corrected " << warm_corrected
      << "\n";
  out << "  measure: ok " << measure.ok << ", corrected " << measure.corrected
      << ", q-error base " << FormatPaperNumber(mean(measure.base_qerr,
                                                     measure.ok))
      << " -> corrected " << FormatPaperNumber(mean(measure.corr_qerr,
                                                    measure.ok))
      << "\n";
  out << "  re-publish: store " << store_after_publish << ", stale report "
      << (stale_status.ok() ? "accepted-by-accuracy" : "rejected")
      << ", post-wave corrected " << post.corrected << " (first answer "
      << (post.first_ok_corrected ? "corrected" : "uncorrected") << ")\n";
  out << "  totals: reports=" << totals.reports << " stale_reports="
      << totals.stale_reports << " lookups=" << totals.lookups
      << " corrected=" << totals.corrected << " miss=" << totals.miss
      << " evicted=" << totals.evicted << " invalidated="
      << totals.invalidated << " guard_clamped=" << totals.guard_clamped
      << " store_size=" << service.feedback()->store().size() << "/"
      << service.feedback()->store().capacity() << "\n";

  const std::string stem = cl.GetString("telemetry-out", "");
  if (!stem.empty()) {
    const int trc = WriteTelemetrySnapshot(
        stem, &service.accuracy(), out, err, [&service] {
          obs::JsonValue rows = obs::JsonValue::Array();
          rows.Append(service.feedback()->TelemetryRow(/*shard=*/-1));
          return rows;
        });
    if (trc != 0) return trc;
  }

  // The drill's own invariants: corrections fire once warm, improve on the
  // base (never worse — the truth is exact, the blend is contractive), and
  // do not survive a publish: the store drains to zero, the pre-publish
  // residual is rejected as stale, and the first post-publish answer is
  // uncorrected (corrections seen later in that wave re-armed from the
  // wave's own reports — rows sharing a segment-set key feed each other).
  const bool pass = measure.ok == queries && measure.corrected > 0 &&
                    measure.corr_qerr <= measure.base_qerr + 1e-9 &&
                    store_after_publish == 0 && !post.first_ok_corrected &&
                    totals.stale_reports > 0 &&
                    totals.corrected <= totals.lookups;
  out << "feedback-bench: " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

// Chaos drill: serve traffic, delta ingestion, and refreshes run
// concurrently for --rounds rounds while a seeded schedule arms refresh-path
// fault sites and, after every even round, a simulated process kill
// (manager + registry torn down, RecoverFrom from the journal directory).
// The drill verifies the durability invariants end to end and prints them
// as key=value lines for scripts/check_chaos.py:
//   - no acknowledged delta is lost (every acked insert is a row of the
//     final dataset; the final row count reflects every ack exactly once),
//   - the served epoch never moves backwards, including across kills,
//   - every successful estimate stays within the guard clamps,
//   - recovery converges (RecoverFrom succeeds, a final refresh drains).
int CmdShardChaosDrill(const CommandLine& cl, size_t num_shards,
                       std::ostream& out, std::ostream& err);

int CmdChaosDrill(const CommandLine& cl, std::ostream& out,
                  std::ostream& err) {
  const int64_t shards = cl.GetInt("shards", 0);
  if (shards > 0) {
    return CmdShardChaosDrill(cl, static_cast<size_t>(shards), out, err);
  }
  const std::string data_path = cl.GetString("data", "");
  const std::string model_path = cl.GetString("model", "");
  if (data_path.empty() || model_path.empty()) {
    err << "chaos-drill: --data and --model are required\n";
    return 2;
  }
  auto scale_or = ParseScale(cl.GetString("scale", "tiny"));
  if (!scale_or.ok()) return Fail(err, scale_or.status());
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const std::string dataset_name = data_or.value().name();
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 2026));
  const size_t segments = static_cast<size_t>(cl.GetInt("segments", 6));
  auto env_or = RebuildEnv(std::move(data_or).value(), segments, seed,
                           scale_or.value());
  if (!env_or.ok()) return Fail(err, env_or.status());
  ExperimentEnv env = std::move(env_or).value();
  auto est_or = LoadModel(cl, model_path);
  if (!est_or.ok()) return Fail(err, est_or.status());
  const GlEstimatorConfig model_config = est_or.value()->config();

  const size_t rounds =
      static_cast<size_t>(std::max<int64_t>(1, cl.GetInt("rounds", 4)));
  const size_t per_round = static_cast<size_t>(
      std::max<int64_t>(2, cl.GetInt("requests", 64)));
  const size_t deltas_per_round = static_cast<size_t>(
      std::max<int64_t>(2, cl.GetInt("deltas", 8)));
  const float tau = static_cast<float>(cl.GetDouble("tau", 0.1));

  update::UpdateOptions opts;
  opts.allow_full_reseg = false;
  opts.fine_tune_epochs =
      static_cast<size_t>(cl.GetInt("refresh-epochs", 2));
  opts.seed = seed + 17;
  opts.journal_dir = cl.GetString("journal", "chaos-journal");
  opts.journal.group_commit = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("group-commit", 8)));
  opts.delta_capacity =
      static_cast<size_t>(cl.GetInt("delta-capacity", 0));
  opts.refresh_retry_budget = static_cast<size_t>(
      cl.GetInt("refresh-retry-budget", 8));
  opts.refresh_backoff_base_ms =
      cl.GetDouble("refresh-retry-base-ms", 1.0);
  opts.refresh_backoff_max_ms = cl.GetDouble("refresh-retry-max-ms", 50.0);
  std::filesystem::remove_all(opts.journal_dir);  // always a fresh drill

  const size_t base_rows = env.dataset.size();
  const size_t dim = env.dataset.dim();
  const Matrix probe_queries = env.workload.test_queries;
  auto pool_or = MakeAnalogUpdates(dataset_name, scale_or.value(),
                                   rounds * deltas_per_round, seed + 21);
  if (!pool_or.ok()) return Fail(err, pool_or.status());
  const Matrix& pool = pool_or.value();
  // The largest the dataset can ever get; valid guard clamp for any epoch.
  const double clamp_bound =
      static_cast<double>(base_rows + pool.rows()) + 1e-6;

  auto registry = std::make_unique<serve::ModelRegistry>();
  auto manager = std::make_unique<update::UpdateManager>(
      std::move(env.dataset), std::move(env.workload), registry.get(), opts);
  if (Status st = manager->Start(*est_or.value()); !st.ok()) {
    return Fail(err, st);
  }

  serve::ServeOptions sopts;
  sopts.num_threads = static_cast<size_t>(cl.GetInt("threads", 2));
  sopts.default_deadline_ms = cl.GetDouble("deadline-ms", 100.0);
  sopts.max_batch = 4;
  // The feedback loop rides through the whole drill: every per-round
  // service re-arms its (in-memory) store from that round's reports, and
  // the final phase below proves corrections never survive recovery.
  sopts.feedback = FeedbackOptionsFromFlags(cl);
  sopts.feedback.enabled = true;

  // The acked-delta ledger: only OK acks enter. Erase rows come from a
  // monotone cursor so no two acks ever name the same row of one epoch —
  // that keeps the row-count invariant exact (each acked erase removes
  // exactly one row; each acked insert adds exactly one).
  std::vector<std::vector<float>> acked_inserts;
  size_t acked_erases = 0;
  size_t shed = 0;
  size_t next_insert = 0;
  uint32_t next_erase = 0;
  size_t faults_armed = 0;
  size_t refresh_failures = 0;
  size_t kills = 0;
  size_t recoveries = 0;
  std::atomic<size_t> estimates_checked{0};
  std::atomic<size_t> clamp_violations{0};
  std::atomic<size_t> feedback_reports{0};
  std::atomic<size_t> feedback_corrected{0};
  std::atomic<size_t> feedback_clamp_violations{0};
  std::atomic<size_t> feedback_provenance_violations{0};
  bool epochs_monotone = true;
  uint64_t last_epoch = registry->epoch();
  size_t dropped_erases = 0;
  Rng chaos(seed ^ 0xC4A05D211ull);

  for (size_t round = 1; round <= rounds; ++round) {
    {
      serve::EstimationService service(registry.get(), sopts);
      std::thread ingest([&] {
        for (size_t k = 0; k < deltas_per_round; ++k) {
          Status st;
          if (k % 2 == 0 && next_insert < pool.rows()) {
            const float* row = pool.Row(next_insert);
            st = manager->Insert(std::span<const float>(row, dim));
            if (st.ok()) {
              acked_inserts.emplace_back(row, row + dim);
            }
            ++next_insert;
          } else {
            st = manager->Erase(next_erase);
            if (st.ok()) ++acked_erases;
            ++next_erase;
          }
          if (!st.ok()) ++shed;
        }
      });
      auto client = [&](size_t offset) {
        for (size_t i = 0; i < per_round / 2; ++i) {
          const size_t q = (offset + i) % probe_queries.rows();
          EstimateRequest request;
          request.query =
              std::span<const float>(probe_queries.Row(q), dim);
          request.tau = tau;
          request.options.deadline_ms = sopts.default_deadline_ms;
          const serve::EstimateResponse response =
              service.Submit(request).get();
          if (!response.status.ok()) continue;
          ++estimates_checked;
          if (!std::isfinite(response.estimate) || response.estimate < 0.0 ||
              response.estimate > clamp_bound) {
            ++clamp_violations;
          }
          if (response.corrected) {
            ++feedback_corrected;
            // A corrected answer must stay inside the guard clamps and
            // carry its provenance.
            if (!std::isfinite(response.estimate) ||
                response.estimate < 0.0 ||
                response.estimate > clamp_bound) {
              ++feedback_clamp_violations;
            }
            if (response.feedback_neighbors <
                    sopts.feedback.min_neighbors ||
                response.blend_weight <= 0.0 ||
                response.blend_weight > 1.0) {
              ++feedback_provenance_violations;
            }
          }
          // Close the loop on half the traffic with a deliberately biased
          // "truth" — the drill tests the correction mechanics (clamps,
          // provenance, epoch hygiene), not estimator accuracy.
          if (i % 2 == 0) {
            const double pseudo_truth =
                std::min(response.estimate * 1.3 + 1.0, clamp_bound);
            if (service.ReportActual(response.request_id, pseudo_truth)
                    .ok()) {
              ++feedback_reports;
            }
          }
        }
      };
      std::thread left(client, 0);
      std::thread right(client, probe_queries.rows() / 2);

      // The seeded fault schedule rotates over the refresh-path sites; the
      // skip index walks the distinct hits of each site so repeated rounds
      // cover the whole durable-commit window.
      std::string armed;
      switch (round % 4) {
        case 1:
          armed = "update.refresh_finetune";
          break;
        case 2:
          armed = "update.journal_io";
          break;
        case 0:
          armed = "io.save";
          break;
        default:
          break;  // a clean round: the refresh should commit
      }
      if (!armed.empty()) {
        fault::FaultConfig config;
        config.sites = armed;
        config.max_injections = 1;
        config.skip_first =
            armed == "update.refresh_finetune"
                ? 0
                : chaos.NextBounded(armed == "io.save" ? 3 : 4);
        fault::Configure(config);
        ++faults_armed;
      }
      const auto refresh = manager->Refresh();
      fault::Disable();
      if (!refresh.ok()) ++refresh_failures;

      ingest.join();
      left.join();
      right.join();
      service.Drain();
    }
    {
      const uint64_t epoch = registry->epoch();
      if (epoch < last_epoch) epochs_monotone = false;
      last_epoch = epoch;
    }

    // Simulated process kill after every even round (and whenever a
    // mid-commit failure quarantined the manager): tear down the manager
    // and registry with no shutdown hook and recover from the files.
    if (round % 2 == 0 || manager->needs_recovery()) {
      dropped_erases += manager->buffer().dropped_erases();
      manager.reset();
      registry = std::make_unique<serve::ModelRegistry>();
      auto recovered =
          update::UpdateManager::RecoverFrom(registry.get(), opts,
                                             &model_config);
      if (!recovered.ok()) {
        err << "chaos-drill: recovery after round " << round
            << " failed: " << recovered.status().ToString() << "\n";
        out << "chaos-drill: FAIL\n";
        return 1;
      }
      manager = std::move(recovered).value();
      ++kills;
      ++recoveries;
      if (registry->epoch() < last_epoch) epochs_monotone = false;
      last_epoch = registry->epoch();
    }
  }

  // Convergence: with faults cleared, one explicit refresh must drain
  // everything the drill acknowledged into the dataset.
  if (manager->needs_recovery()) {
    dropped_erases += manager->buffer().dropped_erases();
    manager.reset();
    registry = std::make_unique<serve::ModelRegistry>();
    auto recovered = update::UpdateManager::RecoverFrom(registry.get(), opts,
                                                        &model_config);
    if (!recovered.ok()) {
      err << "chaos-drill: final recovery failed: "
          << recovered.status().ToString() << "\n";
      out << "chaos-drill: FAIL\n";
      return 1;
    }
    manager = std::move(recovered).value();
    ++kills;
    ++recoveries;
  }
  if (auto final_refresh = manager->Refresh(); !final_refresh.ok()) {
    err << "chaos-drill: final refresh failed: "
        << final_refresh.status().ToString() << "\n";
    out << "chaos-drill: FAIL\n";
    return 1;
  }
  if (registry->epoch() < last_epoch) epochs_monotone = false;
  dropped_erases += manager->buffer().dropped_erases();

  // Feedback phase: a fresh service on the recovered, fully-refreshed
  // registry. Its store starts empty — corrections never survive recovery
  // or the drill's kills — so the first min_neighbors answers MUST be
  // uncorrected; after that many same-key reports the loop re-arms from
  // live traffic alone and corrected answers must appear, clamped and
  // provenance-marked.
  size_t feedback_phase_corrected = 0;
  size_t feedback_phase_violations = 0;
  {
    serve::EstimationService fservice(registry.get(), sopts);
    const size_t warmup = sopts.feedback.min_neighbors;
    const size_t iters = warmup + 6;
    for (size_t i = 0; i < iters; ++i) {
      EstimateRequest request;
      request.query = std::span<const float>(probe_queries.Row(0), dim);
      request.tau = tau;
      request.options.deadline_ms = sopts.default_deadline_ms;
      const serve::EstimateResponse response =
          fservice.Submit(request).get();
      if (!response.status.ok()) continue;
      if (i < warmup && response.corrected) {
        ++feedback_phase_violations;  // a correction survived recovery
      }
      if (response.corrected) {
        ++feedback_phase_corrected;
        if (!std::isfinite(response.estimate) || response.estimate < 0.0 ||
            response.estimate > clamp_bound ||
            response.feedback_neighbors < sopts.feedback.min_neighbors ||
            response.blend_weight <= 0.0 || response.blend_weight > 1.0) {
          ++feedback_phase_violations;
        }
      }
      const double pseudo_truth =
          std::min(response.base_estimate * 1.5 + 1.0, clamp_bound);
      (void)fservice.ReportActual(response.request_id, pseudo_truth);
      ++feedback_reports;
    }
    fservice.Drain();
  }

  // Zero-loss audit. Every acked insert vector must be a row of the final
  // dataset, and the row count must reflect every ack exactly once.
  const Matrix& points = manager->dataset().points();
  size_t lost_inserts = 0;
  for (const std::vector<float>& ins : acked_inserts) {
    bool found = false;
    for (size_t r = 0; r < points.rows() && !found; ++r) {
      found = std::memcmp(points.Row(r), ins.data(),
                          dim * sizeof(float)) == 0;
    }
    if (!found) ++lost_inserts;
  }
  const size_t expected_rows =
      base_rows + acked_inserts.size() - (acked_erases - dropped_erases);
  const size_t final_rows = manager->dataset().size();

  out << "chaos-drill: rounds=" << rounds << " requests_per_round="
      << per_round << " deltas_per_round=" << deltas_per_round
      << " seed=" << seed << " group_commit=" << opts.journal.group_commit
      << "\n";
  out << "chaos-drill: faults_armed=" << faults_armed
      << " refresh_failures=" << refresh_failures << " kills=" << kills
      << " recoveries=" << recoveries << "\n";
  out << "chaos-drill: acked_inserts=" << acked_inserts.size()
      << " acked_erases=" << acked_erases << " shed=" << shed
      << " dropped_erases=" << dropped_erases << "\n";
  out << "chaos-drill: estimates_checked=" << estimates_checked.load()
      << " clamp_violations=" << clamp_violations.load() << "\n";
  out << "chaos-drill: feedback_reports=" << feedback_reports.load()
      << " feedback_corrected=" << feedback_corrected.load()
      << " feedback_phase_corrected=" << feedback_phase_corrected
      << " feedback_clamp_violations=" << feedback_clamp_violations.load()
      << " feedback_provenance_violations="
      << feedback_provenance_violations.load() + feedback_phase_violations
      << "\n";
  out << "chaos-drill: epochs_monotone=" << (epochs_monotone ? 1 : 0)
      << " final_epoch=" << registry->epoch() << "\n";
  out << "chaos-drill: base_rows=" << base_rows << " final_rows="
      << final_rows << " expected_rows=" << expected_rows
      << " lost_inserts=" << lost_inserts << "\n";

  const bool pass = lost_inserts == 0 && final_rows == expected_rows &&
                    epochs_monotone && clamp_violations.load() == 0 &&
                    manager->pending() == 0 && feedback_reports.load() > 0 &&
                    feedback_phase_corrected > 0 &&
                    feedback_clamp_violations.load() == 0 &&
                    feedback_provenance_violations.load() == 0 &&
                    feedback_phase_violations == 0;
  out << "chaos-drill: " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

// Per-shard training for the sharded CLI drills. A full-dataset model file
// cannot be split into row shards, so both drills train one drill-sized
// estimator per shard in-process (seconds at tiny scale) via the same
// deterministic builder the shard tests use.
Result<shard::ShardBuildResult> BuildShardsForCli(const CommandLine& cl,
                                                  const Dataset& dataset,
                                                  size_t num_shards,
                                                  uint64_t seed) {
  shard::ShardBuildOptions bopts;
  bopts.num_shards = num_shards;
  bopts.segments_per_shard = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("segments", 3)));
  bopts.train_queries = 120;
  bopts.test_queries = 24;
  bopts.seed = seed;
  bopts.config = shard::FastShardConfig(GlEstimatorConfig::GlCnn());
  return shard::BuildShardEstimators(dataset, bopts);
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t idx = std::min(
      values->size() - 1,
      static_cast<size_t>(p * static_cast<double>(values->size() - 1)));
  return (*values)[idx];
}

// Sharded scatter-gather drill/bench: a clean phase measures QPS and tail
// latency through the ShardedEstimationService; a stall-injected phase
// (every (request, shard) primary stalls) forces the hedged re-dispatch
// path, so one run populates every simcard.shard.* surface — partial
// responses, provenance bitmaps, hedge fired/won counts, shard health.
// The canonical producer for scripts/check_metrics_json.py.
int CmdShardBench(const CommandLine& cl, std::ostream& out,
                  std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  if (data_path.empty()) {
    err << "shard-bench: --data is required\n";
    return 2;
  }
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const size_t num_shards = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("shards", 2)));
  const size_t requests = static_cast<size_t>(
      std::max<int64_t>(1, cl.GetInt("requests", 48)));
  const float tau = static_cast<float>(cl.GetDouble("tau", 0.1));
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 2026));

  auto build_or = BuildShardsForCli(cl, data_or.value(), num_shards, seed);
  if (!build_or.ok()) return Fail(err, build_or.status());
  shard::ShardBuildResult build = std::move(build_or).value();

  std::vector<std::unique_ptr<serve::ModelRegistry>> registries;
  std::vector<serve::ModelRegistry*> raw;
  for (size_t k = 0; k < num_shards; ++k) {
    registries.push_back(std::make_unique<serve::ModelRegistry>());
    registries.back()->Publish(
        std::shared_ptr<const GlEstimator>(build.estimators[k].release()));
    raw.push_back(registries.back().get());
  }
  shard::ShardedServeOptions sopts;
  sopts.default_deadline_ms = cl.GetDouble("deadline-ms", 250.0);
  // A full grace window: a hedge that fires on an ordinary straggler still
  // lets the primary land and win (wasted hedge), so partial responses mean
  // a primary really missed its whole budget — not scheduling noise.
  // Stalled primaries skip the grace race, so the stalled phase stays
  // deterministically partial.
  sopts.hedge.grace_ms = sopts.default_deadline_ms;
  shard::ShardedEstimationService service(std::move(raw), sopts);

  const Matrix probe = build.workloads[0].test_queries;
  const size_t dim = probe.cols();
  struct PhaseResult {
    size_t ok = 0;
    size_t partial = 0;
    double seconds = 0.0;
    std::vector<double> latencies;
  };
  auto run_phase = [&](size_t count) {
    PhaseResult r;
    r.latencies.reserve(count);
    Stopwatch watch;
    for (size_t i = 0; i < count; ++i) {
      EstimateRequest request;
      request.query =
          std::span<const float>(probe.Row(i % probe.rows()), dim);
      request.tau = tau;
      request.options.deadline_ms = sopts.default_deadline_ms;
      const shard::ShardedEstimateResponse response =
          service.Estimate(request);
      if (response.status.ok()) {
        ++r.ok;
        r.latencies.push_back(response.total_us);
      }
      if (response.partial) ++r.partial;
    }
    r.seconds = watch.ElapsedSeconds();
    return r;
  };

  PhaseResult clean = run_phase(requests);
  // Stalled phase: every primary consult stalls, so every shard of every
  // request goes through hedge-fire -> fallback-win, deterministically.
  fault::FaultConfig config;
  config.sites = "shard.stall";
  config.probability = 1.0;
  config.seed = seed + 1;
  fault::Configure(config);
  PhaseResult stalled = run_phase(requests);
  fault::Disable();

  auto report = [&](const char* name, PhaseResult& r, size_t total) {
    out << "  " << name << ": ok " << r.ok << "/" << total << ", partial "
        << r.partial << ", "
        << FormatPaperNumber(static_cast<double>(total) /
                             std::max(r.seconds, 1e-9))
        << " req/s, latency us p50 "
        << FormatPaperNumber(Percentile(&r.latencies, 0.50)) << ", p99 "
        << FormatPaperNumber(Percentile(&r.latencies, 0.99)) << "\n";
  };
  out << "shard-bench: shards=" << num_shards << " requests=" << requests
      << "x2 deadline-ms=" << sopts.default_deadline_ms << " seed=" << seed
      << "\n";
  report("clean", clean, requests);
  report("stalled", stalled, requests);
  out << "  hedges fired " << service.hedges_fired() << ", won "
      << service.hedges_won() << ", wasted " << service.hedges_wasted()
      << "\n";
  const bool pass = clean.ok == requests && stalled.ok == requests &&
                    clean.partial == 0 && stalled.partial == requests &&
                    service.hedges_fired() > 0;
  return pass ? 0 : 1;
}

// The sharded chaos drill (chaos-drill --shards=N): N per-shard update
// managers, journals, and registries behind one scatter-gather tier. A
// seeded per-round schedule stalls one primary (hedged re-dispatch), fails
// one primary (instant fallback), or kills one whole shard (registry
// unpublished + manager torn down with no shutdown hook, recovered from
// its journal after the round's traffic) while client threads drive
// sharded estimates and an ingestion thread round-robins deltas across the
// alive shards. Printed as shard-drill: key=value lines and re-checked by
// scripts/check_chaos.py:
//   - every request is answered (the fallback tier covers kill windows),
//   - responses are partial ONLY in rounds where a shard was faulted,
//   - zero acked-delta loss per shard, across that shard's kill/recover,
//   - per-shard epochs stay monotone; one shard's refresh or recovery
//     never blocks or regresses another shard.
int CmdShardChaosDrill(const CommandLine& cl, size_t num_shards,
                       std::ostream& out, std::ostream& err) {
  const std::string data_path = cl.GetString("data", "");
  if (data_path.empty()) {
    err << "chaos-drill --shards: --data is required\n";
    return 2;
  }
  auto scale_or = ParseScale(cl.GetString("scale", "tiny"));
  if (!scale_or.ok()) return Fail(err, scale_or.status());
  auto data_or = LoadDataset(data_path);
  if (!data_or.ok()) return Fail(err, data_or.status());
  const std::string dataset_name = data_or.value().name();
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 2026));
  const size_t rounds =
      static_cast<size_t>(std::max<int64_t>(1, cl.GetInt("rounds", 6)));
  const size_t per_round = static_cast<size_t>(
      std::max<int64_t>(2, cl.GetInt("requests", 32)));
  const size_t deltas_per_round = static_cast<size_t>(
      std::max<int64_t>(2, cl.GetInt("deltas", 8)));
  const float tau = static_cast<float>(cl.GetDouble("tau", 0.1));

  auto build_or = BuildShardsForCli(cl, data_or.value(), num_shards, seed);
  if (!build_or.ok()) return Fail(err, build_or.status());
  shard::ShardBuildResult build = std::move(build_or).value();
  const size_t dim = data_or.value().dim();
  const Matrix probe = build.workloads[0].test_queries;
  std::vector<size_t> base_rows(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    base_rows[k] = build.datasets[k].size();
  }

  const std::string journal_root = cl.GetString("journal", "chaos-journal");
  std::filesystem::remove_all(journal_root);  // always a fresh drill

  auto pool_or = MakeAnalogUpdates(dataset_name, scale_or.value(),
                                   rounds * deltas_per_round, seed + 21);
  if (!pool_or.ok()) return Fail(err, pool_or.status());
  const Matrix& pool = pool_or.value();
  const double clamp_bound =
      static_cast<double>(data_or.value().size() + pool.rows()) + 1e-6;

  // Per-shard registries outlive kills: a killed shard unpublishes its
  // model and loses its manager, but the registry object (which the
  // scatter-gather tier holds) stays; recovery republishes into it with a
  // monotone epoch.
  std::vector<std::unique_ptr<serve::ModelRegistry>> registries;
  std::vector<std::unique_ptr<update::UpdateManager>> managers(num_shards);
  std::vector<update::UpdateOptions> mopts(num_shards);
  std::vector<GlEstimatorConfig> model_configs;
  std::vector<serve::ModelRegistry*> raw;
  for (size_t k = 0; k < num_shards; ++k) {
    registries.push_back(std::make_unique<serve::ModelRegistry>());
    raw.push_back(registries.back().get());
    mopts[k].allow_full_reseg = false;
    mopts[k].fine_tune_epochs = static_cast<size_t>(
        std::max<int64_t>(1, cl.GetInt("refresh-epochs", 1)));
    mopts[k].seed = seed + 17 + k;
    mopts[k].journal_dir = journal_root + "/shard-" + std::to_string(k);
    mopts[k].journal.group_commit = static_cast<size_t>(
        std::max<int64_t>(1, cl.GetInt("group-commit", 8)));
    model_configs.push_back(build.estimators[k]->config());
    managers[k] = std::make_unique<update::UpdateManager>(
        std::move(build.datasets[k]), std::move(build.workloads[k]),
        raw[k], mopts[k]);
    if (Status st = managers[k]->Start(*build.estimators[k]); !st.ok()) {
      return Fail(err, st);
    }
  }

  shard::ShardedServeOptions sopts;
  sopts.default_deadline_ms = cl.GetDouble("deadline-ms", 250.0);
  // Clean rounds must never go partial, so a faulted round's breaker
  // signal cannot be allowed to short-circuit the next round, and a hedge
  // fired on an ordinary straggler (CPU contention from a concurrent
  // refresh) must let the primary land inside the grace window rather than
  // instantly winning with the fallback. Stalled, failed, and killed
  // shards are unaffected: their primaries never answer at all.
  sopts.breaker_failure_threshold = size_t{1} << 20;
  sopts.hedge.grace_ms = sopts.default_deadline_ms;
  shard::ShardedEstimationService service(std::move(raw), sopts);

  // Per-shard acked-delta ledgers (only OK acks enter) and erase cursors.
  std::vector<std::vector<std::vector<float>>> acked_inserts(num_shards);
  std::vector<size_t> acked_erases(num_shards, 0);
  std::vector<uint32_t> erase_cursors(num_shards, 0);
  std::vector<size_t> dropped_erases(num_shards, 0);
  std::vector<uint64_t> last_epoch(num_shards, 0);
  for (size_t k = 0; k < num_shards; ++k) {
    last_epoch[k] = registries[k]->epoch();
  }
  bool epochs_monotone = true;
  size_t next_insert = 0;
  size_t shed = 0;
  size_t stalls = 0, fails = 0, kills = 0, recoveries = 0;
  size_t faulted_rounds = 0, faulted_rounds_with_partial = 0;
  size_t partial_in_clean_rounds = 0, partial_responses = 0;
  size_t refresh_failures = 0;
  std::atomic<size_t> answered{0};
  std::atomic<size_t> clamp_violations{0};
  Rng chaos(seed ^ 0x5AA2DD11ull);

  for (size_t round = 1; round <= rounds; ++round) {
    const size_t victim = chaos.NextBounded(num_shards);
    bool faulted = false;
    // Rotate the fault: stall a primary (the hedge must answer), fail a
    // primary (instant fallback), kill a whole shard (fallback snapshot
    // answers until recovery), then one clean round.
    switch (round % 4) {
      case 1: {
        fault::FaultConfig config;
        config.sites = "shard.stall";
        config.probability = 1.0;
        config.seed = seed + round;
        config.max_injections = 1;
        config.skip_first = chaos.NextBounded(per_round);
        fault::Configure(config);
        ++stalls;
        faulted = true;
        break;
      }
      case 3: {
        fault::FaultConfig config;
        config.sites = "shard.fail";
        config.probability = 1.0;
        config.seed = seed + round;
        config.max_injections = 1;
        config.skip_first = chaos.NextBounded(per_round);
        fault::Configure(config);
        ++fails;
        faulted = true;
        break;
      }
      case 2: {
        // Kill before the round's traffic: acked-but-unrefreshed deltas
        // survive only in the shard's journal.
        dropped_erases[victim] +=
            managers[victim]->buffer().dropped_erases();
        registries[victim]->Publish(nullptr);
        managers[victim].reset();
        ++kills;
        faulted = true;
        break;
      }
      default:
        break;  // clean round: every answer must be whole
    }
    if (faulted) ++faulted_rounds;

    std::atomic<size_t> partial_this_round{0};
    auto client = [&](size_t offset) {
      for (size_t i = 0; i < per_round / 2; ++i) {
        const size_t q = (offset + i) % probe.rows();
        EstimateRequest request;
        request.query = std::span<const float>(probe.Row(q), dim);
        request.tau = tau;
        request.options.deadline_ms = sopts.default_deadline_ms;
        const shard::ShardedEstimateResponse response =
            service.Estimate(request);
        if (!response.status.ok()) continue;
        answered.fetch_add(1, std::memory_order_relaxed);
        if (response.partial) {
          partial_this_round.fetch_add(1, std::memory_order_relaxed);
        }
        if (!std::isfinite(response.estimate) || response.estimate < 0.0 ||
            response.estimate > clamp_bound) {
          clamp_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::thread left(client, 0);
    std::thread right(client, probe.rows() / 2);
    // Deltas round-robin across the alive shards; the killed shard's
    // window simply acks nothing (a dead process takes no writes). One
    // shard also refreshes concurrently with the round's traffic, proving
    // a refresh on shard A never blocks or degrades shard B's answers.
    std::thread ingest([&] {
      for (size_t d = 0; d < deltas_per_round; ++d) {
        const size_t k = (round * deltas_per_round + d) % num_shards;
        if (managers[k] == nullptr) {
          ++shed;
          continue;
        }
        Status st;
        if (d % 2 == 0 && next_insert < pool.rows()) {
          const float* row = pool.Row(next_insert);
          st = managers[k]->Insert(std::span<const float>(row, dim));
          if (st.ok()) acked_inserts[k].emplace_back(row, row + dim);
          ++next_insert;
        } else {
          st = managers[k]->Erase(erase_cursors[k]);
          if (st.ok()) ++acked_erases[k];
          ++erase_cursors[k];
        }
        if (!st.ok()) ++shed;
      }
      const size_t refresh_shard = round % num_shards;
      if (managers[refresh_shard] != nullptr) {
        if (!managers[refresh_shard]->Refresh().ok()) ++refresh_failures;
      }
    });
    left.join();
    right.join();
    ingest.join();
    fault::Disable();
    service.Drain();

    partial_responses += partial_this_round.load();
    if (faulted && partial_this_round.load() > 0) {
      ++faulted_rounds_with_partial;
    }
    if (!faulted && partial_this_round.load() > 0) {
      partial_in_clean_rounds += partial_this_round.load();
    }

    // Recover the killed shard from its own journal, into the SAME
    // registry the scatter-gather tier holds.
    if (round % 4 == 2) {
      auto recovered = update::UpdateManager::RecoverFrom(
          registries[victim].get(), mopts[victim], &model_configs[victim]);
      if (!recovered.ok()) {
        err << "shard-drill: recovery of shard " << victim << " after round "
            << round << " failed: " << recovered.status().ToString() << "\n";
        out << "shard-drill: FAIL\n";
        return 1;
      }
      managers[victim] = std::move(recovered).value();
      ++recoveries;
    }
    for (size_t k = 0; k < num_shards; ++k) {
      const uint64_t epoch = registries[k]->epoch();
      if (epoch < last_epoch[k]) epochs_monotone = false;
      last_epoch[k] = epoch;
    }
  }

  // Convergence: with faults cleared, every shard drains its pending
  // deltas, then the per-shard zero-loss audit runs against the final
  // datasets.
  size_t lost_total = 0, rows_mismatch = 0, pending_total = 0;
  size_t total_acked_inserts = 0, total_acked_erases = 0;
  for (size_t k = 0; k < num_shards; ++k) {
    if (managers[k] == nullptr || managers[k]->needs_recovery()) {
      if (managers[k] != nullptr) {
        dropped_erases[k] += managers[k]->buffer().dropped_erases();
        managers[k].reset();
      }
      auto recovered = update::UpdateManager::RecoverFrom(
          registries[k].get(), mopts[k], &model_configs[k]);
      if (!recovered.ok()) {
        err << "shard-drill: final recovery of shard " << k << " failed: "
            << recovered.status().ToString() << "\n";
        out << "shard-drill: FAIL\n";
        return 1;
      }
      managers[k] = std::move(recovered).value();
      ++kills;
      ++recoveries;
    }
    if (!managers[k]->Refresh().ok()) {
      err << "shard-drill: final refresh of shard " << k << " failed\n";
      out << "shard-drill: FAIL\n";
      return 1;
    }
    if (registries[k]->epoch() < last_epoch[k]) epochs_monotone = false;
    dropped_erases[k] += managers[k]->buffer().dropped_erases();

    const Matrix& points = managers[k]->dataset().points();
    size_t lost = 0;
    for (const std::vector<float>& ins : acked_inserts[k]) {
      bool found = false;
      for (size_t r = 0; r < points.rows() && !found; ++r) {
        found = std::memcmp(points.Row(r), ins.data(),
                            dim * sizeof(float)) == 0;
      }
      if (!found) ++lost;
    }
    const size_t expected_rows = base_rows[k] + acked_inserts[k].size() -
                                 (acked_erases[k] - dropped_erases[k]);
    const size_t final_rows = managers[k]->dataset().size();
    out << "shard-drill[" << k << "]: base_rows=" << base_rows[k]
        << " final_rows=" << final_rows << " expected_rows=" << expected_rows
        << " acked_inserts=" << acked_inserts[k].size() << " acked_erases="
        << acked_erases[k] << " dropped_erases=" << dropped_erases[k]
        << " lost_inserts=" << lost << " epoch=" << registries[k]->epoch()
        << " pending=" << managers[k]->pending() << "\n";
    lost_total += lost;
    if (final_rows != expected_rows) ++rows_mismatch;
    pending_total += managers[k]->pending();
    total_acked_inserts += acked_inserts[k].size();
    total_acked_erases += acked_erases[k];
  }

  const size_t requests_total = rounds * 2 * (per_round / 2);
  out << "shard-drill: shards=" << num_shards << " rounds=" << rounds
      << " requests_per_round=" << per_round << " deltas_per_round="
      << deltas_per_round << " seed=" << seed << "\n";
  out << "shard-drill: requests_total=" << requests_total << " answered="
      << answered.load() << " partial_responses=" << partial_responses
      << " partial_in_clean_rounds=" << partial_in_clean_rounds << "\n";
  out << "shard-drill: faulted_rounds=" << faulted_rounds
      << " faulted_rounds_with_partial=" << faulted_rounds_with_partial
      << " stalls=" << stalls << " fails=" << fails << " kills=" << kills
      << " recoveries=" << recoveries << "\n";
  out << "shard-drill: hedges_fired=" << service.hedges_fired()
      << " hedges_won=" << service.hedges_won() << " hedges_wasted="
      << service.hedges_wasted() << " refresh_failures=" << refresh_failures
      << "\n";
  out << "shard-drill: acked_inserts=" << total_acked_inserts
      << " acked_erases=" << total_acked_erases << " shed=" << shed
      << " lost_inserts=" << lost_total << " rows_mismatch=" << rows_mismatch
      << "\n";
  out << "shard-drill: clamp_violations=" << clamp_violations.load()
      << " epochs_monotone=" << (epochs_monotone ? 1 : 0) << " pending="
      << pending_total << "\n";

  const bool pass = answered.load() == requests_total &&
                    partial_in_clean_rounds == 0 &&
                    faulted_rounds_with_partial == faulted_rounds &&
                    lost_total == 0 && rows_mismatch == 0 &&
                    epochs_monotone && clamp_violations.load() == 0 &&
                    pending_total == 0 && recoveries == kills &&
                    refresh_failures == 0;
  out << "shard-drill: " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

}  // namespace

int RunCliApp(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  const std::vector<std::string> known = {
      "dataset", "scale", "seed", "out",  "data",        "method",
      "segments", "model", "query-row", "tau", "metrics-out",
      "fault", "degraded", "threads", "clients", "requests",
      "deadline-ms", "queue-capacity", "max-batch", "linger-us",
      "delta-fraction", "refresh-threshold", "refresh-epochs",
      "refresh-stale-fraction", "refresh-stale-shift", "refresh-full-reseg",
      "trace-out", "telemetry-out", "journal", "rounds", "deltas",
      "group-commit", "delta-capacity", "refresh-retry-budget",
      "refresh-retry-base-ms", "refresh-retry-max-ms", "shards",
      "feedback-capacity", "feedback-min-neighbors", "feedback-radius",
      "feedback-max-factor"};
  auto cl_or = ParseFlags(argc, argv, known);
  if (!cl_or.ok()) return Fail(err, cl_or.status());
  const CommandLine& cl = cl_or.value();

  const std::string metrics_out = cl.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    obs::SetMetricsEnabled(true);
    obs::MetricsRegistry::Default().SetMetaString("command", command);
  }
  // Collection must be on before the command runs; the reports are written
  // after it returns (events survive in process-wide registries/sinks).
  const std::string trace_out = cl.GetString("trace-out", "");
  if (!trace_out.empty()) obs::SetTracingEnabled(true);
  const std::string telemetry_out = cl.GetString("telemetry-out", "");
  if (!telemetry_out.empty()) obs::SetMetricsEnabled(true);
  const std::string fault_spec = cl.GetString("fault", "");
  if (!fault_spec.empty()) {
    if (Status st = fault::ConfigureFromSpec(fault_spec); !st.ok()) {
      return Fail(err, st);
    }
  }

  int rc;
  if (command == "generate") {
    rc = CmdGenerate(cl, out, err);
  } else if (command == "train") {
    rc = CmdTrain(cl, out, err);
  } else if (command == "estimate") {
    rc = CmdEstimate(cl, out, err);
  } else if (command == "evaluate") {
    rc = CmdEvaluate(cl, out, err);
  } else if (command == "update-bench") {
    rc = CmdUpdateBench(cl, out, err);
  } else if (command == "telemetry-dump") {
    rc = CmdTelemetryDump(cl, out, err);
  } else if (command == "chaos-drill") {
    rc = CmdChaosDrill(cl, out, err);
  } else if (command == "shard-bench") {
    rc = CmdShardBench(cl, out, err);
  } else if (command == "feedback-bench") {
    rc = CmdFeedbackBench(cl, out, err);
  } else {
    err << "unknown command: " << command << "\n" << kUsage;
    return 2;
  }

  if (!metrics_out.empty()) {
    if (Status st = obs::DumpMetricsJson(metrics_out); !st.ok()) {
      err << "writing metrics report: " << st.ToString() << "\n";
      if (rc == 0) rc = 1;
    } else {
      out << "metrics report -> " << metrics_out << "\n";
    }
  }
  if (!trace_out.empty()) {
    if (Status st = obs::DumpTraceJson(trace_out); !st.ok()) {
      err << "writing trace report: " << st.ToString() << "\n";
      if (rc == 0) rc = 1;
    } else {
      out << "trace report -> " << trace_out << "\n";
    }
  }
  // telemetry-dump and feedback-bench already wrote their snapshots, with
  // the service's accuracy windows (and feedback rows) attached; the
  // generic exit-path write has neither source.
  if (!telemetry_out.empty() && command != "telemetry-dump" &&
      command != "feedback-bench") {
    const int trc = WriteTelemetrySnapshot(telemetry_out, nullptr, out, err);
    if (rc == 0) rc = trc;
  }
  return rc;
}

}  // namespace simcard
