// Shared pieces of the four workloads: arguments, the model set-up that
// every workload times, the held-out probe set and its exact-accuracy pass,
// answer checks, and the traced replay of the core inference layers.
#ifndef SIMCARD_PERFBENCH_COMMON_H_
#define SIMCARD_PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/segmentation.h"
#include "common/status.h"
#include "core/gl_estimator.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "util.h"
#include "workload/queries.h"

namespace perfbench {

using simcard::Dataset;
using simcard::GlEstimator;
using simcard::Matrix;
using simcard::Scale;
using simcard::SearchWorkload;
using simcard::Segmentation;

struct Args {
  std::string workload;
  uint64_t seed = 1;       ///< request order and traffic interleaving
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kSmall;
  std::string out_dir = ".bench_out";  ///< spans, journals, records
};

/// Seeds the dataset, the models and the ingest update stream. It is fixed
/// so that every run of a workload serves the same model and its probe
/// pass repeats bit for bit; Args::seed only orders the traffic.
constexpr uint64_t kDataSeed = 2026;

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Segments of the single-model workloads (plan, bulk, ingest).
constexpr size_t kSegments = 16;
/// Training queries per model; the held-out probe set keeps the dataset
/// spec's test query count.
constexpr size_t kTrainQueries = 200;

/// GL-CNN with the shard tier's drill-sized training budget, so a set-up
/// takes seconds and can be repeated inside one run.
simcard::GlEstimatorConfig TrainConfig();

/// One (held-out query, threshold) probe with its exact cardinality.
struct Pair {
  uint32_t row = 0;  ///< row of the workload's test query matrix
  float tau = 0.0f;
  double truth = 0.0;
};

/// The search request for one probe (a view of its query row).
simcard::EstimateRequest RequestFor(const Matrix& queries, const Pair& p);

/// Every test query x each of its thresholds, in workload order.
std::vector<Pair> ProbePairs(const SearchWorkload& workload);

/// A seeded permutation of [0, n): the order requests are sent in.
std::vector<uint32_t> StreamOrder(size_t n, uint64_t seed);

/// A trained single model plus the timed set-up phases that produced it.
struct GlSetup {
  Dataset dataset;
  Segmentation segmentation;
  SearchWorkload workload;
  std::unique_ptr<GlEstimator> model;
  double generate_s = 0.0;
  double segment_s = 0.0;
  double label_s = 0.0;
  double train_s = 0.0;
};

/// generate -> segment -> label -> train, each phase timed.
simcard::Result<GlSetup> BuildGl(const std::string& dataset, Scale scale);

/// Bitwise equality: batch == single and repeat checks allow no rounding.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True when a served answer is usable: OK status, finite, in [0, population].
bool AnswerOk(const simcard::Status& status, double estimate,
              double population);

/// Runs the probe pass twice through `estimate`, checks both passes are
/// bitwise equal, and sets qerror_p50 / qerror_p95.
template <typename EstimateFn>
void ScoreProbe(const std::vector<Pair>& pairs, EstimateFn estimate,
                Record* record);

/// Per-phase set-up times over the repetitions of one run.
struct SetupTimes {
  Samples total_s, generate_s, segment_s, label_s, train_s;
  void Report(Record* record) const;
};

/// Traced replay of the core inference layer over the probe set: features
/// (CentroidDistanceRow), GlobalModel::Probabilities, each selected
/// LocalModel::Estimate, the whole Estimate, and EstimateSearchBatch per
/// row. Checks batch == single bitwise and reports the reconciliation of
/// the parts against core.estimate_us.
void ReplayCore(const std::vector<const GlEstimator*>& models,
                const Matrix& queries, const std::vector<Pair>& pairs,
                SpanRecorder* spans, Record* record);

/// Writes the traced run's spans under Args::out_dir (at most a bounded
/// number; every span still feeds the per-layer aggregates).
void WriteSpans(const Args& args, const SpanRecorder& spans, Record* record);

/// Records the run-level facts shared by every workload.
void RecordRun(const Args& args, size_t generator_threads,
               size_t service_threads, Record* record);

/// OK operations of one client over a measured phase [start_ns, start_ns +
/// seconds): their count and a bounded uniform sample of their client
/// latencies (reservoir sampling). The buffer is allocated and touched up
/// front, so the benchmark's own memory does not grow with throughput and
/// peak_rss_mb tracks the program.
class ReadLog {
 public:
  static constexpr size_t kSamples = 1 << 16;

  ReadLog() = default;
  ReadLog(int64_t start_ns, double seconds, uint64_t seed);
  void Add(int64_t done_ns, double latency_us);
  /// Every OK operation added, including those after the measured time.
  uint64_t size() const { return total_; }

 private:
  friend void ReportReads(std::span<const ReadLog> logs, double seconds,
                          Record* record);
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
  uint64_t total_ = 0;
  uint64_t measured_ = 0;       ///< completed inside the measured time
  std::vector<float> samples_;  ///< min(measured_, kSamples) kept
  uint64_t rng_ = 1;
};

/// Sets peak_rss_mb: the process's peak RSS when the measured phase ends,
/// before the benchmark's own analysis allocates.
void ReportPeakRss(Record* record);

/// Sets qps (OK operations per measured second) and lat_p50_us /
/// lat_p90_us / lat_p99_us from the clients' logs of one phase, each pooled
/// over the whole phase and every client.
void ReportReads(std::span<const ReadLog> logs, double seconds,
                 Record* record);

// --- template definitions ---

template <typename EstimateFn>
void ScoreProbe(const std::vector<Pair>& pairs, EstimateFn estimate,
                Record* record) {
  std::vector<double> first(pairs.size()), second(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) first[i] = estimate(pairs[i]);
  for (size_t i = 0; i < pairs.size(); ++i) second[i] = estimate(pairs[i]);
  size_t mismatched = 0;
  Samples qerror;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!SameBits(first[i], second[i])) ++mismatched;
    qerror.Add(simcard::QError(first[i], pairs[i].truth));
  }
  record->CountOps("probe", 2 * pairs.size(), mismatched);
  record->Check("probe_passes_bitwise_equal", mismatched == 0,
                std::to_string(mismatched) + " of " +
                    std::to_string(pairs.size()) + " probes differ");
  record->Set("qerror_p50", qerror.Percentile(0.50), "ratio", qerror.size());
  record->Set("qerror_p95", qerror.Percentile(0.95), "ratio", qerror.size());
}

}  // namespace perfbench

#endif  // SIMCARD_PERFBENCH_COMMON_H_
