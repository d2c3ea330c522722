// The global-local estimator family (Sections 3.3 & 5, Table 2 rows 2-5).
//
//   Local+  — data segmentation, no global model (every local model is
//             evaluated), auto-tuned CNN query towers;
//   GL-MLP  — global-local, MLP query towers (no query segmentation);
//   GL-CNN  — global-local, QES CNN query towers, fixed hyperparameters;
//   GL+     — GL-CNN plus Algorithm 3's greedy hyperparameter tuning.
//
// One class covers all four via GlEstimatorConfig presets. The estimator
// owns a mutable copy of the segmentation so incremental updates (Section
// 5.3) can reroute points and fine-tune models without touching the
// caller's segmentation.
#ifndef SIMCARD_CORE_GL_ESTIMATOR_H_
#define SIMCARD_CORE_GL_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/global_model.h"
#include "core/local_model.h"
#include "core/segment_fallback.h"
#include "core/tuner.h"

namespace simcard {

class CheckedFileWriter;

/// \brief Configuration selecting a member of the GL family.
struct GlEstimatorConfig {
  std::string name = "GL+";
  bool use_cnn_query_tower = true;  ///< false -> GL-MLP
  bool use_global_model = true;     ///< false -> Local+
  /// Query-tower type of the *global* model; follows the local towers by
  /// default (Table 2's Embed column). The global model always uses the
  /// DEFAULT QES geometry rather than Algorithm 3's tuned one: the tuner
  /// optimizes per-segment regression error, which is the wrong objective
  /// for the routing task.
  bool global_use_cnn_query_tower = true;
  bool auto_tune = false;           ///< true  -> GL+ (and Local+)
  bool use_penalty = true;          ///< Exp-6 ablation switch
  float sigma = 0.5f;               ///< global selection threshold
  /// Triangle-inequality routing guards (Section 5.1 motivates the bound
  /// "distance upper bound between a query and a data object in a data
  /// segment ... using triangle inequality on the distance of the query to
  /// the centroid, and this segment's radius"):
  ///   - exclude a selected segment when xc[s] > tau + radius[s] (it
  ///     provably contains no match — removes false-positive inclusions);
  ///   - force-include a segment when xc[s] <= tau (its centroid itself is
  ///     within the threshold — backstops global-model misses).
  bool use_triangle_guards = true;

  /// When true (default, as in the paper) Algorithm 3 runs per segment;
  /// when false it runs once on the densest segment and the tuned geometry
  /// is shared by all local models — a cheaper variant used at tiny scale.
  bool tune_per_segment = true;

  QesConfig qes;            ///< base CNN geometry (before tuning)
  size_t mlp_hidden = 64;   ///< MLP tower width (GL-MLP)
  size_t query_embed = 32;
  size_t tau_hidden = 16;
  size_t tau_embed = 8;
  size_t aux_hidden = 24;
  size_t head_hidden = 48;

  double zero_keep_prob = 0.15;  ///< zero-card sample retention per segment
  CardTrainOptions local_train;
  GlobalTrainOptions global_train;
  TunerOptions tuner;

  /// Preset factories matching the paper's method names.
  static GlEstimatorConfig LocalPlus();
  static GlEstimatorConfig GlMlp();
  static GlEstimatorConfig GlCnn();
  static GlEstimatorConfig GlPlus();
};

/// \brief One segment's contribution to an estimate, with provenance.
///
/// Returned by EstimatePerSegment for the evaluated (selected) segments
/// only. `used_fallback` is true when the answer came from the retained
/// sampling fallback (quarantined model, policy override, or a non-finite
/// local result); `forced` is true when the segment entered the selection
/// through the triangle-inequality force-include rather than the global
/// model's routing.
struct SegmentEstimate {
  size_t segment = 0;
  double estimate = 0.0;
  bool used_fallback = false;
  bool forced = false;
};

/// \brief Global-local cardinality estimator.
///
/// Inference (Estimate / EstimateSearchBatch / EstimatePerSegment /
/// FallbackEstimate) is const and runs on the stateless nn Apply path, so
/// any number of threads may share one trained instance; see src/serve/ for
/// the serving layer built on that guarantee. Train / ApplyUpdates /
/// ApplyDeletions / LoadFromFile mutate the estimator and must be
/// externally serialized against concurrent readers (the serve layer clones
/// via SaveToBytes / LoadFromBytes and swaps whole snapshots instead).
class GlEstimator : public Estimator {
 public:
  explicit GlEstimator(GlEstimatorConfig config)
      : config_(std::move(config)) {}

  std::string Name() const override { return config_.name; }
  Status Train(const TrainContext& ctx) override;
  double Estimate(const EstimateRequest& request) override;
  std::vector<double> EstimateBatch(
      const BatchEstimateRequest& request) override;
  size_t ModelSizeBytes() const override;

  /// Const inference entry point: identical to the Estimator override.
  double Estimate(const EstimateRequest& request) const;

  /// \brief Batch-of-queries inference: one centroid-feature build and one
  /// global forward for the whole batch, then one local forward per
  /// *segment* covering every query routed to it, instead of one forward
  /// per (query, segment).
  ///
  /// Row i of `queries` pairs with `taus[i]`. Per-query routing decisions
  /// (global-model thresholding, triangle guards, validation failures) are
  /// identical to the single-query path, and each returned estimate is
  /// bitwise equal to
  /// Estimate(EstimateRequest{queries.Row(i), taus[i]}) — see DESIGN.md §11
  /// and tests/core/batch_parity_test.cc. A stateful `policy` is the one
  /// exception: its hooks fire in segment-major order here versus
  /// query-major order in the single path, so order-sensitive policies
  /// (e.g. a tripping circuit breaker) may diverge across the two.
  ///
  /// `probes`, when non-empty, is indexed by ORIGINAL row (probes[i] pairs
  /// with queries.Row(i)); null entries and short spans are fine. Each
  /// row's probe receives the same per-segment provenance (and trace
  /// events) the single-query path would produce for that row.
  std::vector<double> EstimateSearchBatch(
      const Matrix& queries, std::span<const float> taus,
      SegmentEvalPolicy* policy = nullptr,
      std::span<EstimateProbe* const> probes = {}) const;

  /// Per-segment estimates for the selected segments only; Estimate sums
  /// them, and tests and perfbench's core replay call it directly. `probe`,
  /// when non-null, collects per-segment provenance (and publishes trace
  /// events when its TraceContext is set).
  std::vector<SegmentEstimate> EstimatePerSegment(
      const float* query, float tau, SegmentEvalPolicy* policy = nullptr,
      EstimateProbe* probe = nullptr) const;

  /// Fraction of the true cardinality that falls in segments the global
  /// model did NOT select, averaged over all test samples with nonzero
  /// cardinality (the Figure 9 "missing rate"). Requires per-segment labels
  /// in the workload.
  double MissingRate(const SearchWorkload& workload) const;

  /// Average number of local models evaluated per test sample.
  double MeanSelectedSegments(const SearchWorkload& workload) const;

  /// \brief Incremental update (Section 5.3).
  ///
  /// `new_rows` index rows already appended to `dataset`. Each is routed to
  /// its nearest segment (updating this estimator's own segmentation copy),
  /// then `workload` is relabeled against the grown dataset and the
  /// affected local models plus the global model are fine-tuned for
  /// `fine_tune_epochs`.
  Status ApplyUpdates(const Dataset& dataset, SearchWorkload* workload,
                      const std::vector<uint32_t>& new_rows, uint64_t seed,
                      size_t fine_tune_epochs = 3);

  /// \name Incremental-refresh building blocks (Section 5.3)
  ///
  /// ApplyUpdates / ApplyDeletions are single-shot conveniences composed
  /// from these pieces; update::UpdateManager drives them individually
  /// against a cloned snapshot (route/erase -> rebuild fallbacks -> relabel
  /// -> fine-tune only the stale segments -> publish). All of them mutate
  /// the estimator and must be serialized against concurrent readers.
  ///@{

  /// Routes rows already appended to `dataset` to their nearest segment
  /// centroids (updating the owned segmentation's running means/radii and
  /// the routed segments' population clamps). Appends the touched segment
  /// ids, ascending and unique, to `touched`.
  Status RouteInserts(const Dataset& dataset,
                      const std::vector<uint32_t>& new_rows,
                      std::vector<size_t>* touched);

  /// Drops `rows` (ascending, unique; already compacted out of `dataset`)
  /// from the owned segmentation, updating clamps, and — unlike the
  /// trailing-deletion path, which leaves summaries for the fine-tune to
  /// absorb — recomputes the touched segments' centroids and radii when
  /// `recompute_summaries` is set, so routing quality survives large
  /// deletes. Appends touched segment ids, ascending and unique.
  Status EraseRows(const Dataset& dataset, const std::vector<uint32_t>& rows,
                   std::vector<size_t>* touched,
                   bool recompute_summaries = true);

  /// Re-samples the retained SegmentFallback members and refreshes the
  /// population clamp |D^[i]| for the given segments — required after any
  /// membership change, or the degradation path answers from vectors that
  /// may no longer exist in the dataset.
  void RebuildFallbacks(const Dataset& dataset,
                        const std::vector<size_t>& segments, uint64_t seed);

  /// Fine-tunes the given segments' local models for `epochs` on the
  /// (already relabeled) workload. Quarantined slots are skipped.
  Status FineTuneSegments(const SearchWorkload& workload,
                          const std::vector<size_t>& segments, uint64_t seed,
                          size_t epochs);

  /// Short global-model fine-tune on relabeled (x_q, x_tau, x_C) examples;
  /// a no-op Status::OK for Local+ (no global model).
  Status FineTuneGlobal(const SearchWorkload& workload, uint64_t seed,
                        size_t epochs);
  ///@}

  /// \brief Incremental deletion (Section 5.3): the caller has already
  /// Truncate()d the trailing `num_removed` rows off `dataset`; the removed
  /// points are dropped from their segments, labels are refreshed, and the
  /// touched local models plus the global model are fine-tuned.
  Status ApplyDeletions(const Dataset& dataset, SearchWorkload* workload,
                        size_t num_removed, uint64_t seed,
                        size_t fine_tune_epochs = 3);

  /// \brief Persists the trained estimator (segmentation + every model,
  /// self-describing) so inference can resume in a fresh process.
  ///
  /// The query-tower geometry — including per-segment tuned configs — is
  /// embedded in the file; LoadFromFile needs only a GlEstimatorConfig for
  /// the behavioral knobs (sigma, zero_keep_prob, training options for
  /// later fine-tunes).
  ///
  /// Files are written in the checked v2 container format (see
  /// common/checked_file.h): versioned header plus a CRC-32 per section, so
  /// truncation and bit flips are detected instead of deserialized. Files
  /// without the container's magic are refused with InvalidArgument.
  Status SaveToFile(const std::string& path) const;

  /// How LoadFromFile treats a file whose structural sections (header,
  /// meta, segmentation, qes) are intact but whose model sections fail
  /// their checksum.
  enum class LoadMode {
    kStrict,    ///< any corrupt section fails the load (default)
    kDegraded,  ///< corrupt local models are quarantined (inference uses
                ///< the per-segment sampling fallback); a corrupt global
                ///< model degrades to evaluating every segment
  };

  Status LoadFromFile(const std::string& path,
                      LoadMode mode = LoadMode::kStrict);

  /// The checked v2 container as bytes — SaveToFile without the filesystem.
  /// With LoadFromBytes this clones a trained estimator in memory, which is
  /// how the serve layer builds a mutable snapshot off to the side while
  /// readers keep using the published one.
  std::vector<uint8_t> SaveToBytes() const;

  /// Restores an estimator from SaveToBytes output (checked v2 only).
  Status LoadFromBytes(std::vector<uint8_t> bytes,
                       LoadMode mode = LoadMode::kStrict);

  const Segmentation& segmentation() const { return segmentation_; }
  GlobalModel* global_model() { return global_.get(); }
  const GlobalModel* global_model() const { return global_.get(); }
  size_t num_local_models() const { return locals_.size(); }
  LocalModel* local_model(size_t i) { return locals_[i].get(); }
  const LocalModel* local_model(size_t i) const { return locals_[i].get(); }
  /// The retained sampling fallback for segment `i` (parallel to locals).
  const SegmentFallback& segment_fallback(size_t i) const {
    return fallbacks_[i];
  }
  size_t dim() const { return dim_; }
  Metric metric() const { return metric_; }
  const GlEstimatorConfig& config() const { return config_; }
  const QesConfig& tuned_qes() const { return tuned_qes_; }

  /// Number of local models quarantined by the last degraded load.
  size_t num_quarantined_locals() const;

 private:
  CardModelConfig LocalConfig() const;
  /// Reusable buffers for SelectWithGuards: the batch path routes many rows
  /// back to back, so the per-segment guard masks live in caller scratch
  /// instead of being reallocated per row.
  struct SelectScratch {
    std::vector<char> keep;
    std::vector<char> forced;
  };
  /// Routing shared by the single-query and batch paths: thresholds the
  /// global probabilities (`probs` holds one value per segment), applies
  /// the triangle guards, and fills the evaluated segment set (ascending)
  /// with a parallel forced-include flag (`forced_out` may be null when the
  /// caller does not need the flags). Keeping one implementation is what
  /// guarantees identical per-query pruning decisions across the two paths.
  void SelectWithGuards(const float* probs, const float* xc, float tau,
                        SelectScratch* scratch,
                        std::vector<size_t>* selected_out,
                        std::vector<char>* forced_out) const;
  /// Fine-tunes `segments` (ascending) with per-segment seed
  /// `base_seed + mul*s + add` — the one implementation behind
  /// ApplyUpdates (13s+7), ApplyDeletions (41s+3), and FineTuneSegments,
  /// so each path keeps its historical RNG stream bitwise.
  Status FineTuneLocalsSeeded(const SearchWorkload& workload, const Matrix& xc,
                              const std::vector<size_t>& segments,
                              uint64_t base_seed, uint64_t mul, uint64_t add,
                              size_t epochs);
  /// Global fine-tune against precomputed centroid features.
  Status FineTuneGlobalWithFeatures(const SearchWorkload& workload,
                                    const Matrix& xc, uint64_t seed,
                                    size_t epochs);
  /// Writes every section of the checked v2 container into `writer`.
  Status WriteCheckedSections(CheckedFileWriter* writer) const;
  /// Sampling-fallback estimate for segment `s` (0 when no samples).
  double FallbackEstimate(size_t s, const float* query, float tau) const;

  GlEstimatorConfig config_;
  Segmentation segmentation_;  // owned mutable copy
  Metric metric_ = Metric::kL2;
  size_t dim_ = 0;
  QesConfig tuned_qes_;
  // A slot is null when a degraded load quarantined that segment's model;
  // inference then answers from fallbacks_[s].
  std::vector<std::unique_ptr<LocalModel>> locals_;
  std::vector<SegmentFallback> fallbacks_;  // parallel to locals_
  std::unique_ptr<GlobalModel> global_;  // null for Local+
};

}  // namespace simcard

#endif  // SIMCARD_CORE_GL_ESTIMATOR_H_
