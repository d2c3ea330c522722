// Common interface implemented by every cardinality estimator (the paper's
// methods 1-13 in Table 2 plus the non-learned baselines).
//
// The estimation surface is request-based: callers build an
// EstimateRequest (or a BatchEstimateRequest for batch-of-queries
// inference) and pass it to Estimate / EstimateBatch.
#ifndef SIMCARD_CORE_ESTIMATOR_H_
#define SIMCARD_CORE_ESTIMATOR_H_

#include <span>
#include <string>
#include <vector>

#include "cluster/segmentation.h"
#include "data/dataset.h"
#include "workload/queries.h"

namespace simcard {

namespace obs {
class TraceContext;  // obs/request_trace.h; core stays decoupled from obs
}  // namespace obs

/// \brief Everything an estimator may use during training.
///
/// All pointers are borrowed and must outlive the estimator. `segmentation`
/// is null for methods that do not segment data.
struct TrainContext {
  const Dataset* dataset = nullptr;
  const SearchWorkload* workload = nullptr;
  const Segmentation* segmentation = nullptr;
  uint64_t seed = 51;
};

/// \brief Per-segment evaluation hook for serving layers.
///
/// Segmented estimators (the GL family) consult the policy before
/// evaluating a segment's local model and report each outcome afterwards,
/// which lets a caller (e.g. the serve layer's circuit breaker) route
/// persistently-failing segments to the sampling fallback without the
/// estimator itself holding mutable per-request state — the estimator stays
/// const and shareable. Implementations own their thread-safety; the
/// estimator only calls the hooks from the thread running the estimate.
class SegmentEvalPolicy {
 public:
  virtual ~SegmentEvalPolicy() = default;

  /// Return true to skip segment `s`'s local model and answer from the
  /// retained sampling fallback instead.
  virtual bool ForceFallback(size_t s) = 0;

  /// Called after each local-model evaluation; `ok` is false when the model
  /// produced a non-finite or negative estimate (which the estimator then
  /// replaces with the fallback answer).
  virtual void OnLocalResult(size_t s, bool ok) = 0;
};

/// \brief Per-request evaluation probe filled in by segmented estimators.
///
/// Fixed-size and allocation-free so the serving layer can hang one off
/// every request without touching the heap. Collects which segments
/// contributed to the estimate (capped at kMaxSegments; `evaluated` keeps
/// the true count) and, when `trace` is set, lets the estimator publish
/// per-segment trace events parented under `trace_parent`.
struct EstimateProbe {
  static constexpr size_t kMaxSegments = 16;

  obs::TraceContext* trace = nullptr;  ///< optional; borrowed
  uint32_t trace_parent = 0;  ///< span id per-segment events hang under

  uint32_t segments[kMaxSegments] = {};  ///< first `stored` evaluated ids
  /// Global-model membership probability per stored segment (1.0 when the
  /// estimator has no global model). Parallel to `segments`; together with
  /// the request tau this is the feature vector the serve-time feedback
  /// store keys corrections on (src/feedback/).
  float probs[kMaxSegments] = {};
  uint16_t stored = 0;
  uint16_t evaluated = 0;          ///< total segments evaluated (uncapped)
  uint16_t fallback_segments = 0;  ///< answered by the sampling fallback
  uint16_t forced_segments = 0;    ///< triangle-guard force-includes

  void NoteSegment(uint32_t s, bool used_fallback, float prob = 1.0f) {
    ++evaluated;
    if (used_fallback) ++fallback_segments;
    if (stored < kMaxSegments) {
      probs[stored] = prob;
      segments[stored++] = s;
    }
  }
  void NoteForced() { ++forced_segments; }
};

/// \brief Knobs that ride along with a request.
///
/// `policy` is honored by segmented estimators and ignored by flat ones;
/// `deadline_ms` is consumed by the serving layer (direct calls ignore it —
/// an estimator never preempts itself); `probe`, when non-null, is filled
/// with per-segment provenance by segmented estimators and left untouched
/// by flat ones.
struct EstimateOptions {
  SegmentEvalPolicy* policy = nullptr;
  double deadline_ms = 0.0;  ///< 0 = use the server's default deadline
  EstimateProbe* probe = nullptr;
  /// Serve-layer knob: when false, the feedback subsystem (src/feedback/)
  /// never adjusts this request's answer — the caller gets the raw model
  /// estimate. Ignored by estimators themselves.
  bool allow_feedback_correction = true;
};

/// \brief One search-cardinality question: card(query, tau, D).
///
/// `query` must hold exactly the estimator's dim() floats; the span's size
/// is the only length the estimator trusts.
struct EstimateRequest {
  std::span<const float> query;
  float tau = 0.0f;
  EstimateOptions options;
};

/// \brief A batch of search-cardinality questions sharing one options set.
///
/// Row i of `*queries` pairs with `taus[i]`; `taus.size()` must equal
/// `queries->rows()`. The matrix is borrowed for the duration of the call.
struct BatchEstimateRequest {
  const Matrix* queries = nullptr;
  std::span<const float> taus;
  EstimateOptions options;
};

/// \brief A similarity-query cardinality estimator.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Display name matching the paper's Table 2 labels, e.g. "GL+".
  virtual std::string Name() const = 0;

  /// Fits the estimator. Must be called before any Estimate*.
  virtual Status Train(const TrainContext& ctx) = 0;

  /// Estimated card(q, tau, D). Non-const because implementations reuse
  /// internal forward-pass buffers.
  virtual double Estimate(const EstimateRequest& request) = 0;

  /// Estimated card(q_i, tau_i, D) for every row of the batch. The default
  /// loops Estimate per row; batch-native estimators (GlEstimator) override
  /// with one forward pass per segment and guarantee bitwise-identical
  /// per-row answers. Either way a row past the end of `taus` answers 0
  /// and counts simcard.fallback.invalid_tau.
  virtual std::vector<double> EstimateBatch(
      const BatchEstimateRequest& request);

  /// Estimated card(Q, tau, D) for the multiset of rows of `queries`
  /// selected by `rows`. The default sums per-query search estimates; join
  /// models override with batch (sum-pooled) evaluation.
  virtual double EstimateJoin(const Matrix& queries,
                              const std::vector<uint32_t>& rows, float tau);

  /// Serialized model size in bytes (Table 5). For sampling baselines this
  /// is the retained sample; for learned models, float32 weights.
  virtual size_t ModelSizeBytes() const = 0;

  /// Wall-clock seconds of the last Train call (Figure 14).
  double training_seconds() const { return training_seconds_; }

 protected:
  void set_training_seconds(double s) { training_seconds_ = s; }

 private:
  double training_seconds_ = 0.0;
};

/// True when `request.query` holds exactly `dim` floats, the only length an
/// estimator may read from it. Otherwise counts
/// simcard.fallback.invalid_query (when metrics are on) and returns false;
/// the estimator then answers 0, the one estimate valid for every dataset.
bool QueryHasDim(const EstimateRequest& request, size_t dim);

/// \brief Finds the smallest threshold in [lo, hi] whose estimated
/// cardinality reaches `target`, by binary search on tau.
///
/// Sound because simcard estimators are monotone non-decreasing in tau (the
/// paper's third desired property, Section 2) — this is the classic
/// downstream use of that property: "return roughly K similar objects"
/// without knowing the right radius up front. If even `hi` falls short of
/// `target`, returns `hi`.
float InvertCardinality(Estimator* estimator, std::span<const float> query,
                        double target, float lo, float hi,
                        int iterations = 32);

}  // namespace simcard

#endif  // SIMCARD_CORE_ESTIMATOR_H_
