// Global discriminative model G (Section 3.3, Figure 5, Algorithm 2).
//
// Given (x_q, x_tau, x_C) — query vector, threshold, and distances from the
// query to every segment centroid — G outputs one probability per data
// segment that the segment contains at least one object within tau of the
// query. Local models are evaluated only for segments whose probability
// exceeds sigma.
//
// G is the CardModel network built num_segments wide, with x_C as its
// distance feature, so its logits are monotone in tau by the same
// construction (a positive-weight tau path plus all-positive output weights
// acts as the paper's "learnable threshold before the Sigmoid activator").
// What is G's own: its config, the sigmoid, sigma selection and its on-disk
// layout. Training runs the shared loop (core/train_loop.h) with the
// cardinality-weighted BCE loss whose (1+eps) penalty keeps segments with
// large cardinalities from being missed (Exp-6 / Figure 9).
#ifndef SIMCARD_CORE_GLOBAL_MODEL_H_
#define SIMCARD_CORE_GLOBAL_MODEL_H_

#include <memory>
#include <span>
#include <utility>

#include "core/card_model.h"

namespace simcard {

/// \brief Architecture of the global model.
struct GlobalModelConfig {
  size_t query_dim = 0;
  size_t num_segments = 0;  ///< x_C width and output width

  bool use_cnn_query_tower = false;
  QesConfig qes;
  size_t mlp_hidden = 64;
  size_t query_embed = 32;

  size_t tau_hidden = 16;
  size_t tau_embed = 8;
  size_t aux_hidden = 32;
  size_t head_hidden = 64;

  float sigma = 0.5f;  ///< segment-selection probability threshold

  void Serialize(Serializer* out) const;
  Status Deserialize(Deserializer* in);
};

/// \brief The assembled global model.
class GlobalModel {
 public:
  static Result<std::unique_ptr<GlobalModel>> Build(
      const GlobalModelConfig& config, Rng* rng);

  /// Pre-sigmoid segment scores, [B, num_segments].
  Matrix ForwardLogits(const Matrix& xq, const Matrix& xtau,
                       const Matrix& xc) {
    return net_->Forward(xq, xtau, xc);
  }

  /// Backprop for the last ForwardLogits; `grad` is [B, num_segments].
  void Backward(const Matrix& grad) { net_->Backward(grad); }

  /// Stateless inference twin of ForwardLogits (nn::Layer::Apply path): no
  /// cached activations, safe for concurrent callers sharing one model.
  Matrix ApplyLogits(const Matrix& xq, const Matrix& xtau,
                     const Matrix& xc) const {
    return net_->Apply(xq, xtau, xc);
  }

  /// Per-segment selection probabilities for one query. Runs on the
  /// stateless Apply path, so it is const and thread-safe.
  std::vector<float> Probabilities(const float* query, float tau,
                                   const float* xc) const;

  /// Batch twin of Probabilities: one ApplyLogits over all rows, sigmoid
  /// per element, returned as [B, num_segments]. Row i matches
  /// Probabilities(xq.Row(i), xtau.at(i,0), xc.Row(i)) bitwise (all layers
  /// are row-independent).
  Matrix ApplyBatch(const Matrix& xq, const Matrix& xtau,
                    const Matrix& xc) const;

  /// Indices of segments whose probability exceeds sigma. Never empty: when
  /// nothing clears sigma the single most probable segment is returned, so
  /// the estimator cannot return an unconditionally-zero estimate.
  std::vector<size_t> SelectSegments(const std::vector<float>& probs) const;

  /// Allocation-free SelectSegments: clears and refills `out` (capacity is
  /// reused), so per-row selection in the batch path costs no heap traffic.
  void SelectSegmentsInto(std::span<const float> probs,
                          std::vector<size_t>* out) const;

  std::vector<nn::Parameter*> Parameters() { return net_->Parameters(); }
  std::vector<const nn::Parameter*> Parameters() const {
    return std::as_const(*net_).Parameters();
  }
  size_t NumScalars() const { return net_->NumScalars(); }

  /// Input standardization (see CardModel::SetInputNormalization): tau gets
  /// a positive-scale affine transform (monotonicity preserved), x_C is
  /// z-scored per column. Fitted by TrainGlobalModel.
  void SetInputNormalization(float tau_shift, float tau_scale,
                             std::vector<float> xc_shift,
                             std::vector<float> xc_scale) {
    net_->SetInputNormalization(tau_shift, tau_scale, std::move(xc_shift),
                                std::move(xc_scale));
  }

  float sigma() const { return config_.sigma; }
  const GlobalModelConfig& config() const { return config_; }

  void Serialize(Serializer* out) const;
  Status Deserialize(Deserializer* in);

  /// Self-describing persistence (config + weights).
  void SaveWithConfig(Serializer* out) const;
  static Result<std::unique_ptr<GlobalModel>> LoadWithConfig(
      Deserializer* in);

 private:
  GlobalModel() = default;

  GlobalModelConfig config_;
  /// E4 (query), E5 (tau), E6 (x_C) and G's output module.
  std::unique_ptr<CardModel> net_;
};

/// \brief Options for TrainGlobalModel (Algorithm 2).
struct GlobalTrainOptions {
  size_t epochs = 40;
  size_t batch_size = 64;
  float lr = 2e-3f;
  bool use_penalty = true;  ///< the Exp-6 ablation switch
  double grad_clip_norm = 5.0;
  uint64_t seed = 43;
  double min_improvement = 0.003;
  size_t patience = 6;
  /// Observability tag for per-epoch loss reporting (see CardTrainOptions).
  std::string observer_tag = "global";
  /// Divergence watchdog policy (see core/train_watchdog.h).
  WatchdogOptions watchdog;
};

/// Trains on the flattened global labels; `xc_features` is the per-query
/// x_C matrix ([num_queries, num_segments]). Returns the final epoch loss.
/// Fails (descriptive Status, model rolled back to its last good
/// checkpoint) when the divergence watchdog exhausts its retries.
Result<double> TrainGlobalModel(GlobalModel* model, const Matrix& queries,
                                const Matrix& xc_features,
                                const GlobalLabels& labels,
                                const GlobalTrainOptions& options);

}  // namespace simcard

#endif  // SIMCARD_CORE_GLOBAL_MODEL_H_
