// Multi-tower cardinality regression model (Figure 2 / Figure 7).
//
// Three embedding towers — query (E1: MLP or QES-CNN), threshold (E2:
// positive-weight MLP), optional distance features (E3/E6: two-hidden-layer
// MLP) — feed a two-branch MonotoneHead F: the tau embedding travels only
// through positive weights and monotone activations, so the predicted
// log-cardinality is provably non-decreasing in tau (the paper's
// monotonicity property, Sections 2/5.1), while query/distance features use
// an unconstrained branch.
//
// Built with one output per data segment, the same network is the global
// model G (core/global_model.h); both train in core/train_loop.h.
//
// The model predicts u = log(card); the training loss exponentiates it
// (nn::HybridCardLoss). ForwardPooled/BackwardPooled implement the paper's
// similarity-join mode (Section 4): member query embeddings (and member aux
// embeddings) are sum-pooled into one set embedding, so the head runs once
// per query set.
#ifndef SIMCARD_CORE_CARD_MODEL_H_
#define SIMCARD_CORE_CARD_MODEL_H_

#include <memory>

#include "core/features.h"
#include "core/qes.h"
#include "core/train_watchdog.h"
#include "nn/losses.h"
#include "nn/monotone_head.h"
#include "nn/sequential.h"
#include "workload/labels.h"

namespace simcard {

/// \brief Architecture of a CardModel.
struct CardModelConfig {
  size_t query_dim = 0;

  /// Query tower: MLP (the paper's GL-MLP / MLP baselines) or QES CNN.
  bool use_cnn_query_tower = false;
  QesConfig qes;           ///< used when use_cnn_query_tower
  size_t mlp_hidden = 64;  ///< used otherwise
  size_t query_embed = 32;

  size_t tau_hidden = 16;
  size_t tau_embed = 8;

  /// Width of the aux feature (x_D sample distances or x_C centroid
  /// distances); 0 disables the aux tower.
  size_t aux_dim = 0;
  size_t aux_hidden = 32;

  size_t head_hidden = 64;

  void Serialize(Serializer* out) const;
  Status Deserialize(Deserializer* in);
};

/// \brief The assembled model. Create via Build().
class CardModel {
 public:
  static Result<std::unique_ptr<CardModel>> Build(
      const CardModelConfig& config, Rng* rng);

  /// Per-sample mode: returns [B,1] log-cardinality predictions.
  Matrix Forward(const Matrix& xq, const Matrix& xtau, const Matrix& xaux);

  /// Stateless inference twin of Forward: same math through nn::Layer::Apply,
  /// no cached activations, safe for concurrent callers sharing one model.
  Matrix Apply(const Matrix& xq, const Matrix& xtau, const Matrix& xaux) const;

  /// Backprop for the last Forward; `grad` is [B,1].
  void Backward(const Matrix& grad);

  /// Join mode: member embeddings are pooled; returns [1,1] log of the
  /// *total* cardinality over the member multiset (for mean pooling the
  /// caller scales by the member count — see PooledMode).
  ///
  /// kSum is the paper's sum pooling. kMeanScaled divides the pooled
  /// embedding by |Q| and lets the caller multiply the exponentiated output
  /// by |Q|: the head then models the *average* member cardinality, which
  /// extrapolates to set sizes beyond the training range far better than a
  /// locally-linear head on a sum (whose log-estimate grows linearly in
  /// |Q| while the truth grows like log |Q|). Documented extension; the
  /// join benches ablate both.
  enum class PooledMode { kSum, kMeanScaled };

  Matrix ForwardPooled(const Matrix& xq_members, float tau,
                       const Matrix& xaux_members,
                       PooledMode mode = PooledMode::kSum);

  /// Backprop for the last ForwardPooled; `grad` is [1,1].
  void BackwardPooled(const Matrix& grad);

  /// Convenience single-query estimate (returns raw cardinality, not log).
  /// Runs on the stateless Apply path, so it is const and thread-safe.
  double EstimateCard(const float* query, float tau, const float* aux) const;

  /// Batch twin of EstimateCard: one Apply over all rows, then the same
  /// per-row log-card clamp and exponentiation. Row i of the result equals
  /// EstimateCard(xq.Row(i), xtau.at(i,0), xaux.Row(i)) bitwise (every
  /// layer is row-independent; see DESIGN.md §11). `xaux` is ignored when
  /// the model has no aux tower.
  std::vector<double> ApplyBatch(const Matrix& xq, const Matrix& xtau,
                                 const Matrix& xaux) const;

  std::vector<nn::Parameter*> Parameters();
  std::vector<const nn::Parameter*> Parameters() const;
  size_t NumScalars() const;

  /// Warm-starts the head's output bias (e.g. at mean log-card).
  void SetOutputBias(float value);

  /// \brief Input standardization, fitted when training starts
  /// (FitInputNormalization in core/train_loop.h).
  ///
  /// tau and each aux column are z-scored before entering their towers.
  /// The tau transform is affine with positive scale, so monotonicity in
  /// tau is preserved. Raw thresholds often span a ~0.01-wide band (they
  /// are chosen by selectivity); without this the positive-weight tau tower
  /// would need huge weights to resolve them.
  void SetInputNormalization(float tau_shift, float tau_scale,
                             std::vector<float> aux_shift,
                             std::vector<float> aux_scale);

  const CardModelConfig& config() const { return config_; }

  /// Persists parameters + input normalization (structure must already
  /// match; see SaveWithConfig for self-describing persistence).
  void Serialize(Serializer* out) const;
  Status Deserialize(Deserializer* in);

  /// Self-describing persistence: writes the architecture config followed
  /// by the weights, so Load can rebuild the exact model (including a tuned
  /// QES geometry) without out-of-band information.
  void SaveWithConfig(Serializer* out) const;
  static Result<std::unique_ptr<CardModel>> LoadWithConfig(Deserializer* in);

 private:
  // GlobalModel is this network built wide, with its own file layout.
  friend class GlobalModel;

  CardModel() = default;

  /// Build with `out_dim` outputs (the public Build has one).
  static Result<std::unique_ptr<CardModel>> Build(
      const CardModelConfig& config, size_t out_dim, Rng* rng);

  /// The standardization, first in both this layout and GlobalModel's.
  /// Reading refuses an aux standardization that is not as wide as the
  /// aux input, since NormalizeAux indexes it by column.
  void SerializeNormalization(Serializer* out) const;
  Status DeserializeNormalization(Deserializer* in);

  Matrix NormalizeTau(const Matrix& xtau) const;
  Matrix NormalizeAux(const Matrix& xaux) const;

  CardModelConfig config_;
  std::unique_ptr<nn::Sequential> query_tower_;
  std::unique_ptr<nn::Sequential> tau_tower_;
  std::unique_ptr<nn::Sequential> aux_tower_;  // may be null
  std::unique_ptr<nn::MonotoneHead> head_;
  size_t query_embed_dim_ = 0;
  size_t tau_embed_dim_ = 0;
  size_t aux_embed_dim_ = 0;
  size_t pooled_members_ = 0;  // batch size of the last pooled forward
  PooledMode pooled_mode_ = PooledMode::kSum;
  bool last_forward_pooled_ = false;
  float tau_shift_ = 0.0f;
  float tau_scale_ = 1.0f;
  std::vector<float> aux_shift_;
  std::vector<float> aux_scale_;
};

/// \brief Options for TrainCardModel.
struct CardTrainOptions {
  size_t epochs = 40;
  size_t batch_size = 64;
  float lr = 2e-3f;
  float lambda = 0.2f;        ///< Q-error weight in the hybrid loss
  double grad_clip_norm = 5.0;
  uint64_t seed = 41;
  /// Stop early when the epoch loss fails to improve by `min_improvement`
  /// (relative) for `patience` consecutive epochs.
  double min_improvement = 0.005;
  size_t patience = 6;
  /// Warm-start the output bias at the mean log-cardinality of the training
  /// labels, and refit the input standardization. Disable when fine-tuning
  /// an already-trained model.
  bool reset_output_bias = true;
  /// Name under which per-epoch loss/time are reported to the observability
  /// layer (obs::NotifyTrainEpoch); empty = silent (e.g. tuner trial fits).
  std::string observer_tag;
  /// Divergence watchdog policy (rollback + LR halving on NaN/exploding
  /// loss; see core/train_watchdog.h).
  WatchdogOptions watchdog;
};

/// Trains with Adam + the hybrid MAPE/Q-error loss (Algorithm 1). `aux` may
/// be null when the model has no aux tower. Returns the final epoch loss.
/// Fails (descriptive Status, model rolled back to its last good
/// checkpoint) when the divergence watchdog exhausts its retries.
Result<double> TrainCardModel(CardModel* model, const Matrix& queries,
                              const Matrix* aux,
                              std::vector<SampleRef> samples,
                              const CardTrainOptions& options);

}  // namespace simcard

#endif  // SIMCARD_CORE_CARD_MODEL_H_
