#include "core/card_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "core/train_loop.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/positive_linear.h"
#include "tensor/ops.h"

namespace simcard {
namespace {

constexpr float kLogCardLo = -10.0f;
constexpr float kLogCardHi = 25.0f;

std::unique_ptr<nn::Sequential> BuildMlpTower(size_t in_dim, size_t hidden,
                                              size_t out_dim, Rng* rng) {
  auto tower = std::make_unique<nn::Sequential>();
  tower->Emplace<nn::Linear>(in_dim, hidden, rng);
  tower->Emplace<nn::Relu>();
  tower->Emplace<nn::Linear>(hidden, out_dim, rng);
  tower->Emplace<nn::Relu>();
  return tower;
}

// The paper's E2/E5: one-hidden-layer MLP with all-positive weights so the
// embedding is monotone in tau. Biases of the first layer are staggered over
// the standardized tau range so the ReLU units form a hinge basis (zero
// biases would leave every unit dead for below-average thresholds).
std::unique_ptr<nn::Sequential> BuildTauTower(size_t hidden, size_t out_dim,
                                              Rng* rng) {
  auto tower = std::make_unique<nn::Sequential>();
  auto* first = tower->Emplace<nn::PositiveLinear>(1, hidden, rng);
  first->InitBiasUniform(-2.0f, 2.0f, rng);
  tower->Emplace<nn::Relu>();
  tower->Emplace<nn::PositiveLinear>(hidden, out_dim, rng);
  tower->Emplace<nn::Relu>();
  return tower;
}

// The paper's E3/E6: two hidden layers (Section 5.1).
std::unique_ptr<nn::Sequential> BuildAuxTower(size_t in_dim, size_t hidden,
                                              Rng* rng) {
  auto tower = std::make_unique<nn::Sequential>();
  tower->Emplace<nn::Linear>(in_dim, hidden, rng);
  tower->Emplace<nn::Relu>();
  tower->Emplace<nn::Linear>(hidden, hidden, rng);
  tower->Emplace<nn::Relu>();
  return tower;
}

}  // namespace

void CardModelConfig::Serialize(Serializer* out) const {
  out->WriteU64(query_dim);
  out->WriteU32(use_cnn_query_tower ? 1 : 0);
  qes.Serialize(out);
  out->WriteU64(mlp_hidden);
  out->WriteU64(query_embed);
  out->WriteU64(tau_hidden);
  out->WriteU64(tau_embed);
  out->WriteU64(aux_dim);
  out->WriteU64(aux_hidden);
  out->WriteU64(head_hidden);
}

Status CardModelConfig::Deserialize(Deserializer* in) {
  uint64_t v = 0;
  uint32_t flag = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  query_dim = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU32(&flag));
  use_cnn_query_tower = flag != 0;
  SIMCARD_RETURN_IF_ERROR(qes.Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  mlp_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  query_embed = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  tau_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  tau_embed = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  aux_dim = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  aux_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  head_hidden = v;
  return Status::OK();
}

Result<std::unique_ptr<CardModel>> CardModel::Build(
    const CardModelConfig& config, Rng* rng) {
  return Build(config, /*out_dim=*/1, rng);
}

Result<std::unique_ptr<CardModel>> CardModel::Build(
    const CardModelConfig& config, size_t out_dim, Rng* rng) {
  if (config.query_dim == 0) {
    return Status::InvalidArgument("CardModel: query_dim must be positive");
  }
  auto model = std::unique_ptr<CardModel>(new CardModel());
  model->config_ = config;

  if (config.use_cnn_query_tower) {
    auto tower_or = BuildQesTower(config.query_dim, config.qes, rng,
                                  &model->query_embed_dim_);
    if (!tower_or.ok()) return tower_or.status();
    model->query_tower_ = std::move(tower_or.value());
  } else {
    model->query_embed_dim_ = config.query_embed;
    model->query_tower_ = BuildMlpTower(config.query_dim, config.mlp_hidden,
                                        config.query_embed, rng);
  }

  model->tau_embed_dim_ = config.tau_embed;
  model->tau_tower_ = BuildTauTower(config.tau_hidden, config.tau_embed, rng);

  if (config.aux_dim > 0) {
    model->aux_embed_dim_ = config.aux_hidden;
    model->aux_tower_ = BuildAuxTower(config.aux_dim, config.aux_hidden, rng);
  }

  const size_t concat = model->query_embed_dim_ + model->tau_embed_dim_ +
                        model->aux_embed_dim_;
  // Two-branch head: a positive-weight monotone path carries tau, an
  // unconstrained free path carries everything else (see nn/monotone_head.h).
  model->head_ = std::make_unique<nn::MonotoneHead>(
      concat,
      /*tau_begin=*/model->query_embed_dim_,
      /*tau_end=*/model->query_embed_dim_ + model->tau_embed_dim_,
      /*mono_hidden=*/std::max<size_t>(8, config.head_hidden / 4),
      /*free_hidden=*/config.head_hidden, out_dim, rng);
  return model;
}

Matrix CardModel::NormalizeTau(const Matrix& xtau) const {
  Matrix out = xtau;
  float* d = out.data();
  for (size_t i = 0; i < out.size(); ++i) {
    d[i] = (d[i] - tau_shift_) / tau_scale_;
  }
  return out;
}

Matrix CardModel::NormalizeAux(const Matrix& xaux) const {
  if (aux_shift_.empty() || xaux.empty()) return xaux;
  assert(xaux.cols() == aux_shift_.size());
  Matrix out = xaux;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    for (size_t c = 0; c < out.cols(); ++c) {
      row[c] = (row[c] - aux_shift_[c]) / aux_scale_[c];
    }
  }
  return out;
}

Matrix CardModel::Forward(const Matrix& xq, const Matrix& xtau,
                          const Matrix& xaux) {
  assert(xq.rows() == xtau.rows());
  last_forward_pooled_ = false;
  std::vector<Matrix> parts;
  parts.push_back(query_tower_->Forward(xq));
  parts.push_back(tau_tower_->Forward(NormalizeTau(xtau)));
  if (aux_tower_ != nullptr) {
    assert(xaux.rows() == xq.rows());
    parts.push_back(aux_tower_->Forward(NormalizeAux(xaux)));
  }
  return head_->Forward(ConcatCols(parts));
}

Matrix CardModel::Apply(const Matrix& xq, const Matrix& xtau,
                        const Matrix& xaux) const {
  assert(xq.rows() == xtau.rows());
  std::vector<Matrix> parts;
  parts.push_back(query_tower_->Apply(xq));
  parts.push_back(tau_tower_->Apply(NormalizeTau(xtau)));
  if (aux_tower_ != nullptr) {
    assert(xaux.rows() == xq.rows());
    parts.push_back(aux_tower_->Apply(NormalizeAux(xaux)));
  }
  return head_->Apply(ConcatCols(parts));
}

void CardModel::Backward(const Matrix& grad) {
  assert(!last_forward_pooled_);
  Matrix gh = head_->Backward(grad);
  size_t offset = 0;
  query_tower_->Backward(gh.SliceCols(offset, offset + query_embed_dim_));
  offset += query_embed_dim_;
  tau_tower_->Backward(gh.SliceCols(offset, offset + tau_embed_dim_));
  offset += tau_embed_dim_;
  if (aux_tower_ != nullptr) {
    aux_tower_->Backward(gh.SliceCols(offset, offset + aux_embed_dim_));
  }
}

Matrix CardModel::ForwardPooled(const Matrix& xq_members, float tau,
                                const Matrix& xaux_members, PooledMode mode) {
  last_forward_pooled_ = true;
  pooled_members_ = xq_members.rows();
  pooled_mode_ = mode;
  const float scale =
      mode == PooledMode::kMeanScaled
          ? 1.0f / static_cast<float>(std::max<size_t>(1, pooled_members_))
          : 1.0f;
  std::vector<Matrix> parts;
  parts.push_back(
      Scale(nn::SumPoolRows(query_tower_->Forward(xq_members)), scale));
  Matrix xtau(1, 1);
  xtau.at(0, 0) = tau;
  parts.push_back(tau_tower_->Forward(NormalizeTau(xtau)));
  if (aux_tower_ != nullptr) {
    assert(xaux_members.rows() == xq_members.rows());
    parts.push_back(Scale(
        nn::SumPoolRows(aux_tower_->Forward(NormalizeAux(xaux_members))),
        scale));
  }
  return head_->Forward(ConcatCols(parts));
}

void CardModel::BackwardPooled(const Matrix& grad) {
  assert(last_forward_pooled_);
  Matrix gh = head_->Backward(grad);
  const float scale =
      pooled_mode_ == PooledMode::kMeanScaled
          ? 1.0f / static_cast<float>(std::max<size_t>(1, pooled_members_))
          : 1.0f;
  // Pooling's gradient broadcasts the pooled slice to every member row
  // (scaled by 1/|Q| for mean pooling).
  auto broadcast = [this, scale](const Matrix& slice) {
    Matrix out(pooled_members_, slice.cols());
    for (size_t r = 0; r < pooled_members_; ++r) {
      out.SetRow(r, slice.Row(0));
    }
    return Scale(out, scale);
  };
  size_t offset = 0;
  query_tower_->Backward(
      broadcast(gh.SliceCols(offset, offset + query_embed_dim_)));
  offset += query_embed_dim_;
  tau_tower_->Backward(gh.SliceCols(offset, offset + tau_embed_dim_));
  offset += tau_embed_dim_;
  if (aux_tower_ != nullptr) {
    aux_tower_->Backward(
        broadcast(gh.SliceCols(offset, offset + aux_embed_dim_)));
  }
}

double CardModel::EstimateCard(const float* query, float tau,
                               const float* aux) const {
  Matrix xq(1, config_.query_dim);
  xq.SetRow(0, query);
  Matrix xtau(1, 1);
  xtau.at(0, 0) = tau;
  Matrix xaux;
  if (aux_tower_ != nullptr) {
    assert(aux != nullptr);
    xaux = Matrix(1, config_.aux_dim);
    xaux.SetRow(0, aux);
  }
  const float u = std::min(
      kLogCardHi, std::max(kLogCardLo, Apply(xq, xtau, xaux).at(0, 0)));
  return std::exp(static_cast<double>(u));
}

std::vector<double> CardModel::ApplyBatch(const Matrix& xq,
                                          const Matrix& xtau,
                                          const Matrix& xaux) const {
  const Matrix u = aux_tower_ != nullptr ? Apply(xq, xtau, xaux)
                                         : Apply(xq, xtau, Matrix());
  std::vector<double> out(u.rows());
  for (size_t r = 0; r < u.rows(); ++r) {
    const float c = std::min(kLogCardHi, std::max(kLogCardLo, u.at(r, 0)));
    out[r] = std::exp(static_cast<double>(c));
  }
  return out;
}

std::vector<nn::Parameter*> CardModel::Parameters() {
  // The const list, on a model the caller may modify.
  std::vector<nn::Parameter*> out;
  for (const nn::Parameter* p : std::as_const(*this).Parameters()) {
    out.push_back(const_cast<nn::Parameter*>(p));
  }
  return out;
}

std::vector<const nn::Parameter*> CardModel::Parameters() const {
  std::vector<const nn::Parameter*> out =
      static_cast<const nn::Layer*>(query_tower_.get())->Parameters();
  auto append = [&out](const nn::Layer* layer) {
    if (layer == nullptr) return;
    auto ps = layer->Parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(tau_tower_.get());
  append(aux_tower_.get());
  append(head_.get());
  return out;
}

size_t CardModel::NumScalars() const {
  return nn::CountScalars(Parameters());
}

void CardModel::SetOutputBias(float value) { head_->SetOutputBias(value); }

void CardModel::SetInputNormalization(float tau_shift, float tau_scale,
                                      std::vector<float> aux_shift,
                                      std::vector<float> aux_scale) {
  tau_shift_ = tau_shift;
  tau_scale_ = tau_scale > 1e-12f ? tau_scale : 1.0f;
  aux_shift_ = std::move(aux_shift);
  aux_scale_ = std::move(aux_scale);
  for (auto& s : aux_scale_) {
    if (s <= 1e-12f) s = 1.0f;
  }
}

void CardModel::SerializeNormalization(Serializer* out) const {
  out->WriteF32(tau_shift_);
  out->WriteF32(tau_scale_);
  out->WriteFloatVector(aux_shift_);
  out->WriteFloatVector(aux_scale_);
}

Status CardModel::DeserializeNormalization(Deserializer* in) {
  SIMCARD_RETURN_IF_ERROR(in->ReadF32(&tau_shift_));
  SIMCARD_RETURN_IF_ERROR(in->ReadF32(&tau_scale_));
  SIMCARD_RETURN_IF_ERROR(in->ReadFloatVector(&aux_shift_));
  SIMCARD_RETURN_IF_ERROR(in->ReadFloatVector(&aux_scale_));
  const size_t width = aux_shift_.empty() ? 0 : config_.aux_dim;
  if (aux_shift_.size() != width || aux_scale_.size() != width) {
    return Status::Internal("CardModel: aux standardization width mismatch");
  }
  return Status::OK();
}

void CardModel::Serialize(Serializer* out) const {
  SerializeNormalization(out);
  query_tower_->Serialize(out);
  tau_tower_->Serialize(out);
  out->WriteU32(aux_tower_ != nullptr ? 1 : 0);
  if (aux_tower_ != nullptr) aux_tower_->Serialize(out);
  head_->Serialize(out);
}

Status CardModel::Deserialize(Deserializer* in) {
  SIMCARD_RETURN_IF_ERROR(DeserializeNormalization(in));
  SIMCARD_RETURN_IF_ERROR(query_tower_->Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(tau_tower_->Deserialize(in));
  uint32_t has_aux = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU32(&has_aux));
  if ((has_aux != 0) != (aux_tower_ != nullptr)) {
    return Status::Internal("CardModel: aux tower presence mismatch");
  }
  if (aux_tower_ != nullptr) {
    SIMCARD_RETURN_IF_ERROR(aux_tower_->Deserialize(in));
  }
  return head_->Deserialize(in);
}

void CardModel::SaveWithConfig(Serializer* out) const {
  config_.Serialize(out);
  Serialize(out);
}

Result<std::unique_ptr<CardModel>> CardModel::LoadWithConfig(
    Deserializer* in) {
  CardModelConfig config;
  SIMCARD_RETURN_IF_ERROR(config.Deserialize(in));
  Rng rng(0);  // weights are overwritten immediately
  auto model_or = Build(config, &rng);
  if (!model_or.ok()) return model_or.status();
  SIMCARD_RETURN_IF_ERROR(model_or.value()->Deserialize(in));
  return model_or;
}

Result<double> TrainCardModel(CardModel* model, const Matrix& queries,
                              const Matrix* aux,
                              std::vector<SampleRef> samples,
                              const CardTrainOptions& options) {
  if (samples.empty()) return 0.0;
  // A fine-tune (reset_output_bias off) keeps the standardization and the
  // output anchor the model was trained with.
  if (options.reset_output_bias) {
    FitInputNormalization(model, samples,
                          model->config().aux_dim > 0 ? aux : nullptr);
    // Warm-start the output bias at the mean log-cardinality.
    double mean_log = 0.0;
    for (const auto& s : samples) {
      mean_log += std::log(std::max(1.0f, s.card));
    }
    model->SetOutputBias(static_cast<float>(mean_log / samples.size()));
  }

  nn::HybridCardLoss loss(options.lambda);
  return RunTrainingEpochs(
      model, options, "card", &samples, [&](size_t first, size_t count) {
        Batch batch = GatherBatch(queries, aux, samples, first, count);
        Matrix pred = model->Forward(batch.xq, batch.xtau, batch.xaux);
        Matrix grad;
        const double batch_loss = loss.Compute(pred, batch.targets, &grad);
        model->Backward(grad);
        return batch_loss;
      });
}

}  // namespace simcard
