#include "core/global_model.h"

#include <algorithm>
#include <memory>

#include "core/train_loop.h"
#include "nn/activations.h"
#include "nn/losses.h"

namespace simcard {

void GlobalModelConfig::Serialize(Serializer* out) const {
  out->WriteU64(query_dim);
  out->WriteU64(num_segments);
  out->WriteU32(use_cnn_query_tower ? 1 : 0);
  qes.Serialize(out);
  out->WriteU64(mlp_hidden);
  out->WriteU64(query_embed);
  out->WriteU64(tau_hidden);
  out->WriteU64(tau_embed);
  out->WriteU64(aux_hidden);
  out->WriteU64(head_hidden);
  out->WriteF32(sigma);
}

Status GlobalModelConfig::Deserialize(Deserializer* in) {
  uint64_t v = 0;
  uint32_t flag = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  query_dim = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  num_segments = v;
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
  aux_hidden = v;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&v));
  head_hidden = v;
  return in->ReadF32(&sigma);
}

Result<std::unique_ptr<GlobalModel>> GlobalModel::Build(
    const GlobalModelConfig& config, Rng* rng) {
  if (config.query_dim == 0 || config.num_segments == 0) {
    return Status::InvalidArgument(
        "GlobalModel: query_dim and num_segments must be positive");
  }
  CardModelConfig net;
  net.query_dim = config.query_dim;
  net.use_cnn_query_tower = config.use_cnn_query_tower;
  net.qes = config.qes;
  net.mlp_hidden = config.mlp_hidden;
  net.query_embed = config.query_embed;
  net.tau_hidden = config.tau_hidden;
  net.tau_embed = config.tau_embed;
  net.aux_dim = config.num_segments;  // x_C
  net.aux_hidden = config.aux_hidden;
  net.head_hidden = config.head_hidden;
  // One logit per segment: the head's monotone branch is the learnable
  // pre-sigmoid threshold of Section 5.1, and its free branch discriminates
  // segments from (z_q, z_C).
  auto net_or = CardModel::Build(net, /*out_dim=*/config.num_segments, rng);
  if (!net_or.ok()) return net_or.status();
  auto model = std::unique_ptr<GlobalModel>(new GlobalModel());
  model->config_ = config;
  model->net_ = std::move(net_or).value();
  return model;
}

std::vector<float> GlobalModel::Probabilities(const float* query, float tau,
                                              const float* xc) const {
  Matrix xq(1, config_.query_dim);
  xq.SetRow(0, query);
  Matrix xt(1, 1);
  xt.at(0, 0) = tau;
  Matrix xcm(1, config_.num_segments);
  xcm.SetRow(0, xc);
  Matrix logits = ApplyLogits(xq, xt, xcm);
  std::vector<float> probs(config_.num_segments);
  for (size_t s = 0; s < probs.size(); ++s) {
    probs[s] = nn::SigmoidScalar(logits.at(0, s));
  }
  return probs;
}

Matrix GlobalModel::ApplyBatch(const Matrix& xq, const Matrix& xtau,
                               const Matrix& xc) const {
  Matrix probs = ApplyLogits(xq, xtau, xc);
  float* d = probs.data();
  for (size_t i = 0; i < probs.size(); ++i) d[i] = nn::SigmoidScalar(d[i]);
  return probs;
}

std::vector<size_t> GlobalModel::SelectSegments(
    const std::vector<float>& probs) const {
  std::vector<size_t> selected;
  SelectSegmentsInto(std::span<const float>(probs.data(), probs.size()),
                     &selected);
  return selected;
}

void GlobalModel::SelectSegmentsInto(std::span<const float> probs,
                                     std::vector<size_t>* out) const {
  out->clear();
  for (size_t s = 0; s < probs.size(); ++s) {
    if (probs[s] > config_.sigma) out->push_back(s);
  }
  if (out->empty() && !probs.empty()) {
    out->push_back(static_cast<size_t>(
        std::max_element(probs.begin(), probs.end()) - probs.begin()));
  }
}

// G's layout is CardModel's without the aux-presence word: G always has
// its x_C tower.
void GlobalModel::Serialize(Serializer* out) const {
  const CardModel& net = *net_;
  net.SerializeNormalization(out);
  net.query_tower_->Serialize(out);
  net.tau_tower_->Serialize(out);
  net.aux_tower_->Serialize(out);
  net.head_->Serialize(out);
}

Status GlobalModel::Deserialize(Deserializer* in) {
  CardModel& net = *net_;
  SIMCARD_RETURN_IF_ERROR(net.DeserializeNormalization(in));
  SIMCARD_RETURN_IF_ERROR(net.query_tower_->Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(net.tau_tower_->Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(net.aux_tower_->Deserialize(in));
  return net.head_->Deserialize(in);
}

void GlobalModel::SaveWithConfig(Serializer* out) const {
  config_.Serialize(out);
  Serialize(out);
}

Result<std::unique_ptr<GlobalModel>> GlobalModel::LoadWithConfig(
    Deserializer* in) {
  GlobalModelConfig config;
  SIMCARD_RETURN_IF_ERROR(config.Deserialize(in));
  Rng rng(0);  // weights are overwritten immediately
  auto model_or = Build(config, &rng);
  if (!model_or.ok()) return model_or.status();
  SIMCARD_RETURN_IF_ERROR(model_or.value()->Deserialize(in));
  return model_or;
}

Result<double> TrainGlobalModel(GlobalModel* model, const Matrix& queries,
                                const Matrix& xc_features,
                                const GlobalLabels& labels,
                                const GlobalTrainOptions& options) {
  const size_t total = labels.samples.size();
  if (total == 0) return 0.0;
  // Refit on every call, fine-tunes included.
  FitInputNormalization(model, labels.samples, &xc_features);

  nn::WeightedBceLoss loss;
  const size_t n_seg = labels.labels.cols();
  std::vector<size_t> order(total);
  for (size_t i = 0; i < total; ++i) order[i] = i;
  return RunTrainingEpochs(
      model, options, "global", &order, [&](size_t first, size_t count) {
        Matrix xq(count, queries.cols());
        Matrix xtau(count, 1);
        Matrix xc(count, xc_features.cols());
        Matrix target(count, n_seg);
        Matrix penalty(count, n_seg);
        for (size_t i = 0; i < count; ++i) {
          const size_t idx = order[first + i];
          const SampleRef& s = labels.samples[idx];
          xq.SetRow(i, queries.Row(s.query_row));
          xtau.at(i, 0) = s.tau;
          xc.SetRow(i, xc_features.Row(s.query_row));
          target.SetRow(i, labels.labels.Row(idx));
          if (options.use_penalty) {
            penalty.SetRow(i, labels.penalty.Row(idx));
          }
        }
        Matrix logits = model->ForwardLogits(xq, xtau, xc);
        Matrix grad;
        const double batch_loss =
            loss.Compute(logits, target, penalty, &grad);
        model->Backward(grad);
        return batch_loss;
      });
}

}  // namespace simcard
