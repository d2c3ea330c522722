#include "baselines/cardnet_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stopwatch.h"
#include "nn/activations.h"
#include "nn/optimizer.h"
#include "workload/labels.h"

namespace simcard {
namespace {

// Inclusion weight of bucket b at threshold tau: 1 below tau's bucket, a
// linear fraction inside it, 0 above. Differentiable-in-parameters (the
// weights depend only on tau) and monotone non-decreasing in tau.
void BucketInclusion(const std::vector<float>& upper, float tau,
                     std::vector<float>* w) {
  w->assign(upper.size(), 0.0f);
  float lower = 0.0f;
  for (size_t b = 0; b < upper.size(); ++b) {
    if (tau >= upper[b]) {
      (*w)[b] = 1.0f;
    } else if (tau > lower) {
      (*w)[b] = (tau - lower) / std::max(1e-9f, upper[b] - lower);
      break;
    } else {
      break;
    }
    lower = upper[b];
  }
}

// d(hybrid loss)/d(card) in raw cardinality space.
float HybridGradRawCard(float card, float y, float lambda, float clip) {
  const float yc = std::max(y, 0.1f);
  const float c = std::max(card, 1e-3f);
  float g = (c >= y ? 1.0f : -1.0f) / yc;            // MAPE term
  g += lambda * (c >= yc ? 1.0f / yc : -yc / (c * c));  // Q-error term
  return std::min(clip, std::max(-clip, g));
}

}  // namespace

Status CardNetEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr || ctx.workload == nullptr) {
    return Status::InvalidArgument("CardNet: dataset/workload required");
  }
  Stopwatch watch;
  Rng rng(ctx.seed);
  const size_t d = ctx.dataset->dim();
  query_dim_ = d;
  max_card_ = static_cast<double>(ctx.dataset->size());

  // Equal-frequency bucket boundaries over the training thresholds.
  std::vector<float> taus;
  for (const auto& q : ctx.workload->train) {
    for (const auto& t : q.thresholds) taus.push_back(t.tau);
  }
  if (taus.empty()) {
    return Status::InvalidArgument("CardNet: empty training workload");
  }
  std::sort(taus.begin(), taus.end());
  const size_t nb = std::min(config_.num_buckets, taus.size());
  bucket_upper_.resize(nb);
  for (size_t b = 0; b < nb; ++b) {
    const size_t rank =
        std::min(taus.size() - 1, (b + 1) * taus.size() / nb);
    bucket_upper_[b] = taus[rank];
  }
  bucket_upper_.back() = taus.back();
  // Deduplicate ties by nudging (keeps inclusion weights well-defined).
  for (size_t b = 1; b < nb; ++b) {
    if (bucket_upper_[b] <= bucket_upper_[b - 1]) {
      bucket_upper_[b] = std::nextafter(bucket_upper_[b - 1],
                                        std::numeric_limits<float>::max());
    }
  }

  // Fully-connected encoder (no query segmentation, by design).
  encoder_ = std::make_unique<nn::Sequential>();
  encoder_->Emplace<nn::Linear>(d, config_.encoder_hidden, &rng);
  encoder_->Emplace<nn::Relu>();
  encoder_->Emplace<nn::Linear>(config_.encoder_hidden, config_.encoder_out,
                                &rng);
  encoder_->Emplace<nn::Relu>();
  decoder_ = std::make_unique<nn::Linear>(config_.encoder_out, nb, &rng);

  std::vector<nn::Parameter*> params = encoder_->Parameters();
  {
    auto dp = decoder_->Parameters();
    params.insert(params.end(), dp.begin(), dp.end());
  }
  nn::Adam opt(params, config_.lr);

  auto samples = FlattenSearch(ctx.workload->train);
  const Matrix& queries = ctx.workload->train_queries;
  std::vector<float> inclusion;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&samples);
    for (size_t first = 0; first < samples.size();
         first += config_.batch_size) {
      const size_t count =
          std::min(config_.batch_size, samples.size() - first);
      Matrix xq(count, d);
      for (size_t i = 0; i < count; ++i) {
        xq.SetRow(i, queries.Row(samples[first + i].query_row));
      }
      opt.ZeroGrad();
      Matrix raw = decoder_->Forward(encoder_->Forward(xq));
      Matrix grad_raw(count, nb);
      for (size_t i = 0; i < count; ++i) {
        const SampleRef& s = samples[first + i];
        BucketInclusion(bucket_upper_, s.tau, &inclusion);
        double card = 0.0;
        const float* raw_row = raw.Row(i);
        for (size_t b = 0; b < nb; ++b) {
          card += inclusion[b] * nn::SoftplusScalar(raw_row[b]);
        }
        const float gc = HybridGradRawCard(static_cast<float>(card), s.card,
                                           config_.lambda, 5.0f) /
                         static_cast<float>(count);
        float* grow = grad_raw.Row(i);
        for (size_t b = 0; b < nb; ++b) {
          grow[b] = gc * inclusion[b] * nn::SigmoidScalar(raw_row[b]);
        }
      }
      encoder_->Backward(decoder_->Backward(grad_raw));
      opt.ClipGradNorm(config_.grad_clip_norm);
      opt.Step();
    }
  }
  set_training_seconds(watch.ElapsedSeconds());
  return Status::OK();
}

double CardNetEstimator::PredictCard(const Matrix& increments_row, float tau,
                                     std::vector<float>* inclusion) const {
  BucketInclusion(bucket_upper_, tau, inclusion);
  double card = 0.0;
  for (size_t b = 0; b < bucket_upper_.size(); ++b) {
    card += (*inclusion)[b] *
            nn::SoftplusScalar(increments_row.at(0, b));
  }
  return card;
}

double CardNetEstimator::Estimate(const EstimateRequest& request) {
  if (!QueryHasDim(request, query_dim_)) return 0.0;
  Matrix row(1, query_dim_);
  row.SetRow(0, request.query.data());
  Matrix raw = decoder_->Forward(encoder_->Forward(row));
  std::vector<float> inclusion;
  // No query can match more objects than the dataset holds.
  return std::min(PredictCard(raw, request.tau, &inclusion), max_card_);
}

size_t CardNetEstimator::ModelSizeBytes() const {
  size_t scalars = bucket_upper_.size();
  scalars += nn::CountScalars(
      static_cast<const nn::Layer*>(encoder_.get())->Parameters());
  scalars += nn::CountScalars(
      static_cast<const nn::Layer*>(decoder_.get())->Parameters());
  return scalars * sizeof(float);
}

}  // namespace simcard
