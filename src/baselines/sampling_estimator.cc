#include "baselines/sampling_estimator.h"

#include <algorithm>
#include <cmath>

#include "core/model_size.h"
#include "data/sampling.h"

namespace simcard {

std::unique_ptr<SamplingEstimator> SamplingEstimator::Equal(
    size_t target_bytes) {
  auto est = std::make_unique<SamplingEstimator>("Sampling (equal)", 0.0);
  est->target_bytes_ = target_bytes;
  return est;
}

Status SamplingEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr) {
    return Status::InvalidArgument("SamplingEstimator: dataset required");
  }
  const Dataset& data = *ctx.dataset;
  size_t rows;
  if (target_bytes_ > 0) {
    rows = SampleRowsForBytes(data, target_bytes_);
  } else {
    if (fraction_ <= 0.0 || fraction_ > 1.0) {
      return Status::InvalidArgument(
          "SamplingEstimator: fraction must be in (0,1]");
    }
    rows = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(fraction_ * static_cast<double>(data.size()))));
  }
  Rng rng(ctx.seed);
  sample_ = GatherRows(data.points(), SampleIndices(data, rows, &rng));
  metric_ = data.metric();
  scale_ = static_cast<double>(data.size()) / static_cast<double>(rows);
  use_bits_ = metric_ == Metric::kHamming;
  if (use_bits_) sample_bits_ = BitMatrix::FromMatrix(sample_);
  return Status::OK();
}

double SamplingEstimator::Estimate(const EstimateRequest& request) {
  if (!QueryHasDim(request, sample_.cols())) return 0.0;
  const float* query = request.query.data();
  const float tau = request.tau;
  size_t hits = 0;
  if (use_bits_) {
    const auto packed = sample_bits_.PackVector(query);
    for (size_t i = 0; i < sample_bits_.rows(); ++i) {
      hits += sample_bits_.HammingNormalized(i, packed.data()) <= tau;
    }
  } else {
    for (size_t i = 0; i < sample_.rows(); ++i) {
      hits += Distance(query, sample_.Row(i), sample_.cols(), metric_) <= tau;
    }
  }
  return static_cast<double>(hits) * scale_;
}

size_t SamplingEstimator::ModelSizeBytes() const {
  return sample_.size() * sizeof(float);
}

}  // namespace simcard
