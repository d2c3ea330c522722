#include "baselines/kernel_estimator.h"

#include <algorithm>
#include <cmath>

#include "data/sampling.h"

namespace simcard {
namespace {

// Standard normal CDF.
double NormalCdf(double z) { return 0.5 * std::erfc(-z * M_SQRT1_2); }

}  // namespace

Status KernelEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr) {
    return Status::InvalidArgument("KernelEstimator: dataset required");
  }
  if (fraction_ <= 0.0 || fraction_ > 1.0) {
    return Status::InvalidArgument(
        "KernelEstimator: fraction must be in (0,1]");
  }
  const Dataset& data = *ctx.dataset;
  const size_t rows = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(fraction_ * static_cast<double>(data.size()))));
  Rng rng(ctx.seed);
  sample_ = GatherRows(data.points(), SampleIndices(data, rows, &rng));
  metric_ = data.metric();
  scale_ = static_cast<double>(data.size()) / static_cast<double>(rows);
  return Status::OK();
}

double KernelEstimator::Estimate(const EstimateRequest& request) {
  if (!QueryHasDim(request, sample_.cols())) return 0.0;
  const float* query = request.query.data();
  const float tau = request.tau;
  const size_t k = sample_.rows();
  std::vector<double> dists(k);
  double mean = 0.0;
  for (size_t i = 0; i < k; ++i) {
    dists[i] = Distance(query, sample_.Row(i), sample_.cols(), metric_);
    mean += dists[i];
  }
  mean /= static_cast<double>(k);
  double var = 0.0;
  for (double d : dists) var += (d - mean) * (d - mean);
  var /= static_cast<double>(std::max<size_t>(1, k - 1));
  // Silverman's rule of thumb for a 1-D Gaussian kernel over distances.
  const double bandwidth = std::max(
      1e-6, 1.06 * std::sqrt(var) *
                std::pow(static_cast<double>(k), -0.2));

  double mass = 0.0;
  for (double d : dists) {
    mass += NormalCdf((static_cast<double>(tau) - d) / bandwidth);
  }
  return mass * scale_;
}

size_t KernelEstimator::ModelSizeBytes() const {
  return sample_.size() * sizeof(float);
}

}  // namespace simcard
