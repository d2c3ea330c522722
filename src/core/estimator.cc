#include "core/estimator.h"

#include "obs/metrics.h"

namespace simcard {

bool QueryHasDim(const EstimateRequest& request, size_t dim) {
  if (request.query.size() == dim) return true;
  if (obs::MetricsEnabled()) {
    static obs::Counter* const invalid =
        obs::GetCounter("simcard.fallback.invalid_query");
    invalid->Increment();
  }
  return false;
}

std::vector<double> Estimator::EstimateBatch(
    const BatchEstimateRequest& request) {
  std::vector<double> out;
  if (request.queries == nullptr) return out;
  const Matrix& queries = *request.queries;
  out.reserve(queries.rows());
  for (size_t r = 0; r < queries.rows(); ++r) {
    if (r >= request.taus.size()) {
      // A row without a tau answers 0, as GlEstimator's batch path does.
      if (obs::MetricsEnabled()) {
        static obs::Counter* const invalid =
            obs::GetCounter("simcard.fallback.invalid_tau");
        invalid->Increment();
      }
      out.push_back(0.0);
      continue;
    }
    out.push_back(Estimate(EstimateRequest{
        std::span<const float>(queries.Row(r), queries.cols()),
        request.taus[r], request.options}));
  }
  return out;
}

double Estimator::EstimateJoin(const Matrix& queries,
                               const std::vector<uint32_t>& rows, float tau) {
  double total = 0.0;
  for (uint32_t row : rows) {
    total += Estimate(EstimateRequest{
        std::span<const float>(queries.Row(row), queries.cols()), tau, {}});
  }
  return total;
}

float InvertCardinality(Estimator* estimator, std::span<const float> query,
                        double target, float lo, float hi, int iterations) {
  const auto at = [&](float tau) {
    return estimator->Estimate(EstimateRequest{query, tau, {}});
  };
  if (at(hi) < target) return hi;
  for (int i = 0; i < iterations && lo < hi; ++i) {
    const float mid = 0.5f * (lo + hi);
    if (at(mid) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace simcard
