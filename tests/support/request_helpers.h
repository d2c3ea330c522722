// Shared test plumbing for the unified estimation API: builds an
// EstimateRequest the way production callers do. Callers pass a sized span
// ({row, dim}); the estimator trusts no other length.
#ifndef SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_
#define SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_

#include <span>

#include "core/estimator.h"
#include "core/gl_estimator.h"

namespace simcard {
namespace testsupport {

// Single-query estimate card(q, tau, D) through Estimate(EstimateRequest).
inline double EstimateCard(Estimator& est, std::span<const float> query,
                           float tau, SegmentEvalPolicy* policy = nullptr) {
  EstimateRequest request;
  request.query = query;
  request.tau = tau;
  request.options.policy = policy;
  return est.Estimate(request);
}

// Const-path twin for shared (published) GL models.
inline double EstimateCard(const GlEstimator& est,
                           std::span<const float> query, float tau,
                           SegmentEvalPolicy* policy = nullptr) {
  EstimateRequest request;
  request.query = query;
  request.tau = tau;
  request.options.policy = policy;
  return est.Estimate(request);
}

}  // namespace testsupport
}  // namespace simcard

#endif  // SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_
