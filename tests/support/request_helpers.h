// Shared test plumbing for the unified estimation API: builds an
// EstimateRequest the way production callers do. Callers pass a sized span
// ({row, dim}); the estimator trusts no other length.
#ifndef SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_
#define SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_

#include <gtest/gtest.h>

#include <span>

#include "core/estimator.h"
#include "core/gl_estimator.h"
#include "obs/metrics.h"

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

// Asks `est` about the first 0 and the first dim - 1 floats of `valid`, a
// query of the estimator's dim floats. The span's size is the query's only
// length, so each answer must be 0 and count one
// simcard.fallback.invalid_query, though the buffer behind it is readable.
inline void ExpectShortQueriesRefused(Estimator& est,
                                      std::span<const float> valid,
                                      float tau) {
  ASSERT_FALSE(valid.empty());
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter* invalid = obs::GetCounter("simcard.fallback.invalid_query");
  for (const std::span<const float> query :
       {valid.first(0), valid.first(valid.size() - 1)}) {
    const int64_t before = invalid->Value();
    EXPECT_EQ(EstimateCard(est, query, tau), 0.0)
        << "span of " << query.size() << " floats";
    EXPECT_EQ(invalid->Value() - before, 1)
        << "span of " << query.size() << " floats";
  }
  obs::SetMetricsEnabled(was_enabled);
}

}  // namespace testsupport
}  // namespace simcard

#endif  // SIMCARD_TESTS_SUPPORT_REQUEST_HELPERS_H_
