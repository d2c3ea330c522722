// Radius tuning: pick the similarity threshold that returns roughly K
// results — the classic downstream use of the estimator's monotonicity
// (Section 2's third desired property).
//
// A recommendation service wants "about 25 similar products" per query, but
// the right radius varies wildly per query (dense vs sparse neighborhoods).
// Scanning to find it costs a full search per candidate radius; the learned
// estimator inverts card(q, tau) = K with a handful of microsecond forward
// passes instead.
//
// Run:  ./build/examples/radius_tuning [--scale=tiny|small] [--target=K]
#include <cstdio>
#include <cmath>
#include <span>

#include "common/cli.h"
#include "core/gl_estimator.h"
#include "eval/harness.h"
#include "index/ground_truth.h"

using namespace simcard;

int main(int argc, char** argv) {
  auto cl = CommandLine::Parse(argc, argv, {"scale", "target"});
  if (!cl.ok()) {
    std::fprintf(stderr, "%s\n", cl.status().ToString().c_str());
    return 2;
  }
  Scale scale = ParseScale(cl.value().GetString("scale", "tiny")).value();
  const double target = cl.value().GetDouble("target", 25.0);

  EnvOptions options;
  options.num_segments = 8;
  auto env_or = BuildEnvironment("glove-sim", scale, options);
  if (!env_or.ok()) {
    std::fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  ExperimentEnv env = std::move(env_or).value();

  GlEstimator estimator(GlEstimatorConfig::GlCnn());
  TrainContext ctx = MakeTrainContext(env);
  if (Status st = estimator.Train(ctx); !st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  GroundTruth exact(&env.dataset);

  std::printf("target: ~%.0f similar items per query\n\n", target);
  std::printf("%6s %12s %12s %14s\n", "query", "tuned tau", "est @ tau",
              "true count");
  double abs_log_err = 0.0;
  const size_t n_queries = std::min<size_t>(10, env.workload.test.size());
  for (size_t i = 0; i < n_queries; ++i) {
    const float* q = env.workload.test_queries.Row(i);
    const std::span<const float> query(q, env.workload.test_queries.cols());
    const float tau = InvertCardinality(&estimator, query, target, 0.0f, 1.0f);
    EstimateRequest request;
    request.query = query;
    request.tau = tau;
    const double est = estimator.Estimate(request);
    const size_t truth = exact.Count(q, tau);
    std::printf("%6zu %12.4f %12.1f %14zu\n", i, tau, est, truth);
    abs_log_err += std::fabs(std::log(std::max<double>(1.0, truth) / target));
  }
  std::printf(
      "\ngeometric-mean deviation from target: %.2fx (1.0x = exact)\n",
      std::exp(abs_log_err / static_cast<double>(n_queries)));
  std::printf("note how the tuned tau differs per query: a single global "
              "radius could not hit the target everywhere.\n");
  return 0;
}
