// Search-query workload generation (Section 6, "Query Selection").
//
// Following the paper: query objects are randomly drawn dataset points,
// split 80/20 into train/test; each training query gets 10 thresholds whose
// *selectivities* are uniform in (0, max_selectivity]; each testing query
// gets 10 thresholds with geometrically-distributed selectivities (more
// low-selectivity queries), which stresses generalization. Thresholds are
// derived from target selectivities by rank selection over the query's
// distances, mirroring "generate thresholds ... by selectivities". Queries
// are labelled concurrently on the shared pool; the labels do not depend on
// the pool's width.
#ifndef SIMCARD_WORKLOAD_QUERIES_H_
#define SIMCARD_WORKLOAD_QUERIES_H_

#include <cstdint>
#include <vector>

#include "cluster/segmentation.h"
#include "data/dataset.h"
#include "index/ground_truth.h"

namespace simcard {

/// \brief One (tau, cardinality) supervision point, with optional
/// per-segment cardinalities when a segmentation was supplied.
struct ThresholdLabel {
  float tau = 0.0f;
  float card = 0.0f;
  std::vector<float> seg_cards;  ///< empty when no segmentation
};

/// \brief A query object plus its labeled thresholds.
struct LabeledQuery {
  uint32_t row = 0;  ///< row in the owning query matrix
  std::vector<ThresholdLabel> thresholds;
};

/// \brief Complete search workload for one dataset.
struct SearchWorkload {
  Matrix train_queries;  ///< [n_train, d]
  Matrix test_queries;   ///< [n_test, d]
  std::vector<LabeledQuery> train;
  std::vector<LabeledQuery> test;
  /// Distance profiles, kept when options.keep_profiles: each query's n
  /// distances, stored once as one ascending run per segment. Only join-set
  /// labelling (BuildJoinWorkload) reads them, on a freshly built workload;
  /// RelabelWorkload drops them.
  std::vector<QueryDistanceProfile> train_profiles;
  std::vector<QueryDistanceProfile> test_profiles;
  /// Wall-clock cost of label construction (the Fig 14 "label time").
  double label_build_seconds = 0.0;
};

/// \brief Options for BuildSearchWorkload.
struct WorkloadOptions {
  size_t num_train = 400;
  size_t num_test = 100;
  size_t thresholds_per_query = 10;
  double max_selectivity = 0.01;  ///< paper: "selectivities less than 1%"
  uint64_t seed = 31;
  bool keep_profiles = true;
};

/// Builds the workload. `seg` may be null (no per-segment labels then).
Result<SearchWorkload> BuildSearchWorkload(const Dataset& dataset,
                                           const Segmentation* seg,
                                           const WorkloadOptions& options);

/// Recomputes every label in `workload` against the (mutated) dataset.
/// Used after Append()/Truncate() in the incremental-update experiments and
/// on every refresh. Kept profiles are dropped, not rebuilt: they describe
/// the old dataset, and nothing reads them after a relabel.
Status RelabelWorkload(const Dataset& dataset, const Segmentation* seg,
                       SearchWorkload* workload);

/// Persists the immutable half of a workload: query matrices plus each
/// labeled query's row and threshold taus. Labels, per-segment cards, and
/// distance profiles are all derived data — RelabelWorkload rebuilds them
/// against whatever dataset epoch is recovered — so they are not written.
void SerializeQueries(const SearchWorkload& workload, Serializer* out);

/// Restores SerializeQueries output. The result has zeroed labels and no
/// profiles; callers must RelabelWorkload before use.
Result<SearchWorkload> DeserializeQueries(Deserializer* in);

}  // namespace simcard

#endif  // SIMCARD_WORKLOAD_QUERIES_H_
