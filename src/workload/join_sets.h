// Similarity-join workload generation (Section 6, "Query Selection").
//
// Training join sets draw their size from [1, 100) and their members from
// the training queries; each member set is paired with 10 thresholds spread
// evenly over the workload's threshold range. Test sets come in three size
// buckets — [50,100), [100,150), [150,200) — with 10 random thresholds each
// (Exp-12 / Figure 12). Ground-truth join cardinalities are exact: the sum
// of each member's card(q, tau), counted by binary search in the kept
// distance profiles.
#ifndef SIMCARD_WORKLOAD_JOIN_SETS_H_
#define SIMCARD_WORKLOAD_JOIN_SETS_H_

#include <cstdint>
#include <vector>

#include "workload/queries.h"

namespace simcard {

/// \brief One join sample: a multiset of query rows and one threshold.
struct JoinSet {
  std::vector<uint32_t> query_rows;  ///< rows in the owning query matrix
  bool from_test_queries = false;    ///< which query matrix the rows index
  float tau = 0.0f;
  double card = 0.0;                 ///< exact total pair count
  std::vector<double> seg_cards;     ///< per-segment totals (if segmented)
};

/// \brief Join workload with the paper's size buckets.
struct JoinWorkload {
  std::vector<JoinSet> train;
  /// test_buckets[0]: size in [50,100); [1]: [100,150); [2]: [150,200).
  std::vector<std::vector<JoinSet>> test_buckets;
};

/// \brief Options for BuildJoinWorkload.
struct JoinWorkloadOptions {
  size_t num_train_sets = 120;   ///< member sets; each yields 10 tau samples
  size_t num_test_sets = 20;     ///< per size bucket
  size_t thresholds_per_set = 10;
  uint64_t seed = 37;
};

/// Builds join sets over an existing search workload. Requires
/// `search.train_profiles` / `search.test_profiles` to be populated
/// (keep_profiles=true), each with `num_segments` runs (0 when the workload
/// was built without a segmentation); fails with InvalidArgument otherwise.
/// A member's counts are binary searches in its profile's per-segment runs.
/// Test-set members are sampled with replacement when a bucket exceeds the
/// number of distinct test queries (a join query set is a multiset, so
/// duplicates are well-defined).
Result<JoinWorkload> BuildJoinWorkload(const SearchWorkload& search,
                                       size_t num_segments,
                                       const JoinWorkloadOptions& options);

}  // namespace simcard

#endif  // SIMCARD_WORKLOAD_JOIN_SETS_H_
