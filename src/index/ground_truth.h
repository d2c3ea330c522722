// Exact cardinality ground truth.
//
// Label construction is the dominant offline cost in the paper (Exp-10:
// "the construction computes the distances between all pairs of datasets and
// queries"). We compute each query's distances to the whole dataset once.
// A sorted profile (overall and per data segment) answers the exact
// card(q, tau) for *any* tau by binary search, and derives thresholds from
// target selectivities by rank lookup (how the paper picks its 10 thresholds
// per query). Workload labelling (workload/queries.cc) needs only a handful
// of thresholds per query, so it selects ranks and counts instead of sorting,
// and builds the profile only when asked to keep it.
#ifndef SIMCARD_INDEX_GROUND_TRUTH_H_
#define SIMCARD_INDEX_GROUND_TRUTH_H_

#include <vector>

#include "cluster/segmentation.h"
#include "data/dataset.h"

namespace simcard {

/// \brief Sorted distance lists for one query: whole dataset and, when a
/// segmentation was supplied, per segment.
struct QueryDistanceProfile {
  std::vector<float> sorted_all;                  ///< ascending
  std::vector<std::vector<float>> sorted_by_seg;  ///< may be empty

  /// Exact card(q, tau): number of objects with distance <= tau.
  size_t CountAt(float tau) const;

  /// Exact per-segment cardinality card^{[s]}(q, tau).
  size_t SegCountAt(size_t s, float tau) const;

  /// Smallest threshold whose cardinality is >= ceil(selectivity * n);
  /// clamps to the extremes. This inverts selectivity -> tau by rank.
  float TauForSelectivity(double selectivity) const;
};

/// 1-based rank, among n > 0 ascending distances, of the threshold for
/// `selectivity`: ceil(selectivity * n) clamped to [1, n].
size_t RankForSelectivity(double selectivity, size_t n);

/// \brief Brute-force (but bit-accelerated for Hamming) exact counter.
///
/// Safe to share across threads once constructed. The dataset must not
/// change while a GroundTruth over it is alive.
class GroundTruth {
 public:
  /// Resolves a Hamming dataset's bit-packed rows here, on the constructing
  /// thread: Dataset::bits() fills its cache lazily and without a lock, so
  /// scans running on pool workers must only read it.
  explicit GroundTruth(const Dataset* dataset);

  /// Writes all n distances from `q` into `out` (resized).
  void ComputeAllDistances(const float* q, std::vector<float>* out) const;

  /// Exact cardinality by a full scan.
  size_t Count(const float* q, float tau) const;

  /// Builds the sorted profile; includes per-segment lists when `seg` is
  /// non-null. Cost: one full scan + sorts.
  QueryDistanceProfile BuildProfile(const float* q,
                                    const Segmentation* seg) const;

  const Dataset& dataset() const { return *dataset_; }

 private:
  const Dataset* dataset_;  // borrowed; must outlive this object
  const BitMatrix* bits_;   // dataset_->bits() for Hamming, else null
};

}  // namespace simcard

#endif  // SIMCARD_INDEX_GROUND_TRUTH_H_
