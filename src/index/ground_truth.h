// Exact cardinality ground truth.
//
// Label construction is the dominant offline cost in the paper (Exp-10:
// "the construction computes the distances between all pairs of datasets and
// queries"). We compute each query's distances to the whole dataset once.
// A profile keeps those n distances once, as one ascending run per data
// segment (a single run without a segmentation), and answers the exact
// card(q, tau), in total and per segment, for *any* tau by binary search in
// each run; it also derives thresholds from target selectivities by rank
// (how the paper picks its 10 thresholds per query). Workload labelling
// (workload/queries.cc) needs only a handful of thresholds per query, so it
// selects ranks and counts instead of sorting, and builds the profile only
// when asked to keep it.
#ifndef SIMCARD_INDEX_GROUND_TRUTH_H_
#define SIMCARD_INDEX_GROUND_TRUTH_H_

#include <span>
#include <vector>

#include "cluster/segmentation.h"
#include "data/dataset.h"

namespace simcard {

/// \brief One query's distances to all n rows, each stored once: segment s's
/// distances form the ascending run [seg_ends[s-1], seg_ends[s]) of
/// `distances`, in segment order. Without a segmentation `seg_ends` is empty
/// and `distances` is one ascending run.
struct QueryDistanceProfile {
  std::vector<float> distances;  ///< n floats, ascending within each run
  std::vector<size_t> seg_ends;  ///< one past each segment's run

  /// Segments the profile was built with (0 without a segmentation).
  size_t num_segments() const { return seg_ends.size(); }

  /// Segment s's distances, ascending; s < num_segments().
  std::span<const float> SegmentRun(size_t s) const;

  /// Exact card(q, tau): number of objects with distance <= tau.
  size_t CountAt(float tau) const;

  /// Exact per-segment cardinality card^{[s]}(q, tau); s < num_segments().
  size_t SegCountAt(size_t s, float tau) const;

  /// Smallest threshold whose cardinality is >= ceil(selectivity * n);
  /// clamps to the extremes. This inverts selectivity -> tau by rank.
  float TauForSelectivity(double selectivity) const;
};

/// 1-based rank, among n > 0 ascending distances, of the threshold for
/// `selectivity`: ceil(selectivity * n) clamped to [1, n].
size_t RankForSelectivity(double selectivity, size_t n);

/// Fills `profile` from one query's distances to the first dists.size()
/// rows, split into runs by `seg` (one run when `seg` is null). `seg` must
/// assign each of those rows to one of its segments. Writes within the
/// storage `profile` already holds when it has room, so a caller may
/// allocate that storage on another thread than the one filling it.
void FillProfile(const std::vector<float>& dists, const Segmentation* seg,
                 QueryDistanceProfile* profile);

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

  /// Builds the profile of `q`, with one run per segment when `seg` is
  /// non-null. Cost: one full scan + per-run sorts.
  QueryDistanceProfile BuildProfile(const float* q,
                                    const Segmentation* seg) const;

  const Dataset& dataset() const { return *dataset_; }

 private:
  const Dataset* dataset_;  // borrowed; must outlive this object
  const BitMatrix* bits_;   // dataset_->bits() for Hamming, else null
};

}  // namespace simcard

#endif  // SIMCARD_INDEX_GROUND_TRUTH_H_
