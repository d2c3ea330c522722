// Dataset: a collection of feature vectors plus its similarity metric.
#ifndef SIMCARD_DATA_DATASET_H_
#define SIMCARD_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/metric.h"
#include "tensor/matrix.h"

namespace simcard {

/// \brief Immutable-by-default collection of d-dimensional objects.
///
/// Rows of `points` are objects (the paper's x_p). Hamming datasets lazily
/// maintain a bit-packed shadow copy for fast exact scans. Append() supports
/// the incremental-update experiments (Section 5.3 / Exp-11).
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, Matrix points, Metric metric, float tau_max);

  const std::string& name() const { return name_; }
  size_t size() const { return points_.rows(); }
  size_t dim() const { return points_.cols(); }
  Metric metric() const { return metric_; }

  /// Largest threshold the workload generator will emit for this dataset
  /// (the paper's tau_max, Table 3).
  float tau_max() const { return tau_max_; }

  const Matrix& points() const { return points_; }
  const float* Point(size_t i) const { return points_.Row(i); }

  /// Bit-packed rows; built on first use, only meaningful for kHamming.
  /// The first call fills a cache without a lock: make it on one thread
  /// before sharing the result (GroundTruth does so at construction).
  const BitMatrix& bits() const;

  /// Distance from an external vector `q` (length dim()) to point `i`.
  float DistanceTo(const float* q, size_t i) const {
    return Distance(q, Point(i), dim(), metric_);
  }

  /// Appends `extra` rows (same width); invalidates the bit cache.
  void Append(const Matrix& extra);

  /// Removes the trailing `n` rows (used by deletion tests).
  void Truncate(size_t n);

  /// Removes the given rows (ascending, unique, in range) by stable
  /// compaction: surviving rows keep their relative order, so old row r
  /// lands at BuildEraseRemap(size(), rows)[r]. Invalidates the bit cache.
  /// Arbitrary-row deletion for the online-update path (Section 5.3);
  /// Truncate(n) is the trailing-rows special case.
  void EraseRows(const std::vector<uint32_t>& rows);

  void Serialize(Serializer* out) const;
  static Result<Dataset> Deserialize(Deserializer* in);

 private:
  std::string name_;
  Matrix points_;
  Metric metric_ = Metric::kL2;
  float tau_max_ = 1.0f;
  mutable std::unique_ptr<BitMatrix> bits_;  // lazy cache
};

}  // namespace simcard

#endif  // SIMCARD_DATA_DATASET_H_
