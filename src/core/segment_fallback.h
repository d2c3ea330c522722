// Per-segment sampling fallback for degraded inference.
//
// A handful of member vectors is retained per segment at train time. When a
// segment's local model cannot answer — quarantined at load (checksum
// failure), never trained, or emitting a non-finite value — the estimator
// falls back to the classic sampling estimate on the retained members:
//
//   card^[i](q, tau) ~= |{s in S_i : d(q, s) <= tau}| * |D_i| / |S_i|
//
// which is crude but always finite and bounded by the segment population,
// so one broken local model degrades the sum instead of poisoning it.
#ifndef SIMCARD_CORE_SEGMENT_FALLBACK_H_
#define SIMCARD_CORE_SEGMENT_FALLBACK_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "data/dataset.h"
#include "dist/metric.h"

namespace simcard {

/// \brief Retained member samples for one segment.
struct SegmentFallback {
  std::vector<float> samples;  ///< flattened [sample_count, dim]
  uint64_t segment_size = 0;   ///< population the samples represent

  /// Default number of retained members per segment.
  static constexpr size_t kDefaultSamples = 32;

  size_t SampleCount(size_t dim) const {
    return dim == 0 ? 0 : samples.size() / dim;
  }

  /// Retains up to `max_samples` members of the segment, sampled without
  /// replacement.
  static SegmentFallback FromSegment(const Dataset& dataset,
                                     const std::vector<uint32_t>& members,
                                     size_t max_samples, Rng* rng);

  /// Scaled in-threshold sample count (see file comment); 0 when no samples
  /// were retained (an empty segment truly has cardinality 0).
  double Estimate(const float* query, float tau, size_t dim,
                  Metric metric) const;

  void Serialize(Serializer* out) const;
  Status Deserialize(Deserializer* in);
};

}  // namespace simcard

#endif  // SIMCARD_CORE_SEGMENT_FALLBACK_H_
