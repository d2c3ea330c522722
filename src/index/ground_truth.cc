#include "index/ground_truth.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/thread_pool.h"

namespace simcard {
namespace {

size_t CountInRun(std::span<const float> run, float tau) {
  return static_cast<size_t>(std::upper_bound(run.begin(), run.end(), tau) -
                             run.begin());
}

}  // namespace

std::span<const float> QueryDistanceProfile::SegmentRun(size_t s) const {
  assert(s < seg_ends.size());
  const size_t begin = s == 0 ? 0 : seg_ends[s - 1];
  return std::span<const float>(distances).subspan(begin,
                                                   seg_ends[s] - begin);
}

size_t QueryDistanceProfile::CountAt(float tau) const {
  if (seg_ends.empty()) return CountInRun(distances, tau);
  size_t count = 0;
  for (size_t s = 0; s < seg_ends.size(); ++s) count += SegCountAt(s, tau);
  return count;
}

size_t QueryDistanceProfile::SegCountAt(size_t s, float tau) const {
  return CountInRun(SegmentRun(s), tau);
}

float QueryDistanceProfile::TauForSelectivity(double selectivity) const {
  if (distances.empty()) return 0.0f;
  const size_t rank = RankForSelectivity(selectivity, distances.size());
  if (seg_ends.empty()) return distances[rank - 1];
  // The rank-th smallest distance is the least one whose count reaches
  // `rank`. Along an ascending run the count only grows, so a binary search
  // finds each run's first such distance; the least of those is the answer.
  float tau = std::numeric_limits<float>::infinity();
  for (size_t s = 0; s < seg_ends.size(); ++s) {
    const std::span<const float> run = SegmentRun(s);
    const auto it = std::partition_point(
        run.begin(), run.end(), [&](float d) { return CountAt(d) < rank; });
    if (it != run.end()) tau = std::min(tau, *it);
  }
  return tau;
}

size_t RankForSelectivity(double selectivity, size_t n) {
  size_t rank = static_cast<size_t>(
      std::ceil(selectivity * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank;
}

void FillProfile(const std::vector<float>& dists, const Segmentation* seg,
                 QueryDistanceProfile* profile) {
  std::vector<float>& out = profile->distances;
  if (seg == nullptr) {
    profile->seg_ends.clear();
    out.assign(dists.begin(), dists.end());
    std::sort(out.begin(), out.end());
    return;
  }
  // A counting sort by segment, then one sort per run. The cursors start at
  // the run ends and, filling each run backwards, finish at the run starts.
  const size_t n = dists.size();
  out.resize(n);
  std::vector<size_t>& ends = profile->seg_ends;
  ends.assign(seg->num_segments(), 0);
  for (size_t i = 0; i < n; ++i) ++ends[seg->assignment[i]];
  std::partial_sum(ends.begin(), ends.end(), ends.begin());
  std::vector<size_t> cursor = ends;
  for (size_t i = n; i-- > 0;) out[--cursor[seg->assignment[i]]] = dists[i];
  for (size_t s = 0; s < ends.size(); ++s) {
    std::sort(out.begin() + cursor[s], out.begin() + ends[s]);
  }
}

GroundTruth::GroundTruth(const Dataset* dataset)
    : dataset_(dataset),
      bits_(dataset->metric() == Metric::kHamming ? &dataset->bits()
                                                  : nullptr) {}

void GroundTruth::ComputeAllDistances(const float* q,
                                      std::vector<float>* out) const {
  const size_t n = dataset_->size();
  out->resize(n);
  float* dists = out->data();
  if (bits_ != nullptr) {
    const auto packed = bits_->PackVector(q);
    ParallelFor(0, n, [&](size_t i) {
      dists[i] = bits_->HammingNormalized(i, packed.data());
    });
    return;
  }
  const size_t d = dataset_->dim();
  const Metric metric = dataset_->metric();
  ParallelFor(0, n, [&](size_t i) {
    dists[i] = Distance(q, dataset_->Point(i), d, metric);
  });
}

size_t GroundTruth::Count(const float* q, float tau) const {
  std::vector<float> dists;
  ComputeAllDistances(q, &dists);
  size_t count = 0;
  for (float dist : dists) count += dist <= tau;
  return count;
}

QueryDistanceProfile GroundTruth::BuildProfile(const float* q,
                                               const Segmentation* seg) const {
  std::vector<float> dists;
  ComputeAllDistances(q, &dists);
  QueryDistanceProfile profile;
  FillProfile(dists, seg, &profile);
  return profile;
}

}  // namespace simcard
