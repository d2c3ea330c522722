#include "index/ground_truth.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace simcard {

size_t QueryDistanceProfile::CountAt(float tau) const {
  return static_cast<size_t>(
      std::upper_bound(sorted_all.begin(), sorted_all.end(), tau) -
      sorted_all.begin());
}

size_t QueryDistanceProfile::SegCountAt(size_t s, float tau) const {
  assert(s < sorted_by_seg.size());
  const auto& v = sorted_by_seg[s];
  return static_cast<size_t>(std::upper_bound(v.begin(), v.end(), tau) -
                             v.begin());
}

float QueryDistanceProfile::TauForSelectivity(double selectivity) const {
  if (sorted_all.empty()) return 0.0f;
  return sorted_all[RankForSelectivity(selectivity, sorted_all.size()) - 1];
}

size_t RankForSelectivity(double selectivity, size_t n) {
  size_t rank = static_cast<size_t>(
      std::ceil(selectivity * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank;
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
  QueryDistanceProfile profile;
  std::vector<float> dists;
  ComputeAllDistances(q, &dists);
  if (seg != nullptr) {
    profile.sorted_by_seg.resize(seg->num_segments());
    for (size_t s = 0; s < seg->num_segments(); ++s) {
      profile.sorted_by_seg[s].reserve(seg->members[s].size());
    }
    for (size_t i = 0; i < dists.size(); ++i) {
      profile.sorted_by_seg[seg->assignment[i]].push_back(dists[i]);
    }
    for (auto& v : profile.sorted_by_seg) std::sort(v.begin(), v.end());
  }
  profile.sorted_all = std::move(dists);
  std::sort(profile.sorted_all.begin(), profile.sorted_all.end());
  return profile;
}

}  // namespace simcard
