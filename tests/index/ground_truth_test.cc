#include "index/ground_truth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/generators.h"

namespace simcard {
namespace {

TEST(GroundTruthTest, CountMatchesBruteForce) {
  auto d = MakeAnalogDataset("glove-sim", Scale::kTiny, 1).value();
  GroundTruth gt(&d);
  const float* q = d.Point(5);
  for (float tau : {0.05f, 0.2f, 0.5f}) {
    size_t expected = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      expected += d.DistanceTo(q, i) <= tau;
    }
    EXPECT_EQ(gt.Count(q, tau), expected) << "tau=" << tau;
  }
}

TEST(GroundTruthTest, HammingBitPathMatchesFloatPath) {
  auto d = MakeAnalogDataset("imagenet-sim", Scale::kTiny, 2).value();
  GroundTruth gt(&d);
  const float* q = d.Point(3);
  std::vector<float> fast;
  gt.ComputeAllDistances(q, &fast);
  for (size_t i = 0; i < d.size(); i += 37) {
    EXPECT_FLOAT_EQ(fast[i],
                    Distance(q, d.Point(i), d.dim(), Metric::kHamming));
  }
}

TEST(GroundTruthTest, ProfileCountsMatchDirectCounts) {
  auto d = MakeAnalogDataset("youtube-sim", Scale::kTiny, 3).value();
  GroundTruth gt(&d);
  const float* q = d.Point(0);
  auto profile = gt.BuildProfile(q, nullptr);
  EXPECT_EQ(profile.num_segments(), 0u);
  // One run: every distance from the scan, sorted ascending.
  std::vector<float> want;
  gt.ComputeAllDistances(q, &want);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(profile.distances, want);
  for (float tau : {0.1f, 0.5f, 1.0f, 3.0f}) {
    EXPECT_EQ(profile.CountAt(tau), gt.Count(q, tau));
  }
}

// Each segment's run holds exactly that segment's distances from the scan,
// sorted; per-segment counts match a direct count and add up to the total.
TEST(GroundTruthTest, SegmentCountsSumToTotal) {
  auto d = MakeAnalogDataset("glove-sim", Scale::kTiny, 4).value();
  SegmentationOptions seg_opts;
  seg_opts.target_segments = 6;
  auto seg = SegmentData(d, seg_opts).value();
  GroundTruth gt(&d);
  const float* q = d.Point(7);
  auto profile = gt.BuildProfile(q, &seg);
  ASSERT_EQ(profile.num_segments(), seg.num_segments());
  EXPECT_EQ(profile.distances.size(), d.size());
  std::vector<float> dists;
  gt.ComputeAllDistances(q, &dists);
  std::vector<std::vector<float>> want(seg.num_segments());
  for (size_t i = 0; i < dists.size(); ++i) {
    want[seg.assignment[i]].push_back(dists[i]);
  }
  for (size_t s = 0; s < seg.num_segments(); ++s) {
    std::sort(want[s].begin(), want[s].end());
    const auto run = profile.SegmentRun(s);
    EXPECT_TRUE(std::equal(run.begin(), run.end(), want[s].begin(),
                           want[s].end()))
        << "segment " << s;
  }
  for (float tau : {0.05f, 0.15f, 0.4f}) {
    size_t sum = 0;
    for (size_t s = 0; s < seg.num_segments(); ++s) {
      size_t direct = 0;
      for (float dist : want[s]) direct += dist <= tau;
      EXPECT_EQ(profile.SegCountAt(s, tau), direct)
          << "segment " << s << " tau=" << tau;
      sum += profile.SegCountAt(s, tau);
    }
    EXPECT_EQ(profile.CountAt(tau), gt.Count(q, tau)) << "tau=" << tau;
    EXPECT_EQ(sum, profile.CountAt(tau)) << "tau=" << tau;
  }
}

// FillProfile writes within storage the caller reserved, so that storage
// can be allocated on another thread than the one that fills it.
TEST(GroundTruthTest, FillProfileKeepsReservedStorage) {
  auto d = MakeAnalogDataset("imagenet-sim", Scale::kTiny, 8).value();
  SegmentationOptions seg_opts;
  seg_opts.target_segments = 5;
  auto seg = SegmentData(d, seg_opts).value();
  GroundTruth gt(&d);
  std::vector<float> dists;
  gt.ComputeAllDistances(d.Point(4), &dists);
  QueryDistanceProfile profile;
  profile.distances.reserve(d.size());
  profile.seg_ends.reserve(seg.num_segments());
  const float* distances = profile.distances.data();
  const size_t* seg_ends = profile.seg_ends.data();
  FillProfile(dists, &seg, &profile);
  EXPECT_EQ(profile.distances.data(), distances);
  EXPECT_EQ(profile.seg_ends.data(), seg_ends);
  EXPECT_EQ(profile.distances.size(), d.size());
  EXPECT_EQ(profile.seg_ends.back(), d.size());
}

TEST(GroundTruthTest, TauForSelectivityInvertsCount) {
  auto d = MakeAnalogDataset("glove-sim", Scale::kTiny, 5).value();
  GroundTruth gt(&d);
  auto profile = gt.BuildProfile(d.Point(11), nullptr);
  for (double sel : {0.001, 0.01, 0.1}) {
    const float tau = profile.TauForSelectivity(sel);
    const size_t target =
        static_cast<size_t>(std::ceil(sel * static_cast<double>(d.size())));
    // Count at tau reaches the target rank (ties can push it higher).
    EXPECT_GE(profile.CountAt(tau), target);
  }
}

TEST(GroundTruthTest, TauForSelectivityMonotone) {
  auto d = MakeAnalogDataset("imagenet-sim", Scale::kTiny, 6).value();
  GroundTruth gt(&d);
  auto profile = gt.BuildProfile(d.Point(2), nullptr);
  float prev = -1.0f;
  for (double sel = 0.001; sel <= 0.5; sel *= 2) {
    const float tau = profile.TauForSelectivity(sel);
    EXPECT_GE(tau, prev);
    prev = tau;
  }
}

// Over per-segment runs, the rank lookup still returns the distance at
// that rank in one plain sorted copy of all distances.
TEST(GroundTruthTest, TauForSelectivityMatchesSortedRankAcrossRuns) {
  auto d = MakeAnalogDataset("imagenet-sim", Scale::kTiny, 9).value();
  SegmentationOptions seg_opts;
  seg_opts.target_segments = 6;
  auto seg = SegmentData(d, seg_opts).value();
  GroundTruth gt(&d);
  const float* q = d.Point(13);
  std::vector<float> sorted;
  gt.ComputeAllDistances(q, &sorted);
  std::sort(sorted.begin(), sorted.end());
  const auto flat = gt.BuildProfile(q, nullptr);
  const auto segmented = gt.BuildProfile(q, &seg);
  for (double sel : {0.0, 1e-4, 0.001, 0.003, 0.01, 0.1, 0.5, 1.0, 2.0}) {
    const float want = sorted[RankForSelectivity(sel, sorted.size()) - 1];
    EXPECT_EQ(flat.TauForSelectivity(sel), want) << "sel=" << sel;
    EXPECT_EQ(segmented.TauForSelectivity(sel), want) << "sel=" << sel;
  }
}

TEST(GroundTruthTest, QueryFromDatasetCountsItself) {
  auto d = MakeAnalogDataset("youtube-sim", Scale::kTiny, 7).value();
  GroundTruth gt(&d);
  // Distance to itself is 0, so card at tau=0 is at least 1.
  EXPECT_GE(gt.Count(d.Point(9), 0.0f), 1u);
}

}  // namespace
}  // namespace simcard
