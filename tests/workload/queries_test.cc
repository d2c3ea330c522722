#include "workload/queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "data/generators.h"
#include "index/ground_truth.h"

namespace simcard {
namespace {

struct Env {
  Dataset dataset;
  Segmentation segmentation;
};

Env MakeEnv(uint64_t seed = 1) {
  Env env;
  env.dataset = MakeAnalogDataset("glove-sim", Scale::kTiny, seed).value();
  SegmentationOptions opts;
  opts.target_segments = 6;
  env.segmentation = SegmentData(env.dataset, opts).value();
  return env;
}

WorkloadOptions SmallOptions() {
  WorkloadOptions opts;
  opts.num_train = 40;
  opts.num_test = 10;
  opts.thresholds_per_query = 10;
  return opts;
}

TEST(WorkloadTest, RejectsBadInputs) {
  Env env = MakeEnv();
  WorkloadOptions opts = SmallOptions();
  opts.num_train = env.dataset.size();
  opts.num_test = 1;
  EXPECT_FALSE(BuildSearchWorkload(env.dataset, nullptr, opts).ok());
  opts = SmallOptions();
  opts.thresholds_per_query = 0;
  EXPECT_FALSE(BuildSearchWorkload(env.dataset, nullptr, opts).ok());
}

TEST(WorkloadTest, ShapesMatchOptions) {
  Env env = MakeEnv();
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation,
                                SmallOptions()).value();
  EXPECT_EQ(wl.train_queries.rows(), 40u);
  EXPECT_EQ(wl.test_queries.rows(), 10u);
  EXPECT_EQ(wl.train.size(), 40u);
  EXPECT_EQ(wl.test.size(), 10u);
  for (const auto& lq : wl.train) {
    EXPECT_EQ(lq.thresholds.size(), 10u);
    for (const auto& t : lq.thresholds) {
      EXPECT_EQ(t.seg_cards.size(), env.segmentation.num_segments());
    }
  }
  EXPECT_GT(wl.label_build_seconds, 0.0);
}

TEST(WorkloadTest, CardsAreExact) {
  Env env = MakeEnv();
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation,
                                SmallOptions()).value();
  GroundTruth gt(&env.dataset);
  for (size_t i = 0; i < 5; ++i) {
    const auto& lq = wl.train[i];
    const float* q = wl.train_queries.Row(lq.row);
    for (const auto& t : lq.thresholds) {
      EXPECT_EQ(static_cast<size_t>(t.card), gt.Count(q, t.tau));
    }
  }
}

TEST(WorkloadTest, SegCardsSumToTotal) {
  Env env = MakeEnv();
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation,
                                SmallOptions()).value();
  for (const auto& lq : wl.test) {
    for (const auto& t : lq.thresholds) {
      float sum = 0.0f;
      for (float c : t.seg_cards) sum += c;
      EXPECT_FLOAT_EQ(sum, t.card);
    }
  }
}

TEST(WorkloadTest, SelectivityRespectsMax) {
  Env env = MakeEnv();
  WorkloadOptions opts = SmallOptions();
  opts.max_selectivity = 0.01;
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation, opts).value();
  const double limit = 0.011 * env.dataset.size();  // small tie slack
  for (const auto& lq : wl.train) {
    for (const auto& t : lq.thresholds) {
      EXPECT_LE(t.card, limit * 2)  // ties at the rank can exceed slightly
          << "train selectivity far above the configured max";
    }
  }
}

TEST(WorkloadTest, ThresholdsAscendPerQuery) {
  Env env = MakeEnv();
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation,
                                SmallOptions()).value();
  for (const auto& lq : wl.train) {
    for (size_t i = 1; i < lq.thresholds.size(); ++i) {
      EXPECT_LE(lq.thresholds[i - 1].tau, lq.thresholds[i].tau);
      EXPECT_LE(lq.thresholds[i - 1].card, lq.thresholds[i].card);
    }
  }
}

TEST(WorkloadTest, TestSelectivitiesSkewLower) {
  // The paper draws test selectivities geometrically (more low-selectivity
  // queries); the median test cardinality should be below the median train
  // cardinality.
  Env env = MakeEnv();
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation,
                                SmallOptions()).value();
  auto mean_card = [](const std::vector<LabeledQuery>& queries) {
    double total = 0.0;
    size_t n = 0;
    for (const auto& lq : queries) {
      for (const auto& t : lq.thresholds) {
        total += t.card;
        ++n;
      }
    }
    return total / static_cast<double>(n);
  };
  EXPECT_LT(mean_card(wl.test), mean_card(wl.train));
}

TEST(WorkloadTest, ProfilesKeptWhenRequested) {
  Env env = MakeEnv();
  WorkloadOptions opts = SmallOptions();
  opts.keep_profiles = true;
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation, opts).value();
  EXPECT_EQ(wl.train_profiles.size(), wl.train.size());
  EXPECT_EQ(wl.test_profiles.size(), wl.test.size());
  opts.keep_profiles = false;
  auto wl2 = BuildSearchWorkload(env.dataset, &env.segmentation, opts).value();
  EXPECT_TRUE(wl2.train_profiles.empty());
}

TEST(WorkloadTest, DeterministicForSeed) {
  Env env = MakeEnv();
  auto a = BuildSearchWorkload(env.dataset, &env.segmentation,
                               SmallOptions()).value();
  auto b = BuildSearchWorkload(env.dataset, &env.segmentation,
                               SmallOptions()).value();
  EXPECT_TRUE(a.train_queries.AllClose(b.train_queries, 0.0f));
  for (size_t i = 0; i < a.train.size(); ++i) {
    for (size_t t = 0; t < a.train[i].thresholds.size(); ++t) {
      EXPECT_EQ(a.train[i].thresholds[t].tau, b.train[i].thresholds[t].tau);
    }
  }
}

// workload.bin carries no CRC, so a threshold count is untrusted: with bit
// 62 or 63 set, taus * sizeof(float) wraps to a small number. A flip of any
// of bits 61-63 must come back as OutOfRange, never as a throw from resize().
TEST(WorkloadTest, CorruptThresholdCountIsOutOfRange) {
  Env env = MakeEnv();
  const auto wl = BuildSearchWorkload(env.dataset, &env.segmentation,
                                      SmallOptions()).value();
  Serializer out;
  SerializeQueries(wl, &out);
  // Layout: train matrix, test matrix, train set count (u64), then the first
  // train query's row (u32) and threshold count (u64).
  Serializer matrices;
  wl.train_queries.Serialize(&matrices);
  wl.test_queries.Serialize(&matrices);
  const size_t taus_offset =
      matrices.bytes().size() + sizeof(uint64_t) + sizeof(uint32_t);
  uint64_t taus = 0;
  std::memcpy(&taus, out.bytes().data() + taus_offset, sizeof(taus));
  ASSERT_EQ(taus, wl.train[0].thresholds.size());

  for (int bit = 61; bit < 64; ++bit) {
    std::vector<uint8_t> bytes = out.bytes();
    bytes[taus_offset + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    Deserializer in(bytes);
    Result<SearchWorkload> restored = Status::Internal("not run");
    EXPECT_NO_THROW(restored = DeserializeQueries(&in)) << "bit " << bit;
    EXPECT_EQ(restored.status().code(), StatusCode::kOutOfRange)
        << "bit " << bit << ": " << restored.status().ToString();
  }
}

TEST(WorkloadTest, RelabelAfterAppendIncreasesCards) {
  Env env = MakeEnv();
  auto wl = BuildSearchWorkload(env.dataset, &env.segmentation,
                                SmallOptions()).value();
  // Duplicate the whole dataset: every cardinality must exactly double
  // (taus unchanged, each point now appears twice).
  Matrix copy = env.dataset.points();
  std::vector<float> old_cards;
  for (const auto& lq : wl.train) {
    for (const auto& t : lq.thresholds) old_cards.push_back(t.card);
  }
  env.dataset.Append(copy);
  // Extend the segmentation so per-segment labels stay well-defined.
  for (size_t i = 0; i < copy.rows(); ++i) {
    const size_t seg = env.segmentation.assignment[i];
    env.segmentation.AddPoint(seg,
                              static_cast<uint32_t>(copy.rows() + i),
                              copy.Row(i), env.dataset.dim(),
                              env.dataset.metric());
  }
  ASSERT_TRUE(RelabelWorkload(env.dataset, &env.segmentation, &wl).ok());
  size_t idx = 0;
  for (const auto& lq : wl.train) {
    for (const auto& t : lq.thresholds) {
      EXPECT_FLOAT_EQ(t.card, 2.0f * old_cards[idx]);
      ++idx;
    }
  }
}

// Rows per segment among the dataset's first n rows.
std::vector<size_t> SegmentSizes(const Segmentation& seg, size_t n) {
  std::vector<size_t> sizes(seg.num_segments(), 0);
  for (size_t i = 0; i < n; ++i) ++sizes[seg.assignment[i]];
  return sizes;
}

// Counts kept profiles that are not one buffer of exactly n floats whose
// runs have the segment sizes (one run when `seg` is null); reports the
// first.
size_t LayoutMismatches(const SearchWorkload& wl, size_t n,
                        const Segmentation* seg, const char* what) {
  const std::vector<size_t> sizes =
      seg != nullptr ? SegmentSizes(*seg, n) : std::vector<size_t>{};
  size_t mismatches = 0;
  for (const auto* profiles : {&wl.train_profiles, &wl.test_profiles}) {
    for (const QueryDistanceProfile& p : *profiles) {
      std::vector<size_t> runs;
      for (size_t s = 0; s < p.num_segments(); ++s) {
        runs.push_back(p.SegmentRun(s).size());
      }
      const bool exact = p.distances.size() == n &&
                         p.distances.capacity() == n && runs == sizes;
      if (!exact && mismatches++ == 0) {
        ADD_FAILURE() << what << ": " << p.distances.size() << " floats in "
                      << p.distances.capacity() << " of capacity, "
                      << runs.size() << " runs, for n = " << n;
      }
    }
  }
  return mismatches;
}

class ProfileLayoutTest : public ::testing::TestWithParam<std::string> {};

// A kept profile holds each of its n distances once, in one buffer sized
// exactly; its runs are the segments. A relabel drops the profiles.
TEST_P(ProfileLayoutTest, OneExactBufferPerQuery) {
  Dataset data = MakeAnalogDataset(GetParam(), Scale::kTiny, 2).value();
  SegmentationOptions seg_opts;
  seg_opts.target_segments = 6;
  Segmentation seg = SegmentData(data, seg_opts).value();
  WorkloadOptions opts = SmallOptions();
  opts.keep_profiles = true;

  SearchWorkload wl = BuildSearchWorkload(data, &seg, opts).value();
  ASSERT_EQ(wl.train_profiles.size(), wl.train.size());
  EXPECT_EQ(LayoutMismatches(wl, data.size(), &seg, "built"), 0u);
  SearchWorkload flat = BuildSearchWorkload(data, nullptr, opts).value();
  EXPECT_EQ(LayoutMismatches(flat, data.size(), nullptr, "built flat"), 0u);

  Matrix extra = data.points().SliceRows(0, data.size() / 10);
  const size_t old_n = data.size();
  data.Append(extra);
  for (size_t i = 0; i < extra.rows(); ++i) {
    seg.AddPoint(seg.assignment[i], static_cast<uint32_t>(old_n + i),
                 extra.Row(i), data.dim(), data.metric());
  }
  ASSERT_TRUE(RelabelWorkload(data, &seg, &wl).ok());
  EXPECT_TRUE(wl.train_profiles.empty());
  EXPECT_TRUE(wl.test_profiles.empty());
  ASSERT_TRUE(RelabelWorkload(data, nullptr, &flat).ok());
  EXPECT_TRUE(flat.train_profiles.empty());
  EXPECT_TRUE(flat.test_profiles.empty());
}

INSTANTIATE_TEST_SUITE_P(FloatAndHamming, ProfileLayoutTest,
                         ::testing::Values("glove-sim", "imagenet-sim"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace simcard
