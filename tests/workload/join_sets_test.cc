#include "workload/join_sets.h"

#include <gtest/gtest.h>

#include "data/generators.h"

namespace simcard {
namespace {

struct Env {
  Dataset dataset;
  Segmentation segmentation;
  SearchWorkload workload;
};

Env MakeEnv() {
  Env env;
  env.dataset = MakeAnalogDataset("glove-sim", Scale::kTiny, 3).value();
  SegmentationOptions seg_opts;
  seg_opts.target_segments = 5;
  env.segmentation = SegmentData(env.dataset, seg_opts).value();
  WorkloadOptions wl_opts;
  wl_opts.num_train = 60;
  wl_opts.num_test = 20;
  wl_opts.keep_profiles = true;
  env.workload =
      BuildSearchWorkload(env.dataset, &env.segmentation, wl_opts).value();
  return env;
}

JoinWorkloadOptions SmallJoinOptions() {
  JoinWorkloadOptions opts;
  opts.num_train_sets = 6;
  opts.num_test_sets = 3;
  opts.thresholds_per_set = 4;
  return opts;
}

TEST(JoinSetsTest, RequiresProfiles) {
  Env env = MakeEnv();
  SearchWorkload no_profiles = env.workload;
  no_profiles.train_profiles.clear();
  EXPECT_FALSE(BuildJoinWorkload(no_profiles,
                                 env.segmentation.num_segments(),
                                 SmallJoinOptions())
                   .ok());
}

// The segment count must be the profiles' own; any other count is refused
// before a profile is read, even in builds that drop asserts.
TEST(JoinSetsTest, RejectsSegmentCountMismatch) {
  Env env = MakeEnv();
  WorkloadOptions wl_opts;
  wl_opts.num_train = 60;
  wl_opts.num_test = 20;
  wl_opts.keep_profiles = true;
  const SearchWorkload flat =
      BuildSearchWorkload(env.dataset, nullptr, wl_opts).value();
  EXPECT_EQ(BuildJoinWorkload(flat, 4, SmallJoinOptions()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(BuildJoinWorkload(flat, 0, SmallJoinOptions()).ok());
  const size_t segments = env.segmentation.num_segments();
  for (size_t wrong : {size_t{0}, segments - 1, segments + 1}) {
    EXPECT_EQ(BuildJoinWorkload(env.workload, wrong, SmallJoinOptions())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << wrong << " segments";
  }
}

TEST(JoinSetsTest, ShapesMatchOptions) {
  Env env = MakeEnv();
  auto jw = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                              SmallJoinOptions())
                .value();
  EXPECT_EQ(jw.train.size(), 6u * 4u);
  ASSERT_EQ(jw.test_buckets.size(), 3u);
  for (const auto& bucket : jw.test_buckets) {
    EXPECT_EQ(bucket.size(), 3u * 4u);
  }
}

TEST(JoinSetsTest, TrainSizesInPaperRange) {
  Env env = MakeEnv();
  auto jw = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                              SmallJoinOptions())
                .value();
  for (const auto& js : jw.train) {
    EXPECT_GE(js.query_rows.size(), 1u);
    EXPECT_LT(js.query_rows.size(), 100u);
    EXPECT_FALSE(js.from_test_queries);
  }
}

TEST(JoinSetsTest, TestBucketSizesMatchPaperRanges) {
  Env env = MakeEnv();
  auto jw = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                              SmallJoinOptions())
                .value();
  const size_t lo[3] = {50, 100, 150};
  const size_t hi[3] = {100, 150, 200};
  for (size_t b = 0; b < 3; ++b) {
    for (const auto& js : jw.test_buckets[b]) {
      EXPECT_GE(js.query_rows.size(), lo[b]);
      EXPECT_LT(js.query_rows.size(), hi[b]);
      EXPECT_TRUE(js.from_test_queries);
    }
  }
}

TEST(JoinSetsTest, CardIsSumOfMemberCards) {
  Env env = MakeEnv();
  auto jw = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                              SmallJoinOptions())
                .value();
  for (const auto& js : jw.train) {
    double expected = 0.0;
    for (uint32_t row : js.query_rows) {
      expected += static_cast<double>(
          env.workload.train_profiles[row].CountAt(js.tau));
    }
    EXPECT_DOUBLE_EQ(js.card, expected);
  }
}

TEST(JoinSetsTest, SegCardsSumToTotal) {
  Env env = MakeEnv();
  auto jw = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                              SmallJoinOptions())
                .value();
  for (const auto& js : jw.train) {
    double sum = 0.0;
    for (double c : js.seg_cards) sum += c;
    EXPECT_NEAR(sum, js.card, 1e-6);
  }
}

TEST(JoinSetsTest, TrainThresholdsEvenlySpaced) {
  Env env = MakeEnv();
  JoinWorkloadOptions opts = SmallJoinOptions();
  opts.num_train_sets = 1;
  opts.thresholds_per_set = 5;
  auto jw = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                              opts)
                .value();
  ASSERT_EQ(jw.train.size(), 5u);
  const float step = jw.train[1].tau - jw.train[0].tau;
  EXPECT_GT(step, 0.0f);
  for (size_t i = 2; i < 5; ++i) {
    EXPECT_NEAR(jw.train[i].tau - jw.train[i - 1].tau, step, 1e-5f);
  }
}

TEST(JoinSetsTest, DeterministicForSeed) {
  Env env = MakeEnv();
  auto a = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                             SmallJoinOptions())
               .value();
  auto b = BuildJoinWorkload(env.workload, env.segmentation.num_segments(),
                             SmallJoinOptions())
               .value();
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].query_rows, b.train[i].query_rows);
    EXPECT_EQ(a.train[i].tau, b.train[i].tau);
    EXPECT_EQ(a.train[i].card, b.train[i].card);
  }
}

}  // namespace
}  // namespace simcard
