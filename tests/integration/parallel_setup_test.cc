// Parallel set-up is bit for bit: labelling spreads queries over the shared
// pool and GlEstimator::Train fits its models concurrently, yet every label
// and every trained byte equals the one-worker result. A call made from
// inside a pool task runs its nested ParallelFor inline, so "the same call,
// made on a pool worker" is the one-worker reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <future>
#include <ostream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/gl_estimator.h"
#include "data/generators.h"
#include "eval/harness.h"
#include "index/ground_truth.h"
#include "workload/queries.h"

namespace simcard {
namespace {

// Runs fn() as one task on the shared pool and returns its result.
template <typename Fn>
auto OnPoolWorker(Fn fn) -> decltype(fn()) {
  std::packaged_task<decltype(fn())()> task(std::move(fn));
  auto result = task.get_future();
  GlobalThreadPool()->Submit([&task] { task(); });
  return result.get();
}

// Counts label fields that differ bit for bit; reports the first.
size_t LabelMismatches(const std::vector<LabeledQuery>& got,
                       const std::vector<LabeledQuery>& want,
                       const std::string& what) {
  size_t mismatches = 0;
  const auto note = [&](bool same, size_t q, size_t t, const char* field) {
    if (same) return;
    if (mismatches++ == 0) {
      ADD_FAILURE() << what << ": query " << q << " threshold " << t << " "
                    << field << " differs";
    }
  };
  if (got.size() != want.size()) {
    ADD_FAILURE() << what << ": " << got.size() << " vs " << want.size()
                  << " queries";
    return 1;
  }
  for (size_t q = 0; q < got.size(); ++q) {
    note(got[q].row == want[q].row, q, 0, "row");
    if (got[q].thresholds.size() != want[q].thresholds.size()) {
      note(false, q, 0, "threshold count");
      continue;
    }
    for (size_t t = 0; t < got[q].thresholds.size(); ++t) {
      const ThresholdLabel& a = got[q].thresholds[t];
      const ThresholdLabel& b = want[q].thresholds[t];
      note(std::bit_cast<uint32_t>(a.tau) == std::bit_cast<uint32_t>(b.tau),
           q, t, "tau");
      note(std::bit_cast<uint32_t>(a.card) == std::bit_cast<uint32_t>(b.card),
           q, t, "card");
      const bool same_segs =
          a.seg_cards.size() == b.seg_cards.size() &&
          std::equal(a.seg_cards.begin(), a.seg_cards.end(),
                     b.seg_cards.begin(), [](float x, float y) {
                       return std::bit_cast<uint32_t>(x) ==
                              std::bit_cast<uint32_t>(y);
                     });
      note(same_segs, q, t, "seg_cards");
    }
  }
  return mismatches;
}

// Labels `q` from a full sorted profile at the given taus (sorted first).
LabeledQuery ProfileLabels(const QueryDistanceProfile& profile, uint32_t row,
                           size_t num_segments, std::vector<float> taus) {
  std::sort(taus.begin(), taus.end());
  LabeledQuery lq;
  lq.row = row;
  for (float tau : taus) {
    ThresholdLabel label;
    label.tau = tau;
    label.card = static_cast<float>(profile.CountAt(tau));
    for (size_t s = 0; s < num_segments; ++s) {
      label.seg_cards.push_back(static_cast<float>(profile.SegCountAt(s, tau)));
    }
    lq.thresholds.push_back(std::move(label));
  }
  return lq;
}

// The sorted-profile reference for BuildSearchWorkload: the same draws from
// the workload seed, each tau from TauForSelectivity on a full profile,
// each card from CountAt/SegCountAt. `seg` may be null.
void ReferenceLabels(const Dataset& data, const Segmentation* seg,
                     const WorkloadOptions& opts, const SearchWorkload& wl,
                     std::vector<LabeledQuery>* train,
                     std::vector<LabeledQuery>* test,
                     std::vector<QueryDistanceProfile>* profiles) {
  Rng rng(opts.seed);
  rng.SampleWithoutReplacement(data.size(), opts.num_train + opts.num_test);
  std::vector<std::vector<double>> sels;
  for (size_t i = 0; i < opts.num_train; ++i) {
    std::vector<double> s(opts.thresholds_per_query);
    for (double& sel : s) {
      sel = std::max(1e-9, rng.NextDouble()) * opts.max_selectivity;
    }
    sels.push_back(std::move(s));
  }
  for (size_t i = 0; i < opts.num_test; ++i) {
    std::vector<double> s(opts.thresholds_per_query);
    for (double& sel : s) {
      const int k = std::min(rng.NextGeometric(0.5), 6);
      const double jitter = 0.5 + 0.5 * rng.NextDouble();
      sel = opts.max_selectivity * jitter / static_cast<double>(1 << k);
    }
    sels.push_back(std::move(s));
  }
  GroundTruth gt(&data);
  for (size_t i = 0; i < sels.size(); ++i) {
    const bool is_train = i < opts.num_train;
    const uint32_t row =
        static_cast<uint32_t>(is_train ? i : i - opts.num_train);
    const Matrix& queries = is_train ? wl.train_queries : wl.test_queries;
    QueryDistanceProfile profile = gt.BuildProfile(queries.Row(row), seg);
    std::vector<float> taus;
    for (double sel : sels[i]) taus.push_back(profile.TauForSelectivity(sel));
    (is_train ? train : test)
        ->push_back(ProfileLabels(profile, row,
                                  seg != nullptr ? seg->num_segments() : 0,
                                  taus));
    profiles->push_back(std::move(profile));
  }
}

size_t ProfileMismatches(const std::vector<QueryDistanceProfile>& got,
                         const std::vector<QueryDistanceProfile>& want) {
  if (got.size() != want.size()) return 1;
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    mismatches += got[i].sorted_all != want[i].sorted_all;
    mismatches += got[i].sorted_by_seg != want[i].sorted_by_seg;
  }
  return mismatches;
}

class LabelParityTest : public ::testing::TestWithParam<std::string> {};

// Every tau, card and seg_cards is bitwise equal across keep_profiles on
// and off, the pool and one worker, and the sorted-profile reference; the
// same holds for RelabelWorkload after rows are added.
TEST_P(LabelParityTest, BitwiseEqualAcrossPaths) {
  Dataset data = MakeAnalogDataset(GetParam(), Scale::kTiny, 11).value();
  SegmentationOptions seg_opts;
  seg_opts.target_segments = 6;
  Segmentation seg = SegmentData(data, seg_opts).value();
  WorkloadOptions opts;
  opts.num_train = 60;
  opts.num_test = 20;
  opts.seed = 5;

  opts.keep_profiles = true;
  const SearchWorkload kept = BuildSearchWorkload(data, &seg, opts).value();
  opts.keep_profiles = false;
  const SearchWorkload bare = BuildSearchWorkload(data, &seg, opts).value();
  opts.keep_profiles = true;
  const SearchWorkload one_worker = OnPoolWorker(
      [&] { return BuildSearchWorkload(data, &seg, opts).value(); });

  std::vector<LabeledQuery> ref_train, ref_test;
  std::vector<QueryDistanceProfile> ref_profiles;
  ReferenceLabels(data, &seg, opts, kept, &ref_train, &ref_test,
                  &ref_profiles);
  for (const auto& [wl, what] :
       {std::pair<const SearchWorkload*, const char*>{&kept, "kept"},
        {&bare, "bare"},
        {&one_worker, "one worker"}}) {
    EXPECT_EQ(LabelMismatches(wl->train, ref_train,
                              std::string(what) + " train"),
              0u);
    EXPECT_EQ(
        LabelMismatches(wl->test, ref_test, std::string(what) + " test"), 0u);
  }
  std::vector<QueryDistanceProfile> kept_profiles = kept.train_profiles;
  kept_profiles.insert(kept_profiles.end(), kept.test_profiles.begin(),
                       kept.test_profiles.end());
  EXPECT_EQ(ProfileMismatches(kept_profiles, ref_profiles), 0u);
  EXPECT_TRUE(bare.train_profiles.empty());

  // Without a segmentation: total cards only, and profiles without
  // per-segment lists.
  const SearchWorkload flat = BuildSearchWorkload(data, nullptr, opts).value();
  std::vector<LabeledQuery> flat_train, flat_test;
  std::vector<QueryDistanceProfile> flat_profiles;
  ReferenceLabels(data, nullptr, opts, flat, &flat_train, &flat_test,
                  &flat_profiles);
  EXPECT_EQ(LabelMismatches(flat.train, flat_train, "flat train"), 0u);
  EXPECT_EQ(LabelMismatches(flat.test, flat_test, "flat test"), 0u);
  std::vector<QueryDistanceProfile> flat_kept = flat.train_profiles;
  flat_kept.insert(flat_kept.end(), flat.test_profiles.begin(),
                   flat.test_profiles.end());
  EXPECT_EQ(ProfileMismatches(flat_kept, flat_profiles), 0u);

  // Relabel against a grown dataset: the kept and bare workloads agree
  // with full profiles of the new data at the old taus.
  Matrix extra = data.points().SliceRows(0, data.size() / 10);
  const size_t old_n = data.size();
  data.Append(extra);
  for (size_t i = 0; i < extra.rows(); ++i) {
    seg.AddPoint(seg.assignment[i], static_cast<uint32_t>(old_n + i),
                 extra.Row(i), data.dim(), data.metric());
  }
  SearchWorkload relabeled_kept = kept;
  SearchWorkload relabeled_bare = bare;
  ASSERT_TRUE(RelabelWorkload(data, &seg, &relabeled_kept).ok());
  ASSERT_TRUE(RelabelWorkload(data, &seg, &relabeled_bare).ok());
  GroundTruth gt(&data);
  std::vector<LabeledQuery> want;
  std::vector<QueryDistanceProfile> want_profiles;
  for (const LabeledQuery& lq : kept.train) {
    QueryDistanceProfile profile =
        gt.BuildProfile(kept.train_queries.Row(lq.row), &seg);
    std::vector<float> taus;
    for (const ThresholdLabel& t : lq.thresholds) taus.push_back(t.tau);
    want.push_back(ProfileLabels(profile, lq.row, seg.num_segments(), taus));
    want_profiles.push_back(std::move(profile));
  }
  EXPECT_EQ(LabelMismatches(relabeled_kept.train, want, "relabel kept"), 0u);
  EXPECT_EQ(LabelMismatches(relabeled_bare.train, want, "relabel bare"), 0u);
  EXPECT_EQ(ProfileMismatches(relabeled_kept.train_profiles, want_profiles),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Analogs, LabelParityTest, ::testing::ValuesIn(AnalogNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

GlEstimatorConfig TinyConfig(const char* method) {
  auto est = std::move(MakeEstimatorByName(method, Scale::kTiny).value());
  return static_cast<GlEstimator&>(*est).config();
}

std::vector<uint8_t> TrainedBytes(const GlEstimatorConfig& config,
                                  const ExperimentEnv& env) {
  GlEstimator est(config);
  const Status st = est.Train(MakeTrainContext(env));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return est.SaveToBytes();
}

ExperimentEnv TinyEnv(const char* dataset) {
  EnvOptions opts;
  opts.num_segments = 4;
  return std::move(BuildEnvironment(dataset, Scale::kTiny, opts).value());
}

struct ModelCase {
  const char* dataset;
  const char* method;
};

// Keeps ctest names stable: without it gtest prints the raw pointers.
void PrintTo(const ModelCase& c, std::ostream* os) {
  *os << c.dataset << " " << c.method;
}

class ModelParityTest : public ::testing::TestWithParam<ModelCase> {};

// Concurrent training on the pool and serial training on one worker give
// byte-identical models.
TEST_P(ModelParityTest, PoolAndOneWorkerTrainEqualBytes) {
  const ExperimentEnv env = TinyEnv(GetParam().dataset);
  const GlEstimatorConfig config = TinyConfig(GetParam().method);
  const std::vector<uint8_t> pooled = TrainedBytes(config, env);
  const std::vector<uint8_t> serial =
      OnPoolWorker([&] { return TrainedBytes(config, env); });
  ASSERT_FALSE(pooled.empty());
  EXPECT_TRUE(pooled == serial)
      << pooled.size() << " vs " << serial.size() << " bytes";
}

INSTANTIATE_TEST_SUITE_P(
    Models, ModelParityTest,
    ::testing::Values(ModelCase{"glove-sim", "GL-CNN"},
                      ModelCase{"glove-sim", "Local+"},
                      ModelCase{"imagenet-sim", "GL-CNN"},
                      ModelCase{"imagenet-sim", "Local+"}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      std::string name = std::string(info.param.dataset) + "_" +
                         info.param.method;
      for (char& c : name) {
        if (c == '-') c = '_';
        if (c == '+') c = 'P';
      }
      return name;
    });

// The per-segment tuning chain (off at tiny scale by default) runs serially
// before the concurrent section, so GL+ with it on is byte-identical too.
TEST(ModelParityTuningTest, GlPlusPerSegmentTuningTrainsEqualBytes) {
  EnvOptions opts;
  opts.num_segments = 3;
  const ExperimentEnv env = std::move(
      BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  GlEstimatorConfig config = TinyConfig("GL+");
  config.tune_per_segment = true;
  const std::vector<uint8_t> pooled = TrainedBytes(config, env);
  const std::vector<uint8_t> serial =
      OnPoolWorker([&] { return TrainedBytes(config, env); });
  ASSERT_FALSE(pooled.empty());
  EXPECT_TRUE(pooled == serial)
      << pooled.size() << " vs " << serial.size() << " bytes";
}

// train.nan_loss draws from one shared hit counter; armed, training runs
// its tasks in order on the calling thread, so the injected NaN lands on
// the same model every run.
TEST(TrainFaultDeterminismTest, InjectedNanLossGivesEqualBytes) {
  const ExperimentEnv env = TinyEnv("glove-sim");
  const GlEstimatorConfig config = TinyConfig("GL-CNN");
  const auto faulted = [&] {
    fault::FaultConfig nan_loss;
    nan_loss.sites = "train.nan_loss";
    nan_loss.max_injections = 1;
    fault::Configure(nan_loss);
    std::vector<uint8_t> bytes = TrainedBytes(config, env);
    EXPECT_EQ(fault::InjectionCount(), 1u);
    fault::Disable();
    return bytes;
  };
  const std::vector<uint8_t> first = faulted();
  const std::vector<uint8_t> second = faulted();
  EXPECT_TRUE(first == second);
  // The injection mattered: the watchdog's rollback changed the model.
  EXPECT_FALSE(first == TrainedBytes(config, env));
}

}  // namespace
}  // namespace simcard
