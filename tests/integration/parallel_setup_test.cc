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
#include <span>
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

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
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
      note(SameBits(a.tau, b.tau), q, t, "tau");
      note(SameBits(a.card, b.card), q, t, "card");
      const bool same_segs =
          std::equal(a.seg_cards.begin(), a.seg_cards.end(),
                     b.seg_cards.begin(), b.seg_cards.end(), SameBits);
      note(same_segs, q, t, "seg_cards");
    }
  }
  return mismatches;
}

// One query as the reference sees it: its distances from one scan, in row
// order, and the selectivities its taus were drawn from (none on relabel).
struct Scan {
  std::vector<float> dists;
  std::vector<double> sels;
};

// Labels `row` at the given taus (sorted first) by direct counts over its
// scanned distances, in total and per segment. `seg` may be null.
LabeledQuery CountLabels(const std::vector<float>& dists,
                         const Segmentation* seg, uint32_t row,
                         std::vector<float> taus) {
  std::sort(taus.begin(), taus.end());
  const size_t num_segments = seg != nullptr ? seg->num_segments() : 0;
  LabeledQuery lq;
  lq.row = row;
  for (float tau : taus) {
    size_t card = 0;
    std::vector<size_t> seg_cards(num_segments, 0);
    for (size_t i = 0; i < dists.size(); ++i) {
      if (!(dists[i] <= tau)) continue;
      ++card;
      if (seg != nullptr) ++seg_cards[seg->assignment[i]];
    }
    ThresholdLabel label;
    label.tau = tau;
    label.card = static_cast<float>(card);
    for (size_t c : seg_cards) label.seg_cards.push_back(static_cast<float>(c));
    lq.thresholds.push_back(std::move(label));
  }
  return lq;
}

// The scan reference for BuildSearchWorkload, which shares no code with the
// profile layout: the same draws from the workload seed, each tau the
// distance at its rank in a plain sorted copy of the query's distances, each
// card a direct count. `seg` may be null.
void ReferenceLabels(const Dataset& data, const Segmentation* seg,
                     const WorkloadOptions& opts, const SearchWorkload& wl,
                     std::vector<LabeledQuery>* train,
                     std::vector<LabeledQuery>* test,
                     std::vector<Scan>* scans) {
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
    Scan scan;
    gt.ComputeAllDistances(queries.Row(row), &scan.dists);
    std::vector<float> sorted = scan.dists;
    std::sort(sorted.begin(), sorted.end());
    std::vector<float> taus;
    for (double sel : sels[i]) {
      taus.push_back(sorted[RankForSelectivity(sel, sorted.size()) - 1]);
    }
    (is_train ? train : test)
        ->push_back(CountLabels(scan.dists, seg, row, taus));
    scan.sels = std::move(sels[i]);
    scans->push_back(std::move(scan));
  }
}

// Counts kept profiles that disagree with the scan reference; reports the
// first. Each run must be the std::sort of its segment's scanned distances
// (all of them without a segmentation); CountAt and SegCountAt at every
// label tau must equal the reference cards; TauForSelectivity must equal the
// distance at that rank in a plain sorted copy.
size_t ProfileMismatches(const std::vector<QueryDistanceProfile>& got,
                         const std::vector<Scan>& scans,
                         const std::vector<LabeledQuery>& labels,
                         const Segmentation* seg, const std::string& what) {
  if (got.size() != scans.size() || got.size() != labels.size()) {
    ADD_FAILURE() << what << ": " << got.size() << " profiles vs "
                  << scans.size() << " queries";
    return 1;
  }
  size_t mismatches = 0;
  const auto note = [&](bool same, size_t q, const std::string& field) {
    if (same) return;
    if (mismatches++ == 0) {
      ADD_FAILURE() << what << ": query " << q << " " << field << " differs";
    }
  };
  const size_t num_segments = seg != nullptr ? seg->num_segments() : 0;
  for (size_t q = 0; q < got.size(); ++q) {
    const QueryDistanceProfile& profile = got[q];
    const std::vector<float>& dists = scans[q].dists;
    if (profile.num_segments() != num_segments) {
      note(false, q, "segment count");
      continue;
    }
    for (size_t s = 0; s < std::max<size_t>(1, num_segments); ++s) {
      std::vector<float> want;
      for (size_t i = 0; i < dists.size(); ++i) {
        if (seg == nullptr || seg->assignment[i] == s) {
          want.push_back(dists[i]);
        }
      }
      std::sort(want.begin(), want.end());
      const std::span<const float> run =
          seg != nullptr ? profile.SegmentRun(s)
                         : std::span<const float>(profile.distances);
      note(std::equal(run.begin(), run.end(), want.begin(), want.end(),
                      SameBits),
           q, "run " + std::to_string(s));
    }
    for (const ThresholdLabel& t : labels[q].thresholds) {
      note(static_cast<float>(profile.CountAt(t.tau)) == t.card, q,
           "CountAt");
      for (size_t s = 0; s < num_segments; ++s) {
        note(static_cast<float>(profile.SegCountAt(s, t.tau)) ==
                 t.seg_cards[s],
             q, "SegCountAt " + std::to_string(s));
      }
    }
    std::vector<float> sorted = dists;
    std::sort(sorted.begin(), sorted.end());
    for (double sel : scans[q].sels) {
      note(SameBits(profile.TauForSelectivity(sel),
                    sorted[RankForSelectivity(sel, sorted.size()) - 1]),
           q, "TauForSelectivity");
    }
  }
  return mismatches;
}

// A workload's kept profiles or labels, train then test.
template <typename T>
std::vector<T> TrainThenTest(const std::vector<T>& train,
                             const std::vector<T>& test) {
  std::vector<T> all = train;
  all.insert(all.end(), test.begin(), test.end());
  return all;
}

class LabelParityTest : public ::testing::TestWithParam<std::string> {};

// Every tau, card and seg_cards is bitwise equal across keep_profiles on
// and off, the pool and one worker, and the scan reference, and every kept
// profile agrees with that reference; the labels of RelabelWorkload after
// rows are added agree too, and the relabel drops the profiles.
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
  std::vector<Scan> ref_scans;
  ReferenceLabels(data, &seg, opts, kept, &ref_train, &ref_test, &ref_scans);
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
  EXPECT_EQ(ProfileMismatches(
                TrainThenTest(kept.train_profiles, kept.test_profiles),
                ref_scans, TrainThenTest(ref_train, ref_test), &seg, "kept"),
            0u);
  EXPECT_EQ(ProfileMismatches(TrainThenTest(one_worker.train_profiles,
                                            one_worker.test_profiles),
                              ref_scans, TrainThenTest(ref_train, ref_test),
                              &seg, "one worker"),
            0u);
  EXPECT_TRUE(bare.train_profiles.empty());

  // Without a segmentation: total cards only, and profiles of one run.
  const SearchWorkload flat = BuildSearchWorkload(data, nullptr, opts).value();
  std::vector<LabeledQuery> flat_train, flat_test;
  std::vector<Scan> flat_scans;
  ReferenceLabels(data, nullptr, opts, flat, &flat_train, &flat_test,
                  &flat_scans);
  EXPECT_EQ(LabelMismatches(flat.train, flat_train, "flat train"), 0u);
  EXPECT_EQ(LabelMismatches(flat.test, flat_test, "flat test"), 0u);
  EXPECT_EQ(ProfileMismatches(
                TrainThenTest(flat.train_profiles, flat.test_profiles),
                flat_scans, TrainThenTest(flat_train, flat_test), nullptr,
                "flat"),
            0u);

  // Relabel against a grown dataset: the kept and bare workloads agree
  // with direct counts over the new data at the old taus.
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
  for (const LabeledQuery& lq : kept.train) {
    std::vector<float> dists;
    gt.ComputeAllDistances(kept.train_queries.Row(lq.row), &dists);
    std::vector<float> taus;
    for (const ThresholdLabel& t : lq.thresholds) taus.push_back(t.tau);
    want.push_back(CountLabels(dists, &seg, lq.row, taus));
  }
  EXPECT_EQ(LabelMismatches(relabeled_kept.train, want, "relabel kept"), 0u);
  EXPECT_EQ(LabelMismatches(relabeled_bare.train, want, "relabel bare"), 0u);
  EXPECT_TRUE(relabeled_kept.train_profiles.empty());
  EXPECT_TRUE(relabeled_kept.test_profiles.empty());
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
