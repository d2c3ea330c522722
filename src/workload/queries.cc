#include "workload/queries.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/stopwatch.h"

namespace simcard {
namespace {

// Fills one query's threshold labels from its distance profile.
void LabelThresholds(const QueryDistanceProfile& profile,
                     const Segmentation* seg,
                     const std::vector<float>& taus, LabeledQuery* out) {
  out->thresholds.clear();
  out->thresholds.reserve(taus.size());
  for (float tau : taus) {
    ThresholdLabel label;
    label.tau = tau;
    label.card = static_cast<float>(profile.CountAt(tau));
    if (seg != nullptr) {
      label.seg_cards.resize(seg->num_segments());
      for (size_t s = 0; s < seg->num_segments(); ++s) {
        label.seg_cards[s] = static_cast<float>(profile.SegCountAt(s, tau));
      }
    }
    out->thresholds.push_back(std::move(label));
  }
}

// Training selectivities: uniform in (0, max_sel].
std::vector<float> TrainTaus(const QueryDistanceProfile& profile,
                             size_t count, double max_sel, Rng* rng) {
  std::vector<float> taus(count);
  for (auto& tau : taus) {
    const double sel = std::max(1e-9, rng->NextDouble()) * max_sel;
    tau = profile.TauForSelectivity(sel);
  }
  std::sort(taus.begin(), taus.end());
  return taus;
}

// Testing selectivities: geometric mixture biased toward low selectivity
// (the paper's "geometrical distribution of selectivities").
std::vector<float> TestTaus(const QueryDistanceProfile& profile, size_t count,
                            double max_sel, Rng* rng) {
  std::vector<float> taus(count);
  for (auto& tau : taus) {
    const int k = std::min(rng->NextGeometric(0.5), 6);
    const double jitter = 0.5 + 0.5 * rng->NextDouble();
    const double sel = max_sel * jitter / static_cast<double>(1 << k);
    tau = profile.TauForSelectivity(sel);
  }
  std::sort(taus.begin(), taus.end());
  return taus;
}

}  // namespace

Result<SearchWorkload> BuildSearchWorkload(const Dataset& dataset,
                                           const Segmentation* seg,
                                           const WorkloadOptions& options) {
  if (options.num_train + options.num_test > dataset.size()) {
    return Status::InvalidArgument(
        "BuildSearchWorkload: more queries requested than dataset points");
  }
  if (options.thresholds_per_query == 0) {
    return Status::InvalidArgument(
        "BuildSearchWorkload: thresholds_per_query must be positive");
  }
  Stopwatch watch;
  Rng rng(options.seed);
  const size_t d = dataset.dim();
  auto picks = rng.SampleWithoutReplacement(
      dataset.size(), options.num_train + options.num_test);

  SearchWorkload wl;
  wl.train_queries = Matrix(options.num_train, d);
  wl.test_queries = Matrix(options.num_test, d);
  for (size_t i = 0; i < options.num_train; ++i) {
    wl.train_queries.SetRow(i, dataset.Point(picks[i]));
  }
  for (size_t i = 0; i < options.num_test; ++i) {
    wl.test_queries.SetRow(i, dataset.Point(picks[options.num_train + i]));
  }

  GroundTruth gt(&dataset);
  wl.train.resize(options.num_train);
  wl.test.resize(options.num_test);
  if (options.keep_profiles) {
    wl.train_profiles.resize(options.num_train);
    wl.test_profiles.resize(options.num_test);
  }

  for (size_t i = 0; i < options.num_train; ++i) {
    QueryDistanceProfile profile =
        gt.BuildProfile(wl.train_queries.Row(i), seg);
    wl.train[i].row = static_cast<uint32_t>(i);
    LabelThresholds(profile, seg,
                    TrainTaus(profile, options.thresholds_per_query,
                              options.max_selectivity, &rng),
                    &wl.train[i]);
    if (options.keep_profiles) wl.train_profiles[i] = std::move(profile);
  }
  for (size_t i = 0; i < options.num_test; ++i) {
    QueryDistanceProfile profile = gt.BuildProfile(wl.test_queries.Row(i), seg);
    wl.test[i].row = static_cast<uint32_t>(i);
    LabelThresholds(profile, seg,
                    TestTaus(profile, options.thresholds_per_query,
                             options.max_selectivity, &rng),
                    &wl.test[i]);
    if (options.keep_profiles) wl.test_profiles[i] = std::move(profile);
  }
  wl.label_build_seconds = watch.ElapsedSeconds();
  return wl;
}

Status RelabelWorkload(const Dataset& dataset, const Segmentation* seg,
                       SearchWorkload* workload) {
  if (workload->train_queries.cols() != dataset.dim()) {
    return Status::InvalidArgument("RelabelWorkload: dimension mismatch");
  }
  GroundTruth gt(&dataset);
  const bool keep =
      workload->train_profiles.size() == workload->train.size();

  for (size_t i = 0; i < workload->train.size(); ++i) {
    LabeledQuery& lq = workload->train[i];
    QueryDistanceProfile profile =
        gt.BuildProfile(workload->train_queries.Row(lq.row), seg);
    std::vector<float> taus;
    taus.reserve(lq.thresholds.size());
    for (const auto& t : lq.thresholds) taus.push_back(t.tau);
    LabelThresholds(profile, seg, taus, &lq);
    if (keep) workload->train_profiles[i] = std::move(profile);
  }
  const bool keep_test =
      workload->test_profiles.size() == workload->test.size();
  for (size_t i = 0; i < workload->test.size(); ++i) {
    LabeledQuery& lq = workload->test[i];
    QueryDistanceProfile profile =
        gt.BuildProfile(workload->test_queries.Row(lq.row), seg);
    std::vector<float> taus;
    taus.reserve(lq.thresholds.size());
    for (const auto& t : lq.thresholds) taus.push_back(t.tau);
    LabelThresholds(profile, seg, taus, &lq);
    if (keep_test) workload->test_profiles[i] = std::move(profile);
  }
  return Status::OK();
}

namespace {

void SerializeQuerySet(const std::vector<LabeledQuery>& queries,
                       Serializer* out) {
  out->WriteU64(queries.size());
  for (const LabeledQuery& lq : queries) {
    out->WriteU32(lq.row);
    out->WriteU64(lq.thresholds.size());
    for (const ThresholdLabel& t : lq.thresholds) out->WriteF32(t.tau);
  }
}

Status DeserializeQuerySet(Deserializer* in,
                           std::vector<LabeledQuery>* queries) {
  uint64_t n = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&n));
  if (n > in->remaining()) {
    return Status::OutOfRange("query set count exceeds buffer");
  }
  queries->resize(n);
  for (LabeledQuery& lq : *queries) {
    SIMCARD_RETURN_IF_ERROR(in->ReadU32(&lq.row));
    uint64_t taus = 0;
    SIMCARD_RETURN_IF_ERROR(in->ReadU64(&taus));
    // Division, not taus * sizeof(float): the product wraps for a corrupt
    // count with bit 62 or 63 set.
    if (taus > in->remaining() / sizeof(float)) {
      return Status::OutOfRange("threshold count exceeds buffer");
    }
    lq.thresholds.resize(taus);
    for (ThresholdLabel& t : lq.thresholds) {
      SIMCARD_RETURN_IF_ERROR(in->ReadF32(&t.tau));
    }
  }
  return Status::OK();
}

}  // namespace

void SerializeQueries(const SearchWorkload& workload, Serializer* out) {
  workload.train_queries.Serialize(out);
  workload.test_queries.Serialize(out);
  SerializeQuerySet(workload.train, out);
  SerializeQuerySet(workload.test, out);
}

Result<SearchWorkload> DeserializeQueries(Deserializer* in) {
  SearchWorkload wl;
  SIMCARD_RETURN_IF_ERROR(wl.train_queries.Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(wl.test_queries.Deserialize(in));
  SIMCARD_RETURN_IF_ERROR(DeserializeQuerySet(in, &wl.train));
  SIMCARD_RETURN_IF_ERROR(DeserializeQuerySet(in, &wl.test));
  // Pre-size the profile slots so the first RelabelWorkload rebuilds and
  // keeps them (it only stores profiles when the sizes already agree).
  wl.train_profiles.resize(wl.train.size());
  wl.test_profiles.resize(wl.test.size());
  return wl;
}

}  // namespace simcard
