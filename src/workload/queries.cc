#include "workload/queries.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace simcard {
namespace {

// Training selectivities: uniform in (0, max_sel], as 1-based ranks among
// n ascending distances.
std::vector<size_t> TrainRanks(size_t n, size_t count, double max_sel,
                               Rng* rng) {
  std::vector<size_t> ranks(count);
  for (auto& rank : ranks) {
    const double sel = std::max(1e-9, rng->NextDouble()) * max_sel;
    rank = RankForSelectivity(sel, n);
  }
  return ranks;
}

// Testing selectivities: geometric mixture biased toward low selectivity
// (the paper's "geometrical distribution of selectivities").
std::vector<size_t> TestRanks(size_t n, size_t count, double max_sel,
                              Rng* rng) {
  std::vector<size_t> ranks(count);
  for (auto& rank : ranks) {
    const int k = std::min(rng->NextGeometric(0.5), 6);
    const double jitter = 0.5 + 0.5 * rng->NextDouble();
    const double sel = max_sel * jitter / static_cast<double>(1 << k);
    rank = RankForSelectivity(sel, n);
  }
  return ranks;
}

// Fails unless `seg` (when given) assigns each of the dataset's first n
// rows to one of its segments.
Status CheckSegmentation(const Segmentation* seg, size_t n) {
  if (seg == nullptr) return Status::OK();
  if (seg->assignment.size() < n) {
    return Status::InvalidArgument(
        "workload labels: segmentation does not cover the dataset");
  }
  for (size_t i = 0; i < n; ++i) {
    if (seg->assignment[i] >= seg->num_segments()) {
      return Status::InvalidArgument(
          "workload labels: row assigned to a missing segment");
    }
  }
  return Status::OK();
}

// Gives a new kept profile storage of exactly the size FillProfile writes,
// so LabelQuery never reallocates it: it may run on a pool worker, and
// memory a pool thread allocates lives in that thread's malloc arena and
// stays resident there.
void ReserveProfile(size_t n, const Segmentation* seg,
                    QueryDistanceProfile* profile) {
  profile->distances.reserve(n);
  if (seg != nullptr) profile->seg_ends.reserve(seg->num_segments());
}

// Labels one query from one scan of the dataset, without sorting its n
// distances:
//  * with `ranks` (a new workload), each tau is the distance at that 1-based
//    rank, selected by a max-heap of the smallest distances up to the
//    largest rank, which is at most max_selectivity of n;
//  * with no ranks (a relabel), `lq` keeps its taus.
// Every cardinality, in total and per segment, comes from one counting pass.
// The labels are bitwise equal to those of a profile (TauForSelectivity,
// CountAt/SegCountAt). A non-null `profile`, prepared by ReserveProfile,
// also receives the profile, as an output only.
void LabelQuery(const GroundTruth& gt, const Segmentation* seg,
                const float* q, const std::vector<size_t>& ranks,
                LabeledQuery* lq, QueryDistanceProfile* profile) {
  std::vector<float> dists;
  gt.ComputeAllDistances(q, &dists);
  const size_t n = dists.size();

  if (!ranks.empty()) {
    const size_t top = *std::max_element(ranks.begin(), ranks.end());
    std::vector<float> smallest;
    smallest.reserve(top);
    for (float d : dists) {
      if (smallest.size() < top) {
        smallest.push_back(d);
        std::push_heap(smallest.begin(), smallest.end());
      } else if (d < smallest.front()) {
        std::pop_heap(smallest.begin(), smallest.end());
        smallest.back() = d;
        std::push_heap(smallest.begin(), smallest.end());
      }
    }
    std::sort_heap(smallest.begin(), smallest.end());
    std::vector<float> taus(ranks.size());
    for (size_t k = 0; k < ranks.size(); ++k) {
      taus[k] = smallest[ranks[k] - 1];
    }
    std::sort(taus.begin(), taus.end());
    lq->thresholds.resize(taus.size());
    for (size_t k = 0; k < taus.size(); ++k) lq->thresholds[k].tau = taus[k];
  }

  // The counting pass, per segment (one column without a segmentation).
  // Only distances within the largest tau can count, and those are about
  // max_selectivity of n, so the per-tau test is cheap.
  const size_t n_seg = seg != nullptr ? seg->num_segments() : 0;
  const size_t k_count = lq->thresholds.size();
  float top_tau = -std::numeric_limits<float>::infinity();
  for (const ThresholdLabel& t : lq->thresholds) {
    top_tau = std::max(top_tau, t.tau);
  }
  const size_t cols = std::max<size_t>(1, n_seg);
  std::vector<size_t> counts(k_count * cols, 0);
  for (size_t i = 0; i < n; ++i) {
    const float d = dists[i];
    if (!(d <= top_tau)) continue;
    const size_t col = n_seg > 0 ? seg->assignment[i] : 0;
    for (size_t k = 0; k < k_count; ++k) {
      counts[k * cols + col] += d <= lq->thresholds[k].tau;
    }
  }
  for (size_t k = 0; k < k_count; ++k) {
    ThresholdLabel& label = lq->thresholds[k];
    label.seg_cards.resize(n_seg);
    size_t total = 0;
    for (size_t c = 0; c < cols; ++c) {
      total += counts[k * cols + c];
      if (n_seg > 0) {
        label.seg_cards[c] = static_cast<float>(counts[k * cols + c]);
      }
    }
    label.card = static_cast<float>(total);
  }

  if (profile != nullptr) FillProfile(dists, seg, profile);
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
  const size_t n = dataset.size();
  SIMCARD_RETURN_IF_ERROR(CheckSegmentation(seg, n));
  Rng rng(options.seed);
  const size_t d = dataset.dim();
  const size_t num_queries = options.num_train + options.num_test;
  auto picks = rng.SampleWithoutReplacement(n, num_queries);

  SearchWorkload wl;
  wl.train_queries = Matrix(options.num_train, d);
  wl.test_queries = Matrix(options.num_test, d);
  for (size_t i = 0; i < options.num_train; ++i) {
    wl.train_queries.SetRow(i, dataset.Point(picks[i]));
  }
  for (size_t i = 0; i < options.num_test; ++i) {
    wl.test_queries.SetRow(i, dataset.Point(picks[options.num_train + i]));
  }

  // Every query's threshold ranks are drawn first, serially and train
  // queries before test queries. The draws never depend on distances, so
  // the labelling below can spread the queries over the pool.
  std::vector<std::vector<size_t>> ranks;
  ranks.reserve(num_queries);
  for (size_t i = 0; i < options.num_train; ++i) {
    ranks.push_back(TrainRanks(n, options.thresholds_per_query,
                               options.max_selectivity, &rng));
  }
  for (size_t i = 0; i < options.num_test; ++i) {
    ranks.push_back(TestRanks(n, options.thresholds_per_query,
                              options.max_selectivity, &rng));
  }

  GroundTruth gt(&dataset);
  wl.train.resize(options.num_train);
  wl.test.resize(options.num_test);
  if (options.keep_profiles) {
    wl.train_profiles.resize(options.num_train);
    wl.test_profiles.resize(options.num_test);
    for (auto& p : wl.train_profiles) ReserveProfile(n, seg, &p);
    for (auto& p : wl.test_profiles) ReserveProfile(n, seg, &p);
  }
  ParallelFor(
      0, num_queries,
      [&](size_t i) {
        const bool train = i < options.num_train;
        const size_t row = train ? i : i - options.num_train;
        LabeledQuery& lq = train ? wl.train[row] : wl.test[row];
        lq.row = static_cast<uint32_t>(row);
        QueryDistanceProfile* profile = nullptr;
        if (options.keep_profiles) {
          profile = train ? &wl.train_profiles[row] : &wl.test_profiles[row];
        }
        const Matrix& queries = train ? wl.train_queries : wl.test_queries;
        LabelQuery(gt, seg, queries.Row(row), ranks[i], &lq, profile);
      },
      /*min_chunk=*/1);
  wl.label_build_seconds = watch.ElapsedSeconds();
  return wl;
}

Status RelabelWorkload(const Dataset& dataset, const Segmentation* seg,
                       SearchWorkload* workload) {
  if (workload->train_queries.cols() != dataset.dim()) {
    return Status::InvalidArgument("RelabelWorkload: dimension mismatch");
  }
  SIMCARD_RETURN_IF_ERROR(CheckSegmentation(seg, dataset.size()));
  // Kept profiles describe the dataset they were built on, and nothing
  // reads them after a relabel, so they are dropped rather than rebuilt.
  workload->train_profiles.clear();
  workload->test_profiles.clear();
  GroundTruth gt(&dataset);
  // One query at a time, on this thread: a relabel runs on the refresh
  // path, beside serving.
  const auto relabel = [&](const Matrix& queries,
                           std::vector<LabeledQuery>* set) {
    for (LabeledQuery& lq : *set) {
      if (lq.row >= queries.rows()) {
        return Status::InvalidArgument(
            "RelabelWorkload: query row out of range");
      }
      LabelQuery(gt, seg, queries.Row(lq.row), {}, &lq, nullptr);
    }
    return Status::OK();
  };
  SIMCARD_RETURN_IF_ERROR(relabel(workload->train_queries, &workload->train));
  return relabel(workload->test_queries, &workload->test);
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
  return wl;
}

}  // namespace simcard
