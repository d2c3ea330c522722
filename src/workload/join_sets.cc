#include "workload/join_sets.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"

namespace simcard {
namespace {

// The workload's threshold range: min/max across all train thresholds.
std::pair<float, float> TauRange(const SearchWorkload& search) {
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (const auto& q : search.train) {
    for (const auto& t : q.thresholds) {
      lo = std::min(lo, t.tau);
      hi = std::max(hi, t.tau);
    }
  }
  if (!(lo <= hi)) {
    lo = 0.0f;
    hi = 1.0f;
  }
  return {lo, hi};
}

// True when every profile has `num_segments` runs (0: unsegmented).
bool ProfilesHaveSegments(const std::vector<QueryDistanceProfile>& profiles,
                          size_t num_segments) {
  return std::all_of(profiles.begin(), profiles.end(),
                     [&](const QueryDistanceProfile& p) {
                       return p.num_segments() == num_segments;
                     });
}

// Labels one join set exactly from member profiles. A member's total is
// the sum of its integer segment counts, so it equals CountAt exactly.
void LabelJoinSet(const std::vector<QueryDistanceProfile>& profiles,
                  size_t num_segments, JoinSet* js) {
  js->card = 0.0;
  js->seg_cards.assign(num_segments, 0.0);
  for (uint32_t row : js->query_rows) {
    const QueryDistanceProfile& profile = profiles[row];
    size_t total = num_segments == 0 ? profile.CountAt(js->tau) : 0;
    for (size_t s = 0; s < num_segments; ++s) {
      const size_t count = profile.SegCountAt(s, js->tau);
      js->seg_cards[s] += static_cast<double>(count);
      total += count;
    }
    js->card += static_cast<double>(total);
  }
}

}  // namespace

Result<JoinWorkload> BuildJoinWorkload(const SearchWorkload& search,
                                       size_t num_segments,
                                       const JoinWorkloadOptions& options) {
  if (search.train_profiles.size() != search.train.size() ||
      search.test_profiles.size() != search.test.size()) {
    return Status::FailedPrecondition(
        "BuildJoinWorkload: search workload must keep distance profiles");
  }
  if (search.train.empty() || search.test.empty()) {
    return Status::InvalidArgument("BuildJoinWorkload: empty search workload");
  }
  if (!ProfilesHaveSegments(search.train_profiles, num_segments) ||
      !ProfilesHaveSegments(search.test_profiles, num_segments)) {
    return Status::InvalidArgument(
        "BuildJoinWorkload: num_segments differs from the profiles' "
        "segment count");
  }
  Rng rng(options.seed);
  const auto [tau_lo, tau_hi] = TauRange(search);

  JoinWorkload out;
  const size_t n_train_q = search.train.size();

  // Training join sets: size in [1, 100), members w/o replacement when
  // possible; 10 evenly-spaced thresholds per member set.
  for (size_t s = 0; s < options.num_train_sets; ++s) {
    const size_t size = static_cast<size_t>(rng.NextInt(1, 99));
    std::vector<uint32_t> members;
    if (size <= n_train_q) {
      auto picks = rng.SampleWithoutReplacement(n_train_q, size);
      members.assign(picks.begin(), picks.end());
    } else {
      members.resize(size);
      for (auto& m : members) {
        m = static_cast<uint32_t>(rng.NextBounded(n_train_q));
      }
    }
    for (size_t t = 0; t < options.thresholds_per_set; ++t) {
      JoinSet js;
      js.query_rows = members;
      js.from_test_queries = false;
      const float frac = options.thresholds_per_set == 1
                             ? 0.5f
                             : static_cast<float>(t) /
                                   static_cast<float>(
                                       options.thresholds_per_set - 1);
      js.tau = tau_lo + frac * (tau_hi - tau_lo);
      LabelJoinSet(search.train_profiles, num_segments, &js);
      out.train.push_back(std::move(js));
    }
  }

  // Test join sets: three size buckets, random thresholds, members from the
  // *test* queries (with replacement when the bucket exceeds their count).
  const size_t bucket_lo[3] = {50, 100, 150};
  const size_t bucket_hi[3] = {99, 149, 199};
  const size_t n_test_q = search.test.size();
  out.test_buckets.resize(3);
  for (size_t b = 0; b < 3; ++b) {
    for (size_t s = 0; s < options.num_test_sets; ++s) {
      const size_t size = static_cast<size_t>(
          rng.NextInt(static_cast<int64_t>(bucket_lo[b]),
                      static_cast<int64_t>(bucket_hi[b])));
      std::vector<uint32_t> members;
      if (size <= n_test_q) {
        auto picks = rng.SampleWithoutReplacement(n_test_q, size);
        members.assign(picks.begin(), picks.end());
      } else {
        members.resize(size);
        for (auto& m : members) {
          m = static_cast<uint32_t>(rng.NextBounded(n_test_q));
        }
      }
      for (size_t t = 0; t < options.thresholds_per_set; ++t) {
        JoinSet js;
        js.query_rows = members;
        js.from_test_queries = true;
        js.tau = tau_lo + static_cast<float>(rng.NextDouble()) *
                              (tau_hi - tau_lo);
        LabelJoinSet(search.test_profiles, num_segments, &js);
        out.test_buckets[b].push_back(std::move(js));
      }
    }
  }
  return out;
}

}  // namespace simcard
