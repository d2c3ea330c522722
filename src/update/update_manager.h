// Refresh orchestration for the online-update subsystem (Section 5.3).
//
// The manager owns the authoritative dataset + workload, ingests deltas
// through a DeltaBuffer, and on trigger (delta-count threshold via Tick(),
// or an explicit Refresh()) produces a refreshed estimator OFF TO THE SIDE
// and publishes it through serve::ModelRegistry — the same zero-downtime
// epoch hot-swap the serving layer already uses for retrains. Readers never
// see a half-updated model; ingestion stays open during a refresh and is
// re-armed against the new epoch afterwards.
//
// Refresh paths, chosen by the DriftMonitor:
//   incremental — clone the published estimator (SaveToBytes/LoadFromBytes),
//     apply erases + route inserts on the clone's segmentation, rebuild the
//     touched segments' SegmentFallback samples and |D^[i]| clamps, relabel
//     the workload, fine-tune ONLY the stale local models plus a short
//     global fine-tune, publish;
//   full re-segmentation — when total churn crosses the hard ceiling, redo
//     PCA + K-means on the updated dataset and train a fresh estimator.
//
// Durability (UpdateOptions::journal_dir non-empty): every acknowledged
// Insert/Erase is appended to an epoch-scoped write-ahead journal before
// the ack, each published epoch persists its model + dataset + journal
// behind an atomically-renamed manifest, and RecoverFrom (recovery.cc)
// rebuilds a serving manager from those files after a crash with zero
// acknowledged-delta loss. A refresh that fails leaves the served epoch
// and the staged deltas untouched (the drained snapshot is restaged) and
// Tick reschedules it with exponential backoff + jitter; exhausting the
// retry budget trips a degraded state (simcard.update.degraded gauge +
// SegmentHealthRegistry::update_degraded) that an explicit Refresh() or
// recovery heals.
//
// Observability (gated on obs::MetricsEnabled()):
//   counters   simcard.update.inserts, .erases, .refreshes,
//              .segments_refreshed, .segments_cloned, .epochs_published,
//              .full_resegs, .dropped_erases, .refresh_failures,
//              .delta_shed, .retry.scheduled, .retry.exhausted
//   gauges     simcard.update.pending_deltas, simcard.update.degraded
//   histograms simcard.update.refresh_ms, simcard.update.deltas_per_refresh
//   (plus simcard.update.journal.* in delta_journal.cc and
//    simcard.update.recovery.* in recovery.cc)
#ifndef SIMCARD_UPDATE_UPDATE_MANAGER_H_
#define SIMCARD_UPDATE_UPDATE_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/gl_estimator.h"
#include "serve/model_registry.h"
#include "update/delta_buffer.h"
#include "update/delta_journal.h"
#include "update/drift_monitor.h"
#include "workload/queries.h"

namespace simcard {
namespace update {

/// \brief Refresh policy knobs.
struct UpdateOptions {
  /// Tick() refreshes once pending deltas reach this count (0 disables the
  /// threshold trigger; Refresh() always works).
  size_t refresh_delta_threshold = 0;
  /// Fine-tune epochs for stale local models and the global model.
  size_t fine_tune_epochs = 3;
  /// Base seed for refresh RNG streams (fallback re-sampling, fine-tunes);
  /// each refresh derives its own stream so repeated refreshes differ
  /// deterministically.
  uint64_t seed = 104729;
  DriftThresholds drift;
  /// Allow escalation to a full re-segmentation + retrain.
  bool allow_full_reseg = true;
  /// Segmentation options for the escalation path. target_segments == 0
  /// (the default here, overriding SegmentationOptions' own 16) keeps the
  /// published estimator's segment count.
  SegmentationOptions reseg{.target_segments = 0};

  /// Durability root: non-empty enables the write-ahead delta journal and
  /// epoch manifests under this directory (created if missing). Empty (the
  /// default) keeps the PR 5 in-memory-only behavior.
  std::string journal_dir;
  /// Journal group-commit / fsync knobs (only read when journal_dir set).
  JournalOptions journal;
  /// DeltaBuffer capacity: Insert/Erase past this many staged deltas shed
  /// with kUnavailable. 0 = unbounded.
  size_t delta_capacity = 0;
  /// Consecutive Tick-refresh failures tolerated before the manager trips
  /// degraded (auto-refresh stops; explicit Refresh() still works and
  /// heals). 0 = degrade on the first failure.
  size_t refresh_retry_budget = 3;
  /// Exponential backoff between Tick retry attempts: the n-th consecutive
  /// failure schedules the next attempt base*2^(n-1) ms out (clamped to
  /// max), jittered by a deterministic factor in [0.5, 1.5).
  double refresh_backoff_base_ms = 200.0;
  double refresh_backoff_max_ms = 10000.0;
};

/// \brief What one Refresh()/Tick() did.
struct RefreshOutcome {
  bool refreshed = false;  ///< false: nothing pending (or threshold not met)
  bool full_reseg = false;
  uint64_t epoch = 0;  ///< registry epoch of the published model
  size_t applied_inserts = 0;
  size_t applied_erases = 0;
  std::vector<size_t> stale_segments;
  size_t segments_refreshed = 0;  ///< locals fine-tuned
  size_t segments_cloned = 0;     ///< locals carried over untouched
  double refresh_ms = 0.0;
};

/// \brief Owns the mutable dataset/workload and drives refreshes.
///
/// Thread-safe: Insert/Erase/pending from any thread; Refresh/Tick from
/// any thread (serialized internally — a second caller waits). dataset()
/// and workload() are only stable while no refresh is in flight; they are
/// meant for single-threaded benchmarking and tests.
class UpdateManager {
 public:
  /// `registry` must outlive the manager. The manager keeps the workload's
  /// labels but drops its distance profiles (see RelabelWorkload).
  UpdateManager(Dataset dataset, SearchWorkload workload,
                serve::ModelRegistry* registry, UpdateOptions options);

  /// Publishes a clone of `trained` as the first served epoch and arms
  /// delta ingestion against it. The estimator must have been trained on
  /// (a segmentation of) the manager's dataset. With journal_dir set, also
  /// persists the epoch's model/dataset/workload, opens its journal, and
  /// commits the first manifest.
  Status Start(const GlEstimator& trained);

  /// Rebuilds a serving manager from the last committed manifest under
  /// `options.journal_dir` (which RecoverFrom forces non-empty): loads the
  /// manifest's model + dataset + workload queries, relabels the workload,
  /// publishes at the recovered epoch through `registry`, replays the
  /// journal's valid prefix into a fresh DeltaBuffer (any torn tail is
  /// truncated off), and re-opens the journal for append. Every delta
  /// acknowledged before the crash is pending again afterwards.
  /// `config` supplies the estimator's behavioral knobs (fine-tune
  /// options; the geometry is embedded in the model file) — nullptr uses
  /// GlEstimatorConfig::GlCnn() like the CLI. Implemented in recovery.cc.
  static Result<std::unique_ptr<UpdateManager>> RecoverFrom(
      serve::ModelRegistry* registry, UpdateOptions options,
      const GlEstimatorConfig* config = nullptr);

  /// Stages one inserted vector (copied; dim() finite floats).
  Status Insert(std::span<const float> point);

  /// Stages the erase of row `row` of the currently armed dataset epoch.
  Status Erase(uint32_t row);

  /// Drains pending deltas and refreshes now (no-op outcome when nothing
  /// is pending).
  Result<RefreshOutcome> Refresh();

  /// Threshold trigger: refreshes only when pending deltas have reached
  /// UpdateOptions::refresh_delta_threshold, or when the observed-accuracy
  /// input (SetAccuracySource + DriftThresholds::stale_observed_qerror)
  /// flags a segment stale. Call periodically (or after ingestion bursts);
  /// returns refreshed = false when not due.
  Result<RefreshOutcome> Tick();

  /// \brief Wires the serving layer's online Q-error windows (see
  /// serve::EstimationService::accuracy()) into drift assessment.
  ///
  /// With DriftThresholds::stale_observed_qerror > 0, a segment whose
  /// windowed q-error p90 crosses the threshold is fine-tuned on the next
  /// refresh even when it has zero pending deltas — observed accuracy
  /// degradation (query drift) triggers repair the same way data drift
  /// does. `tracker` must outlive the manager; nullptr disconnects.
  void SetAccuracySource(const obs::QErrorTracker* tracker);

  size_t pending() const { return buffer_.pending(); }
  const DeltaBuffer& buffer() const { return buffer_; }
  const DriftMonitor& monitor() const { return monitor_; }

  /// True once consecutive Tick-refresh failures exhausted the retry
  /// budget: Tick no-ops until an explicit Refresh() succeeds.
  bool degraded() const;
  size_t consecutive_failures() const;
  /// True after a failure inside the durable-commit window left disk and
  /// memory out of step: the manager refuses further work and must be
  /// replaced via RecoverFrom (recovery replays the still-committed old
  /// manifest; nothing acknowledged is lost).
  bool needs_recovery() const { return needs_recovery_.load(); }
  /// Epoch of the last committed manifest (0 when not durable).
  uint64_t durable_epoch() const;

  /// The authoritative post-apply dataset/workload. Only stable while no
  /// refresh is in flight.
  const Dataset& dataset() const { return dataset_; }
  const SearchWorkload& workload() const { return workload_; }

 private:
  Result<RefreshOutcome> DoRefresh(bool only_if_due);
  Result<RefreshOutcome> IncrementalRefresh(
      const std::shared_ptr<const GlEstimator>& current, uint64_t next_epoch,
      const DeltaSnapshot& snap, const DriftReport& report,
      uint64_t refresh_seed);
  Result<RefreshOutcome> FullResegRefresh(
      const std::shared_ptr<const GlEstimator>& current, uint64_t next_epoch,
      const DeltaSnapshot& snap, uint64_t refresh_seed);
  /// Applies `snap` + fine-tunes onto working copies, persists the new
  /// epoch's artifacts, swaps them in, and commits the manifest under the
  /// buffer lock. Shared tail of both refresh paths. `info` rides on the
  /// publish so epoch-keyed serve state (the feedback store) knows whether
  /// this refresh invalidated everything or only specific segments.
  Status CommitRefresh(std::shared_ptr<GlEstimator> next, Dataset new_dataset,
                       SearchWorkload new_workload, uint64_t next_epoch,
                       const std::vector<uint32_t>& remap,
                       std::shared_ptr<const serve::PublishInfo> info,
                       RefreshOutcome* outcome);
  /// Saves epoch `epoch`'s dataset + model files (fault: update.refresh_io).
  Status PersistEpochArtifacts(uint64_t epoch, const GlEstimator& model,
                               const Dataset& dataset) const;
  /// Records a refresh failure: restages the snapshot, bumps the failure
  /// counters, and schedules the Tick backoff window.
  void OnRefreshFailure(DeltaSnapshot snap);
  void OnRefreshSuccess();
  bool durable() const { return !options_.journal_dir.empty(); }
  void UpdatePendingGauge() const;

  Dataset dataset_;
  SearchWorkload workload_;
  serve::ModelRegistry* registry_;
  UpdateOptions options_;
  DeltaBuffer buffer_;
  DriftMonitor monitor_;
  const obs::QErrorTracker* accuracy_ = nullptr;  // guarded by refresh_mu_

  /// Serializes refreshes; dataset_/workload_ only mutate under this.
  mutable std::mutex refresh_mu_;
  uint64_t refresh_count_ = 0;  // guarded by refresh_mu_

  // Durability state, guarded by refresh_mu_ (except needs_recovery_,
  // which ingestion reads without the lock).
  std::unique_ptr<DeltaJournal> journal_;
  uint64_t durable_epoch_ = 0;
  std::atomic<bool> needs_recovery_{false};

  // Retry/backoff state, guarded by refresh_mu_.
  size_t consecutive_failures_ = 0;
  bool degraded_ = false;
  std::chrono::steady_clock::time_point next_retry_{};
};

}  // namespace update
}  // namespace simcard

#endif  // SIMCARD_UPDATE_UPDATE_MANAGER_H_
