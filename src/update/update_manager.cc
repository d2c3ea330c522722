#include "update/update_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/segment_health.h"
#include "obs/trace.h"
#include "update/recovery.h"

namespace simcard {
namespace update {

namespace {

// Simulated refresh failures: the durable save phase and the fine-tune
// phase (on top of the organic divergence path, train.nan_loss).
constexpr const char kRefreshIoSite[] = "update.refresh_io";
constexpr const char kRefreshFineTuneSite[] = "update.refresh_finetune";

// Refresh-path instrumentation, resolved once (registry pointers are
// stable) and gated on MetricsEnabled() at every recording site. The
// retry/failure/shed counters are resolved here too so the whole family
// registers together — reports carry zeros instead of omitting them.
struct UpdateMetrics {
  obs::Counter* inserts = obs::GetCounter("simcard.update.inserts");
  obs::Counter* erases = obs::GetCounter("simcard.update.erases");
  obs::Counter* refreshes = obs::GetCounter("simcard.update.refreshes");
  obs::Counter* segments_refreshed =
      obs::GetCounter("simcard.update.segments_refreshed");
  obs::Counter* segments_cloned =
      obs::GetCounter("simcard.update.segments_cloned");
  obs::Counter* epochs_published =
      obs::GetCounter("simcard.update.epochs_published");
  obs::Counter* full_resegs = obs::GetCounter("simcard.update.full_resegs");
  obs::Counter* refresh_failures =
      obs::GetCounter("simcard.update.refresh_failures");
  obs::Counter* delta_shed = obs::GetCounter("simcard.update.delta_shed");
  obs::Counter* retry_scheduled =
      obs::GetCounter("simcard.update.retry.scheduled");
  obs::Counter* retry_exhausted =
      obs::GetCounter("simcard.update.retry.exhausted");
  obs::Gauge* pending = obs::GetGauge("simcard.update.pending_deltas");
  obs::Gauge* degraded = obs::GetGauge("simcard.update.degraded");
  obs::Histogram* refresh_ms = obs::GetHistogram("simcard.update.refresh_ms");
  obs::Histogram* deltas_per_refresh = obs::GetHistogram(
      "simcard.update.deltas_per_refresh",
      obs::Histogram::ExponentialBuckets(1.0, 2.0, 16));
};

UpdateMetrics& Metrics() {
  static UpdateMetrics metrics;
  return metrics;
}

// Deep copy of a Dataset (not copyable directly: it owns a lazy bit-cache).
Dataset CopyDataset(const Dataset& ds) {
  return Dataset(ds.name(), ds.points(), ds.metric(), ds.tau_max());
}

}  // namespace

UpdateManager::UpdateManager(Dataset dataset, SearchWorkload workload,
                             serve::ModelRegistry* registry,
                             UpdateOptions options)
    : dataset_(std::move(dataset)),
      workload_(std::move(workload)),
      registry_(registry),
      options_(options),
      monitor_(options.drift) {
  // Refreshes copy and relabel the workload, and a relabel drops profiles
  // anyway: keep the labels only.
  workload_.train_profiles.clear();
  workload_.test_profiles.clear();
  buffer_.SetCapacity(options_.delta_capacity);
}

Status UpdateManager::Start(const GlEstimator& trained) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  if (trained.segmentation().assignment.size() != dataset_.size()) {
    return Status::InvalidArgument(
        "UpdateManager: estimator was not trained on this dataset epoch");
  }
  // Publish a CLONE so the caller's instance stays theirs to mutate; the
  // registry's copy is immutable from here on.
  auto clone = std::make_shared<GlEstimator>(trained.config());
  std::vector<uint8_t> bytes = trained.SaveToBytes();
  if (bytes.empty()) {
    return Status::FailedPrecondition(
        "UpdateManager: estimator not trained (clone failed)");
  }
  SIMCARD_RETURN_IF_ERROR(clone->LoadFromBytes(std::move(bytes)));

  const uint64_t epoch = registry_->epoch() + 1;
  std::unique_ptr<DeltaJournal> journal;
  if (durable()) {
    // Files first, manifest last: a crash anywhere during Start leaves
    // either no manifest (caller retrains from scratch) or a complete
    // epoch. Acks cannot happen before Start returns, so nothing
    // acknowledged can fall in the gap.
    const std::string& dir = options_.journal_dir;
    SIMCARD_RETURN_IF_ERROR(EnsureDir(dir));
    Serializer wl;
    SerializeQueries(workload_, &wl);
    SIMCARD_RETURN_IF_ERROR(wl.SaveToFile(WorkloadPath(dir)));
    SIMCARD_RETURN_IF_ERROR(PersistEpochArtifacts(epoch, *clone, dataset_));
    auto journal_or = DeltaJournal::Create(JournalPath(dir, epoch),
                                           dataset_.dim(), options_.journal);
    SIMCARD_RETURN_IF_ERROR(journal_or.status());
    journal = std::move(journal_or).value();
    SIMCARD_RETURN_IF_ERROR(
        journal->AppendEpochMark(epoch, dataset_.size()));
    SIMCARD_RETURN_IF_ERROR(journal->Sync());
    DurableManifest manifest;
    manifest.epoch = epoch;
    manifest.base_rows = dataset_.size();
    manifest.dim = dataset_.dim();
    manifest.model_file = "model-" + std::to_string(epoch) + ".bin";
    manifest.dataset_file = "dataset-" + std::to_string(epoch) + ".bin";
    manifest.workload_file = "workload.bin";
    manifest.journal_file = "journal-" + std::to_string(epoch) + ".wal";
    SIMCARD_RETURN_IF_ERROR(SaveManifest(dir, manifest));
    durable_epoch_ = epoch;
  }
  registry_->PublishAt(clone, epoch);
  journal_ = std::move(journal);
  buffer_.Rearm(clone->segmentation(), dataset_.size(), dataset_.dim(),
                dataset_.metric(), journal_.get());
  if (obs::MetricsEnabled()) {
    Metrics().epochs_published->Increment();
  }
  return Status::OK();
}

Status UpdateManager::Insert(std::span<const float> point) {
  if (needs_recovery_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "UpdateManager: durable commit failed; recover via RecoverFrom");
  }
  SIMCARD_RETURN_IF_ERROR(buffer_.Insert(point));
  if (obs::MetricsEnabled()) Metrics().inserts->Increment();
  UpdatePendingGauge();
  return Status::OK();
}

Status UpdateManager::Erase(uint32_t row) {
  if (needs_recovery_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "UpdateManager: durable commit failed; recover via RecoverFrom");
  }
  SIMCARD_RETURN_IF_ERROR(buffer_.Erase(row));
  if (obs::MetricsEnabled()) Metrics().erases->Increment();
  UpdatePendingGauge();
  return Status::OK();
}

void UpdateManager::UpdatePendingGauge() const {
  if (obs::MetricsEnabled()) {
    Metrics().pending->Set(static_cast<double>(buffer_.pending()));
  }
}

Result<RefreshOutcome> UpdateManager::Refresh() { return DoRefresh(false); }

Result<RefreshOutcome> UpdateManager::Tick() { return DoRefresh(true); }

void UpdateManager::SetAccuracySource(const obs::QErrorTracker* tracker) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  accuracy_ = tracker;
}

bool UpdateManager::degraded() const {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  return degraded_;
}

size_t UpdateManager::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  return consecutive_failures_;
}

uint64_t UpdateManager::durable_epoch() const {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  return durable_epoch_;
}

Result<RefreshOutcome> UpdateManager::DoRefresh(bool only_if_due) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  if (needs_recovery_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "UpdateManager: durable commit failed; recover via RecoverFrom");
  }
  // Observed per-segment accuracy (the serving layer's ReportActual
  // windows) joins the delta count as a refresh trigger: query drift can
  // degrade a segment's model without a single pending delta.
  std::vector<obs::ObservedSegmentAccuracy> observed;
  if (accuracy_ != nullptr && options_.drift.stale_observed_qerror > 0.0) {
    observed = accuracy_->PerSegment();
  }
  const bool accuracy_stale = [&] {
    for (const obs::ObservedSegmentAccuracy& acc : observed) {
      if (acc.reports >= options_.drift.min_observed_reports &&
          acc.qerror_p90 >= options_.drift.stale_observed_qerror) {
        return true;
      }
    }
    return false;
  }();
  if (only_if_due) {
    // Circuit: degraded managers stop auto-refreshing (explicit Refresh()
    // still probes and heals); backed-off managers wait out their window.
    if (degraded_) return RefreshOutcome{};
    if (next_retry_ != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() < next_retry_) {
      return RefreshOutcome{};
    }
    const bool deltas_due =
        options_.refresh_delta_threshold > 0 &&
        buffer_.pending() >= options_.refresh_delta_threshold;
    if (!deltas_due && !accuracy_stale) return RefreshOutcome{};
  }
  const serve::ModelSnapshot current = registry_->Current();
  if (current.estimator == nullptr) {
    return Status::FailedPrecondition("UpdateManager: Start() first");
  }
  DeltaSnapshot snap = buffer_.Drain();
  UpdatePendingGauge();
  const size_t pending = snap.overlay.pending();
  if (pending == 0 && !accuracy_stale) return RefreshOutcome{};

  obs::TraceSpan span("update.refresh");
  Stopwatch watch;
  const DriftReport report = monitor_.Assess(
      current.estimator->segmentation(), dataset_, snap,
      std::span<const obs::ObservedSegmentAccuracy>(observed));
  if (obs::MetricsEnabled()) {
    auto& health = obs::SegmentHealthRegistry::Default();
    for (const SegmentDrift& d : report.segments) {
      health.SetDriftScore(d.segment, d.delta_fraction, d.centroid_shift,
                           d.stale);
    }
  }
  ++refresh_count_;
  const uint64_t refresh_seed = options_.seed + 9973 * refresh_count_;
  const uint64_t next_epoch = current.epoch + 1;

  Result<RefreshOutcome> out_or =
      (report.escalate_full_reseg && options_.allow_full_reseg)
          ? FullResegRefresh(current.estimator, next_epoch, snap,
                             refresh_seed)
          : IncrementalRefresh(current.estimator, next_epoch, snap, report,
                               refresh_seed);
  if (!out_or.ok()) {
    OnRefreshFailure(std::move(snap));
    return out_or.status();
  }
  OnRefreshSuccess();
  RefreshOutcome outcome = std::move(out_or).value();
  outcome.refresh_ms = watch.ElapsedMillis();
  UpdatePendingGauge();
  if (obs::MetricsEnabled()) {
    UpdateMetrics& m = Metrics();
    m.refreshes->Increment();
    m.epochs_published->Increment();
    m.segments_refreshed->Add(
        static_cast<int64_t>(outcome.segments_refreshed));
    m.segments_cloned->Add(static_cast<int64_t>(outcome.segments_cloned));
    if (outcome.full_reseg) m.full_resegs->Increment();
    m.refresh_ms->Record(outcome.refresh_ms);
    m.deltas_per_refresh->Record(static_cast<double>(pending));
  }
  return outcome;
}

void UpdateManager::OnRefreshFailure(DeltaSnapshot snap) {
  // Nothing the refresh touched was committed (it worked on copies), so
  // restaging the drained snapshot restores exactly the pre-refresh state:
  // every acknowledged delta is pending again. A manager that instead
  // failed mid-commit is quarantined via needs_recovery_ before reaching
  // here and keeps the snapshot out of the buffer (the journal still has
  // it — recovery replays).
  if (!needs_recovery_.load(std::memory_order_relaxed)) {
    buffer_.Restage(std::move(snap));
  }
  UpdatePendingGauge();
  ++consecutive_failures_;
  const bool metrics = obs::MetricsEnabled();
  if (metrics) Metrics().refresh_failures->Increment();
  // Exponential backoff with deterministic jitter: the n-th consecutive
  // failure waits base*2^(n-1) ms (clamped), scaled by [0.5, 1.5).
  double backoff_ms =
      options_.refresh_backoff_base_ms *
      std::pow(2.0, static_cast<double>(consecutive_failures_ - 1));
  backoff_ms = std::min(backoff_ms, options_.refresh_backoff_max_ms);
  Rng jitter(options_.seed ^ (0x9E3779B97F4A7C15ULL *
                              static_cast<uint64_t>(consecutive_failures_)));
  backoff_ms *= 0.5 + jitter.NextDouble();
  next_retry_ = std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<int64_t>(backoff_ms * 1000.0));
  if (consecutive_failures_ > options_.refresh_retry_budget) {
    if (!degraded_ && metrics) Metrics().retry_exhausted->Increment();
    degraded_ = true;
    obs::SegmentHealthRegistry::Default().SetUpdateDegraded(true);
    if (metrics) Metrics().degraded->Set(1.0);
  } else if (metrics) {
    Metrics().retry_scheduled->Increment();
  }
}

void UpdateManager::OnRefreshSuccess() {
  consecutive_failures_ = 0;
  next_retry_ = std::chrono::steady_clock::time_point{};
  if (degraded_) {
    degraded_ = false;
    obs::SegmentHealthRegistry::Default().SetUpdateDegraded(false);
    if (obs::MetricsEnabled()) Metrics().degraded->Set(0.0);
  }
}

Status UpdateManager::PersistEpochArtifacts(uint64_t epoch,
                                            const GlEstimator& model,
                                            const Dataset& dataset) const {
  if (fault::ShouldFail(kRefreshIoSite)) {
    return fault::InjectedError(kRefreshIoSite);
  }
  Serializer ds;
  dataset.Serialize(&ds);
  SIMCARD_RETURN_IF_ERROR(
      ds.SaveToFile(DatasetPath(options_.journal_dir, epoch)));
  SIMCARD_RETURN_IF_ERROR(
      model.SaveToFile(ModelPath(options_.journal_dir, epoch)));
  return Status::OK();
}

Status UpdateManager::CommitRefresh(std::shared_ptr<GlEstimator> next,
                                    Dataset new_dataset,
                                    SearchWorkload new_workload,
                                    uint64_t next_epoch,
                                    const std::vector<uint32_t>& remap,
                                    std::shared_ptr<const serve::PublishInfo>
                                        info,
                                    RefreshOutcome* outcome) {
  const std::string& dir = options_.journal_dir;
  std::unique_ptr<DeltaJournal> new_journal;
  if (durable()) {
    // Fallible persistence first, while everything in memory is still the
    // old epoch: a failure here aborts the refresh cleanly (the caller
    // restages the drained snapshot) and quarantines the partial files.
    Status persisted = PersistEpochArtifacts(next_epoch, *next, new_dataset);
    if (persisted.ok()) {
      auto journal_or = DeltaJournal::Create(JournalPath(dir, next_epoch),
                                             new_dataset.dim(),
                                             options_.journal);
      if (journal_or.ok()) {
        new_journal = std::move(journal_or).value();
        persisted = new_journal->AppendEpochMark(next_epoch,
                                                 new_dataset.size());
        if (persisted.ok()) persisted = new_journal->Sync();
      } else {
        persisted = journal_or.status();
      }
    }
    if (!persisted.ok()) {
      QuarantineEpochArtifacts(dir, next_epoch);
      return persisted;
    }
  }

  // Point of no return: infallible in-memory swaps, then the manifest
  // rename inside the buffer's critical section (see RearmAfterRefresh's
  // durable_commit contract — it makes the journal handoff atomic against
  // concurrent acks).
  dataset_ = std::move(new_dataset);
  workload_ = std::move(new_workload);
  const uint64_t old_epoch = durable_epoch_;
  std::function<Status()> commit;
  if (durable()) {
    commit = [this, next_epoch] {
      DurableManifest manifest;
      manifest.epoch = next_epoch;
      manifest.base_rows = dataset_.size();
      manifest.dim = dataset_.dim();
      manifest.model_file = "model-" + std::to_string(next_epoch) + ".bin";
      manifest.dataset_file =
          "dataset-" + std::to_string(next_epoch) + ".bin";
      manifest.workload_file = "workload.bin";
      manifest.journal_file =
          "journal-" + std::to_string(next_epoch) + ".wal";
      return SaveManifest(options_.journal_dir, manifest);
    };
  }
  const Status rearmed = buffer_.RearmAfterRefresh(
      next->segmentation(), dataset_.size(), dataset_.dim(),
      dataset_.metric(), remap, new_journal.get(), commit);
  if (!rearmed.ok()) {
    // Disk (old manifest) and memory (new dataset, rearmed buffer) now
    // disagree. Served traffic continues on the old model; everything
    // acknowledged sits in the old journal, so RecoverFrom restores a
    // consistent old-epoch state with zero loss. Until then this manager
    // refuses new work.
    buffer_.AttachJournal(nullptr);  // new_journal dies with this frame
    needs_recovery_.store(true, std::memory_order_relaxed);
    obs::SegmentHealthRegistry::Default().SetUpdateDegraded(true);
    if (obs::MetricsEnabled()) Metrics().degraded->Set(1.0);
    QuarantineEpochArtifacts(dir, next_epoch);
    return rearmed;
  }
  journal_ = std::move(new_journal);  // closes the old epoch's journal
  if (durable()) durable_epoch_ = next_epoch;
  outcome->epoch =
      registry_->PublishAt(std::move(next), next_epoch, std::move(info));
  if (durable() && old_epoch != 0 && old_epoch != next_epoch) {
    RemoveEpochArtifacts(dir, old_epoch);
  }
  return Status::OK();
}

Result<RefreshOutcome> UpdateManager::IncrementalRefresh(
    const std::shared_ptr<const GlEstimator>& current, uint64_t next_epoch,
    const DeltaSnapshot& snap, const DriftReport& report,
    uint64_t refresh_seed) {
  RefreshOutcome outcome;
  outcome.refreshed = true;
  outcome.applied_inserts = snap.overlay.num_inserts();
  outcome.applied_erases = snap.overlay.num_erases();
  outcome.stale_segments = report.stale_segments;

  // Build the successor entirely off to the side — clone of the model AND
  // working copies of the dataset/workload — so a failure at any fallible
  // step below leaves the served epoch byte-identical and the drained
  // snapshot restageable. Readers keep answering from `current` until the
  // single Publish in CommitRefresh.
  auto clone = std::make_shared<GlEstimator>(current->config());
  std::vector<uint8_t> bytes = current->SaveToBytes();
  if (bytes.empty()) {
    return Status::Internal("UpdateManager: published model failed to clone");
  }
  SIMCARD_RETURN_IF_ERROR(clone->LoadFromBytes(std::move(bytes)));
  Dataset new_dataset = CopyDataset(dataset_);
  SearchWorkload new_workload = workload_;

  std::vector<size_t> touched;
  const std::vector<uint32_t> sorted = snap.overlay.SortedErases();
  const std::vector<uint32_t> remap =
      BuildEraseRemap(new_dataset.size(), sorted);
  if (!sorted.empty()) {
    new_dataset.EraseRows(sorted);
    SIMCARD_RETURN_IF_ERROR(clone->EraseRows(new_dataset, sorted, &touched,
                                             /*recompute_summaries=*/true));
  }
  if (snap.overlay.num_inserts() > 0) {
    const size_t first_new = new_dataset.size();
    new_dataset.Append(snap.overlay.InsertMatrix());
    std::vector<uint32_t> new_rows(snap.overlay.num_inserts());
    for (size_t i = 0; i < new_rows.size(); ++i) {
      new_rows[i] = static_cast<uint32_t>(first_new + i);
    }
    SIMCARD_RETURN_IF_ERROR(clone->RouteInserts(new_dataset, new_rows,
                                                &touched));
  }
  // Membership changed in every touched segment: re-sample fallbacks and
  // refresh the |D^[i]| clamps before anything answers from them.
  clone->RebuildFallbacks(new_dataset, touched, refresh_seed);

  // Relabel (x_q, x_tau, x_C) examples against the updated dataset, then
  // fine-tune only what the monitor flagged stale; the rest of the local
  // models ride along as byte-identical clones. An accuracy-only refresh
  // (zero deltas, observed q-error crossed the threshold) leaves the data
  // and therefore the labels untouched — skip straight to the fine-tune.
  if (snap.overlay.pending() > 0) {
    SIMCARD_RETURN_IF_ERROR(
        RelabelWorkload(new_dataset, &clone->segmentation(), &new_workload));
  }
  if (fault::ShouldFail(kRefreshFineTuneSite)) {
    return fault::InjectedError(kRefreshFineTuneSite);
  }
  SIMCARD_RETURN_IF_ERROR(clone->FineTuneSegments(new_workload,
                                                  report.stale_segments,
                                                  refresh_seed,
                                                  options_.fine_tune_epochs));
  SIMCARD_RETURN_IF_ERROR(clone->FineTuneGlobal(new_workload,
                                                refresh_seed + 29,
                                                options_.fine_tune_epochs));

  outcome.segments_refreshed = report.stale_segments.size();
  outcome.segments_cloned =
      clone->num_local_models() - outcome.segments_refreshed;
  // An incremental refresh only invalidates the segments whose membership
  // or local model changed: feedback corrections for untouched segments
  // stay valid under the new epoch (their locals were cloned verbatim).
  auto info = std::make_shared<serve::PublishInfo>();
  info->full_remap = false;
  {
    std::set<size_t> refreshed(touched.begin(), touched.end());
    refreshed.insert(report.stale_segments.begin(),
                     report.stale_segments.end());
    info->refreshed_segments.assign(refreshed.begin(), refreshed.end());
  }
  SIMCARD_RETURN_IF_ERROR(CommitRefresh(std::move(clone),
                                        std::move(new_dataset),
                                        std::move(new_workload), next_epoch,
                                        remap, std::move(info), &outcome));
  return outcome;
}

Result<RefreshOutcome> UpdateManager::FullResegRefresh(
    const std::shared_ptr<const GlEstimator>& current, uint64_t next_epoch,
    const DeltaSnapshot& snap, uint64_t refresh_seed) {
  RefreshOutcome outcome;
  outcome.refreshed = true;
  outcome.full_reseg = true;
  outcome.applied_inserts = snap.overlay.num_inserts();
  outcome.applied_erases = snap.overlay.num_erases();

  Dataset new_dataset = CopyDataset(dataset_);
  SearchWorkload new_workload = workload_;
  auto app_or = snap.overlay.ApplyTo(&new_dataset);
  if (!app_or.ok()) return app_or.status();

  // Drift exceeded the ceiling: the old partition no longer describes the
  // data, so redo PCA + K-means and train a fresh estimator on it.
  SegmentationOptions sopts = options_.reseg;
  if (sopts.target_segments == 0) {
    sopts.target_segments = current->segmentation().num_segments();
  }
  sopts.seed = refresh_seed + 5;
  auto seg_or = SegmentData(new_dataset, sopts);
  if (!seg_or.ok()) return seg_or.status();
  const Segmentation seg = std::move(seg_or).value();
  SIMCARD_RETURN_IF_ERROR(RelabelWorkload(new_dataset, &seg, &new_workload));

  if (fault::ShouldFail(kRefreshFineTuneSite)) {
    return fault::InjectedError(kRefreshFineTuneSite);
  }
  auto fresh = std::make_shared<GlEstimator>(current->config());
  TrainContext ctx;
  ctx.dataset = &new_dataset;
  ctx.workload = &new_workload;
  ctx.segmentation = &seg;
  ctx.seed = refresh_seed;
  SIMCARD_RETURN_IF_ERROR(fresh->Train(ctx));

  outcome.segments_refreshed = fresh->num_local_models();
  // The partition itself changed: every epoch-keyed consumer must drop its
  // derived state (a null info would mean the same; be explicit here).
  auto info = std::make_shared<serve::PublishInfo>();
  info->full_remap = true;
  SIMCARD_RETURN_IF_ERROR(CommitRefresh(std::move(fresh),
                                        std::move(new_dataset),
                                        std::move(new_workload), next_epoch,
                                        app_or.value().remap, std::move(info),
                                        &outcome));
  return outcome;
}

}  // namespace update
}  // namespace simcard
