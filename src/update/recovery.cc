#include "update/recovery.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/serialize.h"
#include "obs/metrics.h"
#include "obs/segment_health.h"
#include "update/delta_journal.h"
#include "update/update_manager.h"

namespace simcard {
namespace update {
namespace {

constexpr char kManifestMagic[8] = {'S', 'I', 'M', 'C', 'M', 'A', 'N', '1'};
constexpr uint32_t kManifestVersion = 1;

struct RecoveryMetrics {
  obs::Counter* attempts = obs::GetCounter("simcard.update.recovery.attempts");
  obs::Counter* successes =
      obs::GetCounter("simcard.update.recovery.successes");
  obs::Counter* replayed_inserts =
      obs::GetCounter("simcard.update.recovery.replayed_inserts");
  obs::Counter* replayed_erases =
      obs::GetCounter("simcard.update.recovery.replayed_erases");
  obs::Counter* truncated_tails =
      obs::GetCounter("simcard.update.recovery.truncated_tails");
  obs::Counter* quarantined =
      obs::GetCounter("simcard.update.recovery.quarantined");
  static RecoveryMetrics& Get() {
    static RecoveryMetrics m;
    return m;
  }
};

std::string EpochFile(const std::string& stem, uint64_t epoch,
                      const std::string& ext) {
  return stem + "-" + std::to_string(epoch) + ext;
}

void QuarantineFile(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return;
  if (std::rename(path.c_str(), (path + ".quarantine").c_str()) == 0) {
    if (obs::MetricsEnabled()) RecoveryMetrics::Get().quarantined->Increment();
  }
}

}  // namespace

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string ModelPath(const std::string& dir, uint64_t epoch) {
  return dir + "/" + EpochFile("model", epoch, ".bin");
}

std::string DatasetPath(const std::string& dir, uint64_t epoch) {
  return dir + "/" + EpochFile("dataset", epoch, ".bin");
}

std::string WorkloadPath(const std::string& dir) {
  return dir + "/workload.bin";
}

std::string JournalPath(const std::string& dir, uint64_t epoch) {
  return dir + "/" + EpochFile("journal", epoch, ".wal");
}

Status EnsureDir(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("empty durable dir");
  // mkdir -p: create each prefix, tolerating already-exists.
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir " + prefix + ": " +
                             std::string(std::strerror(errno)));
    }
  }
  return Status::OK();
}

Status SaveManifest(const std::string& dir, const DurableManifest& manifest) {
  Serializer body;
  body.WriteRawBytes(kManifestMagic, sizeof(kManifestMagic));
  body.WriteU32(kManifestVersion);
  body.WriteU64(manifest.epoch);
  body.WriteU64(manifest.base_rows);
  body.WriteU64(manifest.dim);
  body.WriteString(manifest.model_file);
  body.WriteString(manifest.dataset_file);
  body.WriteString(manifest.workload_file);
  body.WriteString(manifest.journal_file);
  Serializer out;
  out.WriteRawBytes(body.bytes().data(), body.bytes().size());
  out.WriteU32(Crc32(body.bytes().data(), body.bytes().size()));
  return out.SaveToFile(ManifestPath(dir));
}

Result<DurableManifest> LoadManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("no manifest at " + path);
  }
  auto bytes_or = ReadFileBytes(path);
  SIMCARD_RETURN_IF_ERROR(bytes_or.status());
  std::vector<uint8_t> bytes = std::move(bytes_or).value();
  if (bytes.size() < sizeof(kManifestMagic) + 4 + 4 ||
      std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::IoError("manifest magic mismatch: " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::IoError("manifest CRC mismatch: " + path);
  }
  bytes.resize(bytes.size() - 4);
  Deserializer in(std::move(bytes));
  uint8_t magic[sizeof(kManifestMagic)];
  SIMCARD_RETURN_IF_ERROR(in.ReadRawBytes(magic, sizeof(magic)));
  uint32_t version = 0;
  SIMCARD_RETURN_IF_ERROR(in.ReadU32(&version));
  if (version != kManifestVersion) {
    return Status::IoError("unsupported manifest version " +
                           std::to_string(version));
  }
  DurableManifest m;
  SIMCARD_RETURN_IF_ERROR(in.ReadU64(&m.epoch));
  SIMCARD_RETURN_IF_ERROR(in.ReadU64(&m.base_rows));
  SIMCARD_RETURN_IF_ERROR(in.ReadU64(&m.dim));
  SIMCARD_RETURN_IF_ERROR(in.ReadString(&m.model_file));
  SIMCARD_RETURN_IF_ERROR(in.ReadString(&m.dataset_file));
  SIMCARD_RETURN_IF_ERROR(in.ReadString(&m.workload_file));
  SIMCARD_RETURN_IF_ERROR(in.ReadString(&m.journal_file));
  return m;
}

void QuarantineEpochArtifacts(const std::string& dir, uint64_t epoch) {
  QuarantineFile(ModelPath(dir, epoch));
  QuarantineFile(DatasetPath(dir, epoch));
  QuarantineFile(JournalPath(dir, epoch));
}

void RemoveEpochArtifacts(const std::string& dir, uint64_t epoch) {
  std::remove(ModelPath(dir, epoch).c_str());
  std::remove(DatasetPath(dir, epoch).c_str());
  std::remove(JournalPath(dir, epoch).c_str());
}

Result<std::unique_ptr<UpdateManager>> UpdateManager::RecoverFrom(
    serve::ModelRegistry* registry, UpdateOptions options,
    const GlEstimatorConfig* config) {
  if (options.journal_dir.empty()) {
    return Status::InvalidArgument(
        "RecoverFrom: options.journal_dir must name the durable directory");
  }
  if (obs::MetricsEnabled()) RecoveryMetrics::Get().attempts->Increment();
  const std::string& dir = options.journal_dir;

  auto manifest_or = LoadManifest(dir);
  SIMCARD_RETURN_IF_ERROR(manifest_or.status());
  const DurableManifest manifest = std::move(manifest_or).value();

  // Authoritative dataset at the manifest epoch.
  auto ds_in_or = Deserializer::FromFile(dir + "/" + manifest.dataset_file);
  SIMCARD_RETURN_IF_ERROR(ds_in_or.status());
  Deserializer ds_in = std::move(ds_in_or).value();
  auto dataset_or = Dataset::Deserialize(&ds_in);
  SIMCARD_RETURN_IF_ERROR(dataset_or.status());
  Dataset dataset = std::move(dataset_or).value();
  if (dataset.size() != manifest.base_rows || dataset.dim() != manifest.dim) {
    return Status::IoError("recovered dataset shape disagrees with manifest");
  }

  // Model: the checked container detects truncation/corruption itself.
  auto model = std::make_shared<GlEstimator>(
      config != nullptr ? *config : GlEstimatorConfig::GlCnn());
  SIMCARD_RETURN_IF_ERROR(
      model->LoadFromFile(dir + "/" + manifest.model_file));
  if (model->segmentation().assignment.size() != dataset.size()) {
    return Status::IoError(
        "recovered model segmentation disagrees with dataset epoch");
  }

  // Workload: queries + taus persist; labels are derived, so rebuild them
  // against the recovered dataset/segmentation.
  auto wl_in_or = Deserializer::FromFile(dir + "/" + manifest.workload_file);
  SIMCARD_RETURN_IF_ERROR(wl_in_or.status());
  Deserializer wl_in = std::move(wl_in_or).value();
  auto workload_or = DeserializeQueries(&wl_in);
  SIMCARD_RETURN_IF_ERROR(workload_or.status());
  SearchWorkload workload = std::move(workload_or).value();
  SIMCARD_RETURN_IF_ERROR(
      RelabelWorkload(dataset, &model->segmentation(), &workload));

  // Journal: longest valid prefix re-stages; the torn tail (if any) is
  // truncated off when the file re-opens for append.
  const std::string journal_path = dir + "/" + manifest.journal_file;
  auto replay_or = DeltaJournal::Replay(journal_path);
  SIMCARD_RETURN_IF_ERROR(replay_or.status());
  const DeltaJournal::ReplayResult replay = std::move(replay_or).value();
  // A header dim that disagrees with the manifest is corruption: its inserts
  // read as a torn tail, and OpenForAppend below would truncate them away.
  if (replay.dim != manifest.dim) {
    return Status::IoError("journal header dim " + std::to_string(replay.dim) +
                           " disagrees with manifest dim " +
                           std::to_string(manifest.dim) + ": " + journal_path);
  }
  if (replay.tail_truncated && obs::MetricsEnabled()) {
    RecoveryMetrics::Get().truncated_tails->Increment();
  }

  auto manager = std::unique_ptr<UpdateManager>(new UpdateManager(
      std::move(dataset), std::move(workload), registry, options));
  // Serve the recovered epoch before accepting deltas; PublishAt keeps the
  // durable epoch sequence monotone across the restart.
  registry->PublishAt(model, manifest.epoch);
  manager->durable_epoch_ = manifest.epoch;

  // Re-stage the journaled deltas journal-free (they are already durable),
  // then attach the re-opened journal for new acks. The capacity bound is
  // lifted for the replay (the constructor installed it): every journaled
  // delta was acknowledged before the crash, so it must re-stage even when
  // the journal holds more than options.delta_capacity records.
  manager->buffer_.SetCapacity(0);
  manager->buffer_.Rearm(model->segmentation(), manager->dataset_.size(),
                         manager->dataset_.dim(), manager->dataset_.metric(),
                         /*journal=*/nullptr);
  uint64_t inserts = 0;
  uint64_t erases = 0;
  for (const JournalRecord& rec : replay.records) {
    switch (rec.type) {
      case JournalRecordType::kEpochMark:
        if (rec.epoch != manifest.epoch ||
            rec.base_rows != manifest.base_rows) {
          return Status::IoError(
              "journal epoch mark disagrees with manifest");
        }
        break;
      case JournalRecordType::kInsert: {
        SIMCARD_RETURN_IF_ERROR(manager->buffer_.Insert(
            std::span<const float>(rec.point.data(), rec.point.size())));
        ++inserts;
        break;
      }
      case JournalRecordType::kErase: {
        // At-least-once journaling can hold a duplicate erase (carried
        // deltas re-journal translated rows); the first staging wins.
        const Status st = manager->buffer_.Erase(rec.row);
        if (st.ok()) ++erases;
        break;
      }
    }
  }
  auto journal_or = DeltaJournal::OpenForAppend(
      journal_path, manifest.dim, replay.valid_bytes, options.journal);
  SIMCARD_RETURN_IF_ERROR(journal_or.status());
  manager->journal_ = std::move(journal_or).value();
  manager->buffer_.AttachJournal(manager->journal_.get());
  // The capacity bound applies to NEW ingestion only — every replayed
  // delta was acknowledged before the crash and must re-stage.
  manager->buffer_.SetCapacity(options.delta_capacity);

  // A recovered manager starts healthy: the degraded state that may have
  // preceded the crash is cleared by the successful recovery.
  obs::SegmentHealthRegistry::Default().SetUpdateDegraded(false);
  if (obs::MetricsEnabled()) {
    RecoveryMetrics::Get().successes->Increment();
    RecoveryMetrics::Get().replayed_inserts->Add(
        static_cast<int64_t>(inserts));
    RecoveryMetrics::Get().replayed_erases->Add(static_cast<int64_t>(erases));
    obs::GetGauge("simcard.update.degraded")->Set(0.0);
  }
  return manager;
}

}  // namespace update
}  // namespace simcard
