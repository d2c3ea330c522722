// Crash recovery for the durable update subsystem.
//
// Durable layout under UpdateOptions::journal_dir:
//
//   MANIFEST            commit point: which epoch's files are authoritative
//   workload.bin        query objects + taus (written once at Start; labels
//                       are rebuilt by RelabelWorkload, profiles not kept)
//   model-<E>.bin       GlEstimator checked container for epoch E
//   dataset-<E>.bin     the authoritative dataset at epoch E
//   journal-<E>.wal     every delta acknowledged while E was served
//
// The MANIFEST is a small CRC-tailed record written tmp+rename (the same
// atomic-save discipline as model files), so a crash anywhere leaves either
// the previous manifest or the new one — never a torn mix. Recovery =
// read MANIFEST, load that epoch's model/dataset, relabel the workload
// queries against it, replay the journal's longest valid prefix into a
// fresh DeltaBuffer, truncate any torn tail, resume serving at the
// manifest epoch via ModelRegistry::PublishAt.
//
// Why replay is loss-free: an Insert/Erase only returns OK after the
// record hit its epoch's journal, and the journal a manifest points at
// always contains every delta acknowledged since that manifest committed
// (mid-refresh deltas are re-journaled into the successor file BEFORE the
// successor manifest renames — see DeltaBuffer::RearmAfterRefresh's
// durable_commit hook). Replay is at-least-once: a delta drained by a
// refresh that crashed before its manifest commit is applied again.
//
// Metrics (simcard.update.recovery.*): attempts, successes,
// replayed_inserts, replayed_erases, truncated_tails, quarantined.
#ifndef SIMCARD_UPDATE_RECOVERY_H_
#define SIMCARD_UPDATE_RECOVERY_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace simcard {
namespace update {

/// \brief The committed-epoch record at <journal_dir>/MANIFEST.
struct DurableManifest {
  uint64_t epoch = 0;
  uint64_t base_rows = 0;  ///< dataset rows at the epoch boundary
  uint64_t dim = 0;
  std::string model_file;     ///< names relative to the journal dir
  std::string dataset_file;
  std::string workload_file;
  std::string journal_file;
};

/// Path helpers for the durable layout (all under `dir`).
std::string ManifestPath(const std::string& dir);
std::string ModelPath(const std::string& dir, uint64_t epoch);
std::string DatasetPath(const std::string& dir, uint64_t epoch);
std::string WorkloadPath(const std::string& dir);
std::string JournalPath(const std::string& dir, uint64_t epoch);

/// Creates `dir` (and parents) if missing.
Status EnsureDir(const std::string& dir);

/// Writes the manifest atomically (tmp+rename, CRC-tailed).
Status SaveManifest(const std::string& dir, const DurableManifest& manifest);

/// Reads and validates <dir>/MANIFEST. NotFound when no manifest was ever
/// committed (fresh directory); IoError on a corrupt one.
Result<DurableManifest> LoadManifest(const std::string& dir);

/// Renames epoch `epoch`'s model/dataset/journal files to
/// "<name>.quarantine" so partially-written artifacts of a failed refresh
/// never shadow a later attempt at the same epoch number. Best-effort
/// (missing files are fine); counts simcard.update.recovery.quarantined
/// per file moved.
void QuarantineEpochArtifacts(const std::string& dir, uint64_t epoch);

/// Deletes epoch `epoch`'s model/dataset/journal files (best-effort GC of
/// a superseded epoch after its successor's manifest committed).
void RemoveEpochArtifacts(const std::string& dir, uint64_t epoch);

}  // namespace update
}  // namespace simcard

#endif  // SIMCARD_UPDATE_RECOVERY_H_
