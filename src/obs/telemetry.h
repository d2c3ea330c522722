// Background telemetry export: periodic snapshots of the MetricsRegistry,
// the SegmentHealthRegistry, and the (optional) QErrorTracker into
// rotating JSON files plus Prometheus text exposition.
//
// Snapshot document ("simcard.telemetry.v1"):
//   {
//     "schema": "simcard.telemetry.v1",
//     "meta": {"timestamp_utc": ..., "seq": N, "interval_ms": ...},
//     "metrics": <a full simcard.metrics.v1 document>,
//     "segment_health": [ {segment, evals, fallbacks, fallback_rate,
//                          breaker_state, quarantined, drift_*,
//                          delta_backlog}, ... ],
//     "accuracy": {window, total_reports, overall, by_tau, by_segment},
//     "feedback": [ {shard, enabled, store_size, capacity, epoch, lookups,
//                    corrected, miss, guard_clamped, reports, stale_reports,
//                    evicted, invalidated}, ... ]   (only when a feedback
//                    source is registered via SetFeedbackSource)
//   }
//
// Files: `<dir>/<basename>-<seq>.json` (rotating; the oldest beyond
// max_snapshots is deleted), `<dir>/<basename>-latest.json` (always the
// newest), and `<dir>/<basename>.prom` (Prometheus text exposition v0.0.4,
// overwritten each snapshot). DumpNow() writes one snapshot synchronously
// — the CLI's `telemetry-dump` path — and works without Start().
//
// Overhead: the exporter thread wakes every interval_ms; serving threads
// are never blocked by it (every registry read is atomics or a short
// mutex). Its cost to served QPS is not measured.
#ifndef SIMCARD_OBS_TELEMETRY_H_
#define SIMCARD_OBS_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/json.h"
#include "obs/qerror_tracker.h"

namespace simcard {
namespace obs {

/// \brief Exporter knobs.
struct TelemetryOptions {
  std::string dir = ".";                ///< output directory (must exist)
  std::string basename = "telemetry";   ///< file stem
  double interval_ms = 1000.0;          ///< background snapshot period
  size_t max_snapshots = 8;             ///< rotation depth (0 = unbounded)
  bool write_prometheus = true;         ///< also write <basename>.prom
};

/// \brief Periodic snapshot writer. One instance per process is typical.
///
/// Thread-safe: Start/Stop/DumpNow from any thread; the background thread
/// is joined by Stop() (and by the destructor).
class TelemetryExporter {
 public:
  /// `accuracy` may be null (the snapshot then has an empty "accuracy"
  /// section); if non-null it must outlive the exporter.
  explicit TelemetryExporter(TelemetryOptions options,
                             const QErrorTracker* accuracy = nullptr);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Spawns the background thread. FailedPrecondition if already running.
  Status Start();

  /// Stops and joins the background thread. Idempotent.
  void Stop();

  /// Writes one snapshot (and the .prom file) immediately.
  Status DumpNow();

  /// Registers a producer of per-store feedback rows (an array of objects;
  /// see feedback::FeedbackManager::TelemetryRow). When set, snapshots gain
  /// a "feedback" section. The callable is invoked from the exporter thread
  /// and DumpNow() callers, so it must be thread-safe; pass nullptr (or an
  /// empty function) to detach. Call before Start() or between snapshots.
  void SetFeedbackSource(std::function<JsonValue()> source);

  /// The snapshot document, without writing anything.
  JsonValue SnapshotJson() const;

  /// Prometheus text exposition of the current metrics + segment health +
  /// accuracy windows.
  std::string PrometheusText() const;

  uint64_t snapshots_written() const {
    return snapshots_written_.load(std::memory_order_relaxed);
  }
  bool running() const { return running_.load(std::memory_order_relaxed); }
  const TelemetryOptions& options() const { return options_; }

 private:
  void RunLoop();
  Status WriteSnapshot();
  std::string PathFor(const std::string& leaf) const;

  TelemetryOptions options_;
  const QErrorTracker* accuracy_;
  /// Guarded by feedback_mu_ (snapshots may race SetFeedbackSource).
  mutable std::mutex feedback_mu_;
  std::function<JsonValue()> feedback_source_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> snapshots_written_{0};
  uint64_t next_seq_ = 0;  // guarded by mu_

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  // guarded by mu_
  std::thread worker_;
};

}  // namespace obs
}  // namespace simcard

#endif  // SIMCARD_OBS_TELEMETRY_H_
