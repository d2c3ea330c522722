// Per-epoch training callbacks.
//
// Training loops report progress through NotifyTrainEpoch/NotifyTrainEnd:
// the one epoch loop behind TrainCardModel and TrainGlobalModel
// (core/train_loop.h; the QES tuner's trial fits run it too) and
// MiniBatchKMeans. Two consumers exist:
//
//  * registered TrainingObserver implementations (progress bars, early
//    aborts, experiment sweeps) — always called;
//  * the default MetricsRegistry — when MetricsEnabled(), each epoch
//    appends to the time series "train.<tag>.loss" and records the epoch
//    wall time in the histogram "train.epoch_us", so a run report carries
//    full loss trajectories (the Figure 14 training-time breakdown).
//
// Tags name the model instance: "local.<segment>", "global", "kmeans", ...
// Loops pass an empty tag to stay silent (e.g. tuner trial fits, which
// would flood the report with dozens of short throwaway series).
//
// GlEstimator::Train fits its global and local models concurrently, so
// callbacks for different tags may arrive at the same time from different
// threads; one tag's callbacks always arrive in order, from one thread.
// Observers must therefore be safe to call concurrently.
#ifndef SIMCARD_OBS_TRAINING_OBSERVER_H_
#define SIMCARD_OBS_TRAINING_OBSERVER_H_

#include <cstddef>
#include <string>

namespace simcard {
namespace obs {

/// \brief Interface for per-epoch training progress consumers.
class TrainingObserver {
 public:
  virtual ~TrainingObserver() = default;

  /// Called after every epoch with the mean epoch loss and epoch wall time.
  virtual void OnEpochEnd(const std::string& tag, size_t epoch, double loss,
                          double seconds) = 0;

  /// Called once when the loop finishes (early stop included).
  virtual void OnTrainEnd(const std::string& tag, size_t epochs_run,
                          double final_loss, double total_seconds) {
    (void)tag;
    (void)epochs_run;
    (void)final_loss;
    (void)total_seconds;
  }

  /// Called when the divergence watchdog fires: epoch `epoch` produced a
  /// NaN/exploding loss `loss`, the model was rolled back to its last good
  /// checkpoint, and training resumes at `next_lr` (retry number `retry`,
  /// 1-based). Not called for the terminal give-up — the loop returns a
  /// Status for that.
  virtual void OnDivergence(const std::string& tag, size_t epoch, double loss,
                            size_t retry, float next_lr) {
    (void)tag;
    (void)epoch;
    (void)loss;
    (void)retry;
    (void)next_lr;
  }
};

/// Registers/unregisters a process-wide observer (borrowed pointer; must
/// outlive its registration). Thread-safe.
void AddTrainingObserver(TrainingObserver* observer);
void RemoveTrainingObserver(TrainingObserver* observer);

/// Dispatch helpers called by the training loops. No-ops for empty tags
/// (except NotifyDivergence, whose watchdog counters always record).
void NotifyTrainEpoch(const std::string& tag, size_t epoch, double loss,
                      double seconds);
void NotifyTrainEnd(const std::string& tag, size_t epochs_run,
                    double final_loss, double total_seconds);
void NotifyDivergence(const std::string& tag, size_t epoch, double loss,
                      size_t retry, float next_lr);

}  // namespace obs
}  // namespace simcard

#endif  // SIMCARD_OBS_TRAINING_OBSERVER_H_
