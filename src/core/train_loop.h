// The training loop shared by TrainCardModel (Algorithm 1) and
// TrainGlobalModel (Algorithm 2).
//
// A local model F and the global model G are one network (CardModel; G is
// built with num_segments outputs), so their training differs only in batch
// assembly and loss. Everything else lives here once: the input
// standardization fit and the epoch loop (shuffle, Adam, gradient
// clipping, the `train.nan_loss` fault site, the divergence watchdog's
// rollback and exhaustion, early stopping, and the observer callbacks).
#ifndef SIMCARD_CORE_TRAIN_LOOP_H_
#define SIMCARD_CORE_TRAIN_LOOP_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/train_watchdog.h"
#include "nn/optimizer.h"
#include "obs/training_observer.h"
#include "tensor/matrix.h"
#include "workload/labels.h"

namespace simcard {

/// Fits a model's input standardization (CardModel::SetInputNormalization):
/// tau over `samples`, and each column of `aux` over all of its rows. A null
/// `aux` leaves the aux features unstandardized.
template <typename Model>
void FitInputNormalization(Model* model, const std::vector<SampleRef>& samples,
                           const Matrix* aux) {
  // {shift, scale} = {mean, stddev} of n values from their sum and sum of
  // squares.
  const auto fit = [](double sum, double sq, size_t n) {
    const double mean = sum / static_cast<double>(n);
    const double var =
        std::max(0.0, sq / static_cast<double>(n) - mean * mean);
    return std::pair<float, float>(static_cast<float>(mean),
                                   static_cast<float>(std::sqrt(var)));
  };
  double tau_sum = 0.0;
  double tau_sq = 0.0;
  for (const auto& s : samples) {
    tau_sum += s.tau;
    tau_sq += static_cast<double>(s.tau) * s.tau;
  }
  const auto [tau_shift, tau_scale] = fit(tau_sum, tau_sq, samples.size());
  std::vector<float> aux_shift;
  std::vector<float> aux_scale;
  if (aux != nullptr) {
    const size_t cols = aux->cols();
    std::vector<double> sum(cols, 0.0);
    std::vector<double> sq(cols, 0.0);
    for (size_t r = 0; r < aux->rows(); ++r) {
      const float* row = aux->Row(r);
      for (size_t c = 0; c < cols; ++c) {
        sum[c] += row[c];
        sq[c] += static_cast<double>(row[c]) * row[c];
      }
    }
    aux_shift.resize(cols);
    aux_scale.resize(cols);
    for (size_t c = 0; c < cols; ++c) {
      std::tie(aux_shift[c], aux_scale[c]) = fit(sum[c], sq[c], aux->rows());
    }
  }
  model->SetInputNormalization(tau_shift, tau_scale, std::move(aux_shift),
                               std::move(aux_scale));
}

/// Trains for up to `options.epochs` epochs (`Options` is CardTrainOptions
/// or GlobalTrainOptions), shuffling `items` in place each epoch with an Rng
/// seeded by `options.seed`. Per batch, `batch_loss(first, count)` runs
/// forward, loss and backward on items [first, first + count) and returns
/// the loss; the gradients are zeroed before it and clipped after it, then
/// Adam steps. The watchdog is named `options.observer_tag`, or
/// `default_tag` when that is empty. Returns the last good epoch loss, or
/// the watchdog's status once its retries are spent.
template <typename Model, typename Options, typename Item, typename BatchLoss>
Result<double> RunTrainingEpochs(Model* model, const Options& options,
                                 const char* default_tag,
                                 std::vector<Item>* items,
                                 BatchLoss batch_loss) {
  Rng rng(options.seed);
  float lr = options.lr;
  auto opt = std::make_unique<nn::Adam>(model->Parameters(), lr);
  DivergenceWatchdog watchdog(options.watchdog, model->Parameters(),
                              options.observer_tag.empty()
                                  ? std::string(default_tag)
                                  : options.observer_tag);

  Stopwatch total_watch;
  Stopwatch epoch_watch;
  double best = std::numeric_limits<double>::infinity();
  size_t stall = 0;
  size_t epochs_run = 0;
  double last_good_loss = 0.0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    epoch_watch.Restart();
    rng.Shuffle(items);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t first = 0; first < items->size();
         first += options.batch_size) {
      const size_t count = std::min(options.batch_size, items->size() - first);
      opt->ZeroGrad();
      epoch_loss += batch_loss(first, count);
      opt->ClipGradNorm(options.grad_clip_norm);
      opt->Step();
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<size_t>(1, batches));
    if (fault::ShouldFail("train.nan_loss")) {
      epoch_loss = std::numeric_limits<double>::quiet_NaN();
    }
    switch (watchdog.Observe(epoch, epoch_loss, &lr)) {
      case DivergenceWatchdog::Verdict::kOk:
        break;
      case DivergenceWatchdog::Verdict::kRolledBack:
        // Adam's moments were fed the diverging gradients; start fresh at
        // the halved learning rate.
        opt = std::make_unique<nn::Adam>(model->Parameters(), lr);
        continue;
      case DivergenceWatchdog::Verdict::kExhausted:
        obs::NotifyTrainEnd(options.observer_tag, epochs_run, last_good_loss,
                            total_watch.ElapsedSeconds());
        return watchdog.ExhaustedStatus();
    }
    last_good_loss = epoch_loss;
    epochs_run = epoch + 1;
    obs::NotifyTrainEpoch(options.observer_tag, epoch, epoch_loss,
                          epoch_watch.ElapsedSeconds());
    if (epoch_loss < best * (1.0 - options.min_improvement)) {
      best = epoch_loss;
      stall = 0;
    } else if (++stall >= options.patience) {
      break;
    }
  }
  obs::NotifyTrainEnd(options.observer_tag, epochs_run, last_good_loss,
                      total_watch.ElapsedSeconds());
  return last_good_loss;
}

}  // namespace simcard

#endif  // SIMCARD_CORE_TRAIN_LOOP_H_
