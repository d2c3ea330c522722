#include "core/qes_estimator.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "core/features.h"
#include "data/sampling.h"

namespace simcard {

FlatCardEstimatorConfig FlatCardEstimatorConfig::Qes() {
  FlatCardEstimatorConfig c;
  c.name = "QES";
  c.use_cnn_query_tower = true;
  return c;
}

FlatCardEstimatorConfig FlatCardEstimatorConfig::Mlp() {
  FlatCardEstimatorConfig c;
  c.name = "MLP";
  c.use_cnn_query_tower = false;
  return c;
}

Status FlatCardEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr || ctx.workload == nullptr) {
    return Status::InvalidArgument(
        "FlatCardEstimator: dataset/workload required");
  }
  Stopwatch watch;
  metric_ = ctx.dataset->metric();
  max_card_ = static_cast<double>(ctx.dataset->size());

  // Retain k data samples; their distances to the query are x_D.
  Rng rng(ctx.seed);
  const size_t k = std::min(config_.num_samples, ctx.dataset->size());
  samples_ = GatherRows(ctx.dataset->points(),
                        SampleIndices(*ctx.dataset, k, &rng));

  const Matrix& queries = ctx.workload->train_queries;
  const Matrix xd = BuildSampleDistanceFeatures(queries, samples_, metric_);
  auto flat = FlattenSearch(ctx.workload->train);

  CardModelConfig config;
  config.query_dim = ctx.dataset->dim();
  config.use_cnn_query_tower = config_.use_cnn_query_tower;
  config.qes = config_.qes;
  config.mlp_hidden = config_.mlp_hidden;
  config.query_embed = config_.query_embed;
  config.tau_hidden = config_.tau_hidden;
  config.tau_embed = config_.tau_embed;
  config.aux_dim = k;
  config.aux_hidden = config_.aux_hidden;
  config.head_hidden = config_.head_hidden;

  if (config_.auto_tune && config_.use_cnn_query_tower) {
    TunerOptions tuner_opts = config_.tuner;
    tuner_opts.seed = ctx.seed + 3;
    auto tuned_or = GreedyTuneQes(queries, &xd, flat, config, tuner_opts);
    if (tuned_or.ok()) config.qes = tuned_or.value().config;
  }

  Rng model_rng(ctx.seed + 1);
  auto model_or = CardModel::Build(config, &model_rng);
  if (!model_or.ok()) return model_or.status();
  model_ = std::move(model_or.value());

  CardTrainOptions train_opts = config_.train;
  train_opts.seed = ctx.seed + 2;
  auto loss_or =
      TrainCardModel(model_.get(), queries, &xd, std::move(flat), train_opts);
  if (!loss_or.ok()) return loss_or.status();
  set_training_seconds(watch.ElapsedSeconds());
  return Status::OK();
}

double FlatCardEstimator::Estimate(const EstimateRequest& request) {
  if (!QueryHasDim(request, samples_.cols())) return 0.0;
  const float* query = request.query.data();
  const auto xd = SampleDistanceRow(query, samples_, metric_);
  const double est = model_->EstimateCard(query, request.tau, xd.data());
  // No query can match more objects than the dataset holds.
  return std::min(est, max_card_);
}

size_t FlatCardEstimator::ModelSizeBytes() const {
  const size_t scalars =
      const_cast<CardModel*>(model_.get())->NumScalars() + samples_.size();
  return scalars * sizeof(float);
}

}  // namespace simcard
