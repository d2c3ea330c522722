// Durability and crash recovery: every Insert/Erase the manager
// acknowledged must survive an in-process "kill" (manager destroyed, files
// left behind) — including kills injected at every fault site on the
// refresh path — and the recovered estimator must keep the batch==single
// parity guarantee. Also covers refresh retry/backoff/degraded and the
// DeltaBuffer capacity backpressure satellite.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/serialize.h"
#include "data/generators.h"
#include "eval/harness.h"
#include "obs/segment_health.h"
#include "serve/model_registry.h"
#include "update/recovery.h"
#include "update/update_manager.h"

namespace simcard {
namespace update {
namespace {

GlEstimatorConfig FastConfig() {
  GlEstimatorConfig config = GlEstimatorConfig::GlCnn();
  config.local_train.epochs = 8;
  config.global_train.epochs = 8;
  config.tuner.max_trials = 2;
  config.tuner.trial_epochs = 3;
  config.tune_per_segment = false;
  return config;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/simcard_recovery_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

struct DurableFixture {
  TempDir tmp;
  ExperimentEnv env;
  std::unique_ptr<GlEstimator> est;
  GlEstimatorConfig config = FastConfig();
  size_t base_rows = 0;
  size_t dim = 0;

  explicit DurableFixture(uint64_t seed = 31) {
    EnvOptions opts;
    opts.num_segments = 6;
    opts.seed = seed;
    env =
        std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
    base_rows = env.dataset.size();
    dim = env.dataset.dim();
    est = std::make_unique<GlEstimator>(config);
    TrainContext ctx = MakeTrainContext(env);
    EXPECT_TRUE(est->Train(ctx).ok());
  }

  UpdateOptions DurableOptions() {
    UpdateOptions opts;
    opts.journal_dir = tmp.path("wal");
    opts.allow_full_reseg = false;
    opts.fine_tune_epochs = 2;
    return opts;
  }

  std::unique_ptr<UpdateManager> MakeManager(serve::ModelRegistry* registry,
                                             const UpdateOptions& opts) {
    return std::make_unique<UpdateManager>(std::move(env.dataset),
                                           std::move(env.workload), registry,
                                           opts);
  }
};

// Acks `inserted.rows()` inserts and erases of rows [0, erases).
void Ingest(UpdateManager* manager, const Matrix& inserted, size_t erases) {
  for (size_t i = 0; i < inserted.rows(); ++i) {
    ASSERT_TRUE(manager
                    ->Insert(std::span<const float>(inserted.Row(i),
                                                    inserted.cols()))
                    .ok());
  }
  for (uint32_t row = 0; row < erases; ++row) {
    ASSERT_TRUE(manager->Erase(row).ok());
  }
}

// The zero-loss invariant, checked at the end state: after a fault-free
// refresh on the recovered manager, every acknowledged insert is a row of
// the dataset and the row count reflects every acknowledged delta exactly
// once.
void ExpectEndState(UpdateManager* recovered, size_t base_rows,
                    const Matrix& inserted, size_t erases) {
  ASSERT_TRUE(recovered->Refresh().ok());
  EXPECT_EQ(recovered->pending(), 0u);
  ASSERT_EQ(recovered->dataset().size(),
            base_rows + inserted.rows() - erases);
  const Matrix& points = recovered->dataset().points();
  for (size_t i = 0; i < inserted.rows(); ++i) {
    bool found = false;
    for (size_t r = 0; r < points.rows() && !found; ++r) {
      found = std::memcmp(points.Row(r), inserted.Row(i),
                          points.cols() * sizeof(float)) == 0;
    }
    EXPECT_TRUE(found) << "acknowledged insert " << i
                       << " missing after recovery";
  }
}

TEST(RecoveryTest, RecoverFromEmptyDirIsNotFound) {
  TempDir tmp;
  serve::ModelRegistry registry;
  UpdateOptions opts;
  EXPECT_FALSE(UpdateManager::RecoverFrom(&registry, opts).ok());
  opts.journal_dir = tmp.path("nothing");
  const auto result = UpdateManager::RecoverFrom(&registry, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RecoveryTest, KillAfterIngestRecoversEveryAck) {
  DurableFixture f;
  const UpdateOptions opts = f.DurableOptions();
  serve::ModelRegistry registry;
  auto manager = f.MakeManager(&registry, opts);
  ASSERT_TRUE(manager->Start(*f.est).ok());
  EXPECT_EQ(manager->durable_epoch(), 1u);
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(opts.journal_dir)));
  EXPECT_TRUE(std::filesystem::exists(JournalPath(opts.journal_dir, 1)));

  const Matrix inserted =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 6, 91).value();
  Ingest(manager.get(), inserted, 4);
  EXPECT_EQ(manager->pending(), 10u);

  manager.reset();  // kill: no shutdown hook, only what hit the files

  serve::ModelRegistry after;
  auto recovered = UpdateManager::RecoverFrom(&after, opts, &f.config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  UpdateManager* rec = recovered.value().get();
  EXPECT_EQ(rec->pending(), 10u);  // every ack staged again
  EXPECT_EQ(rec->durable_epoch(), 1u);
  EXPECT_EQ(after.epoch(), 1u);
  ASSERT_NE(after.Current().estimator, nullptr);

  ExpectEndState(rec, f.base_rows, inserted, 4);
  EXPECT_EQ(rec->durable_epoch(), 2u);
  EXPECT_EQ(after.epoch(), 2u);
  // The superseded epoch's artifacts were garbage-collected.
  EXPECT_FALSE(std::filesystem::exists(ModelPath(opts.journal_dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(ModelPath(opts.journal_dir, 2)));
}

TEST(RecoveryTest, KillAfterCommittedRefreshRecoversTailEpoch) {
  DurableFixture f;
  const UpdateOptions opts = f.DurableOptions();
  serve::ModelRegistry registry;
  auto manager = f.MakeManager(&registry, opts);
  ASSERT_TRUE(manager->Start(*f.est).ok());

  const Matrix first =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 5, 93).value();
  Ingest(manager.get(), first, 5);
  ASSERT_TRUE(manager->Refresh().ok());
  EXPECT_EQ(manager->durable_epoch(), 2u);

  // New acks land in epoch 2's journal; kill before any further refresh.
  const Matrix second =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 3, 95).value();
  Ingest(manager.get(), second, 0);
  manager.reset();

  serve::ModelRegistry after;
  auto recovered = UpdateManager::RecoverFrom(&after, opts, &f.config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  UpdateManager* rec = recovered.value().get();
  EXPECT_EQ(after.epoch(), 2u);
  EXPECT_EQ(rec->pending(), 3u);
  // Epoch 1's refresh applied first's 5 inserts and 5 erases already.
  EXPECT_EQ(rec->dataset().size(), f.base_rows);
  ExpectEndState(rec, f.base_rows, second, 0);
}

// The kill-at-every-fault-site sweep: arm each refresh-path fault site (at
// every distinct hit of it), let the refresh fail (or not), kill, recover,
// and require the zero-loss end state every single time. Sites whose
// failure lands inside the durable-commit window must also quarantine the
// manager (needs_recovery) instead of accepting acks that could be lost.
TEST(RecoveryTest, KillAtEveryFaultSiteLosesNoAcks) {
  struct FaultSpec {
    const char* site;
    uint64_t skip;
  };
  const FaultSpec kSweep[] = {
      {"update.refresh_io", 0},    // epoch artifact persistence
      {"update.refresh_finetune", 0},
      {"update.journal_io", 0},    // successor journal Create
      {"update.journal_io", 1},    // epoch-mark append
      {"update.journal_io", 2},    // successor journal Sync
      {"update.journal_io", 3},    // rearm-time Sync (durable window)
      {"io.save", 0},              // dataset artifact save
      {"io.save", 1},              // model artifact save
      {"io.save", 2},              // MANIFEST rename (durable window)
  };
  for (const FaultSpec& spec : kSweep) {
    SCOPED_TRACE(std::string(spec.site) + " skip=" +
                 std::to_string(spec.skip));
    DurableFixture f(/*seed=*/31);
    const UpdateOptions opts = f.DurableOptions();
    serve::ModelRegistry registry;
    auto manager = f.MakeManager(&registry, opts);
    ASSERT_TRUE(manager->Start(*f.est).ok());
    const Matrix inserted =
        MakeAnalogUpdates("glove-sim", Scale::kTiny, 5, 97).value();
    Ingest(manager.get(), inserted, 3);

    fault::FaultConfig config;
    config.sites = spec.site;
    config.max_injections = 1;
    config.skip_first = spec.skip;
    fault::Configure(config);
    const auto refresh = manager->Refresh();
    fault::Disable();
    EXPECT_FALSE(refresh.ok());  // every sweep point hits a real site
    if (manager->needs_recovery()) {
      // Mid-commit failure: the manager must refuse acks it could lose.
      const float zeros[64] = {};
      EXPECT_FALSE(
          manager->Insert(std::span<const float>(zeros, f.dim)).ok());
      EXPECT_FALSE(manager->Refresh().ok());
    } else {
      // Clean failure: served epoch untouched, every ack pending again.
      EXPECT_EQ(manager->pending(), 8u);
      EXPECT_EQ(registry.epoch(), 1u);
    }
    const uint64_t committed = manager->durable_epoch();
    EXPECT_EQ(committed, 1u);  // no sweep point may half-commit epoch 2
    manager.reset();  // kill

    serve::ModelRegistry after;
    auto recovered = UpdateManager::RecoverFrom(&after, opts, &f.config);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    UpdateManager* rec = recovered.value().get();
    EXPECT_EQ(after.epoch(), committed);  // epochs never move backwards
    EXPECT_FALSE(rec->needs_recovery());
    EXPECT_EQ(rec->pending(), 8u);
    ExpectEndState(rec, f.base_rows, inserted, 3);
  }
}

// Satellite (c): after a mid-refresh kill and recovery, the republished
// estimator must still satisfy the batch==single parity guarantee.
TEST(RecoveryTest, BatchSingleParityHoldsAfterRecovery) {
  DurableFixture f;
  const UpdateOptions opts = f.DurableOptions();
  serve::ModelRegistry registry;
  auto manager = f.MakeManager(&registry, opts);
  ASSERT_TRUE(manager->Start(*f.est).ok());
  const Matrix inserted =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 6, 99).value();
  Ingest(manager.get(), inserted, 4);

  fault::FaultConfig config;
  config.sites = "update.refresh_finetune";
  config.max_injections = 1;
  fault::Configure(config);
  EXPECT_FALSE(manager->Refresh().ok());  // the mid-refresh "kill" point
  fault::Disable();
  manager.reset();

  serve::ModelRegistry after;
  auto recovered = UpdateManager::RecoverFrom(&after, opts, &f.config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  UpdateManager* rec = recovered.value().get();
  ASSERT_TRUE(rec->Refresh().value().refreshed);

  const auto published = after.Current().estimator;
  ASSERT_NE(published, nullptr);
  const SearchWorkload& workload = rec->workload();
  const size_t n = std::min<size_t>(workload.test.size(), 16);
  ASSERT_GT(n, 0u);
  Matrix queries(n, f.dim);
  std::vector<float> taus(n);
  for (size_t i = 0; i < n; ++i) {
    queries.SetRow(i, workload.test_queries.Row(workload.test[i].row));
    const auto& thresholds = workload.test[i].thresholds;
    taus[i] = thresholds[i % thresholds.size()].tau;
  }
  const std::vector<double> batch = published->EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EstimateRequest request{
        std::span<const float>(queries.Row(i), f.dim), taus[i], {}};
    EXPECT_DOUBLE_EQ(batch[i], published->Estimate(request)) << "query " << i;
  }
}

// Satellite (b) + tentpole 3: failed refreshes propagate their Status,
// restage every ack, back off Tick, and trip/clear the degraded state.
TEST(RecoveryTest, RefreshFailuresBackOffThenDegradeThenHeal) {
  DurableFixture f;
  UpdateOptions opts;  // in-memory: retry logic is durability-independent
  opts.allow_full_reseg = false;
  opts.fine_tune_epochs = 2;
  opts.refresh_delta_threshold = 1;
  opts.refresh_retry_budget = 1;
  opts.refresh_backoff_base_ms = 60000.0;  // park Tick for the whole test
  serve::ModelRegistry registry;
  auto manager = f.MakeManager(&registry, opts);
  ASSERT_TRUE(manager->Start(*f.est).ok());
  const Matrix inserted =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 3, 101).value();
  Ingest(manager.get(), inserted, 0);

  fault::FaultConfig config;
  config.sites = "update.refresh_finetune";
  config.max_injections = 8;
  fault::Configure(config);
  EXPECT_FALSE(manager->Refresh().ok());  // satellite (b): Status surfaces
  EXPECT_EQ(manager->consecutive_failures(), 1u);
  EXPECT_FALSE(manager->degraded());
  EXPECT_EQ(manager->pending(), 3u);  // restaged, nothing lost
  EXPECT_EQ(registry.epoch(), 1u);    // served epoch untouched

  // Within the backoff window Tick refuses to retry.
  EXPECT_FALSE(manager->Tick().value().refreshed);
  EXPECT_EQ(manager->consecutive_failures(), 1u);

  // An explicit Refresh bypasses the backoff; its failure exhausts the
  // budget of 1 and trips the degraded circuit.
  EXPECT_FALSE(manager->Refresh().ok());
  EXPECT_TRUE(manager->degraded());
  EXPECT_TRUE(obs::SegmentHealthRegistry::Default().update_degraded());
  EXPECT_FALSE(manager->Tick().value().refreshed);  // circuit open

  // Healing: the fault clears, an explicit Refresh succeeds, and both the
  // failure count and the health flag reset.
  fault::Disable();
  EXPECT_TRUE(manager->Refresh().value().refreshed);
  EXPECT_FALSE(manager->degraded());
  EXPECT_EQ(manager->consecutive_failures(), 0u);
  EXPECT_FALSE(obs::SegmentHealthRegistry::Default().update_degraded());
  EXPECT_EQ(registry.epoch(), 2u);
  EXPECT_EQ(manager->dataset().size(), f.base_rows + 3);
}

// A delta whose journal append fails is NOT acknowledged, so it must not
// survive in the overlay either — otherwise the next refresh would apply a
// mutation the caller was told failed (found by the chaos drill).
TEST(RecoveryTest, FailedJournalAppendLeavesNoGhostDelta) {
  DurableFixture f;
  const UpdateOptions opts = f.DurableOptions();
  serve::ModelRegistry registry;
  auto manager = f.MakeManager(&registry, opts);
  ASSERT_TRUE(manager->Start(*f.est).ok());
  const Matrix inserted =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 3, 105).value();
  Ingest(manager.get(), inserted, 2);  // 5 acked deltas
  ASSERT_EQ(manager->pending(), 5u);

  fault::FaultConfig config;
  config.sites = "update.journal_io";
  config.max_injections = 2;
  fault::Configure(config);
  EXPECT_FALSE(manager
                   ->Insert(std::span<const float>(inserted.Row(2),
                                                   inserted.cols()))
                   .ok());
  EXPECT_FALSE(manager->Erase(2).ok());
  fault::Disable();
  EXPECT_EQ(manager->pending(), 5u);  // the failed deltas rolled back

  // The rolled-back row is erasable again (no ghost erase in the overlay),
  // and the refresh applies exactly the acknowledged deltas.
  ASSERT_TRUE(manager->Erase(2).ok());
  ASSERT_TRUE(manager->Refresh().value().refreshed);
  EXPECT_EQ(manager->dataset().size(), f.base_rows + 3 - 3);
}

// A journal whose header dim disagrees with the manifest still replays (its
// inserts read as a torn tail), so recovery must refuse it before
// OpenForAppend truncates those acknowledged inserts away.
TEST(RecoveryTest, JournalDimMismatchIsRefusedAndFileKept) {
  DurableFixture f;
  const UpdateOptions opts = f.DurableOptions();
  serve::ModelRegistry registry;
  auto manager = f.MakeManager(&registry, opts);
  ASSERT_TRUE(manager->Start(*f.est).ok());
  const Matrix inserted =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 2, 107).value();
  Ingest(manager.get(), inserted, 1);
  manager.reset();  // kill

  const std::string journal = JournalPath(opts.journal_dir, 1);
  std::vector<uint8_t> bytes = ReadFileBytes(journal).value();
  bytes[8 + 4] ^= 0x01;  // low bit of the header dim (after magic + version)
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  serve::ModelRegistry after;
  auto recovered = UpdateManager::RecoverFrom(&after, opts, &f.config);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  EXPECT_NE(recovered.status().message().find("dim"), std::string::npos)
      << recovered.status().ToString();
  EXPECT_FALSE(after.has_model());
  EXPECT_EQ(ReadFileBytes(journal).value(), bytes);
}

// Satellite (a): the bounded buffer sheds with kUnavailable once full and
// accepts again after a refresh drains it.
TEST(RecoveryTest, DeltaCapacityShedsWithUnavailable) {
  DurableFixture f;
  UpdateOptions opts;
  opts.allow_full_reseg = false;
  opts.fine_tune_epochs = 2;
  opts.delta_capacity = 4;
  serve::ModelRegistry registry;
  auto manager = f.MakeManager(&registry, opts);
  ASSERT_TRUE(manager->Start(*f.est).ok());
  const Matrix inserted =
      MakeAnalogUpdates("glove-sim", Scale::kTiny, 5, 103).value();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(manager
                    ->Insert(std::span<const float>(inserted.Row(i),
                                                    inserted.cols()))
                    .ok());
  }
  const Status shed = manager->Insert(
      std::span<const float>(inserted.Row(4), inserted.cols()));
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager->Erase(0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager->buffer().shed(), 2u);
  EXPECT_EQ(manager->pending(), 4u);

  ASSERT_TRUE(manager->Refresh().value().refreshed);
  EXPECT_TRUE(manager
                  ->Insert(std::span<const float>(inserted.Row(4),
                                                  inserted.cols()))
                  .ok());
}

}  // namespace
}  // namespace update
}  // namespace simcard
