// `ingest`: reads beside writes and refreshes on an imagenet-sim model with
// 64-bit Hamming codes. One load thread sends three reads per write; writes
// are three inserts per erase of a seeded row, journaled durably before the
// ack. After every batch of writes a refresh thread calls Refresh() and the
// writes wait for the new epoch (read-your-writes); reads continue, and the
// next batch opens as soon as the epoch is published. A phase sends a fixed
// number of batches, more than fit in its measured time; those left when
// the time is up are sent and refreshed after it, unmeasured. Each refresh
// covers exactly one batch, so the final model, and the probe pass scored
// on it, repeat bit for bit.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "serve/estimation_service.h"
#include "serve/model_registry.h"
#include "update/delta_journal.h"
#include "update/update_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using simcard::serve::EstimateResponse;
using simcard::serve::EstimationService;
using simcard::serve::ModelRegistry;
using simcard::update::RefreshOutcome;
using simcard::update::UpdateManager;

constexpr const char* kDataset = "imagenet-sim";
constexpr size_t kBatchWrites = 500;   ///< writes per refresh
/// Batches a phase sends per measured second. A batch and its refresh take
/// 0.5 to 0.8 s on a 4-vCPU VM, so writes do not run out inside the
/// measured time; the rest are drained after it.
constexpr double kBatchesPerSecond = 3.0;
constexpr size_t kReadsPerWrite = 3;
constexpr size_t kInsertsPerErase = 3;
constexpr size_t kBatchErases = kBatchWrites / (kInsertsPerErase + 1);
constexpr size_t kBatchInserts = kBatchWrites - kBatchErases;
constexpr size_t kWorkers = 2;
constexpr size_t kGenerators = 2;  ///< load thread + refresh thread
constexpr double kDeadlineMs = 2000.0;
constexpr double kWarmupS = 0.5;

Dataset CopyDataset(const Dataset& ds) {
  return Dataset(ds.name(), ds.points(), ds.metric(), ds.tau_max());
}

/// The fixed update stream: insert rows and, per batch, the erased rows.
struct UpdateStream {
  Matrix inserts;  ///< kBatchInserts rows per batch, in batch order
  size_t base_rows = 0;
  /// Rows of the dataset epoch batch `b` is written against.
  size_t RowsBefore(size_t b) const {
    return base_rows + b * (kBatchInserts - kBatchErases);
  }
  /// Distinct seeded rows batch `b` erases, in the order they are sent.
  std::vector<uint32_t> Erases(size_t b) const {
    simcard::Rng rng(kDataSeed + 1000 + b);
    std::vector<uint32_t> rows;
    for (size_t r : rng.SampleWithoutReplacement(RowsBefore(b), kBatchErases)) {
      rows.push_back(static_cast<uint32_t>(r));
    }
    return rows;
  }
};

/// Everything a refresh-step replay needs about one refresh.
struct RefreshCapture {
  std::shared_ptr<const GlEstimator> before;
  Dataset dataset;
  SearchWorkload workload;
  std::vector<uint32_t> erases;  ///< ascending
  Matrix inserts;
  std::vector<size_t> stale;
  uint64_t seed = 0;
  std::vector<uint8_t> published;  ///< bytes of the model Refresh published
};

struct Serving {
  std::unique_ptr<GlSetup> setup;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<UpdateManager> manager;
  std::unique_ptr<EstimationService> service;
  simcard::update::UpdateOptions update_options;
  size_t refreshes = 0;  ///< Refresh() calls so far (seeds the next one)
};

/// Write batches a phase of `seconds` measured seconds sends.
size_t BatchesFor(double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::ceil(seconds * kBatchesPerSecond)));
}

struct PhaseOut {
  /// OK reads and OK write acks: the load thread's answered operations,
  /// which qps and lat_* are computed from.
  ReadLog answered;
  uint64_t reads = 0, read_failed = 0;
  uint64_t writes = 0, write_failed = 0, refreshes = 0, refresh_failed = 0;
  uint64_t refreshes_measured = 0;  ///< published within the measured time
  Samples write_us, insert_us, erase_us, refresh_s, submit_us, wait_us,
      queue_us, eval_us, batch_rows, segments_refreshed;
  std::vector<RefreshCapture> captures;
  /// Writes in send order: insert row index, or erased row with the top
  /// bit set.
  std::vector<uint64_t> write_log;
};

constexpr uint64_t kEraseBit = uint64_t{1} << 63;

/// Runs reads, write batches [first_batch, end_batch) and their refreshes
/// for at least `seconds`, and until the last batch's refresh has
/// published.
PhaseOut RunPhase(Serving* sv, const UpdateStream& updates,
                  size_t first_batch, size_t end_batch, const Matrix& queries,
                  const std::vector<Pair>& pairs,
                  const std::vector<uint32_t>& order,
                  std::atomic<uint64_t>* cursor,
                  std::vector<std::atomic<double>>* population,
                  double seconds, SpanRecorder* spans, int64_t* start_ns) {
  PhaseOut out;
  const bool traced = spans->enabled();
  SpanBuffer* load_buf = spans->NewBuffer();
  SpanBuffer* refresh_buf = spans->NewBuffer();
  const uint32_t id_submit = spans->NameId("serve.submit");
  const uint32_t id_wait = spans->NameId("serve.wait");
  const uint32_t id_read = spans->NameId("ingest.read");
  const uint32_t id_insert = spans->NameId("update.insert");
  const uint32_t id_erase = spans->NameId("update.erase");
  const uint32_t id_refresh = spans->NameId("update.refresh");

  enum class State { kIdle, kWriting, kRefreshing };
  std::mutex mu;
  std::condition_variable cv;
  State state = State::kIdle;
  size_t batch = first_batch;  // guarded by mu
  bool stop = false;           // guarded by mu
  int64_t last_ack_ns = 0;     // guarded by mu

  const int64_t start = NowNs();
  *start_ns = start;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  out.answered = ReadLog(start, seconds, 1);

  std::thread refresher([&] {
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      cv.wait(lk, [&] { return stop || state == State::kRefreshing; });
      if (stop) return;
      const size_t b = batch;
      const int64_t acked = last_ack_ns;
      lk.unlock();
      const uint64_t next_epoch = sv->registry->epoch() + 1;
      if (next_epoch < population->size()) {
        (*population)[next_epoch] =
            static_cast<double>(updates.RowsBefore(b + 1));
      }
      RefreshCapture cap;
      if (traced) {
        cap.before = sv->registry->Current().estimator;
        cap.dataset = CopyDataset(sv->manager->dataset());
        cap.workload = sv->manager->workload();
      }
      const int64_t t0 = NowNs();
      auto outcome_or = sv->manager->Refresh();
      const int64_t t1 = NowNs();
      ++sv->refreshes;
      bool ok = outcome_or.ok();
      if (ok) {
        const RefreshOutcome& o = outcome_or.value();
        ok = o.refreshed && !o.full_reseg &&
             o.applied_inserts == kBatchInserts &&
             o.applied_erases == kBatchErases &&
             sv->manager->dataset().size() == updates.RowsBefore(b + 1);
        out.segments_refreshed.Add(static_cast<double>(o.segments_refreshed));
        if (traced) {
          cap.stale = o.stale_segments;
          cap.seed = sv->update_options.seed + 9973 * sv->refreshes;
        }
      }
      refresh_buf->Add(id_refresh, t0, t1, 0, b + 1);
      ++out.refreshes;
      out.refreshes_measured += t1 <= end ? 1 : 0;
      if (ok) {
        out.refresh_s.Add(NsToS(t1 - acked));
      } else {
        ++out.refresh_failed;
        std::fprintf(stderr, "refresh %zu failed: %s\n", b,
                     outcome_or.ok() ? "outcome did not match its batch"
                                     : outcome_or.status().ToString().c_str());
      }
      if (traced && ok) {
        cap.erases = updates.Erases(b);
        std::sort(cap.erases.begin(), cap.erases.end());
        cap.inserts = updates.inserts.SliceRows(b * kBatchInserts,
                                                (b + 1) * kBatchInserts);
        cap.published = sv->registry->Current().estimator->SaveToBytes();
        out.captures.push_back(std::move(cap));
      }
      lk.lock();
      ++batch;
      state = State::kIdle;
    }
  });

  // The load thread: three reads, then one write while a batch is open. A
  // new batch opens as soon as the previous one's refresh has published.
  std::thread loader([&] {
    std::vector<uint32_t> erases;
    size_t written = 0;  // writes of the open batch
    size_t reads_since_write = 0;
    uint64_t request = 0;
    while (true) {
      const int64_t now = NowNs();
      bool write_now = false;
      size_t b = 0;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (state == State::kIdle && batch < end_batch) {
          state = State::kWriting;
          written = 0;
          erases = updates.Erases(batch);
        }
        if (now >= end && batch >= end_batch && state == State::kIdle) break;
        b = batch;
        write_now = state == State::kWriting &&
                    reads_since_write >= kReadsPerWrite;
      }
      ++request;
      if (write_now) {
        reads_since_write = 0;
        simcard::Status st;
        const bool erase = written % (kInsertsPerErase + 1) == kInsertsPerErase;
        const int64_t t0 = NowNs();
        if (erase) {
          const uint32_t row = erases[written / (kInsertsPerErase + 1)];
          st = sv->manager->Erase(row);
          out.write_log.push_back(kEraseBit | row);
        } else {
          const size_t i = b * kBatchInserts +
                           written - written / (kInsertsPerErase + 1);
          st = sv->manager->Insert(std::span<const float>(
              updates.inserts.Row(i), updates.inserts.cols()));
          out.write_log.push_back(i);
        }
        const int64_t t1 = NowNs();
        ++out.writes;
        if (st.ok()) {
          out.answered.Add(t1, NsToUs(t1 - t0));
        } else {
          ++out.write_failed;
          std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
        }
        out.write_us.Add(NsToUs(t1 - t0));
        (erase ? out.erase_us : out.insert_us).Add(NsToUs(t1 - t0));
        load_buf->Add(erase ? id_erase : id_insert, t0, t1, 0, request);
        if (++written == kBatchWrites) {
          std::lock_guard<std::mutex> lk(mu);
          last_ack_ns = t1;
          state = State::kRefreshing;
          cv.notify_all();
        }
        continue;
      }
      ++reads_since_write;
      const uint32_t i = order[cursor->fetch_add(1) % order.size()];
      const simcard::EstimateRequest req = RequestFor(queries, pairs[i]);
      const int64_t t0 = NowNs();
      std::future<EstimateResponse> fut = sv->service->Submit(req);
      const int64_t t1 = NowNs();
      const EstimateResponse r = fut.get();
      const int64_t t2 = NowNs();
      const double pop = r.model_epoch < population->size()
                             ? (*population)[r.model_epoch].load()
                             : 0.0;
      if (!AnswerOk(r.status, r.estimate, pop)) {
        ++out.read_failed;
        continue;
      }
      ++out.reads;
      out.answered.Add(t2, NsToUs(t2 - t0));
      if (traced) {
        const uint32_t root = load_buf->Add(id_read, t0, t2, 0, r.request_id);
        load_buf->Add(id_submit, t0, t1, root, r.request_id);
        load_buf->Add(id_wait, t1, t2, root, r.request_id);
        out.submit_us.Add(NsToUs(t1 - t0));
        out.wait_us.Add(NsToUs(t2 - t1));
        out.queue_us.Add(r.queue_us);
        out.eval_us.Add(r.eval_us);
        out.batch_rows.Add(static_cast<double>(r.batch_size));
      }
    }
  });
  loader.join();
  {
    std::lock_guard<std::mutex> lk(mu);
    stop = true;
    cv.notify_all();
  }
  refresher.join();
  return out;
}

/// The refresh steps of UpdateManager's incremental path, replayed on a
/// clone of each pre-refresh model with the same inputs and seeds.
void ReplayRefreshSteps(const std::vector<RefreshCapture>& captures,
                        size_t fine_tune_epochs, SpanRecorder* spans,
                        Record* record) {
  SpanBuffer* buf = spans->NewBuffer();
  Samples clone_s, route_s, fallbacks_s, relabel_s, locals_s, global_s;
  size_t matches = 0;
  uint64_t request = 0;
  for (const RefreshCapture& c : captures) {
    ++request;
    auto span = [&](const char* name, int64_t a, int64_t b, Samples* out) {
      buf->Add(spans->NameId(name), a, b, 0, request);
      out->Add(NsToS(b - a));
    };
    int64_t t0 = NowNs();
    auto clone = std::make_shared<GlEstimator>(c.before->config());
    simcard::Status st = clone->LoadFromBytes(c.before->SaveToBytes());
    int64_t t1 = NowNs();
    span("update.refresh.clone", t0, t1, &clone_s);

    Dataset ds = CopyDataset(c.dataset);
    SearchWorkload wl = c.workload;
    std::vector<size_t> touched;
    t0 = NowNs();
    ds.EraseRows(c.erases);
    if (st.ok()) st = clone->EraseRows(ds, c.erases, &touched, true);
    const size_t first_new = ds.size();
    ds.Append(c.inserts);
    std::vector<uint32_t> rows(c.inserts.rows());
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<uint32_t>(first_new + i);
    }
    if (st.ok()) st = clone->RouteInserts(ds, rows, &touched);
    t1 = NowNs();
    span("update.refresh.route", t0, t1, &route_s);

    t0 = NowNs();
    clone->RebuildFallbacks(ds, touched, c.seed);
    t1 = NowNs();
    span("update.refresh.fallbacks", t0, t1, &fallbacks_s);

    t0 = NowNs();
    if (st.ok()) st = RelabelWorkload(ds, &clone->segmentation(), &wl);
    t1 = NowNs();
    span("update.refresh.relabel", t0, t1, &relabel_s);

    t0 = NowNs();
    if (st.ok()) {
      st = clone->FineTuneSegments(wl, c.stale, c.seed, fine_tune_epochs);
    }
    t1 = NowNs();
    span("update.refresh.finetune_locals", t0, t1, &locals_s);

    t0 = NowNs();
    if (st.ok()) st = clone->FineTuneGlobal(wl, c.seed + 29, fine_tune_epochs);
    t1 = NowNs();
    span("update.refresh.finetune_global", t0, t1, &global_s);
    if (st.ok() && clone->SaveToBytes() == c.published) ++matches;
  }
  record->Set("update.refresh.clone_s", clone_s.Percentile(0.5), "s",
              clone_s.size());
  record->Set("update.refresh.route_s", route_s.Percentile(0.5), "s",
              route_s.size());
  record->Set("update.refresh.fallbacks_s", fallbacks_s.Percentile(0.5), "s",
              fallbacks_s.size());
  record->Set("update.refresh.relabel_s", relabel_s.Percentile(0.5), "s",
              relabel_s.size());
  record->Set("update.refresh.finetune_locals_s", locals_s.Percentile(0.5),
              "s", locals_s.size());
  record->Set("update.refresh.finetune_global_s", global_s.Percentile(0.5),
              "s", global_s.size());
  // A replay that reproduces the published model byte for byte shows the
  // steps above are the ones the refresh ran.
  record->SetInfo("update.replay_matches_published",
                  std::to_string(matches) + "/" +
                      std::to_string(captures.size()));
}

/// The journal's append path replayed on a standalone DeltaJournal with the
/// manager's options, fed the same records in the same order.
void ReplayJournal(const std::string& path, const UpdateStream& updates,
                   const simcard::update::JournalOptions& options,
                   const std::vector<uint64_t>& log, SpanRecorder* spans,
                   Record* record) {
  auto journal_or = simcard::update::DeltaJournal::Create(
      path, updates.inserts.cols(), options);
  if (!journal_or.ok()) {
    record->Check("journal_replay", false, journal_or.status().ToString());
    return;
  }
  auto journal = std::move(journal_or).value();
  simcard::Status st = journal->AppendEpochMark(1, updates.base_rows);
  SpanBuffer* buf = spans->NewBuffer();
  const uint32_t id_append = spans->NameId("update.journal_append");
  const uint32_t id_sync = spans->NameId("update.journal_sync");
  Samples append_us, sync_us;
  uint64_t request = 0;
  for (uint64_t entry : log) {
    const int64_t t0 = NowNs();
    if (entry & kEraseBit) {
      st = journal->AppendErase(static_cast<uint32_t>(entry & ~kEraseBit));
    } else {
      st = journal->AppendInsert(std::span<const float>(
          updates.inserts.Row(entry), updates.inserts.cols()));
    }
    const int64_t t1 = NowNs();
    if (!st.ok()) break;
    // Group commit: the append that fills a group also fsyncs it.
    const bool synced = journal->unsynced_records() == 0;
    buf->Add(synced ? id_sync : id_append, t0, t1, 0, ++request);
    (synced ? sync_us : append_us).Add(NsToUs(t1 - t0));
  }
  if (st.ok()) st = journal->Sync();
  record->Check("journal_replay", st.ok(), st.ToString());
  record->SetTiming("update.journal_append_us", append_us, "us");
  record->SetTiming("update.journal_sync_us", sync_us, "us");
  journal.reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

int RunIngest(const Args& args, Record* record) {
  RecordRun(args, kGenerators, kWorkers, record);
  if (kGenerators + kWorkers > UsableCpus()) {
    std::fprintf(stderr, "refusing to run: %zu threads exceed %zu CPUs\n",
                 kGenerators + kWorkers, UsableCpus());
    return 2;
  }
  simcard::serve::ServeOptions serve_options;
  serve_options.num_threads = kWorkers;
  serve_options.max_batch = 1;
  serve_options.default_deadline_ms = kDeadlineMs;

  SetupTimes times;
  Serving sv;
  std::vector<uint8_t> first_bytes;
  const std::string journal_root = args.out_dir + "/ingest-journal-" +
                                   std::to_string(getpid());
  sv.update_options.journal_dir = journal_root;
  sv.update_options.allow_full_reseg = false;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sv.service.reset();
    sv.manager.reset();
    sv.registry.reset();
    sv.setup.reset();
    std::error_code ec;
    std::filesystem::remove_all(journal_root, ec);
    const int64_t t0 = NowNs();
    auto built = BuildGl(kDataset, args.scale);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up: %s\n", built.status().ToString().c_str());
      return 1;
    }
    sv.setup = std::make_unique<GlSetup>(std::move(built).value());
    sv.registry = std::make_unique<ModelRegistry>();
    sv.manager = std::make_unique<UpdateManager>(
        CopyDataset(sv.setup->dataset), sv.setup->workload, sv.registry.get(),
        sv.update_options);
    simcard::Status st = sv.manager->Start(*sv.setup->model);
    if (!st.ok()) {
      std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
      return 1;
    }
    sv.service =
        std::make_unique<EstimationService>(sv.registry.get(), serve_options);
    times.total_s.Add(NsToS(NowNs() - t0));
    times.generate_s.Add(sv.setup->generate_s);
    times.segment_s.Add(sv.setup->segment_s);
    times.label_s.Add(sv.setup->label_s);
    times.train_s.Add(sv.setup->train_s);
    std::vector<uint8_t> bytes = sv.setup->model->SaveToBytes();
    if (rep == 0) first_bytes = bytes;
    record->Check("setup_models_identical", bytes == first_bytes,
                  "model bytes of set-up repetition " + std::to_string(rep) +
                      (bytes == first_bytes ? " match" : " differ"));
  }
  times.Report(record);

  const size_t phases = args.trace ? 2 : 1;
  const double measured = args.seconds / static_cast<double>(phases);
  const size_t batches = BatchesFor(measured);
  UpdateStream updates;
  updates.base_rows = sv.setup->dataset.size();
  auto inserts_or = simcard::MakeAnalogUpdates(
      kDataset, args.scale, kBatchInserts * batches * phases, kDataSeed + 33);
  if (!inserts_or.ok()) {
    std::fprintf(stderr, "%s\n", inserts_or.status().ToString().c_str());
    return 1;
  }
  updates.inserts = std::move(inserts_or).value();

  const Matrix& queries = sv.setup->workload.test_queries;
  const std::vector<Pair> pairs = ProbePairs(sv.setup->workload);
  const std::vector<uint32_t> order = StreamOrder(pairs.size(), args.seed);
  // Rows of each epoch's dataset, by epoch: the bound reads are checked
  // against. Every refresh publishes one epoch.
  std::vector<std::atomic<double>> population(sv.registry->epoch() + 1 +
                                              phases * batches);
  for (auto& p : population) p = 0.0;
  population[sv.registry->epoch()] = static_cast<double>(updates.base_rows);

  // Warm-up: reads only, so the update stream stays the same in every run.
  std::atomic<uint64_t> cursor{0};
  {
    const int64_t end = NowNs() + static_cast<int64_t>(kWarmupS * 1e9);
    while (NowNs() < end) {
      const uint32_t i = order[cursor++ % order.size()];
      sv.service->Submit(RequestFor(queries, pairs[i])).get();
    }
  }

  SpanRecorder untraced(false);
  int64_t start_ns = 0;
  auto account = [&](const PhaseOut& o) {
    record->CountOps("read", o.reads + o.read_failed, o.read_failed);
    record->CountOps("write", o.writes, o.write_failed);
    record->CountOps("refresh", o.refreshes, o.refresh_failed);
  };
  const PhaseOut base =
      RunPhase(&sv, updates, 0, batches, queries, pairs, order, &cursor,
               &population, measured, &untraced, &start_ns);
  account(base);
  ReportPeakRss(record);
  ReportReads({&base.answered, 1}, measured, record);
  record->Set("write_p50_us", base.write_us.Percentile(0.50), "us",
              base.write_us.size());
  record->Set("write_p99_us", base.write_us.Percentile(0.99), "us",
              base.write_us.size());
  record->Set("refresh_s", base.refresh_s.Percentile(0.5), "s",
              base.refresh_s.size());
  record->SetInfo("ingest.batches_measured",
                  std::to_string(base.refreshes_measured) + " of " +
                      std::to_string(batches));
  const double base_qps =
      static_cast<double>(base.answered.size()) / NsToS(NowNs() - start_ns);

  if (args.trace) {
    SpanRecorder spans(true);
    const int64_t traced_start = NowNs();
    const PhaseOut traced =
        RunPhase(&sv, updates, batches, 2 * batches, queries, pairs, order,
                 &cursor, &population, measured, &spans, &start_ns);
    account(traced);
    const double traced_qps = static_cast<double>(traced.answered.size()) /
                              NsToS(NowNs() - traced_start);
    record->Set("trace.overhead_pct", (base_qps - traced_qps) / base_qps * 100,
                "%");
    record->SetTiming("serve.submit_us", traced.submit_us, "us");
    record->SetTiming("serve.wait_us", traced.wait_us, "us");
    record->SetTiming("serve.queue_us", traced.queue_us, "us");
    record->SetTiming("serve.eval_us", traced.eval_us, "us");
    record->SetTiming("serve.batch_rows", traced.batch_rows, "count");
    record->SetTiming("update.insert_us", traced.insert_us, "us");
    record->SetTiming("update.erase_us", traced.erase_us, "us");
    record->Set("update.segments_refreshed",
                traced.segments_refreshed.Mean(), "count",
                traced.segments_refreshed.size());
    ReplayRefreshSteps(traced.captures,
                       sv.update_options.fine_tune_epochs, &spans, record);
    std::vector<uint64_t> log = base.write_log;
    log.insert(log.end(), traced.write_log.begin(), traced.write_log.end());
    ReplayJournal(args.out_dir + "/ingest-replay-" + std::to_string(getpid()) +
                      ".jnl",
                  updates, sv.update_options.journal, log, &spans, record);
    ReplayCore({sv.registry->Current().estimator.get()}, queries, pairs,
               &spans, record);
    WriteSpans(args, spans, record);
  }

  sv.service->Drain();
  // Exact accuracy on the final model, against labels recomputed on the
  // final dataset.
  const std::shared_ptr<const GlEstimator> final_model =
      sv.registry->Current().estimator;
  SearchWorkload truth;
  truth.train_queries = Matrix(0, queries.cols());
  truth.test_queries = queries;
  truth.test = sv.setup->workload.test;
  simcard::Status st =
      simcard::RelabelWorkload(sv.manager->dataset(), nullptr, &truth);
  record->Check("relabel_truth", st.ok(), st.ToString());
  const std::vector<Pair> final_pairs = ProbePairs(truth);
  ScoreProbe(
      final_pairs,
      [&](const Pair& p) {
        return final_model->Estimate(RequestFor(queries, p));
      },
      record);

  sv.service.reset();
  sv.manager.reset();
  std::error_code ec;
  std::filesystem::remove_all(journal_root, ec);
  return 0;
}

}  // namespace perfbench
