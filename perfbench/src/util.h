// Measurement plumbing for the simcard benchmark: clocks, sample sets with
// nearest-rank percentiles, the metric record printed at exit, the span
// recorder used by traced runs, and process counters (CPU time, peak RSS,
// host steal ticks).
#ifndef SIMCARD_PERFBENCH_UTIL_H_
#define SIMCARD_PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// A set of measurements; percentiles are nearest-rank on a sorted copy.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Percentile(double q) const;
  double Mean() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// One named metric of the run record.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  ///< 0 for values that are not sample statistics
};

/// Everything one run reports: metrics, operation counts, checks and the
/// run record (environment facts). Serialized as one JSON object.
class Record {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Sets `<name>.p50` and `<name>.p99` from `s`.
  void SetTiming(const std::string& name, const Samples& s,
                 const std::string& unit);
  void SetInfo(const std::string& key, const std::string& value);
  /// Records a named check; a failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);

  /// Counts operations of one type ("read", "write", "refresh", ...); the
  /// result line reports the totals over all types.
  void CountOps(const std::string& type, uint64_t attempted, uint64_t failed);
  uint64_t attempted() const;
  uint64_t failed() const;

  bool correct() const;
  std::string ToJson(const std::string& workload) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
  struct CheckResult {
    bool ok = true;
    std::string detail;
  };
  std::map<std::string, CheckResult> checks_;
  struct OpCount {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, OpCount> ops_;
};

/// One recorded span: a call the benchmark made into a module.
struct Span {
  uint32_t name = 0;  ///< index into SpanRecorder names
  uint32_t parent = 0;  ///< span id of the caller's span, 0 for a root
  uint64_t request = 0;  ///< request id shared by one request's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span buffer; only its owning thread writes to it.
class SpanBuffer {
 public:
  SpanBuffer(uint32_t thread_index, bool enabled)
      : thread_index_(thread_index), enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  /// Records a finished span and returns its id (0 when disabled).
  uint32_t Add(uint32_t name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint64_t request);
  const std::vector<Span>& spans() const { return spans_; }
  uint32_t thread_index() const { return thread_index_; }

 private:
  uint32_t thread_index_;
  bool enabled_;
  std::vector<Span> spans_;
};

/// Owns the span names and every thread's buffer. Spans stay in memory and
/// are summarized (and optionally written out) after the run.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint32_t NameId(const std::string& name);
  /// A new buffer for one thread; valid for the recorder's lifetime.
  SpanBuffer* NewBuffer();
  size_t TotalSpans() const;
  /// Writes up to `max_spans` spans as CSV (name,start_ns,end_ns,parent,
  /// request,thread). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path, size_t max_spans) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
/// Peak resident set size of this process in MB.
double PeakRssMb();
/// Host-wide steal ticks from the first line of /proc/stat (0 if absent).
uint64_t HostStealTicks();
/// CPUs this process may run on (what `nproc` prints).
size_t UsableCpus();

}  // namespace perfbench

#endif  // SIMCARD_PERFBENCH_UTIL_H_
