#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "obs/json.h"

namespace perfbench {

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

void Record::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  std::lock_guard<std::mutex> lk(mu_);
  metrics_[name] = Metric{value, unit, samples};
}

void Record::SetTiming(const std::string& name, const Samples& s,
                       const std::string& unit) {
  Set(name + ".p50", s.Percentile(0.50), unit, s.size());
  Set(name + ".p99", s.Percentile(0.99), unit, s.size());
}

void Record::SetInfo(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lk(mu_);
  info_[key] = value;
}

void Record::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::lock_guard<std::mutex> lk(mu_);
  CheckResult& c = checks_[name];
  c.ok = c.ok && ok;
  if (!ok || c.detail.empty()) c.detail = detail;
}

void Record::CountOps(const std::string& type, uint64_t attempted,
                      uint64_t failed) {
  std::lock_guard<std::mutex> lk(mu_);
  OpCount& c = ops_[type];
  c.attempted += attempted;
  c.failed += failed;
}

uint64_t Record::attempted() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& [type, c] : ops_) n += c.attempted;
  return n;
}

uint64_t Record::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& [type, c] : ops_) n += c.failed;
  return n;
}

bool Record::correct() const {
  if (failed() != 0) return false;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

std::string Record::ToJson(const std::string& workload) const {
  using simcard::obs::JsonValue;
  const bool ok = correct();
  const uint64_t total_attempted = attempted();
  const uint64_t total_failed = failed();
  std::lock_guard<std::mutex> lk(mu_);
  auto count = [](uint64_t n) {
    return JsonValue::Int(static_cast<int64_t>(n));
  };
  JsonValue ops = JsonValue::Object();
  for (const auto& [type, c] : ops_) {
    JsonValue op = JsonValue::Object();
    op.Set("attempted", count(c.attempted));
    op.Set("failed", count(c.failed));
    ops.Set(type, std::move(op));
  }
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, m] : metrics_) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", JsonValue::Number(m.value));
    metric.Set("unit", JsonValue::Str(m.unit));
    if (m.samples > 0) metric.Set("samples", count(m.samples));
    metrics.Set(name, std::move(metric));
  }
  JsonValue checks = JsonValue::Object();
  for (const auto& [name, c] : checks_) {
    JsonValue check = JsonValue::Object();
    check.Set("ok", JsonValue::Bool(c.ok));
    check.Set("detail", JsonValue::Str(c.detail));
    checks.Set(name, std::move(check));
  }
  JsonValue info = JsonValue::Object();
  for (const auto& [key, value] : info_) info.Set(key, JsonValue::Str(value));

  JsonValue out = JsonValue::Object();
  out.Set("workload", JsonValue::Str(workload));
  out.Set("correct", JsonValue::Bool(ok));
  out.Set("attempted", count(total_attempted));
  out.Set("failed", count(total_failed));
  out.Set("ops", std::move(ops));
  out.Set("metrics", std::move(metrics));
  out.Set("checks", std::move(checks));
  out.Set("record", std::move(info));
  return out.Dump();
}

uint32_t SpanBuffer::Add(uint32_t name, int64_t start_ns, int64_t end_ns,
                         uint32_t parent, uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  // Ids are unique per buffer and never 0; the thread index rides in the
  // top byte so a parent id names its buffer too.
  return (thread_index_ << 24) | static_cast<uint32_t>(spans_.size());
}

uint32_t SpanRecorder::NameId(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

SpanBuffer* SpanRecorder::NewBuffer() {
  std::lock_guard<std::mutex> lk(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<uint32_t>(buffers_.size() + 1), enabled_));
  return buffers_.back().get();
}

size_t SpanRecorder::TotalSpans() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans().size();
  return n;
}

bool SpanRecorder::WriteCsv(const std::string& path, size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "name,start_ns,end_ns,parent,request,thread\n";
  size_t written = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      if (written++ >= max_spans) return static_cast<bool>(out);
      out << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << ','
          << s.parent << ',' << s.request << ',' << buffer->thread_index()
          << '\n';
    }
  }
  return static_cast<bool>(out);
}

double ProcessCpuSeconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

uint64_t HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (uint64_t& f : fields) {
    if (!(in >> f)) return 0;
  }
  return fields[7];  // user nice system idle iowait irq softirq steal
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

}  // namespace perfbench
