// simcard_perfbench: runs one benchmark workload and prints its full run
// record (metrics, operation counts, checks, environment) as one JSON line.
//
//   simcard_perfbench --workload plan|bulk|ingest|scatter --seed N
//                     --seconds S --trace 0|1 [--scale tiny|small]
//                     [--out-dir DIR]
//
// perfbench/run.py builds this binary and turns the record into the
// benchmark's result line.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scale") {
      auto scale = simcard::ParseScale(value);
      if (!scale.ok()) return false;
      args->scale = scale.value();
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return !args->workload.empty() && args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simcard_perfbench --workload plan|bulk|ingest|"
                 "scatter --seed N --seconds S --trace 0|1 [--scale "
                 "tiny|small] [--out-dir DIR]\n");
    return 2;
  }
  mkdir(args.out_dir.c_str(), 0755);
  Record record;
  const uint64_t steal_before = HostStealTicks();
  int rc = 0;
  if (args.workload == "plan" || args.workload == "bulk") {
    rc = RunServeWorkload(args, args.workload == "plan", &record);
  } else if (args.workload == "ingest") {
    rc = RunIngest(args, &record);
  } else if (args.workload == "scatter") {
    rc = RunScatter(args, &record);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  const uint64_t steal_after = HostStealTicks();
  record.Set("proc.cpu_s", ProcessCpuSeconds(), "s");
  record.Set("proc.steal_ticks",
             static_cast<double>(steal_after - steal_before), "count");
  record.SetInfo("steal_ticks.before", std::to_string(steal_before));
  record.SetInfo("steal_ticks.after", std::to_string(steal_after));
  std::cout << record.ToJson(args.workload) << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
