// Entry points of the four workloads. Each sets up its model(s), warms up,
// runs its closed-loop traffic for Args::seconds, checks every answer, and
// scores the held-out probe pass. With Args::trace it instead splits the
// measured time into an untraced and a traced half and adds the per-layer
// replays. Each returns 0 when the run completed (correct or not) and
// non-zero when it could not run at all.
#ifndef SIMCARD_PERFBENCH_WORKLOADS_H_
#define SIMCARD_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// plan (`plan` = true) or bulk.
int RunServeWorkload(const Args& args, bool plan, Record* record);
int RunIngest(const Args& args, Record* record);
int RunScatter(const Args& args, Record* record);

}  // namespace perfbench

#endif  // SIMCARD_PERFBENCH_WORKLOADS_H_
