// Umbrella header: the full resched public API.
//
// Include this for everything, or the individual headers for the pieces:
//
//   dag/       application model (DAG, generator, Amdahl tasks)
//   resv/      reservation calendars and the batch-scheduler facade
//   workload/  SWF logs, synthetic logs, reservation-schedule synthesis
//   cpa/       the CPA algorithm
//   core/      RESSCHED / RESSCHEDDL schedulers and metrics
//   icaslb/    one-step iCASLB scheduler (extension)
//   multi/     multi-cluster platforms and schedulers (extension)
//   io/        DAG / calendar / schedule file formats
//   sim/       experiment framework, tables, Gantt rendering
#pragma once

#include "src/core/algorithms.hpp"
#include "src/core/blind_ressched.hpp"
#include "src/core/dynamic.hpp"
#include "src/core/pessimism.hpp"
#include "src/core/ressched.hpp"
#include "src/core/resscheddl.hpp"
#include "src/core/schedule.hpp"
#include "src/core/tightest_deadline.hpp"
#include "src/cpa/cpa.hpp"
#include "src/cpa/list_schedule.hpp"
#include "src/dag/dag.hpp"
#include "src/dag/daggen.hpp"
#include "src/dag/dot.hpp"
#include "src/dag/task_model.hpp"
#include "src/icaslb/icaslb.hpp"
#include "src/io/calendar_format.hpp"
#include "src/io/dag_format.hpp"
#include "src/multi/deadline_multi.hpp"
#include "src/multi/platform.hpp"
#include "src/multi/ressched_multi.hpp"
#include "src/resv/batch_scheduler.hpp"
#include "src/resv/profile.hpp"
#include "src/resv/reservation.hpp"
#include "src/sim/experiment.hpp"
#include "src/sim/gantt.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/table.hpp"
#include "src/util/env.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/worker_pool.hpp"
#include "src/workload/log.hpp"
#include "src/workload/stats.hpp"
#include "src/workload/swf.hpp"
#include "src/workload/synth.hpp"
#include "src/workload/tagging.hpp"
