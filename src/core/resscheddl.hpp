// RESSCHEDDL — meeting a deadline under advance reservations (paper §5).
//
// All algorithms schedule tasks *backwards*: in increasing bottom-level
// order (successors first), each task must finish by the minimum start time
// of its already-scheduled successors (or by the application deadline K for
// the exit task), and receives a reservation as late as possible so that
// the tasks above it in the DAG keep room between "now" and their own
// deadlines. Bottom levels use the BL_CPAR method throughout (§5.2).
//
// Aggressive algorithms (§5.2.1) pick the <procs, start> pair with the
// latest start time, with the processor count bounded by p (DL_BD_ALL), the
// CPA(p) allocation (DL_BD_CPA), or the CPA(q) allocation (DL_BD_CPAR).
//
// Resource-conservative algorithms (§5.2.2) first compute a CPA guideline
// schedule for the still-unscheduled sub-DAG; the task's start S_i^cpa in
// it separates "too early — the unscheduled ancestors get less room than
// even CPA needs, so the deadline is likely missed" from "later than
// needed". The guideline is scaled to the deadline budget,
//
//     S_i = now + max(1, (K − now) / M) * S_i^cpa,
//
// where M is the whole application's CPA makespan, so that with a tight
// deadline the thresholds reproduce the CPA schedule and with a loose one
// they spread proportionally across the available time. Each task then
// takes the *fewest* processors whose latest feasible start is at or after
// S_i — few processors to save CPU-hours, a late start to leave room for
// the tasks above — reverting to an aggressive (latest-start, CPA-bounded)
// choice when no pair qualifies.
//
// Worst-case complexities (paper Table 8) mirror the RESSCHED family with
// R replaced by R', the reservations before the deadline; the aggressive
// algorithms match their forward counterparts exactly:
//
//   DL_BD_ALL        O(V^2 P' + V^2 P + V E P' + V R' P)
//   DL_BD_CPA        O(V^2 P' + V^2 P + V E P' + V E P + V R' P)
//   DL_BD_CPAR       O(V^2 P' + V E P' + V R' P')
//   DL_RC_CPA        O(V^2 P' + V^2 P + V E P' + V E P + V R' P)
//   DL_RC_CPAR(-λ)   O(V^2 P' + V E P' + V R' P')
//
// The conservative algorithms add one CPA guideline schedule per task —
// asymptotically absorbed by the V (V+E) P' term but a large constant
// factor in practice (the paper's 10-90x). cpa::guideline_starts computes
// the whole series on the flat CPA kernel, without rebuilding a sub-DAG
// per task, which leaves that factor at about 20-35x at V = 100 (Table 9's
// bench, EXPERIMENTS.md). The kernel's grants along an unchanged critical
// chain skip their sweeps, but not in the worst case, which is unchanged.
//
// The hybrid DL_RC_CPAR-λ (§5.4) relaxes the threshold to
// S_i + λ (dl_i − S_i) and retries with growing λ (step 0.05) until the
// deadline is met: λ = 0 is DL_RC_CPAR; λ = 1 always falls back, i.e.
// DL_BD_CPA. DL_RCBD_CPAR-λ additionally bounds the fallback allocation by
// the CPA(q) allocation instead of CPA(p).
#pragma once

#include <optional>

#include "src/core/schedule.hpp"
#include "src/cpa/cpa.hpp"
#include "src/dag/dag.hpp"
#include "src/resv/profile.hpp"

namespace resched::core {

enum class DlAlgo {
  kBdAll,           ///< DL_BD_ALL
  kBdCpa,           ///< DL_BD_CPA
  kBdCpar,          ///< DL_BD_CPAR
  kRcCpa,           ///< DL_RC_CPA
  kRcCpar,          ///< DL_RC_CPAR
  kRcCparLambda,    ///< DL_RC_CPAR-λ (adaptive λ)
  kRcbdCparLambda,  ///< DL_RCBD_CPAR-λ (adaptive λ, bounded fallback)
};

const char* to_string(DlAlgo algo);

/// How the adaptive algorithms locate the smallest feasible λ on the
/// 0, step, ..., 1 ladder. The paper scans linearly; binary search needs
/// O(log) passes instead of O(1/step) and returns the same λ whenever
/// feasibility is monotone in λ (which it is empirically — larger λ only
/// moves thresholds toward the aggressive algorithm).
enum class LambdaSearch { kLinear, kBinary };

struct DeadlineParams {
  DlAlgo algo = DlAlgo::kRcbdCparLambda;
  /// Fixed λ for kRcCpa / kRcCpar (0 = the paper's base RC algorithms).
  double lambda = 0.0;
  /// λ ladder step for the adaptive algorithms (paper uses 0.05).
  double lambda_step = 0.05;
  LambdaSearch lambda_search = LambdaSearch::kLinear;
  cpa::Options cpa;
};

struct DeadlineResult {
  bool feasible = false;
  AppSchedule schedule;     ///< meaningful only when feasible
  double cpu_hours = 0.0;   ///< meaningful only when feasible
  double lambda_used = 0.0; ///< λ that met the deadline (adaptive variants)
};

/// Precomputed per-instance state shared across deadline probes: the task
/// order, the CPA allocation bounds, and the CPA guideline start times
/// relative to the schedule origin (which depend only on the DAG and q —
/// not on the deadline, λ, or the calendar — so binary searches reuse them
/// freely; the deadline-budget stretch is applied at use time). Every
/// context holds `order` and `cpa_alloc_q`, from which the order derives; of
/// the other fields it holds only those context_needs(algo) names, the rest
/// stay empty (0).
struct DeadlineContext {
  std::vector<int> order;               ///< increasing bottom level
  std::vector<int> cpa_alloc_p;         ///< CPA allocations with q = p
  std::vector<int> cpa_alloc_q;         ///< CPA allocations with q = q_hist
  std::vector<double> guideline_rel_p;  ///< S_i^cpa per task, q = p
  std::vector<double> guideline_rel_q;  ///< S_i^cpa per task, q = q_hist
  double cpa_makespan_p = 0.0;          ///< full-DAG CPA makespan, q = p
  double cpa_makespan_q = 0.0;          ///< full-DAG CPA makespan, q = q_hist
};

/// Which guideline-start vectors an algorithm reads (the expensive part;
/// one CPA sub-schedule per task each): guideline_rel_p and cpa_makespan_p
/// for kP, guideline_rel_q and cpa_makespan_q for kQ.
enum class GuidelineSet { kNone, kP, kQ };

/// The context fields an algorithm reads beyond `order` and `cpa_alloc_q`,
/// which every context holds.
struct ContextNeeds {
  bool alloc_p = false;  ///< cpa_alloc_p
  GuidelineSet guidelines = GuidelineSet::kNone;
};

/// The one per-algorithm table of context reads: CPA(p) as the latest-start
/// bound (DL_BD_CPA, DL_RC_CPA) or the conservative fallback bound
/// (DL_RC_CPAR, DL_RC_CPAR-λ); the q = p guidelines for DL_RC_CPA and the
/// q = q_hist guidelines for the other conservative algorithms.
ContextNeeds context_needs(DlAlgo algo);

/// Builds the context for params.algo (with params.cpa), computing only the
/// fields that algorithm reads.
DeadlineContext make_deadline_context(const dag::Dag& dag, int p, int q_hist,
                                      const DeadlineParams& params);

/// Attempts to schedule the application so it completes by `deadline`.
DeadlineResult schedule_deadline(const dag::Dag& dag,
                                 const resv::AvailabilityProfile& competing,
                                 double now, int q_hist, double deadline,
                                 const DeadlineParams& params);

/// Context-reusing overload for deadline searches. `ctx` must come from
/// make_deadline_context for the same DAG, p = competing.capacity(), q_hist
/// and params (algo and cpa options): a context built for another algorithm
/// may lack a field this one reads, which throws resched::Error.
DeadlineResult schedule_deadline(const dag::Dag& dag,
                                 const resv::AvailabilityProfile& competing,
                                 double now, int q_hist, double deadline,
                                 const DeadlineParams& params,
                                 const DeadlineContext& ctx);

}  // namespace resched::core
