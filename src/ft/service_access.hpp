// The single, named door into SchedulerService internals (DESIGN.md §8).
//
// src/online/ stays free of repair policy: the service exposes generic
// mechanisms (versioned events, live placement state, a disruption
// callback) and declares exactly one friend — this struct. Everything the
// repair engine and the checkpointer need (the calendar, the committed
// list, the event queue, per-job live state, metrics internals) flows
// through these static accessors, so the coupling surface is grep-able and
// the service's private state stays private to every other client.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/online/online_metrics.hpp"
#include "src/online/service.hpp"

namespace resched::ft {

struct ServiceAccess {
  using Service = online::SchedulerService;

  static const online::ServiceConfig& config(const Service& s) {
    return s.config_;
  }
  /// The calendar `s` is currently bound to. Every accessor on this struct
  /// takes the target service explicitly — in a sharded deployment
  /// (DESIGN.md §9) each shard owns its own engine + calendar pair, and a
  /// repair of shard A must resolve A's calendar, never a global one. In
  /// bound mode this is the shard's calendar, not a member of `s`.
  static resv::AvailabilityProfile& profile(Service& s) { return *s.profile_; }
  static online::EventQueue& queue(Service& s) { return s.queue_; }
  static resv::ReservationList& committed(Service& s) { return s.committed_; }
  static std::vector<online::JobOutcome>& outcomes(Service& s) {
    return s.outcomes_;
  }
  static std::map<std::uint64_t, online::JobSubmission>& pending_jobs(
      Service& s) {
    return s.pending_jobs_;
  }
  static std::map<std::uint64_t, resv::Reservation>& pending_resv(Service& s) {
    return s.pending_resv_;
  }
  static std::map<int, Service::LiveJob>& live_jobs(Service& s) {
    return s.live_jobs_;
  }
  static std::map<int, Service::ExternalResv>& externals(Service& s) {
    return s.externals_;
  }
  static std::set<int>& retired_jobs(Service& s) { return s.retired_jobs_; }
  static online::OnlineMetrics& metrics(Service& s) { return s.metrics_; }
  static double& now(Service& s) { return s.now_; }
  static int& used_procs(Service& s) { return s.used_procs_; }
  static int& next_external_id(Service& s) { return s.next_external_id_; }
  static std::uint64_t& stale_events(Service& s) { return s.stale_events_; }
  /// Restored by reschedd's snapshot envelope, which carries it beside the
  /// checkpoint (src/srv/server_core.cpp).
  static std::uint64_t& events_processed(Service& s) {
    return s.events_processed_;
  }
  static bool& ft_active(Service& s) { return s.ft_active_; }

  static void change_usage(Service& s, double t, int delta) {
    s.change_usage(t, delta);
  }
  static void trace(Service& s, const online::TraceRecord& record) {
    if (s.trace_ != nullptr) s.trace_->write(record);
  }

  // --- OnlineMetrics internals (checkpoint serialization) -----------------
  struct MetricsState {
    int submitted, accepted, counter_offered, rejected;
    std::vector<double> turnaround, wait, stretch;
    double total_cpu_hours;
    std::vector<online::UtilizationPoint> timeline;
  };
  static MetricsState metrics_state(const online::OnlineMetrics& m) {
    return {m.submitted_, m.accepted_,       m.counter_offered_,
            m.rejected_,  m.turnaround_,     m.wait_,
            m.stretch_,   m.total_cpu_hours_, m.timeline_};
  }
  static void set_metrics_state(online::OnlineMetrics& m, MetricsState state) {
    m.submitted_ = state.submitted;
    m.accepted_ = state.accepted;
    m.counter_offered_ = state.counter_offered;
    m.rejected_ = state.rejected;
    m.turnaround_ = std::move(state.turnaround);
    m.wait_ = std::move(state.wait);
    m.stretch_ = std::move(state.stretch);
    m.total_cpu_hours_ = state.total_cpu_hours;
    m.timeline_ = std::move(state.timeline);
  }
};

}  // namespace resched::ft
