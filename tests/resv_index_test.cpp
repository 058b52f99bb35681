// Differential and property suite for the indexed availability profile.
//
// The indexed AvailabilityProfile (treap-backed StepIndex) must be
// observationally *byte-identical* to the legacy linear-scan implementation
// (resv::LinearProfile, the oracle) — same fit starts to the last ulp, same
// breakpoints, same canonical steps — across arbitrary interleavings of
// add / release / commit / rollback / compact. The randomized sequences are
// seeded (every failure is replayable from its seed) and shrinkable: on a
// mismatch the harness greedily deletes op-groups (an add with its paired
// release, a commit with its rollback) while the failure reproduces, then
// reports the minimal sequence.
//
// Copy-on-write views (AvailabilityProfile::view()) get the same treatment:
// every view must answer exactly as a deep copy given the same ops, and as
// the oracle does, without ever writing the calendar it was taken from —
// including when many threads schedule against one shared calendar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ressched.hpp"
#include "src/core/resscheddl.hpp"
#include "src/dag/daggen.hpp"
#include "src/resv/linear_profile.hpp"
#include "src/resv/profile.hpp"
#include "src/resv/step_index.hpp"
#include "src/util/rng.hpp"
#include "tests/fit_probe.hpp"

namespace {

using namespace resched;
using resv::AvailabilityProfile;
using fit_probe::FitProbe;
using resv::LinearProfile;
using resv::Reservation;

struct Op {
  enum Kind { kAdd, kRelease, kCommit, kRollback, kCompact } kind;
  int id = 0;  // pairs an add/commit with its release/rollback for shrinking
  Reservation r;                    // kAdd / kRelease
  std::vector<Reservation> group;   // kCommit
  double horizon = 0.0;             // kCompact
  bool on_view = false;  // view suite: applied to the views, not the base
};

const char* to_string(Op::Kind kind) {
  switch (kind) {
    case Op::kAdd: return "add";
    case Op::kRelease: return "release";
    case Op::kCommit: return "commit";
    case Op::kRollback: return "rollback";
    case Op::kCompact: return "compact";
  }
  return "?";
}

std::string describe(const Op& op) {
  std::ostringstream out;
  out.precision(17);
  out << to_string(op.kind) << "#" << op.id << (op.on_view ? " [view]" : "");
  if (op.kind == Op::kAdd || op.kind == Op::kRelease)
    out << " {" << op.r.start << ", " << op.r.end << ", " << op.r.procs << "}";
  if (op.kind == Op::kCommit) out << " (" << op.group.size() << " resv)";
  if (op.kind == Op::kCompact) out << " horizon=" << op.horizon;
  return out.str();
}

Reservation random_reservation(util::Rng& rng, int capacity) {
  double start = rng.uniform(-20.0, 200.0) * 3600.0;
  double shape = rng.uniform(0.0, 1.0);
  double dur;
  if (shape < 0.15) {
    dur = rng.uniform(1e-6, 1.0);  // sliver
  } else if (shape < 0.3) {
    dur = rng.uniform(20.0, 30.0) * 3600.0;  // long block
  } else {
    dur = rng.uniform(0.1, 8.0) * 3600.0;
  }
  // Zero-proc (no-op), full-machine, and oversubscribing reservations all
  // must behave identically in both implementations.
  int procs = static_cast<int>(rng.uniform_int(0, capacity + capacity / 2));
  // Snap some boundaries to round hours so reservations abut exactly.
  if (rng.uniform(0.0, 1.0) < 0.3) start = std::round(start / 3600.0) * 3600.0;
  if (rng.uniform(0.0, 1.0) < 0.3) dur = std::max(1.0, std::round(dur));
  return {start, start + dur, procs};
}

/// Generates a seeded op sequence. Releases and rollbacks target live
/// reservations/tokens; compact invalidates anything starting before its
/// horizon (mirroring how the online engine ages out old calendar state).
std::vector<Op> generate_ops(std::uint64_t seed, int length, int capacity) {
  util::Rng rng(util::derive_seed(0x1D10, {seed}));
  std::vector<Op> ops;
  std::vector<Op> live_adds;      // adds not yet released
  std::vector<Op> live_commits;   // commits not yet rolled back
  int next_id = 0;
  for (int i = 0; i < length; ++i) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.45 || (live_adds.empty() && live_commits.empty())) {
      Op op{Op::kAdd, next_id++, random_reservation(rng, capacity), {}, 0.0};
      ops.push_back(op);
      live_adds.push_back(op);
    } else if (dice < 0.6 && !live_adds.empty()) {
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_adds.size()) - 1));
      Op op = live_adds[pick];
      live_adds.erase(live_adds.begin() + static_cast<std::ptrdiff_t>(pick));
      op.kind = Op::kRelease;
      ops.push_back(op);
    } else if (dice < 0.75) {
      Op op{Op::kCommit, next_id++, {}, {}, 0.0};
      int n = static_cast<int>(rng.uniform_int(1, 5));
      for (int k = 0; k < n; ++k)
        op.group.push_back(random_reservation(rng, capacity));
      ops.push_back(op);
      live_commits.push_back(op);
    } else if (dice < 0.9 && !live_commits.empty()) {
      std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_commits.size()) - 1));
      Op op = live_commits[pick];
      live_commits.erase(live_commits.begin() +
                         static_cast<std::ptrdiff_t>(pick));
      op.kind = Op::kRollback;
      ops.push_back(op);
    } else {
      double horizon = rng.uniform(-30.0, 100.0) * 3600.0;
      ops.push_back({Op::kCompact, next_id++, {}, {}, horizon});
      // Anything straddling or preceding the horizon can no longer be
      // released safely; age it out like the online engine does.
      auto stale = [horizon](const Op& op) { return op.r.start < horizon; };
      live_adds.erase(
          std::remove_if(live_adds.begin(), live_adds.end(), stale),
          live_adds.end());
      auto stale_commit = [horizon](const Op& op) {
        for (const Reservation& r : op.group)
          if (r.start < horizon) return true;
        return false;
      };
      live_commits.erase(std::remove_if(live_commits.begin(),
                                        live_commits.end(), stale_commit),
                         live_commits.end());
    }
  }
  return ops;
}

/// Answers `battery` on both profiles; a diagnostic on the first answer
/// that differs.
std::optional<std::string> first_divergence(const AvailabilityProfile& indexed,
                                            const LinearProfile& oracle,
                                            const std::vector<FitProbe>& battery) {
  auto got = fit_probe::answer_all(indexed, battery);
  auto want = fit_probe::answer_all(oracle, battery);
  for (std::size_t i = 0; i < battery.size(); ++i) {
    if (got[i] == want[i]) continue;
    const FitProbe& q = battery[i];
    std::ostringstream out;
    out.precision(17);
    out << q.name() << "(procs=" << q.procs << ", duration=" << q.duration
        << ", not_before=" << q.not_before << ", deadline=" << q.deadline
        << "): indexed=" << got[i] << " oracle=" << want[i];
    return out.str();
  }
  return std::nullopt;
}

/// First-free lookups for every count in `procs_choices` and capacity + 1,
/// which no segment reaches (at = +inf): one at a random time and three at
/// a random breakpoint — just before it, on it and just after it.
std::vector<FitProbe> lookup_battery(const AvailabilityProfile& profile,
                                     std::span<const int> procs_choices,
                                     util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> keys = profile.breakpoints();
  std::vector<int> counts(procs_choices.begin(), procs_choices.end());
  counts.push_back(profile.capacity() + 1);
  std::vector<FitProbe> lookups;
  for (int procs : counts) {
    lookups.push_back(
        FitProbe::first_free(procs, rng.uniform(-40.0, 220.0) * 3600.0));
    if (keys.empty()) continue;
    const double key = keys[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(keys.size()) - 1))];
    for (double t : {std::nextafter(key, -kInf), key,
                     std::nextafter(key, kInf)})
      lookups.push_back(FitProbe::first_free(procs, t));
  }
  return lookups;
}

/// Compares the full observable surface of both profiles; returns a
/// diagnostic on the first divergence.
std::optional<std::string> compare_profiles(const AvailabilityProfile& indexed,
                                            const LinearProfile& oracle,
                                            util::Rng& rng) {
  if (indexed.canonical_steps() != oracle.canonical_steps())
    return "canonical_steps diverged";
  if (indexed.breakpoints() != oracle.breakpoints())
    return "breakpoints diverged";

  const int cap = indexed.capacity();
  std::vector<FitProbe> queries;
  const int procs_choices[] = {1, cap / 4 + 1, cap / 2 + 1, std::max(1, cap - 1),
                               cap};
  for (int procs : procs_choices) {
    double duration = rng.uniform(0.1, 30.0 * 3600.0);
    double not_before = rng.uniform(-40.0, 220.0) * 3600.0;
    double deadline = not_before + rng.uniform(-1.0, 60.0) * 3600.0;
    queries.push_back(FitProbe::earliest(procs, duration, not_before));
    queries.push_back(FitProbe::latest(procs, duration, deadline, not_before));
  }
  if (auto failure = first_divergence(indexed, oracle, queries))
    return failure;

  for (int probe = 0; probe < 4; ++probe) {
    double t = rng.uniform(-40.0, 220.0) * 3600.0;
    if (indexed.available_at(t) != oracle.available_at(t))
      return "available_at diverged";
    double to = t + rng.uniform(0.1, 40.0 * 3600.0);
    if (indexed.min_available(t, to) != oracle.min_available(t, to))
      return "min_available diverged";
    if (indexed.average_available(t, to) != oracle.average_available(t, to))
      return "average_available diverged";
  }
  return first_divergence(indexed, oracle,
                          lookup_battery(indexed, procs_choices, rng));
}

/// Replays `ops` against both implementations, differentially checking
/// after every mutation. Returns a diagnostic on failure.
std::optional<std::string> run_sequence(std::uint64_t seed,
                                        const std::vector<Op>& ops,
                                        int capacity) {
  AvailabilityProfile indexed(capacity);
  LinearProfile oracle(capacity);
  std::vector<std::pair<int, AvailabilityProfile::CommitToken>> tokens;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kAdd:
        indexed.add(op.r);
        oracle.add(op.r);
        break;
      case Op::kRelease:
        indexed.release(op.r);
        oracle.release(op.r);
        break;
      case Op::kCommit:
        tokens.emplace_back(op.id, indexed.commit(op.group));
        for (const Reservation& r : op.group) oracle.add(r);
        break;
      case Op::kRollback: {
        auto it = std::find_if(tokens.begin(), tokens.end(),
                               [&](const auto& t) { return t.first == op.id; });
        if (it == tokens.end()) break;  // shrinking removed the commit
        indexed.rollback(it->second);
        for (auto r = op.group.rbegin(); r != op.group.rend(); ++r)
          oracle.release(*r);
        tokens.erase(it);
        break;
      }
      case Op::kCompact:
        indexed.compact(op.horizon);
        oracle.compact(op.horizon);
        // Tokens referencing pre-horizon state were invalidated by the
        // generator; forget them so rollback never touches them.
        tokens.erase(
            std::remove_if(tokens.begin(), tokens.end(),
                           [&](const auto& t) {
                             auto commit = std::find_if(
                                 ops.begin(), ops.end(), [&](const Op& o) {
                                   return o.kind == Op::kCommit &&
                                          o.id == t.first;
                                 });
                             for (const Reservation& r : commit->group)
                               if (r.start < op.horizon) return true;
                             return false;
                           }),
            tokens.end());
        break;
    }
    util::Rng query_rng(util::derive_seed(0x9E11, {seed, i}));
    if (auto failure = compare_profiles(indexed, oracle, query_rng)) {
      std::ostringstream out;
      out << "after op " << i << " [" << describe(op) << "]: " << *failure;
      return out.str();
    }
  }
  return std::nullopt;
}

/// Greedy group-wise shrinker: removes every op sharing an id at once (so
/// adds keep their releases, commits their rollbacks) while `fails` still
/// reports a failure.
template <typename Fails>
std::vector<Op> shrink(std::vector<Op> ops, const Fails& fails) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<int> ids;
    for (const Op& op : ops)
      if (std::find(ids.begin(), ids.end(), op.id) == ids.end())
        ids.push_back(op.id);
    for (int id : ids) {
      std::vector<Op> candidate;
      for (const Op& op : ops)
        if (op.id != id) candidate.push_back(op);
      if (candidate.size() == ops.size()) continue;
      if (fails(candidate)) {
        ops = std::move(candidate);
        changed = true;
      }
    }
  }
  return ops;
}

/// Runs `ops` through `run` (which returns a diagnostic on failure) and, on
/// a failure, fails the test with the minimal sequence that still fails.
template <typename Run>
void expect_sequence_passes(std::uint64_t seed, int capacity,
                            const std::vector<Op>& ops, const Run& run) {
  auto failure = run(ops);
  if (!failure) return;
  auto minimal = shrink(ops, [&](const std::vector<Op>& candidate) {
    return run(candidate).has_value();
  });
  std::ostringstream out;
  out << *failure << "\nminimal failing sequence (seed " << seed
      << ", capacity " << capacity << ", " << minimal.size() << " ops):\n";
  for (const Op& op : minimal) out << "  " << describe(op) << "\n";
  FAIL() << out.str();
}

class IndexDifferential : public ::testing::TestWithParam<int> {};

TEST_P(IndexDifferential, RandomMutationAndQuerySequencesMatchOracle) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const int capacity = 1 + static_cast<int>(seed % 96);
  expect_sequence_passes(
      seed, capacity, generate_ops(seed, 60, capacity),
      [&](const std::vector<Op>& ops) {
        return run_sequence(seed, ops, capacity);
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferential, ::testing::Range(0, 25));

// --- Copy-on-write views -----------------------------------------------------

using Tokens = std::vector<std::pair<int, AvailabilityProfile::CommitToken>>;

/// Applies one op. A rollback uses this profile's token when it issued the
/// commit, and otherwise releases the group in reverse (the commit was made
/// on the base before the view was taken).
void apply_op(AvailabilityProfile& profile, const Op& op, Tokens& tokens) {
  switch (op.kind) {
    case Op::kAdd: profile.add(op.r); break;
    case Op::kRelease: profile.release(op.r); break;
    case Op::kCommit:
      tokens.emplace_back(op.id, profile.commit(op.group));
      break;
    case Op::kRollback: {
      auto it = std::find_if(tokens.begin(), tokens.end(),
                             [&](const auto& t) { return t.first == op.id; });
      if (it != tokens.end()) {
        profile.rollback(it->second);
        tokens.erase(it);
        break;
      }
      for (auto r = op.group.rbegin(); r != op.group.rend(); ++r)
        profile.release(*r);
      break;
    }
    case Op::kCompact: profile.compact(op.horizon); break;
  }
}

void apply_op(LinearProfile& oracle, const Op& op) {
  switch (op.kind) {
    case Op::kAdd: oracle.add(op.r); break;
    case Op::kRelease: oracle.release(op.r); break;
    case Op::kCommit:
      for (const Reservation& r : op.group) oracle.add(r);
      break;
    case Op::kRollback:
      for (auto r = op.group.rbegin(); r != op.group.rend(); ++r)
        oracle.release(*r);
      break;
    case Op::kCompact: oracle.compact(op.horizon); break;
  }
}

/// What a write would change: the raw breakpoints (a redundant one
/// included, so a write that keeps the step function still shows), the
/// canonical steps, a fixed battery of fits and the reservation count.
struct Observed {
  std::vector<double> breakpoints;
  std::vector<std::pair<double, int>> steps;
  std::vector<FitProbe::Answer> fits;
  int reservations = 0;
  bool operator==(const Observed&) const = default;
};

std::vector<FitProbe> fit_battery(std::uint64_t seed, int capacity) {
  util::Rng rng(util::derive_seed(0xB477, {seed}));
  std::vector<FitProbe> queries;
  for (int k = 0; k < 12; ++k) {
    int procs = static_cast<int>(rng.uniform_int(1, capacity));
    double duration = rng.uniform(0.1, 30.0 * 3600.0);
    double not_before = rng.uniform(-40.0, 220.0) * 3600.0;
    double deadline = not_before + rng.uniform(-1.0, 60.0) * 3600.0;
    queries.push_back(FitProbe::earliest(procs, duration, not_before));
    queries.push_back(FitProbe::latest(procs, duration, deadline, not_before));
  }
  for (int k = 0; k < 6; ++k)
    queries.push_back(FitProbe::first_free(
        static_cast<int>(rng.uniform_int(1, capacity + 1)),
        rng.uniform(-40.0, 220.0) * 3600.0));
  return queries;
}

Observed observe(const AvailabilityProfile& profile,
                 const std::vector<FitProbe>& battery) {
  return {profile.breakpoints(), profile.canonical_steps(),
          fit_probe::answer_all(profile, battery),
          profile.reservation_count()};
}

/// Builds the base from the ops not marked on_view (plus a redundant
/// breakpoint), then replays the on_view ops against a view of it, a deep
/// copy and the oracle, checking after every op that the three agree and
/// that the base is untouched. Alongside run a second live view of the
/// same base written differently, and at the midpoint a moved view, a copy
/// of the view and a view of the view. Returns a diagnostic on failure.
std::optional<std::string> run_view_sequence(std::uint64_t seed,
                                             const std::vector<Op>& ops,
                                             int capacity) {
  AvailabilityProfile base(capacity);
  LinearProfile oracle_base(capacity);
  Tokens base_tokens;
  std::size_t i = 0;
  for (; i < ops.size() && !ops[i].on_view; ++i) {
    apply_op(base, ops[i], base_tokens);
    apply_op(oracle_base, ops[i]);
  }
  // Two abutting equal reservations leave a breakpoint at 501 h whose value
  // repeats its predecessor's.
  for (const Reservation& r : {Reservation{500 * 3600.0, 501 * 3600.0, 1},
                               Reservation{501 * 3600.0, 502 * 3600.0, 1}}) {
    base.add(r);
    oracle_base.add(r);
  }

  const std::vector<FitProbe> battery = fit_battery(seed, capacity);
  const Observed base_before = observe(base, battery);
  AvailabilityProfile view = base.view();
  AvailabilityProfile deep = base;
  LinearProfile oracle = oracle_base;
  AvailabilityProfile sibling = base.view();
  AvailabilityProfile sibling_deep = base;
  Tokens view_tokens, deep_tokens;
  util::Rng sibling_rng(util::derive_seed(0x51B1, {seed}));
  const std::size_t midpoint = i + (ops.size() - i) / 2;

  for (; i < ops.size(); ++i) {
    const Op& op = ops[i];
    std::ostringstream where;
    where << "after op " << i << " [" << describe(op) << "]: ";
    if (i == midpoint) {
      // Moving keeps the view's tag, so it goes on sharing the base; a
      // copy of the view and a view of the view, each written once, must
      // leave it alone and agree with each other.
      AvailabilityProfile moved(std::move(view));
      view = std::move(moved);
      const Observed view_before = observe(view, battery);
      AvailabilityProfile copy = view;
      AvailabilityProfile nested = view.view();
      Tokens copy_tokens = view_tokens, nested_tokens = view_tokens;
      apply_op(copy, op, copy_tokens);
      apply_op(nested, op, nested_tokens);
      if (observe(view, battery) != view_before)
        return where.str() + "a copy or a view of the view wrote it";
      if (observe(nested, battery) != observe(copy, battery))
        return where.str() + "a view of a view diverged from a deep copy";
    }
    apply_op(view, op, view_tokens);
    apply_op(deep, op, deep_tokens);
    apply_op(oracle, op);
    const Reservation extra = random_reservation(sibling_rng, capacity);
    sibling.add(extra);
    sibling_deep.add(extra);

    util::Rng query_rng(util::derive_seed(0x9E12, {seed, i}));
    if (auto failure = compare_profiles(view, oracle, query_rng))
      return where.str() + "view vs oracle: " + *failure;
    if (observe(view, battery) != observe(deep, battery))
      return where.str() + "view diverged from a deep copy";
    if (observe(sibling, battery) != observe(sibling_deep, battery))
      return where.str() + "second view diverged from its deep copy";
    if (observe(base, battery) != base_before)
      return where.str() + "a view wrote its base";
  }
  util::Rng query_rng(util::derive_seed(0x9E13, {seed}));
  if (auto failure = compare_profiles(base, oracle_base, query_rng))
    return "base vs oracle after the views: " + *failure;
  return std::nullopt;
}

class ViewDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ViewDifferential, ViewsAnswerAsDeepCopiesAndNeverWriteTheBase) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const int capacity = 1 + static_cast<int>((seed * 37) % 96);
  auto ops = generate_ops(util::derive_seed(0x71E3, {seed}), 70, capacity);
  for (std::size_t i = 40; i < ops.size(); ++i) ops[i].on_view = true;
  expect_sequence_passes(seed, capacity, ops,
                         [&](const std::vector<Op>& candidate) {
                           return run_view_sequence(seed, candidate, capacity);
                         });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewDifferential, ::testing::Range(0, 25));

TEST(ResvView, WritesCopyOnlyTheNodesTheyTouch) {
  resv::StepIndex base(64);
  for (int i = 0; i < 4096; ++i)
    base.range_add(i * 600.0, i * 600.0 + 3600.0 + (i % 7), -1);
  ASSERT_GT(base.size(), 7000u);
  const resv::StepIndex::PoolStats base_stats = base.pool_stats();

  resv::StepIndex view = base.view();
  EXPECT_EQ(view.size(), base.size());
  EXPECT_EQ(view.pool_stats().created, 0u);  // taking a view copies nothing
  // Ten adds spread across the whole calendar, each on its own tree path.
  for (int i = 0; i < 10; ++i)
    view.range_add(123.0 + i * 240000.0, 153.0 + i * 240000.0, -2);
  // Each add copies the O(log R) nodes on its split and merge paths; a
  // deep copy would have created every one of the base's nodes.
  EXPECT_LT(view.pool_stats().created, base.size() / 4);
  EXPECT_EQ(base.pool_stats().created, base_stats.created);
  for (int i = 0; i < 10; ++i) {
    const double t = 133.0 + i * 240000.0;
    EXPECT_EQ(view.value_at(t), base.value_at(t) - 2) << "t=" << t;
  }
}

bool same_schedule(const core::AppSchedule& a, const core::AppSchedule& b) {
  if (a.tasks.size() != b.tasks.size()) return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i)
    if (a.tasks[i].procs != b.tasks[i].procs ||
        a.tasks[i].start != b.tasks[i].start ||
        a.tasks[i].finish != b.tasks[i].finish)
      return false;
  return true;
}

TEST(ResvView, ConcurrentPassesOnOneSharedCalendarMatchOneThread) {
  // Four threads run the engine's two passes — RESSCHED and DL_RCBD_CPAR-λ
  // RESSCHEDDL — against one shared const calendar at once; each pass
  // plans on its own view of it.
  constexpr int kProcs = 64;
  util::Rng rng(0xC0C0);
  resv::ReservationList list;
  for (int i = 0; i < 600; ++i) {
    double start = rng.uniform(0.0, 3 * 86400.0);
    list.push_back({start, start + rng.uniform(0.5, 6.0) * 3600.0,
                    static_cast<int>(rng.uniform_int(1, kProcs / 2))});
  }
  const AvailabilityProfile calendar(kProcs, list);
  std::vector<dag::Dag> dags;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    util::Rng dag_rng(util::derive_seed(0xDA6, {seed}));
    dag::DagSpec spec;
    spec.num_tasks = 10;
    dags.push_back(dag::generate(spec, dag_rng));
  }

  struct Outcome {
    core::AppSchedule forward;
    std::vector<std::optional<core::AppSchedule>> deadline;
  };
  auto run_all = [&] {
    std::vector<Outcome> out;
    for (std::size_t j = 0; j < dags.size(); ++j) {
      const double now = 3600.0 * static_cast<double>(j);
      Outcome o;
      auto fwd = core::schedule_ressched(dags[j], calendar, now, 40, {});
      o.forward = fwd.schedule;
      for (double stretch : {1.05, 2.0}) {
        auto dl = core::schedule_deadline(dags[j], calendar, now, 40,
                                          now + stretch * fwd.turnaround, {});
        o.deadline.push_back(dl.feasible ? std::optional(dl.schedule)
                                         : std::nullopt);
      }
      out.push_back(std::move(o));
    }
    return out;
  };

  const auto before = calendar.breakpoints();
  const std::vector<Outcome> serial = run_all();
  std::vector<std::vector<Outcome>> per_thread(4);
  {
    std::latch start(static_cast<std::ptrdiff_t>(per_thread.size()));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < per_thread.size(); ++t)
      threads.emplace_back([&, t] {
        start.arrive_and_wait();  // all four passes overlap from the start
        per_thread[t] = run_all();
      });
    for (std::thread& thread : threads) thread.join();
  }
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    ASSERT_EQ(per_thread[t].size(), serial.size());
    for (std::size_t j = 0; j < serial.size(); ++j) {
      EXPECT_TRUE(same_schedule(per_thread[t][j].forward, serial[j].forward))
          << "thread " << t << " job " << j;
      for (std::size_t k = 0; k < serial[j].deadline.size(); ++k) {
        const auto& got = per_thread[t][j].deadline[k];
        const auto& want = serial[j].deadline[k];
        ASSERT_EQ(got.has_value(), want.has_value())
            << "thread " << t << " job " << j << " deadline " << k;
        if (want) {
          EXPECT_TRUE(same_schedule(*got, *want));
        }
      }
    }
  }
  EXPECT_EQ(calendar.breakpoints(), before);
}

// --- Directed edge cases ---------------------------------------------------

TEST(ResvIndex, AddThenReleaseRestoresCanonicalSteps) {
  AvailabilityProfile profile(16);
  profile.add({0.0, 100.0, 4});
  auto before = profile.canonical_steps();
  Reservation r{10.0, 50.0, 7};
  profile.add(r);
  profile.release(r);
  EXPECT_EQ(before, profile.canonical_steps());
}

TEST(ResvIndex, CopyIsIndependentOfTheOriginal) {
  AvailabilityProfile profile(8);
  profile.add({0.0, 10.0, 3});
  AvailabilityProfile copy = profile;
  copy.add({0.0, 10.0, 5});
  EXPECT_EQ(5, profile.available_at(5.0));
  EXPECT_EQ(0, copy.available_at(5.0));
  profile = copy;
  EXPECT_EQ(0, profile.available_at(5.0));
}

TEST(ResvIndex, AbuttingReservationsLeaveNoGap) {
  AvailabilityProfile indexed(4);
  LinearProfile oracle(4);
  for (int i = 0; i < 10; ++i) {
    Reservation r{i * 10.0, (i + 1) * 10.0, 4};
    indexed.add(r);
    oracle.add(r);
  }
  EXPECT_EQ(oracle.earliest_fit(1, 5.0, 0.0),
            indexed.earliest_fit(1, 5.0, 0.0));
  EXPECT_EQ(std::optional<double>(100.0), indexed.earliest_fit(1, 5.0, 0.0));
  EXPECT_EQ(oracle.latest_fit(4, 10.0, 100.0, -50.0),
            indexed.latest_fit(4, 10.0, 100.0, -50.0));
}

TEST(ResvIndex, CompactMatchesOracleThroughFurtherMutations) {
  AvailabilityProfile indexed(12);
  LinearProfile oracle(12);
  for (int i = 0; i < 8; ++i) {
    Reservation r{i * 100.0, i * 100.0 + 150.0, 1 + i % 5};
    indexed.add(r);
    oracle.add(r);
  }
  indexed.compact(340.0);
  oracle.compact(340.0);
  EXPECT_EQ(oracle.canonical_steps(), indexed.canonical_steps());
  Reservation late{900.0, 1200.0, 12};
  indexed.add(late);
  oracle.add(late);
  EXPECT_EQ(oracle.canonical_steps(), indexed.canonical_steps());
  EXPECT_EQ(oracle.earliest_fit(12, 200.0, 0.0),
            indexed.earliest_fit(12, 200.0, 0.0));
}

}  // namespace
