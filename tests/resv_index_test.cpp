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
// Calendars built from a list (the one-pass sorted build behind
// AvailabilityProfile(capacity, reservations)) must hold the tree the same
// list's adds would build, node for node, and go on answering as that
// build and the oracle do through later mutations and views.
//
// Copy-on-write views (AvailabilityProfile::view()) get the same treatment:
// every view must answer exactly as a deep copy given the same ops, and as
// the oracle does, without ever writing the calendar it was taken from —
// including when many threads schedule against one shared calendar.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
#include "src/obs/obs.hpp"
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
/// Reservations of `initial` (the list a calendar was built from) are live
/// from the start, so releases may target them too.
std::vector<Op> generate_ops(std::uint64_t seed, int length, int capacity,
                             std::span<const Reservation> initial = {}) {
  util::Rng rng(util::derive_seed(0x1D10, {seed}));
  std::vector<Op> ops;
  std::vector<Op> live_adds;      // adds not yet released
  std::vector<Op> live_commits;   // commits not yet rolled back
  int next_id = 0;
  for (const Reservation& r : initial)
    live_adds.push_back({Op::kAdd, next_id++, r, {}, 0.0});
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

using Tokens = std::vector<std::pair<int, AvailabilityProfile::CommitToken>>;

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

/// The list a differential sequence's calendar starts from: random
/// reservations, zero-proc ones included, a third of them sharing or
/// touching an endpoint of an earlier one.
std::vector<Reservation> initial_list(std::uint64_t seed, int capacity) {
  util::Rng rng(util::derive_seed(0x1157, {seed}));
  std::vector<Reservation> list;
  const auto n = static_cast<int>(rng.uniform_int(0, 40));
  for (int i = 0; i < n; ++i) {
    Reservation r = random_reservation(rng, capacity);
    if (!list.empty() && rng.uniform(0.0, 1.0) < 0.3) {
      const Reservation& other = list[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1))];
      const double duration = r.duration();
      r.start = rng.uniform(0.0, 1.0) < 0.5 ? other.start : other.end;
      r.end = r.start + duration;
    }
    list.push_back(r);
  }
  return list;
}

/// Applies `op` to one profile of a differential sequence. A rollback
/// whose commit the shrinker removed is skipped (returns false); a compact
/// forgets the tokens whose groups it invalidated.
bool apply_sequence_op(AvailabilityProfile& profile, const Op& op,
                       Tokens& tokens, const std::vector<Op>& ops) {
  switch (op.kind) {
    case Op::kAdd: profile.add(op.r); break;
    case Op::kRelease: profile.release(op.r); break;
    case Op::kCommit:
      tokens.emplace_back(op.id, profile.commit(op.group));
      break;
    case Op::kRollback: {
      auto it = std::find_if(tokens.begin(), tokens.end(),
                             [&](const auto& t) { return t.first == op.id; });
      if (it == tokens.end()) return false;  // shrinking removed the commit
      profile.rollback(it->second);
      tokens.erase(it);
      break;
    }
    case Op::kCompact:
      profile.compact(op.horizon);
      // Tokens referencing pre-horizon state were invalidated by the
      // generator; forget them so rollback never touches them.
      std::erase_if(tokens, [&](const auto& t) {
        auto commit = std::find_if(ops.begin(), ops.end(), [&](const Op& o) {
          return o.kind == Op::kCommit && o.id == t.first;
        });
        for (const Reservation& r : commit->group)
          if (r.start < op.horizon) return true;
        return false;
      });
      break;
  }
  return true;
}

/// Builds the calendar from `initial` in one sorted pass and by adds, then
/// replays `ops` against both builds and the oracle, differentially
/// checking after every mutation both builds, and a view of each written
/// once more. Returns a diagnostic on failure.
std::optional<std::string> run_sequence(std::uint64_t seed,
                                        const std::vector<Op>& ops,
                                        int capacity,
                                        std::span<const Reservation> initial) {
  AvailabilityProfile listed(capacity, initial);
  AvailabilityProfile added(capacity);
  LinearProfile oracle(capacity);
  for (const Reservation& r : initial) {
    added.add(r);
    oracle.add(r);
  }
  Tokens listed_tokens, added_tokens;

  // Both builds get the same queries: each compare draws them afresh.
  auto compare_builds = [&](const AvailabilityProfile& a,
                            const AvailabilityProfile& b,
                            const LinearProfile& want,
                            std::uint64_t query_seed)
      -> std::optional<std::string> {
    util::Rng rng_a(query_seed), rng_b(query_seed);
    if (auto failure = compare_profiles(a, want, rng_a))
      return "list-built: " + *failure;
    if (auto failure = compare_profiles(b, want, rng_b))
      return "add-built: " + *failure;
    if (a.reservation_count() != b.reservation_count())
      return std::string("reservation counts diverged");
    return std::nullopt;
  };
  if (auto failure = compare_builds(listed, added, oracle,
                                    util::derive_seed(0x9E10, {seed})))
    return "after the build from " + std::to_string(initial.size()) +
           " reservations: " + *failure;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const bool applied = apply_sequence_op(listed, op, listed_tokens, ops);
    apply_sequence_op(added, op, added_tokens, ops);
    if (applied) apply_op(oracle, op);

    std::ostringstream where;
    where << "after op " << i << " [" << describe(op) << "] on a calendar "
          << "built from " << initial.size() << " reservations: ";
    if (auto failure = compare_builds(listed, added, oracle,
                                      util::derive_seed(0x9E11, {seed, i})))
      return where.str() + *failure;

    util::Rng extra_rng(util::derive_seed(0xE7A, {seed, i}));
    const Reservation extra = random_reservation(extra_rng, capacity);
    AvailabilityProfile listed_view = listed.view();
    AvailabilityProfile added_view = added.view();
    listed_view.add(extra);
    added_view.add(extra);
    LinearProfile oracle_after = oracle;
    oracle_after.add(extra);
    if (auto failure =
            compare_builds(listed_view, added_view, oracle_after,
                           util::derive_seed(0x9E14, {seed, i})))
      return where.str() + "views written once more: " + *failure;
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
  const std::vector<Reservation> initial = initial_list(seed, capacity);
  expect_sequence_passes(
      seed, capacity, generate_ops(seed, 60, capacity, initial),
      [&](const std::vector<Op>& ops) {
        return run_sequence(seed, ops, capacity, initial);
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferential, ::testing::Range(0, 25));

// --- Copy-on-write views -----------------------------------------------------

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

// --- Building from a list ----------------------------------------------------

using resv::StepIndex;

/// Where two indexes' trees first differ — size, priority state, or a
/// node's key bits, value, priority or depth — or nullopt when equal.
std::optional<std::string> tree_divergence(const StepIndex& got,
                                           const StepIndex& want) {
  if (got.size() != want.size())
    return "sizes " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  if (got.prio_state() != want.prio_state())
    return std::string("priority states differ");
  const std::vector<StepIndex::NodeLayout> a = got.layout();
  const std::vector<StepIndex::NodeLayout> b = want.layout();
  if (a.size() != got.size()) return std::string("layout misses nodes");
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i].key) !=
            std::bit_cast<std::uint64_t>(b[i].key) ||
        a[i].value != b[i].value || a[i].prio != b[i].prio ||
        a[i].depth != b[i].depth) {
      std::ostringstream out;
      out.precision(17);
      out << "node " << i << ": key " << a[i].key << " value " << a[i].value
          << " depth " << a[i].depth << " vs key " << b[i].key << " value "
          << b[i].value << " depth " << b[i].depth;
      return out.str();
    }
  return std::nullopt;
}

/// A random endpoint: mostly hour-scale instants, some reused from
/// `used` (shared endpoints, touching ranges) and some 0.0 or -0.0 (equal
/// keys with different bits).
double random_endpoint(util::Rng& rng, const std::vector<double>& used) {
  const double dice = rng.uniform(0.0, 1.0);
  if (!used.empty() && dice < 0.35)
    return used[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(used.size()) - 1))];
  if (dice < 0.45) return rng.uniform(0.0, 1.0) < 0.5 ? -0.0 : 0.0;
  return std::round(rng.uniform(-50.0, 200.0)) * 3600.0 +
         (rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.uniform(0.0, 3600.0));
}

/// A random range_add: zero deltas (keys without a step), -inf starts
/// (folded into the sentinel) and +inf ends included.
StepIndex::RangeAdd random_range_add(util::Rng& rng,
                                     std::vector<double>& used) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double start = rng.uniform(0.0, 1.0) < 0.05 ? -kInf
                                               : random_endpoint(rng, used);
  double end = rng.uniform(0.0, 1.0) < 0.05 ? kInf : random_endpoint(rng, used);
  if (!(start < end)) {
    if (end < start) std::swap(start, end);
    if (!(start < end)) end = start + 3600.0;
  }
  for (const double t : {start, end})
    if (std::isfinite(t)) used.push_back(t);
  return {start, end, static_cast<int>(rng.uniform_int(-6, 6))};
}

class IndexListBuild : public ::testing::TestWithParam<int> {};

// The sorted build holds the tree the list's adds would build — same keys
// to the bit, values, priorities and depths, same priority state — and
// both go on matching node for node through a scripted mix of adds,
// coalesces, compactions and writes on views.
TEST_P(IndexListBuild, HoldsTheTreeTheAddsBuildThroughLaterMutations) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng(util::derive_seed(0x50A7, {seed}));
  const int base_value = static_cast<int>(rng.uniform_int(1, 64));
  std::vector<double> used;
  std::vector<StepIndex::RangeAdd> adds;
  const auto n = static_cast<int>(rng.uniform_int(0, 12 * (1 + GetParam())));
  for (int i = 0; i < n; ++i) adds.push_back(random_range_add(rng, used));

  StepIndex listed(base_value, adds);
  StepIndex added(base_value);
  for (const StepIndex::RangeAdd& a : adds)
    added.range_add(a.start, a.end, a.delta);
  ASSERT_EQ(tree_divergence(listed, added), std::nullopt)
      << "after building " << n << " adds";
  EXPECT_EQ(listed.pool_stats().created, added.pool_stats().created);

  for (int step = 0; step < 40; ++step) {
    const double dice = rng.uniform(0.0, 1.0);
    std::string what;
    if (dice < 0.4) {
      const StepIndex::RangeAdd a = random_range_add(rng, used);
      listed.range_add(a.start, a.end, a.delta);
      added.range_add(a.start, a.end, a.delta);
      what = "range_add";
    } else if (dice < 0.6) {
      const double t = random_endpoint(rng, used);
      listed.coalesce_at(t);
      added.coalesce_at(t);
      what = "coalesce_at";
    } else if (dice < 0.7) {
      const double horizon = random_endpoint(rng, used);
      listed.compact(horizon);
      added.compact(horizon);
      what = "compact";
    } else {
      StepIndex listed_view = listed.view();
      StepIndex added_view = added.view();
      for (int k = 0; k < 3; ++k) {
        const StepIndex::RangeAdd a = random_range_add(rng, used);
        listed_view.range_add(a.start, a.end, a.delta);
        added_view.range_add(a.start, a.end, a.delta);
      }
      ASSERT_EQ(tree_divergence(listed_view, added_view), std::nullopt)
          << "views, step " << step;
      what = "view";
    }
    ASSERT_EQ(tree_divergence(listed, added), std::nullopt)
        << what << ", step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexListBuild, ::testing::Range(0, 16));

// The list build costs no treap rebalance: it never splits or merges.
TEST(IndexListBuild, BuildsWithoutOneRebalance) {
#ifdef RESCHED_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#else
  util::Rng rng(0xB11D);
  std::vector<Reservation> list;
  for (int i = 0; i < 500; ++i) list.push_back(random_reservation(rng, 32));
  auto rebalances = [] {
    for (const obs::CounterSample& c : obs::registry().snapshot().counters)
      if (c.name == std::string("resv.index.treap_rebalances")) return c.value;
    return std::uint64_t{0};
  };
  obs::set_metrics_enabled(true);
  obs::registry().reset();
  const AvailabilityProfile listed(32, list);
  const std::uint64_t listed_rebalances = rebalances();
  AvailabilityProfile added(32);
  for (const Reservation& r : list) added.add(r);
  const std::uint64_t added_rebalances = rebalances();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(listed_rebalances, 0u);
  EXPECT_GT(added_rebalances, 0u);  // the counter does count inserts
  EXPECT_EQ(listed.canonical_steps(), added.canonical_steps());
  EXPECT_EQ(listed.reservation_count(), added.reservation_count());
#endif
}

// A malformed reservation fails the list build with the error add() gives
// for it, whatever follows; a bad capacity is reported first.
TEST(IndexListBuild, ThrowsWhatTheFirstMalformedAddThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<Reservation>> lists = {
      {{0.0, 10.0, 2}, {5.0, 15.0, -1}, {20.0, 20.0, 1}},
      {{0.0, 10.0, 2}, {20.0, 20.0, 1}, {5.0, 15.0, -1}},
      {{30.0, 20.0, 0}},  // zero procs still needs a positive duration
      {{0.0, 10.0, 0}, {nan, 15.0, 1}},
      {{0.0, 10.0, 1}, {5.0, nan, 1}},
  };
  auto what_of = [](auto&& build) -> std::string {
    try {
      build();
    } catch (const resched::Error& e) {
      return e.what();
    }
    return "no error";
  };
  for (int capacity : {8, 0}) {
    for (std::size_t i = 0; i < lists.size(); ++i) {
      const std::string listed =
          what_of([&] { AvailabilityProfile p(capacity, lists[i]); });
      const std::string added = what_of([&] {
        AvailabilityProfile p(capacity);
        for (const Reservation& r : lists[i]) p.add(r);
      });
      EXPECT_NE(listed, "no error") << "list " << i;
      EXPECT_EQ(listed, added) << "list " << i << " capacity " << capacity;
    }
  }
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
