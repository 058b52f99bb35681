// Standalone bounded differential fuzzer: the indexed reservation calendar
// (treap-backed AvailabilityProfile) against the linear-scan oracle, on
// earliest fits, latest fits and first-free lookups, under
// adversarial mutation sequences — sliver durations, exact abutment,
// overlap stacks, zero-proc no-ops, interleaved release/compact, and
// grouped commits whose runs are randomly cancelled afterwards (the repair
// engine's rollback-under-disruption path). Each campaign's calendar starts
// from a list built both ways — in one sorted pass and by adds — and both
// builds, and views of them, must match the oracle throughout.
//
// Unlike the gtest CalendarFuzz suite (tests/fuzz_test.cpp), this driver
// has an explicit iteration budget so CI can run a bounded smoke pass on
// every push and the nightly job can crank the budget up without a
// recompile:
//
//   ./calendar_fuzz [--seeds N] [--rounds M] [--probes K] [--base-seed S]
//
// Environment overrides (flags win): RESCHED_FUZZ_SEEDS,
// RESCHED_FUZZ_ROUNDS, RESCHED_FUZZ_PROBES, RESCHED_FUZZ_BASE_SEED.
//
// Exit status: 0 on success, 1 on the first divergence (with a replayable
// seed/round diagnostic), 2 on usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "src/resv/linear_profile.hpp"
#include "src/resv/profile.hpp"
#include "src/util/env.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace resched;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Budget {
  int seeds = 8;
  int rounds = 120;
  int probes = 6;
  std::uint64_t base_seed = 0;
};

std::string show(const std::optional<double>& fit) {
  if (!fit) return "nullopt";
  std::ostringstream os;
  os.precision(17);
  os << *fit;
  return os.str();
}

/// Differential probes of one indexed calendar against the oracle: fits
/// and first-free lookups drawn from `rng`. Returns false, with a
/// replayable diagnostic, on the first divergence.
bool probe(const resv::AvailabilityProfile& indexed,
           const resv::LinearProfile& oracle, int p, util::Rng& rng,
           const char* which, std::uint64_t seed, int i, int probes) {
  if (oracle.canonical_steps() != indexed.canonical_steps()) {
    std::fprintf(stderr,
                 "DIVERGENCE (steps, %s): seed %llu round %d — canonical "
                 "step functions differ\n",
                 which, static_cast<unsigned long long>(seed), i);
    return false;
  }
  for (int probe = 0; probe < probes; ++probe) {
    int procs = static_cast<int>(rng.uniform_int(1, p));
    double duration = rng.uniform(1.0, 20.0 * 3600.0);
    double not_before = rng.uniform(-20.0, 90.0) * 3600.0;
    double deadline = not_before + rng.uniform(0.0, 40.0) * 3600.0;
    auto oe = oracle.earliest_fit(procs, duration, not_before);
    auto ie = indexed.earliest_fit(procs, duration, not_before);
    if (oe != ie) {
      std::fprintf(stderr,
                   "DIVERGENCE (earliest_fit, %s): seed %llu round %d procs "
                   "%d duration %.17g not_before %.17g — oracle %s, indexed "
                   "%s\n",
                   which, static_cast<unsigned long long>(seed), i, procs,
                   duration, not_before, show(oe).c_str(), show(ie).c_str());
      return false;
    }
    // First-free lookups at the probe's count and at p + 1, which no
    // segment reaches: from not_before, and just before, on and just
    // after a breakpoint picked without a draw.
    const std::vector<double> keys = oracle.breakpoints();
    std::vector<double> times{not_before};
    if (!keys.empty()) {
      const double key = keys[static_cast<std::size_t>(i + probe) %
                              keys.size()];
      times.insert(times.end(), {std::nextafter(key, -kInf), key,
                                 std::nextafter(key, kInf)});
    }
    for (int count : {procs, p + 1})
      for (double t : times) {
        const resv::FirstFree of = oracle.first_free(count, t);
        const resv::FirstFree ff = indexed.first_free(count, t);
        if (of != ff) {
          std::fprintf(stderr,
                       "DIVERGENCE (first_free, %s): seed %llu round %d "
                       "procs %d t %.17g — oracle at %.17g peak %d, indexed "
                       "at %.17g peak %d\n",
                       which, static_cast<unsigned long long>(seed), i, count,
                       t, of.at, of.peak_before, ff.at, ff.peak_before);
          return false;
        }
      }
    auto ol = oracle.latest_fit(procs, duration, deadline, not_before);
    auto il = indexed.latest_fit(procs, duration, deadline, not_before);
    if (ol != il) {
      std::fprintf(stderr,
                   "DIVERGENCE (latest_fit, %s): seed %llu round %d procs %d "
                   "duration %.17g deadline %.17g not_before %.17g — oracle "
                   "%s, indexed %s\n",
                   which, static_cast<unsigned long long>(seed), i, procs,
                   duration, deadline, not_before, show(ol).c_str(),
                   show(il).c_str());
      return false;
    }
  }
  return true;
}

/// A random reservation of the campaign's adversarial shapes: sliver
/// durations and zero-proc no-ops included.
resv::Reservation random_reservation(util::Rng& rng, int p) {
  double start = rng.uniform(-10.0, 80.0) * 3600.0;
  double dur = rng.bernoulli(0.25) ? rng.uniform(1e-9, 1e-3)  // sliver
                                   : rng.uniform(0.2, 12.0) * 3600.0;
  return {start, start + dur,
          static_cast<int>(rng.uniform_int(0, p + p / 2 + 1))};
}

/// One mutation-and-check campaign; returns false on first divergence.
/// The calendar starts from a list of reservations (abutting and
/// endpoint-sharing ones included), built into one profile in one sorted
/// pass and into another by adds; every mutation then goes to both, and
/// both must match the oracle throughout, as must a view of each.
bool run_campaign(std::uint64_t seed, const Budget& budget) {
  util::Rng rng(util::derive_seed(0xCA1F, {seed}));

  const int p = static_cast<int>(rng.uniform_int(1, 48));
  resv::ReservationList initial;
  const int listed_count = static_cast<int>(rng.uniform_int(0, 60));
  for (int k = 0; k < listed_count; ++k) {
    resv::Reservation r = random_reservation(rng, p);
    if (!initial.empty() && rng.bernoulli(0.3)) {  // share or abut an end
      const resv::Reservation& other = initial[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(initial.size()) - 1))];
      const double dur = r.duration();
      r.start = rng.bernoulli(0.5) ? other.start : other.end;
      r.end = r.start + dur;
    }
    initial.push_back(r);
  }
  resv::AvailabilityProfile indexed(p, initial);
  resv::AvailabilityProfile added(p);
  resv::LinearProfile oracle(p);
  for (const resv::Reservation& r : initial) {
    added.add(r);
    oracle.add(r);
  }
  std::vector<resv::Reservation> live = initial;
  /// Groups committed through the token API; their members are cancelled
  /// only as a whole (rollback) or dropped by compaction — mirroring how
  /// an admission's reservations live and die together.
  struct Group {
    resv::AvailabilityProfile::CommitToken token;
    resv::AvailabilityProfile::CommitToken added_token;
    resv::ReservationList members;
  };
  std::vector<Group> groups;

  auto apply = [&](const resv::Reservation& r) {
    indexed.add(r);
    added.add(r);
    oracle.add(r);
    live.push_back(r);
  };

  for (int i = 0; i < budget.rounds; ++i) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice >= 0.85 && dice < 0.93) {
      // Commit a run of reservations as one group (admission-style).
      resv::ReservationList members;
      const int n = static_cast<int>(rng.uniform_int(2, 5));
      double cursor = rng.uniform(0.0, 60.0) * 3600.0;
      for (int k = 0; k < n; ++k) {
        double dur = rng.uniform(0.2, 8.0) * 3600.0;
        members.push_back(
            {cursor, cursor + dur, static_cast<int>(rng.uniform_int(1, p))});
        cursor += rng.bernoulli(0.5) ? dur : dur / 2;  // chain or overlap
      }
      Group g;
      g.token = indexed.commit(members);
      g.added_token = added.commit(members);
      for (const resv::Reservation& r : members) oracle.add(r);
      g.members = std::move(members);
      groups.push_back(std::move(g));
    } else if (dice >= 0.93 && !groups.empty()) {
      // Cancel a previously committed run: roll the whole group back.
      std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(groups.size()) - 1));
      indexed.rollback(groups[pick].token);
      added.rollback(groups[pick].added_token);
      for (const resv::Reservation& r : groups[pick].members)
        oracle.release(r);
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (dice < 0.55 || live.empty()) {
      const resv::Reservation r = random_reservation(rng, p);
      apply(r);
      if (rng.bernoulli(0.4))  // abut exactly at the previous end
        apply({r.end, r.end + rng.uniform(0.2, 6.0) * 3600.0,
               static_cast<int>(rng.uniform_int(0, p))});
      if (rng.bernoulli(0.3))  // overlap stack straddling the window
        apply({r.start - 1800.0, r.start + r.duration() / 2,
               static_cast<int>(rng.uniform_int(1, p))});
    } else if (dice < 0.8) {
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      indexed.release(live[pick]);
      added.release(live[pick]);
      oracle.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      double horizon = rng.uniform(-12.0, 40.0) * 3600.0;
      indexed.compact(horizon);
      added.compact(horizon);
      oracle.compact(horizon);
      std::erase_if(live, [&](const resv::Reservation& r) {
        return r.start < horizon;
      });
      // A token whose members were (even partially) compacted away can no
      // longer be rolled back — forget those groups, like the service
      // forgets tokens once an admission is final.
      std::erase_if(groups, [&](const Group& g) {
        for (const resv::Reservation& r : g.members)
          if (r.start < horizon) return true;
        return false;
      });
    }

    // Both builds answer the same probes: each draws them from its own
    // copy of the campaign stream, which then moves on as one draw did.
    util::Rng added_rng = rng;
    if (!probe(indexed, oracle, p, rng, "list-built", seed, i, budget.probes))
      return false;
    if (!probe(added, oracle, p, added_rng, "add-built", seed, i,
               budget.probes))
      return false;

    // A view of each build, written once more, answers as the oracle
    // would given the same write.
    const resv::Reservation extra = random_reservation(rng, p);
    resv::AvailabilityProfile indexed_view = indexed.view();
    resv::AvailabilityProfile added_view = added.view();
    indexed_view.add(extra);
    added_view.add(extra);
    resv::LinearProfile oracle_after = oracle;
    oracle_after.add(extra);
    util::Rng view_rng = rng;
    if (!probe(indexed_view, oracle_after, p, view_rng, "list-built view",
               seed, i, 1))
      return false;
    view_rng = rng;
    if (!probe(added_view, oracle_after, p, view_rng, "add-built view", seed,
               i, 1))
      return false;
  }
  return true;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--rounds M] [--probes K] "
               "[--base-seed S]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Budget budget;
  budget.seeds = util::env_int("RESCHED_FUZZ_SEEDS", budget.seeds);
  budget.rounds = util::env_int("RESCHED_FUZZ_ROUNDS", budget.rounds);
  budget.probes = util::env_int("RESCHED_FUZZ_PROBES", budget.probes);
  budget.base_seed = static_cast<std::uint64_t>(
      util::env_int("RESCHED_FUZZ_BASE_SEED",
                    static_cast<int>(budget.base_seed)));

  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--seeds")) budget.seeds = std::atoi(value());
    else if (!std::strcmp(argv[i], "--rounds"))
      budget.rounds = std::atoi(value());
    else if (!std::strcmp(argv[i], "--probes"))
      budget.probes = std::atoi(value());
    else if (!std::strcmp(argv[i], "--base-seed"))
      budget.base_seed = static_cast<std::uint64_t>(std::atoll(value()));
    else usage(argv[0]);
  }
  if (budget.seeds < 1 || budget.rounds < 1 || budget.probes < 0)
    usage(argv[0]);

  try {
    for (int s = 0; s < budget.seeds; ++s) {
      std::uint64_t seed = budget.base_seed + static_cast<std::uint64_t>(s);
      if (!run_campaign(seed, budget)) return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("calendar_fuzz: %d seeds x %d rounds x %d probes — indexed "
              "calendar matches the linear oracle\n",
              budget.seeds, budget.rounds, budget.probes);
  return 0;
}
