#include "testsuite/fault_sweep.hpp"

#include <csignal>
#include <cstdio>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "faultsim/injector.hpp"
#include "mpisim/failure.hpp"
#include "obs/metrics.hpp"
#include "schedsim/controller.hpp"
#include "testsuite/campaign.hpp"

namespace testsuite {
namespace {

using faultsim::Action;
using faultsim::ScopeKind;
using faultsim::Site;

[[nodiscard]] bool is_mpi_site(Site site) {
  switch (site) {
    case Site::kSend:
    case Site::kRecv:
    case Site::kWait:
    case Site::kBarrier:
    case Site::kCollective:
      return true;
    default:
      return false;
  }
}

/// Draw one spec whose (site, scope, action) combination passes plan
/// validation. Concrete scopes only: scenario worlds are at least 2 ranks
/// (CUSAN_RANKS may widen them) with 1 device each, so dev0/rank0/rank1/
/// stream0..2 always exist.
[[nodiscard]] faultsim::FaultSpec random_spec(common::SplitMix64& rng) {
  static constexpr Site kSites[] = {Site::kMalloc, Site::kMemcpy, Site::kMemset,
                                    Site::kKernel, Site::kSend,   Site::kRecv,
                                    Site::kWait,   Site::kBarrier, Site::kCollective};
  faultsim::FaultSpec spec;
  spec.site = kSites[rng.next_below(sizeof(kSites) / sizeof(kSites[0]))];

  if (is_mpi_site(spec.site)) {
    switch (rng.next_below(3)) {
      case 0:
        spec.scope_kind = ScopeKind::kAny;
        break;
      default:
        spec.scope_kind = ScopeKind::kRank;
        spec.scope_id = static_cast<int>(rng.next_below(2));  // ranks 0..1
        break;
    }
    // stall is rationed: at most one per plan would still be fine, but its
    // cost is a full watchdog timeout per run, so keep it rare.
    const auto roll = rng.next_below(10);
    if (roll < 1) {
      spec.action = Action::kStall;
    } else if (roll < 5) {
      spec.action = Action::kDelay;
      spec.delay = std::chrono::microseconds(200 + 200 * rng.next_below(5));
    } else {
      spec.action = Action::kFail;
    }
  } else {
    switch (rng.next_below(3)) {
      case 0:
        spec.scope_kind = ScopeKind::kAny;
        break;
      case 1:
        spec.scope_kind = ScopeKind::kDevice;
        spec.scope_id = 0;  // each rank's only device
        break;
      default:
        spec.scope_kind = ScopeKind::kStream;
        spec.scope_id = static_cast<int>(rng.next_below(3));  // default + 2 user streams
        break;
    }
    if (spec.site == Site::kMalloc) {
      spec.action = rng.next_below(3) == 0 ? Action::kDelay : Action::kOom;
    } else if (spec.site == Site::kKernel) {
      spec.action = rng.next_below(2) == 0 ? Action::kAbort : Action::kFail;
    } else {
      const auto roll = rng.next_below(3);
      spec.action = roll == 0 ? Action::kAbort : (roll == 1 ? Action::kDelay : Action::kFail);
    }
    if (spec.action == Action::kDelay) {
      spec.delay = std::chrono::microseconds(200 + 200 * rng.next_below(5));
    }
  }

  spec.nth = 1 + rng.next_below(4);
  if (rng.next_below(2) == 0) {
    spec.period = 2 + rng.next_below(5);
  }
  return spec;
}

/// One rank_kill spec: a concrete rank (0/1 always exist), one of the three
/// death modes, aimed at an early MPI operation so the kill lands while the
/// victim's peers are still mid-conversation. No period: a killed process
/// cannot die twice, and the supervisor declares first-failure only.
[[nodiscard]] faultsim::FaultSpec random_kill_spec(common::SplitMix64& rng) {
  faultsim::FaultSpec spec;
  spec.site = Site::kRankKill;
  spec.scope_kind = ScopeKind::kRank;
  spec.scope_id = static_cast<int>(rng.next_below(2));
  switch (rng.next_below(3)) {
    case 0:
      spec.action = Action::kSigkill;
      break;
    case 1:
      spec.action = Action::kSigabrt;
      break;
    default:
      spec.action = Action::kHang;
      break;
  }
  spec.nth = 1 + rng.next_below(4);
  return spec;
}

/// All rounds (free schedule + optional schedule rounds) of one plan against
/// one scenario, checking invariants 2-4 against the unfaulted baseline. The
/// result is the pair's share of the sweep stats (`scenarios` stays 0),
/// computed against the calling thread's injector/controller.
[[nodiscard]] SweepStats run_plan_rounds(const faultsim::FaultPlan& plan,
                                         const Scenario& scenario, std::size_t baseline_races,
                                         const SweepOptions& options, int p, bool fast) {
  auto& injector = faultsim::Injector::instance();
  obs::Counter& rank_failure_metric = obs::metric("mpisim.proc.rank_failures");
  SweepStats partial;

  // One faulted run under whatever schedule the caller configured, plus the
  // invariant checks against its fired-fault ledger.
  const auto one_run = [&](std::size_t round) {
    injector.load(plan);  // resets match counters: every run sees the same schedule
    const std::uint64_t failures_before = rank_failure_metric.value();
    const std::size_t races = run_scenario_outcome(scenario, fast, options.watchdog).races;
    const std::uint64_t failures_reported = rank_failure_metric.value() - failures_before;
    const std::vector<faultsim::FiredFault> fired = injector.take_fired();
    ++partial.runs;
    partial.rank_failure_reports += failures_reported;
    if (fired.empty()) {
      // Invariant 2: fault hooks that never fire must be invisible — and
      // with schedules, verdicts must not depend on the interleaving.
      if (races != baseline_races) {
        ++partial.verdict_mismatches;
        partial.failures.push_back(common::format(
            "plan {} scenario {} round {}: no fault fired but verdict changed ({} races vs "
            "baseline {})",
            p, scenario.name, round, races, baseline_races));
      }
      return UnitRun{races, 0};
    }
    ++partial.faulted_runs;
    partial.faults_fired += fired.size();
    std::size_t kills_fired = 0;
    for (const faultsim::FiredFault& f : fired) {
      // Invariant 3: every fired fault is accounted through some channel.
      if (f.surfaced == faultsim::Channel::kNone) {
        ++partial.faults_unsurfaced;
        partial.failures.push_back(
            common::format("plan {} scenario {} round {}: fault #{} ({} at {}) fired but was "
                           "never surfaced through any channel",
                           p, scenario.name, round, f.id, to_string(f.action),
                           to_string(f.site)));
      }
      if (f.site == Site::kRankKill) {
        ++kills_fired;
        // A fired kill may only ever surface as the supervisor's
        // structured failure report — any other channel means the death
        // leaked out through a side door.
        if (f.surfaced != faultsim::Channel::kFailureReport) {
          partial.failures.push_back(common::format(
              "plan {} scenario {} round {}: rank_kill #{} surfaced via '{}' instead of a "
              "RankFailureReport",
              p, scenario.name, round, f.id, to_string(f.surfaced)));
        }
      }
    }
    if (kills_fired > 0) {
      ++partial.rank_kill_runs;
      // Invariant 4: a run that killed ranks produces exactly one
      // RankFailureReport — the supervisor declares first-failure only,
      // and zero reports would mean an unnoticed death.
      if (failures_reported != 1) {
        partial.failures.push_back(common::format(
            "plan {} scenario {} round {}: {} rank_kill(s) fired but {} RankFailureReports "
            "were declared (expected exactly 1)",
            p, scenario.name, round, kills_fired, failures_reported));
      }
    }
    if (options.verbose) {
      std::printf("[sweep] plan %d round %zu %-70s races=%zu fired=%zu outcome=%s\n", p, round,
                  scenario.name.c_str(), races, fired.size(), classify_run(fired).c_str());
    }
    return UnitRun{races, fired.size()};
  };

  // Round 0 runs the plan on the free schedule; schedule rounds (PCT seeds
  // or a DPOR exploration of the run's happens-before classes) follow, and
  // every executed schedule passes the same invariant checks.
  CampaignFlags flags;
  flags.schedules = static_cast<std::size_t>(options.schedules);
  flags.dpor = options.dpor;
  flags.dpor_bound = options.dpor_bound;
  if (flags.schedule_sweep()) {
    schedsim::Controller::instance().clear();
  }
  (void)one_run(0);
  const ScheduleRounds rounds = run_schedule_rounds(
      flags,
      [&](std::size_t round) {
        return options.seed ^ (static_cast<std::uint64_t>(p) << 32) ^
               static_cast<std::uint64_t>(round);
      },
      one_run);
  partial.dpor_executions = rounds.explorer.executions;
  partial.dpor_hb_prunes = rounds.explorer.hb_prunes;
  return partial;
}

void merge_partial(SweepStats& stats, SweepStats& partial) {
  stats.runs += partial.runs;
  stats.faulted_runs += partial.faulted_runs;
  stats.faults_fired += partial.faults_fired;
  stats.faults_unsurfaced += partial.faults_unsurfaced;
  stats.verdict_mismatches += partial.verdict_mismatches;
  stats.rank_kill_runs += partial.rank_kill_runs;
  stats.rank_failure_reports += partial.rank_failure_reports;
  stats.dpor_executions += partial.dpor_executions;
  stats.dpor_hb_prunes += partial.dpor_hb_prunes;
  for (std::string& failure : partial.failures) {
    stats.failures.push_back(std::move(failure));
  }
}

}  // namespace

std::string classify_run(const std::vector<faultsim::FiredFault>& fired) {
  if (fired.empty()) {
    return "clean";
  }
  for (const faultsim::FiredFault& f : fired) {
    if (f.site != Site::kRankKill) {
      continue;
    }
    const std::string rank = "rank " + std::to_string(f.where.rank);
    switch (f.action) {
      case Action::kSigkill:
        return "rank-killed (" + rank + ", " + mpisim::signal_name(SIGKILL) + ")";
      case Action::kSigabrt:
        return "rank-killed (" + rank + ", " + mpisim::signal_name(SIGABRT) + ")";
      case Action::kHang:
        return "rank-hang (" + rank + ", heartbeat timeout, " + mpisim::signal_name(SIGKILL) +
               ")";
      default:
        break;
    }
  }
  return "perturbed";
}

faultsim::FaultPlan make_random_plan(std::uint64_t seed, int faults, int rank_kills) {
  common::SplitMix64 rng(seed);
  faultsim::FaultPlan plan;
  for (int i = 0; i < faults; ++i) {
    plan.add(random_spec(rng));
  }
  for (int i = 0; i < rank_kills; ++i) {
    plan.add(random_kill_spec(rng));
  }
  return plan;
}

SweepStats run_fault_sweep(const SweepOptions& options) {
  SweepStats stats;
  const std::vector<const Scenario*> scenarios = select_scenarios(options.filter);
  stats.scenarios = scenarios.size();

  const bool fast = rsan::RuntimeConfig{}.use_shadow_fast_path;

  std::vector<faultsim::FaultPlan> plans;
  plans.reserve(static_cast<std::size_t>(options.plans));
  for (int p = 0; p < options.plans; ++p) {
    plans.push_back(make_random_plan(options.seed + static_cast<std::uint64_t>(p),
                                     options.faults_per_plan, options.rank_kills));
    if (options.verbose) {
      std::printf("[sweep] plan %d: %s\n", p, plans.back().to_string().c_str());
    }
  }

  // Unfaulted baseline (also exercises the watchdog's no-false-positive
  // promise: a short timeout must not misfire on clean runs).
  faultsim::Injector::instance().clear();
  std::vector<std::string> labels;
  for (const Scenario* scenario : scenarios) {
    labels.push_back(scenario->name + "/baseline");
  }
  std::vector<std::size_t> baseline(scenarios.size(), 0);
  UnitsReport report = run_units(labels, options.jobs, [&](std::size_t i) {
    baseline[i] = run_scenario_outcome(*scenarios[i], fast, options.watchdog).races;
  });
  std::vector<std::string> failures = std::move(report.failures);
  stats.session_metrics = std::move(report.session_metrics);

  labels.clear();
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (const Scenario* scenario : scenarios) {
      labels.push_back(scenario->name + "/plan" + std::to_string(p));
    }
  }
  // Partials land in pre-sized slots and merge in (plan, scenario) order, so
  // the outcome is independent of the --jobs interleaving.
  std::vector<SweepStats> partials(labels.size());
  report = run_units(labels, options.jobs, [&](std::size_t k) {
    const std::size_t p = k / scenarios.size();
    const std::size_t i = k % scenarios.size();
    partials[k] = run_plan_rounds(plans[p], *scenarios[i], baseline[i], options,
                                  static_cast<int>(p), fast);
  });
  for (SweepStats& partial : partials) {
    merge_partial(stats, partial);
  }
  failures.insert(failures.end(), report.failures.begin(), report.failures.end());
  for (const auto& [key, value] : report.session_metrics) {
    stats.session_metrics[key] += value;
  }
  stats.failed_units = failures.size();
  for (const std::string& failure : failures) {
    stats.failures.push_back("failed to run " + failure);
  }

  faultsim::Injector::instance().clear();
  if (options.schedules > 0 || options.dpor) {
    schedsim::Controller::instance().clear();
  }
  return stats;
}

}  // namespace testsuite
