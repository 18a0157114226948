// Differential fault-sweep driver: runs the full §VI-C scenario matrix under
// N seed-deterministic random fault plans and enforces the three robustness
// invariants (no crash/hang, unfired plans are verdict-invisible, every fired
// fault is surfaced through some channel). See src/testsuite/fault_sweep.hpp.
//
// With --schedules N every (plan, scenario) run additionally repeats under N
// seed-deterministic randomized schedules (via the schedsim controller), so
// fault plans and schedule perturbations compose; the unfaulted baseline
// stays on the free schedule, making invariant 2 also a schedule-independence
// check. With --schedules dpor (optionally dpor;bound:<k>) the random rounds
// are replaced by a systematic DPOR exploration per (plan, scenario) pair:
// every distinct happens-before class the explorer reaches must satisfy the
// same invariants.
//
// With --rank-kills N every plan additionally carries N rank_kill specs
// (sigkill/sigabrt/hang at a random rank's n-th MPI operation). These only
// fire under CUSAN_MPI_BACKEND=proc, where every fired kill must surface as
// exactly one supervisor RankFailureReport; under the thread backend they
// stay dormant and invariant 2 proves them invisible.
//
// With --jobs N the (plan, scenario) grid runs concurrently as svc::Sessions
// on a work-stealing executor (per-session injector/controller/metrics), with
// stats merged in deterministic order; verdicts are identical to --jobs 1.
// --schedules and --jobs are parsed by testsuite/campaign.hpp.
//
// Exit code: 0 when every invariant holds, 1 on a violation, 2 on a usage
// error or a run that threw (reported as a VIOLATION naming the run).
//
// Usage: fault_sweep [--plans N] [--faults N] [--seed N] [--filter SUBSTR]
//                    [--watchdog MS] [--metrics PATH]
//                    [--schedules N|dpor[;bound:K]] [--rank-kills N]
//                    [--jobs N] [--verbose]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "schedsim/explorer.hpp"
#include "testsuite/campaign.hpp"
#include "testsuite/fault_sweep.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--plans N] [--faults N] [--seed N] [--filter SUBSTR] "
               "[--watchdog MS] [--metrics PATH] [--schedules N|dpor[;bound:K]] "
               "[--rank-kills N] [--jobs N] [--verbose]\n",
               argv0);
  std::exit(2);
}

long parse_long(const char* argv0, const char* flag, const char* value) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    usage(argv0);
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "%s: not a number: '%s'\n", flag, value);
    usage(argv0);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  testsuite::SweepOptions options;
  testsuite::CampaignFlags flags;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strncmp(arg, "--schedule-dir", 14) != 0 &&
        testsuite::parse_campaign_flag(argc, argv, &i, &flags)) {
      continue;
    }
    if (std::strcmp(arg, "--plans") == 0) {
      options.plans = static_cast<int>(parse_long(argv[0], arg, value));
      ++i;
    } else if (std::strcmp(arg, "--faults") == 0) {
      options.faults_per_plan = static_cast<int>(parse_long(argv[0], arg, value));
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = static_cast<std::uint64_t>(parse_long(argv[0], arg, value));
      ++i;
    } else if (std::strcmp(arg, "--filter") == 0) {
      if (value == nullptr) {
        usage(argv[0]);
      }
      options.filter = value;
      ++i;
    } else if (std::strcmp(arg, "--watchdog") == 0) {
      options.watchdog = std::chrono::milliseconds(parse_long(argv[0], arg, value));
      ++i;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      if (value == nullptr) {
        usage(argv[0]);
      }
      metrics_path = value;
      ++i;
    } else if (std::strcmp(arg, "--rank-kills") == 0) {
      options.rank_kills = static_cast<int>(parse_long(argv[0], arg, value));
      ++i;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      options.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      usage(argv[0]);
    }
  }
  options.schedules = static_cast<int>(flags.schedules);
  options.dpor = flags.dpor;
  options.dpor_bound = flags.dpor_bound;
  options.jobs = flags.jobs;
  if (options.plans < 1 || options.faults_per_plan < 1 || options.watchdog.count() <= 0 ||
      options.rank_kills < 0) {
    std::fprintf(stderr,
                 "--plans/--faults must be >= 1, --watchdog must be > 0, --rank-kills >= 0\n");
    return 2;
  }

  if (options.dpor) {
    std::printf("fault sweep: %d plan(s) x %d fault(s) + %d rank-kill(s), seed %llu, "
                "watchdog %lld ms, dpor exploration (bound %u)\n",
                options.plans, options.faults_per_plan, options.rank_kills,
                static_cast<unsigned long long>(options.seed),
                static_cast<long long>(options.watchdog.count()),
                options.dpor_bound != 0 ? options.dpor_bound
                                        : schedsim::ExplorerOptions::kDefaultBound);
  } else {
    std::printf("fault sweep: %d plan(s) x %d fault(s) + %d rank-kill(s), seed %llu, "
                "watchdog %lld ms, %d schedule(s)\n",
                options.plans, options.faults_per_plan, options.rank_kills,
                static_cast<unsigned long long>(options.seed),
                static_cast<long long>(options.watchdog.count()), options.schedules);
  }
  const obs::MetricsSnapshot metrics_before = obs::MetricsRegistry::instance().snapshot();
  const testsuite::SweepStats stats = testsuite::run_fault_sweep(options);
  if (!metrics_path.empty()) {
    // The sweep's whole-run registry delta (tool counters, fault ledger,
    // contention counters) plus the --jobs sessions' deltas, as one flat
    // JSON object.
    auto delta = obs::MetricsRegistry::diff(obs::MetricsRegistry::instance().snapshot(),
                                            metrics_before);
    for (const auto& [key, value] : stats.session_metrics) {
      delta[key] += value;
    }
    std::string error;
    if (!obs::write_file(metrics_path, obs::MetricsRegistry::to_json(delta), &error)) {
      std::fprintf(stderr, "--metrics: %s\n", error.c_str());
      return 2;
    }
  }

  std::printf(
      "\nSweep summary\n  Scenarios: %zu\n  Faulted runs executed: %zu (of %zu)\n  Faults "
      "fired: %llu\n  Faults unsurfaced: %llu\n  Unfaulted verdict mismatches: %zu\n",
      stats.scenarios, stats.faulted_runs, stats.runs,
      static_cast<unsigned long long>(stats.faults_fired),
      static_cast<unsigned long long>(stats.faults_unsurfaced), stats.verdict_mismatches);
  if (options.rank_kills > 0) {
    std::printf("  Rank-kill runs: %zu\n  RankFailureReports: %zu\n", stats.rank_kill_runs,
                stats.rank_failure_reports);
  }
  if (options.dpor) {
    std::printf("  DPOR executions: %llu\n  DPOR hb-prunes: %llu\n",
                static_cast<unsigned long long>(stats.dpor_executions),
                static_cast<unsigned long long>(stats.dpor_hb_prunes));
  }
  for (const std::string& failure : stats.failures) {
    std::printf("  VIOLATION: %s\n", failure.c_str());
  }
  if (stats.scenarios == 0) {
    std::fprintf(stderr, "no scenario matches filter '%s'\n", options.filter.c_str());
    return 2;
  }
  std::printf("%s\n", stats.ok() ? "OK: all robustness invariants hold" : "FAILED");
  if (stats.failed_units > 0) {
    return 2;
  }
  return stats.ok() ? 0 : 1;
}
