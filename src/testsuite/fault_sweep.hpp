// Differential fault sweep: run the full scenario matrix under randomized
// (but seed-deterministic) fault plans and check the three robustness
// invariants the checker stack promises when the substrate fails:
//
//   1. No crash and no hang — every run terminates (injected stalls resolve
//      through the MPI progress watchdog).
//   2. Runs in which no fault fired produce verdicts identical to the
//      unfaulted baseline (fault hooks are invisible until they fire).
//   3. Every fault that fired is *accounted for*: surfaced as an API error,
//      a sticky CUDA error, a MUST report, a DeadlockReport, or marked as a
//      pure perturbation (delay).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "faultsim/injector.hpp"
#include "faultsim/plan.hpp"
#include "obs/metrics.hpp"

namespace testsuite {

struct SweepOptions {
  std::uint64_t seed{0x5eed};
  /// Number of random fault plans to sweep (plan i uses seed + i).
  int plans{3};
  /// Fault specs per generated plan.
  int faults_per_plan{4};
  /// Substring filter on scenario names (empty = all scenarios).
  std::string filter;
  /// MPI watchdog timeout for every run; keep small so stalls resolve fast.
  std::chrono::milliseconds watchdog{150};
  /// Print one line per (plan, scenario) run to stdout.
  bool verbose{false};
  /// Randomized schedules per (plan, scenario) run: 0 keeps the free
  /// schedule; N > 0 repeats every faulted run under N seed-deterministic
  /// PCT schedules, so fault plans and schedule perturbations compose. The
  /// unfaulted baseline always runs on the free schedule — invariant 2
  /// therefore also proves verdicts are schedule-independent.
  int schedules{0};
  /// Systematic exploration instead of random schedules: every (plan,
  /// scenario) pair first runs one free round, then a DPOR exploration
  /// (schedsim::Explorer) whose every executed schedule must satisfy the
  /// same invariants. Mutually exclusive with `schedules`.
  bool dpor{false};
  /// Execution bound per DPOR exploration (0 = explorer default).
  std::uint32_t dpor_bound{0};
  /// rank_kill specs appended to every generated plan (sigkill / sigabrt /
  /// hang at a random rank's n-th MPI operation). Only the proc backend
  /// probes rank_kill sites: under the thread backend the specs stay
  /// dormant, which invariant 2 then proves invisible. Under the proc
  /// backend every fired kill must surface as exactly one RankFailureReport
  /// (invariant 4 below).
  int rank_kills{0};
  /// Concurrent (plan, scenario) runs: > 1 executes each pair as one
  /// svc::Session on a work-stealing executor with a private injector,
  /// controller and metrics registry per session. Stats and failure lines
  /// merge in deterministic (plan, scenario) order, so the sweep outcome is
  /// independent of the interleaving.
  int jobs{1};
};

struct SweepStats {
  std::size_t scenarios{0};      ///< scenarios in the (filtered) matrix
  std::size_t runs{0};           ///< faulted runs executed (plans x scenarios)
  std::size_t faulted_runs{0};   ///< runs where at least one fault fired
  std::uint64_t faults_fired{0};
  std::uint64_t faults_unsurfaced{0};   ///< fired but never accounted — invariant 3 violation
  std::size_t verdict_mismatches{0};    ///< unfaulted run diverged from baseline — invariant 2
  std::size_t rank_kill_runs{0};        ///< runs in which a rank_kill fired (proc backend)
  std::size_t rank_failure_reports{0};  ///< supervisor RankFailureReports observed across runs
  std::uint64_t dpor_executions{0};     ///< schedules executed by DPOR explorations
  std::uint64_t dpor_hb_prunes{0};      ///< decisions proven non-racing across explorations
  std::size_t failed_units{0};          ///< runs that threw or whose session failed
  std::vector<std::string> failures;    ///< human-readable invariant violations
  /// Summed metric deltas of the --jobs sessions' private registries (empty
  /// at --jobs 1, where every run reports into the global registry).
  obs::MetricsSnapshot session_metrics;

  [[nodiscard]] bool ok() const {
    return faults_unsurfaced == 0 && verdict_mismatches == 0 && failures.empty();
  }
};

/// Classify a finished run from its fired-fault ledger: "clean" (nothing
/// fired), "perturbed" (faults fired, no rank died), or the containment
/// outcome with the signal spelled out — "rank-killed (SIGKILL)",
/// "rank-killed (SIGABRT)", "rank-hang (heartbeat timeout, SIGKILL)".
[[nodiscard]] std::string classify_run(const std::vector<faultsim::FiredFault>& fired);

/// Seed-deterministic random plan: `faults` specs with concrete scopes and
/// site-valid actions, plus `rank_kills` rank_kill specs (the same seed
/// always yields the same plan).
[[nodiscard]] faultsim::FaultPlan make_random_plan(std::uint64_t seed, int faults,
                                                   int rank_kills = 0);

/// Run the sweep. Loads plans into the global faultsim::Injector (clearing it
/// on exit), so it must not race with other injector users.
[[nodiscard]] SweepStats run_fault_sweep(const SweepOptions& options);

}  // namespace testsuite
