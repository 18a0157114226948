// The campaign layer shared by the harness tools (check_cutests,
// fault_sweep, cusand): strict parsing of the campaign flags, scenario
// selection, the schedule-round driver and the unit runner.
//
// A campaign runs N indexed units — a scenario, a (plan, scenario) pair —
// into caller-owned, pre-sized result slots:
//
//   --jobs 1  units run in order on the calling thread against the
//             process-global fault injector and schedule controller, so a
//             whole-run CUSAN_SCHEDULE record/replay trace and the
//             cumulative CUSAN_FAULT_PLAN ledger see every unit;
//   --jobs N  each unit runs as one svc::Session (private injector,
//             controller and metrics registry) on an N-worker executor.
//
// Either way a unit that throws (or whose session fails) is reported by its
// label, never silently dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "schedsim/explorer.hpp"
#include "schedsim/trace.hpp"
#include "testsuite/scenarios.hpp"

namespace testsuite {

/// The campaign flags both harness tools accept.
struct CampaignFlags {
  std::size_t schedules{0};     ///< --schedules N: PCT seed rounds per unit
  bool dpor{false};             ///< --schedules dpor[;bound:K]
  std::uint32_t dpor_bound{0};  ///< K; 0 = explorer default
  std::string schedule_dir;     ///< --schedule-dir DIR: reproducer traces
  int jobs{1};                  ///< --jobs N: concurrent sessions

  [[nodiscard]] bool schedule_sweep() const { return schedules > 0 || dpor; }
};

/// If argv[*i] is `--schedules`, `--schedule-dir` or `--jobs` (as
/// `--flag=V` or `--flag V`; the latter advances *i past V), store its value
/// and return true; otherwise return false and leave *i alone. A missing or
/// malformed value (counts are digits only, --jobs at most 256) prints
/// "<flag>: <reason>" to stderr and exits 2.
bool parse_campaign_flag(int argc, char** argv, int* i, CampaignFlags* flags);

/// Scenarios whose name contains `filter` (all when empty), in matrix order.
/// The pointers refer to a matrix built once per process.
[[nodiscard]] std::vector<const Scenario*> select_scenarios(const std::string& filter);
/// The scenario named exactly `name`, or nullptr.
[[nodiscard]] const Scenario* find_scenario(const std::string& name);

/// What one execution of a unit reports to the schedule-round driver.
struct UnitRun {
  std::size_t races{0};
  std::size_t faults_fired{0};
};

/// One schedule round: a PCT seed run, or one DPOR execution (then `seed`
/// is the execution index).
struct ScheduleRun {
  std::uint64_t seed{0};
  std::size_t races{0};
  std::uint64_t decisions{0};    ///< choice points answered by the controller
  std::uint64_t preemptions{0};  ///< PCT: decisions steered away from the default
  std::uint64_t pinned{0};       ///< DPOR: decisions pinned by the prefix
  double wall_ms{0.0};
  std::size_t faults_fired{0};
  schedsim::ScheduleTrace trace;  ///< the run's decisions; replays it
};

struct ScheduleRounds {
  std::vector<ScheduleRun> runs;
  schedsim::ExplorerStats explorer{};  ///< DPOR only
};

/// Run one unit's schedule rounds against the calling thread's controller:
/// `flags.schedules` PCT rounds (round r = 1..N seeded by seed_of(r)), or one
/// DPOR exploration bounded by `flags.dpor_bound`. `run(round)` executes the
/// unit once under the installed schedule; rounds count from 1. The
/// controller is left disarmed.
[[nodiscard]] ScheduleRounds run_schedule_rounds(
    const CampaignFlags& flags, const std::function<std::uint64_t(std::size_t)>& seed_of,
    const std::function<UnitRun(std::size_t)>& run);

struct UnitsReport {
  std::vector<std::string> failures;     ///< "<label>: <error>" per failed unit
  obs::MetricsSnapshot session_metrics;  ///< summed session metric deltas (jobs > 1)

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run body(i) for every i < labels.size() (see the file comment for the
/// --jobs semantics). `fault_plan` is loaded into every session's private
/// injector when jobs > 1.
UnitsReport run_units(const std::vector<std::string>& labels, int jobs,
                      const std::function<void(std::size_t)>& body,
                      const std::string& fault_plan = {});

}  // namespace testsuite
