#include "testsuite/campaign.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string_view>

#include "common/clock.hpp"
#include "schedsim/controller.hpp"
#include "svc/executor.hpp"

namespace testsuite {
namespace {

/// Largest accepted --jobs value: each job is one executor worker thread.
constexpr std::uint64_t kMaxJobs = 256;

[[noreturn]] void reject(std::string_view flag, std::string_view why, std::string_view value) {
  std::fprintf(stderr, "%.*s: %.*s, got '%.*s'\n", static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(why.size()), why.data(), static_cast<int>(value.size()),
               value.data());
  std::exit(2);
}

/// Digits only, no sign or padding, value in [1, max].
[[nodiscard]] bool parse_count(std::string_view text, std::uint64_t max, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0 || value > max) {
    return false;
  }
  *out = value;
  return true;
}

/// The scenario matrix, built once and read-only thereafter (session bodies
/// on worker threads only ever read it).
[[nodiscard]] const std::vector<Scenario>& scenario_matrix() {
  static const std::vector<Scenario> scenarios = build_scenarios();
  return scenarios;
}

}  // namespace

bool parse_campaign_flag(int argc, char** argv, int* i, CampaignFlags* flags) {
  static constexpr std::string_view kFlags[] = {"--schedules", "--schedule-dir", "--jobs"};
  const std::string_view arg = argv[*i];
  for (const std::string_view flag : kFlags) {
    if (!arg.starts_with(flag)) {
      continue;
    }
    std::string_view value;
    if (arg.size() == flag.size()) {
      if (*i + 1 >= argc) {
        reject(flag, "requires a value", "");
      }
      value = argv[++*i];
    } else if (arg[flag.size()] == '=') {
      value = arg.substr(flag.size() + 1);
    } else {
      continue;
    }
    std::uint64_t count = 0;
    if (flag == "--jobs") {
      if (!parse_count(value, kMaxJobs, &count)) {
        reject(flag, "expected a count in [1, " + std::to_string(kMaxJobs) + "]", value);
      }
      flags->jobs = static_cast<int>(count);
    } else if (flag == "--schedule-dir") {
      if (value.empty()) {
        reject(flag, "requires a directory", value);
      }
      flags->schedule_dir = value;
    } else if (value == "dpor") {
      flags->dpor = true;
    } else if (constexpr std::string_view kBound = "dpor;bound:";
               value.starts_with(kBound) &&
               parse_count(value.substr(kBound.size()), UINT32_MAX, &count)) {
      flags->dpor = true;
      flags->dpor_bound = static_cast<std::uint32_t>(count);
    } else if (parse_count(value, INT32_MAX, &count)) {
      flags->schedules = count;
    } else {
      reject(flag, "expected a positive count or dpor[;bound:<k>]", value);
    }
    return true;
  }
  return false;
}

std::vector<const Scenario*> select_scenarios(const std::string& filter) {
  std::vector<const Scenario*> selected;
  for (const Scenario& scenario : scenario_matrix()) {
    if (scenario.name.find(filter) != std::string::npos) {
      selected.push_back(&scenario);
    }
  }
  return selected;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& scenario : scenario_matrix()) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

ScheduleRounds run_schedule_rounds(const CampaignFlags& flags,
                                   const std::function<std::uint64_t(std::size_t)>& seed_of,
                                   const std::function<UnitRun(std::size_t)>& run) {
  auto& controller = schedsim::Controller::instance();
  ScheduleRounds rounds;
  if (flags.dpor) {
    // The explorer owns the controller for the unit, installing one pinned
    // prefix per executed schedule.
    schedsim::ExplorerOptions options;
    options.bound = flags.dpor_bound;
    schedsim::Explorer explorer(options);
    std::vector<std::size_t> fired;
    std::vector<schedsim::Execution> executions =
        explorer.explore(controller, [&]() -> std::size_t {
          const UnitRun unit = run(fired.size() + 1);
          fired.push_back(unit.faults_fired);
          return unit.races;
        });
    explorer.publish_metrics();
    rounds.explorer = explorer.stats();
    for (schedsim::Execution& execution : executions) {
      ScheduleRun& round = rounds.runs.emplace_back();
      round.seed = execution.index;
      round.races = execution.races;
      round.decisions = execution.trace.size();
      round.pinned = execution.pinned;
      round.wall_ms = execution.wall_ms;
      round.faults_fired = fired[execution.index];
      round.trace.strategy = "dpor execution " + std::to_string(execution.index);
      round.trace.entries = std::move(execution.trace);
    }
    return rounds;
  }
  for (std::size_t r = 1; r <= flags.schedules; ++r) {
    schedsim::Config config;
    config.mode = schedsim::Mode::kSeed;
    config.seed = seed_of(r);
    config.record = true;  // in-memory: take_recorded() below
    controller.configure(config);
    const std::uint64_t t0 = common::now_ns();
    const UnitRun unit = run(r);
    const std::uint64_t t1 = common::now_ns();
    const schedsim::Stats stats = controller.stats();
    ScheduleRun& round = rounds.runs.emplace_back();
    round.seed = config.seed;
    round.races = unit.races;
    round.decisions = stats.decisions;
    round.preemptions = stats.preemptions;
    round.wall_ms = static_cast<double>(t1 - t0) / 1e6;
    round.faults_fired = unit.faults_fired;
    round.trace.strategy = controller.strategy_string();
    round.trace.entries = controller.take_recorded();
  }
  if (flags.schedules > 0) {
    controller.clear();
  }
  return rounds;
}

UnitsReport run_units(const std::vector<std::string>& labels, int jobs,
                      const std::function<void(std::size_t)>& body,
                      const std::string& fault_plan) {
  UnitsReport report;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      try {
        body(i);
      } catch (const std::exception& e) {
        report.failures.push_back(labels[i] + ": " + e.what());
      } catch (...) {
        report.failures.push_back(labels[i] + ": unknown exception");
      }
    }
    return report;
  }
  svc::ExecutorOptions options;
  options.workers = jobs;
  svc::Executor executor(options);
  std::vector<svc::SessionHandlePtr> handles;
  handles.reserve(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    svc::SessionSpec spec;
    spec.label = labels[i];
    spec.fault_plan = fault_plan;
    spec.body = [&body, i] { body(i); };
    handles.push_back(executor.submit(std::move(spec)));
  }
  executor.wait_idle();
  for (const svc::SessionHandlePtr& handle : handles) {
    const svc::SessionResult& result = handle->result();
    if (!result.ok) {
      report.failures.push_back(handle->label() + ": " + result.error);
    }
    for (const auto& [key, value] : result.metric_deltas) {
      report.session_metrics[key] += value;
    }
  }
  return report;
}

}  // namespace testsuite
