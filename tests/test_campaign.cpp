// Tests for the harness campaign layer (testsuite/campaign.hpp): strict flag
// parsing, scenario selection, the schedule-round driver and the unit
// runner's failure reporting at --jobs 1 and --jobs N.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "schedsim/controller.hpp"
#include "testsuite/campaign.hpp"

namespace {

using testsuite::CampaignFlags;

/// Parse one argv vector from its first element; returns the flags and the
/// index parse_campaign_flag left behind.
bool parse(std::vector<std::string> args, CampaignFlags* flags, int* next = nullptr) {
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  int i = 0;
  const bool mine = testsuite::parse_campaign_flag(static_cast<int>(argv.size()), argv.data(), &i,
                                                   flags);
  if (next != nullptr) {
    *next = i;
  }
  return mine;
}

TEST(CampaignFlagsTest, AcceptsCountsAndDpor) {
  CampaignFlags flags;
  int next = 0;
  ASSERT_TRUE(parse({"--schedules", "8"}, &flags, &next));
  EXPECT_EQ(flags.schedules, 8u);
  EXPECT_FALSE(flags.dpor);
  EXPECT_EQ(next, 1);  // consumed the value

  flags = {};
  ASSERT_TRUE(parse({"--schedules=dpor"}, &flags, &next));
  EXPECT_TRUE(flags.dpor);
  EXPECT_EQ(flags.dpor_bound, 0u);
  EXPECT_EQ(next, 0);

  flags = {};
  ASSERT_TRUE(parse({"--schedules", "dpor;bound:4"}, &flags));
  EXPECT_TRUE(flags.dpor);
  EXPECT_EQ(flags.dpor_bound, 4u);

  ASSERT_TRUE(parse({"--jobs=8"}, &flags));
  EXPECT_EQ(flags.jobs, 8);
  ASSERT_TRUE(parse({"--schedule-dir", "out"}, &flags));
  EXPECT_EQ(flags.schedule_dir, "out");
}

TEST(CampaignFlagsTest, LeavesOtherArgumentsAlone) {
  CampaignFlags flags;
  int next = 0;
  EXPECT_FALSE(parse({"--json"}, &flags, &next));
  EXPECT_FALSE(parse({"--schedulesx=3"}, &flags, &next));
  EXPECT_FALSE(parse({"default_stream"}, &flags, &next));
  EXPECT_EQ(next, 0);
  EXPECT_EQ(flags.schedules, 0u);
}

TEST(CampaignFlagsDeathTest, RejectsMalformedValuesNamingTheFlag) {
  CampaignFlags flags;
  for (const char* value : {"0", "-1", "abc", "8x", "dpor;bound:x", "seed:3", ""}) {
    EXPECT_EXIT(parse({std::string("--schedules=") + value}, &flags),
                testing::ExitedWithCode(2), "--schedules: ")
        << value;
  }
  for (const char* value : {"0", "-1", "abc", "8x", "", "257"}) {
    EXPECT_EXIT(parse({"--jobs", value}, &flags), testing::ExitedWithCode(2), "--jobs: ")
        << value;
  }
  EXPECT_EXIT(parse({"--jobs"}, &flags), testing::ExitedWithCode(2), "--jobs: requires a value");
  EXPECT_EXIT(parse({"--schedule-dir="}, &flags), testing::ExitedWithCode(2), "--schedule-dir: ");
}

TEST(CampaignScenariosTest, SelectsByFilterAndFindsByName) {
  const auto all = testsuite::select_scenarios("");
  ASSERT_EQ(all.size(), testsuite::build_scenarios().size());
  const auto some = testsuite::select_scenarios("default_stream");
  ASSERT_FALSE(some.empty());
  EXPECT_LT(some.size(), all.size());
  for (const testsuite::Scenario* scenario : some) {
    EXPECT_NE(scenario->name.find("default_stream"), std::string::npos);
  }
  EXPECT_TRUE(testsuite::select_scenarios("no such scenario").empty());
  EXPECT_EQ(testsuite::find_scenario(all.front()->name), all.front());
  EXPECT_EQ(testsuite::find_scenario("no such scenario"), nullptr);
}

TEST(CampaignRoundsTest, PctRoundsUseCallerSeedsAndDisarm) {
  CampaignFlags flags;
  flags.schedules = 3;
  std::vector<std::size_t> rounds_seen;
  const testsuite::ScheduleRounds rounds = testsuite::run_schedule_rounds(
      flags, [](std::size_t round) { return 100 + round; },
      [&](std::size_t round) {
        rounds_seen.push_back(round);
        EXPECT_TRUE(schedsim::Controller::armed());
        return testsuite::UnitRun{round == 2 ? 1u : 0u, round == 3 ? 2u : 0u};
      });
  EXPECT_EQ(rounds_seen, (std::vector<std::size_t>{1, 2, 3}));
  ASSERT_EQ(rounds.runs.size(), 3u);
  EXPECT_EQ(rounds.runs[0].seed, 101u);
  EXPECT_EQ(rounds.runs[1].races, 1u);
  EXPECT_EQ(rounds.runs[2].faults_fired, 2u);
  EXPECT_FALSE(schedsim::Controller::armed());
}

TEST(CampaignRoundsTest, DporRoundsReportEveryExecution) {
  CampaignFlags flags;
  flags.dpor = true;
  flags.dpor_bound = 4;
  std::size_t calls = 0;
  const testsuite::ScheduleRounds rounds =
      testsuite::run_schedule_rounds(flags, nullptr, [&](std::size_t round) {
        EXPECT_EQ(round, ++calls);
        return testsuite::UnitRun{};
      });
  EXPECT_EQ(rounds.runs.size(), calls);
  EXPECT_EQ(rounds.explorer.executions, calls);
  EXPECT_FALSE(schedsim::Controller::armed());
}

class CampaignUnitsTest : public testing::TestWithParam<int> {};

TEST_P(CampaignUnitsTest, ThrowingUnitIsReportedByLabel) {
  const std::vector<std::string> labels = {"unit0", "unit1", "unit2", "unit3"};
  std::vector<int> slots(labels.size(), 0);
  const testsuite::UnitsReport report =
      testsuite::run_units(labels, GetParam(), [&](std::size_t i) {
        if (i == 1) {
          throw std::runtime_error("boom");
        }
        slots[i] = static_cast<int>(i) + 1;
      });
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0], "unit1: boom");
  EXPECT_EQ(slots, (std::vector<int>{1, 0, 3, 4}));
}

INSTANTIATE_TEST_SUITE_P(Jobs, CampaignUnitsTest, testing::Values(1, 3));

}  // namespace
