// cusand — the resident checker daemon. One process holds the executor
// (CUSAN_SVC_WORKERS work-stealing workers, CUSAN_SVC_MAX_MB admission
// budget) and serves checked sessions over a unix socket speaking the
// svc::wire protocol: clients start sessions by scenario name, stream
// diagnostics as they are emitted, poll live metric snapshots, cancel
// queued sessions, and receive the final verdict + metrics delta without
// ever paying a process start per session.
//
// Commands:
//   cusand serve  [--socket PATH] [--workers N] [--max-mb N]
//   cusand run    SCENARIO [--socket PATH] [--fault-plan TEXT]
//                 [--schedule-seed N] [--watchdog MS] [--no-stream]
//   cusand status ID [--socket PATH]
//   cusand cancel ID [--socket PATH]
//   cusand ping   [--socket PATH]
//   cusand stop   [--socket PATH]
//   cusand list-scenarios
//
// The session's world size comes from the daemon's CUSAN_RANKS (world
// construction reads the env at session run time, in the daemon process).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "svc/client.hpp"
#include "svc/server.hpp"
#include "testsuite/campaign.hpp"

namespace {

[[nodiscard]] std::string default_socket_path() {
  const char* env = std::getenv("CUSAN_SVC_SOCKET");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  return "/tmp/cusand." + std::to_string(::getuid()) + ".sock";
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: cusand serve  [--socket PATH] [--workers N] [--max-mb N]\n"
               "       cusand run    SCENARIO [--socket PATH] [--fault-plan TEXT]\n"
               "                     [--schedule-seed N] [--watchdog MS] [--no-stream]\n"
               "       cusand status ID [--socket PATH]\n"
               "       cusand cancel ID [--socket PATH]\n"
               "       cusand ping   [--socket PATH]\n"
               "       cusand stop   [--socket PATH]\n"
               "       cusand list-scenarios\n");
  std::exit(2);
}


/// kStart fields -> SessionSpec: scenario (required), fault_plan,
/// schedule_seed, fast (default 1), watchdog_ms. This callback is the only
/// place the daemon knows about the test suite; svc itself stays generic.
bool make_session(const svc::wire::Fields& request, svc::SessionSpec* spec, std::string* error) {
  const std::string name = svc::wire::field_or(request, "scenario", "");
  const testsuite::Scenario* scenario = testsuite::find_scenario(name);
  if (scenario == nullptr) {
    *error = name.empty() ? "missing field: scenario" : "unknown scenario: " + name;
    return false;
  }
  spec->label = name;
  spec->fault_plan = svc::wire::field_or(request, "fault_plan", "");
  const std::uint64_t seed = svc::wire::field_u64(request, "schedule_seed", 0);
  if (seed != 0) {
    spec->schedule.mode = schedsim::Mode::kSeed;
    spec->schedule.seed = seed;
  }
  const bool fast = svc::wire::field_u64(request, "fast", 1) != 0;
  const std::uint64_t watchdog_ms = svc::wire::field_u64(request, "watchdog_ms", 0);
  spec->body = [scenario, fast, watchdog_ms] {
    if (watchdog_ms > 0) {
      (void)testsuite::run_scenario_outcome(*scenario, fast,
                                            std::chrono::milliseconds(watchdog_ms));
    } else {
      (void)testsuite::run_scenario_outcome(*scenario, fast);
    }
  };
  return true;
}

int cmd_serve(const std::string& socket_path, int workers, std::uint64_t max_mb) {
  svc::ServerOptions options;
  options.socket_path = socket_path;
  options.executor.workers = workers;
  options.executor.max_mb = max_mb;
  svc::Server server(options, make_session);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "cusand: %s\n", error.c_str());
    return 1;
  }
  std::printf("cusand: serving %zu scenarios on %s (%d workers)\n", testsuite::select_scenarios("").size(),
              server.socket_path().c_str(), server.executor().workers());
  std::fflush(stdout);
  server.serve();
  const svc::ExecutorStats stats = server.executor().stats();
  std::printf("cusand: stopped after %llu session(s) (%llu stolen, %llu parked)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.steals),
              static_cast<unsigned long long>(stats.parked));
  return 0;
}

[[nodiscard]] bool connect_or_die(svc::Client& client, const std::string& socket_path) {
  std::string error;
  if (!client.connect(socket_path, &error)) {
    std::fprintf(stderr, "cusand: %s\n", error.c_str());
    return false;
  }
  return true;
}

int cmd_run(const std::string& socket_path, const svc::wire::Fields& request, bool stream) {
  svc::Client client;
  if (!connect_or_die(client, socket_path)) {
    return 1;
  }
  std::string error;
  std::uint64_t id = 0;
  if (!client.start(request, &id, &error)) {
    std::fprintf(stderr, "cusand: start: %s\n", error.c_str());
    return 1;
  }
  std::printf("session %llu started\n", static_cast<unsigned long long>(id));
  std::string metrics_json;
  svc::wire::Fields result;
  const bool got = client.wait_result(
      [stream](const svc::wire::Fields& diagnostic) {
        if (stream) {
          std::printf("[%s] rank %s %s: %s\n",
                      svc::wire::field_or(diagnostic, "severity", "?").c_str(),
                      svc::wire::field_or(diagnostic, "rank", "?").c_str(),
                      svc::wire::field_or(diagnostic, "diag", "?").c_str(),
                      svc::wire::field_or(diagnostic, "message", "").c_str());
        }
      },
      [&metrics_json](const std::string& json) { metrics_json = json; }, &result, &error);
  if (!got) {
    std::fprintf(stderr, "cusand: %s\n", error.c_str());
    return 1;
  }
  const bool ok = svc::wire::field_u64(result, "ok", 0) != 0;
  std::printf("session %s: %s  [%s diagnostics, %s fault(s) fired, %.1f ms]\n",
              svc::wire::field_or(result, "label", "?").c_str(), ok ? "ok" : "error",
              svc::wire::field_or(result, "diagnostics", "0").c_str(),
              svc::wire::field_or(result, "fired_faults", "0").c_str(),
              static_cast<double>(svc::wire::field_u64(result, "duration_ns", 0)) / 1e6);
  if (!ok) {
    std::printf("  error: %s\n", svc::wire::field_or(result, "error", "").c_str());
  }
  if (!metrics_json.empty()) {
    std::printf("metrics: %s\n", metrics_json.c_str());
  }
  return ok ? 0 : 1;
}

int cmd_status(const std::string& socket_path, std::uint64_t id) {
  svc::Client client;
  if (!connect_or_die(client, socket_path)) {
    return 1;
  }
  std::string error;
  svc::wire::Fields reply;
  if (!client.status(id, &reply, &error)) {
    std::fprintf(stderr, "cusand: status: %s\n", error.c_str());
    return 1;
  }
  std::printf("session %llu (%s): %s\nmetrics: %s\n", static_cast<unsigned long long>(id),
              svc::wire::field_or(reply, "label", "?").c_str(),
              svc::wire::field_or(reply, "state", "?").c_str(),
              svc::wire::field_or(reply, "metrics", "{}").c_str());
  return 0;
}

int cmd_cancel(const std::string& socket_path, std::uint64_t id) {
  svc::Client client;
  if (!connect_or_die(client, socket_path)) {
    return 1;
  }
  std::string error;
  bool cancelled = false;
  if (!client.cancel(id, &cancelled, &error)) {
    std::fprintf(stderr, "cusand: cancel: %s\n", error.c_str());
    return 1;
  }
  std::printf("session %llu: %s\n", static_cast<unsigned long long>(id),
              cancelled ? "cancelled" : "not cancellable (running or finished)");
  return cancelled ? 0 : 1;
}

int cmd_ping(const std::string& socket_path) {
  svc::Client client;
  if (!connect_or_die(client, socket_path)) {
    return 1;
  }
  std::string error;
  svc::wire::Fields info;
  if (!client.hello(&info, &error) || !client.ping(&error)) {
    std::fprintf(stderr, "cusand: %s\n", error.c_str());
    return 1;
  }
  std::printf("cusand pid %s, %s workers, protocol %s\n",
              svc::wire::field_or(info, "pid", "?").c_str(),
              svc::wire::field_or(info, "workers", "?").c_str(),
              svc::wire::field_or(info, "protocol", "?").c_str());
  return 0;
}

int cmd_stop(const std::string& socket_path) {
  svc::Client client;
  if (!connect_or_die(client, socket_path)) {
    return 1;
  }
  std::string error;
  if (!client.shutdown_server(&error)) {
    std::fprintf(stderr, "cusand: stop: %s\n", error.c_str());
    return 1;
  }
  std::printf("cusand: shutdown requested\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
  }
  const std::string command = argv[1];
  std::string socket_path = default_socket_path();
  if (command == "list-scenarios") {
    for (const testsuite::Scenario* scenario : testsuite::select_scenarios("")) {
      std::printf("%s\n", scenario->name.c_str());
    }
    return 0;
  }

  // Shared flag scan; command-specific positionals collected along the way.
  std::vector<std::string> positional;
  int workers = 0;
  std::uint64_t max_mb = 0;
  svc::wire::Fields request;
  bool stream = true;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--socket" && value != nullptr) {
      socket_path = value;
      ++i;
    } else if (arg == "--workers" && value != nullptr) {
      workers = std::atoi(value);
      ++i;
    } else if (arg == "--max-mb" && value != nullptr) {
      max_mb = static_cast<std::uint64_t>(std::atoll(value));
      ++i;
    } else if (arg == "--fault-plan" && value != nullptr) {
      request["fault_plan"] = value;
      ++i;
    } else if (arg == "--schedule-seed" && value != nullptr) {
      request["schedule_seed"] = value;
      ++i;
    } else if (arg == "--watchdog" && value != nullptr) {
      request["watchdog_ms"] = value;
      ++i;
    } else if (arg == "--no-stream") {
      stream = false;
      request["stream"] = "0";
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (command == "serve") {
    return cmd_serve(socket_path, workers, max_mb);
  }
  if (command == "run") {
    if (positional.size() != 1) {
      usage();
    }
    request["scenario"] = positional[0];
    return cmd_run(socket_path, request, stream);
  }
  if (command == "status" || command == "cancel") {
    if (positional.size() != 1) {
      usage();
    }
    const std::uint64_t id = std::strtoull(positional[0].c_str(), nullptr, 10);
    return command == "status" ? cmd_status(socket_path, id) : cmd_cancel(socket_path, id);
  }
  if (command == "ping") {
    return cmd_ping(socket_path);
  }
  if (command == "stop") {
    return cmd_stop(socket_path);
  }
  usage();
}
