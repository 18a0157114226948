// perfbench: the repository benchmark binary. One process runs one
// workload's fixed, seeded load closed-loop, verifies every op's verdict and
// output, and prints the metrics as a JSON object on its last stdout line:
// the end-to-end metrics untraced (--trace 0), the per-layer metrics from a
// traced run (--trace 1) that records spans around the benchmark's own calls
// into capi, svc and schedsim and writes them to a span file at exit.
//
//   perfbench --workload <jacobi|tealeaf|corpus|dpor> --seed <n> --seconds <s>
//             --trace <0|1> [--spans-dir <dir>]
//
// Every setting the checker reads from CUSAN_* variables is pinned through
// SessionConfig/ToolConfig/ExecutorOptions/ExplorerOptions instead, and the
// process refuses to start while any CUSAN_* variable is set. README.md in
// this directory documents the workloads and the layer -> metric map.
#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/tealeaf.hpp"
#include "bench_common.hpp"
#include "capi/session.hpp"
#include "common/clock.hpp"
#include "mpisim/counters.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/explorer.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "svc/executor.hpp"
#include "testsuite/scenarios.hpp"

extern char** environ;

namespace {

using perfbench::Span;
using perfbench::SpanLog;

// ---------------------------------------------------------------------------
// Pinned workload shape.

constexpr int kSetupProbes = 9;  ///< fresh processes timed for setup_s
/// CPUs the process is pinned to. Spread over all vCPUs of a shared VM, the
/// thread-heavy workloads keep halting and waking vCPUs, and the wake latency
/// (reported as steal) swings run times by up to 3x with the neighbours'
/// load; on two CPUs the same runs repeat within a few percent. Two, not one:
/// a single CPU serializes the ranks, which changes what DPOR explores.
constexpr int kCpus = 2;
constexpr std::uint64_t kVanillaEvery = 4;  ///< one vanilla session per 4 checked ops
constexpr std::uint64_t kRacyBlock = 8;     ///< apps: one seeded racy op per 8 ops
constexpr int kCorpusRanks = 8;
constexpr int kAppRanks = 2;
constexpr int kDporRanks = 2;
constexpr int kCorpusWorkers = 4;
constexpr std::size_t kCorpusWindow = 4;  ///< sessions in flight
constexpr std::uint32_t kDporBound = 24;
constexpr std::chrono::milliseconds kWatchdog{1000};  ///< the shipped default
constexpr std::uint64_t kSvcBudgetMb = std::uint64_t{1} << 20;  ///< effectively unbounded
/// The measured loop never runs past this many seconds after process start,
/// even when it is still short of the samples the p90 rule needs; the run then
/// exits 3 without a result. It leaves room, within the 180 s a run may take,
/// for the build check before the binary starts and the teardown after it.
constexpr double kDeadlineSeconds = 160.0;
/// Seed reserved for confirming a claim after tuning on other seeds.
constexpr std::uint64_t kHoldoutSeed = 9001;

constexpr double kMiB = 1024.0 * 1024.0;

[[nodiscard]] std::uint64_t now_ns() { return common::now_ns(); }
/// Whether a vanilla session of op k's config or scenario follows op k.
[[nodiscard]] bool vanilla_follows(std::uint64_t k) { return k % kVanillaEvery == kVanillaEvery - 1; }
[[nodiscard]] double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// splitmix64: tiny, seedable and identical on every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// The CPUs pin_cpus() picked; written once in main before any other thread.
std::vector<int> g_pinned_cpus;

/// Pin the process (and every thread it spawns later) to the kCpus
/// highest-numbered CPUs it may run on; returns them, comma-separated.
[[nodiscard]] std::string pin_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return "unpinned";
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::string list;
  int picked = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && picked < kCpus; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &mask);
      g_pinned_cpus.push_back(cpu);
      list += (picked++ == 0 ? "" : ",") + std::to_string(cpu);
    }
  }
  if (::sched_setaffinity(0, sizeof mask, &mask) != 0) {
    g_pinned_cpus.clear();
    return "unpinned";
  }
  return list;
}

/// Bind the calling rank thread to one pinned CPU, round robin by rank, the
/// way an MPI launcher binds ranks to cores. Threads the rank creates from
/// here on (its user streams) inherit the binding; threads created before
/// the rank body runs (the default stream) keep the process-wide pin.
void bind_rank(int rank) {
  if (g_pinned_cpus.empty()) {
    return;
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(g_pinned_cpus[static_cast<std::size_t>(rank) % g_pinned_cpus.size()], &mask);
  (void)::sched_setaffinity(0, sizeof mask, &mask);
}

/// /proc/self views opened before the load starts, so the end-of-run reads
/// still work if the program has used up the fd table by then.
class ProcSelf {
 public:
  ProcSelf()
      : status_fd_(::open("/proc/self/status", O_RDONLY | O_CLOEXEC)),
        fd_dir_(::fdopendir(::open("/proc/self/fd", O_RDONLY | O_DIRECTORY | O_CLOEXEC))) {}
  ~ProcSelf() {
    if (status_fd_ >= 0) {
      ::close(status_fd_);
    }
    if (fd_dir_ != nullptr) {
      ::closedir(fd_dir_);
    }
  }
  ProcSelf(const ProcSelf&) = delete;
  ProcSelf& operator=(const ProcSelf&) = delete;

  /// VmHWM in bytes (0 when unreadable).
  [[nodiscard]] double peak_rss_bytes() const {
    char buf[8192];
    const ssize_t n = status_fd_ < 0 ? -1 : ::pread(status_fd_, buf, sizeof buf - 1, 0);
    if (n <= 0) {
      return 0;
    }
    buf[n] = '\0';
    const char* p = std::strstr(buf, "VmHWM:");
    return p == nullptr ? 0 : std::strtod(p + 6, nullptr) * 1024.0;
  }

  /// Open file descriptors of the process.
  [[nodiscard]] double open_fds() {
    if (fd_dir_ == nullptr) {
      return 0;
    }
    ::rewinddir(fd_dir_);
    double count = 0;
    while (const dirent* entry = ::readdir(fd_dir_)) {
      count += entry->d_name[0] != '.' ? 1 : 0;
    }
    return count;
  }

 private:
  int status_fd_;
  DIR* fd_dir_;
};

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  int seconds{0};
  bool trace{false};
  bool setup_probe{false};
  std::string spans_dir{"."};
};

[[nodiscard]] bool parse_uint(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

[[nodiscard]] bool parse_options(int argc, char** argv, Options* opt, std::string* error) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-probe") {
      opt->setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + arg;
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed" && parse_uint(value, &n)) {
      opt->seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_uint(value, &n) && n >= 1 && n <= 120) {
      opt->seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_uint(value, &n) && n <= 1) {
      opt->trace = n == 1;
      have_trace = true;
    } else if (arg == "--spans-dir") {
      opt->spans_dir = value;
    } else {
      *error = "bad argument " + arg + " " + value;
      return false;
    }
  }
  if (opt->workload != "jacobi" && opt->workload != "tealeaf" && opt->workload != "corpus" &&
      opt->workload != "dpor") {
    *error = "--workload must be jacobi, tealeaf, corpus or dpor";
    return false;
  }
  if (!have_seed || (!opt->setup_probe && (!have_seconds || !have_trace))) {
    *error = "--seed, --seconds (1..120) and --trace (0|1) are required";
    return false;
  }
  return true;
}

/// Names of CUSAN_* variables in the environment (each would silently
/// override a pinned setting, or be silently ignored when invalid).
[[nodiscard]] std::vector<std::string> cusan_environment() {
  std::vector<std::string> names;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "CUSAN_", 6) == 0) {
      const char* eq = std::strchr(*env, '=');
      names.emplace_back(*env, eq == nullptr ? std::strlen(*env) : static_cast<std::size_t>(eq - *env));
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// capi: one session, timed from outside. The rank body wrapper stamps entry
// and exit so the call splits into setup (call -> last rank entry), body
// (last entry -> last exit) and teardown (last exit -> return).

struct SessionTiming {
  std::uint64_t call_ns{0};
  std::uint64_t last_entry_ns{0};
  std::uint64_t last_exit_ns{0};
  std::uint64_t return_ns{0};
};

struct TimedSession {
  std::vector<capi::RankResult> results;
  SessionTiming timing;
  [[nodiscard]] double ms() const { return to_ms(timing.return_ns - timing.call_ns); }
};

void store_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value && !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

[[nodiscard]] TimedSession run_timed(const capi::SessionConfig& config,
                                     const capi::RankMain& body) {
  std::atomic<std::uint64_t> last_entry{0};
  std::atomic<std::uint64_t> last_exit{0};
  TimedSession out;
  out.timing.call_ns = now_ns();
  out.results = capi::run_session(config, [&](capi::RankEnv& env) {
    bind_rank(env.rank());
    store_max(last_entry, now_ns());
    body(env);
    store_max(last_exit, now_ns());
  });
  out.timing.return_ns = now_ns();
  out.timing.last_entry_ns = last_entry.load();
  out.timing.last_exit_ns = last_exit.load();
  return out;
}

/// The checker settings every workload pins (the shipped defaults, written
/// out so no environment variable can change them).
[[nodiscard]] capi::SessionConfig pinned_config(capi::Flavor flavor, int ranks) {
  capi::SessionConfig config;
  config.ranks = ranks;
  config.tools = capi::make_tool_config(flavor);
  config.tools.rsan_config.use_shadow_fast_path = true;
  config.tools.rsan_config.shadow_max_bytes = 0;
  config.tools.cusan_config.prove_elide = cusan::ProveElide::kOff;
  config.tools.cusan_config.use_access_intervals = true;
  config.watchdog_timeout = kWatchdog;
  return config;
}

// ---------------------------------------------------------------------------
// Per-layer counts, summed over measured checked ops.

using Tally = std::map<std::string, double>;

void tally_results(Tally& tally, const std::vector<capi::RankResult>& results) {
  for (const capi::RankResult& r : results) {
    rsan::for_each_counter(r.tsan_counters, [&](const char* name, std::uint64_t v) {
      tally[std::string("rsan.") + name] += static_cast<double>(v);
    });
    cusan::for_each_counter(r.cusan_counters, [&](const char* name, std::uint64_t v) {
      tally[std::string("cusan.") + name] += static_cast<double>(v);
    });
    must::for_each_counter(r.must_counters, [&](const char* name, std::uint64_t v) {
      tally[std::string("must.") + name] += static_cast<double>(v);
    });
    tally["typeart.lookups"] += static_cast<double>(r.typeart_stats.lookups);
    tally["typeart.failed_lookups"] += static_cast<double>(r.typeart_stats.failed_lookups);
    tally["rsan.shadow_bytes"] += static_cast<double>(r.shadow_bytes);
  }
}

void tally_contention(Tally& tally, const mpisim::ContentionSnapshot& d) {
  tally["mpisim.mailbox_locks"] += static_cast<double>(d.mailbox_locks);
  tally["mpisim.wakeups_delivered"] += static_cast<double>(d.wakeups_delivered);
  tally["mpisim.wakeups_spurious"] += static_cast<double>(d.wakeups_spurious);
  tally["mpisim.any_source_scans"] += static_cast<double>(d.any_source_scans);
}

[[nodiscard]] mpisim::ContentionSnapshot contention_from(const obs::MetricsSnapshot& deltas) {
  const auto get = [&](const char* name) -> std::uint64_t {
    const auto it = deltas.find(name);
    return it == deltas.end() ? 0 : it->second;
  };
  mpisim::ContentionSnapshot s;
  s.mailbox_locks = get("mpisim.mailbox_locks");
  s.wakeups_delivered = get("mpisim.wakeups_delivered");
  s.wakeups_spurious = get("mpisim.wakeups_spurious");
  s.any_source_scans = get("mpisim.any_source_scans");
  return s;
}

// ---------------------------------------------------------------------------
// Run state shared by all workloads.

struct RunState {
  explicit RunState(const Options& o) : opt(o) {}
  const Options& opt;
  SpanLog spans;

  std::uint64_t attempted{0};  ///< verified sessions: checked ops and reference sessions
  std::uint64_t failed{0};
  std::vector<std::string> failure_notes;

  std::uint64_t ops{0};  ///< measured checked ops (the first op excluded)
  std::vector<double> op_ms;
  std::vector<double> traced_op_ms;
  std::vector<double> untraced_op_ms;
  std::vector<double> checked_session_ms;  ///< clean checked sessions (paper.overhead_x)
  std::vector<double> vanilla_session_ms;  ///< interleaved vanilla sessions
  /// tool_ms pairs, keyed by the op a vanilla session followed: that op's
  /// checked session ms (dpor: the median of its explored executions) and
  /// the vanilla session of the same config or scenario.
  std::map<std::uint64_t, double> paired_checked_ms;
  std::map<std::uint64_t, double> paired_vanilla_ms;
  Tally tally;

  // Layer-specific samples and totals.
  std::vector<double> execution_ms;   ///< schedsim: one per explored schedule
  std::uint64_t executions{0};
  std::uint64_t redundant{0};
  std::uint64_t exhausted{0};
  std::uint64_t hb_prunes{0};
  std::uint64_t graph_nodes{0};
  std::uint64_t explorations{0};
  double wrap_ms_total{0.0};          ///< svc: duration_ns minus the body span
  std::uint64_t steals{0};
  std::uint64_t parked{0};

  void verify(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failure_notes.size() < 10) {
        failure_notes.push_back(what);
      }
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }

  void record_op(double ms, bool traced) {
    ++ops;
    op_ms.push_back(ms);
    (traced ? traced_op_ms : untraced_op_ms).push_back(ms);
  }
};

/// Spans of one op; every call is a no-op when the op is not traced.
class OpTrace {
 public:
  OpTrace(SpanLog* log, std::uint64_t op) : log_(log), op_(op) {}

  [[nodiscard]] std::uint32_t reserve() { return log_ != nullptr ? log_->reserve_id() : 0; }

  void span(std::uint32_t id, std::uint32_t parent, const char* name, std::uint64_t start,
            std::uint64_t end) {
    if (log_ != nullptr) {
      log_->record(Span{id, parent, op_, start, end, name});
    }
  }

  /// capi.setup / capi.body / capi.teardown under `parent`.
  void session(std::uint32_t parent, const SessionTiming& t) {
    if (log_ == nullptr || t.last_entry_ns == 0) {
      return;  // untraced, or the session threw before any rank body ran
    }
    span(reserve(), parent, "capi.setup", t.call_ns, t.last_entry_ns);
    span(reserve(), parent, "capi.body", t.last_entry_ns, t.last_exit_ns);
    span(reserve(), parent, "capi.teardown", t.last_exit_ns, t.return_ns);
  }

 private:
  SpanLog* log_;
  std::uint64_t op_;
};

/// When the measured loop may start another op.
struct Window {
  std::uint64_t until_ns{0};
  std::uint64_t cap_ns{0};
  std::uint64_t min_ops{0};
  [[nodiscard]] bool more(std::uint64_t ops_done) const {
    const std::uint64_t t = now_ns();
    return t < cap_ns && (t < until_ns || ops_done < min_ops);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The first op after setup: verified, but not part of op_ms.
  virtual void first_op(RunState& run) = 0;
  virtual void measure(RunState& run, const Window& window) = 0;
  /// Effective config as JSON members (no braces).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// One client, closed loop: op k starts when op k-1 has been verified.
class SerialWorkload : public Workload {
 public:
  void first_op(RunState& run) override { run_op(run, 0, /*measured=*/false, /*traced=*/false); }
  void measure(RunState& run, const Window& window) override {
    for (std::uint64_t k = 1; window.more(run.ops); ++k) {
      // The traced run alternates traced and untraced ops; the difference
      // of their medians is the tracing overhead.
      run_op(run, k, /*measured=*/true, run.opt.trace && k % 2 == 1);
    }
  }

 protected:
  virtual void run_op(RunState& run, std::uint64_t k, bool measured, bool traced) = 0;
};

// ---------------------------------------------------------------------------
// jacobi / tealeaf: Fig. 10 apps, MUST & CuSan ops with vanilla interleaved.

enum class App { kJacobi, kTeaLeaf };

/// Bit patterns of an app's outputs: clean runs must match exactly.
using AppOutput = std::array<std::uint64_t, 3>;

class AppWorkload final : public SerialWorkload {
 public:
  AppWorkload(App app, std::uint64_t seed)
      : app_(app),
        rng_(seed),
        jacobi_(bench::bench_jacobi_config()),
        tealeaf_(bench::bench_tealeaf_config()) {}

  [[nodiscard]] std::string describe() const override {
    char buf[512];
    if (app_ == App::kJacobi) {
      std::snprintf(buf, sizeof buf,
                    "\"app\": \"jacobi\", \"rows\": %zu, \"cols\": %zu, \"iterations\": %zu, "
                    "\"racy_variant\": \"skip_pre_mpi_sync\"",
                    jacobi_.rows, jacobi_.cols, jacobi_.iterations);
    } else {
      std::snprintf(buf, sizeof buf,
                    "\"app\": \"tealeaf\", \"rows\": %zu, \"cols\": %zu, \"timesteps\": %zu, "
                    "\"max_cg_iters\": %zu, \"racy_variant\": \"skip_wait_before_kernel\"",
                    tealeaf_.rows, tealeaf_.cols, tealeaf_.timesteps, tealeaf_.max_cg_iters);
    }
    return std::string(buf) +
           ", \"ranks\": 2, \"launch_overhead_ns\": " +
           std::to_string(bench::bench_device_profile().launch_overhead_ns) + ", \"racy_every\": " +
           std::to_string(kRacyBlock) + ", \"vanilla_every\": " + std::to_string(kVanillaEvery);
  }

 protected:
  void run_op(RunState& run, std::uint64_t k, bool measured, bool traced) override {
    OpTrace trace(traced ? &run.spans : nullptr, k);
    const bool racy = is_racy(k);
    if (traced && !racy) {
      // The flavor ladder below the checked op, one rung span each.
      rung(run, trace, capi::Flavor::kVanilla, "rung.vanilla");
      rung(run, trace, capi::Flavor::kTsan, "rung.tsan");
      rung(run, trace, capi::Flavor::kCusan, "rung.cusan");
    }
    const std::uint32_t op_id = trace.reserve();
    const std::uint32_t session_id = trace.reserve();
    const std::uint64_t op_start = now_ns();
    const mpisim::ContentionSnapshot before = mpisim::contention_snapshot();
    std::vector<AppOutput> outputs;
    std::optional<TimedSession> session = run_app(capi::Flavor::kMustCusan, racy, &outputs);
    const mpisim::ContentionSnapshot after = mpisim::contention_snapshot();
    const std::string what = std::string(name()) + " op " + std::to_string(k);
    if (!session) {
      run.verify(false, what + ": exception");
    } else if (racy) {
      run.verify(capi::total_races(session->results) >= 1, what + " (racy): no race reported");
    } else {
      run.verify(capi::total_races(session->results) == 0 && outputs_match(outputs),
                 what + ": races or output differs from vanilla");
    }
    const std::uint64_t op_end = now_ns();
    if (session) {
      trace.span(session_id, op_id, racy ? "session.racy" : "rung.must_cusan",
                 session->timing.call_ns, session->timing.return_ns);
      trace.session(session_id, session->timing);
    }
    trace.span(op_id, 0, "op", op_start, op_end);
    if (measured) {
      run.record_op(to_ms(op_end - op_start), traced);
      if (session) {
        tally_results(run.tally, session->results);
        tally_contention(run.tally, mpisim::contention_delta(before, after));
        if (!racy) {
          run.checked_session_ms.push_back(session->ms());
          if (vanilla_follows(k)) {
            run.paired_checked_ms[k] = session->ms();
          }
        }
      }
    }
    if (vanilla_follows(k)) {
      const double ms = rung(run, trace, capi::Flavor::kVanilla, "rung.vanilla");
      if (measured && ms > 0) {
        run.vanilla_session_ms.push_back(ms);
        run.paired_vanilla_ms[k] = ms;
      }
    }
  }

 private:
  [[nodiscard]] const char* name() const { return app_ == App::kJacobi ? "jacobi" : "tealeaf"; }

  /// One seeded racy op in every block of kRacyBlock ops; never op 0 of a
  /// block, so the first op (setup) is always clean.
  bool is_racy(std::uint64_t k) {
    const std::uint64_t block = k / kRacyBlock;
    if (block != block_) {
      block_ = block;
      racy_offset_ = 1 + rng_.below(kRacyBlock - 1);
    }
    return k % kRacyBlock == racy_offset_;
  }

  [[nodiscard]] std::optional<TimedSession> run_app(capi::Flavor flavor, bool racy,
                                                    std::vector<AppOutput>* outputs) {
    capi::SessionConfig config = pinned_config(flavor, kAppRanks);
    config.device_profile = bench::bench_device_profile();  // the Fig. 10 harness profile
    outputs->assign(kAppRanks, AppOutput{});
    try {
      if (app_ == App::kJacobi) {
        apps::JacobiConfig app = jacobi_;
        app.skip_pre_mpi_sync = racy;
        return run_timed(config, [&](capi::RankEnv& env) {
          const apps::JacobiResult r = apps::run_jacobi_rank(env, app);
          (*outputs)[static_cast<std::size_t>(env.rank())] = {
              std::bit_cast<std::uint64_t>(r.final_residual), r.iterations_run, 0};
        });
      }
      apps::TeaLeafConfig app = tealeaf_;
      app.skip_wait_before_kernel = racy;
      return run_timed(config, [&](capi::RankEnv& env) {
        const apps::TeaLeafResult r = apps::run_tealeaf_rank(env, app);
        (*outputs)[static_cast<std::size_t>(env.rank())] = {
            std::bit_cast<std::uint64_t>(r.temperature_sum),
            std::bit_cast<std::uint64_t>(r.final_residual), r.total_cg_iters};
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s session threw: %s\n", to_string(flavor), e.what());
      return std::nullopt;
    }
  }

  /// Clean outputs must be bit-equal on every rank and to the first clean
  /// run of the process (vanilla and checked runs alike).
  bool outputs_match(const std::vector<AppOutput>& outputs) {
    for (const AppOutput& o : outputs) {
      if (!reference_) {
        reference_ = o;
      }
      if (o != *reference_) {
        return false;
      }
    }
    return true;
  }

  /// A clean reference session under `flavor`; returns its wall ms (0 when
  /// it failed).
  double rung(RunState& run, OpTrace& trace, capi::Flavor flavor, const char* span_name) {
    const std::uint32_t id = trace.reserve();
    std::vector<AppOutput> outputs;
    const std::optional<TimedSession> session = run_app(flavor, /*racy=*/false, &outputs);
    run.verify(session && capi::total_races(session->results) == 0 && outputs_match(outputs),
               std::string(name()) + " " + to_string(flavor) +
                   " reference session: exception, races or output differs");
    if (!session) {
      return 0.0;
    }
    trace.span(id, 0, span_name, session->timing.call_ns, session->timing.return_ns);
    trace.session(id, session->timing);
    return session->ms();
  }

  App app_;
  Rng rng_;
  apps::JacobiConfig jacobi_;
  apps::TeaLeafConfig tealeaf_;
  std::uint64_t block_{~std::uint64_t{0}};
  std::uint64_t racy_offset_{0};
  std::optional<AppOutput> reference_;
};

// ---------------------------------------------------------------------------
// Scenario order shared by corpus and dpor: op 0 (the setup op) is always
// the first scenario of the matrix, so setup_s does not depend on the seed;
// measured ops walk a fresh seeded permutation of the corpus every pass.

class ScenarioOrder {
 public:
  explicit ScenarioOrder(std::uint64_t seed) : scenarios_(testsuite::build_scenarios()), rng_(seed) {}

  [[nodiscard]] const testsuite::Scenario& at(std::uint64_t op) {
    if (op == 0) {
      return scenarios_[0];
    }
    const std::uint64_t k = op - 1;
    const std::uint64_t n = scenarios_.size();
    if (k / n != pass_) {
      pass_ = k / n;
      order_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        order_[i] = i;
      }
      rng_.shuffle(order_);
    }
    return scenarios_[order_[k % n]];
  }
  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<testsuite::Scenario> scenarios_;
  Rng rng_;
  std::uint64_t pass_{~std::uint64_t{0}};
  std::vector<std::size_t> order_;
};

/// A scenario session configured as testsuite::run_scenario_outcome does,
/// with the world size pinned instead of read from CUSAN_RANKS.
[[nodiscard]] capi::SessionConfig scenario_config(const testsuite::Scenario& scenario,
                                                  capi::Flavor flavor, int ranks) {
  capi::SessionConfig config = pinned_config(flavor, ranks);
  config.tools.cusan_config.use_access_intervals =
      scenario.precision == testsuite::Precision::kIntervals;
  config.device_profile.default_stream_mode = scenario.stream_mode;
  return config;
}

[[nodiscard]] std::optional<TimedSession> run_scenario(const testsuite::Scenario& scenario,
                                                       capi::Flavor flavor, int ranks) {
  try {
    return run_timed(scenario_config(scenario, flavor, ranks),
                     [&](capi::RankEnv& env) { testsuite::scenario_rank_main(env, scenario); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s threw: %s\n", scenario.name.c_str(), e.what());
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// dpor: each op is one scenario's systematic exploration at 2 ranks.

class DporWorkload final : public SerialWorkload {
 public:
  explicit DporWorkload(std::uint64_t seed) : order_(seed) {}

  [[nodiscard]] std::string describe() const override {
    return "\"scenarios\": " + std::to_string(order_.size()) +
           ", \"ranks\": 2, \"dpor_bound\": " + std::to_string(kDporBound) +
           ", \"hb_pruning\": true, \"vanilla_every\": " + std::to_string(kVanillaEvery);
  }

 protected:
  void run_op(RunState& run, std::uint64_t k, bool measured, bool traced) override {
    const testsuite::Scenario& scenario = order_.at(k);
    OpTrace trace(traced ? &run.spans : nullptr, k);
    const std::uint32_t op_id = trace.reserve();
    const std::uint32_t explore_id = trace.reserve();
    schedsim::ExplorerOptions options;
    options.bound = kDporBound;
    options.use_graph = true;
    options.collect_graphs = false;
    schedsim::Explorer explorer(options);
    bool threw = false;
    Tally tally;
    std::vector<double> session_ms;
    const std::uint64_t op_start = now_ns();
    const mpisim::ContentionSnapshot before = mpisim::contention_snapshot();
    const std::uint64_t explore_start = now_ns();
    const std::vector<schedsim::Execution> executions =
        explorer.explore(schedsim::Controller::instance(), [&]() -> std::size_t {
          const std::uint32_t id = trace.reserve();
          const std::optional<TimedSession> session =
              run_scenario(scenario, capi::Flavor::kMustCusan, kDporRanks);
          if (!session) {
            threw = true;
            return 0;
          }
          trace.span(id, explore_id, "schedsim.execution", session->timing.call_ns,
                     session->timing.return_ns);
          trace.session(id, session->timing);
          tally_results(tally, session->results);
          session_ms.push_back(session->ms());
          return capi::total_races(session->results);
        });
    const std::uint64_t explore_end = now_ns();
    const mpisim::ContentionSnapshot after = mpisim::contention_snapshot();
    bool agree = !executions.empty();
    for (const schedsim::Execution& e : executions) {
      agree = agree && !e.diverged && testsuite::classified_correctly(scenario, e.races);
    }
    run.verify(!threw && agree, "dpor " + scenario.name +
                                    ": exception, divergence or a verdict off the expectation");
    const std::uint64_t op_end = now_ns();
    trace.span(explore_id, op_id, "schedsim.explore", explore_start, explore_end);
    trace.span(op_id, 0, "op", op_start, op_end);
    if (measured) {
      run.record_op(to_ms(op_end - op_start), traced);
      for (const auto& [key, value] : tally) {
        run.tally[key] += value;
      }
      tally_contention(run.tally, mpisim::contention_delta(before, after));
      run.checked_session_ms.insert(run.checked_session_ms.end(), session_ms.begin(),
                                    session_ms.end());
      run.execution_ms.insert(run.execution_ms.end(), session_ms.begin(), session_ms.end());
      if (vanilla_follows(k) && !session_ms.empty()) {
        run.paired_checked_ms[k] = perfbench::median(session_ms);
      }
      const schedsim::ExplorerStats& stats = explorer.stats();
      ++run.explorations;
      run.executions += stats.executions;
      run.redundant += stats.redundant;
      run.hb_prunes += stats.hb_prunes;
      run.graph_nodes += stats.graph_nodes;
      run.exhausted += stats.bound_hit ? 0 : 1;
    }
    if (vanilla_follows(k)) {
      const std::uint32_t id = trace.reserve();
      const std::optional<TimedSession> vanilla =
          run_scenario(scenario, capi::Flavor::kVanilla, kDporRanks);
      run.verify(vanilla && capi::total_races(vanilla->results) == 0,
                 "dpor vanilla " + scenario.name + ": exception or races");
      if (vanilla) {
        trace.span(id, 0, "rung.vanilla", vanilla->timing.call_ns, vanilla->timing.return_ns);
        trace.session(id, vanilla->timing);
        if (measured) {
          run.vanilla_session_ms.push_back(vanilla->ms());
          run.paired_vanilla_ms[k] = vanilla->ms();
        }
      }
    }
  }

 private:
  ScenarioOrder order_;
};

// ---------------------------------------------------------------------------
// corpus: 8-rank scenario sessions through the svc executor, 4 in flight.

class CorpusWorkload final : public Workload {
 public:
  explicit CorpusWorkload(std::uint64_t seed)
      : order_(seed), executor_(svc::ExecutorOptions{kCorpusWorkers, kSvcBudgetMb}) {}

  [[nodiscard]] std::string describe() const override {
    return "\"scenarios\": " + std::to_string(order_.size()) +
           ", \"ranks\": 8, \"workers\": " + std::to_string(kCorpusWorkers) +
           ", \"window\": " + std::to_string(kCorpusWindow) +
           ", \"svc_max_mb\": " + std::to_string(kSvcBudgetMb) +
           ", \"vanilla_every\": " + std::to_string(kVanillaEvery);
  }

  void first_op(RunState& run) override {
    submit(0, /*vanilla=*/false, /*traced=*/false);
    complete(run, pop(), /*measured=*/false);
  }

  void measure(RunState& run, const Window& window) override {
    const svc::ExecutorStats stats_before = executor_.stats();
    std::uint64_t next = 1;
    std::uint64_t inflight_checked = 0;
    bool vanilla_due = false;
    std::uint64_t vanilla_k = 0;
    std::size_t inflight = 0;
    for (;;) {
      while (inflight < kCorpusWindow && window.more(run.ops + inflight_checked)) {
        if (vanilla_due) {
          submit(vanilla_k, /*vanilla=*/true, run.opt.trace && vanilla_k % 2 == 1);
          vanilla_due = false;
        } else {
          submit(next, /*vanilla=*/false, run.opt.trace && next % 2 == 1);
          ++inflight_checked;
          if (vanilla_follows(next)) {
            vanilla_due = true;
            vanilla_k = next;
          }
          ++next;
        }
        ++inflight;
      }
      if (inflight == 0) {
        break;
      }
      const std::shared_ptr<Pending> done = pop();
      --inflight;
      if (!done->vanilla) {
        --inflight_checked;
      }
      complete(run, done, /*measured=*/true);
    }
    const svc::ExecutorStats stats_after = executor_.stats();
    run.steals += stats_after.steals - stats_before.steals;
    run.parked += stats_after.parked - stats_before.parked;
  }

 private:
  /// One submitted session. The body and the completion callback fill it on
  /// a worker thread; the generator reads it after popping it from done_
  /// (the mutex orders the two).
  struct Pending {
    std::uint64_t k{0};
    bool vanilla{false};
    bool traced{false};
    const testsuite::Scenario* scenario{nullptr};
    std::uint64_t submit_ns{0};
    std::uint64_t body_start_ns{0};
    std::uint64_t body_end_ns{0};
    std::uint64_t done_ns{0};
    std::optional<TimedSession> session;
    bool ok{false};
    std::uint64_t duration_ns{0};
    obs::MetricsSnapshot metric_deltas;
  };

  void submit(std::uint64_t k, bool vanilla, bool traced) {
    auto pending = std::make_shared<Pending>();
    pending->k = k;
    pending->vanilla = vanilla;
    pending->traced = traced;
    pending->scenario = &order_.at(k);
    svc::SessionSpec spec;
    spec.label = pending->scenario->name;
    spec.body = [pending] {
      pending->body_start_ns = now_ns();
      pending->session =
          run_scenario(*pending->scenario,
                       pending->vanilla ? capi::Flavor::kVanilla : capi::Flavor::kMustCusan,
                       kCorpusRanks);
      pending->body_end_ns = now_ns();
    };
    pending->submit_ns = now_ns();
    (void)executor_.submit(std::move(spec), [this, pending](const svc::SessionHandle& handle) {
      pending->done_ns = now_ns();
      const svc::SessionResult& result = handle.result();
      pending->ok = result.ok;
      pending->duration_ns = result.duration_ns;
      pending->metric_deltas = result.metric_deltas;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.push_back(pending);
      }
      cv_.notify_one();
    });
  }

  [[nodiscard]] std::shared_ptr<Pending> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !done_.empty(); });
    std::shared_ptr<Pending> p = done_.front();
    done_.pop_front();
    return p;
  }

  void complete(RunState& run, const std::shared_ptr<Pending>& p, bool measured) {
    const std::uint64_t observed_ns = now_ns();
    const testsuite::Scenario& scenario = *p->scenario;
    const bool ran = p->ok && p->session.has_value();
    const std::size_t races = ran ? capi::total_races(p->session->results) : 0;
    if (p->vanilla) {
      run.verify(ran && races == 0, "corpus vanilla " + scenario.name + ": !ok or races");
    } else {
      run.verify(ran && testsuite::classified_correctly(scenario, races),
                 "corpus " + scenario.name + ": !ok or misclassified");
    }
    OpTrace trace(p->traced ? &run.spans : nullptr, p->k);
    const std::uint32_t root = trace.reserve();
    const std::uint32_t queue = trace.reserve();
    const std::uint32_t session = trace.reserve();
    const std::uint64_t body_start = p->body_start_ns != 0 ? p->body_start_ns : p->done_ns;
    trace.span(queue, root, "svc.queue", p->submit_ns, body_start);
    trace.span(session, root, "svc.session", body_start, p->done_ns);
    if (p->session) {
      trace.session(session, p->session->timing);
    }
    trace.span(root, 0, p->vanilla ? "vanilla" : "op", p->submit_ns, observed_ns);
    if (!measured || !ran) {
      return;
    }
    if (p->vanilla) {
      run.vanilla_session_ms.push_back(p->session->ms());
      run.paired_vanilla_ms[p->k] = p->session->ms();
      return;
    }
    run.record_op(to_ms(observed_ns - p->submit_ns), p->traced);
    run.checked_session_ms.push_back(p->session->ms());
    if (vanilla_follows(p->k)) {
      run.paired_checked_ms[p->k] = p->session->ms();
    }
    tally_results(run.tally, p->session->results);
    tally_contention(run.tally, contention_from(p->metric_deltas));
    const std::uint64_t body_ns = p->body_end_ns - p->body_start_ns;
    run.wrap_ms_total += to_ms(p->duration_ns > body_ns ? p->duration_ns - body_ns : 0);
  }

  ScenarioOrder order_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Pending>> done_;
  // Last: workers are joined before the members their callbacks touch go.
  svc::Executor executor_;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "jacobi") {
    return std::make_unique<AppWorkload>(App::kJacobi, opt.seed);
  }
  if (opt.workload == "tealeaf") {
    return std::make_unique<AppWorkload>(App::kTeaLeaf, opt.seed);
  }
  if (opt.workload == "corpus") {
    return std::make_unique<CorpusWorkload>(opt.seed);
  }
  return std::make_unique<DporWorkload>(opt.seed);
}

// ---------------------------------------------------------------------------
// setup_s: fresh processes, each timed from spawn to its first verified op.

/// Spawn this binary in setup-probe mode and return seconds from the spawn
/// call to the completion of the child's first op (nullopt on failure).
[[nodiscard]] std::optional<double> setup_probe(const Options& opt) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return std::nullopt;
  }
  std::string seed = std::to_string(opt.seed);
  std::string exe = "/proc/self/exe";
  std::vector<char*> argv = {exe.data(),
                             const_cast<char*>("--setup-probe"),
                             const_cast<char*>("--workload"),
                             const_cast<char*>(opt.workload.c_str()),
                             const_cast<char*>("--seed"),
                             seed.data(),
                             nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const std::uint64_t spawn_ns = now_ns();
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fds[0]);
  if (rc != 0) {
    return std::nullopt;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::uint64_t done_ns = 0;
  const std::string tag = "perfbench-setup-done ";
  const std::size_t at = out.find(tag);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || at == std::string::npos ||
      std::sscanf(out.c_str() + at + tag.size(), "%" SCNu64, &done_ns) != 1 || done_ns < spawn_ns) {
    return std::nullopt;
  }
  return static_cast<double>(done_ns - spawn_ns) / 1e9;
}

// ---------------------------------------------------------------------------
// Output.

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

[[nodiscard]] std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[nodiscard]] std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct OsUsage {
  double user_s{0};
  double sys_s{0};
  double ctx_switches{0};
  double minor_faults{0};
  double open_fds{0};
};

[[nodiscard]] OsUsage read_os(ProcSelf& proc) {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return OsUsage{secs(ru.ru_utime), secs(ru.ru_stime),
                 static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
                 static_cast<double>(ru.ru_minflt), proc.open_fds()};
}

/// Median duration (ms) of every span with this name.
[[nodiscard]] double median_span_ms(const std::vector<Span>& spans, const char* name) {
  std::vector<double> v;
  for (const Span& s : spans) {
    if (s.name == name) {
      v.push_back(to_ms(s.duration_ns()));
    }
  }
  return perfbench::median(v);
}

/// Per-layer metrics of a traced run, from the span file read back and the
/// counts the program returned.
[[nodiscard]] std::vector<MetricOut> per_layer_metrics(const RunState& run,
                                                       const std::vector<Span>& spans,
                                                       const OsUsage& os, double window_s) {
  using perfbench::ratio;
  const double ops = static_cast<double>(std::max<std::uint64_t>(run.ops, 1));
  const auto per_op = [&](const char* key) {
    const auto it = run.tally.find(key);
    return it == run.tally.end() ? 0.0 : it->second / ops;
  };
  const auto sum = [&](const char* key) {
    const auto it = run.tally.find(key);
    return it == run.tally.end() ? 0.0 : it->second;
  };
  // Span-derived times cover the spans under "op" roots only (not the
  // reference rungs or vanilla sessions), summed per name and divided by the
  // traced op count: a dpor op runs many capi sessions.
  std::map<std::uint32_t, const Span*> by_id;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
  }
  const auto under_op = [&](const Span& s) {
    const Span* cur = &s;
    while (cur->parent != 0) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) {
        return false;
      }
      cur = it->second;
    }
    return cur->name == "op";
  };
  const std::vector<std::uint64_t> self = perfbench::self_times_ns(spans);
  std::map<std::string, double> total_ns;
  std::map<std::string, double> self_ns;
  std::map<std::string, double> count;
  std::vector<double> queue_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!under_op(s)) {
      continue;
    }
    total_ns[s.name] += static_cast<double>(s.duration_ns());
    self_ns[s.name] += static_cast<double>(self[i]);
    count[s.name] += 1;
    if (s.name == "svc.queue") {
      queue_ms.push_back(to_ms(s.duration_ns()));
    }
  }
  const double traced_ops = std::max(count["op"], 1.0);
  const auto per_traced_op_ms = [&](const std::map<std::string, double>& ns, const char* name) {
    const auto it = ns.find(name);
    return it == ns.end() ? 0.0 : it->second / 1e6 / traced_ops;
  };
  // Share of the op wall time the layer spans below it account for.
  double child_self_ns = 0;
  for (const auto& [name, ns] : self_ns) {
    if (name != "op") {
      child_self_ns += ns;
    }
  }

  // Ladder: rung medians, cheapest first (apps only; zero elsewhere).
  const double vanilla_ms = median_span_ms(spans, "rung.vanilla");
  const double tsan_ms = median_span_ms(spans, "rung.tsan");
  const double cusan_ms = median_span_ms(spans, "rung.cusan");
  const double must_cusan_ms = median_span_ms(spans, "rung.must_cusan");
  const bool ladder = tsan_ms > 0 && cusan_ms > 0 && must_cusan_ms > 0 && vanilla_ms > 0;
  const std::vector<double> steps =
      ladder ? perfbench::ladder_steps({vanilla_ms, tsan_ms, cusan_ms, must_cusan_ms})
             : std::vector<double>{0, 0, 0, 0};
  const double checked_median = perfbench::median(run.checked_session_ms);
  const double vanilla_median =
      vanilla_ms > 0 ? vanilla_ms : perfbench::median(run.vanilla_session_ms);
  // The ladder's steps sum to the MUST & CuSan rung by construction, so
  // trace.ladder_share compares that rung, measured on the traced ops, with
  // the untraced ops of the same run, which no rungs precede.
  const double untraced_op_p50 = perfbench::median(run.untraced_op_ms);

  const double fast_hits = sum("rsan.fastpath_range_hits") + sum("rsan.fastpath_block_hits");
  const double cpu_total = os.user_s + os.sys_s;
  const double launches = sum("cusan.kernel_launches");
  const double interval_args = sum("cusan.interval_kernel_args");

  return {
      {"capi.setup_ms", per_traced_op_ms(total_ns, "capi.setup"), "ms"},
      {"capi.body_ms", per_traced_op_ms(total_ns, "capi.body"), "ms"},
      {"capi.teardown_ms", per_traced_op_ms(total_ns, "capi.teardown"), "ms"},
      {"svc.queue_ms.p50", perfbench::median(queue_ms), "ms"},
      {"svc.queue_ms.p90", perfbench::tail_percentile(queue_ms, 90).value_or(0.0), "ms"},
      {"svc.wrap_ms", run.wrap_ms_total / ops, "ms"},
      {"svc.session_self_ms", per_traced_op_ms(self_ns, "svc.session"), "ms"},
      {"svc.steals", static_cast<double>(run.steals) / ops, "1/op"},
      {"svc.parked", static_cast<double>(run.parked) / ops, "1/op"},
      {"schedsim.executions", static_cast<double>(run.executions) / ops, "1/op"},
      {"schedsim.executions_per_s", ratio(static_cast<double>(run.executions), window_s), "1/s"},
      {"schedsim.redundant_ratio",
       ratio(static_cast<double>(run.redundant), static_cast<double>(run.executions)), "ratio"},
      {"schedsim.exhausted",
       ratio(static_cast<double>(run.exhausted), static_cast<double>(run.explorations)), "ratio"},
      {"schedsim.hb_prunes", static_cast<double>(run.hb_prunes) / ops, "1/op"},
      {"schedsim.graph_nodes", static_cast<double>(run.graph_nodes) / ops, "1/op"},
      {"schedsim.execution_ms.p50", perfbench::median(run.execution_ms), "ms"},
      {"schedsim.explorer_self_ms", per_traced_op_ms(self_ns, "schedsim.explore"), "ms"},
      {"rsan.ladder_ms", steps[1], "ms"},
      {"rsan.range_calls", per_op("rsan.read_range_calls") + per_op("rsan.write_range_calls"),
       "1/op"},
      {"rsan.range_mb",
       (per_op("rsan.read_range_bytes") + per_op("rsan.write_range_bytes")) / kMiB, "MiB/op"},
      {"rsan.fastpath_hit_ratio",
       ratio(fast_hits, fast_hits + sum("rsan.fastpath_block_misses")), "ratio"},
      {"rsan.granules_elided", per_op("rsan.fastpath_granules_elided"), "1/op"},
      {"rsan.slot_evictions", per_op("rsan.slot_evictions"), "1/op"},
      {"rsan.proven_scan_blocks", per_op("rsan.proven_scan_blocks"), "1/op"},
      {"rsan.shadow_mb", per_op("rsan.shadow_bytes") / kMiB, "MiB/op"},
      {"rsan.fiber_switches", per_op("rsan.fiber_switches"), "1/op"},
      {"rsan.hb_arcs", per_op("rsan.hb_before") + per_op("rsan.hb_after"), "1/op"},
      {"cusan.ladder_ms", steps[2], "ms"},
      {"cusan.kernel_launches", per_op("cusan.kernel_launches"), "1/op"},
      {"cusan.annotation_calls", per_op("cusan.kernel_annotation_calls"), "1/op"},
      {"cusan.annotated_mb", per_op("cusan.interval_bytes_annotated") / kMiB, "MiB/op"},
      {"cusan.proof_elided_mb", per_op("cusan.proof_elided_bytes") / kMiB, "MiB/op"},
      {"cusan.proof_fast_ratio", ratio(sum("cusan.proof_fast_launches"), launches), "ratio"},
      {"cusan.sync_calls", per_op("cusan.sync_calls"), "1/op"},
      {"kir.interval_arg_ratio",
       ratio(interval_args, interval_args + sum("cusan.whole_range_kernel_args")), "ratio"},
      {"kir.interval_elided_mb", per_op("cusan.interval_bytes_elided") / kMiB, "MiB/op"},
      {"typeart.lookups", per_op("typeart.lookups"), "1/op"},
      {"typeart.failed_lookup_ratio",
       ratio(sum("typeart.failed_lookups"), sum("typeart.lookups")), "ratio"},
      {"must.ladder_ms", steps[3], "ms"},
      {"must.calls", per_op("must.calls_intercepted"), "1/op"},
      {"must.fibers_created", per_op("must.request_fibers_created"), "1/op"},
      {"must.fiber_reuse_ratio",
       ratio(sum("must.request_fibers_reused"),
             sum("must.request_fibers_created") + sum("must.request_fibers_reused")),
       "ratio"},
      {"mpisim.mailbox_locks", per_op("mpisim.mailbox_locks"), "1/op"},
      {"mpisim.wakeups_delivered", per_op("mpisim.wakeups_delivered"), "1/op"},
      {"mpisim.spurious_wake_ratio",
       ratio(sum("mpisim.wakeups_spurious"), sum("mpisim.wakeups_delivered")), "ratio"},
      {"mpisim.any_source_scans", per_op("mpisim.any_source_scans"), "1/op"},
      {"cusim.vanilla_ms", vanilla_median, "ms"},
      {"os.sys_share", ratio(os.sys_s, cpu_total), "ratio"},
      {"os.ctx_switches_per_op", os.ctx_switches / ops, "1/op"},
      {"os.minor_faults_per_op", os.minor_faults / ops, "1/op"},
      {"os.fd_growth_per_op", os.open_fds / ops, "1/op"},
      {"paper.overhead_x", ratio(ladder ? must_cusan_ms : checked_median, vanilla_median), "x"},
      {"trace.overhead_ms",
       perfbench::median(run.traced_op_ms) - perfbench::median(run.untraced_op_ms), "ms"},
      {"trace.accounted_share", ratio(child_self_ns, total_ns["op"]), "ratio"},
      {"trace.ladder_share",
       ladder ? ratio(vanilla_ms + steps[1] + steps[2] + steps[3], untraced_op_p50) : 0.0, "ratio"},
  };
}

int run_benchmark(const Options& opt, const std::string& cpus) {
  const std::uint64_t process_start_ns = now_ns();
  ProcSelf proc;
  // setup_s first, while nothing else runs: the median of fresh processes.
  std::vector<double> setup_s;
  if (!opt.trace) {
    for (int i = 0; i < kSetupProbes; ++i) {
      const std::optional<double> s = setup_probe(opt);
      if (!s) {
        std::fprintf(stderr, "perfbench: setup probe %d failed\n", i);
        return 1;
      }
      setup_s.push_back(*s);
    }
  }

  RunState run(opt);
  std::unique_ptr<Workload> workload = make_workload(opt);
  workload->first_op(run);

  Window window;
  const std::uint64_t window_start_ns = now_ns();
  window.until_ns = window_start_ns + static_cast<std::uint64_t>(opt.seconds) * 1'000'000'000ULL;
  window.cap_ns = process_start_ns + static_cast<std::uint64_t>(kDeadlineSeconds * 1e9);
  // Untraced runs need enough ops for the p90; traced ones report medians.
  window.min_ops = opt.trace ? 0 : perfbench::min_samples_for(90);
  const OsUsage os_before = read_os(proc);
  workload->measure(run, window);
  const OsUsage os_after = read_os(proc);
  const double window_s = static_cast<double>(now_ns() - window_start_ns) / 1e9;
  const OsUsage os{os_after.user_s - os_before.user_s, os_after.sys_s - os_before.sys_s,
                   os_after.ctx_switches - os_before.ctx_switches,
                   os_after.minor_faults - os_before.minor_faults,
                   os_after.open_fds - os_before.open_fds};
  const double peak_rss_mib = proc.peak_rss_bytes() / kMiB;
  const std::string config = workload->describe();
  workload.reset();  // joins executor workers before the result is printed

  const std::size_t beyond = perfbench::samples_beyond(run.op_ms.size(), 90);
  std::string quartile_text;
  if (const auto q = perfbench::quartiles(run.op_ms)) {
    quartile_text = json_number((*q)[0]) + ", " + json_number((*q)[1]) + ", " + json_number((*q)[2]);
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::string spans_path;
  std::vector<MetricOut> metrics;
  if (opt.trace) {
    spans_path = opt.spans_dir + "/perfbench-spans-" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".tsv";
    std::string error;
    std::vector<Span> spans;
    if (!perfbench::write_spans(spans_path, run.spans.spans(), &error) ||
        !perfbench::read_spans(spans_path, &spans, &error)) {
      std::fprintf(stderr, "perfbench: span file: %s\n", error.c_str());
      return 1;
    }
    metrics = per_layer_metrics(run, spans, os, window_s);
  } else {
    const std::optional<double> p90 = perfbench::tail_percentile(run.op_ms, 90);
    if (!p90) {
      std::fprintf(stderr,
                   "perfbench: only %zu ops within %.0f s of start, too few for op_ms.p90 "
                   "(needs %zu): the ops are too slow for one run\n",
                   run.op_ms.size(), kDeadlineSeconds, perfbench::min_samples_for(90));
      return 3;
    }
    const double ops = static_cast<double>(std::max<std::uint64_t>(run.ops, 1));
    const std::vector<double> tool_pairs =
        perfbench::paired_differences(run.paired_checked_ms, run.paired_vanilla_ms);
    metrics = {
        {"ops_per_s", static_cast<double>(run.ops) / window_s, "1/s"},
        {"op_ms.p50", perfbench::median(run.op_ms), "ms"},
        {"op_ms.p90", *p90, "ms"},
        {"tool_ms", perfbench::median(tool_pairs), "ms"},
        {"cpu_ms_per_op", (os.user_s + os.sys_s) * 1e3 / ops, "ms"},
        {"peak_rss_mb", peak_rss_mib, "MiB"},
        {"setup_s", perfbench::median(setup_s), "s"},
        {"ok_ratio",
         perfbench::ratio(static_cast<double>(run.attempted - run.failed),
                          static_cast<double>(run.attempted)),
         "ratio"},
    };
  }

  // The effective config, sample counts and failures, then the result line.
  std::string record = "{\"perfbench_config\": {\"workload\": " + json_string(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"holdout_seed\": " + std::to_string(kHoldoutSeed) +
                       ", \"seconds\": " + std::to_string(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") + ", " + config +
                       ", \"flavor\": \"MUST & CuSan\", \"shadow_fast_path\": true" +
                       ", \"prove_elide\": \"off\", \"watchdog_ms\": " +
                       std::to_string(kWatchdog.count()) +
                       ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                       ", \"nproc\": " + std::to_string(nproc) +
                       ", \"pinned_cpus\": " + json_string(cpus) +
                       ", \"window_s\": " + json_number(window_s) +
                       ", \"op_samples\": " + std::to_string(run.op_ms.size()) +
                       ", \"op_samples_beyond_p90\": " + std::to_string(beyond) +
                       ", \"op_ms_quartiles\": [" + quartile_text + "]" +
                       ", \"traced_op_samples\": " + std::to_string(run.traced_op_ms.size()) +
                       ", \"checked_session_samples\": " +
                       std::to_string(run.checked_session_ms.size()) +
                       ", \"vanilla_session_samples\": " +
                       std::to_string(run.vanilla_session_ms.size()) +
                       ", \"tool_ms_pairs\": " +
                       std::to_string(perfbench::paired_differences(run.paired_checked_ms,
                                                                    run.paired_vanilla_ms)
                                          .size()) +
                       ", \"setup_probe_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    record += (i == 0 ? "" : ", ") + json_number(setup_s[i]);
  }
  record += "]";
  if (!spans_path.empty()) {
    record += ", \"spans_file\": " + json_string(spans_path);
  }
  record += ", \"failures\": [";
  for (std::size_t i = 0; i < run.failure_notes.size(); ++i) {
    record += (i == 0 ? "" : ", ") + json_string(run.failure_notes[i]);
  }
  record += "]}}";
  std::printf("%s\n", record.c_str());

  std::string line = "{\"correct\": " + std::string(run.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return run.failed == 0 ? 0 : 1;
}

/// --setup-probe: set up, run the first op, report when it completed.
int run_setup_probe(const Options& opt) {
  RunState run(opt);
  std::unique_ptr<Workload> workload = make_workload(opt);
  workload->first_op(run);
  const std::uint64_t done_ns = now_ns();
  workload.reset();
  std::printf("perfbench-setup-done %" PRIu64 "\n", done_ns);
  std::fflush(stdout);
  return run.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!parse_options(argc, argv, &opt, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (const std::vector<std::string> names = cusan_environment(); !names.empty()) {
    std::string list;
    for (const std::string& n : names) {
      list += " " + n;
    }
    std::fprintf(stderr,
                 "perfbench: refusing to run with CUSAN_* set (%s ); the benchmark pins every "
                 "setting itself\n",
                 list.c_str());
    return 2;
  }
  // Before any thread exists, so every thread the run spawns inherits it.
  const std::string cpus = pin_cpus();
  try {
    return opt.setup_probe ? run_setup_probe(opt) : run_benchmark(opt, cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
