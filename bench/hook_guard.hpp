// Bench-startup guard for every disarmed hook. With no fault plan, no
// CUSAN_TRACE and no CUSAN_SCHEDULE, the faultsim, obs and schedsim hooks
// must each cost one relaxed atomic load and nothing else. The guard is a
// table of gate rows, each timed by the same loop, with one of two rules:
//
//   budget  the disarmed hook as call sites write it (fault probe, disabled
//           obs emit, skipped decision site) costs < 1% of a representative
//           guarded operation;
//   parity  a gate (tracing_enabled(), Controller::armed(),
//           GraphRecorder::enabled()) costs < 4x faultsim::Injector::armed(),
//           the codebase's canonical single-relaxed-load hook. A gate costing
//           several times the reference means someone added work (an
//           atomic read-modify-write, a fence, a call) to the off path.
//
// A gate is skipped while its subsystem is armed: an armed run pays for
// injection, tracing or exploration by design.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

#include "faultsim/injector.hpp"
#include "obs/ring.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/execution_graph.hpp"

namespace bench {

namespace detail {

/// Keep a value alive without google-benchmark (bench_scaling_ranks does not
/// link it): an empty asm block the optimizer must assume reads `v`.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

/// Mean ns per call of `op` over `iters` calls, after a 10% warm-up. Each
/// instantiation inlines its hook, so no call overhead hides in the timing.
template <typename Op>
double time_ns(Op&& op, int iters = 1 << 22) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < iters / 10 + 1; ++i) {
    op();
  }
  const auto t0 = clock::now();
  for (int i = 0; i < iters; ++i) {
    op();
  }
  const auto t1 = clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

}  // namespace detail

/// Runs every gate against `op` (called `op_iters` times). Returns 0 on
/// pass, 1 on a violation, 2 on a malformed CUSAN_FAULT_PLAN.
template <typename Op>
int hook_overhead_guard(const char* op_name, Op&& op, int op_iters) {
  std::string error;
  if (!faultsim::Injector::instance().load_env(&error)) {
    std::fprintf(stderr, "[hook-guard] bad CUSAN_FAULT_PLAN: %s\n", error.c_str());
    return 2;
  }
  enum class Rule { kBudget, kParity };
  struct Gate {
    const char* hook;
    bool armed;        ///< subsystem armed: skip the gate
    Rule rule;
    double (*time)();  ///< ns per hook call
  };
  const bool sched_armed = schedsim::Controller::armed();
  const Gate gates[] = {
      {"disarmed fault hook", faultsim::Injector::armed(), Rule::kBudget,
       [] { return detail::time_ns([] { detail::keep(faultsim::Injector::armed()); }); }},
      {"tracing_enabled()", obs::tracing_enabled(), Rule::kParity,
       [] { return detail::time_ns([] { detail::keep(obs::tracing_enabled()); }); }},
      {"disabled obs emit", obs::tracing_enabled(), Rule::kBudget,
       [] {
         return detail::time_ns(
             [] { obs::emit_instant(obs::EventKind::kTrace, obs::kHostTrack, "guard"); });
       }},
      {"Controller::armed()", sched_armed, Rule::kParity,
       [] { return detail::time_ns([] { detail::keep(schedsim::Controller::armed()); }); }},
      // The full disarmed site as call sites write it: gate, and only then
      // the mutex-taking choose(). Disarmed it must compile down to the gate.
      {"disarmed decision site", sched_armed, Rule::kBudget,
       [] {
         return detail::time_ns([] {
           int chosen = 0;
           if (schedsim::Controller::armed()) {
             chosen = schedsim::Controller::instance().choose(schedsim::Site::kPreParkYield,
                                                              {0, 'h', 0}, 2, 0);
           }
           detail::keep(chosen);
         });
       }},
      {"GraphRecorder::enabled()", sched_armed, Rule::kParity,
       [] {
         return detail::time_ns([] { detail::keep(schedsim::GraphRecorder::enabled()); });
       }},
  };

  const double ref_ns =
      detail::time_ns([] { detail::keep(faultsim::Injector::armed()); });
  const double op_ns = detail::time_ns(op, op_iters);
  int rc = 0;
  for (const Gate& gate : gates) {
    if (gate.armed) {
      std::fprintf(stderr, "[hook-guard] %s: subsystem armed, gate skipped\n", gate.hook);
      continue;
    }
    const double ns = gate.time();
    if (gate.rule == Rule::kBudget) {
      const double share = op_ns > 0.0 ? ns / op_ns : 0.0;
      std::fprintf(stderr, "[hook-guard] %s %.3f ns vs %s %.1f ns/op -> %.4f%% (budget 1%%)\n",
                   gate.hook, ns, op_name, op_ns, share * 100.0);
      if (share >= 0.01) {
        std::fprintf(stderr, "[hook-guard] FAIL: %s costs >= 1%% of %s\n", gate.hook, op_name);
        rc = 1;
      }
      continue;
    }
    const double parity = ref_ns > 0.0 ? ns / ref_ns : 0.0;
    std::fprintf(stderr,
                 "[hook-guard] %s %.3f ns vs Injector::armed() %.3f ns (%.2fx, budget 4x)\n",
                 gate.hook, ns, ref_ns, parity);
    // 4x plus an absolute 1 ns floor absorbs timer noise on a sub-ns load; a
    // read-modify-write, a fence or a mutex on the off path lands beyond both.
    if (parity >= 4.0 && ns - ref_ns > 1.0) {
      std::fprintf(stderr, "[hook-guard] FAIL: %s is no longer one relaxed load\n", gate.hook);
      rc = 1;
    }
  }
  return rc;
}

}  // namespace bench
