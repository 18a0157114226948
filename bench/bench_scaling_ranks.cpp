// Rank-scaling benchmark for the sharded MPI communication engine: p2p
// ping-pong (paired ranks), random-peer exchange (wildcard receives → the
// ANY_SOURCE slow path), and allreduce throughput, swept over 2/4/8/16 ranks
// in the vanilla and full MUST+CuSan flavors. Alongside ops/s it prints the
// engine contention counters (mailbox lock acquisitions, wakeups delivered /
// spurious / broadcast, ANY_SOURCE scans), which is how a wakeup regression
// — e.g. an accidental notify_all on the hot path — shows up as a number
// instead of a mystery slowdown. EXPERIMENTS.md records the pre/post-sharding
// results.
//
// Usage: bench_scaling_ranks [--smoke] [--max-ranks N] [--guard-only]
//                            [--backend thread|proc|both] [--metrics PATH]
//   --smoke      CI mode: ~20x fewer iterations, same code paths.
//   --max-ranks  Cap the rank sweep (default 16; 32/64 reach the wide
//                shared-memory grids of the proc backend).
//   --guard-only Run only the disarmed-hook overhead guard (CI gate, see
//                bench/hook_guard.hpp).
//   --backend    Transport sweep: in-process threads (default), forked
//                processes over shm rings, or both side by side.
//   --metrics    Dump the sweep's metrics-registry delta as JSON to PATH.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "hook_guard.hpp"
#include "capi/cuda.hpp"
#include "capi/mpi.hpp"
#include "common/rng.hpp"
#include "mpisim/counters.hpp"
#include "mpisim/request.hpp"
#include "mpisim/world.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"

namespace {

struct Workload {
  int pingpong_roundtrips = 4000;   ///< per pair
  int exchange_rounds = 1500;       ///< one message per rank per round
  int allreduce_iters = 800;
  std::size_t message_doubles = 64;
  std::size_t allreduce_doubles = 256;
};

struct BenchResult {
  double seconds{};
  double ops{};  ///< one-way messages (p2p) or rank-operations (allreduce)
  mpisim::ContentionSnapshot contention{};
};

double* bench_buffer(std::size_t doubles) {
  double* p = nullptr;
  (void)capi::cuda::malloc_host(&p, doubles);
  return p;
}

/// Pairs (2i, 2i+1) bounce a message back and forth.
BenchResult run_pingpong(capi::Flavor flavor, int ranks, const Workload& w) {
  const auto before = mpisim::contention_snapshot();
  common::WallTimer timer;
  (void)capi::run_flavored(flavor, ranks, [&](capi::RankEnv& env) {
    const auto type = mpisim::Datatype::float64();
    double* buf = bench_buffer(w.message_doubles);
    const int rank = env.rank();
    const int partner = rank ^ 1;
    if (partner < env.comm.size()) {
      for (int i = 0; i < w.pingpong_roundtrips; ++i) {
        if ((rank & 1) == 0) {
          (void)capi::mpi::send(env.comm, buf, w.message_doubles, type, partner, 0);
          (void)capi::mpi::recv(env.comm, buf, w.message_doubles, type, partner, 0);
        } else {
          (void)capi::mpi::recv(env.comm, buf, w.message_doubles, type, partner, 0);
          (void)capi::mpi::send(env.comm, buf, w.message_doubles, type, partner, 0);
        }
      }
    }
    (void)capi::cuda::free_host(buf);
  });
  BenchResult r;
  r.seconds = timer.elapsed_seconds();
  r.ops = 2.0 * w.pingpong_roundtrips * (ranks / 2);
  r.contention = mpisim::contention_delta(before, mpisim::contention_snapshot());
  return r;
}

/// Every round each rank sends to (rank + shift) % ranks and receives one
/// message from MPI_ANY_SOURCE — a rotating all-to-all that keeps every
/// mailbox busy and exercises the wildcard slow path.
BenchResult run_exchange(capi::Flavor flavor, int ranks, const Workload& w) {
  // Shifts are drawn once, outside the ranks, so every rank agrees.
  std::vector<int> shifts(static_cast<std::size_t>(w.exchange_rounds));
  common::SplitMix64 rng(0xbe7c5ULL + static_cast<unsigned>(ranks));
  for (auto& s : shifts) {
    s = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks > 1 ? ranks - 1 : 1)));
  }
  const auto before = mpisim::contention_snapshot();
  common::WallTimer timer;
  (void)capi::run_flavored(flavor, ranks, [&](capi::RankEnv& env) {
    const auto type = mpisim::Datatype::float64();
    double* out = bench_buffer(w.message_doubles);
    double* in = bench_buffer(w.message_doubles);
    const int rank = env.rank();
    for (int round = 0; round < w.exchange_rounds; ++round) {
      const int dst = (rank + shifts[static_cast<std::size_t>(round)]) % env.comm.size();
      mpisim::Request* req = nullptr;
      (void)capi::mpi::irecv(env.comm, in, w.message_doubles, type, mpisim::kAnySource,
                             round % 3, &req);
      (void)capi::mpi::send(env.comm, out, w.message_doubles, type, dst, round % 3);
      (void)capi::mpi::wait(env.comm, &req);
    }
    (void)capi::cuda::free_host(out);
    (void)capi::cuda::free_host(in);
  });
  BenchResult r;
  r.seconds = timer.elapsed_seconds();
  r.ops = static_cast<double>(w.exchange_rounds) * ranks;
  r.contention = mpisim::contention_delta(before, mpisim::contention_snapshot());
  return r;
}

BenchResult run_allreduce(capi::Flavor flavor, int ranks, const Workload& w) {
  const auto before = mpisim::contention_snapshot();
  common::WallTimer timer;
  (void)capi::run_flavored(flavor, ranks, [&](capi::RankEnv& env) {
    double* in = bench_buffer(w.allreduce_doubles);
    double* out = bench_buffer(w.allreduce_doubles);
    for (std::size_t i = 0; i < w.allreduce_doubles; ++i) {
      in[i] = static_cast<double>(env.rank() + 1);
    }
    for (int i = 0; i < w.allreduce_iters; ++i) {
      (void)capi::mpi::allreduce(env.comm, in, out, w.allreduce_doubles,
                                 mpisim::Datatype::float64(), mpisim::ReduceOp::kSum);
    }
    (void)capi::cuda::free_host(in);
    (void)capi::cuda::free_host(out);
  });
  BenchResult r;
  r.seconds = timer.elapsed_seconds();
  r.ops = static_cast<double>(w.allreduce_iters) * ranks;
  r.contention = mpisim::contention_delta(before, mpisim::contention_snapshot());
  return r;
}

// Rows accumulate here as they print; flushed into the --json report at exit.
std::vector<std::vector<std::string>> g_json_rows;

void print_row(const char* backend, const char* pattern, const char* flavor, int ranks,
               const BenchResult& r) {
  const auto& c = r.contention;
  g_json_rows.push_back({backend, pattern, flavor, std::to_string(ranks),
                         common::fixed(r.ops / (r.seconds > 0 ? r.seconds : 1e-9), 0),
                         std::to_string(c.mailbox_locks), std::to_string(c.wakeups_delivered),
                         std::to_string(c.wakeups_spurious), std::to_string(c.wakeups_broadcast),
                         std::to_string(c.any_source_scans)});
  std::printf(
      "%-7s %-10s %-10s %5d | %10.0f ops/s | locks %10llu | wake %9llu (spur %8llu, bcast "
      "%6llu) | anysrc %8llu\n",
      backend, pattern, flavor, ranks, r.ops / (r.seconds > 0 ? r.seconds : 1e-9),
      static_cast<unsigned long long>(c.mailbox_locks),
      static_cast<unsigned long long>(c.wakeups_delivered),
      static_cast<unsigned long long>(c.wakeups_spurious),
      static_cast<unsigned long long>(c.wakeups_broadcast),
      static_cast<unsigned long long>(c.any_source_scans));
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  (void)bench::parse_json_flag(&argc, argv, &json_path);
  bench::JsonReport report("scaling_ranks");
  Workload w;
  int max_ranks = 16;
  bool guard_only = false;
  std::string metrics_path;
  std::string backend_arg = "thread";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      w.pingpong_roundtrips = 200;
      w.exchange_rounds = 80;
      w.allreduce_iters = 40;
    } else if (std::strcmp(argv[i], "--max-ranks") == 0 && i + 1 < argc) {
      max_ranks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--guard-only") == 0) {
      guard_only = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend_arg = argv[++i];
    }
  }
  std::vector<mpisim::Backend> backends;
  if (backend_arg == "thread") {
    backends = {mpisim::Backend::kThread};
  } else if (backend_arg == "proc") {
    backends = {mpisim::Backend::kProc};
  } else if (backend_arg == "both") {
    backends = {mpisim::Backend::kThread, mpisim::Backend::kProc};
  } else {
    std::fprintf(stderr, "--backend must be thread, proc or both\n");
    return 2;
  }

  {
    // Representative guarded op: a 4 KiB host-to-device memcpy, whose hot
    // path crosses the cusim enqueue + worker obs hooks.
    cusim::Device device;
    void* d = nullptr;
    (void)device.malloc_device(&d, 4096);
    std::vector<std::byte> h(4096);
    const int rc = bench::hook_overhead_guard(
        "cusim memcpy(4 KiB)",
        [&] { (void)device.memcpy(d, h.data(), 4096, cusim::MemcpyDir::kHostToDevice); },
        2000);
    (void)device.free(d);
    if (rc != 0 || guard_only) {
      return rc;
    }
  }

  const obs::MetricsSnapshot metrics_before = obs::MetricsRegistry::instance().snapshot();

  bench::print_header("bench_scaling_ranks — substrate rank scaling",
                      "engine scalability behind the paper's Fig. 12 sweeps");
  std::printf("%-7s %-10s %-10s %5s |\n", "backend", "pattern", "flavor", "ranks");

  const capi::Flavor flavors[] = {capi::Flavor::kVanilla, capi::Flavor::kMustCusan};
  for (const mpisim::Backend backend : backends) {
    const mpisim::ScopedBackend scoped(backend);
    const char* bname = mpisim::to_string(backend);
    for (const int ranks : {2, 4, 8, 16, 32, 64}) {
      if (ranks > max_ranks) {
        continue;
      }
      for (const capi::Flavor flavor : flavors) {
        const char* fname = flavor == capi::Flavor::kVanilla ? "vanilla" : "must+cusan";
        print_row(bname, "pingpong", fname, ranks, run_pingpong(flavor, ranks, w));
        print_row(bname, "exchange", fname, ranks, run_exchange(flavor, ranks, w));
        print_row(bname, "allreduce", fname, ranks, run_allreduce(flavor, ranks, w));
      }
    }
  }
  if (!metrics_path.empty()) {
    const auto delta = obs::MetricsRegistry::diff(obs::MetricsRegistry::instance().snapshot(),
                                                  metrics_before);
    std::string error;
    if (!obs::write_file(metrics_path, obs::MetricsRegistry::to_json(delta), &error)) {
      std::fprintf(stderr, "--metrics: %s\n", error.c_str());
      return 2;
    }
  }
  report.add_section("scaling",
                     {"backend", "pattern", "flavor", "ranks", "ops_per_s", "mailbox_locks",
                      "wakeups_delivered", "wakeups_spurious", "wakeups_broadcast",
                      "any_source_scans"},
                     g_json_rows);
  return bench::finish_json(report, json_path);
}
