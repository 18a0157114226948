// The MUST runtime (paper §II-B): intercepts MPI calls and exposes their
// memory access and concurrency semantics to the race detector.
//
//  * Blocking calls annotate their buffer accesses on the host context.
//  * Each non-blocking call is modelled as a fiber (Fig. 1): the buffer
//    access is annotated on the request's fiber, which is synchronized with
//    the host at the completion call (Wait/Test). Fibers are pooled and
//    reused across completed requests, as the real MUST does.
//  * Optionally, every buffer is checked against TypeART's allocation table
//    (datatype compatibility + extent), MUST's classic checks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/request.hpp"
#include "must/typecheck.hpp"
#include "rsan/runtime.hpp"
#include "typeart/runtime.hpp"

namespace must {

struct Config {
  /// Annotate buffer accesses / request fibers for race detection. The
  /// paper's MUST configuration: "only check for data races of
  /// (non-blocking) MPI communication".
  bool check_races = true;
  /// Run TypeART-backed datatype & extent checks on every buffer.
  bool check_types = false;
  /// With check_types: also report buffers TypeART does not know about
  /// (noisy for stack buffers, hence off by default).
  bool report_untracked = false;
};

/// MUST error classes surfaced by this reproduction.
enum class ReportKind : std::uint8_t {
  kTypeMismatch,
  kBufferOverflow,
  kUntrackedBuffer,
  kRequestLeak,         ///< non-blocking request never completed (missing Wait/Test)
  kSignatureMismatch,   ///< sender/receiver type signatures disagree
  kDeadlock,            ///< the progress watchdog declared a deadlock
  kRankFailure,         ///< a peer rank process died (proc backend, ULFM-style)
};

[[nodiscard]] constexpr const char* to_string(ReportKind kind) {
  switch (kind) {
    case ReportKind::kTypeMismatch:
      return "datatype/buffer type mismatch";
    case ReportKind::kBufferOverflow:
      return "buffer overflow (count exceeds allocation)";
    case ReportKind::kUntrackedBuffer:
      return "untracked buffer";
    case ReportKind::kRequestLeak:
      return "request leak (never completed)";
    case ReportKind::kSignatureMismatch:
      return "send/recv type signature mismatch";
    case ReportKind::kDeadlock:
      return "deadlock (no rank can make progress)";
    case ReportKind::kRankFailure:
      return "rank failure (peer process died)";
  }
  return "?";
}

struct MustReport {
  ReportKind kind{ReportKind::kTypeMismatch};
  std::string mpi_call;  ///< e.g. "MPI_Send"
  std::string detail;
};

struct MustCounters {
  std::uint64_t calls_intercepted{};
  std::uint64_t request_fibers_created{};
  std::uint64_t request_fibers_reused{};
  std::uint64_t type_checks{};
  std::uint64_t type_errors{};
  std::uint64_t request_leaks{};
  std::uint64_t signature_mismatches{};
  std::uint64_t deadlocks_reported{};
  std::uint64_t rank_failures_reported{};
};

/// Visit every counter as (name, value) — the one enumeration the obs
/// metrics publication, JSON dumps and registry-equality tests all share.
template <typename Fn>
void for_each_counter(const MustCounters& c, Fn&& fn) {
  fn("calls_intercepted", c.calls_intercepted);
  fn("request_fibers_created", c.request_fibers_created);
  fn("request_fibers_reused", c.request_fibers_reused);
  fn("type_checks", c.type_checks);
  fn("type_errors", c.type_errors);
  fn("request_leaks", c.request_leaks);
  fn("signature_mismatches", c.signature_mismatches);
  fn("deadlocks_reported", c.deadlocks_reported);
  fn("rank_failures_reported", c.rank_failures_reported);
}

class Runtime {
 public:
  Runtime(rsan::Runtime* tsan, typeart::Runtime* types, Config config = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- Blocking point-to-point -------------------------------------------------

  void on_send(const void* buf, std::size_t count, const mpisim::Datatype& type);
  /// Called after the receive completed (data is in the buffer).
  void on_recv(void* buf, std::size_t count, const mpisim::Datatype& type);

  // -- Non-blocking point-to-point ------------------------------------------------

  /// Called after the request was created by mpisim.
  void on_isend(const void* buf, std::size_t count, const mpisim::Datatype& type,
                const mpisim::Request* request);
  void on_irecv(void* buf, std::size_t count, const mpisim::Datatype& type,
                const mpisim::Request* request);
  /// Called on MPI_Wait / successful MPI_Test *before* mpisim frees the
  /// request: terminates the request fiber's arc on the host.
  void on_complete(const mpisim::Request* request);

  /// MPI_Probe / MPI_Iprobe: envelope-only, no buffer semantics.
  void on_probe() { ++counters_.calls_intercepted; }

  /// The mpisim progress watchdog declared a deadlock and a blocking call on
  /// this rank returned MPI_ERR_DEADLOCK. Emits one structured report per
  /// rank runtime (later calls on the same poisoned communicator are
  /// deduplicated).
  void on_deadlock(int rank, const mpisim::DeadlockReport& report);
  /// A blocking call returned MPI_ERR_PROC_FAILED: a peer rank died and the
  /// supervisor poisoned the world. One structured report per rank runtime.
  void on_rank_failure(int rank, const std::string& detail);

  /// Inspect a completed receive's status for the piggybacked signature
  /// verdict (MUST's send/recv type matching).
  void on_receive_status(const char* mpi_call, const mpisim::Status& status);

  // -- Collectives (all blocking) ------------------------------------------------------

  void on_barrier();
  void on_bcast(void* buf, std::size_t count, const mpisim::Datatype& type, bool is_root);
  void on_reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                 const mpisim::Datatype& type, bool is_root);
  void on_allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                    const mpisim::Datatype& type);
  void on_allgather(const void* sendbuf, std::size_t count, const mpisim::Datatype& type,
                    void* recvbuf, int comm_size);
  void on_gather(const void* sendbuf, std::size_t count, const mpisim::Datatype& type,
                 void* recvbuf, bool is_root, int comm_size);
  void on_scatter(const void* sendbuf, std::size_t count, const mpisim::Datatype& type,
                  void* recvbuf, bool is_root, int comm_size);

  /// MPI_Finalize-time checks: every request that was started but never
  /// completed is reported as a leak (its concurrent region never ended).
  void on_finalize();

  [[nodiscard]] const std::vector<MustReport>& reports() const { return reports_; }
  [[nodiscard]] const MustCounters& counters() const { return counters_; }
  [[nodiscard]] std::size_t pending_requests() const { return pending_.size(); }
  void clear_reports() { reports_.clear(); }

 private:
  struct PendingRequest {
    rsan::CtxId fiber{rsan::kInvalidCtx};
    char key{};  ///< request's HB sync object... address-stable via node map
    std::uint32_t track{0};     ///< obs request track (0 when tracing is off)
    std::uint64_t start_ns{0};  ///< issue timestamp for the request span
    /// "MPI_Isend" or "MPI_Irecv", recorded at issue time: mpisim frees the
    /// request on completion, so the pointer is only ever a map key.
    const char* call{nullptr};
  };

  void annotate_datatype_range(const void* buf, std::size_t count, const mpisim::Datatype& type,
                               bool is_write, const char* label);
  void run_type_check(const char* mpi_call, const void* buf, std::size_t count,
                      const mpisim::Datatype& type);
  [[nodiscard]] rsan::CtxId acquire_fiber();

  rsan::Runtime* tsan_;
  typeart::Runtime* types_;
  Config config_;
  MustCounters counters_;
  std::vector<MustReport> reports_;
  std::unordered_map<const mpisim::Request*, PendingRequest> pending_;
  std::vector<rsan::CtxId> fiber_pool_;
  std::uint64_t next_request_ordinal_{0};  ///< obs request-track assignment
  bool deadlock_reported_{false};
  bool rank_failure_reported_{false};
};

}  // namespace must
