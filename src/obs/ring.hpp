// Lock-light per-rank event rings. The discipline mirrors faultsim's
// injector hooks: when tracing is disabled every emit helper is exactly one
// relaxed atomic load (bench/hook_guard.hpp asserts this stays true). When
// enabled, an emit claims a slot with one relaxed fetch_add and publishes the
// event through a per-slot seqlock, so producers never take a mutex and a
// full ring simply overwrites the oldest entries (drop-counted).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/events.hpp"

namespace obs {

inline constexpr std::size_t kDefaultRingCapacity = 1u << 14;
/// Ranks are clamped to [2, 64] by capi::default_ranks(); one extra ring
/// catches unattributed (rank < 0) events.
inline constexpr int kMaxRings = 65;

class EventRing {
 public:
  explicit EventRing(std::size_t capacity = kDefaultRingCapacity);

  /// Claim a slot and publish the event (seqlock-stamped). Thread-safe.
  void emit(const Event& event);

  /// Events ever emitted (including overwritten ones).
  [[nodiscard]] std::uint64_t total() const;
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Copy the surviving events in emission order. Entries caught mid-write
  /// (torn) or overwritten during the scan are skipped.
  [[nodiscard]] std::vector<Event> snapshot() const;

 private:
  struct Slot {
    /// 0 = empty; odd = write in progress; 2*(n+1) = claim n published.
    std::atomic<std::uint64_t> seq{0};
    Event event{};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// True when span/instant emission is live. One relaxed load: this is the
/// whole cost of every obs hook in a run without CUSAN_TRACE.
[[nodiscard]] inline bool tracing_enabled() {
  extern std::atomic<bool> g_tracing_enabled;
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled);

/// Ring for one rank, created lazily on first use (rank < 0 or beyond the
/// ring table shares the unattributed ring). Never returns null.
[[nodiscard]] EventRing& ring_for_rank(int rank);

/// Ranks (plus -1 for unattributed) that own a non-empty ring.
[[nodiscard]] std::vector<int> active_ring_ranks();

/// Drop all rings (start of a session; no producers may be live).
void reset_rings();

/// Bind the calling thread to a rank so emit helpers attribute events
/// without threading the rank through every call site.
void bind_rank(int rank);
[[nodiscard]] int bound_rank();

/// Timestamp source for events: common::now_ns(), or — for deterministic
/// golden-file tests — a virtual clock that advances `step_ns` per read.
[[nodiscard]] std::uint64_t trace_now_ns();
void use_virtual_clock(std::uint64_t start_ns, std::uint64_t step_ns);
void use_wall_clock();

/// Emit an instant on the bound rank (no-op unless tracing is enabled).
void emit_instant(EventKind kind, std::uint32_t track, const char* name, std::uint64_t arg = 0);
/// Emit an instant on an explicit rank (worker threads, mpisim).
void emit_instant(int rank, EventKind kind, std::uint32_t track, const char* name,
                  std::uint64_t arg = 0);
/// Emit a pre-built event (exporter tests, request-fiber spans with
/// externally measured durations).
void emit_event(const Event& event);

/// RAII span: stamps start on construction, emits a complete event on
/// destruction. Construction when tracing is disabled costs one relaxed
/// load and leaves the span inert.
class Span {
 public:
  /// Attribute to the thread's bound rank.
  Span(EventKind kind, std::uint32_t track, const char* name, std::uint64_t arg = 0);
  /// Attribute to an explicit rank.
  Span(int rank, EventKind kind, std::uint32_t track, const char* name, std::uint64_t arg = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Update the payload before the span closes (e.g. bytes actually moved).
  void set_arg(std::uint64_t arg) { event_.arg = arg; }

 private:
  bool active_{false};
  Event event_{};
};

}  // namespace obs
