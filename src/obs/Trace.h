//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead structured tracing for the hybrid solver, emitting
/// Chrome/Perfetto `trace_event` JSON (load the output at ui.perfetto.dev
/// or chrome://tracing). Three event kinds:
///
///   * duration spans ("ph":"X") via the RAII TraceSpan helper — nested
///     TD/BU phases, per-SCC wavefront work, pool tasks;
///   * instant events ("ph":"i") via instant() — k-trips, Sigma
///     fallbacks, governor ladder transitions;
///   * counter events ("ph":"C") via counterEvent() — path-edge growth,
///     queue depth, governor pressure timeline.
///
/// Overhead contract: when tracing is disabled (the default), every
/// emission point compiles down to ONE relaxed atomic load and a branch —
/// no allocation, no clock read, no locking (obs_test pins this with a
/// global operator-new counter). When enabled, each event is one POD
/// store into a per-thread chunked buffer: the writing thread owns the
/// chunk cursor (plain stores), publishes with a release increment of the
/// event count, and never takes a lock after its buffer is registered.
/// Event name/category/arg-name strings must have static storage duration
/// (string literals); only the pointer is recorded.
///
/// Concurrency contract: emission is lock-free and may run concurrently
/// with toJson()/flushToFile() (readers acquire the published count and
/// never touch the writer cursor). start() and reset() require quiescence
/// — no other thread may be emitting — because they drop the buffers.
///
/// Flushing goes through writeFileAtomic (failpoint prefix "obs.flush"):
/// a trace I/O failure is reported through the return value and must
/// never affect analysis results.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_OBS_TRACE_H
#define SWIFT_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace swift {
namespace obs {

/// An optional numeric argument attached to an event. \p Name must be a
/// static-lifetime string; a null Name means "absent".
struct TraceArg {
  const char *Name = nullptr;
  uint64_t Value = 0;
};

namespace detail {
/// The one global enable flag; relaxed loads on every emission point.
extern std::atomic<bool> TraceOn;

/// Microseconds since the recorder's start() epoch (steady clock).
uint64_t nowUs();

/// Records one event into the calling thread's buffer. Caller has already
/// checked tracingEnabled().
void emit(char Phase, const char *Cat, const char *Name, uint64_t TsUs,
          uint64_t DurUs, TraceArg A, TraceArg B, TraceArg C = {},
          TraceArg D = {});
} // namespace detail

/// One relaxed atomic load: the disabled-mode fast path.
inline bool tracingEnabled() {
  return detail::TraceOn.load(std::memory_order_relaxed);
}

/// Microseconds since trace start; 0 before the first start(). Exposed so
/// callers can timestamp their own bookkeeping (e.g. task enqueue times)
/// consistently with the trace timeline.
inline uint64_t nowMicros() { return detail::nowUs(); }

/// Emits an instant event (a vertical tick in the viewer).
inline void instant(const char *Cat, const char *Name, TraceArg A = {},
                    TraceArg B = {}) {
  if (!tracingEnabled())
    return;
  detail::emit('i', Cat, Name, detail::nowUs(), 0, A, B);
}

/// Emits a counter sample: a point on the named counter track. \p Series
/// names the value within the counter (the viewer stacks series).
inline void counterEvent(const char *Name, const char *Series,
                         uint64_t Value) {
  if (!tracingEnabled())
    return;
  detail::emit('C', "counter", Name, detail::nowUs(), 0, {Series, Value},
               {});
}

/// RAII duration span: captures the start time at construction, emits one
/// complete ("X") event at destruction (or close()). When tracing is
/// disabled at construction the destructor is a no-op — a span does not
/// straddle an enable/disable edge. A span carries up to four args.
class TraceSpan {
public:
  TraceSpan(const char *Cat, const char *Name, TraceArg A = {},
            TraceArg B = {}, TraceArg C = {}, TraceArg D = {}) {
    if (!tracingEnabled())
      return;
    this->Cat = Cat;
    this->Name = Name;
    this->A = A;
    this->B = B;
    this->C = C;
    this->D = D;
    StartUs = detail::nowUs();
    Active = true;
  }
  ~TraceSpan() { close(); }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Ends the span early (idempotent).
  void close() {
    if (!Active)
      return;
    Active = false;
    detail::emit('X', Cat, Name, StartUs, detail::nowUs() - StartUs, A, B, C,
                 D);
  }

  /// Attaches/overwrites the second argument before the span closes —
  /// for results only known at the end (e.g. summary relation counts).
  void setArg(const char *ArgName, uint64_t Value) {
    if (Active)
      B = {ArgName, Value};
  }

private:
  const char *Cat = nullptr;
  const char *Name = nullptr;
  TraceArg A, B, C, D;
  uint64_t StartUs = 0;
  bool Active = false;
};

/// The process-wide recorder. All emission goes through the free
/// functions above; this type manages lifecycle and serialization.
class TraceRecorder {
public:
  static TraceRecorder &instance();

  /// Drops any buffered events, re-zeroes the timeline, and enables
  /// tracing. Requires quiescence (no concurrent emitters).
  void start();

  /// Disables tracing; buffered events are retained for flushing.
  void stop();

  bool enabled() const { return tracingEnabled(); }

  /// Number of published events across all thread buffers.
  uint64_t eventCount() const;

  /// Names this process in the emitted trace (the process_name metadata
  /// record; default "swift"). Sharded workers set a per-shard name so a
  /// merged trace (obs/TraceMerge.h) shows one labelled track group per
  /// worker. Safe at any time; takes effect at the next toJson().
  void setProcessName(std::string Name);

  /// Serializes every published event as Chrome trace JSON
  /// ({"traceEvents":[...]}, one event per line, sorted by timestamp,
  /// with thread-name metadata events).
  std::string toJson() const;

  /// toJson() + writeFileAtomic under the "obs.flush" failpoint prefix.
  /// Returns false (with *Err set) on I/O failure; never throws.
  bool flushToFile(const std::string &Path, std::string *Err = nullptr);

  /// Disables tracing and drops all buffered events. Requires quiescence.
  void reset();

private:
  TraceRecorder() = default;
};

} // namespace obs
} // namespace swift

#endif // SWIFT_OBS_TRACE_H
