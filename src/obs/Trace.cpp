//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceRecorder internals: per-thread chunked event buffers with
/// single-writer plain stores and release-published counts, a global
/// registry (locked only at thread registration and serialization), and
/// the Chrome trace_event JSON serializer.
///
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/AtomicFile.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace swift {
namespace obs {

namespace detail {
std::atomic<bool> TraceOn{false};
} // namespace detail

namespace {

/// Fixed chunk capacity: 2048 events * 104 B ≈ 208 KiB per chunk. Chunks
/// are allocated by the writing thread only when tracing is enabled.
constexpr size_t ChunkCap = 2048;

struct Event {
  const char *Cat;
  const char *Name;
  uint64_t TsUs;
  uint64_t DurUs;
  std::array<TraceArg, 4> Args; ///< Absent args have a null Name.
  char Phase;
};

struct Chunk {
  std::array<Event, ChunkCap> Events;
  /// Next chunk in the chain; release-published by the writer so a
  /// concurrent reader that acquired a Count past this chunk also sees
  /// the pointer.
  std::atomic<Chunk *> Next{nullptr};
};

/// One per registered thread. The writing thread owns WriteChunk/InChunk
/// (plain, unsynchronized); readers only follow Head/Next and load Count
/// with acquire, which pairs with the writer's release increment to make
/// the first Count events visible.
struct ThreadBuf {
  explicit ThreadBuf(uint32_t Tid) : Tid(Tid) {}
  ~ThreadBuf() {
    Chunk *C = Head.Next.load(std::memory_order_relaxed);
    while (C) {
      Chunk *N = C->Next.load(std::memory_order_relaxed);
      delete C;
      C = N;
    }
  }

  void push(const Event &E) {
    if (InChunk == ChunkCap) {
      Chunk *C = new Chunk;
      WriteChunk->Next.store(C, std::memory_order_release);
      WriteChunk = C;
      InChunk = 0;
    }
    WriteChunk->Events[InChunk++] = E;
    Count.fetch_add(1, std::memory_order_release);
  }

  const uint32_t Tid;
  Chunk Head;
  std::atomic<uint64_t> Count{0};
  Chunk *WriteChunk = &Head; ///< Writing thread only.
  size_t InChunk = 0;        ///< Writing thread only.
};

struct Registry {
  std::mutex M;
  std::vector<std::unique_ptr<ThreadBuf>> Bufs; ///< Guarded by M.
  /// Bumped by reset()/start() to invalidate cached thread-local buffer
  /// pointers from a previous recording generation.
  std::atomic<uint64_t> Epoch{1};
  std::chrono::steady_clock::time_point T0 =
      std::chrono::steady_clock::now();
  std::string ProcessName = "swift"; ///< Guarded by M.
};

Registry &registry() {
  static Registry R; // Leak-free: process-lifetime singleton.
  return R;
}

thread_local ThreadBuf *TlBuf = nullptr;
thread_local uint64_t TlEpoch = 0;

/// The calling thread's buffer for the current recording generation,
/// registering (under the lock, once per thread per generation) on first
/// use.
ThreadBuf *myBuf() {
  Registry &R = registry();
  uint64_t E = R.Epoch.load(std::memory_order_acquire);
  if (TlBuf && TlEpoch == E)
    return TlBuf;
  std::lock_guard<std::mutex> L(R.M);
  auto B = std::make_unique<ThreadBuf>(
      static_cast<uint32_t>(R.Bufs.size() + 1));
  TlBuf = B.get();
  TlEpoch = R.Epoch.load(std::memory_order_relaxed);
  R.Bufs.push_back(std::move(B));
  return TlBuf;
}

void appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    char C = *S;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(V));
  Out += Buf;
}

/// Serializes one event as a single JSON object line (no trailing comma).
void appendEventJson(std::string &Out, const Event &E, uint32_t Tid) {
  Out += "{\"name\":\"";
  appendEscaped(Out, E.Name);
  Out += "\",\"cat\":\"";
  appendEscaped(Out, E.Cat);
  Out += "\",\"ph\":\"";
  Out += E.Phase;
  Out += "\",\"ts\":";
  appendU64(Out, E.TsUs);
  if (E.Phase == 'X') {
    Out += ",\"dur\":";
    appendU64(Out, E.DurUs);
  }
  if (E.Phase == 'i')
    Out += ",\"s\":\"t\""; // Thread-scoped instant.
  Out += ",\"pid\":1,\"tid\":";
  appendU64(Out, Tid);
  bool First = true;
  for (const TraceArg &A : E.Args) {
    if (!A.Name)
      continue;
    Out += First ? ",\"args\":{\"" : ",\"";
    First = false;
    appendEscaped(Out, A.Name);
    Out += "\":";
    appendU64(Out, A.Value);
  }
  if (!First)
    Out += '}';
  Out += '}';
}

} // namespace

namespace detail {

uint64_t nowUs() {
  auto D = std::chrono::steady_clock::now() - registry().T0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(D).count());
}

void emit(char Phase, const char *Cat, const char *Name, uint64_t TsUs,
          uint64_t DurUs, TraceArg A, TraceArg B, TraceArg C, TraceArg D) {
  Event E;
  E.Cat = Cat;
  E.Name = Name;
  E.TsUs = TsUs;
  E.DurUs = DurUs;
  E.Args = {A, B, C, D};
  E.Phase = Phase;
  myBuf()->push(E);
}

} // namespace detail

TraceRecorder &TraceRecorder::instance() {
  static TraceRecorder R;
  return R;
}

void TraceRecorder::start() {
  reset();
  registry().T0 = std::chrono::steady_clock::now();
  detail::TraceOn.store(true, std::memory_order_relaxed);
}

void TraceRecorder::stop() {
  detail::TraceOn.store(false, std::memory_order_relaxed);
}

void TraceRecorder::reset() {
  stop();
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  // Invalidate every thread's cached buffer pointer before freeing the
  // buffers. Quiescence is the caller's contract; the epoch bump guards
  // against stale thread_local pointers on threads that emit *later*.
  R.Epoch.fetch_add(1, std::memory_order_release);
  R.Bufs.clear();
}

void TraceRecorder::setProcessName(std::string Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  R.ProcessName = std::move(Name);
}

uint64_t TraceRecorder::eventCount() const {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  uint64_t N = 0;
  for (const auto &B : R.Bufs)
    N += B->Count.load(std::memory_order_acquire);
  return N;
}

std::string TraceRecorder::toJson() const {
  struct Flat {
    Event E;
    uint32_t Tid;
  };
  std::vector<Flat> All;
  std::vector<uint32_t> Tids;
  std::string ProcName;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> L(R.M);
    ProcName = R.ProcessName;
    for (const auto &B : R.Bufs) {
      Tids.push_back(B->Tid);
      uint64_t N = B->Count.load(std::memory_order_acquire);
      const Chunk *C = &B->Head;
      for (uint64_t I = 0; I != N; ++I) {
        size_t InC = static_cast<size_t>(I % ChunkCap);
        if (I != 0 && InC == 0)
          C = C->Next.load(std::memory_order_acquire);
        All.push_back({C->Events[InC], B->Tid});
      }
    }
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const Flat &A, const Flat &B) {
                     return A.E.TsUs < B.E.TsUs;
                   });

  std::string Out;
  Out.reserve(All.size() * 96 + 256);
  Out += "{\"traceEvents\":[\n";
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"";
  appendEscaped(Out, ProcName.c_str());
  Out += "\"}}";
  for (uint32_t Tid : Tids) {
    Out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    appendU64(Out, Tid);
    Out += ",\"args\":{\"name\":\"thread-";
    appendU64(Out, Tid);
    Out += "\"}}";
  }
  for (const Flat &F : All) {
    Out += ",\n";
    appendEventJson(Out, F.E, F.Tid);
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}

bool TraceRecorder::flushToFile(const std::string &Path, std::string *Err) {
  // Trace I/O must never take the analysis down with it: every failure —
  // serialization or the (throwing) atomic write — is converted into a
  // false return with the message in *Err.
  try {
    writeFileAtomic(Path, toJson(), "obs.flush");
    return true;
  } catch (const std::exception &E) {
    if (Err)
      *Err = E.what();
    return false;
  }
}

} // namespace obs
} // namespace swift
