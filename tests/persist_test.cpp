//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of crash-safe, corruption-detecting persistence: the CRC32
/// primitive, swift-ckpt v2 framing, typed load-error classification
/// (every truncation of a framed file reports Truncated, every bit flip a
/// CheckpointLoadError, payload flips specifically Corrupt), legacy v1
/// compatibility, the checked-in corrupted-checkpoint corpus
/// (tests/corpus/*.swiftckpt), a seeded mutation fuzz loop, atomic-save
/// behavior under injected write faults (transient faults retried,
/// persistent faults surfaced with the old file intact), and the parser
/// count-sanity limits that make absurd section counts fail fast.
///
/// Every persisted format shares one frame codec (support/Frame.h); the
/// checked-in golden files (tests/corpus/persist/) pin the store, spool
/// and journal bytes, and a second fuzz loop mutates each format's
/// payload *inside* a valid frame, so the payload parsers themselves
/// are exercised rather than the CRC check in front of them.
///
//===----------------------------------------------------------------------===//

#include "framework/Tabulation.h"
#include "genprog/Fuzzer.h"
#include "govern/Checkpoint.h"
#include "ir/Dumper.h"
#include "serve/Journal.h"
#include "serve/Store.h"
#include "shard/Spool.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/Frame.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "typestate/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace swift;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures: a real checkpoint image and a scratch directory
//===----------------------------------------------------------------------===//

/// A genuine budget-exhausted TD checkpoint, built once: its v1 payload
/// text and the program/checkpoint pair it came from.
struct Fixture {
  std::unique_ptr<Program> Prog;
  TsCheckpoint Ckpt;
  std::string Payload; ///< swift-ckpt v1 text.
  std::string Image;   ///< v2 file image (framed payload).
};

const Fixture &fixture() {
  static Fixture F = [] {
    Fixture R;
    for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
      FuzzConfig FC;
      FC.Seed = Seed;
      FC.NumProcs = 3 + Seed % 4;
      FC.StmtsPerProc = 8 + Seed % 8;
      std::unique_ptr<Program> Prog = generateFuzzProgram(FC);
      TsContext Ctx(*Prog, Prog->spec(0).name());

      GovernedRunOptions GO;
      GO.Config.K = NoBuTrigger;
      GO.Config.Theta = 1;
      GO.Limits.MaxSteps = 40;
      TsTabSnapshot Snap;
      GO.CheckpointOut = &Snap;
      TsGovernedResult G = runTypestateGoverned(Ctx, GO);
      if (!G.Partial)
        continue;

      R.Ckpt.Config = GO.Config;
      R.Ckpt.TrackedClass = Prog->symbols().text(Prog->spec(0).name());
      R.Ckpt.StepsConsumed = Snap.StepsConsumed;
      R.Ckpt.Snapshot = std::move(Snap);
      R.Prog = std::move(Prog);
      R.Payload = checkpointToText(*R.Prog, R.Ckpt);
      R.Image = frameCheckpointV2(R.Payload);
      return R;
    }
    std::fprintf(stderr, "persist_test: no seed produced a partial run\n");
    std::abort();
  }();
  return F;
}

/// Per-test scratch directory, removed on teardown.
class PersistTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::filesystem::temp_directory_path() /
          ("swift_persist_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(Dir);
  }
  void TearDown() override {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    failpoint::disarmAll();
  }
  std::string path(const char *Name) const { return (Dir / Name).string(); }

  std::filesystem::path Dir;
};

LoadErrorKind kindOf(std::string_view Image) {
  try {
    (void)parseCheckpointFile(Image);
  } catch (const CheckpointLoadError &E) {
    return E.kind();
  }
  ADD_FAILURE() << "expected a CheckpointLoadError";
  return LoadErrorKind::IoError;
}

//===----------------------------------------------------------------------===//
// CRC32
//===----------------------------------------------------------------------===//

TEST(Crc32Test, KnownAnswerAndSensitivity) {
  // The IEEE check value: CRC32 of the ASCII digits "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Any single-bit change moves the CRC.
  std::string A = "swift checkpoint payload";
  std::string B = A;
  B[5] ^= 0x20;
  EXPECT_NE(crc32(A.data(), A.size()), crc32(B.data(), B.size()));
  // Seeding chains: crc(ab) == crc(b, seed=crc(a)).
  EXPECT_EQ(crc32("123456789", 9),
            crc32("456789", 6, crc32("123", 3)));
}

//===----------------------------------------------------------------------===//
// v2 framing and classification
//===----------------------------------------------------------------------===//

TEST(PersistFormatTest, FrameRoundTripsThroughParse) {
  const Fixture &F = fixture();
  ASSERT_EQ(F.Image.substr(0, 14), "swift-ckpt v2 ");
  ParsedCheckpoint PC = parseCheckpointFile(F.Image);
  EXPECT_EQ(PC.Checkpoint.TrackedClass, F.Ckpt.TrackedClass);
  EXPECT_EQ(PC.Checkpoint.StepsConsumed, F.Ckpt.StepsConsumed);
  // Nothing was lost: reprinting the parse reproduces the payload.
  EXPECT_EQ(checkpointToText(*PC.Prog, PC.Checkpoint), F.Payload);
}

TEST(PersistFormatTest, LegacyV1PayloadStillParses) {
  const Fixture &F = fixture();
  ParsedCheckpoint PC = parseCheckpointFile(F.Payload); // bare v1
  EXPECT_EQ(PC.Checkpoint.TrackedClass, F.Ckpt.TrackedClass);
}

TEST(PersistFormatTest, EveryTruncationIsTypedAndDetected) {
  const std::string &Image = fixture().Image;
  // Every proper prefix must be rejected with a typed error; once the
  // full "swift-ckpt v2 " magic survives the cut, specifically as
  // Truncated (shorter cuts lose the magic itself and classify as
  // Corrupt or VersionMismatch — still typed, never accepted).
  for (size_t Cut = 0; Cut < Image.size();
       Cut += (Cut < 64 ? 1 : 37)) {
    std::string_view Prefix(Image.data(), Cut);
    LoadErrorKind K = kindOf(Prefix);
    if (Cut >= 14) {
      EXPECT_EQ(K, LoadErrorKind::Truncated) << "cut at " << Cut;
    }
  }
}

TEST(PersistFormatTest, EveryPayloadBitFlipIsCorrupt) {
  const Fixture &F = fixture();
  const size_t PayloadBegin = F.Image.find('\n') + 1;
  const size_t PayloadEnd = PayloadBegin + F.Payload.size();
  for (size_t I = 0; I < F.Image.size(); I += (I < 64 ? 1 : 29)) {
    std::string Mut = F.Image;
    Mut[I] = static_cast<char>(Mut[I] ^ (1u << (I % 8)));
    if (Mut[I] == F.Image[I])
      continue;
    LoadErrorKind K = kindOf(Mut); // must throw typed, never crash
    if (I >= PayloadBegin && I < PayloadEnd) {
      EXPECT_EQ(K, LoadErrorKind::Corrupt)
          << "payload flip at " << I << " escaped the CRC";
    }
  }
}

TEST(PersistFormatTest, DuplicatedSectionWithValidCrcIsCorrupt) {
  // Re-frame a payload with a duplicated line: the CRC validates (we
  // computed it over the mutant), so only the payload parser can object.
  const Fixture &F = fixture();
  size_t StepsAt = F.Payload.find("\nsteps ");
  ASSERT_NE(StepsAt, std::string::npos);
  size_t LineEnd = F.Payload.find('\n', StepsAt + 1);
  std::string Dup = F.Payload.substr(0, LineEnd + 1) +
                    F.Payload.substr(StepsAt + 1, LineEnd - StepsAt) +
                    F.Payload.substr(LineEnd + 1);
  EXPECT_EQ(kindOf(frameCheckpointV2(Dup)), LoadErrorKind::Corrupt);
}

TEST(PersistFormatTest, UnsupportedVersionIsVersionMismatch) {
  EXPECT_EQ(kindOf("swift-ckpt v3 12\nfuture stuff\n"),
            LoadErrorKind::VersionMismatch);
  EXPECT_EQ(kindOf("swift-ckpt v99\n"), LoadErrorKind::VersionMismatch);
}

TEST(PersistFormatTest, JunkAndEmptyAreTyped) {
  EXPECT_EQ(kindOf(""), LoadErrorKind::Truncated);
  EXPECT_EQ(kindOf("not a checkpoint at all\n"), LoadErrorKind::Corrupt);
  // Trailing garbage after a valid trailer: the frame no longer matches
  // its declared extent.
  EXPECT_EQ(kindOf(fixture().Image + "extra"), LoadErrorKind::Corrupt);
}

//===----------------------------------------------------------------------===//
// Mutation fuzz loop
//===----------------------------------------------------------------------===//

TEST(PersistFuzzTest, FiftySeedsOfMutationsNeverCrashAndClassify) {
  const std::string &Image = fixture().Image;
  const size_t PayloadBegin = Image.find('\n') + 1;
  const size_t PayloadEnd = Image.size() - 15; // CRC trailer
  uint64_t Truncations = 0, Flips = 0, Splices = 0;

  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    Rng R(Seed * 0x9e3779b9u);
    std::string Mut = Image;
    switch (R.below(3)) {
    case 0: { // truncate
      Mut.resize(R.below(Mut.size()));
      ++Truncations;
      LoadErrorKind K = kindOf(Mut);
      if (Mut.size() >= 14) {
        EXPECT_EQ(K, LoadErrorKind::Truncated) << "seed " << Seed;
      }
      break;
    }
    case 1: { // flip one bit
      size_t I = R.below(Mut.size());
      char Old = Mut[I];
      Mut[I] = static_cast<char>(Old ^ (1u << R.below(8)));
      if (Mut[I] == Old)
        break; // zero mask; mutant equals original
      ++Flips;
      LoadErrorKind K = kindOf(Mut);
      if (I >= PayloadBegin && I < PayloadEnd) {
        EXPECT_EQ(K, LoadErrorKind::Corrupt) << "seed " << Seed;
      }
      break;
    }
    default: { // duplicate a random slice in place (grows the file)
      size_t At = R.below(Mut.size());
      size_t Len = 1 + R.below(std::min<size_t>(64, Mut.size() - At));
      Mut.insert(At, Mut.substr(At, Len));
      ++Splices;
      try {
        (void)parseCheckpointFile(Mut);
        ADD_FAILURE() << "seed " << Seed << ": grown mutant accepted";
      } catch (const CheckpointLoadError &) {
        // Typed rejection is the contract; the kind depends on where
        // the splice landed.
      }
      break;
    }
    }
  }
  // The switch is seed-driven; make sure all three mutators actually ran.
  EXPECT_GT(Truncations, 5u);
  EXPECT_GT(Flips, 5u);
  EXPECT_GT(Splices, 5u);
}

//===----------------------------------------------------------------------===//
// Checked-in corrupted-checkpoint corpus
//===----------------------------------------------------------------------===//

TEST(PersistCorpusTest, ReplaysEveryCheckedInCheckpoint) {
  // File-name prefixes encode the expected outcome: good-* and legacy-*
  // load; truncated-*, bitflip-*, dup-*, badversion-* raise the matching
  // typed error.
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SWIFT_CORPUS_DIR))
    if (Entry.path().extension() == ".swiftckpt")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 6u) << "corpus lost its checkpoint files";

  for (const std::string &Path : Files) {
    std::string Stem = std::filesystem::path(Path).stem().string();
    SCOPED_TRACE(Path);
    if (Stem.rfind("good-", 0) == 0 || Stem.rfind("legacy-", 0) == 0) {
      ParsedCheckpoint PC = loadCheckpointFile(Path);
      EXPECT_FALSE(PC.Checkpoint.TrackedClass.empty());
      continue;
    }
    LoadErrorKind Want = LoadErrorKind::Corrupt;
    if (Stem.rfind("truncated-", 0) == 0)
      Want = LoadErrorKind::Truncated;
    else if (Stem.rfind("badversion-", 0) == 0)
      Want = LoadErrorKind::VersionMismatch;
    else
      ASSERT_TRUE(Stem.rfind("bitflip-", 0) == 0 ||
                  Stem.rfind("dup-", 0) == 0)
          << "unrecognized corpus file name scheme";
    try {
      (void)loadCheckpointFile(Path);
      ADD_FAILURE() << "corrupted checkpoint accepted";
    } catch (const CheckpointLoadError &E) {
      EXPECT_EQ(E.kind(), Want) << E.what();
    }
  }
}

//===----------------------------------------------------------------------===//
// Golden bytes of every framed format
//===----------------------------------------------------------------------===//

constexpr std::string_view StoreTag = "swift-serve-store v1 ";
constexpr std::string_view SpoolTag = "swift-spool v1 ";

std::string corpusBytes(const std::string &Rel) {
  return readWholeFile(std::string(SWIFT_CORPUS_DIR) + "/" + Rel);
}

/// The payload of a valid frame image.
std::string payloadOf(std::string_view Tag, const std::string &Image) {
  Unframed U = unframe(Tag, Image);
  EXPECT_EQ(U.Status, FrameStatus::Ok) << U.Reason;
  return std::string(U.Payload);
}

TEST(PersistGoldenTest, CheckpointFrameReproducesTheCorpusFile) {
  std::string Image = corpusBytes("good-v2.swiftckpt");
  EXPECT_EQ(frameCheckpointV2(payloadOf("swift-ckpt v2 ", Image)), Image);
}

TEST(PersistGoldenTest, StoreDecodesAndReencodesIdentically) {
  std::string Bytes = corpusBytes("persist/golden.swiftstore");
  serve::ParsedStore PS = serve::decodeStore(Bytes);
  ASSERT_EQ(PS.Procs.size(), 4u);
  EXPECT_EQ(serve::encodeStore(*PS.Prog, PS.TrackedClass, PS.Procs), Bytes);
}

TEST(PersistGoldenTest, SpoolSegmentDecodesAndReencodesIdentically) {
  std::string Bytes = corpusBytes("persist/golden-seg-3.spool");
  shard::Segment S = shard::decodeSegment(Bytes);
  EXPECT_EQ(S.Scc, 3u);
  ASSERT_EQ(S.Procs.size(), 2u);
  EXPECT_EQ(S.Procs[0].Name, "h");
  EXPECT_EQ(shard::encodeSegment(S), Bytes);
  // The program hash binds the segment to the golden store's program.
  serve::ParsedStore PS =
      serve::decodeStore(corpusBytes("persist/golden.swiftstore"));
  EXPECT_EQ(S.ProgHash, shard::programSpoolHash(*PS.Prog, PS.TrackedClass));
}

TEST_F(PersistTest, JournalReplaysAndReencodesIdentically) {
  std::string Bytes = corpusBytes("persist/golden.swiftjournal");
  std::string P = path("golden.swiftjournal"); // replay may repair: copy
  writeFileAtomic(P, Bytes);
  std::vector<serve::Journal::Record> R = serve::Journal(P).replayAndRepair();
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0].ProcName, "g");
  EXPECT_EQ(R[1].ProcName, "h");
  EXPECT_EQ(std::string(serve::Journal::Magic) +
                serve::Journal::encodeRecord(R[0]) +
                serve::Journal::encodeRecord(R[1]),
            Bytes);
  EXPECT_EQ(readWholeFile(P), Bytes);
}

//===----------------------------------------------------------------------===//
// Strict 16-digit hash fields
//===----------------------------------------------------------------------===//

/// Re-frames \p Image under \p Tag with the first \p From in its payload
/// replaced by \p To, so the CRC is valid and only the payload parser
/// can object.
std::string reframeWith(std::string_view Tag, const std::string &Image,
                        const std::string &From, const std::string &To) {
  std::string Payload = payloadOf(Tag, Image);
  size_t At = Payload.find(From);
  EXPECT_NE(At, std::string::npos) << From;
  return frame(Tag, Payload.replace(At, From.size(), To));
}

TEST(PersistHardeningTest, HashFieldsAreExactlySixteenHexDigits) {
  std::string Store = corpusBytes("persist/golden.swiftstore");
  std::string Payload = payloadOf(StoreTag, Store);
  size_t At = Payload.find(" hash ");
  ASSERT_NE(At, std::string::npos);
  std::string Hash = Payload.substr(At + 6, 16);
  ASSERT_NO_THROW(
      (void)serve::decodeStore(reframeWith(StoreTag, Store, Hash, Hash)));
  for (const std::string &Bad : {Hash.substr(1), "0" + Hash})
    EXPECT_THROW(
        (void)serve::decodeStore(reframeWith(StoreTag, Store, Hash, Bad)),
        serve::StoreError)
        << "store hash field '" << Bad << "' accepted";

  std::string Seg = corpusBytes("persist/golden-seg-3.spool");
  std::string Prog = payloadOf(SpoolTag, Seg).substr(5, 16); // "prog <hex>"
  for (const std::string &Bad : {Prog.substr(1), "0" + Prog})
    EXPECT_THROW((void)shard::decodeSegment(
                     reframeWith(SpoolTag, Seg, "prog " + Prog, "prog " + Bad)),
                 shard::SpoolError)
        << "spool prog field '" << Bad << "' accepted";
}

TEST(PersistHardeningTest, SignedNumbersAreCorrupt) {
  // Checkpoint numbers are bare digit runs: "-1" must not wrap to 2^64-1.
  const std::string &Payload = fixture().Payload;
  size_t At = Payload.find("\nsteps ");
  ASSERT_NE(At, std::string::npos);
  size_t NumAt = At + 7;
  size_t LineEnd = Payload.find('\n', NumAt);
  for (const char *Bad : {"-1", "+5"}) {
    std::string Mut =
        Payload.substr(0, NumAt) + Bad + Payload.substr(LineEnd);
    EXPECT_EQ(kindOf(frameCheckpointV2(Mut)), LoadErrorKind::Corrupt) << Bad;
  }
}

TEST(PersistHardeningTest, BrokenStateAndRelationInvariantsAreTypedErrors) {
  // Payloads whose states or relations break the typestate constructors'
  // invariants must be rejected by the parser, not reach (and abort in)
  // the constructors.
  // Checkpoint: the first non-Lambda row "s <site> <state> ..." gets the
  // must set {v} and the must-not set {v}.
  const std::string &Payload = fixture().Payload;
  size_t Row = Payload.find("\ns ");
  while (Row != std::string::npos && Payload.compare(Row, 5, "\ns L\n") == 0)
    Row = Payload.find("\ns ", Row + 1);
  ASSERT_NE(Row, std::string::npos);
  size_t NameEnd = Payload.find(' ', Payload.find(' ', Row + 3) + 1);
  std::string Overlap = Payload.substr(0, NameEnd) + " 1 v 1 v" +
                        Payload.substr(Payload.find('\n', Row + 1));
  EXPECT_EQ(kindOf(frameCheckpointV2(Overlap)), LoadErrorKind::Corrupt);

  // Store: an alloc state of proc f with the same overlap, and a relation
  // of f whose generated must-not path is not killed on the must side.
  serve::ParsedStore PS =
      serve::decodeStore(corpusBytes("persist/golden.swiftstore"));
  ASSERT_EQ(PS.Procs[1].Name, "f");
  std::string Text = serve::summaryToText(*PS.Prog, PS.Procs[1].Sum);
  for (auto [From, To] :
       {std::pair<std::string, std::string>{"A 0 1 1 v 0", "A 0 1 1 v 1 v"},
        {"killa kb 1 v kd", "killa kb 0 kd"}}) {
    std::string Mut = Text;
    size_t At = Mut.find(From);
    ASSERT_NE(At, std::string::npos) << From;
    Mut.replace(At, From.size(), To);
    EXPECT_THROW((void)serve::parseSummaryText(*PS.Prog, Mut),
                 serve::StoreError)
        << To;
  }
}

//===----------------------------------------------------------------------===//
// Mutation fuzz past the CRC, every format
//===----------------------------------------------------------------------===//

/// One payload mutation: a bit flip, a cut-out section, or a duplicated
/// or dropped line. Counts which mutator ran in \p Ran.
std::string mutatePayload(std::string P, Rng &R, unsigned (&Ran)[4]) {
  if (P.empty())
    return P;
  auto lineAt = [&P](size_t I) {
    size_t Begin = P.rfind('\n', I == 0 ? 0 : I - 1);
    Begin = (Begin == std::string::npos || I == 0) ? 0 : Begin + 1;
    size_t End = P.find('\n', I);
    End = End == std::string::npos ? P.size() : End + 1;
    return std::make_pair(Begin, End);
  };
  unsigned Op = static_cast<unsigned>(R.below(4));
  ++Ran[Op];
  size_t I = R.below(P.size());
  switch (Op) {
  case 0:
    P[I] = static_cast<char>(P[I] ^ (1u << R.below(8)));
    break;
  case 1:
    P.erase(I, 1 + R.below(64));
    break;
  case 2: {
    auto [Begin, End] = lineAt(I);
    P.insert(End, P.substr(Begin, End - Begin));
    break;
  }
  default: {
    auto [Begin, End] = lineAt(I);
    P.erase(Begin, End - Begin);
    break;
  }
  }
  return P;
}

constexpr uint64_t FuzzSeeds = 200;

void expectEveryMutatorRan(const unsigned (&Ran)[4]) {
  for (unsigned N : Ran)
    EXPECT_GT(N, 10u);
}

TEST(PersistFuzzTest, CheckpointPayloadMutantsAreCorruptOrLoad) {
  const std::string &Payload = fixture().Payload;
  unsigned Ran[4] = {}, Rejected = 0;
  for (uint64_t Seed = 1; Seed <= FuzzSeeds; ++Seed) {
    Rng R(Seed * 0x9e3779b9u);
    std::string Image = frameCheckpointV2(mutatePayload(Payload, R, Ran));
    try {
      (void)parseCheckpointFile(Image);
    } catch (const CheckpointLoadError &E) {
      // The frame is valid, so only the payload parser objected.
      EXPECT_EQ(E.kind(), LoadErrorKind::Corrupt) << "seed " << Seed;
      ++Rejected;
    }
  }
  expectEveryMutatorRan(Ran);
  EXPECT_GT(Rejected, FuzzSeeds / 2);
}

TEST(PersistFuzzTest, StorePayloadMutantsAreStoreErrorsOrDecode) {
  std::string Payload =
      payloadOf(StoreTag, corpusBytes("persist/golden.swiftstore"));
  unsigned Ran[4] = {}, Rejected = 0;
  for (uint64_t Seed = 1; Seed <= FuzzSeeds; ++Seed) {
    Rng R(Seed * 0x9e3779b9u);
    std::string Image = frame(StoreTag, mutatePayload(Payload, R, Ran));
    try {
      serve::ParsedStore PS = serve::decodeStore(Image);
      (void)serve::encodeStore(*PS.Prog, PS.TrackedClass, PS.Procs);
    } catch (const serve::StoreError &) {
      ++Rejected;
    }
  }
  expectEveryMutatorRan(Ran);
  EXPECT_GT(Rejected, FuzzSeeds / 2);
}

TEST(PersistFuzzTest, SpoolPayloadMutantsAreSpoolErrorsOrDecode) {
  std::string Payload =
      payloadOf(SpoolTag, corpusBytes("persist/golden-seg-3.spool"));
  unsigned Ran[4] = {}, Rejected = 0;
  for (uint64_t Seed = 1; Seed <= FuzzSeeds; ++Seed) {
    Rng R(Seed * 0x9e3779b9u);
    std::string Image = frame(SpoolTag, mutatePayload(Payload, R, Ran));
    try {
      shard::Segment S = shard::decodeSegment(Image);
      EXPECT_EQ(shard::encodeSegment(S), Image) << "seed " << Seed;
    } catch (const shard::SpoolError &) {
      ++Rejected;
    }
  }
  expectEveryMutatorRan(Ran);
  EXPECT_GT(Rejected, FuzzSeeds / 4);
}

TEST_F(PersistTest, JournalRecordMutantsReplayAPrefix) {
  // Three records, one of them mutated inside its header/name/body and
  // re-sealed with a valid CRC. Replay must keep every record before the
  // mutant, stop at an invalid frame, and cut the file to a byte prefix.
  using serve::Journal;
  std::vector<Journal::Record> Recs = {
      {"g", "proc g() entry 0 exit 1 nodes 2 {\n  0: nop -> 1\n}\n"},
      {"h", "body\nwith lines\n"},
      {"main", "proc main() {\n}\n"}};
  std::string P = path("fuzz.swiftjournal");
  unsigned Ran[4] = {}, Cut = 0;
  for (uint64_t Seed = 1; Seed <= FuzzSeeds; ++Seed) {
    Rng R(Seed * 0x9e3779b9u);
    size_t Victim = R.below(Recs.size());
    std::string Bytes(Journal::Magic);
    for (size_t I = 0; I != Recs.size(); ++I) {
      std::string Rec = Journal::encodeRecord(Recs[I]);
      if (I == Victim) {
        std::string Covered = mutatePayload(
            Rec.substr(0, Rec.size() - CrcTrailerSize), R, Ran);
        Rec = Covered + crcTrailer(Covered);
      }
      Bytes += Rec;
    }
    writeFileAtomic(P, Bytes);
    std::vector<Journal::Record> Got = Journal(P).replayAndRepair();
    ASSERT_GE(Got.size(), Victim) << "seed " << Seed;
    ASSERT_LE(Got.size(), Recs.size()) << "seed " << Seed;
    for (size_t I = 0; I != Got.size(); ++I) {
      if (I == Victim)
        continue; // the mutant itself may still be a well-formed record
      EXPECT_EQ(Got[I].ProcName, Recs[I].ProcName) << "seed " << Seed;
      EXPECT_EQ(Got[I].Body, Recs[I].Body) << "seed " << Seed;
    }
    std::string After = readWholeFile(P);
    EXPECT_EQ(Bytes.compare(0, After.size(), After), 0)
        << "seed " << Seed << ": repair is not a byte prefix";
    Cut += After.size() < Bytes.size();
    EXPECT_EQ(Journal(P).replayAndRepair().size(), Got.size())
        << "seed " << Seed << ": repair is not idempotent";
  }
  expectEveryMutatorRan(Ran);
  EXPECT_GT(Cut, FuzzSeeds / 4);
}

//===----------------------------------------------------------------------===//
// Atomic save/load under injected faults
//===----------------------------------------------------------------------===//

TEST_F(PersistTest, SaveLoadRoundTripsOnDisk) {
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  saveCheckpointFile(P, *F.Prog, F.Ckpt);
  EXPECT_EQ(readWholeFile(P), F.Image);
  ParsedCheckpoint PC = loadCheckpointFile(P);
  EXPECT_EQ(checkpointToText(*PC.Prog, PC.Checkpoint), F.Payload);
}

TEST_F(PersistTest, MissingFileIsIoError) {
  try {
    (void)loadCheckpointFile(path("nope.swiftckpt"));
    FAIL() << "expected CheckpointLoadError";
  } catch (const CheckpointLoadError &E) {
    EXPECT_EQ(E.kind(), LoadErrorKind::IoError);
  }
}

TEST_F(PersistTest, TransientWriteFaultIsRetriedAway) {
  // nth(1): only the first write chunk of the first attempt fails; the
  // retry goes clean and the save must succeed end to end.
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  failpoint::ScopedArm Arm("ckpt.save.write=nth(1)");
  saveCheckpointFile(P, *F.Prog, F.Ckpt);
  EXPECT_EQ(failpoint::fires("ckpt.save.write"), 1u);
  EXPECT_EQ(readWholeFile(P), F.Image);
}

TEST_F(PersistTest, PersistentFaultThrowsAndPreservesOldFile) {
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  saveCheckpointFile(P, *F.Prog, F.Ckpt); // the old, good file

  {
    failpoint::ScopedArm Arm("ckpt.save.rename=always");
    EXPECT_THROW(saveCheckpointFile(P, *F.Prog, F.Ckpt),
                 std::runtime_error);
    EXPECT_GE(failpoint::fires("ckpt.save.rename"), 3u); // all attempts
  }
  // The old file survived, byte for byte, and no temp litter remains.
  EXPECT_EQ(readWholeFile(P), F.Image);
  size_t Entries = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    (void)E;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u);
}

TEST_F(PersistTest, InjectedReadFaultIsIoError) {
  const Fixture &F = fixture();
  std::string P = path("ck.swiftckpt");
  saveCheckpointFile(P, *F.Prog, F.Ckpt);
  failpoint::ScopedArm Arm("ckpt.load.read=always");
  try {
    (void)loadCheckpointFile(P);
    FAIL() << "expected CheckpointLoadError";
  } catch (const CheckpointLoadError &E) {
    EXPECT_EQ(E.kind(), LoadErrorKind::IoError);
  }
}

TEST_F(PersistTest, ProgramTextSaveIsAtomicToo) {
  const Fixture &F = fixture();
  std::string P = path("prog.swiftir");
  saveProgramTextFile(P, *F.Prog);
  std::string Old = readWholeFile(P);
  EXPECT_EQ(Old, programToText(*F.Prog));

  failpoint::ScopedArm Arm("ir.save.flush=always");
  EXPECT_THROW(saveProgramTextFile(P, *F.Prog), std::runtime_error);
  EXPECT_EQ(readWholeFile(P), Old);
}

//===----------------------------------------------------------------------===//
// Parser count-sanity limits
//===----------------------------------------------------------------------===//

TEST(PersistHardeningTest, AbsurdSectionCountsFailFastWithoutAllocating) {
  const Fixture &F = fixture();
  // Mutate each count-bearing section header to claim ~10^12 entries;
  // the parser must reject on the size sanity check (fast, no reserve).
  for (const char *Section : {"states ", "edges ", "summaries "}) {
    size_t At = F.Payload.find(std::string("\n") + Section);
    ASSERT_NE(At, std::string::npos) << Section;
    size_t NumBegin = At + 1 + std::string(Section).size();
    size_t LineEnd = F.Payload.find('\n', NumBegin);
    std::string Mut = F.Payload.substr(0, NumBegin) + "999999999999" +
                      F.Payload.substr(LineEnd);
    try {
      (void)parseCheckpointText(Mut);
      FAIL() << Section << "count 999999999999 accepted";
    } catch (const std::runtime_error &E) {
      EXPECT_NE(std::string(E.what()).find("exceeds"), std::string::npos)
          << "wrong rejection for " << Section << ": " << E.what();
    }
  }
}

TEST(PersistHardeningTest, AbsurdNodeCountInProgramTextFailsFast) {
  std::string Text = programToText(*fixture().Prog);
  size_t At = Text.find(" nodes ");
  ASSERT_NE(At, std::string::npos);
  size_t NumBegin = At + 7;
  size_t NumEnd = Text.find(' ', NumBegin);
  // In range for the numeric parser, absurd versus the input size: only
  // the count-sanity limit can reject it.
  std::string Mut =
      Text.substr(0, NumBegin) + "9999999" + Text.substr(NumEnd);
  try {
    (void)parseProgramText(Mut);
    FAIL() << "node count 9999999 accepted";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("exceeds"), std::string::npos)
        << E.what();
  }
}

} // namespace
