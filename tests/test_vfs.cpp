//===- test_vfs.cpp - Virtual filesystem and hostile-storage tests ----------===//
//
// Proves the storage layer's adversarial claims one by one: the FaultVfs
// page-cache model (visible vs durable bytes, journaled namespace ops,
// power cuts, epoch-dead handles), each injected io-* fault site actually
// firing with its documented effect, the self-healing A/B snapshot slots
// (fallback and open-time scrub under real damage), and the
// truncate-at-every-byte rejection sweeps that pin the Corrupt-vs-Truncated
// classification for trace files and snapshot containers.
//
//===----------------------------------------------------------------------===//

#include "gcache/support/FaultInjector.h"
#include "gcache/support/Snapshot.h"
#include "gcache/support/Status.h"
#include "gcache/support/Vfs.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace gcache;

namespace {

/// Every test may arm the process-wide injector or swap the process Vfs,
/// so each one must leave both pristine for whatever runs next.
class VfsTest : public ::testing::Test {
protected:
  void TearDown() override {
    faultInjector().disarm();
    faultInjector().resetCounters();
  }
};

std::string bytesToString(const std::vector<uint8_t> &B) {
  return std::string(B.begin(), B.end());
}

/// Writes \p Text to \p Path through \p V, syncing only when asked.
void putFile(Vfs &V, const std::string &Path, const std::string &Text,
             bool Sync = true) {
  Expected<std::unique_ptr<VfsFile>> F = V.openWrite(Path);
  ASSERT_TRUE(F.ok()) << F.status().message();
  ASSERT_TRUE((*F)->write(Text.data(), Text.size()).ok());
  if (Sync) {
    ASSERT_TRUE((*F)->sync().ok());
  }
  ASSERT_TRUE((*F)->close().ok());
}

std::string getFile(Vfs &V, const std::string &Path) {
  Expected<std::vector<uint8_t>> B = V.readFile(Path);
  EXPECT_TRUE(B.ok()) << B.status().message();
  return B.ok() ? bytesToString(*B) : std::string();
}

//===----------------------------------------------------------------------===//
// FaultVfs page-cache model
//===----------------------------------------------------------------------===//

TEST_F(VfsTest, FaultVfsUnsyncedBytesVanishAtReboot) {
  FaultVfs Fv;
  putFile(Fv, "f", "hello", /*Sync=*/false);
  EXPECT_EQ(getFile(Fv, "f"), "hello") << "reads observe the page cache";

  Fv.reboot();
  // The create is journaled metadata (durable immediately); the data was
  // never synced, so the file survives empty.
  ASSERT_TRUE(Fv.exists("f"));
  EXPECT_EQ(getFile(Fv, "f"), "");
}

TEST_F(VfsTest, FaultVfsSyncDrawsTheDurableLine) {
  FaultVfs Fv;
  Expected<std::unique_ptr<VfsFile>> F = Fv.openWrite("f");
  ASSERT_TRUE(F.ok());
  ASSERT_TRUE((*F)->write("abc", 3).ok());
  ASSERT_TRUE((*F)->sync().ok());
  ASSERT_TRUE((*F)->write("def", 3).ok());
  ASSERT_TRUE((*F)->close().ok());
  EXPECT_EQ(getFile(Fv, "f"), "abcdef");

  Fv.reboot();
  EXPECT_EQ(getFile(Fv, "f"), "abc") << "content reverts to the last sync";
}

TEST_F(VfsTest, FaultVfsRenameMovesTheVisibleDurableSplit) {
  FaultVfs Fv;
  Expected<std::unique_ptr<VfsFile>> F = Fv.openWrite("from");
  ASSERT_TRUE(F.ok());
  ASSERT_TRUE((*F)->write("abc", 3).ok());
  ASSERT_TRUE((*F)->sync().ok());
  ASSERT_TRUE((*F)->write("def", 3).ok());
  ASSERT_TRUE((*F)->close().ok());
  ASSERT_TRUE(Fv.rename("from", "to").ok());

  EXPECT_FALSE(Fv.exists("from"));
  EXPECT_EQ(getFile(Fv, "to"), "abcdef");
  Fv.reboot();
  // The rename itself is journaled-durable, but it does not promote the
  // unsynced data bytes — exactly the rename-before-sync bug window.
  ASSERT_TRUE(Fv.exists("to"));
  EXPECT_EQ(getFile(Fv, "to"), "abc");
}

TEST_F(VfsTest, FaultVfsUnlinkIsJournaledDurable) {
  FaultVfs Fv;
  putFile(Fv, "f", "data");
  ASSERT_TRUE(Fv.unlink("f").ok());
  Fv.reboot();
  EXPECT_FALSE(Fv.exists("f"));
  EXPECT_FALSE(Fv.unlink("f").ok()) << "unlinking a missing file is an error";
}

TEST_F(VfsTest, FaultVfsWriteAtPatchesWithinWrittenBytes) {
  FaultVfs Fv;
  Expected<std::unique_ptr<VfsFile>> F = Fv.openWrite("f");
  ASSERT_TRUE(F.ok());
  ASSERT_TRUE((*F)->write("00000000", 8).ok());
  ASSERT_TRUE((*F)->writeAt(2, "XY", 2).ok());
  Status Beyond = (*F)->writeAt(7, "ZZ", 2);
  ASSERT_FALSE(Beyond.ok());
  EXPECT_NE(Beyond.message().find("'f'"), std::string::npos)
      << "the error names the path: " << Beyond.message();
  ASSERT_TRUE((*F)->close().ok());
  EXPECT_EQ(getFile(Fv, "f"), "00XY0000");
}

TEST_F(VfsTest, FaultVfsPowerCutFiresLatchesAndReboots) {
  FaultVfs Fv;
  putFile(Fv, "a", "first"); // Ops: create, write, fsync.
  const uint64_t OpsBefore = Fv.mutatingOps();
  ASSERT_GT(OpsBefore, 0u);

  Fv.armPowerCut(OpsBefore + 1); // The next mutating op dies.
  bool Cut = false;
  try {
    putFile(Fv, "b", "second");
  } catch (const StatusError &E) {
    Cut = true;
    EXPECT_EQ(E.status().code(), StatusCode::IoError);
    EXPECT_NE(E.status().message().find("power cut"), std::string::npos)
        << E.status().message();
  }
  ASSERT_TRUE(Cut);
  EXPECT_TRUE(Fv.powerLost());

  // Everything fails until the power returns.
  EXPECT_THROW((void)Fv.openWrite("c"), StatusError);

  Fv.reboot();
  EXPECT_FALSE(Fv.powerLost());
  putFile(Fv, "c", "third");
  EXPECT_EQ(getFile(Fv, "c"), "third");
  EXPECT_EQ(getFile(Fv, "a"), "first") << "synced data survived the cut";
}

TEST_F(VfsTest, FaultVfsHandlesFromBeforeACutAreDead) {
  FaultVfs Fv;
  Expected<std::unique_ptr<VfsFile>> F = Fv.openWrite("f");
  ASSERT_TRUE(F.ok());
  ASSERT_TRUE((*F)->write("abc", 3).ok());
  Fv.armPowerCut(Fv.mutatingOps() + 1);
  EXPECT_THROW((void)(*F)->write("def", 3), StatusError);
  Fv.reboot();

  Status Stale = (*F)->write("ghi", 3);
  ASSERT_FALSE(Stale.ok());
  EXPECT_NE(Stale.message().find("predates a power cut"), std::string::npos)
      << Stale.message();
}

TEST_F(VfsTest, FaultVfsDurableImageRoundTrips) {
  FaultVfs Fv;
  putFile(Fv, "keep", "kept");
  Fv.syncAll();
  FaultVfs::Image Base = Fv.durableImage();

  putFile(Fv, "extra", "junk");
  ASSERT_TRUE(Fv.unlink("keep").ok());

  Fv.restoreImage(Base);
  EXPECT_EQ(Fv.mutatingOps(), 0u) << "restore resets the op counter";
  EXPECT_FALSE(Fv.exists("extra"));
  EXPECT_EQ(getFile(Fv, "keep"), "kept");
}

TEST_F(VfsTest, FaultVfsListIsSortedFilesOnly) {
  FaultVfs Fv;
  ASSERT_TRUE(Fv.mkdir("d").ok());
  ASSERT_TRUE(Fv.mkdir("d").ok()) << "mkdir of an existing dir is success";
  putFile(Fv, "d/b", "1");
  putFile(Fv, "d/a", "2");
  ASSERT_TRUE(Fv.mkdir("d/sub").ok());
  Expected<std::vector<std::string>> L = Fv.list("d");
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(*L, (std::vector<std::string>{"a", "b"}));
}

//===----------------------------------------------------------------------===//
// Injected storage faults: each io-* site fires with its documented effect
//===----------------------------------------------------------------------===//

TEST_F(VfsTest, IoShortWritePersistsHalfAndReportsFailure) {
  FaultVfs Fv;
  ASSERT_TRUE(faultInjector().armFromSpec("io-short-write:1").ok());
  Expected<std::unique_ptr<VfsFile>> F = Fv.openWrite("f");
  ASSERT_TRUE(F.ok());
  Status S = (*F)->write("0123456789", 10);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("short write"), std::string::npos) << S.message();
  EXPECT_NE(S.message().find("'f'"), std::string::npos) << S.message();
  ASSERT_TRUE((*F)->close().ok());
  EXPECT_EQ(getFile(Fv, "f"), "01234");
  EXPECT_EQ(faultInjector().occurrences(FaultSite::IoShortWrite), 1u);
}

TEST_F(VfsTest, IoTornWritePersistsHalfAndLies) {
  FaultVfs Fv;
  ASSERT_TRUE(faultInjector().armFromSpec("io-torn-write:1").ok());
  Expected<std::unique_ptr<VfsFile>> F = Fv.openWrite("f");
  ASSERT_TRUE(F.ok());
  EXPECT_TRUE((*F)->write("0123456789", 10).ok()) << "the tear is silent";
  ASSERT_TRUE((*F)->close().ok());
  EXPECT_EQ(getFile(Fv, "f"), "01234");
  EXPECT_EQ(faultInjector().occurrences(FaultSite::IoTornWrite), 1u);
}

TEST_F(VfsTest, IoEioFailsWritesAndReads) {
  FaultVfs Fv;
  putFile(Fv, "f", "data");

  ASSERT_TRUE(faultInjector().armFromSpec("io-eio:1").ok());
  Expected<std::unique_ptr<VfsFile>> F = Fv.openWrite("g");
  ASSERT_TRUE(F.ok());
  Status S = (*F)->write("x", 1);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("EIO"), std::string::npos) << S.message();
  ASSERT_TRUE((*F)->close().ok());
  EXPECT_EQ(getFile(Fv, "g"), "") << "no bytes persist on EIO";

  // Second occurrence: the read direction.
  ASSERT_TRUE(faultInjector().armFromSpec("io-eio:1").ok());
  Expected<std::vector<uint8_t>> R = Fv.readFile("f");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::IoError);
  EXPECT_NE(R.status().message().find("'f'"), std::string::npos)
      << R.status().message();
}

TEST_F(VfsTest, IoEnospcFailsWithNothingPersisted) {
  FaultVfs Fv;
  ASSERT_TRUE(faultInjector().armFromSpec("io-enospc:1").ok());
  Status S = Fv.writeFileAtomic("f", "payload", 7);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("ENOSPC"), std::string::npos) << S.message();
  EXPECT_FALSE(Fv.exists("f")) << "the target is untouched";
  EXPECT_FALSE(Fv.exists("f.tmp")) << "the temporary is cleaned up";
  EXPECT_EQ(faultInjector().occurrences(FaultSite::IoEnospc), 1u);
}

TEST_F(VfsTest, IoFsyncLostDropsBytesAtTheNextCut) {
  FaultVfs Fv;
  ASSERT_TRUE(faultInjector().armFromSpec("io-fsync-lost:1").ok());
  putFile(Fv, "f", "data", /*Sync=*/true); // The sync lies.
  faultInjector().disarm();
  EXPECT_EQ(getFile(Fv, "f"), "data") << "the loss is invisible before a cut";

  Fv.reboot();
  EXPECT_EQ(getFile(Fv, "f"), "") << "the lying fsync never made it durable";
  EXPECT_EQ(faultInjector().occurrences(FaultSite::IoFsyncLost), 1u);
}

//===----------------------------------------------------------------------===//
// Self-healing A/B snapshot slots
//===----------------------------------------------------------------------===//

SnapshotWriter makeSnapshot(const std::string &Payload) {
  SnapshotWriter W;
  W.beginSection("test-state");
  W.putString(Payload);
  return W;
}

std::string abReadPayload(SnapshotReader &R) {
  SnapshotCursor C = R.section("test-state");
  std::string S = C.getString();
  EXPECT_TRUE(C.finish().ok());
  return S;
}

TEST_F(VfsTest, AbSlotsRoundRobinWithIncreasingGenerations) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  const std::string Base = "ckpt.snap";
  EXPECT_FALSE(snapshotAbExists(Base));

  for (int I = 1; I <= 3; ++I) {
    SnapshotWriter W = makeSnapshot("gen" + std::to_string(I));
    ASSERT_TRUE(writeSnapshotAb(W, Base).ok());
  }
  EXPECT_TRUE(snapshotAbExists(Base));
  EXPECT_TRUE(Fv.exists(snapshotSlotA(Base)));
  EXPECT_TRUE(Fv.exists(snapshotSlotB(Base)));

  SnapshotReader R;
  AbSlotInfo Info;
  ASSERT_TRUE(openSnapshotAb(R, Base, &Info).ok());
  EXPECT_EQ(Info.Generation, 3u);
  EXPECT_FALSE(Info.FellBack);
  EXPECT_FALSE(Info.Scrubbed);
  EXPECT_EQ(abReadPayload(R), "gen3");
}

TEST_F(VfsTest, AbFallbackServesOlderSlotAndScrubsTheDamage) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  const std::string Base = "ckpt.snap";
  for (int I = 1; I <= 2; ++I) {
    SnapshotWriter W = makeSnapshot("gen" + std::to_string(I));
    ASSERT_TRUE(writeSnapshotAb(W, Base).ok());
  }

  // Find the newer slot and flip one payload byte — bit rot after a clean
  // write, the case a single snapshot file cannot survive.
  SnapshotReader Probe;
  AbSlotInfo Fresh;
  ASSERT_TRUE(openSnapshotAb(Probe, Base, &Fresh).ok());
  ASSERT_EQ(Fresh.Generation, 2u);
  Expected<std::vector<uint8_t>> Bytes = Fv.readFile(Fresh.LoadedPath);
  ASSERT_TRUE(Bytes.ok());
  (*Bytes)[Bytes->size() / 2] ^= 0x20;
  putFile(Fv, Fresh.LoadedPath, bytesToString(*Bytes));

  SnapshotReader R;
  AbSlotInfo Info;
  ASSERT_TRUE(openSnapshotAb(R, Base, &Info).ok());
  EXPECT_TRUE(Info.FellBack) << "the damaged newer slot must not serve";
  EXPECT_TRUE(Info.Scrubbed) << "the scrubber rewrites the damaged slot";
  EXPECT_EQ(Info.Generation, 1u);
  EXPECT_NE(Info.LoadedPath, Fresh.LoadedPath);
  EXPECT_EQ(abReadPayload(R), "gen1");

  // Redundancy is restored: the next open is clean, and the scrubbed slot
  // holds the good generation's bytes.
  SnapshotReader R2;
  AbSlotInfo Info2;
  ASSERT_TRUE(openSnapshotAb(R2, Base, &Info2).ok());
  EXPECT_FALSE(Info2.FellBack);
  EXPECT_FALSE(Info2.Scrubbed);
  EXPECT_EQ(abReadPayload(R2), "gen1");
}

TEST_F(VfsTest, AbMissingSlotIsRepairedOnOpen) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  const std::string Base = "ckpt.snap";
  for (int I = 1; I <= 2; ++I) {
    SnapshotWriter W = makeSnapshot("gen" + std::to_string(I));
    ASSERT_TRUE(writeSnapshotAb(W, Base).ok());
  }
  // Drop the OLDER slot (the newest lives in B after two writes: A then B).
  SnapshotReader Probe;
  AbSlotInfo Fresh;
  ASSERT_TRUE(openSnapshotAb(Probe, Base, &Fresh).ok());
  const std::string Older = Fresh.LoadedPath == snapshotSlotA(Base)
                                ? snapshotSlotB(Base)
                                : snapshotSlotA(Base);
  ASSERT_TRUE(Fv.unlink(Older).ok());

  SnapshotReader R;
  AbSlotInfo Info;
  ASSERT_TRUE(openSnapshotAb(R, Base, &Info).ok());
  EXPECT_FALSE(Info.FellBack) << "the newest slot is intact";
  EXPECT_TRUE(Info.Scrubbed) << "the missing slot is recreated";
  EXPECT_TRUE(Fv.exists(Older));
}

TEST_F(VfsTest, AbTornCheckpointWriteFallsBackToPreviousGeneration) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  const std::string Base = "ckpt.snap";
  SnapshotWriter W1 = makeSnapshot("good");
  ASSERT_TRUE(writeSnapshotAb(W1, Base).ok());

  // The second checkpoint's container write tears silently: success is
  // reported but only a prefix persists. The A/B scheme must keep serving
  // the previous generation and heal the torn slot.
  ASSERT_TRUE(faultInjector().armFromSpec("io-torn-write:1").ok());
  SnapshotWriter W2 = makeSnapshot("torn");
  (void)writeSnapshotAb(W2, Base); // May report success — that is the point.
  faultInjector().disarm();

  SnapshotReader R;
  AbSlotInfo Info;
  ASSERT_TRUE(openSnapshotAb(R, Base, &Info).ok());
  EXPECT_TRUE(Info.FellBack);
  EXPECT_TRUE(Info.Scrubbed);
  EXPECT_EQ(abReadPayload(R), "good");
}

TEST_F(VfsTest, AbBothSlotsDamagedIsAnError) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  const std::string Base = "ckpt.snap";
  for (int I = 1; I <= 2; ++I) {
    SnapshotWriter W = makeSnapshot("gen" + std::to_string(I));
    ASSERT_TRUE(writeSnapshotAb(W, Base).ok());
  }
  // Long enough to clear the header, so this is bad magic, not a torn tail.
  const std::string Garbage(256, 'X');
  putFile(Fv, snapshotSlotA(Base), Garbage);
  putFile(Fv, snapshotSlotB(Base), Garbage);

  SnapshotReader R;
  Status S = openSnapshotAb(R, Base);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Corrupt);
}

// writeSnapshotAb reads and validates both slots before it picks one.
// With generation 2 damaged, the next checkpoint must replace the damaged
// slot and leave generation 1, the newest good one, intact; a writer that
// skipped the probes and alternated slots would overwrite generation 1.
TEST_F(VfsTest, AbWriteProbesBothSlotsAndReplacesTheDamagedOne) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  const std::string Base = "ckpt.snap";
  for (int I = 1; I <= 2; ++I) {
    SnapshotWriter W = makeSnapshot("gen" + std::to_string(I));
    ASSERT_TRUE(writeSnapshotAb(W, Base).ok());
  }
  const std::string Gen1 = getFile(Fv, snapshotSlotA(Base));
  std::string Gen2 = getFile(Fv, snapshotSlotB(Base));
  ASSERT_FALSE(Gen1.empty());
  ASSERT_FALSE(Gen2.empty());
  Gen2[Gen2.size() / 2] ^= 0x20;
  putFile(Fv, snapshotSlotB(Base), Gen2);

  SnapshotWriter W3 = makeSnapshot("gen3");
  ASSERT_TRUE(writeSnapshotAb(W3, Base).ok());
  EXPECT_EQ(getFile(Fv, snapshotSlotA(Base)), Gen1)
      << "the newest good checkpoint must survive the next write";

  SnapshotReader R;
  AbSlotInfo Info;
  ASSERT_TRUE(openSnapshotAb(R, Base, &Info).ok());
  EXPECT_EQ(Info.LoadedPath, snapshotSlotB(Base));
  EXPECT_EQ(Info.Generation, 2u) << "one past the newest valid generation";
  EXPECT_FALSE(Info.FellBack);
  EXPECT_EQ(abReadPayload(R), "gen3");
}

// A failed chunk write fails the trace. io-short-write at the writer's
// second write hits the first chunk: for 20000 records a full chunk
// written mid-stream, for 100 records the only chunk, written by close().
// Either way close() fails and nothing appears at the final path.
TEST_F(VfsTest, TraceChunkShortWriteFailsCloseAndInstallsNothing) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  for (uint32_t Refs : {20000u, 100u}) {
    ASSERT_TRUE(faultInjector().armFromSpec("io-short-write:2").ok());
    TraceWriter W;
    ASSERT_TRUE(W.open("t.gct").ok()) << "write 1 is the header";
    for (uint32_t I = 0; I != Refs; ++I)
      W.onRef({0x1000 + 4 * I, AccessKind::Load, Phase::Mutator});
    EXPECT_EQ(W.status().ok(), Refs == 100u)
        << "a full chunk is written, and fails, before close()";
    Status S = W.close();
    ASSERT_FALSE(S.ok()) << Refs << " records";
    EXPECT_EQ(S.code(), StatusCode::IoError);
    EXPECT_NE(S.message().find("injected short write"), std::string::npos)
        << S.message();
    EXPECT_FALSE(Fv.exists("t.gct"));
    EXPECT_FALSE(Fv.exists("t.gct.tmp"));
    faultInjector().disarm();
  }
}

//===----------------------------------------------------------------------===//
// Truncate-at-every-byte rejection sweeps (torn tail, not corruption)
//===----------------------------------------------------------------------===//

TEST_F(VfsTest, TraceFileTruncatedAtEveryByteIsAlwaysTruncated) {
  // A small but representative trace: refs, an allocation, and a GC cycle,
  // so the sweep's cuts land inside every record shape plus the header and
  // the checksum footer.
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  {
    TraceWriter W;
    ASSERT_TRUE(W.open("t.gct").ok());
    for (Address A = 0; A != 8 * 8; A += 8)
      W.onRef({0x1000 + A, AccessKind::Load, Phase::Mutator});
    W.onAlloc(0x2000, 24);
    W.onGcBegin();
    W.onRef({0x2000, AccessKind::Store, Phase::Collector});
    W.onGcEnd();
    ASSERT_TRUE(W.close().ok());
  }
  Expected<std::vector<uint8_t>> GoodE = Fv.readFile("t.gct");
  ASSERT_TRUE(GoodE.ok());
  const std::vector<uint8_t> Good = *GoodE;
  ASSERT_GT(Good.size(), 30u);

  {
    TraceStream Full;
    ASSERT_TRUE(Full.openBuffer(Good).ok()) << "the untruncated file opens";
  }
  for (size_t Cut = 0; Cut != Good.size(); ++Cut) {
    TraceStream S;
    Status St =
        S.openBuffer(std::vector<uint8_t>(Good.begin(), Good.begin() + Cut));
    ASSERT_FALSE(St.ok()) << "prefix of " << Cut << " bytes opened";
    EXPECT_EQ(St.code(), StatusCode::Truncated)
        << "cut at " << Cut << ": a pure prefix must never classify as "
        << "Corrupt — got: " << St.message();
  }
}

TEST_F(VfsTest, SnapshotTruncatedAtEveryByteIsAlwaysTruncated) {
  SnapshotWriter W;
  W.beginSection("alpha");
  W.putU32(7);
  W.putString("payload");
  W.beginSection("beta");
  W.putU64(0x0123456789abcdefULL);
  W.putVecU64({1, 2, 3});
  const std::vector<uint8_t> Good = W.image();
  ASSERT_GT(Good.size(), 40u);

  {
    SnapshotReader R;
    ASSERT_TRUE(R.openBuffer(Good).ok()) << "the untruncated image opens";
    EXPECT_EQ(R.sectionCount(), 2u);
  }
  for (size_t Cut = 0; Cut != Good.size(); ++Cut) {
    SnapshotReader R;
    Status St =
        R.openBuffer(std::vector<uint8_t>(Good.begin(), Good.begin() + Cut));
    ASSERT_FALSE(St.ok()) << "prefix of " << Cut << " bytes opened";
    EXPECT_EQ(St.code(), StatusCode::Truncated)
        << "cut at " << Cut << ": a pure prefix must never classify as "
        << "Corrupt — got: " << St.message();
  }
}

//===----------------------------------------------------------------------===//
// RealVfs
//===----------------------------------------------------------------------===//

TEST_F(VfsTest, RealVfsRoundTripAndErrorsNamePathAndErrno) {
  RealVfs Rv;
  const std::string Dir = std::string(::testing::TempDir()) + "/vfs_rt";
  ASSERT_TRUE(Rv.mkdir(Dir).ok());
  ASSERT_TRUE(Rv.mkdir(Dir).ok()) << "existing dir is success";
  const std::string Path = Dir + "/file.txt";

  ASSERT_TRUE(Rv.writeFileAtomic(Path, "line1\n", 6).ok());
  EXPECT_FALSE(Rv.exists(Path + ".tmp")) << "no temporary survives";
  Expected<std::vector<uint8_t>> Bytes = Rv.readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  EXPECT_EQ(std::string(Bytes->begin(), Bytes->end()), "line1\n");

  Expected<std::vector<std::string>> L = Rv.list(Dir);
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(*L, (std::vector<std::string>{"file.txt"}));

  // Every failure names the operation, the path, and the errno text.
  const std::string Missing = Dir + "/does-not-exist";
  Expected<std::vector<uint8_t>> R = Rv.readFile(Missing);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::IoError);
  EXPECT_NE(R.status().message().find(Missing), std::string::npos)
      << R.status().message();
  EXPECT_NE(R.status().message().find("No such file"), std::string::npos)
      << R.status().message();

  ASSERT_TRUE(Rv.rename(Path, Dir + "/renamed.txt").ok());
  ASSERT_TRUE(Rv.unlink(Dir + "/renamed.txt").ok());
  EXPECT_FALSE(Rv.unlink(Dir + "/renamed.txt").ok());
}

} // namespace
