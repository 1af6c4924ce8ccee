//===- Vfs.h - Virtual filesystem for durability I/O ------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual filesystem every durability path writes through. Snapshots,
/// trace files, checkpoint slots, and bench output files all proved their
/// crash-safety claims against a perfect filesystem; this layer makes the
/// filesystem itself an adversary that tests can control deterministically.
///
/// Two implementations:
///
///  - RealVfs: thin stdio/POSIX wrapper. Every error Status carries the
///    operation, the offending path, and the errno text.
///
///  - FaultVfs: a fully in-memory filesystem that models the *page cache*:
///    every file has volatile content (what reads observe now) and durable
///    content (what survives a power cut — the bytes present at the last
///    fsync). Namespace operations (create, truncate, rename, unlink) are
///    journaled metadata and durable immediately, matching an
///    ordered-journal filesystem; file *data* is durable only up to the
///    last sync. A simulated power cut at any mutating operation therefore
///    exposes any missing-fsync bug in the atomic tmp+fsync+rename
///    protocol: the rename survives, the unsynced bytes do not.
///
/// Both implementations host the storage fault sites of the injector
/// grammar (support/FaultInjector.h):
///
///   io-short-write  write() persists a byte-granular prefix and reports
///                   the failure (EINTR-style partial write).
///   io-torn-write   write() persists a prefix but reports *success* —
///                   silent sector-level tearing, detectable only by
///                   CRC validation or a crash-recovery read-back.
///   io-eio          the read or write fails with an I/O error.
///   io-enospc       the write fails with no-space; no bytes persist.
///   io-fsync-lost   fsync reports success without making the volatile
///                   bytes durable (a lying flush; FaultVfs only — on a
///                   real filesystem the loss is unobservable without a
///                   power cut).
///
/// The process-wide instance is vfs(); tests swap in a FaultVfs via
/// ScopedVfs. /proc reads stay on raw POSIX: the Vfs owns *durable
/// artifacts*, not transports.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_VFS_H
#define GCACHE_SUPPORT_VFS_H

#include "gcache/support/Status.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gcache {

/// A streaming write handle. write() appends at the current position;
/// writeAt() patches previously written bytes (the trace header's record
/// count). close() must be checked — buffered stdio reports short writes
/// there — and the destructor closes unchecked as a last resort.
class VfsFile {
public:
  virtual ~VfsFile();

  virtual Status write(const void *Data, size_t Len) = 0;
  /// Overwrites \p Len bytes at absolute offset \p Off (must be within the
  /// bytes already written); the append position is unaffected.
  virtual Status writeAt(uint64_t Off, const void *Data, size_t Len) = 0;
  /// Flushes user-space buffers and asks the OS to make the bytes durable
  /// (fflush + fsync). Under FaultVfs this is the volatile->durable
  /// promotion a power cut tests for.
  virtual Status sync() = 0;
  virtual Status close() = 0;
};

/// The durability-I/O interface. Paths are plain strings; directories are
/// only ever listed shallowly (the checkpoint dir sweep).
class Vfs {
public:
  virtual ~Vfs();

  /// Creates/truncates \p Path for writing.
  virtual Expected<std::unique_ptr<VfsFile>>
  openWrite(const std::string &Path) = 0;
  /// Reads the whole file.
  virtual Expected<std::vector<uint8_t>> readFile(const std::string &Path) = 0;
  virtual bool exists(const std::string &Path) = 0;
  /// Atomic rename; replaces any existing file at \p To.
  virtual Status rename(const std::string &From, const std::string &To) = 0;
  /// Removes a file. Removing a missing file is an error (callers that
  /// treat it as cleanup ignore the status).
  virtual Status unlink(const std::string &Path) = 0;
  /// Shallow listing of the *file* names in \p Dir (no subdirectories, no
  /// "."/".."), sorted for determinism.
  virtual Expected<std::vector<std::string>> list(const std::string &Dir) = 0;
  /// Creates a directory; an existing one is success.
  virtual Status mkdir(const std::string &Path) = 0;

  //===--------------------------------------------------------------------===//
  // Protocol helpers built on the primitives above (shared by both
  // implementations so every caller gets the identical durability
  // discipline).
  //===--------------------------------------------------------------------===//

  /// The atomic durable write: `<path>.tmp`, write, fsync, rename onto
  /// \p Path. On any failure the temporary is removed and \p Path is left
  /// untouched (old content or absent).
  Status writeFileAtomic(const std::string &Path, const void *Data,
                         size_t Len);
};

/// The process-wide Vfs every durability path consults. Defaults to a
/// RealVfs singleton.
Vfs &vfs();

/// Installs \p V as the process Vfs (nullptr restores the RealVfs).
/// Returns the previous override. Not thread-safe against concurrent I/O;
/// install before spawning workers.
Vfs *setProcessVfs(Vfs *V);

/// RAII installer for tests and the crash-sweep harness.
class ScopedVfs {
public:
  explicit ScopedVfs(Vfs &V) : Prev(setProcessVfs(&V)) {}
  ~ScopedVfs() { setProcessVfs(Prev); }
  ScopedVfs(const ScopedVfs &) = delete;
  ScopedVfs &operator=(const ScopedVfs &) = delete;

private:
  Vfs *Prev;
};

/// The production implementation over stdio/POSIX.
class RealVfs final : public Vfs {
public:
  Expected<std::unique_ptr<VfsFile>> openWrite(const std::string &Path) override;
  Expected<std::vector<uint8_t>> readFile(const std::string &Path) override;
  bool exists(const std::string &Path) override;
  Status rename(const std::string &From, const std::string &To) override;
  Status unlink(const std::string &Path) override;
  Expected<std::vector<std::string>> list(const std::string &Dir) override;
  Status mkdir(const std::string &Path) override;
};

/// Deterministic in-memory filesystem with a page-cache model and a
/// schedulable power cut. Single-threaded by design: the crash sweep and
/// the Vfs tests drive serial replays.
class FaultVfs final : public Vfs {
public:
  /// The durable image: path -> synced content. What a power cut preserves
  /// and what restoreImage() resets to.
  using Image = std::map<std::string, std::vector<uint8_t>>;

  Expected<std::unique_ptr<VfsFile>> openWrite(const std::string &Path) override;
  Expected<std::vector<uint8_t>> readFile(const std::string &Path) override;
  bool exists(const std::string &Path) override;
  Status rename(const std::string &From, const std::string &To) override;
  Status unlink(const std::string &Path) override;
  Expected<std::vector<std::string>> list(const std::string &Dir) override;
  Status mkdir(const std::string &Path) override;

  //===--------------------------------------------------------------------===//
  // Power-loss simulation
  //===--------------------------------------------------------------------===//

  /// Mutating operations executed so far (create/truncate, write, writeAt,
  /// sync, rename, unlink). The crash sweep's iteration space: cutting at
  /// every index in [1, mutatingOps()] covers every durable-state
  /// transition window.
  uint64_t mutatingOps() const { return Ops; }

  /// Arms a power cut: mutating operation number \p AtOp (1-based) does
  /// not execute; instead the power fails — the operation and everything
  /// after it throws StatusError(IoError) and powerLost() latches. 0
  /// disarms.
  void armPowerCut(uint64_t AtOp) { CutAtOp = AtOp; }
  bool powerLost() const { return PowerLost; }

  /// Power restored after a cut: every file's volatile bytes are dropped
  /// (content reverts to the last-synced prefix), open handles are dead,
  /// and I/O works again. The mutating-op counter keeps counting.
  void reboot();

  /// Promotes every file's volatile content to durable (the setup step
  /// that makes a freshly written base image crash-proof).
  void syncAll();

  /// Copies of the durable state (path -> synced bytes).
  Image durableImage() const;
  /// Resets the filesystem to \p Base: durable == volatile == Base, power
  /// on, op counter and power-cut plan cleared.
  void restoreImage(const Image &Base);

private:
  struct FileState {
    std::vector<uint8_t> Visible; ///< What reads observe.
    std::vector<uint8_t> Durable; ///< What a power cut preserves.
  };

  class MemFile;
  friend class MemFile;

  /// Counts one mutating operation, firing the armed power cut. Throws
  /// StatusError(IoError) when the power is (or just went) out.
  void noteMutation(const char *Op, const std::string &Path);
  void requirePower(const char *Op, const std::string &Path) const;

  std::map<std::string, FileState> Files;
  std::map<std::string, bool> Dirs; ///< mkdir'd paths (existence only).
  uint64_t Ops = 0;
  uint64_t CutAtOp = 0;
  uint64_t Epoch = 0; ///< Bumped by reboot()/restoreImage(); stale handles die.
  bool PowerLost = false;
};

} // namespace gcache

#endif // GCACHE_SUPPORT_VFS_H
