//===- Vfs.cpp - Virtual filesystem for durability I/O ---------------------===//

#include "gcache/support/Vfs.h"

#include "gcache/support/FaultInjector.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gcache;

VfsFile::~VfsFile() = default;
Vfs::~Vfs() = default;

//===----------------------------------------------------------------------===//
// Shared fault application
//===----------------------------------------------------------------------===//

namespace {

Status errnoFail(const char *Op, const std::string &Path) {
  return Status::failf(StatusCode::IoError, "%s '%s' failed: %s", Op,
                       Path.c_str(), std::strerror(errno));
}

/// What an injected storage fault turns one write into: how many bytes
/// actually reach the file, and what the caller is told. The short/torn
/// prefix is Len/2 — byte-granular (not block-aligned), so record and
/// section framing is torn mid-field.
struct WriteFault {
  size_t PersistLen;
  Status Result;
};

WriteFault applyWriteFaults(const char *Op, const std::string &Path,
                            size_t Len) {
  FaultInjector &FI = faultInjector();
  if (FI.shouldFire(FaultSite::IoEnospc))
    return {0, Status::failf(StatusCode::IoError,
                             "%s '%s' failed: injected ENOSPC "
                             "(no space left on device)",
                             Op, Path.c_str())};
  if (FI.shouldFire(FaultSite::IoEio))
    return {0, Status::failf(StatusCode::IoError,
                             "%s '%s' failed: injected EIO "
                             "(input/output error)",
                             Op, Path.c_str())};
  if (FI.shouldFire(FaultSite::IoShortWrite))
    return {Len / 2, Status::failf(StatusCode::IoError,
                                   "%s '%s' failed: injected short write "
                                   "(%zu of %zu bytes)",
                                   Op, Path.c_str(), Len / 2, Len)};
  if (FI.shouldFire(FaultSite::IoTornWrite))
    return {Len / 2, Status()}; // Silent tear: prefix lands, caller sees ok.
  return {Len, Status()};
}

/// One read's injected fault, if any (io-eio covers the read direction).
Status applyReadFaults(const char *Op, const std::string &Path) {
  if (faultInjector().shouldFire(FaultSite::IoEio))
    return Status::failf(StatusCode::IoError,
                         "%s '%s' failed: injected EIO (input/output error)",
                         Op, Path.c_str());
  return Status();
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol helpers
//===----------------------------------------------------------------------===//

Status Vfs::writeFileAtomic(const std::string &Path, const void *Data,
                            size_t Len) {
  std::string Tmp = Path + ".tmp";
  Expected<std::unique_ptr<VfsFile>> F = openWrite(Tmp);
  if (!F)
    return F.status();
  Status S;
  if (Len)
    S = (*F)->write(Data, Len);
  if (S)
    S = (*F)->sync();
  Status CloseS = (*F)->close();
  if (S)
    S = CloseS;
  if (S)
    S = rename(Tmp, Path);
  if (!S) {
    (void)unlink(Tmp); // Best effort; startup sweeps catch survivors.
    return S;
  }
  return Status();
}

//===----------------------------------------------------------------------===//
// Process-wide instance
//===----------------------------------------------------------------------===//

static Vfs *ProcessVfs = nullptr;

Vfs &gcache::vfs() {
  static RealVfs Real;
  return ProcessVfs ? *ProcessVfs : Real;
}

Vfs *gcache::setProcessVfs(Vfs *V) {
  Vfs *Prev = ProcessVfs;
  ProcessVfs = V;
  return Prev;
}

//===----------------------------------------------------------------------===//
// RealVfs
//===----------------------------------------------------------------------===//

namespace {

class RealFile final : public VfsFile {
public:
  RealFile(FILE *F, std::string Path) : F(F), Path(std::move(Path)) {}
  ~RealFile() override {
    if (F)
      std::fclose(F); // Last resort; checked closes go through close().
  }

  Status write(const void *Data, size_t Len) override {
    if (!F)
      return closedFail("write");
    WriteFault Fault = applyWriteFaults("write", Path, Len);
    if (Fault.PersistLen &&
        std::fwrite(Data, 1, Fault.PersistLen, F) != Fault.PersistLen)
      return errnoFail("write", Path);
    return Fault.Result;
  }

  Status writeAt(uint64_t Off, const void *Data, size_t Len) override {
    if (!F)
      return closedFail("write");
    WriteFault Fault = applyWriteFaults("write", Path, Len);
    // Switching a stdio stream between append and patch positions needs a
    // flush on either side of the seek.
    if (std::fflush(F) != 0)
      return errnoFail("flush", Path);
    long Save = std::ftell(F);
    if (Save < 0)
      return errnoFail("tell", Path);
    if (std::fseek(F, static_cast<long>(Off), SEEK_SET) != 0)
      return errnoFail("seek", Path);
    if (Fault.PersistLen &&
        std::fwrite(Data, 1, Fault.PersistLen, F) != Fault.PersistLen)
      return errnoFail("write", Path);
    if (std::fflush(F) != 0)
      return errnoFail("flush", Path);
    if (std::fseek(F, Save, SEEK_SET) != 0)
      return errnoFail("seek", Path);
    return Fault.Result;
  }

  Status sync() override {
    if (!F)
      return closedFail("fsync");
    if (std::fflush(F) != 0)
      return errnoFail("flush", Path);
    // A lying fsync on a real filesystem: report success without issuing
    // the flush. The loss is only observable under FaultVfs's power cut,
    // but counting the occurrence here keeps the census identical across
    // both implementations.
    if (faultInjector().shouldFire(FaultSite::IoFsyncLost))
      return Status();
    if (::fsync(fileno(F)) != 0)
      return errnoFail("fsync", Path);
    return Status();
  }

  Status close() override {
    if (!F)
      return Status();
    FILE *H = F;
    F = nullptr;
    if (std::fclose(H) != 0)
      return errnoFail("close", Path);
    return Status();
  }

private:
  Status closedFail(const char *Op) const {
    return Status::failf(StatusCode::IoError, "%s '%s' failed: file is closed",
                         Op, Path.c_str());
  }

  FILE *F;
  std::string Path;
};

} // namespace

Expected<std::unique_ptr<VfsFile>> RealVfs::openWrite(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return errnoFail("open for write", Path);
  return std::unique_ptr<VfsFile>(new RealFile(F, Path));
}

Expected<std::vector<uint8_t>> RealVfs::readFile(const std::string &Path) {
  if (Status S = applyReadFaults("read", Path); !S.ok())
    return S;
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return errnoFail("open for read", Path);
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    Status S = errnoFail("stat", Path);
    ::close(Fd);
    return S;
  }
  // One buffer of the size fstat reports, read into in place. The spare
  // byte lets end of file show without growing it; a file that grew since
  // the fstat is still read to its end.
  std::vector<uint8_t> Data(static_cast<size_t>(St.st_size) + 1);
  size_t Got = 0;
  for (;;) {
    if (Got == Data.size())
      Data.resize(2 * Data.size());
    ssize_t N = ::read(Fd, Data.data() + Got, Data.size() - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      Status S = errnoFail("read", Path);
      ::close(Fd);
      return S;
    }
    if (N == 0)
      break;
    Got += static_cast<size_t>(N);
  }
  ::close(Fd);
  Data.resize(Got);
  return Data;
}

bool RealVfs::exists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

Status RealVfs::rename(const std::string &From, const std::string &To) {
  if (std::rename(From.c_str(), To.c_str()) != 0)
    return Status::failf(StatusCode::IoError, "rename '%s' -> '%s' failed: %s",
                         From.c_str(), To.c_str(), std::strerror(errno));
  return Status();
}

Status RealVfs::unlink(const std::string &Path) {
  if (::unlink(Path.c_str()) != 0)
    return errnoFail("unlink", Path);
  return Status();
}

Expected<std::vector<std::string>> RealVfs::list(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return errnoFail("opendir", Dir);
  std::vector<std::string> Names;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name == "." || Name == "..")
      continue;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) == 0 && S_ISDIR(St.st_mode))
      continue;
    Names.push_back(std::move(Name));
  }
  ::closedir(D);
  std::sort(Names.begin(), Names.end());
  return Names;
}

Status RealVfs::mkdir(const std::string &Path) {
  if (::mkdir(Path.c_str(), 0777) != 0 && errno != EEXIST)
    return errnoFail("mkdir", Path);
  return Status();
}

//===----------------------------------------------------------------------===//
// FaultVfs
//===----------------------------------------------------------------------===//

void FaultVfs::noteMutation(const char *Op, const std::string &Path) {
  requirePower(Op, Path);
  ++Ops;
  if (CutAtOp && Ops == CutAtOp) {
    PowerLost = true;
    throwStatus(StatusCode::IoError,
                "simulated power cut at vfs op %llu (%s '%s')",
                static_cast<unsigned long long>(Ops), Op, Path.c_str());
  }
}

void FaultVfs::requirePower(const char *Op, const std::string &Path) const {
  if (PowerLost)
    throwStatus(StatusCode::IoError, "power is out: %s '%s' failed", Op,
                Path.c_str());
}

void FaultVfs::reboot() {
  PowerLost = false;
  CutAtOp = 0;
  ++Epoch; // Handles opened before the cut are dead.
  for (auto &[Path, St] : Files)
    St.Visible = St.Durable; // The page cache's unsynced bytes are gone.
}

void FaultVfs::syncAll() {
  for (auto &[Path, St] : Files)
    St.Durable = St.Visible;
}

FaultVfs::Image FaultVfs::durableImage() const {
  Image Out;
  for (const auto &[Path, St] : Files)
    Out[Path] = St.Durable;
  return Out;
}

void FaultVfs::restoreImage(const Image &Base) {
  Files.clear();
  for (const auto &[Path, Bytes] : Base) {
    FileState &St = Files[Path];
    St.Visible = Bytes;
    St.Durable = Bytes;
  }
  Ops = 0;
  CutAtOp = 0;
  PowerLost = false;
  ++Epoch;
}

class FaultVfs::MemFile final : public VfsFile {
public:
  MemFile(FaultVfs &FS, std::string Path)
      : FS(FS), Path(std::move(Path)), MyEpoch(FS.Epoch) {}

  Status write(const void *Data, size_t Len) override {
    if (Status S = checkLive("write"); !S.ok())
      return S;
    FS.noteMutation("write", Path);
    WriteFault Fault = applyWriteFaults("write", Path, Len);
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    std::vector<uint8_t> &V = FS.Files[Path].Visible;
    V.insert(V.end(), P, P + Fault.PersistLen);
    return Fault.Result;
  }

  Status writeAt(uint64_t Off, const void *Data, size_t Len) override {
    if (Status S = checkLive("write"); !S.ok())
      return S;
    FS.noteMutation("write-at", Path);
    std::vector<uint8_t> &V = FS.Files[Path].Visible;
    if (Off + Len > V.size())
      return Status::failf(StatusCode::IoError,
                           "write '%s' failed: patch of %zu bytes at offset "
                           "%llu exceeds the %zu bytes written",
                           Path.c_str(), Len, static_cast<unsigned long long>(Off),
                           V.size());
    WriteFault Fault = applyWriteFaults("write", Path, Len);
    std::memcpy(V.data() + Off, Data, Fault.PersistLen);
    return Fault.Result;
  }

  Status sync() override {
    if (Status S = checkLive("fsync"); !S.ok())
      return S;
    FS.noteMutation("fsync", Path);
    if (faultInjector().shouldFire(FaultSite::IoFsyncLost))
      return Status(); // The lying flush: no volatile->durable promotion.
    FileState &St = FS.Files[Path];
    St.Durable = St.Visible;
    return Status();
  }

  Status close() override {
    Closed = true;
    return Status();
  }

private:
  Status checkLive(const char *Op) const {
    if (Closed)
      return Status::failf(StatusCode::IoError,
                           "%s '%s' failed: file is closed", Op, Path.c_str());
    if (MyEpoch != FS.Epoch)
      return Status::failf(StatusCode::IoError,
                           "%s '%s' failed: handle predates a power cut", Op,
                           Path.c_str());
    return Status();
  }

  FaultVfs &FS;
  std::string Path;
  uint64_t MyEpoch;
  bool Closed = false;
};

Expected<std::unique_ptr<VfsFile>>
FaultVfs::openWrite(const std::string &Path) {
  noteMutation("create", Path);
  // Create/truncate is journaled metadata: the empty file is durable now.
  FileState &St = Files[Path];
  St.Visible.clear();
  St.Durable.clear();
  return std::unique_ptr<VfsFile>(new MemFile(*this, Path));
}

Expected<std::vector<uint8_t>> FaultVfs::readFile(const std::string &Path) {
  requirePower("read", Path);
  if (Status S = applyReadFaults("read", Path); !S.ok())
    return S;
  auto It = Files.find(Path);
  if (It == Files.end())
    return Status::failf(StatusCode::IoError,
                         "open for read '%s' failed: no such file",
                         Path.c_str());
  return It->second.Visible;
}

bool FaultVfs::exists(const std::string &Path) {
  requirePower("stat", Path);
  return Files.count(Path) != 0 || Dirs.count(Path) != 0;
}

Status FaultVfs::rename(const std::string &From, const std::string &To) {
  noteMutation("rename", From);
  auto It = Files.find(From);
  if (It == Files.end())
    return Status::failf(StatusCode::IoError,
                         "rename '%s' -> '%s' failed: no such file",
                         From.c_str(), To.c_str());
  // The name change is journaled and durable immediately; each byte keeps
  // whatever durability it had. Rename-before-fsync therefore leaves a
  // durable file holding only the synced prefix after a power cut — the
  // exact bug class this filesystem exists to expose.
  Files[To] = std::move(It->second);
  Files.erase(It);
  return Status();
}

Status FaultVfs::unlink(const std::string &Path) {
  noteMutation("unlink", Path);
  if (!Files.erase(Path))
    return Status::failf(StatusCode::IoError,
                         "unlink '%s' failed: no such file", Path.c_str());
  return Status();
}

Expected<std::vector<std::string>> FaultVfs::list(const std::string &Dir) {
  requirePower("list", Dir);
  std::string Prefix = Dir;
  if (!Prefix.empty() && Prefix.back() != '/')
    Prefix += '/';
  std::vector<std::string> Names;
  for (const auto &[Path, St] : Files) {
    if (Path.size() <= Prefix.size() || Path.compare(0, Prefix.size(), Prefix))
      continue;
    std::string Rest = Path.substr(Prefix.size());
    if (Rest.find('/') == std::string::npos)
      Names.push_back(std::move(Rest)); // std::map keeps these sorted.
  }
  return Names;
}

Status FaultVfs::mkdir(const std::string &Path) {
  noteMutation("mkdir", Path);
  Dirs[Path] = true;
  return Status();
}
