//===- TestMain.cpp - gtest main with a private temp directory --------------===//
//
// The main() of every test binary, linked in place of gtest_main. ctest
// runs each test as its own process, and the tests of one binary write
// fixed file names under ::testing::TempDir(), so two of them running at
// once would clobber each other's files. Each process therefore makes its
// own directory with mkdtemp, points TEST_TMPDIR (which TempDir() reads)
// at it, and removes it once the tests have run.
//
// The directory goes under TEST_TMPDIR when that is set. Otherwise it
// goes in /dev/shm when that is a writable directory, since the
// checkpoint tests fsync every cut and a disk-backed temp dir can make
// them take minutes; failing both, it goes where TempDir() points.
//
// Forked children inherit the directory with the environment. A
// threadsafe death test re-executes the binary with
// --gtest_internal_run_death_test; that child keeps its parent's
// directory instead of making one of its own.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace {

bool isDeathTestChild(int Argc, char **Argv) {
  const char Flag[] = "--gtest_internal_run_death_test";
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], Flag, sizeof(Flag) - 1) == 0)
      return true;
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Dir;
  if (!isDeathTestChild(Argc, Argv)) {
    std::string Base = ::testing::TempDir();
    if (!std::getenv("TEST_TMPDIR") && access("/dev/shm", W_OK | X_OK) == 0 &&
        std::filesystem::is_directory("/dev/shm"))
      Base = "/dev/shm/";
    std::string Template = Base + "gcache-test.XXXXXX";
    if (!mkdtemp(Template.data())) {
      std::perror(("mkdtemp " + Template).c_str());
      return 1;
    }
    Dir = Template;
    setenv("TEST_TMPDIR", Dir.c_str(), /*overwrite=*/1);
  }
  ::testing::InitGoogleTest(&Argc, Argv);
  int Rc = RUN_ALL_TESTS();
  if (!Dir.empty()) {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  return Rc;
}
