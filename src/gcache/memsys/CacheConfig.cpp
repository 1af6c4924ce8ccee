//===- CacheConfig.cpp - Cache geometry and policies -----------------------===//

#include "gcache/memsys/CacheConfig.h"
#include "gcache/support/Table.h"

using namespace gcache;

std::string CacheConfig::label() const {
  std::string S = fmtSize(SizeBytes) + "/" + fmtSize(BlockBytes);
  S += Ways == 1 ? "/direct" : ("/" + std::to_string(Ways) + "way");
  S += WriteMiss == WriteMissPolicy::WriteValidate ? "/wv" : "/fow";
  return S;
}

std::vector<uint32_t> gcache::paperCacheSizes() {
  return {32u << 10, 64u << 10, 128u << 10, 256u << 10,
          512u << 10, 1u << 20,  2u << 20,   4u << 20};
}

std::vector<uint32_t> gcache::paperBlockSizes() {
  return {16, 32, 64, 128, 256};
}
