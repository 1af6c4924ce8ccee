//===- MissPlot.cpp - Time x cache-block miss plots --------------------------===//

#include "gcache/analysis/MissPlot.h"

#include <algorithm>
#include <cassert>

using namespace gcache;

MissPlot::MissPlot(const CacheConfig &Config, uint32_t RefsPerColumn)
    : Sim(Config), RefsPerColumn(RefsPerColumn),
      NumBlocks(Config.numSets()) {
  assert(RefsPerColumn > 0 && "need a positive time bucket");
}

std::vector<uint8_t> &MissPlot::currentColumn() {
  uint64_t Col = RefsSeen / RefsPerColumn;
  while (Columns.size() <= Col)
    Columns.emplace_back(NumBlocks, 0);
  return Columns[Col];
}

void MissPlot::onRef(const Ref &R) {
  AccessResult Res = Sim.access(R);
  if (Res != AccessResult::Hit)
    currentColumn()[Sim.setIndexOf(R.Addr)] = 1;
  ++RefsSeen;
}

bool MissPlot::missedAt(uint64_t Column, uint32_t Block) const {
  if (Column >= Columns.size() || Block >= NumBlocks)
    return false;
  return Columns[Column][Block] != 0;
}

std::string MissPlot::renderAscii(uint32_t MaxCols, uint32_t MaxRows) const {
  if (Columns.empty())
    return "";
  uint32_t Cols = std::min<uint64_t>(MaxCols, Columns.size());
  uint32_t Rows = std::min(MaxRows, NumBlocks);
  std::string Out;
  Out.reserve(static_cast<size_t>(Rows) * (Cols + 1));
  for (uint32_t R = 0; R != Rows; ++R) {
    uint32_t B0 = R * NumBlocks / Rows;
    uint32_t B1 = (R + 1) * NumBlocks / Rows;
    for (uint32_t C = 0; C != Cols; ++C) {
      uint64_t T0 = static_cast<uint64_t>(C) * Columns.size() / Cols;
      uint64_t T1 = static_cast<uint64_t>(C + 1) * Columns.size() / Cols;
      bool Hit = false;
      for (uint64_t T = T0; T != T1 && !Hit; ++T)
        for (uint32_t B = B0; B != B1 && !Hit; ++B)
          Hit = Columns[T][B] != 0;
      Out += Hit ? '*' : '.';
    }
    Out += '\n';
  }
  return Out;
}

std::string MissPlot::renderPgm() const {
  std::string Out = "P5\n" + std::to_string(Columns.size()) + " " +
                    std::to_string(NumBlocks) + "\n255\n";
  for (uint32_t B = 0; B != NumBlocks; ++B)
    for (const auto &Col : Columns)
      Out += static_cast<char>(Col[B] ? 0 : 255);
  return Out;
}

double MissPlot::fillFraction() const {
  if (Columns.empty())
    return 0.0;
  uint64_t Set = 0;
  for (const auto &Col : Columns)
    for (uint8_t B : Col)
      Set += B;
  return static_cast<double>(Set) /
         (static_cast<double>(Columns.size()) * NumBlocks);
}
