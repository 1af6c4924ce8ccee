//===- MissPlot.cpp - Time x cache-block miss plots --------------------------===//

#include "gcache/analysis/MissPlot.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace gcache;

MissPlot::MissPlot(const CacheConfig &Config, uint32_t RefsPerColumn)
    : Sim(Config), RefsPerColumn(RefsPerColumn),
      NumBlocks(Config.numSets()), WordsPerColumn((NumBlocks + 63) / 64) {
  assert(RefsPerColumn > 0 && "need a positive time bucket");
}

void MissPlot::onRef(const Ref &R) {
  AccessResult Res = Sim.access(R);
  if (ColumnRefsLeft == 0) {
    Bits.resize(Bits.size() + WordsPerColumn);
    ++Columns;
    ColumnRefsLeft = RefsPerColumn;
  }
  --ColumnRefsLeft;
  if (Res != AccessResult::Hit) {
    uint32_t B = Sim.setIndexOf(R.Addr);
    Bits[Bits.size() - WordsPerColumn + B / 64] |= 1ull << (B % 64);
  }
}

void MissPlot::onRefs(const RefSpan &S) {
  for (size_t I = 0; I != S.size(); ++I)
    onRef(S[I]);
}

bool MissPlot::missedAt(uint64_t Column, uint32_t Block) const {
  if (Column >= Columns || Block >= NumBlocks)
    return false;
  return bit(Column, Block);
}

std::string MissPlot::renderAscii(uint32_t MaxCols, uint32_t MaxRows) const {
  if (Columns == 0)
    return "";
  uint32_t Cols = std::min<uint64_t>(MaxCols, Columns);
  uint32_t Rows = std::min(MaxRows, NumBlocks);
  std::string Out;
  Out.reserve(static_cast<size_t>(Rows) * (Cols + 1));
  for (uint32_t R = 0; R != Rows; ++R) {
    uint32_t B0 = R * NumBlocks / Rows;
    uint32_t B1 = (R + 1) * NumBlocks / Rows;
    for (uint32_t C = 0; C != Cols; ++C) {
      uint64_t T0 = static_cast<uint64_t>(C) * Columns / Cols;
      uint64_t T1 = static_cast<uint64_t>(C + 1) * Columns / Cols;
      bool Hit = false;
      for (uint64_t T = T0; T != T1 && !Hit; ++T)
        for (uint32_t B = B0; B != B1 && !Hit; ++B)
          Hit = bit(T, B);
      Out += Hit ? '*' : '.';
    }
    Out += '\n';
  }
  return Out;
}

std::string MissPlot::renderPgm() const {
  std::string Out = "P5\n" + std::to_string(Columns) + " " +
                    std::to_string(NumBlocks) + "\n255\n";
  const size_t Header = Out.size();
  // Rows are cache blocks and columns are time: every pixel starts white,
  // and each set bit blackens its (block, column) pixel.
  Out.resize(Header + Columns * NumBlocks, static_cast<char>(255));
  char *Pixels = Out.data() + Header;
  for (uint64_t C = 0; C != Columns; ++C)
    for (uint32_t W = 0; W != WordsPerColumn; ++W)
      for (uint64_t Word = Bits[C * WordsPerColumn + W]; Word;
           Word &= Word - 1)
        Pixels[(W * 64 + std::countr_zero(Word)) * Columns + C] = 0;
  return Out;
}

double MissPlot::fillFraction() const {
  if (Columns == 0)
    return 0.0;
  uint64_t Set = 0;
  for (uint64_t Word : Bits)
    Set += std::popcount(Word);
  return static_cast<double>(Set) /
         (static_cast<double>(Columns) * NumBlocks);
}
