//===- Table.h - Paper-style ASCII table and CSV output ---------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small table formatter used by every bench binary to print the rows and
/// series the paper reports. Columns are right-aligned; the first column is
/// left-aligned (row labels). Also supports CSV emission so the same data
/// can be re-plotted.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_TABLE_H
#define GCACHE_SUPPORT_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace gcache {

/// Accumulates rows of strings and renders them as an aligned ASCII table
/// or as CSV.
class Table {
public:
  explicit Table(std::vector<std::string> Header);

  /// Appends one row; it must have exactly as many cells as the header.
  void addRow(std::vector<std::string> Row);

  /// Renders the table with aligned columns and a rule under the header.
  std::string toString() const;

  /// Renders the table as CSV (no quoting; cells must not contain commas).
  std::string toCsv() const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

/// Formats \p Value with \p Digits fractional digits ("3.142").
std::string fmtDouble(double Value, int Digits = 3);

/// Formats \p Value as a percentage with \p Digits fractional digits
/// ("4.97%"). \p Value is a ratio (0.0497 -> "4.97%").
std::string fmtPercent(double Value, int Digits = 2);

/// Formats a byte count with a power-of-two unit suffix ("64kb", "4mb"),
/// matching the paper's axis labels.
std::string fmtSize(uint64_t Bytes);

/// Formats a large count in engineering style ("3.68e9") as in the paper's
/// program table.
std::string fmtCount(uint64_t Count);

} // namespace gcache

#endif // GCACHE_SUPPORT_TABLE_H
