//===- Options.h - Minimal command-line option parsing ----------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiny flag parser shared by the bench and example binaries. Supports
/// "--name value", "--name=value", and bare "--name" booleans, plus an
/// environment-variable fallback so `GCACHE_SCALE=2 bench/...` works for a
/// whole sweep without editing command lines.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_OPTIONS_H
#define GCACHE_SUPPORT_OPTIONS_H

#include "gcache/support/Status.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gcache {

/// Parsed command-line flags with typed accessors and env fallbacks.
class Options {
public:
  /// Parses argv; flags are collected verbatim, so each binary declares
  /// the flags it reads and then rejects the rest via unknownFlags().
  static Options parse(int Argc, char **Argv);

  /// Flags present on the command line that are not in \p Known. Binaries
  /// call this after parse() and exit nonzero when it is non-empty, so a
  /// typo like --thread never silently runs with defaults.
  std::vector<std::string>
  unknownFlags(const std::vector<std::string> &Known) const;

  /// GCACHE_* environment variables, by full name, that stand in for no
  /// flag in \p Known. A misspelt or retired variable would otherwise be
  /// ignored without a word, so binaries reject these like unknown flags.
  static std::vector<std::string>
  unknownEnvFlags(const std::vector<std::string> &Known);

  /// Exits 2 when the command line holds a flag not in \p Known, or a
  /// GCACHE_* variable stands in for no name in \p Known or \p EnvOnly
  /// (names read only from the environment, e.g. "fault" for
  /// FaultInjector::armFromEnv). Each is named on stderr, then the line
  /// \p Usage. Returns when there is none.
  void exitOnUnknown(const std::vector<std::string> &Known,
                     const std::string &Usage,
                     const std::vector<std::string> &EnvOnly = {}) const;

  /// Returns the flag value, or the GCACHE_<NAME> environment variable, or
  /// \p Default. A bare flag reads as "1".
  std::string get(const std::string &Name, const std::string &Default) const;

  bool has(const std::string &Name) const;
  /// True if \p Name was given on the command line with no value (stored
  /// as "1").
  bool isBare(const std::string &Name) const {
    return Bare.count(Name) != 0;
  }

  //===--- Strict accessors ------------------------------------------------===//
  // Every flag that takes a value is read through these. A bare flag is
  // InvalidArgument ("--X needs a value"): get() would read it as "1", a
  // batch of one reference or a checkpoint directory named "1". So is an
  // empty value (--scale=), which get() reads as absent. Numeric
  // values must parse in full. A flag whose bare form means something
  // (--paranoid) checks isBare() or reads get(); a boolean reads
  // getStrictBool().

  /// The flag (or env) value; InvalidArgument if the flag is bare.
  Expected<std::string> getStrict(const std::string &Name,
                                  const std::string &Default) const;

  /// The flag (or env) value parsed as a full unsigned decimal integer;
  /// InvalidArgument if bare, malformed or negative.
  Expected<unsigned> getStrictUnsigned(const std::string &Name,
                                       unsigned Default) const;

  /// The flag (or env) value parsed as a full floating-point number;
  /// InvalidArgument if bare or malformed.
  Expected<double> getStrictDouble(const std::string &Name,
                                   double Default) const;

  /// As getStrictDouble, but the value must also be positive and finite
  /// (a scale of 0, -1 or inf would run and print nonsense).
  Expected<double> getStrictPositiveDouble(const std::string &Name,
                                           double Default) const;

  /// A boolean flag (or env): absent reads \p Default; bare, "1" or
  /// "true" read true; "0" or "false" read false. Anything else, empty
  /// included, is InvalidArgument, so --csv=maybe is refused, not read as
  /// true.
  Expected<bool> getStrictBool(const std::string &Name, bool Default) const;

private:
  /// True if \p Name was given on the command line as "--name=".
  bool givenEmpty(const std::string &Name) const;

  std::map<std::string, std::string> Values;
  std::set<std::string> Bare;
};

} // namespace gcache

#endif // GCACHE_SUPPORT_OPTIONS_H
