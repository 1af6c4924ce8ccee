//===- Options.cpp - Minimal command-line option parsing ------------------===//

#include "gcache/support/Options.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

extern char **environ;

using namespace gcache;

/// The environment variable that stands in for flag \p Name: GCACHE_ and
/// the name upper-cased, with '-' as '_'.
static std::string envName(const std::string &Name) {
  std::string Env = "GCACHE_";
  for (char C : Name)
    Env += static_cast<char>(C == '-' ? '_' : toupper(C));
  return Env;
}

Options Options::parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (!Arg.starts_with("--"))
      continue;
    Arg.remove_prefix(2);
    std::string Name(Arg), Value = "1";
    bool Bare = false;
    if (auto Eq = Arg.find('='); Eq != std::string_view::npos) {
      Name = Arg.substr(0, Eq);
      Value = Arg.substr(Eq + 1);
    } else if (I + 1 < Argc &&
               std::string_view(Argv[I + 1]).substr(0, 2) != "--") {
      // "--name value" when the next token is not itself a flag.
      Value = Argv[++I];
    } else {
      Bare = true;
    }
    O.Values[Name] = Value;
    if (Bare)
      O.Bare.insert(Name);
    else
      O.Bare.erase(Name);
  }
  return O;
}

std::string Options::get(const std::string &Name,
                         const std::string &Default) const {
  auto It = Values.find(Name);
  if (It != Values.end())
    return It->second;
  if (const char *V = std::getenv(envName(Name).c_str()))
    return V;
  return Default;
}

bool Options::has(const std::string &Name) const {
  return !get(Name, "").empty();
}

std::vector<std::string>
Options::unknownFlags(const std::vector<std::string> &Known) const {
  std::vector<std::string> Unknown;
  for (const auto &[Name, Value] : Values) {
    bool Found = false;
    for (const std::string &K : Known)
      Found = Found || K == Name;
    if (!Found)
      Unknown.push_back(Name);
  }
  return Unknown;
}

std::vector<std::string>
Options::unknownEnvFlags(const std::vector<std::string> &Known) {
  std::vector<std::string> Unknown;
  for (char **E = environ; E && *E; ++E) {
    if (std::strncmp(*E, "GCACHE_", 7) != 0)
      continue;
    std::string Var(*E, std::strcspn(*E, "="));
    bool Found = false;
    for (const std::string &K : Known)
      Found = Found || envName(K) == Var;
    if (!Found)
      Unknown.push_back(Var);
  }
  return Unknown;
}

void Options::exitOnUnknown(const std::vector<std::string> &Known,
                            const std::string &Usage,
                            const std::vector<std::string> &EnvOnly) const {
  std::vector<std::string> EnvKnown = Known;
  EnvKnown.insert(EnvKnown.end(), EnvOnly.begin(), EnvOnly.end());
  std::vector<std::string> Unknown = unknownFlags(Known);
  std::vector<std::string> UnknownEnv = unknownEnvFlags(EnvKnown);
  if (Unknown.empty() && UnknownEnv.empty())
    return;
  for (const std::string &F : Unknown)
    std::fprintf(stderr, "error: unknown flag --%s\n", F.c_str());
  for (const std::string &V : UnknownEnv)
    std::fprintf(stderr, "error: unknown environment variable %s\n",
                 V.c_str());
  std::fprintf(stderr, "%s\n", Usage.c_str());
  std::exit(2);
}

bool Options::givenEmpty(const std::string &Name) const {
  auto It = Values.find(Name);
  return It != Values.end() && It->second.empty();
}

Expected<std::string> Options::getStrict(const std::string &Name,
                                         const std::string &Default) const {
  if (isBare(Name) || givenEmpty(Name))
    return Status::failf(StatusCode::InvalidArgument, "--%s needs a value",
                         Name.c_str());
  return get(Name, Default);
}

Expected<unsigned> Options::getStrictUnsigned(const std::string &Name,
                                              unsigned Default) const {
  Expected<std::string> Text = getStrict(Name, "");
  if (!Text)
    return Text.status();
  const std::string &V = *Text;
  if (V.empty())
    return Default;
  char *End = nullptr;
  errno = 0;
  long Parsed = std::strtol(V.c_str(), &End, 10);
  if (End == V.c_str() || *End != '\0' || errno == ERANGE || Parsed < 0 ||
      Parsed > static_cast<long>(~0u))
    return Status::failf(StatusCode::InvalidArgument,
                         "--%s expects a non-negative integer, got '%s'",
                         Name.c_str(), V.c_str());
  return static_cast<unsigned>(Parsed);
}

Expected<double> Options::getStrictDouble(const std::string &Name,
                                          double Default) const {
  Expected<std::string> Text = getStrict(Name, "");
  if (!Text)
    return Text.status();
  const std::string &V = *Text;
  if (V.empty())
    return Default;
  char *End = nullptr;
  errno = 0;
  double Parsed = std::strtod(V.c_str(), &End);
  if (End == V.c_str() || *End != '\0' || errno == ERANGE)
    return Status::failf(StatusCode::InvalidArgument,
                         "--%s expects a number, got '%s'", Name.c_str(),
                         V.c_str());
  return Parsed;
}

Expected<double> Options::getStrictPositiveDouble(const std::string &Name,
                                                  double Default) const {
  Expected<double> V = getStrictDouble(Name, Default);
  if (V && !(*V > 0 && std::isfinite(*V)))
    return Status::failf(StatusCode::InvalidArgument,
                         "--%s expects a positive finite number, got '%s'",
                         Name.c_str(), get(Name, "").c_str());
  return V;
}

Expected<bool> Options::getStrictBool(const std::string &Name,
                                      bool Default) const {
  std::string V = get(Name, "");
  if (V.empty() && !givenEmpty(Name))
    return Default;
  if (V == "1" || V == "true")
    return true;
  if (V == "0" || V == "false")
    return false;
  return Status::failf(StatusCode::InvalidArgument,
                       "--%s takes no value, 1/true or 0/false, got '%s'",
                       Name.c_str(), V.c_str());
}
