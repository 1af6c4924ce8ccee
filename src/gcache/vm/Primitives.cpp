//===- Primitives.cpp - Built-in procedures ----------------------------------===//

#include "gcache/vm/Primitives.h"

#include "gcache/vm/VM.h"

#include <cmath>

using namespace gcache;

namespace {

//===----------------------------------------------------------------------===//
// Numeric helpers
//===----------------------------------------------------------------------===//

bool isNumber(VM &M, Value V) {
  return V.isFixnum() || isFlonum(M.heap(), V);
}

double toDouble(VM &M, Value V, const char *Who) {
  if (V.isFixnum())
    return static_cast<double>(V.asFixnum());
  if (isFlonum(M.heap(), V))
    return flonumValue(M.heap(), V);
  vmFatal("%s: not a number: %s", Who,
          M.valueToString(V, /*WriteStyle=*/true).c_str());
}

int32_t toFixnum(VM &M, Value V, const char *Who) {
  if (!V.isFixnum())
    vmFatal("%s: not a fixnum: %s", Who,
            M.valueToString(V, /*WriteStyle=*/true).c_str());
  return V.asFixnum();
}

/// Wraps an int64 result as a fixnum, or a flonum when out of range.
Value makeInteger(VM &M, int64_t V) {
  if (V >= Value::MinFixnum && V <= Value::MaxFixnum)
    return Value::fixnum(static_cast<int32_t>(V));
  return makeFlonum(M.heap(), M.objectAllocator(), static_cast<double>(V));
}

Value makeReal(VM &M, double D) {
  return makeFlonum(M.heap(), M.objectAllocator(), D);
}

/// Variadic arithmetic fold. Reads all arguments into host numbers before
/// any allocation, so the single trailing flonum allocation is GC-safe.
template <typename FixOp, typename RealOp>
Value arithFold(VM &M, uint32_t Argc, int64_t IdFix, FixOp FOp, RealOp ROp,
                const char *Who, bool NeedOne) {
  if (NeedOne && Argc == 0)
    vmFatal("%s: needs at least one argument", Who);
  bool Real = false;
  int64_t AccI = IdFix;
  double AccD = static_cast<double>(IdFix);
  for (uint32_t I = 0; I != Argc; ++I) {
    Value V = M.primArg(I, Argc);
    if (I == 0 && Argc > 1 && NeedOne) {
      // Fold from the first argument for - and /.
      if (V.isFixnum()) {
        AccI = V.asFixnum();
        AccD = AccI;
      } else {
        Real = true;
        AccD = toDouble(M, V, Who);
      }
      continue;
    }
    if (!Real && V.isFixnum()) {
      int64_t X = V.asFixnum();
      int64_t Next = FOp(AccI, X);
      // Promote on fixnum overflow.
      if (Next > Value::MaxFixnum || Next < Value::MinFixnum) {
        Real = true;
        AccD = ROp(static_cast<double>(AccI), static_cast<double>(X));
      } else {
        AccI = Next;
        AccD = static_cast<double>(Next);
      }
      continue;
    }
    Real = true;
    AccD = ROp(AccD, toDouble(M, V, Who));
  }
  if (Real)
    return makeReal(M, AccD);
  return Value::fixnum(static_cast<int32_t>(AccI));
}

Value primAdd(VM &M, uint32_t Argc) {
  return arithFold(M, Argc, 0, [](int64_t A, int64_t B) { return A + B; },
                   [](double A, double B) { return A + B; }, "+", false);
}

Value primMul(VM &M, uint32_t Argc) {
  return arithFold(M, Argc, 1, [](int64_t A, int64_t B) { return A * B; },
                   [](double A, double B) { return A * B; }, "*", false);
}

Value primSub(VM &M, uint32_t Argc) {
  if (Argc == 1) {
    Value V = M.primArg(0, Argc);
    if (V.isFixnum())
      return makeInteger(M, -static_cast<int64_t>(V.asFixnum()));
    return makeReal(M, -toDouble(M, V, "-"));
  }
  return arithFold(M, Argc, 0, [](int64_t A, int64_t B) { return A - B; },
                   [](double A, double B) { return A - B; }, "-", true);
}

Value primDiv(VM &M, uint32_t Argc) {
  // (/ x): reciprocal. (/ a b ...): successive division; exact when the
  // operands are fixnums that divide evenly.
  if (Argc == 1) {
    double D = toDouble(M, M.primArg(0, Argc), "/");
    if (D == 0)
      vmFatal("/: division by zero");
    return makeReal(M, 1.0 / D);
  }
  Value First = M.primArg(0, Argc);
  bool Exact = First.isFixnum();
  int64_t AccI = Exact ? First.asFixnum() : 0;
  double AccD = toDouble(M, First, "/");
  for (uint32_t I = 1; I != Argc; ++I) {
    Value V = M.primArg(I, Argc);
    if (Exact && V.isFixnum()) {
      int64_t X = V.asFixnum();
      if (X == 0)
        vmFatal("/: division by zero");
      if (AccI % X == 0) {
        AccI /= X;
        AccD = static_cast<double>(AccI);
        continue;
      }
      Exact = false;
    } else {
      Exact = false;
    }
    double X = toDouble(M, V, "/");
    if (X == 0)
      vmFatal("/: division by zero");
    AccD /= X;
  }
  if (Exact)
    return makeInteger(M, AccI);
  return makeReal(M, AccD);
}

template <typename Cmp>
Value primCompare(VM &M, uint32_t Argc, Cmp C, const char *Who) {
  for (uint32_t I = 0; I + 1 < Argc; ++I) {
    double A = toDouble(M, M.primArg(I, Argc), Who);
    double B = toDouble(M, M.primArg(I + 1, Argc), Who);
    if (!C(A, B))
      return Value::boolean(false);
  }
  return Value::boolean(true);
}

Value primQuotient(VM &M, uint32_t Argc) {
  int32_t A = toFixnum(M, M.primArg(0, Argc), "quotient");
  int32_t B = toFixnum(M, M.primArg(1, Argc), "quotient");
  if (B == 0)
    vmFatal("quotient: division by zero");
  return Value::fixnum(A / B);
}

Value primRemainder(VM &M, uint32_t Argc) {
  int32_t A = toFixnum(M, M.primArg(0, Argc), "remainder");
  int32_t B = toFixnum(M, M.primArg(1, Argc), "remainder");
  if (B == 0)
    vmFatal("remainder: division by zero");
  return Value::fixnum(A % B);
}

Value primModulo(VM &M, uint32_t Argc) {
  int32_t A = toFixnum(M, M.primArg(0, Argc), "modulo");
  int32_t B = toFixnum(M, M.primArg(1, Argc), "modulo");
  if (B == 0)
    vmFatal("modulo: division by zero");
  int32_t R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    R += B;
  return Value::fixnum(R);
}

Value primAbs(VM &M, uint32_t Argc) {
  Value V = M.primArg(0, Argc);
  if (V.isFixnum())
    return makeInteger(M, std::llabs(static_cast<long long>(V.asFixnum())));
  return makeReal(M, std::fabs(toDouble(M, V, "abs")));
}

template <bool Max> Value primMinMax(VM &M, uint32_t Argc) {
  bool Real = false;
  double Best = toDouble(M, M.primArg(0, Argc), Max ? "max" : "min");
  Real = !M.primArg(0, Argc).isFixnum();
  for (uint32_t I = 1; I != Argc; ++I) {
    Value V = M.primArg(I, Argc);
    double X = toDouble(M, V, Max ? "max" : "min");
    if (!V.isFixnum())
      Real = true;
    if (Max ? (X > Best) : (X < Best))
      Best = X;
  }
  if (!Real)
    return Value::fixnum(static_cast<int32_t>(Best));
  return makeReal(M, Best);
}

template <double (*Fn)(double)> Value primReal1(VM &M, uint32_t Argc) {
  return makeReal(M, Fn(toDouble(M, M.primArg(0, Argc), "real op")));
}

Value primAtan(VM &M, uint32_t Argc) {
  double Y = toDouble(M, M.primArg(0, Argc), "atan");
  if (Argc == 1)
    return makeReal(M, std::atan(Y));
  return makeReal(M, std::atan2(Y, toDouble(M, M.primArg(1, Argc), "atan")));
}

Value primExpt(VM &M, uint32_t Argc) {
  Value A = M.primArg(0, Argc), B = M.primArg(1, Argc);
  if (A.isFixnum() && B.isFixnum() && B.asFixnum() >= 0) {
    int64_t Base = A.asFixnum(), Acc = 1;
    int32_t E = B.asFixnum();
    bool Overflow = false;
    for (int32_t I = 0; I != E; ++I) {
      Acc *= Base;
      if (Acc > Value::MaxFixnum || Acc < Value::MinFixnum) {
        Overflow = true;
        break;
      }
    }
    if (!Overflow)
      return Value::fixnum(static_cast<int32_t>(Acc));
  }
  return makeReal(M, std::pow(toDouble(M, A, "expt"), toDouble(M, B, "expt")));
}

template <double (*Fn)(double)> Value primRound(VM &M, uint32_t Argc) {
  Value V = M.primArg(0, Argc);
  if (V.isFixnum())
    return V;
  double D = Fn(toDouble(M, V, "rounding"));
  if (D >= Value::MinFixnum && D <= Value::MaxFixnum)
    return Value::fixnum(static_cast<int32_t>(D));
  return makeReal(M, D);
}

Value primExactToInexact(VM &M, uint32_t Argc) {
  return makeReal(M, toDouble(M, M.primArg(0, Argc), "exact->inexact"));
}

Value primInexactToExact(VM &M, uint32_t Argc) {
  Value V = M.primArg(0, Argc);
  if (V.isFixnum())
    return V;
  double D = toDouble(M, V, "inexact->exact");
  if (D < Value::MinFixnum || D > Value::MaxFixnum)
    vmFatal("inexact->exact: out of fixnum range");
  return Value::fixnum(static_cast<int32_t>(D));
}

Value primNumberToString(VM &M, uint32_t Argc) {
  Value V = M.primArg(0, Argc);
  if (!isNumber(M, V))
    vmFatal("number->string: not a number");
  std::string S = M.valueToString(V, /*WriteStyle=*/true);
  return makeString(M.heap(), M.objectAllocator(), S);
}

//===----------------------------------------------------------------------===//
// Pairs
//===----------------------------------------------------------------------===//

Value primCons(VM &M, uint32_t Argc) {
  Address A = M.allocateObject(3); // May GC; args stay stack-rooted.
  return initPair(M.heap(), A, M.primArg(0, Argc), M.primArg(1, Argc));
}

Value checkedPair(VM &M, Value V, const char *Who) {
  if (!isPair(M.heap(), V))
    vmFatal("%s: not a pair: %s", Who,
            M.valueToString(V, /*WriteStyle=*/true).c_str());
  return V;
}

Value primCar(VM &M, uint32_t Argc) {
  return carOf(M.heap(), checkedPair(M, M.primArg(0, Argc), "car"));
}
Value primCdr(VM &M, uint32_t Argc) {
  return cdrOf(M.heap(), checkedPair(M, M.primArg(0, Argc), "cdr"));
}

Value primSetCar(VM &M, uint32_t Argc) {
  Value P = checkedPair(M, M.primArg(0, Argc), "set-car!");
  M.mutateStore(P.asPointer() + 4, M.primArg(1, Argc));
  return Value::unspecified();
}
Value primSetCdr(VM &M, uint32_t Argc) {
  Value P = checkedPair(M, M.primArg(0, Argc), "set-cdr!");
  M.mutateStore(P.asPointer() + 8, M.primArg(1, Argc));
  return Value::unspecified();
}

/// cxr chains: A = path encoded as bits (1 = a/car, 0 = d/cdr), applied
/// LSB-first... implemented directly for the common forms instead.
template <char C1, char C2, char C3 = 0, char C4 = 0>
Value primCxr(VM &M, uint32_t Argc) {
  Value V = M.primArg(0, Argc);
  Heap &H = M.heap();
  const char Path[4] = {C4, C3, C2, C1}; // applied right to left
  for (char Step : Path) {
    if (!Step)
      continue;
    checkedPair(M, V, "cxr");
    V = Step == 'a' ? carOf(H, V) : cdrOf(H, V);
  }
  return V;
}

Value primMemq(VM &M, uint32_t Argc) {
  Value X = M.primArg(0, Argc);
  Value L = M.primArg(1, Argc);
  Heap &H = M.heap();
  while (!L.isNil()) {
    checkedPair(M, L, "memq");
    M.chargeInstructions(3);
    if (carOf(H, L).Bits == X.Bits)
      return L;
    L = cdrOf(H, L);
  }
  return Value::boolean(false);
}

Value primMemv(VM &M, uint32_t Argc) {
  Value X = M.primArg(0, Argc);
  Value L = M.primArg(1, Argc);
  Heap &H = M.heap();
  while (!L.isNil()) {
    checkedPair(M, L, "memv");
    M.chargeInstructions(3);
    if (M.eqv(carOf(H, L), X))
      return L;
    L = cdrOf(H, L);
  }
  return Value::boolean(false);
}

Value primAssq(VM &M, uint32_t Argc) {
  Value X = M.primArg(0, Argc);
  Value L = M.primArg(1, Argc);
  Heap &H = M.heap();
  while (!L.isNil()) {
    checkedPair(M, L, "assq");
    Value Entry = carOf(H, L);
    M.chargeInstructions(4);
    if (isPair(H, Entry) && carOf(H, Entry).Bits == X.Bits)
      return Entry;
    L = cdrOf(H, L);
  }
  return Value::boolean(false);
}

//===----------------------------------------------------------------------===//
// Predicates and equality
//===----------------------------------------------------------------------===//

Value primEq(VM &M, uint32_t Argc) {
  return Value::boolean(M.primArg(0, Argc).Bits == M.primArg(1, Argc).Bits);
}
Value primEqv(VM &M, uint32_t Argc) {
  return Value::boolean(M.eqv(M.primArg(0, Argc), M.primArg(1, Argc)));
}
Value primEqual(VM &M, uint32_t Argc) {
  return Value::boolean(M.deepEqual(M.primArg(0, Argc), M.primArg(1, Argc)));
}
Value primNot(VM &M, uint32_t Argc) {
  return Value::boolean(M.primArg(0, Argc).isFalse());
}

template <ObjectTag Tag> Value primIsObject(VM &M, uint32_t Argc) {
  return Value::boolean(isObject(M.heap(), M.primArg(0, Argc), Tag));
}

Value primIsPairP(VM &M, uint32_t Argc) {
  return Value::boolean(isPair(M.heap(), M.primArg(0, Argc)));
}
Value primIsNull(VM &M, uint32_t Argc) {
  return Value::boolean(M.primArg(0, Argc).isNil());
}
Value primIsBoolean(VM &M, uint32_t Argc) {
  Value V = M.primArg(0, Argc);
  return Value::boolean(V.isImm(Imm::True) || V.isImm(Imm::False));
}
Value primIsChar(VM &M, uint32_t Argc) {
  return Value::boolean(M.primArg(0, Argc).isChar());
}
Value primIsNumber(VM &M, uint32_t Argc) {
  return Value::boolean(isNumber(M, M.primArg(0, Argc)));
}
Value primIsInteger(VM &M, uint32_t Argc) {
  Value V = M.primArg(0, Argc);
  if (V.isFixnum())
    return Value::boolean(true);
  if (isFlonum(M.heap(), V)) {
    double D = flonumValue(M.heap(), V);
    return Value::boolean(D == std::floor(D));
  }
  return Value::boolean(false);
}
Value primIsReal(VM &M, uint32_t Argc) {
  return Value::boolean(isNumber(M, M.primArg(0, Argc)));
}
Value primIsProcedure(VM &M, uint32_t Argc) {
  return Value::boolean(isClosure(M.heap(), M.primArg(0, Argc)));
}
Value primIsZero(VM &M, uint32_t Argc) {
  return Value::boolean(toDouble(M, M.primArg(0, Argc), "zero?") == 0.0);
}
Value primIsPositive(VM &M, uint32_t Argc) {
  return Value::boolean(toDouble(M, M.primArg(0, Argc), "positive?") > 0.0);
}
Value primIsNegative(VM &M, uint32_t Argc) {
  return Value::boolean(toDouble(M, M.primArg(0, Argc), "negative?") < 0.0);
}
Value primIsEven(VM &M, uint32_t Argc) {
  return Value::boolean(toFixnum(M, M.primArg(0, Argc), "even?") % 2 == 0);
}
Value primIsOdd(VM &M, uint32_t Argc) {
  return Value::boolean(toFixnum(M, M.primArg(0, Argc), "odd?") % 2 != 0);
}

//===----------------------------------------------------------------------===//
// Vectors
//===----------------------------------------------------------------------===//

Value primMakeVector(VM &M, uint32_t Argc) {
  int32_t Len = toFixnum(M, M.primArg(0, Argc), "make-vector");
  if (Len < 0)
    vmFatal("make-vector: negative length");
  // Allocate first, then read the fill (it may be a pointer that a
  // collection triggered by this very allocation would move).
  Address A = M.allocateObject(1 + static_cast<uint32_t>(Len));
  Value Fill = Argc > 1 ? M.primArg(1, Argc) : Value::fixnum(0);
  M.chargeInstructions(static_cast<uint64_t>(Len) / 4);
  return initVector(M.heap(), A, static_cast<uint32_t>(Len), Fill);
}

Value primVector(VM &M, uint32_t Argc) {
  Address A = M.allocateObject(1 + Argc);
  Heap &H = M.heap();
  H.store(A, makeHeader(ObjectTag::Vector, Argc));
  for (uint32_t I = 0; I != Argc; ++I)
    H.storeValue(A + 4 + I * 4, M.primArg(I, Argc));
  return Value::pointer(A);
}

Value checkedVector(VM &M, Value V, const char *Who) {
  if (!isVector(M.heap(), V))
    vmFatal("%s: not a vector", Who);
  return V;
}

uint32_t checkedIndex(VM &M, Value Vec, Value Idx, const char *Who) {
  int32_t I = toFixnum(M, Idx, Who);
  uint32_t Len = vectorLength(M.heap(), Vec);
  if (I < 0 || static_cast<uint32_t>(I) >= Len)
    vmFatal("%s: index %d out of range [0, %u)", Who, I, Len);
  return static_cast<uint32_t>(I);
}

Value primVectorRef(VM &M, uint32_t Argc) {
  Value Vec = checkedVector(M, M.primArg(0, Argc), "vector-ref");
  uint32_t I = checkedIndex(M, Vec, M.primArg(1, Argc), "vector-ref");
  return vectorRef(M.heap(), Vec, I);
}

Value primVectorSet(VM &M, uint32_t Argc) {
  Value Vec = checkedVector(M, M.primArg(0, Argc), "vector-set!");
  uint32_t I = checkedIndex(M, Vec, M.primArg(1, Argc), "vector-set!");
  M.mutateStore(Vec.asPointer() + 4 + I * 4, M.primArg(2, Argc));
  return Value::unspecified();
}

Value primVectorLength(VM &M, uint32_t Argc) {
  Value Vec = checkedVector(M, M.primArg(0, Argc), "vector-length");
  return Value::fixnum(
      static_cast<int32_t>(vectorLength(M.heap(), Vec)));
}

Value primVectorFill(VM &M, uint32_t Argc) {
  Value Vec = checkedVector(M, M.primArg(0, Argc), "vector-fill!");
  Value Fill = M.primArg(1, Argc);
  Heap &H = M.heap();
  uint32_t Len = vectorLength(H, Vec);
  for (uint32_t I = 0; I != Len; ++I)
    M.mutateStore(Vec.asPointer() + 4 + I * 4, Fill);
  return Value::unspecified();
}

//===----------------------------------------------------------------------===//
// Strings and characters
//===----------------------------------------------------------------------===//

Value checkedString(VM &M, Value V, const char *Who) {
  if (!isString(M.heap(), V))
    vmFatal("%s: not a string", Who);
  return V;
}

Value primStringLength(VM &M, uint32_t Argc) {
  Value S = checkedString(M, M.primArg(0, Argc), "string-length");
  return Value::fixnum(static_cast<int32_t>(stringLength(M.heap(), S)));
}

Value primStringRef(VM &M, uint32_t Argc) {
  Value S = checkedString(M, M.primArg(0, Argc), "string-ref");
  int32_t I = toFixnum(M, M.primArg(1, Argc), "string-ref");
  if (I < 0 || static_cast<uint32_t>(I) >= stringLength(M.heap(), S))
    vmFatal("string-ref: index out of range");
  return Value::character(static_cast<uint8_t>(
      stringRef(M.heap(), S, static_cast<uint32_t>(I))));
}

Value primStringEq(VM &M, uint32_t Argc) {
  std::string A = readString(M.heap(),
                             checkedString(M, M.primArg(0, Argc), "string=?"));
  std::string B = readString(M.heap(),
                             checkedString(M, M.primArg(1, Argc), "string=?"));
  M.chargeInstructions(A.size() / 4 + 1);
  return Value::boolean(A == B);
}

Value primStringLt(VM &M, uint32_t Argc) {
  std::string A = readString(M.heap(),
                             checkedString(M, M.primArg(0, Argc), "string<?"));
  std::string B = readString(M.heap(),
                             checkedString(M, M.primArg(1, Argc), "string<?"));
  M.chargeInstructions(A.size() / 4 + 1);
  return Value::boolean(A < B);
}

Value primStringAppend(VM &M, uint32_t Argc) {
  std::string Out;
  for (uint32_t I = 0; I != Argc; ++I)
    Out += readString(M.heap(),
                      checkedString(M, M.primArg(I, Argc), "string-append"));
  M.chargeInstructions(Out.size() / 2 + 1);
  return makeString(M.heap(), M.objectAllocator(), Out);
}

Value primSubstring(VM &M, uint32_t Argc) {
  std::string S = readString(M.heap(),
                             checkedString(M, M.primArg(0, Argc), "substring"));
  int32_t From = toFixnum(M, M.primArg(1, Argc), "substring");
  int32_t To = toFixnum(M, M.primArg(2, Argc), "substring");
  if (From < 0 || To < From || static_cast<size_t>(To) > S.size())
    vmFatal("substring: bad range");
  return makeString(M.heap(), M.objectAllocator(),
                    S.substr(From, To - From));
}

Value primStringToSymbol(VM &M, uint32_t Argc) {
  std::string S = readString(
      M.heap(), checkedString(M, M.primArg(0, Argc), "string->symbol"));
  return M.symbolFor(S);
}

Value primSymbolToString(VM &M, uint32_t Argc) {
  Value Sym = M.primArg(0, Argc);
  if (!isSymbol(M.heap(), Sym))
    vmFatal("symbol->string: not a symbol");
  return {M.heap().load(Sym.asPointer() + SymbolNameSlot)};
}

Value primGensym(VM &M, uint32_t Argc) {
  return M.symbolFor(M.freshSymbolName());
}

int32_t charArg(VM &M, Value V, const char *Who) {
  if (!V.isChar())
    vmFatal("%s: not a character", Who);
  return static_cast<int32_t>(V.charCode());
}

Value primCharToInteger(VM &M, uint32_t Argc) {
  return Value::fixnum(charArg(M, M.primArg(0, Argc), "char->integer"));
}
Value primIntegerToChar(VM &M, uint32_t Argc) {
  return Value::character(static_cast<uint32_t>(
      toFixnum(M, M.primArg(0, Argc), "integer->char")));
}
Value primCharEq(VM &M, uint32_t Argc) {
  return Value::boolean(charArg(M, M.primArg(0, Argc), "char=?") ==
                        charArg(M, M.primArg(1, Argc), "char=?"));
}
Value primCharLt(VM &M, uint32_t Argc) {
  return Value::boolean(charArg(M, M.primArg(0, Argc), "char<?") <
                        charArg(M, M.primArg(1, Argc), "char<?"));
}
Value primCharUpcase(VM &M, uint32_t Argc) {
  return Value::character(static_cast<uint32_t>(
      toupper(charArg(M, M.primArg(0, Argc), "char-upcase"))));
}
Value primCharDowncase(VM &M, uint32_t Argc) {
  return Value::character(static_cast<uint32_t>(
      tolower(charArg(M, M.primArg(0, Argc), "char-downcase"))));
}
Value primCharAlphabetic(VM &M, uint32_t Argc) {
  return Value::boolean(
      isalpha(charArg(M, M.primArg(0, Argc), "char-alphabetic?")) != 0);
}
Value primCharNumeric(VM &M, uint32_t Argc) {
  return Value::boolean(
      isdigit(charArg(M, M.primArg(0, Argc), "char-numeric?")) != 0);
}
Value primCharWhitespace(VM &M, uint32_t Argc) {
  return Value::boolean(
      isspace(charArg(M, M.primArg(0, Argc), "char-whitespace?")) != 0);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

Value primDisplay(VM &M, uint32_t Argc) {
  std::string S = M.valueToString(M.primArg(0, Argc), /*WriteStyle=*/false);
  M.chargeInstructions(S.size() / 2 + 1);
  M.appendOutput(S);
  return Value::unspecified();
}

Value primWrite(VM &M, uint32_t Argc) {
  std::string S = M.valueToString(M.primArg(0, Argc), /*WriteStyle=*/true);
  M.chargeInstructions(S.size() / 2 + 1);
  M.appendOutput(S);
  return Value::unspecified();
}

Value primNewline(VM &M, uint32_t Argc) {
  M.appendOutput("\n");
  return Value::unspecified();
}

Value primWriteChar(VM &M, uint32_t Argc) {
  char C = static_cast<char>(charArg(M, M.primArg(0, Argc), "write-char"));
  M.appendOutput(std::string(1, C));
  return Value::unspecified();
}

Value primError(VM &M, uint32_t Argc) {
  std::string Msg = "scheme error:";
  for (uint32_t I = 0; I != Argc; ++I) {
    Msg += ' ';
    Msg += M.valueToString(M.primArg(I, Argc), /*WriteStyle=*/false);
  }
  vmFatal("%s", Msg.c_str());
}

//===----------------------------------------------------------------------===//
// Hash tables, apply, runtime introspection
//===----------------------------------------------------------------------===//

Value primMakeTable(VM &M, uint32_t Argc) {
  uint32_t Buckets = 16;
  if (Argc > 0) {
    int32_t B = toFixnum(M, M.primArg(0, Argc), "make-table");
    if (B <= 0)
      vmFatal("make-table: bucket count must be positive");
    Buckets = static_cast<uint32_t>(B);
  }
  return M.makeTable(Buckets);
}

Value primTableRef(VM &M, uint32_t Argc) {
  Value Default = Argc > 2 ? M.primArg(2, Argc) : Value::boolean(false);
  return M.tableRef(M.primArg(0, Argc), M.primArg(1, Argc), Default);
}

Value primTableSet(VM &M, uint32_t Argc) {
  M.tableSet(M.primArg(0, Argc), M.primArg(1, Argc), M.primArg(2, Argc));
  return Value::unspecified();
}

Value primTableCount(VM &M, uint32_t Argc) {
  return Value::fixnum(M.tableCount(M.primArg(0, Argc)));
}

Value primApply(VM &M, uint32_t Argc) {
  // (apply f a b ... lst): push f, the leading args, then the spread of
  // lst, and have the op call f on return. Reading via absolute slots
  // keeps this safe while the stack grows.
  uint32_t Base = M.sp() - Argc;
  Value F = M.stackValue(Base);
  M.push(F);
  for (uint32_t I = 1; I + 1 < Argc; ++I)
    M.push(M.stackValue(Base + I));
  uint32_t N = Argc >= 2 ? Argc - 2 : 0;
  Value L = M.stackValue(Base + Argc - 1);
  Heap &H = M.heap();
  while (!L.isNil()) {
    if (!isPair(H, L))
      vmFatal("apply: last argument must be a list");
    M.push(carOf(H, L));
    L = cdrOf(H, L);
    ++N;
  }
  M.applyOnReturn(N);
  return Value::unspecified();
}

Value primGcCount(VM &M, uint32_t Argc) {
  return Value::fixnum(
      static_cast<int32_t>(M.collector().stats().Collections & 0xfffffff));
}

Value primGcCollect(VM &M, uint32_t Argc) {
  M.collector().collect();
  return Value::unspecified();
}

Value primRuntimePoke(VM &M, uint32_t Argc) {
  // Touches a slot of the hot runtime vector (test hook).
  return {M.heap().load(M.runtimeVectorAddr() + 4)};
}

} // namespace

//===----------------------------------------------------------------------===//
// Registration
//===----------------------------------------------------------------------===//

void gcache::registerPrimitives(VM &M) {
  auto Def = [&M](const char *Name, int MinA, int MaxA, uint32_t Cost,
                  PrimFn Fn) {
    M.addPrimitive({Name, MinA, MaxA, Cost, Fn});
  };

  // Pairs.
  Def("cons", 2, 2, 3, primCons);
  Def("car", 1, 1, 1, primCar);
  Def("cdr", 1, 1, 1, primCdr);
  Def("set-car!", 2, 2, 1, primSetCar);
  Def("set-cdr!", 2, 2, 1, primSetCdr);
  Def("caar", 1, 1, 2, (primCxr<'a', 'a'>));
  Def("cadr", 1, 1, 2, (primCxr<'a', 'd'>));
  Def("cdar", 1, 1, 2, (primCxr<'d', 'a'>));
  Def("cddr", 1, 1, 2, (primCxr<'d', 'd'>));
  Def("caddr", 1, 1, 3, (primCxr<'a', 'd', 'd'>));
  Def("cdddr", 1, 1, 3, (primCxr<'d', 'd', 'd'>));
  Def("cadddr", 1, 1, 4, (primCxr<'a', 'd', 'd', 'd'>));
  Def("memq", 2, 2, 2, primMemq);
  Def("memv", 2, 2, 2, primMemv);
  Def("assq", 2, 2, 2, primAssq);

  // Equality and predicates.
  Def("eq?", 2, 2, 1, primEq);
  Def("eqv?", 2, 2, 1, primEqv);
  Def("equal?", 2, 2, 2, primEqual);
  Def("not", 1, 1, 1, primNot);
  Def("pair?", 1, 1, 1, primIsPairP);
  Def("null?", 1, 1, 1, primIsNull);
  Def("boolean?", 1, 1, 1, primIsBoolean);
  Def("symbol?", 1, 1, 1, primIsObject<ObjectTag::Symbol>);
  Def("string?", 1, 1, 1, primIsObject<ObjectTag::String>);
  Def("vector?", 1, 1, 1, primIsObject<ObjectTag::Vector>);
  Def("char?", 1, 1, 1, primIsChar);
  Def("procedure?", 1, 1, 1, primIsProcedure);
  Def("number?", 1, 1, 1, primIsNumber);
  Def("integer?", 1, 1, 1, primIsInteger);
  Def("real?", 1, 1, 1, primIsReal);
  Def("zero?", 1, 1, 1, primIsZero);
  Def("positive?", 1, 1, 1, primIsPositive);
  Def("negative?", 1, 1, 1, primIsNegative);
  Def("even?", 1, 1, 1, primIsEven);
  Def("odd?", 1, 1, 1, primIsOdd);

  // Arithmetic.
  Def("+", 0, -1, 1, primAdd);
  Def("-", 1, -1, 1, primSub);
  Def("*", 0, -1, 1, primMul);
  Def("/", 1, -1, 2, primDiv);
  Def("quotient", 2, 2, 2, primQuotient);
  Def("remainder", 2, 2, 2, primRemainder);
  Def("modulo", 2, 2, 2, primModulo);
  Def("abs", 1, 1, 1, primAbs);
  Def("min", 1, -1, 1, primMinMax<false>);
  Def("max", 1, -1, 1, primMinMax<true>);
  Def("=", 2, -1, 1, [](VM &M, uint32_t Argc) {
    return primCompare(M, Argc, [](double A, double B) { return A == B; },
                       "=");
  });
  Def("<", 2, -1, 1, [](VM &M, uint32_t Argc) {
    return primCompare(M, Argc, [](double A, double B) { return A < B; }, "<");
  });
  Def(">", 2, -1, 1, [](VM &M, uint32_t Argc) {
    return primCompare(M, Argc, [](double A, double B) { return A > B; }, ">");
  });
  Def("<=", 2, -1, 1, [](VM &M, uint32_t Argc) {
    return primCompare(M, Argc, [](double A, double B) { return A <= B; },
                       "<=");
  });
  Def(">=", 2, -1, 1, [](VM &M, uint32_t Argc) {
    return primCompare(M, Argc, [](double A, double B) { return A >= B; },
                       ">=");
  });
  Def("sqrt", 1, 1, 8, primReal1<std::sqrt>);
  Def("exp", 1, 1, 8, primReal1<std::exp>);
  Def("log", 1, 1, 8, primReal1<std::log>);
  Def("sin", 1, 1, 8, primReal1<std::sin>);
  Def("cos", 1, 1, 8, primReal1<std::cos>);
  Def("atan", 1, 2, 8, primAtan);
  Def("expt", 2, 2, 4, primExpt);
  Def("floor", 1, 1, 2, primRound<std::floor>);
  Def("ceiling", 1, 1, 2, primRound<std::ceil>);
  Def("truncate", 1, 1, 2, primRound<std::trunc>);
  Def("round", 1, 1, 2, primRound<std::nearbyint>);
  Def("exact->inexact", 1, 1, 2, primExactToInexact);
  Def("inexact->exact", 1, 1, 2, primInexactToExact);
  Def("number->string", 1, 1, 8, primNumberToString);

  // Vectors.
  Def("make-vector", 1, 2, 2, primMakeVector);
  Def("vector", 0, -1, 2, primVector);
  Def("vector-ref", 2, 2, 2, primVectorRef);
  Def("vector-set!", 3, 3, 2, primVectorSet);
  Def("vector-length", 1, 1, 1, primVectorLength);
  Def("vector-fill!", 2, 2, 2, primVectorFill);

  // Strings and characters.
  Def("string-length", 1, 1, 1, primStringLength);
  Def("string-ref", 2, 2, 2, primStringRef);
  Def("string=?", 2, 2, 2, primStringEq);
  Def("string<?", 2, 2, 2, primStringLt);
  Def("string-append", 0, -1, 4, primStringAppend);
  Def("substring", 3, 3, 3, primSubstring);
  Def("string->symbol", 1, 1, 4, primStringToSymbol);
  Def("symbol->string", 1, 1, 1, primSymbolToString);
  Def("gensym", 0, 0, 4, primGensym);
  Def("char->integer", 1, 1, 1, primCharToInteger);
  Def("integer->char", 1, 1, 1, primIntegerToChar);
  Def("char=?", 2, 2, 1, primCharEq);
  Def("char<?", 2, 2, 1, primCharLt);
  Def("char-upcase", 1, 1, 1, primCharUpcase);
  Def("char-downcase", 1, 1, 1, primCharDowncase);
  Def("char-alphabetic?", 1, 1, 1, primCharAlphabetic);
  Def("char-numeric?", 1, 1, 1, primCharNumeric);
  Def("char-whitespace?", 1, 1, 1, primCharWhitespace);

  // Output and errors.
  Def("display", 1, 1, 4, primDisplay);
  Def("write", 1, 1, 4, primWrite);
  Def("newline", 0, 0, 2, primNewline);
  Def("write-char", 1, 1, 2, primWriteChar);
  Def("error", 1, -1, 1, primError);

  // Hash tables (T-style, address-keyed).
  Def("make-table", 0, 1, 6, primMakeTable);
  Def("table-ref", 2, 3, 4, primTableRef);
  Def("table-set!", 3, 3, 6, primTableSet);
  Def("table-count", 1, 1, 1, primTableCount);

  // Control and runtime.
  Def("apply", 2, -1, 4, primApply);
  Def("gc-count", 0, 0, 1, primGcCount);
  Def("gc-collect!", 0, 0, 1, primGcCollect);
  Def("runtime-poke", 0, 0, 1, primRuntimePoke);
}
