//===- VM.h - The Scheme virtual machine ------------------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode interpreter. It plays the role of the paper's Scheme
/// system (T 3.1 with orbit) plus the instruction-level emulator: every
/// data reference — stack pushes/pops, heap loads/stores, allocation
/// initialization, global accesses, the hot runtime vector — goes through
/// the traced Heap, and every executed bytecode/primitive bumps the
/// instruction counter that defines the paper's idealized running time.
///
/// Two execution modes:
///  - *load mode*: reading, compiling, and executing top-level definitions
///    allocates in the static area (interned symbols, quoted constants,
///    global value cells inside symbols, top-level closures, the prelude).
///    These become the paper's "static blocks [that] contain the program
///    itself ... and data structures and code for the compiler, library,
///    and runtime system".
///  - *run mode*: the measured program run; allocation goes through the
///    installed collector into the dynamic area, and tracing is enabled.
///
/// GC discipline: a collection can occur inside any allocation, so values
/// must be rooted (on the simulated stack, in a frame slot, or registered
/// as a host root) across every allocate() call; the primitives follow an
/// allocate-then-read-args pattern throughout.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_VM_VM_H
#define GCACHE_VM_VM_H

#include "gcache/gc/Collector.h"
#include "gcache/heap/Heap.h"
#include "gcache/heap/ObjectModel.h"
#include "gcache/support/Random.h"
#include "gcache/vm/Bytecode.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gcache {

class VM;

/// A primitive's C++ implementation. Arguments are the top \p Argc slots
/// of the simulated stack (read them via VM::primArg); the function
/// returns the result value. The VM pops the arguments and pushes the
/// result. Implementations that allocate must do so before caching
/// argument values (see the GC discipline note above).
using PrimFn = Value (*)(VM &M, uint32_t Argc);

/// Descriptor for one primitive procedure.
struct Primitive {
  std::string Name;
  int MinArgs = 0;
  /// Maximum argument count, or -1 for variadic.
  int MaxArgs = 0;
  /// Modeled instruction cost beyond the dispatch itself.
  uint32_t ExtraCost = 1;
  PrimFn Fn = nullptr;
};

/// Fatal runtime error (type error, unbound variable, arity mismatch).
/// Raises StatusError(VmError): the failing unit's VM state becomes
/// unspecified and the unit must be discarded, but unit boundaries
/// (tryRunProgram, the bench drivers) catch it and continue the rest of
/// the grid.
[[noreturn]] void vmFatal(const char *Fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/// The virtual machine. Also the collectors' MutatorContext.
class VM final : public MutatorContext {
public:
  /// Instructions charged per executed bytecode. The paper counts MIPS
  /// R3000 instructions; one bytecode of this VM corresponds to a short
  /// dispatch + operate sequence (~4 MIPS instructions), and primitives
  /// add their ExtraCost on top. With this calibration the workloads make
  /// ~0.4-0.7 data references per instruction (the paper's compiled
  /// programs make ~0.28; an interpreter's stack traffic accounts for the
  /// remainder — see EXPERIMENTS.md).
  static constexpr uint64_t InstructionsPerOpcode = 4;
  explicit VM(Heap &H);
  ~VM() override;

  Heap &heap() { return H; }

  /// Installs the collector used by run-mode allocation. The VM does not
  /// own it. Defaults to an internal NullCollector.
  void setCollector(Collector *C) { GC = C; }
  Collector &collector() { return *GC; }

  //===--- Modes ----------------------------------------------------------===//

  void setLoadMode(bool On) { LoadMode = On; }
  bool loadMode() const { return LoadMode; }

  /// Reseeds the static-scatter PRNG (must be called before any loading):
  /// different seeds give different static layouts, re-rolling which busy
  /// blocks collide — the §7 placement question.
  void setLayoutSeed(uint64_t Seed) { ScatterRng.reseed(Seed); }

  //===--- Allocation ------------------------------------------------------===//

  /// Allocates \p Words for a new object: static area in load mode,
  /// collector-managed dynamic area otherwise.
  Address allocateObject(uint32_t Words);

  /// Allocates \p Words in the static area with pseudo-random scatter
  /// padding (symbols, quoted constants; see §7 on static blocks being
  /// "arranged in an essentially random fashion").
  Address staticScatterAlloc(uint32_t Words);

  /// Allocator facade over allocateObject for the ObjectModel helpers.
  Allocator &objectAllocator() { return AllocFacade; }

  //===--- Symbols and globals ---------------------------------------------===//

  /// Interns \p Name, returning the symbol's static address.
  Address internSymbol(const std::string &Name);
  /// The symbol as a value.
  Value symbolFor(const std::string &Name) {
    return Value::pointer(internSymbol(Name));
  }
  /// Host-side reverse lookup (diagnostics); empty if not a known symbol.
  std::string symbolName(Address SymAddr) const;

  /// Binds a global (untraced host-side convenience; used during setup).
  void defineGlobal(const std::string &Name, Value V);
  /// Reads a global without tracing (tests, diagnostics).
  Value peekGlobal(const std::string &Name);

  //===--- Code and primitives ---------------------------------------------===//

  uint32_t addCode(CodeObject C);
  const CodeObject &code(uint32_t Id) const { return *CodeTable[Id]; }
  size_t numCodeObjects() const { return CodeTable.size(); }

  /// Primitive table (populated by registerPrimitives in Primitives.cpp).
  int primitiveId(const std::string &Name) const;
  const Primitive &primitive(uint32_t Id) const { return Prims[Id]; }
  uint32_t addPrimitive(Primitive P);

  /// Creates the global closure bindings for every primitive (load mode).
  void bindPrimitiveGlobals();

  //===--- Compile-time datum construction ---------------------------------===//

  /// Builds a quoted datum in the static area and returns it as a value.
  Value datumToValue(const struct Sexpr &S);

  //===--- Execution --------------------------------------------------------===//

  /// Runs the closure \p Thunk (no arguments) to completion and returns
  /// its result.
  Value execute(Value Thunk);

  /// Builds a zero-argument closure for \p CodeId and executes it.
  Value executeCode(uint32_t CodeId);

  uint64_t instructions() const { return Instructions; }
  /// ΔI_prog: extra mutator instructions caused by collections
  /// (address-keyed hash-table rehashing + write barriers).
  uint64_t extraInstructions() const { return ExtraInstructions; }

  /// Program output accumulated by display/write/newline.
  const std::string &output() const { return Output; }
  void appendOutput(const std::string &S) { Output += S; }

  //===--- Stack access (primitives and tests) -----------------------------===//

  void push(Value V) { H.storeStack(SP++, V); }
  Value pop() {
    assert(SP > 0 && "value stack underflow");
    return H.loadStack(--SP);
  }
  /// Argument \p I (0-based) of the \p Argc arguments on top of the stack.
  Value primArg(uint32_t I, uint32_t Argc) {
    assert(I < Argc && Argc <= SP && "bad primitive argument access");
    return H.loadStack(SP - Argc + I);
  }
  uint32_t sp() const { return SP; }
  /// Reads an absolute stack slot (for primitives that push while still
  /// needing their original arguments; capture Base = sp() - Argc first).
  Value stackValue(uint32_t Slot) {
    assert(Slot < SP && "reading above the stack top");
    return H.loadStack(Slot);
  }

  /// For the apply primitive: once the running primitive returns (its
  /// value is then ignored), calls the procedure at stack position
  /// SP-1-Argc with the Argc values above it (the stack ends [proc a0 ..
  /// a(n-1)]). The primitive op completes when that call returns: it pops
  /// its own arguments and pushes the call's result. The call runs in the
  /// interpreter loop like any other, so a continuation captured inside it
  /// holds the op's completion too.
  void applyOnReturn(uint32_t Argc) { PendingApply = Argc; }

  /// Barriered mutation of a heap slot (set-car!, vector-set!, ...).
  void mutateStore(Address Slot, Value V) {
    GC->noteStore(Slot, V);
    Instructions += GC->writeBarrierCost();
    H.storeValue(Slot, V);
  }

  /// Charges \p N extra mutator instructions (primitives with
  /// data-dependent cost, e.g. equal?, rehashing).
  void chargeInstructions(uint64_t N) { Instructions += N; }
  void chargeExtraInstructions(uint64_t N) {
    Instructions += N;
    ExtraInstructions += N;
  }

  //===--- Hash tables -------------------------------------------------------//
  // Address-keyed eq hash tables in the style of T: keys hash by address,
  // so every collection invalidates them and the next access rehashes
  // (§6's ΔI_prog).

  Value makeTable(uint32_t Buckets);
  Value tableRef(Value Table, Value Key, Value Default);
  void tableSet(Value Table, Value Key, Value V);
  int32_t tableCount(Value Table);

  /// eq-style hash of a value (pointers hash by address).
  static uint32_t eqHash(Value V) {
    return static_cast<uint32_t>(Rng::splitmix64(V.Bits));
  }

  //===--- Equality / printing ----------------------------------------------//

  bool eqv(Value A, Value B);
  bool deepEqual(Value A, Value B, uint32_t Depth = 0);
  /// Renders a value as write (machine-readable) or display text. Traced.
  std::string valueToString(Value V, bool WriteStyle, uint32_t Depth = 0);

  //===--- MutatorContext ----------------------------------------------------//

  uint32_t liveStackWords() const override { return SP; }
  void forEachHostRoot(const std::function<void(Value &)> &Fn) override;
  void onPostGc() override;

  /// Registers a host root for the lifetime of the returned object.
  class RootGuard {
  public:
    RootGuard(VM &M, Value &Slot) : M(M) { M.HostRoots.push_back(&Slot); }
    ~RootGuard() { M.HostRoots.pop_back(); }
    RootGuard(const RootGuard &) = delete;
    RootGuard &operator=(const RootGuard &) = delete;

  private:
    VM &M;
  };

  /// The hot runtime vector's address (the paper's "small vector internal
  /// to the T runtime system" that alone accounts for ~6.7% of refs; the
  /// VM polls it on every call).
  Address runtimeVectorAddr() const { return RuntimeVec; }

private:
  struct Frame {
    uint32_t CodeId;
    uint32_t PC;
    uint32_t FP;
    /// Arguments of the primitive op whose apply made this call, popped
    /// when it returns (apply takes at least two); 0 for other calls.
    uint32_t PrimArgs = 0;
  };

  class AllocatorFacade final : public Allocator {
  public:
    explicit AllocatorFacade(VM &M) : M(M) {}
    Address allocate(uint32_t Words) override {
      return M.allocateObject(Words);
    }

  private:
    VM &M;
  };

  void enterCall(uint32_t Argc, bool Tail);
  /// The interpreter loop: runs bytecodes until the frame count drops to
  /// \p Base.
  void interpret(size_t Base);
  /// Counts one completed bytecode; true when the cancellation poll is due
  /// (every 16384th, far below a millisecond of drain latency).
  bool tick() { return (++CancelPollTick & 0x3fff) == 0; }
  /// Cooperative cancellation (support/Budget.h). The trace is flushed
  /// first, so the --max-refs meter is exact at the poll.
  void poll();
  void ensureTableFresh(Value Table);
  void rehashTable(Value Table, uint32_t NewBuckets);

  Heap &H;
  std::unique_ptr<NullCollector> DefaultGC;
  Collector *GC = nullptr;
  AllocatorFacade AllocFacade;

  bool LoadMode = true;
  uint32_t SP = 0;
  std::vector<Frame> Frames;
  std::vector<std::unique_ptr<CodeObject>> CodeTable;
  std::vector<Primitive> Prims;
  std::map<std::string, uint32_t> PrimIndex;
  std::map<std::string, Address> SymbolIndex;
  std::vector<Value *> HostRoots;

  /// Reified continuations: host-side frame snapshots, paired with the
  /// heap-allocated stack-copy vector held by the continuation closure.
  std::vector<std::vector<Frame>> ContTable;
  int32_t ContStubCodeId = -1;

  uint64_t Instructions = 0;
  uint64_t ExtraInstructions = 0;
  /// Bytecodes completed; the cancellation poll runs at every 16384th.
  uint64_t CancelPollTick = 0;
  /// The call applyOnReturn asked for, if the running primitive is apply.
  std::optional<uint32_t> PendingApply;
  uint64_t GensymCounter = 0;
  std::string Output;

  Address RuntimeVec = 0;
  Rng ScatterRng{0x5eed5eed5eedull};
  uint32_t StaticAllocsSinceScatter = 0;

public:
  /// Gensym support for primitives.
  std::string freshSymbolName();
};

} // namespace gcache

#endif // GCACHE_VM_VM_H
