//===- VM.cpp - The Scheme virtual machine -----------------------------------===//

#include "gcache/vm/VM.h"

#include "gcache/support/Budget.h"
#include "gcache/vm/Sexpr.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace gcache;

void gcache::vmFatal(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Buf[512];
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  throw StatusError(Status::fail(StatusCode::VmError, Buf));
}

namespace {
/// Allocator that always targets the static area (symbols, quoted data).
class StaticAllocator final : public Allocator {
public:
  StaticAllocator(VM &M) : M(M) {}
  Address allocate(uint32_t Words) override;

private:
  VM &M;
};
} // namespace

VM::VM(Heap &H) : H(H), AllocFacade(*this) {
  DefaultGC = std::make_unique<NullCollector>(H, *this);
  GC = DefaultGC.get();
  // The hot runtime vector: a small static vector the VM polls on every
  // procedure call (interrupt flags / stack limit in T).
  RuntimeVec = H.allocStatic(17);
  H.poke(RuntimeVec, makeHeader(ObjectTag::Vector, 16));
  for (uint32_t I = 0; I != 16; ++I)
    H.poke(RuntimeVec + 4 + I * 4, Value::fixnum(0).Bits);
}

VM::~VM() = default;

Address VM::staticScatterAlloc(uint32_t Words) {
  // Scatter static blocks pseudo-randomly ("static blocks are arranged in
  // an essentially random fashion", §7) by occasionally inserting a pad
  // object. Pads are vectors of fixnum 0, so the static area stays
  // walkable by the collectors' root scan.
  if (++StaticAllocsSinceScatter >= 6) {
    StaticAllocsSinceScatter = 0;
    uint32_t Pad = static_cast<uint32_t>(ScatterRng.below(13));
    if (Pad) {
      Address P = H.allocStatic(1 + Pad);
      H.poke(P, makeHeader(ObjectTag::Vector, Pad));
      for (uint32_t I = 0; I != Pad; ++I)
        H.poke(P + 4 + I * 4, Value::fixnum(0).Bits);
    }
  }
  return H.allocStatic(Words);
}

Address StaticAllocator::allocate(uint32_t Words) {
  return M.staticScatterAlloc(Words);
}

Address VM::allocateObject(uint32_t Words) {
  if (LoadMode)
    return staticScatterAlloc(Words);
  return GC->allocate(Words);
}

//===----------------------------------------------------------------------===//
// Symbols and globals
//===----------------------------------------------------------------------===//

Address VM::internSymbol(const std::string &Name) {
  auto It = SymbolIndex.find(Name);
  if (It != SymbolIndex.end())
    return It->second;

  // Symbols and their names always live in the static area, even when
  // interned at runtime (string->symbol, gensym).
  uint32_t Len = static_cast<uint32_t>(Name.size());
  uint32_t CharWords = (Len + 3) / 4;
  Address Str = staticScatterAlloc(2 + CharWords);
  H.poke(Str, makeHeader(ObjectTag::String, 1 + CharWords));
  H.poke(Str + 4, Len);
  for (uint32_t W = 0; W != CharWords; ++W) {
    uint32_t Packed = 0;
    for (uint32_t B = 0; B != 4 && W * 4 + B < Len; ++B)
      Packed |= static_cast<uint32_t>(static_cast<uint8_t>(Name[W * 4 + B]))
                << (B * 8);
    H.poke(Str + 8 + W * 4, Packed);
  }

  Address Sym = staticScatterAlloc(4);
  H.poke(Sym, makeHeader(ObjectTag::Symbol, 3));
  H.poke(Sym + SymbolNameSlot, Value::pointer(Str).Bits);
  H.poke(Sym + SymbolValueSlot, Value::unbound().Bits);
  H.poke(Sym + SymbolHashSlot, eqHash(Value::pointer(Sym)));
  SymbolIndex[Name] = Sym;
  return Sym;
}

std::string VM::symbolName(Address SymAddr) const {
  for (const auto &[Name, Addr] : SymbolIndex)
    if (Addr == SymAddr)
      return Name;
  return "";
}

void VM::defineGlobal(const std::string &Name, Value V) {
  Address Sym = internSymbol(Name);
  H.poke(Sym + SymbolValueSlot, V.Bits);
}

Value VM::peekGlobal(const std::string &Name) {
  Address Sym = internSymbol(Name);
  return {H.peek(Sym + SymbolValueSlot)};
}

//===----------------------------------------------------------------------===//
// Code and primitives
//===----------------------------------------------------------------------===//

uint32_t VM::addCode(CodeObject C) {
  CodeTable.push_back(std::make_unique<CodeObject>(std::move(C)));
  return static_cast<uint32_t>(CodeTable.size() - 1);
}

int VM::primitiveId(const std::string &Name) const {
  auto It = PrimIndex.find(Name);
  return It == PrimIndex.end() ? -1 : static_cast<int>(It->second);
}

uint32_t VM::addPrimitive(Primitive P) {
  assert(PrimIndex.find(P.Name) == PrimIndex.end() && "duplicate primitive");
  uint32_t Id = static_cast<uint32_t>(Prims.size());
  PrimIndex[P.Name] = Id;
  Prims.push_back(std::move(P));
  return Id;
}

void VM::bindPrimitiveGlobals() {
  assert(LoadMode && "primitive globals are load-time objects");
  for (uint32_t Id = 0; Id != Prims.size(); ++Id) {
    const Primitive &P = Prims[Id];
    CodeObject Stub;
    Stub.Name = P.Name;
    Stub.PrimId = static_cast<int32_t>(Id);
    if (P.MaxArgs >= 0 && P.MaxArgs == P.MinArgs) {
      Stub.NumRequired = static_cast<uint32_t>(P.MinArgs);
      Stub.Code = {{Op::Prim, Id, Stub.NumRequired}, {Op::Return}};
    } else {
      Stub.Variadic = true;
      Stub.Code = {{Op::LocalRef, 1}, {Op::PrimSpread, Id}, {Op::Return}};
    }
    uint32_t CodeId = addCode(std::move(Stub));
    Value Clos = makeClosure(H, objectAllocator(), CodeId, 0);
    defineGlobal(P.Name, Clos);
  }
}

std::string VM::freshSymbolName() {
  return "g#" + std::to_string(++GensymCounter);
}

//===----------------------------------------------------------------------===//
// Compile-time datum construction
//===----------------------------------------------------------------------===//

Value VM::datumToValue(const Sexpr &S) {
  switch (S.K) {
  case Sexpr::Kind::Integer:
    if (S.Int < Value::MinFixnum || S.Int > Value::MaxFixnum)
      vmFatal("integer literal %lld exceeds the fixnum range",
              static_cast<long long>(S.Int));
    return Value::fixnum(static_cast<int32_t>(S.Int));
  case Sexpr::Kind::Real: {
    StaticAllocator SA(*this);
    return makeFlonum(H, SA, S.Real);
  }
  case Sexpr::Kind::String: {
    StaticAllocator SA(*this);
    return makeString(H, SA, S.Text);
  }
  case Sexpr::Kind::Char:
    return Value::character(static_cast<uint32_t>(S.Int));
  case Sexpr::Kind::Bool:
    return Value::boolean(S.Int != 0);
  case Sexpr::Kind::Symbol:
    return symbolFor(S.Text);
  case Sexpr::Kind::List: {
    Value Tail = S.DottedTail ? datumToValue(*S.DottedTail) : Value::nil();
    StaticAllocator SA(*this);
    for (size_t I = S.Elems.size(); I-- > 0;) {
      Value Head = datumToValue(S.Elems[I]);
      Tail = makePair(H, SA, Head, Tail);
    }
    return Tail;
  }
  }
  vmFatal("unreachable datum kind");
}

//===----------------------------------------------------------------------===//
// Execution engine
//===----------------------------------------------------------------------===//

void VM::enterCall(uint32_t Argc, bool Tail) {
  uint32_t FPx;
  if (Tail) {
    FPx = Frames.back().FP;
    uint32_t Src = SP - 1 - Argc;
    if (Src != FPx)
      for (uint32_t I = 0; I <= Argc; ++I)
        H.storeStack(FPx + I, H.loadStack(Src + I));
    SP = FPx + 1 + Argc;
  } else {
    FPx = SP - 1 - Argc;
  }

  Value Callee = H.loadStack(FPx);
  if (!isClosure(H, Callee))
    vmFatal("call to a non-procedure value: %s",
            valueToString(Callee, /*WriteStyle=*/true).c_str());
  uint32_t CodeId = closureCodeId(H, Callee);
  const CodeObject &C = code(CodeId);
  // Interrupt / stack-limit poll against the hot runtime vector.
  (void)H.load(RuntimeVec + 4);

  if (C.Variadic) {
    if (Argc < C.NumRequired)
      vmFatal("%s: expected at least %u arguments, got %u", C.Name.c_str(),
              C.NumRequired, Argc);
    uint32_t Extra = Argc - C.NumRequired;
    // Build the rest list back to front, keeping the partial list rooted
    // on the stack across each (possibly collecting) allocation.
    push(Value::nil());
    for (uint32_t I = 0; I != Extra; ++I) {
      Address PairA = allocateObject(3);
      Value Rest = pop();
      Value Arg = H.loadStack(FPx + 1 + C.NumRequired + Extra - 1 - I);
      initPair(H, PairA, Arg, Rest);
      push(Value::pointer(PairA));
    }
    Value Rest = pop();
    H.storeStack(FPx + 1 + C.NumRequired, Rest);
    SP = FPx + 1 + C.NumRequired + 1;
  } else if (Argc != C.NumRequired) {
    vmFatal("%s: expected %u arguments, got %u", C.Name.c_str(),
            C.NumRequired, Argc);
  }

  for (uint32_t I = 0; I != C.NumLocals; ++I)
    push(Value::unspecified());

  // A tail call keeps PrimArgs: an apply's call completes when its tail
  // callee returns.
  if (Tail)
    Frames.back() = {CodeId, 0, FPx, Frames.back().PrimArgs};
  else
    Frames.push_back({CodeId, 0, FPx});
}

void VM::interpret(size_t Base) {
  for (;;) {
    // The current frame lives in these locals until an op pushes, pops or
    // replaces frames: a call, a return, a continuation, or apply. Those
    // that come back to this frame (calls, call/cc, apply) write PC back
    // first; after any of them the inner loop ends and the frames are read
    // afresh.
    const Frame &Cur = Frames.back();
    const CodeObject &C = *CodeTable[Cur.CodeId];
    const Instr *const Code = C.Code.data();
    const Value *const Consts = C.Consts.data();
    uint32_t PC = Cur.PC;
    const uint32_t FP = Cur.FP;
    bool FramesChanged = false;
    // Set by a return from a call an apply made: the arguments of the
    // primitive op that completes now.
    uint32_t Completes = 0;
    do {
      assert(PC < C.Code.size() && "fell off the end of a code object");
      const Instr &In = Code[PC++];
      Instructions += InstructionsPerOpcode;

      switch (In.Code) {
      case Op::Const:
        push(Consts[In.A]);
        break;
      case Op::GlobalRef: {
        Address Sym = Consts[In.A].asPointer();
        Value V = H.loadValue(Sym + SymbolValueSlot);
        if (V.isImm(Imm::Unbound))
          vmFatal("unbound variable: %s", symbolName(Sym).c_str());
        push(V);
        break;
      }
      case Op::GlobalSet:
      case Op::GlobalDef: {
        Address Sym = Consts[In.A].asPointer();
        Value V = pop();
        // Static slots are scanned as roots by every collector; no barrier.
        H.storeValue(Sym + SymbolValueSlot, V);
        push(Value::unspecified());
        break;
      }
      case Op::LocalRef:
        push(H.loadStack(FP + In.A));
        break;
      case Op::LocalSet: {
        Value V = pop();
        H.storeStack(FP + In.A, V);
        break;
      }
      case Op::FreeRef: {
        Value Clos = H.loadStack(FP);
        push(closureFree(H, Clos, In.A));
        break;
      }
      case Op::MakeClosure: {
        uint32_t NumFree = In.B;
        Address A = allocateObject(2 + NumFree); // Captures stay stack-rooted.
        H.store(A, makeHeader(ObjectTag::Closure, 1 + NumFree));
        H.storeValue(A + 4, Value::fixnum(static_cast<int32_t>(In.A)));
        for (uint32_t I = 0; I != NumFree; ++I)
          H.storeValue(A + 8 + I * 4, H.loadStack(SP - NumFree + I));
        SP -= NumFree;
        push(Value::pointer(A));
        break;
      }
      case Op::MakeCell: {
        Address A = allocateObject(2); // Initializer stays stack-rooted.
        Value V = pop();
        H.store(A, makeHeader(ObjectTag::Cell, 1));
        H.storeValue(A + 4, V);
        push(Value::pointer(A));
        break;
      }
      case Op::CellRef: {
        Value Cell = pop();
        assert(isObject(H, Cell, ObjectTag::Cell) && "cell-ref of non-cell");
        push(cellRef(H, Cell));
        break;
      }
      case Op::CellSet: {
        Value V = pop();
        Value Cell = pop();
        assert(isObject(H, Cell, ObjectTag::Cell) && "cell-set of non-cell");
        mutateStore(Cell.asPointer() + 4, V);
        push(Value::unspecified());
        break;
      }
      case Op::Jump:
        PC = In.A;
        break;
      case Op::JumpIfFalse: {
        Value V = pop();
        if (V.isFalse())
          PC = In.A;
        break;
      }
      case Op::Call:
      case Op::TailCall:
        Frames.back().PC = PC;
        enterCall(In.A, /*Tail=*/In.Code == Op::TailCall);
        FramesChanged = true;
        break;
      case Op::Return: {
        Value V = pop();
        SP = FP;
        Completes = Frames.back().PrimArgs;
        Frames.pop_back();
        push(V);
        FramesChanged = true;
        break;
      }
      case Op::Prim:
      case Op::PrimSpread: {
        uint32_t Argc = In.B;
        if (In.Code == Op::PrimSpread) {
          Value List = pop();
          for (Argc = 0; !List.isNil(); ++Argc) {
            assert(isPair(H, List) && "prim-spread of a non-list");
            push(carOf(H, List));
            List = cdrOf(H, List);
          }
        }
        const Primitive &P = Prims[In.A];
        if (static_cast<int>(Argc) < P.MinArgs ||
            (P.MaxArgs >= 0 && static_cast<int>(Argc) > P.MaxArgs))
          vmFatal("%s: bad argument count %u", P.Name.c_str(), Argc);
        Instructions += P.ExtraCost;
        Value R = P.Fn(*this, Argc);
        if (PendingApply) {
          // apply: the op completes, and takes its bytecode tick, when the
          // call returns (Completes).
          uint32_t N = *PendingApply;
          PendingApply.reset();
          Frames.back().PC = PC;
          enterCall(N, /*Tail=*/false);
          Frames.back().PrimArgs = Argc;
          FramesChanged = true;
          continue;
        }
        SP -= Argc;
        push(R);
        break;
      }
      case Op::Pop:
        assert(SP > 0 && "stack underflow");
        --SP; // Discards are pointer arithmetic, not memory traffic.
        break;
      case Op::CallCC: {
        // Stack: [.. f]; the continuation excludes f and resumes at this
        // frame's (already advanced) PC with the passed value on top.
        Frames.back().PC = PC;
        uint32_t SnapSP = SP - 1;
        uint32_t ContId = static_cast<uint32_t>(ContTable.size());
        ContTable.push_back(Frames);

        if (ContStubCodeId < 0) {
          CodeObject Stub;
          Stub.Name = "continuation";
          Stub.NumRequired = 1;
          Stub.Code = {{Op::RestoreCont}};
          ContStubCodeId = static_cast<int32_t>(addCode(std::move(Stub)));
        }

        // Copy the live stack into a heap vector (traced loads and stores —
        // continuation capture is real memory traffic, as in T). f stays
        // rooted on the stack across the allocations.
        Address VecA = allocateObject(1 + SnapSP);
        H.store(VecA, makeHeader(ObjectTag::Vector, SnapSP));
        for (uint32_t I = 0; I != SnapSP; ++I)
          H.storeValue(VecA + 4 + I * 4, H.loadStack(I));

        push(Value::pointer(VecA)); // Root the copy across the next alloc.
        Address ClosA = allocateObject(4);
        Value VecV = pop();
        H.store(ClosA, makeHeader(ObjectTag::Closure, 3));
        H.storeValue(ClosA + 4, Value::fixnum(ContStubCodeId));
        H.storeValue(ClosA + 8, VecV);
        H.storeValue(ClosA + 12, Value::fixnum(static_cast<int32_t>(ContId)));

        push(Value::pointer(ClosA)); // Stack: [.. f cont]
        enterCall(1, /*Tail=*/false);
        FramesChanged = true;
        break;
      }
      case Op::RestoreCont: {
        // Frame: [cont value]. Restore the captured stack and frames, then
        // deliver the value to the capture point.
        Value Clos = H.loadStack(FP);
        Value Val = H.loadStack(FP + 1);
        Value Vec = closureFree(H, Clos, 0);
        uint32_t ContId =
            static_cast<uint32_t>(closureFree(H, Clos, 1).asFixnum());
        assert(ContId < ContTable.size() && "dangling continuation id");
        uint32_t Words = vectorLength(H, Vec);
        Address VecA = Vec.asPointer();
        for (uint32_t I = 0; I != Words; ++I)
          H.storeStack(I, H.loadValue(VecA + 4 + I * 4));
        SP = Words;
        Frames = ContTable[ContId]; // Copy: continuations are multi-shot.
        push(Val);
        FramesChanged = true;
        break;
      }
      case Op::PushUnspec:
        push(Value::unspecified());
        break;
      case Op::Halt:
        vmFatal("halt executed");
      }

      // A bytecode boundary is a safe point (no half-dispatched reference
      // anywhere) for the cancellation poll.
      if (tick()) {
        if (!FramesChanged)
          Frames.back().PC = PC;
        poll();
      }
    } while (!FramesChanged);

    if (Completes) {
      // The primitive op that made the call pops its arguments and pushes
      // the call's result.
      Value R = pop();
      SP -= Completes;
      push(R);
      if (tick())
        poll();
    }
    if (Frames.size() <= Base)
      return;
  }
}

void VM::poll() {
  H.flushTrace();
  pollCancellation("vm-step");
}

Value VM::execute(Value Thunk) {
  push(Thunk);
  size_t Base = Frames.size();
  enterCall(0, /*Tail=*/false);
  interpret(Base);
  return pop();
}

Value VM::executeCode(uint32_t CodeId) {
  Value Thunk = makeClosure(H, objectAllocator(), CodeId, 0);
  return execute(Thunk);
}

void VM::forEachHostRoot(const std::function<void(Value &)> &Fn) {
  for (Value *V : HostRoots)
    Fn(*V);
}

void VM::onPostGc() {
  // Hash tables notice the epoch change lazily on their next access.
}

//===----------------------------------------------------------------------===//
// Hash tables (address-keyed, rehash after GC)
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t TableBucketsSlot = 4;
constexpr uint32_t TableCountSlot = 8;
constexpr uint32_t TableEpochSlot = 12;

int32_t epochFixnum(uint64_t Epoch) {
  return static_cast<int32_t>(Epoch & 0xfffffff);
}
} // namespace

Value VM::makeTable(uint32_t Buckets) {
  assert(Buckets > 0 && "table needs at least one bucket");
  Value Vec = makeVector(H, objectAllocator(), Buckets, Value::nil());
  RootGuard G(*this, Vec);
  Address A = allocateObject(4);
  H.store(A, makeHeader(ObjectTag::HashTable, 3));
  H.storeValue(A + TableBucketsSlot, Vec);
  H.storeValue(A + TableCountSlot, Value::fixnum(0));
  H.storeValue(A + TableEpochSlot, Value::fixnum(epochFixnum(GC->epoch())));
  return Value::pointer(A);
}

void VM::rehashTable(Value Table, uint32_t NewBuckets) {
  RootGuard G(*this, Table);
  Value NewVec = makeVector(H, objectAllocator(), NewBuckets, Value::nil());
  // No allocation happens below, so addresses (and address hashes) are
  // stable while we relink the existing entry nodes into the new buckets.
  Value OldVec = H.loadValue(Table.asPointer() + TableBucketsSlot);
  uint32_t OldLen = vectorLength(H, OldVec);
  uint64_t Relinked = 0;
  for (uint32_t I = 0; I != OldLen; ++I) {
    Value Chain = vectorRef(H, OldVec, I);
    while (!Chain.isNil()) {
      Value Node = Chain;
      Chain = cdrOf(H, Node);
      Value Entry = carOf(H, Node);
      Value Key = carOf(H, Entry);
      uint32_t Idx = eqHash(Key) % NewBuckets;
      Value Head = vectorRef(H, NewVec, Idx);
      mutateStore(Node.asPointer() + 8, Head); // set-cdr! node -> old head
      mutateStore(NewVec.asPointer() + 4 + Idx * 4, Node);
      ++Relinked;
    }
  }
  mutateStore(Table.asPointer() + TableBucketsSlot, NewVec);
  H.storeValue(Table.asPointer() + TableEpochSlot,
               Value::fixnum(epochFixnum(GC->epoch())));
  // The paper's ΔI_prog: the program re-executes hashing work after a
  // collection because keys hash by address.
  chargeExtraInstructions(6 * Relinked + 2 * OldLen + 10);
}

void VM::ensureTableFresh(Value Table) {
  int32_t Seen = H.loadValue(Table.asPointer() + TableEpochSlot).asFixnum();
  if (Seen == epochFixnum(GC->epoch()))
    return;
  Value Vec = H.loadValue(Table.asPointer() + TableBucketsSlot);
  rehashTable(Table, vectorLength(H, Vec));
}

Value VM::tableRef(Value Table, Value Key, Value Default) {
  assert(isObject(H, Table, ObjectTag::HashTable) && "not a hash table");
  RootGuard G1(*this, Table), G2(*this, Key), G3(*this, Default);
  ensureTableFresh(Table);
  Value Vec = H.loadValue(Table.asPointer() + TableBucketsSlot);
  uint32_t Len = vectorLength(H, Vec);
  Value Chain = vectorRef(H, Vec, eqHash(Key) % Len);
  while (!Chain.isNil()) {
    Value Entry = carOf(H, Chain);
    chargeInstructions(3);
    if (eqv(carOf(H, Entry), Key))
      return cdrOf(H, Entry);
    Chain = cdrOf(H, Chain);
  }
  return Default;
}

void VM::tableSet(Value Table, Value Key, Value V) {
  assert(isObject(H, Table, ObjectTag::HashTable) && "not a hash table");
  RootGuard G1(*this, Table), G2(*this, Key), G3(*this, V);
  ensureTableFresh(Table);

  Value Vec = H.loadValue(Table.asPointer() + TableBucketsSlot);
  uint32_t Len = vectorLength(H, Vec);
  uint32_t Count = static_cast<uint32_t>(
      H.loadValue(Table.asPointer() + TableCountSlot).asFixnum());
  if (Count + 1 > 2 * Len) {
    rehashTable(Table, Len * 2);
    Vec = H.loadValue(Table.asPointer() + TableBucketsSlot);
    Len = Len * 2;
  }

  Value Chain = vectorRef(H, Vec, eqHash(Key) % Len);
  while (!Chain.isNil()) {
    Value Entry = carOf(H, Chain);
    chargeInstructions(3);
    if (eqv(carOf(H, Entry), Key)) {
      mutateStore(Entry.asPointer() + 8, V);
      return;
    }
    Chain = cdrOf(H, Chain);
  }

  // Insert: allocate the entry and the chain node first (Table/Key/V are
  // guarded), then recompute the bucket — the key's address, and thus its
  // hash, may have changed if an allocation collected.
  Value Entry = makePair(H, objectAllocator(), Key, V);
  RootGuard G4(*this, Entry);
  Value Node = makePair(H, objectAllocator(), Entry, Value::nil());
  Vec = H.loadValue(Table.asPointer() + TableBucketsSlot);
  Len = vectorLength(H, Vec);
  uint32_t Idx = eqHash(Key) % Len;
  Value Head = vectorRef(H, Vec, Idx);
  mutateStore(Node.asPointer() + 8, Head);
  mutateStore(Vec.asPointer() + 4 + Idx * 4, Node);
  Count = static_cast<uint32_t>(
      H.loadValue(Table.asPointer() + TableCountSlot).asFixnum());
  H.storeValue(Table.asPointer() + TableCountSlot,
               Value::fixnum(static_cast<int32_t>(Count + 1)));
}

int32_t VM::tableCount(Value Table) {
  assert(isObject(H, Table, ObjectTag::HashTable) && "not a hash table");
  return H.loadValue(Table.asPointer() + TableCountSlot).asFixnum();
}

//===----------------------------------------------------------------------===//
// Equality and printing
//===----------------------------------------------------------------------===//

bool VM::eqv(Value A, Value B) {
  if (A.Bits == B.Bits)
    return true;
  if (isFlonum(H, A) && isFlonum(H, B))
    return flonumValue(H, A) == flonumValue(H, B);
  return false;
}

bool VM::deepEqual(Value A, Value B, uint32_t Depth) {
  if (Depth > 100000)
    vmFatal("equal?: structure too deep (cyclic?)");
  if (eqv(A, B))
    return true;
  chargeInstructions(2);
  if (isPair(H, A) && isPair(H, B))
    return deepEqual(carOf(H, A), carOf(H, B), Depth + 1) &&
           deepEqual(cdrOf(H, A), cdrOf(H, B), Depth + 1);
  if (isString(H, A) && isString(H, B))
    return readString(H, A) == readString(H, B);
  if (isVector(H, A) && isVector(H, B)) {
    uint32_t LA = vectorLength(H, A);
    if (LA != vectorLength(H, B))
      return false;
    for (uint32_t I = 0; I != LA; ++I)
      if (!deepEqual(vectorRef(H, A, I), vectorRef(H, B, I), Depth + 1))
        return false;
    return true;
  }
  return false;
}

std::string VM::valueToString(Value V, bool WriteStyle, uint32_t Depth) {
  if (Depth > 64)
    return "...";
  if (V.isFixnum())
    return std::to_string(V.asFixnum());
  if (V.isImmediate()) {
    if (V.isNil())
      return "()";
    if (V.isImm(Imm::True))
      return "#t";
    if (V.isImm(Imm::False))
      return "#f";
    if (V.isChar()) {
      char C = static_cast<char>(V.charCode());
      if (!WriteStyle)
        return std::string(1, C);
      if (C == ' ')
        return "#\\space";
      if (C == '\n')
        return "#\\newline";
      return std::string("#\\") + C;
    }
    if (V.isImm(Imm::Eof))
      return "#<eof>";
    if (V.isImm(Imm::Unbound))
      return "#<unbound>";
    return "#<unspecified>";
  }

  Address A = V.asPointer();
  switch (peekTag(H, A)) {
  case ObjectTag::Pair: {
    std::string Out = "(";
    Value Cur = V;
    bool First = true;
    while (isPair(H, Cur)) {
      if (!First)
        Out += ' ';
      First = false;
      Out += valueToString(carOf(H, Cur), WriteStyle, Depth + 1);
      Cur = cdrOf(H, Cur);
      if (Out.size() > 65536)
        return Out + " ...)";
    }
    if (!Cur.isNil()) {
      Out += " . ";
      Out += valueToString(Cur, WriteStyle, Depth + 1);
    }
    return Out + ")";
  }
  case ObjectTag::Vector: {
    std::string Out = "#(";
    uint32_t Len = vectorLength(H, V);
    for (uint32_t I = 0; I != Len; ++I) {
      if (I)
        Out += ' ';
      Out += valueToString(vectorRef(H, V, I), WriteStyle, Depth + 1);
    }
    return Out + ")";
  }
  case ObjectTag::String: {
    std::string S = readString(H, V);
    return WriteStyle ? "\"" + S + "\"" : S;
  }
  case ObjectTag::Symbol:
    return readString(H, {H.load(A + SymbolNameSlot)});
  case ObjectTag::Flonum: {
    char Buf[48];
    double D = flonumValue(H, V);
    snprintf(Buf, sizeof(Buf), "%g", D);
    std::string S = Buf;
    if (S.find('.') == std::string::npos &&
        S.find('e') == std::string::npos && S.find("inf") == std::string::npos &&
        S.find("nan") == std::string::npos)
      S += ".";
    return S;
  }
  case ObjectTag::Cell:
    return "#<cell>";
  case ObjectTag::HashTable:
    return "#<hash-table>";
  case ObjectTag::Closure: {
    uint32_t Id = closureCodeId(H, V);
    return "#<procedure " + code(Id).Name + ">";
  }
  case ObjectTag::Forward:
    return "#<forwarded!>";
  case ObjectTag::FreeChunk:
    return "#<free-chunk>";
  }
  return "#<?>";
}
