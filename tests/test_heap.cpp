//===- test_heap.cpp - Heap, value, and object-model unit tests ---------------===//

#include "gcache/heap/Heap.h"
#include "gcache/heap/HeapVerifier.h"
#include "gcache/heap/ObjectModel.h"
#include "gcache/trace/Sinks.h"

#include <gtest/gtest.h>

using namespace gcache;

//===----------------------------------------------------------------------===//
// Tagged values
//===----------------------------------------------------------------------===//

TEST(Value, FixnumRoundTrip) {
  EXPECT_EQ(Value::fixnum(0).asFixnum(), 0);
  EXPECT_EQ(Value::fixnum(12345).asFixnum(), 12345);
  EXPECT_EQ(Value::fixnum(-12345).asFixnum(), -12345);
  EXPECT_EQ(Value::fixnum(Value::MaxFixnum).asFixnum(), Value::MaxFixnum);
  EXPECT_EQ(Value::fixnum(Value::MinFixnum).asFixnum(), Value::MinFixnum);
}

TEST(Value, PointerRoundTrip) {
  Value P = Value::pointer(0x12345678 & ~3u);
  EXPECT_TRUE(P.isPointer());
  EXPECT_EQ(P.asPointer(), 0x12345678u & ~3u);
  EXPECT_FALSE(P.isFixnum());
  EXPECT_FALSE(P.isImmediate());
}

TEST(Value, Immediates) {
  EXPECT_TRUE(Value::nil().isNil());
  EXPECT_TRUE(Value::boolean(false).isFalse());
  EXPECT_FALSE(Value::boolean(true).isFalse());
  EXPECT_TRUE(Value::boolean(false).isImmediate());
  EXPECT_EQ(Value::character('x').charCode(), static_cast<uint32_t>('x'));
  EXPECT_TRUE(Value::unbound().isImm(Imm::Unbound));
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value::boolean(false).isTruthy());
  EXPECT_TRUE(Value::boolean(true).isTruthy());
  EXPECT_TRUE(Value::fixnum(0).isTruthy()) << "0 is true in Scheme";
  EXPECT_TRUE(Value::nil().isTruthy()) << "() is true in this dialect";
}

TEST(Value, TagsAreDisjoint) {
  EXPECT_TRUE(Value::fixnum(7).isFixnum());
  EXPECT_FALSE(Value::fixnum(7).isPointer());
  EXPECT_FALSE(Value::character('a').isFixnum());
  EXPECT_FALSE(Value::character('a').isPointer());
}

//===----------------------------------------------------------------------===//
// Headers and forwarding
//===----------------------------------------------------------------------===//

TEST(Header, EncodeDecode) {
  uint32_t H = makeHeader(ObjectTag::Vector, 100);
  EXPECT_EQ(headerTag(H), ObjectTag::Vector);
  EXPECT_EQ(headerPayloadWords(H), 100u);
  EXPECT_EQ(headerObjectWords(H), 101u);
}

TEST(Header, NoTagCollidesWithForwardMark) {
  for (ObjectTag T :
       {ObjectTag::Pair, ObjectTag::Vector, ObjectTag::String,
        ObjectTag::Symbol, ObjectTag::Flonum, ObjectTag::Cell,
        ObjectTag::HashTable, ObjectTag::Closure, ObjectTag::Forward})
    EXPECT_FALSE(isForwardedHeader(makeHeader(T, 5)))
        << static_cast<int>(T);
}

TEST(Header, ForwardingRoundTrip) {
  Address Target = Heap::DynamicBase + 0x400;
  uint32_t H = makeForwardHeader(Target);
  EXPECT_TRUE(isForwardedHeader(H));
  EXPECT_EQ(forwardTarget(H), Target);
}

//===----------------------------------------------------------------------===//
// Heap regions and allocation
//===----------------------------------------------------------------------===//

TEST(Heap, StaticAllocationAdvances) {
  Heap H;
  Address A = H.allocStatic(4);
  Address B = H.allocStatic(2);
  EXPECT_EQ(A, Heap::StaticBase);
  EXPECT_EQ(B, A + 16);
  EXPECT_EQ(H.staticFrontier(), B + 8);
}

TEST(Heap, DynamicAllocationEmitsEvents) {
  CountingSink Counts;
  Heap H(&Counts);
  Address A = H.allocDynamicRaw(3);
  EXPECT_EQ(A, Heap::DynamicBase);
  EXPECT_EQ(Counts.allocatedBytes(), 12u);
  EXPECT_EQ(H.dynamicBytesAllocated(), 12u);
}

TEST(Heap, LoadStoreTraced) {
  CountingSink Counts;
  Heap H(&Counts);
  Address A = H.allocDynamicRaw(2);
  H.store(A, 42);
  EXPECT_EQ(H.load(A), 42u);
  H.flushTrace();
  EXPECT_EQ(Counts.loads(Phase::Mutator), 1u);
  EXPECT_EQ(Counts.stores(Phase::Mutator), 1u);
}

TEST(Heap, TracingCanBeDisabled) {
  CountingSink Counts;
  Heap H(&Counts);
  Address A = H.allocDynamicRaw(2);
  H.setTracing(false);
  H.store(A, 1);
  (void)H.load(A);
  EXPECT_EQ(Counts.totalRefs(), 0u);
}

TEST(Heap, PhaseTagging) {
  CountingSink Counts;
  Heap H(&Counts);
  Address A = H.allocDynamicRaw(1);
  H.setPhase(Phase::Collector);
  H.store(A, 7);
  H.flushTrace();
  EXPECT_EQ(Counts.stores(Phase::Collector), 1u);
  EXPECT_EQ(Counts.stores(Phase::Mutator), 0u);
}

TEST(Heap, PeekPokeUntraced) {
  CountingSink Counts;
  Heap H(&Counts);
  Address A = H.allocDynamicRaw(1);
  H.poke(A, 99);
  EXPECT_EQ(H.peek(A), 99u);
  EXPECT_EQ(Counts.totalRefs(), 0u);
}

TEST(Heap, StackSlots) {
  Heap H;
  EXPECT_EQ(H.stackSlotAddr(0), Heap::StackBase);
  EXPECT_EQ(H.stackSlotAddr(10), Heap::StackBase + 40);
  H.store(H.stackSlotAddr(5), 123);
  EXPECT_EQ(H.load(H.stackSlotAddr(5)), 123u);
}

TEST(Heap, SemispaceLimit) {
  Heap H;
  H.setDynamicLimit(Heap::DynamicBase + 64);
  EXPECT_EQ(H.dynamicWordsLeft(), 16u);
  (void)H.allocDynamicRaw(10);
  EXPECT_EQ(H.dynamicWordsLeft(), 6u);
  H.setDynamicLimit(0);
  EXPECT_EQ(H.dynamicWordsLeft(), UINT32_MAX);
}

TEST(Heap, RegionBasesAreStaggered) {
  // The stack must not share cache blocks with the static base in any
  // power-of-two cache up to 4 MB (see Heap.h).
  for (uint32_t CacheBytes = 32u << 10; CacheBytes <= (4u << 20);
       CacheBytes *= 2)
    EXPECT_NE((Heap::StackBase / 64) % (CacheBytes / 64),
              (Heap::StaticBase / 64) % (CacheBytes / 64))
        << CacheBytes;
}

//===----------------------------------------------------------------------===//
// Object model
//===----------------------------------------------------------------------===//

class ObjectModelTest : public ::testing::Test {
protected:
  Heap H;
  BumpAllocator Alloc{H};
};

TEST_F(ObjectModelTest, Pairs) {
  Value P = makePair(H, Alloc, Value::fixnum(1), Value::fixnum(2));
  EXPECT_TRUE(isPair(H, P));
  EXPECT_EQ(carOf(H, P).asFixnum(), 1);
  EXPECT_EQ(cdrOf(H, P).asFixnum(), 2);
  setCar(H, P, Value::fixnum(9));
  EXPECT_EQ(carOf(H, P).asFixnum(), 9);
}

TEST_F(ObjectModelTest, Vectors) {
  Value V = makeVector(H, Alloc, 5, Value::fixnum(7));
  EXPECT_TRUE(isVector(H, V));
  EXPECT_EQ(vectorLength(H, V), 5u);
  for (uint32_t I = 0; I != 5; ++I)
    EXPECT_EQ(vectorRef(H, V, I).asFixnum(), 7);
  vectorSet(H, V, 2, Value::fixnum(-1));
  EXPECT_EQ(vectorRef(H, V, 2).asFixnum(), -1);
}

TEST_F(ObjectModelTest, EmptyVector) {
  Value V = makeVector(H, Alloc, 0, Value::nil());
  EXPECT_EQ(vectorLength(H, V), 0u);
}

TEST_F(ObjectModelTest, Strings) {
  Value S = makeString(H, Alloc, "hello world");
  EXPECT_TRUE(isString(H, S));
  EXPECT_EQ(stringLength(H, S), 11u);
  EXPECT_EQ(stringRef(H, S, 4), 'o');
  EXPECT_EQ(readString(H, S), "hello world");
}

TEST_F(ObjectModelTest, EmptyString) {
  Value S = makeString(H, Alloc, "");
  EXPECT_EQ(stringLength(H, S), 0u);
  EXPECT_EQ(readString(H, S), "");
}

TEST_F(ObjectModelTest, StringOddLengths) {
  for (size_t Len = 1; Len != 10; ++Len) {
    std::string In(Len, 'a' + static_cast<char>(Len));
    EXPECT_EQ(readString(H, makeString(H, Alloc, In)), In);
  }
}

TEST_F(ObjectModelTest, Flonums) {
  Value F = makeFlonum(H, Alloc, 3.14159);
  EXPECT_TRUE(isFlonum(H, F));
  EXPECT_DOUBLE_EQ(flonumValue(H, F), 3.14159);
  Value Neg = makeFlonum(H, Alloc, -0.0);
  EXPECT_EQ(flonumValue(H, Neg), 0.0);
}

TEST_F(ObjectModelTest, Cells) {
  Value C = makeCell(H, Alloc, Value::fixnum(5));
  EXPECT_EQ(cellRef(H, C).asFixnum(), 5);
  cellSet(H, C, Value::fixnum(6));
  EXPECT_EQ(cellRef(H, C).asFixnum(), 6);
}

TEST_F(ObjectModelTest, Closures) {
  Value C = makeClosure(H, Alloc, 17, 2);
  EXPECT_TRUE(isClosure(H, C));
  EXPECT_EQ(closureCodeId(H, C), 17u);
  closureSetFree(H, C, 1, Value::fixnum(42));
  EXPECT_EQ(closureFree(H, C, 1).asFixnum(), 42);
}

TEST_F(ObjectModelTest, ValueSlotsCoverPointers) {
  uint32_t First, Count;
  objectValueSlots(ObjectTag::Pair, 2, First, Count);
  EXPECT_EQ(First, 0u);
  EXPECT_EQ(Count, 2u);
  objectValueSlots(ObjectTag::String, 4, First, Count);
  EXPECT_EQ(Count, 0u) << "strings hold raw bytes";
  objectValueSlots(ObjectTag::Closure, 3, First, Count);
  EXPECT_EQ(First, 1u) << "code id is not traced";
  EXPECT_EQ(Count, 2u);
  objectValueSlots(ObjectTag::Symbol, 3, First, Count);
  EXPECT_EQ(Count, 2u) << "name + value; hash is raw";
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST_F(ObjectModelTest, VerifierAcceptsWellFormedHeap) {
  Value P = makePair(H, Alloc, Value::fixnum(1), Value::nil());
  Value V = makeVector(H, Alloc, 3, P);
  (void)V;
  VerifyResult R = verifyHeapRange(
      H, Heap::DynamicBase, H.dynamicFrontier(),
      {{Heap::DynamicBase, H.dynamicFrontier()}});
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Objects, 2u);
}

TEST_F(ObjectModelTest, VerifierRejectsBadHeader) {
  Address A = Alloc.allocate(2);
  H.poke(A, 0xdeadbeef); // Implausible tag.
  VerifyResult R = verifyHeapRange(
      H, Heap::DynamicBase, H.dynamicFrontier(),
      {{Heap::DynamicBase, H.dynamicFrontier()}});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("header"), std::string::npos);
}

TEST_F(ObjectModelTest, VerifierRejectsWildPointer) {
  Value P = makePair(H, Alloc, Value::fixnum(1), Value::nil());
  // Point the car outside every valid range.
  H.poke(P.asPointer() + 4, Value::pointer(0x0f000000).Bits);
  VerifyResult R = verifyHeapRange(
      H, Heap::DynamicBase, H.dynamicFrontier(),
      {{Heap::DynamicBase, H.dynamicFrontier()}});
  EXPECT_FALSE(R.Ok);
}

TEST_F(ObjectModelTest, VerifierRejectsOverrun) {
  Address A = Alloc.allocate(2);
  H.poke(A, makeHeader(ObjectTag::Vector, 1000)); // Claims too many words.
  VerifyResult R = verifyHeapRange(
      H, Heap::DynamicBase, H.dynamicFrontier(),
      {{Heap::DynamicBase, H.dynamicFrontier()}});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("overruns"), std::string::npos);
}
