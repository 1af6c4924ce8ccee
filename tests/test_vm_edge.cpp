//===- test_vm_edge.cpp - VM edge cases and GC-interaction tests ---------------===//
//
// Edge cases beyond the language suite in test_vm_eval.cpp: fixnum
// boundaries, scoping corner cases, allocation points that can collect
// mid-operation (rest-list construction, closure creation, table
// insertion), and interactions between assignment conversion and capture.
//
//===----------------------------------------------------------------------===//

#include "gcache/trace/Sinks.h"
#include "gcache/vm/SchemeSystem.h"

#include <gtest/gtest.h>

using namespace gcache;

namespace {

std::string evalWith(const std::string &Src, GcKind Gc,
                     uint32_t SpaceBytes) {
  SchemeSystemConfig C;
  C.Gc = Gc;
  C.SemispaceBytes = SpaceBytes;
  // A tiny nursery maximizes the chance of collecting inside any given
  // allocation site.
  C.Generational.NurseryBytes = 8 * 1024;
  C.Generational.OldSemispaceBytes = SpaceBytes;
  SchemeSystem S(C);
  Value V = S.run(Src);
  return S.vm().valueToString(V, /*WriteStyle=*/true);
}

std::string evalTiny(const std::string &Src) {
  // Evaluate under all three collectors with tiny spaces and require
  // agreement; returns the common result.
  std::string None = evalWith(Src, GcKind::None, 0);
  std::string Cheney = evalWith(Src, GcKind::Cheney, 192 * 1024);
  std::string Gen = evalWith(Src, GcKind::Generational, 192 * 1024);
  EXPECT_EQ(None, Cheney) << Src;
  EXPECT_EQ(None, Gen) << Src;
  return None;
}

/// What one run leaves: its value, the references it traced and the
/// instructions it was charged.
struct Trail {
  std::string Value;
  uint64_t Refs = 0;
  uint64_t Instructions = 0;
};

Trail runCounted(const std::string &Src, GcKind Gc) {
  CountingSink Counts;
  TraceBus Bus;
  Bus.addSink(&Counts);
  SchemeSystemConfig C;
  C.Gc = Gc;
  C.SemispaceBytes = 192 * 1024;
  C.Bus = &Bus;
  SchemeSystem S(C);
  Value V = S.run(Src);
  return {S.vm().valueToString(V, /*WriteStyle=*/true), Counts.totalRefs(),
          S.vm().instructions()};
}

/// Runs \p Src without a collector and under Cheney, expecting \p Value
/// from both, \p Refs without a collector and \p CheneyRefs under
/// Cheney, and \p Instructions from both.
void expectTrail(const std::string &Src, const std::string &Value,
                 uint64_t Refs, uint64_t CheneyRefs, uint64_t Instructions) {
  Trail None = runCounted(Src, GcKind::None);
  EXPECT_EQ(None.Value, Value) << Src;
  EXPECT_EQ(None.Refs, Refs) << Src;
  EXPECT_EQ(None.Instructions, Instructions) << Src;
  Trail Cheney = runCounted(Src, GcKind::Cheney);
  EXPECT_EQ(Cheney.Value, Value) << Src;
  EXPECT_EQ(Cheney.Refs, CheneyRefs) << Src;
  EXPECT_EQ(Cheney.Instructions, Instructions) << Src;
}

} // namespace

TEST(VmEdge, FixnumBoundaries) {
  EXPECT_EQ(evalTiny("(+ 536870911 0)"), "536870911"); // MaxFixnum
  EXPECT_EQ(evalTiny("(- -536870912 0)"), "-536870912");
  EXPECT_EQ(evalTiny("(- 536870911 536870911)"), "0");
}

TEST(VmEdge, FixnumOverflowPromotesNotWraps) {
  EXPECT_EQ(evalTiny("(< 536870911 (+ 536870911 1))"), "#t");
  EXPECT_EQ(evalTiny("(> -536870912 (- -536870912 1))"), "#t");
}

TEST(VmEdge, ShadowingPrimitiveNameLexically) {
  EXPECT_EQ(evalTiny("(let ((car cdr)) (car '(1 2 3)))"), "(2 3)")
      << "a lexical binding must defeat primitive integration";
}

TEST(VmEdge, ShadowedPrimitiveAsOperand) {
  // The shadowing binding must also win in operand (value) position.
  EXPECT_EQ(evalTiny("(let ((car cdr)) (map car '((1 2) (3 4))))"),
            "((2) (4))");
}

TEST(VmEdge, DeepVariadicCallUnderTinyNursery) {
  // Rest-list construction allocates one pair per extra argument; a
  // collection mid-construction must not lose the partial list.
  EXPECT_EQ(evalTiny("(define (spread . xs) (length xs))"
                     "(let loop ((i 0) (n 0))"
                     "  (if (= i 2000) n"
                     "      (loop (+ i 1) (+ n (spread 1 2 3 4 5 6 7 8)))))"),
            "16000");
}

TEST(VmEdge, ClosureCreationUnderPressure) {
  EXPECT_EQ(evalTiny("(define (adders n)"
                     "  (let loop ((i 0) (acc '()))"
                     "    (if (= i n) acc"
                     "        (loop (+ i 1)"
                     "              (cons (lambda (x) (+ x i)) acc)))))"
                     "(fold-left + 0 (map (lambda (f) (f 0)) (adders 500)))"),
            "124750");
}

TEST(VmEdge, TableInsertUnderPressure) {
  EXPECT_EQ(evalTiny("(define t (make-table 4))"
                     "(let loop ((i 0))"
                     "  (if (= i 400) 'done"
                     "      (begin (table-set! t (cons i i) i)"
                     "             (loop (+ i 1)))))"
                     "(table-count t)"),
            "400");
}

TEST(VmEdge, TableKeyedByMovedObjects) {
  // Keys hash by address; after a collection moves them, lookups through
  // the retained key object must still succeed (rehash).
  EXPECT_EQ(evalTiny("(define k1 (list 'k1))"
                     "(define k2 (list 'k2))"
                     "(define t (make-table))"
                     "(table-set! t k1 'a)"
                     "(table-set! t k2 'b)"
                     "(gc-collect!)"
                     "(list (table-ref t k1 #f) (table-ref t k2 #f))"),
            "(a b)");
}

TEST(VmEdge, SetOnCapturedLoopVariable) {
  EXPECT_EQ(evalTiny("(define fs '())"
                     "(let loop ((i 0))"
                     "  (if (< i 3)"
                     "      (begin (set! fs (cons (lambda () i) fs))"
                     "             (loop (+ i 1)))))"
                     "(map (lambda (f) (f)) fs)"),
            "(2 1 0)")
      << "each iteration's binding is distinct";
}

TEST(VmEdge, MutualRecursionThroughCells) {
  EXPECT_EQ(evalTiny("(define (f n) (if (= n 0) 'f-done (g (- n 1))))"
                     "(define (g n) (if (= n 0) 'g-done (f (- n 1))))"
                     "(list (f 7) (f 8))"),
            "(g-done f-done)");
}

TEST(VmEdge, ApplyEmptyList) {
  EXPECT_EQ(evalTiny("(apply + '())"), "0");
}

TEST(VmEdge, ApplyUserProcedure) {
  EXPECT_EQ(evalTiny("(define (three a b c) (list c b a))"
                     "(apply three 1 '(2 3))"),
            "(3 2 1)");
}

TEST(VmEdge, ApplyVariadicUserProcedure) {
  EXPECT_EQ(evalTiny("(apply (lambda xs (length xs)) 1 2 '(3 4 5))"), "5");
}

TEST(VmEdge, HigherOrderVariadicPrimitive) {
  // Variadic primitive used as a value goes through the PrimSpread stub.
  EXPECT_EQ(evalTiny("((lambda (f) (f 1 2 3 4)) +)"), "10");
  EXPECT_EQ(evalTiny("(fold-left (lambda (a b) (max a b)) 0 '(3 9 4))"),
            "9");
}

TEST(VmEdge, EqvOnRecreatedFlonums) {
  EXPECT_EQ(evalTiny("(eqv? (+ 0.5 0.25) (+ 0.25 0.5))"), "#t");
}

TEST(VmEdge, CharsRoundTripThroughStrings) {
  EXPECT_EQ(evalTiny("(list->vector (string->list \"ab\"))"),
            "#(#\\a #\\b)");
}

TEST(VmEdge, NestedQuotesAreData) {
  EXPECT_EQ(evalTiny("(car ''x)"), "quote");
  EXPECT_EQ(evalTiny("(cadr ''x)"), "x");
}

TEST(VmEdge, EmptyBodySequencesViaBegin) {
  EXPECT_EQ(evalTiny("(begin)"), "#<unspecified>");
}

TEST(VmEdge, LargeVectorSurvivesCollections) {
  EXPECT_EQ(evalTiny("(define v (make-vector 3000 1))"
                     "(gc-collect!)"
                     "(let loop ((i 0) (n 0))"
                     "  (if (= i 3000) n (loop (+ i 1) (+ n (vector-ref v i)))))"),
            "3000");
}

TEST(VmEdge, StringsWithAllByteValues) {
  // Packed string storage must round-trip arbitrary (printable) content
  // and odd lengths.
  EXPECT_EQ(evalTiny("(string-length (string-append \"abc\" \"de\"))"), "5");
  EXPECT_EQ(evalTiny("(string-ref (string-append \"abc\" \"de\") 4)"),
            "#\\e");
}

TEST(VmEdge, GensymsAreFresh) {
  EXPECT_EQ(evalTiny("(eq? (gensym) (gensym))"), "#f");
  EXPECT_EQ(evalTiny("(symbol? (gensym))"), "#t");
}

TEST(VmEdge, NumberToStringAndBack) {
  EXPECT_EQ(evalTiny("(string->number-digits (number->string 4096))"),
            "4096");
}

TEST(VmEdge, DeepNonTailRecursionNearStackUse) {
  // ~30k frames: well within the simulated 1M-word stack, and exercises
  // frame setup/teardown heavily.
  EXPECT_EQ(evalTiny("(define (depth n) (if (= n 0) 0 (+ 1 (depth (- n 1)))))"
                     "(depth 30000)"),
            "30000");
}

TEST(VmEdge, OutputInterleavingIsProgramOrder) {
  SchemeSystemConfig C;
  SchemeSystem S(C);
  S.run("(display 1) (display \"-\") (display 'two) (newline) (display 3.5)");
  EXPECT_EQ(S.vm().output(), "1-two\n3.5");
}

//===----------------------------------------------------------------------===//
// Quasiquote and do
//===----------------------------------------------------------------------===//

TEST(VmQuasi, PlainTemplateIsQuote) {
  EXPECT_EQ(evalTiny("`(a b c)"), "(a b c)");
  EXPECT_EQ(evalTiny("`atom"), "atom");
  EXPECT_EQ(evalTiny("`()"), "()");
}

TEST(VmQuasi, Unquote) {
  EXPECT_EQ(evalTiny("`(1 ,(+ 1 1) 3)"), "(1 2 3)");
  EXPECT_EQ(evalTiny("(define x 'mid) `(a ,x z)"), "(a mid z)");
}

TEST(VmQuasi, UnquoteSplicing) {
  EXPECT_EQ(evalTiny("`(1 ,@(list 2 3) 4)"), "(1 2 3 4)");
  EXPECT_EQ(evalTiny("`(,@'() a ,@(list 'b))"), "(a b)");
}

TEST(VmQuasi, NestedStructures) {
  EXPECT_EQ(evalTiny("`(a (b ,(+ 1 2)) (c ,@(list 4 5)))"),
            "(a (b 3) (c 4 5))");
}

TEST(VmQuasi, DottedTemplate) {
  EXPECT_EQ(evalTiny("`(a . ,(+ 1 1))"), "(a . 2)");
}

TEST(VmQuasi, NestedQuasiquoteStaysQuoted) {
  EXPECT_EQ(evalTiny("`(a `(b ,(c)))"),
            "(a (quasiquote (b (unquote (c)))))");
  EXPECT_EQ(evalTiny("(define y 9) `(a `(b ,,y))"),
            "(a (quasiquote (b (unquote 9))))");
}

TEST(VmDo, BasicLoop) {
  EXPECT_EQ(evalTiny("(do ((i 0 (+ i 1)) (acc 0 (+ acc i)))"
                     "    ((= i 5) acc))"),
            "10");
}

TEST(VmDo, BodyRunsEachIteration) {
  EXPECT_EQ(evalTiny("(define n 0)"
                     "(do ((i 0 (+ i 1))) ((= i 4)) (set! n (+ n 10)))"
                     "n"),
            "40");
}

TEST(VmDo, VariableWithoutStepIsConstant) {
  EXPECT_EQ(evalTiny("(do ((i 0 (+ i 1)) (k 7)) ((= i 3) k))"), "7");
}

TEST(VmDo, EmptyResultIsUnspecified) {
  EXPECT_EQ(evalTiny("(do ((i 0 (+ i 1))) ((= i 2)))"), "#<unspecified>");
}

TEST(VmDo, VectorBuildLoop) {
  EXPECT_EQ(evalTiny("(define v (make-vector 5 0))"
                     "(do ((i 0 (+ i 1))) ((= i 5) v)"
                     "  (vector-set! v i (* i i)))"),
            "#(0 1 4 9 16)");
}

//===----------------------------------------------------------------------===//
// call/cc
//===----------------------------------------------------------------------===//

TEST(VmCallCC, NonEscapingReturnsReceiverResult) {
  EXPECT_EQ(evalTiny("(call/cc (lambda (k) 42))"), "42");
}

TEST(VmCallCC, EscapeDeliversValue) {
  EXPECT_EQ(evalTiny("(+ 1 (call/cc (lambda (k) (k 10) 99)))"), "11");
}

TEST(VmCallCC, EscapeFromDeepRecursion) {
  EXPECT_EQ(evalTiny(
                "(define (find-first p l esc)"
                "  (cond ((null? l) #f)"
                "        ((p (car l)) (esc (car l)))"
                "        (else (find-first p (cdr l) esc))))"
                "(call/cc (lambda (esc)"
                "  (find-first even? '(1 3 5 8 9 11) esc)))"),
            "8");
}

TEST(VmCallCC, EscapeSkipsPendingWork) {
  EXPECT_EQ(evalTiny("(define n 0)"
                     "(call/cc (lambda (k)"
                     "  (set! n 1) (k 'out) (set! n 99)))"
                     "n"),
            "1");
}

TEST(VmCallCC, ContinuationIsFirstClassAndMultiShot) {
  // Re-entry works within a top-level form (continuations do not cross
  // top-level form boundaries in this dialect).
  EXPECT_EQ(evalTiny("(let ((saved #f))"
                     "  (let ((r (call/cc (lambda (k) (set! saved k) 0))))"
                     "    (if (< r 3) (saved (+ r 1)) r)))"),
            "3")
      << "the saved continuation re-enters the let three times";
}

TEST(VmCallCC, NestedCaptures) {
  EXPECT_EQ(evalTiny("(* 2 (call/cc (lambda (k1)"
                     "  (+ 100 (call/cc (lambda (k2) (k1 5)))))))"),
            "10");
  EXPECT_EQ(evalTiny("(* 2 (call/cc (lambda (k1)"
                     "  (+ 100 (call/cc (lambda (k2) (k2 5)))))))"),
            "210");
}

TEST(VmCallCC, LongNameAlias) {
  EXPECT_EQ(evalTiny("(call-with-current-continuation (lambda (k) (k 7)))"),
            "7");
}

TEST(VmCallCC, SurvivesCollectionsBetweenCaptureAndInvoke) {
  EXPECT_EQ(evalTiny("(let ((saved #f) (acc '()))"
                     "  (let ((r (call/cc (lambda (k) (set! saved k) 0))))"
                     "    (set! acc (cons r acc))"
                     "    (gc-collect!)"
                     "    (if (< r 2) (saved (+ r 1)) (reverse acc))))"),
            "(0 1 2)")
      << "the captured stack copy is heap data and must survive moves";
}

// apply's primitive op completes, popping its arguments and taking its
// bytecode tick, when the call it made returns. Every apply below returns
// normally, so the figures are fixed points of the reference stream: a
// change to how apply runs must not move them.
TEST(VmApply, CallsKeepTheirStream) {
  // Over 100,000 bytecodes, most of them inside apply, so the cancellation
  // poll falls inside apply's calls too.
  expectTrail("(define (sum . xs)"
              "  (if (null? xs) 0 (+ (car xs) (apply sum (cdr xs)))))"
              "(define (loop i acc)"
              "  (if (= i 0) acc"
              "      (loop (- i 1) (+ acc (apply sum (list i 1 2 3))))))"
              "(loop 2000 0)",
              "2013000", 626057, 627257, 648421);
  // Continuations that return normally inside apply.
  expectTrail("(define (g x) (call/cc (lambda (k) (if (> x 5) (k (* x 2)) x))))"
              "(apply + (map (lambda (i) (apply g (list i))) (list 1 3 5 7 9)))",
              "41", 1045, 1045, 1230);
  // apply in tail position, and apply applied.
  expectTrail("(define (f . xs) (if (null? xs) 0 (+ (car xs) (apply f (cdr xs)))))"
              "(define (tailer x) (apply f (list x x x)))"
              "(list (apply tailer (list 5)) (apply apply (list + (list 1 2 3))))",
              "(15 6)", 464, 464, 738);
  // Tail calls inside apply's call: the op completes when the tail callee
  // returns.
  expectTrail("(define (g x) (* x 2))"
              "(define (h x) (g (+ x 1)))"
              "(define (loop i acc)"
              "  (if (= i 0) acc"
              "      (loop (- i 1) (+ acc (apply h (list i))"
              "                       (apply (lambda (x) (h x)) (list i))"
              "                       (apply (lambda xs (apply + xs)) (list i 1))))))"
              "(list (apply h (list 5)) (loop 300 0))",
              "(12 227250)", 79051, 79051, 80919);
}

TEST(VmCallCC, ReentryInsideApplyKeepsItsStream) {
  // The continuation is captured and re-entered inside the procedure apply
  // called, across a collection. As above, the figures must not move.
  expectTrail("(apply (lambda (n)"
              "  (let ((saved #f) (acc '()))"
              "    (let ((r (call/cc (lambda (k) (set! saved k) n))))"
              "      (set! acc (cons r acc))"
              "      (gc-collect!)"
              "      (if (< r 3) (saved (+ r 1)) (reverse acc)))))"
              "  (list 0))",
              "(0 1 2 3)", 560, 5694, 1088);
}

// A continuation captured outside apply and invoked inside a procedure
// apply called drops apply's call with the other frames it replaces: the
// primitive op that called apply never completes, so it neither pops its
// arguments nor ticks. Completing it would return 20 here (its arguments'
// slots take the value), or overrun the stack.
TEST(VmCallCC, EscapeThroughApplyAbandonsIt) {
  expectTrail("(define (f)"
              "  (call/cc (lambda (k) (apply (lambda (x) (k x) 99) (list 10)))))"
              "(+ 1 (f))",
              "11", 110, 110, 445);
}

TEST(VmCallCC, SavedContinuationReenteredThroughApply) {
  // Each re-entry goes through apply, which it abandons.
  expectTrail("(let ((saved #f) (acc '()))"
              "  (let ((r (call/cc (lambda (k) (set! saved k) 0))))"
              "    (set! acc (cons r acc))"
              "    (if (< r 3) (apply saved (list (+ r 1))) (reverse acc))))",
              "(0 1 2 3)", 541, 541, 1076);
}

// A continuation captured inside apply's call holds the primitive op's
// completion: re-entered after that apply returned, the op pops its
// arguments again before its caller goes on. Without it the caller sees
// apply's arguments on the stack (+: not a number: ()).
TEST(VmCallCC, ReentryAfterApplyReturnedCompletesItsOp) {
  expectTrail("(define saved #f)"
              "(define n 0)"
              "(define (g)"
              "  (+ 100 (apply (lambda () (call/cc (lambda (k) (set! saved k) 1)))"
              "                '())))"
              "(let ((r (g)))"
              "  (set! n (+ n 1))"
              "  (if (< n 3) (saved (+ r 10)) (list r n)))",
              "(321 3)", 274, 274, 683);
}

TEST(VmEdge, ToplevelLetBindingAssignedFromInnerLambdaIsBoxed) {
  // Regression: top-level let bindings assigned from an inner lambda must
  // be boxed, just like bindings inside lambda bodies.
  EXPECT_EQ(evalTiny("(let ((n 0))"
                     "  (let ((bump (lambda () (set! n (+ n 1)))))"
                     "    (bump) (bump) n))"),
            "2");
  EXPECT_EQ(evalTiny("(let ((x 1)) (set! x 5) x)"), "5");
}
