#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "db/objfile.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

// Heap cell 0 is never handed out: RefCell(0) == 0 is also the "unset"
// value of clause-variable slots, so a query variable there would read as a
// clause variable not yet seen and lose its aliasing.
TEST(HeapCellZero, EngineQueryAliasesRepeatedHeadVariable) {
  // Nothing consulted: X is the first cell the fresh store allocates.
  Engine engine;
  EXPECT_EQ(engine.Count("X = _, assertz(p(A, A)), p(X, Y), X == Y").value(),
            1u);
  EXPECT_EQ(engine.Count("p(X, Y), X \\== Y").value(), 0u);
}

// A query's parsed goal lives on the heap and goes with the query: after
// any number of queries, and after a parse error, the heap is back at its
// pre-query size.
TEST(QueryHeap, EngineHeapReturnsToPreQuerySize) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("s(1, 3). s(1, 7). s(2, 9).\n").ok());
  size_t before = engine.store().HeapMark();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(engine.Count("s(1, X), X > 5").value(), 1u);
  }
  EXPECT_FALSE(engine.Count("s(1, X").ok());
  EXPECT_EQ(engine.store().HeapMark(), before);
}

// ** and ^ square and multiply: a huge exponent returns at once, with the
// value that multiplying the base in exponent times gives.
TEST(EngineArithmetic, PowerBySquaring) {
  Engine engine;
  EXPECT_EQ(engine.Count("X is 1 ** 100000000000").value(), 1u);
  Result<std::vector<Answer>> r = engine.FindAll(
      "A is 1 ** 100000000000, B is (-1) ^ 100000000001, C is 2 ** 59, "
      "D is 7 ** 0, E is 3 ** 37, F is 2 ** (-3)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  const Answer& a = r.value()[0];
  EXPECT_EQ(a["A"], "1");
  EXPECT_EQ(a["B"], "-1");
  EXPECT_EQ(a["C"], "576460752303423488");
  EXPECT_EQ(a["D"], "1");
  int64_t product = 1;
  for (int i = 0; i < 37; ++i) product *= 3;
  EXPECT_EQ(a["E"], std::to_string(product));
  EXPECT_EQ(a["F"], "1");
}

// retract/1, retractall/1 and clause/2 match stored clauses in place, over
// facts and rules alike.
TEST(ClauseMatching, RetractRuleByBodyPattern) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- dynamic r/1.\n"
                                 "r(1).\n"
                                 "r(X) :- X = 2.\n"
                                 "r(f(X)) :- s(X, X).\n")
                  .ok());
  // A bare pattern retracts facts only.
  EXPECT_FALSE(engine.Holds("retract(r(2))").value());
  // The body pattern is matched against the stored body.
  EXPECT_FALSE(engine.Holds("retract((r(X) :- X = 3))").value());
  Result<std::vector<Answer>> taken =
      engine.FindAll("retract((r(f(A)) :- s(B, C))), B == C");
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken.value().size(), 1u);
  EXPECT_TRUE(engine.Holds("retract((r(Y) :- Y = 2))").value());
  EXPECT_TRUE(engine.Holds("retract(r(1))").value());
  EXPECT_EQ(engine.Count("clause(r(_), _)").value(), 0u);
}

TEST(ClauseMatching, RetractallFactsAndRules) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- dynamic q/2.\n"
                                 "q(1, a). q(2, b). q(1, c).\n"
                                 "q(X, X) :- true.\n"
                                 "q(3, Y) :- Y = d.\n")
                  .ok());
  EXPECT_TRUE(engine.Holds("retractall(q(1, _))").value());
  // q(X, X) unified with q(1, _) and went too.
  EXPECT_EQ(engine.Count("clause(q(_, _), _)").value(), 2u);
  EXPECT_TRUE(engine.Holds("retractall(q(Z, Z))").value());
  // q(3, Y) unifies with q(Z, Z); q(2, b) does not.
  EXPECT_EQ(engine.Count("clause(q(_, _), _)").value(), 1u);
  EXPECT_TRUE(engine.Holds("q(2, b)").value());
  EXPECT_TRUE(engine.Holds("retractall(q(_, _))").value());
  EXPECT_EQ(engine.Count("q(_, _)").value(), 0u);
}

TEST(ClauseMatching, ClauseOverFactsAndRules) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("c(1, [a, b]).\n"
                                 "c(N, L) :- length(L, N), N > 0.\n"
                                 "c(X, X) :- d(X).\n")
                  .ok());
  Result<std::vector<Answer>> all = engine.FindAll("clause(c(A, B), Body)");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 3u);
  EXPECT_EQ(all.value()[0]["B"], "[a,b]");
  EXPECT_EQ(all.value()[0]["Body"], "true");
  EXPECT_TRUE(engine.Holds("clause(c(2, L), (length(L2, 2), _)), L == L2")
                  .value());
  // Read mode into the list, write mode into the unbound body.
  EXPECT_EQ(engine.Count("clause(c(1, [a, X]), B)").value(), 2u);
  EXPECT_EQ(engine.Count("clause(c(1, [a, c]), B)").value(), 1u);
  // The repeated head variable binds both goal arguments together.
  EXPECT_EQ(engine.Count("clause(c(P, Q), d(R))").value(), 1u);
  EXPECT_TRUE(engine.Holds("clause(c(P, Q), d(R)), P == Q, Q == R").value());
  EXPECT_FALSE(engine.Holds("clause(c(1, 2), d(_))").value());
}

TEST(EngineApi, QuickstartFlow) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2.\n"
                                 "path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "edge(1,2). edge(2,3). edge(3,1).\n")
                  .ok());
  Result<size_t> count = engine.Count("path(1, X)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 3u);

  Result<std::vector<Answer>> answers = engine.FindAll("path(1, X)");
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 3u);
  EXPECT_EQ(answers.value()[0]["X"], "2");
  EXPECT_EQ(answers.value()[0].ToString(), "X = 2");
}

TEST(EngineApi, ForEachStopsOnFalse) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("n(1). n(2). n(3).\n").ok());
  int seen = 0;
  ASSERT_TRUE(engine
                  .ForEach("n(X)",
                           [&seen](const Answer&) {
                             ++seen;
                             return seen < 2;
                           })
                  .ok());
  EXPECT_EQ(seen, 2);
}

TEST(EngineApi, HoldsAndErrors) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("p(a).\n").ok());
  EXPECT_TRUE(engine.Holds("p(a)").value());
  EXPECT_FALSE(engine.Holds("p(b)").value());
  EXPECT_FALSE(engine.Holds("undefined_thing(1)").ok());
  EXPECT_FALSE(engine.ConsultString("p(a) :- ").ok());
}

TEST(EngineApi, AnswersRenderCompoundTerms) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("holds(f(g(1), [a,b])).\n").ok());
  Result<std::vector<Answer>> answers = engine.FindAll("holds(T)");
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  EXPECT_EQ(answers.value()[0]["T"], "f(g(1),[a,b])");
}

TEST(EngineApi, GroundQueryHasEmptyBindings) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("p(a).\n").ok());
  Result<std::vector<Answer>> answers = engine.FindAll("p(a)");
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  EXPECT_EQ(answers.value()[0].ToString(), "true");
}

TEST(EngineApi, ObjectFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/xsb_objfile_test.xob";
  {
    Engine engine;
    ASSERT_TRUE(engine
                    .ConsultString(":- table tc/2.\n"
                                   "tc(X,Y) :- e(X,Y).\n"
                                   "tc(X,Y) :- tc(X,Z), e(Z,Y).\n"
                                   "e(1,2). e(2,3). e(a,f(b)).\n")
                    .ok());
    ASSERT_TRUE(engine.SaveObjectFile(path).ok());
  }
  Engine fresh;
  Result<size_t> loaded = fresh.LoadObjectFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), 5u);
  // Tabling attribute survives; answers match.
  EXPECT_EQ(fresh.Count("tc(1, X)").value(), 2u);
  EXPECT_TRUE(fresh.Holds("e(a, f(b))").value());
  std::remove(path.c_str());
}

TEST(EngineApi, ObjectFileRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/xsb_objfile_garbage.xob";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an object file at all";
  }
  Engine engine;
  EXPECT_FALSE(engine.LoadObjectFile(path).ok());
  std::remove(path.c_str());
}

TEST(EngineApi, SpecializeHiLogThroughFacade) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("edge(1,2). edge(2,3).\n"
                                 ":- table apply/3.\n"
                                 "closure(G)(X,Y) :- G(X,Y).\n"
                                 "closure(G)(X,Y) :- closure(G)(X,Z), "
                                 "G(Z,Y).\n")
                  .ok());
  EXPECT_EQ(engine.Count("closure(edge)(1, Y)").value(), 2u);
  engine.AbolishAllTables();
  ASSERT_TRUE(engine.SpecializeHiLog().ok());
  EXPECT_EQ(engine.Count("closure(edge)(1, Y)").value(), 2u);
}

TEST(EngineApi, TabledNegationThroughFacade) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table win/1.\n"
                                 "win(X) :- move(X,Y), tnot win(Y).\n"
                                 "move(1,2). move(2,3).\n")
                  .ok());
  EXPECT_FALSE(engine.Holds("win(3)").value());
  EXPECT_TRUE(engine.Holds("win(2)").value());
  EXPECT_FALSE(engine.Holds("win(1)").value());
}

}  // namespace
}  // namespace xsb
