#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bottomup/seminaive.h"
#include "db/loader.h"
#include "engine/machine.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "tabling/evaluator.h"
#include "term/store.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

class TablingTest : public ::testing::Test {
 protected:
  TablingTest()
      : store_(&symbols_),
        program_(&symbols_),
        loader_(&store_, &program_),
        machine_(&store_, &program_),
        evaluator_(&machine_) {}

  void Load(const std::string& text) {
    Status s = loader_.ConsultString(text);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  Word Parse(const std::string& text) {
    std::string buffer = text + " .";
    Reader reader(&store_, program_.ops(), buffer, program_.hilog_atoms());
    Result<Word> r = reader.ReadClause();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }

  size_t Count(const std::string& goal) {
    Result<size_t> r = machine_.CountSolutions(Parse(goal));
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    return r.ok() ? r.value() : size_t(-1);
  }

  bool Holds(const std::string& goal) {
    size_t trail = store_.TrailMark();
    Result<bool> r = machine_.SolveOnce(Parse(goal));
    store_.UndoTrail(trail);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    return r.ok() && r.value();
  }

  Status SolveStatus(const std::string& goal) {
    return machine_.Solve(Parse(goal),
                          []() { return SolveAction::kContinue; });
  }

  std::vector<std::string> Answers(const std::string& templ,
                                   const std::string& goal) {
    Word pair = Parse("'$pair'(" + templ + "," + goal + ")");
    Word t = store_.Arg(store_.Deref(pair), 0);
    Word g = store_.Arg(store_.Deref(pair), 1);
    Result<std::vector<FlatTerm>> r = machine_.FindAll(t, g);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    WriteOptions options;
    options.use_operators = false;
    for (const FlatTerm& flat : r.value()) {
      out.push_back(WriteFlat(&store_, *program_.ops(), flat, options));
    }
    return out;
  }

  // Loads move/2 facts for a complete binary tree of the given height
  // (node 1 is the root; children of i are 2i and 2i+1).
  void LoadBinaryTree(int height) {
    std::string text;
    int internal = (1 << height) - 1;
    for (int i = 1; i <= internal; ++i) {
      text += "move(" + std::to_string(i) + "," + std::to_string(2 * i) +
              ").\nmove(" + std::to_string(i) + "," +
              std::to_string(2 * i + 1) + ").\n";
    }
    Load(text);
  }

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
  Loader loader_;
  Machine machine_;
  Evaluator evaluator_;
};

TEST_F(TablingTest, LeftRecursionTerminatesOnCycles) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  // Every node reaches every node on a 3-cycle.
  EXPECT_EQ(Count("path(1,X)"), 3u);
  EXPECT_EQ(Answers("X", "path(1,X)"),
            (std::vector<std::string>{"2", "3", "1"}));
}

TEST_F(TablingTest, RightRecursionTerminatesOnCycles) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Z) :- edge(X,Y), path(Y,Z).\n");
  EXPECT_EQ(Count("path(1,X)"), 3u);
  EXPECT_EQ(Count("path(X,Y)"), 9u);
}

TEST_F(TablingTest, DoubleRecursion) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,4). edge(4,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Z) :- path(X,Y), path(Y,Z).\n");
  EXPECT_EQ(Count("path(1,X)"), 4u);
  EXPECT_EQ(Count("path(X,Y)"), 16u);
}

TEST_F(TablingTest, ChainAnswersAreDeduplicated) {
  // A diamond produces 2 derivations of the same answer; tabling returns 1.
  Load(":- table path/2.\n"
       "edge(a,b1). edge(a,b2). edge(b1,c). edge(b2,c).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  EXPECT_EQ(Count("path(a,c)"), 1u);
  EXPECT_GE(evaluator_.tables().stats().duplicate_answers, 1u);
}

TEST_F(TablingTest, CompletedTablesAreReusedAcrossQueries) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  EXPECT_EQ(Count("path(1,X)"), 2u);
  uint64_t created = evaluator_.tables().stats().subgoals_created;
  // Re-running the same query must not create new tables or episodes.
  EXPECT_EQ(Count("path(1,X)"), 2u);
  EXPECT_EQ(evaluator_.tables().stats().subgoals_created, created);
}

TEST_F(TablingTest, VariantCallsShareATable) {
  Load(":- table p/2.\n"
       "p(X,Y) :- q(X,Y). q(1,2). q(1,3).\n");
  EXPECT_EQ(Count("p(A,B)"), 2u);
  EXPECT_EQ(Count("p(U,V)"), 2u);  // a variant: same table
  EXPECT_EQ(evaluator_.tables().num_subgoals(), 1u);
  EXPECT_EQ(Count("p(1,V)"), 2u);  // not a variant: its own table
  EXPECT_EQ(evaluator_.tables().num_subgoals(), 2u);
}

TEST_F(TablingTest, NonGroundAnswers) {
  Load(":- table p/1.\np(f(_)).\np(g(a)).\n");
  EXPECT_EQ(Count("p(X)"), 2u);
  EXPECT_TRUE(Holds("p(f(anything))"));
}

TEST_F(TablingTest, SameGeneration) {
  Load(":- table sg/2.\n"
       "par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1).\n"
       "sg(X, X).\n"
       "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n");
  // c1 and c2 share parent p1; p1 and p2 share grandparent g1.
  EXPECT_TRUE(Holds("sg(c1, c2)"));
  EXPECT_TRUE(Holds("sg(p1, p2)"));
  EXPECT_FALSE(Holds("sg(c1, p2)"));
}

TEST_F(TablingTest, MutuallyRecursiveTabledPredicates) {
  Load(":- table even/1. :- table odd/1.\n"
       "num(0, none). num(s(X), X).\n"
       "even(0). even(s(X)) :- odd(X).\n"
       "odd(s(X)) :- even(X).\n");
  EXPECT_TRUE(Holds("even(s(s(0)))"));
  EXPECT_FALSE(Holds("odd(s(s(0)))"));
  EXPECT_TRUE(Holds("odd(s(s(s(0))))"));
}

TEST_F(TablingTest, TabledAndNonTabledMix) {
  Load(":- table reach/2.\n"
       "edge(1,2). edge(2,3).\n"
       "reach(X,Y) :- edge(X,Y).\n"
       "reach(X,Y) :- reach(X,Z), edge(Z,Y).\n"
       "report(X, Y) :- reach(X, Y), Y > 2.\n");
  EXPECT_EQ(Answers("Y", "report(1, Y)"), (std::vector<std::string>{"3"}));
}

TEST_F(TablingTest, WinOverTreeStratified) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n");
  LoadBinaryTree(3);  // leaves are 8..15: they have no moves, so they lose
  EXPECT_FALSE(Holds("win(8)"));   // leaf: no move
  EXPECT_TRUE(Holds("win(4)"));    // moves to losing leaves
  EXPECT_FALSE(Holds("win(2)"));   // both children winning
  EXPECT_TRUE(Holds("win(1)"));
}

TEST_F(TablingTest, WinOverChain) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "move(1,2). move(2,3). move(3,4).\n");
  // 4 loses, 3 wins, 2 loses, 1 wins.
  EXPECT_TRUE(Holds("win(1)"));
  EXPECT_FALSE(Holds("win(2)"));
  EXPECT_TRUE(Holds("win(3)"));
  EXPECT_FALSE(Holds("win(4)"));
}

TEST_F(TablingTest, ExistentialNegationSameAnswersAsDefault) {
  Load(":- table win/1. :- table ewin/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "ewin(X) :- move(X,Y), e_tnot ewin(Y).\n");
  LoadBinaryTree(4);
  for (int node : {1, 2, 3, 4, 7, 8, 15, 16, 31}) {
    std::string n = std::to_string(node);
    EXPECT_EQ(Holds("win(" + n + ")"), Holds("ewin(" + n + ")")) << node;
  }
}

TEST_F(TablingTest, ExistentialNegationDisposesTables) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), e_tnot win(Y).\n");
  LoadBinaryTree(3);  // odd height: the root wins
  EXPECT_TRUE(Holds("win(1)"));
  EXPECT_GT(evaluator_.tables().stats().subgoals_disposed, 0u);
  EXPECT_GT(evaluator_.stats().existential_aborts, 0u);
}

TEST_F(TablingTest, ExistentialNegationVisitsFewerNodes) {
  Load(":- table win/1. :- table ewin/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "ewin(X) :- move(X,Y), e_tnot ewin(Y).\n");
  LoadBinaryTree(7);  // odd height: the root wins
  uint64_t before = evaluator_.tables().stats().subgoals_created;
  EXPECT_TRUE(Holds("ewin(1)"));
  uint64_t existential = evaluator_.tables().stats().subgoals_created - before;
  before = evaluator_.tables().stats().subgoals_created;
  EXPECT_TRUE(Holds("win(1)"));
  uint64_t full = evaluator_.tables().stats().subgoals_created - before;
  // Default SLG evaluates the full 2^n tree; existential ~ sqrt(2)^n.
  EXPECT_LT(existential * 4, full);
}

TEST_F(TablingTest, NonStratifiedProgramIsReported) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "move(a,b). move(b,a).\n");  // cyclic: not modularly stratified
  Status s = SolveStatus("win(a)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kStratification);
}

TEST_F(TablingTest, FlounderingTnotIsReported) {
  Load(":- table p/1.\np(1).\n");
  Status s = SolveStatus("tnot p(X)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInstantiation);
}

TEST_F(TablingTest, TnotOnNonTabledIsReported) {
  Load("q(1).\n");
  Status s = SolveStatus("tnot q(1)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kType);
}

TEST_F(TablingTest, TnotOnCompletedTableIsConstantTime) {
  Load(":- table p/1.\np(1). p(2).\n");
  EXPECT_FALSE(Holds("tnot p(1)"));
  EXPECT_TRUE(Holds("tnot p(3)"));
  uint64_t batches = evaluator_.stats().batches;
  EXPECT_FALSE(Holds("tnot p(1)"));  // table complete: no new batch
  EXPECT_EQ(evaluator_.stats().batches, batches);
}

TEST_F(TablingTest, TFindallCollectsCompletedAnswers) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  EXPECT_TRUE(Holds("tfindall(Y, path(1,Y), L), length(L, 3)"));
}

TEST_F(TablingTest, EarlyCompletionOnGroundCalls) {
  Machine machine2(&store_, &program_);
  Evaluator::Options options;
  options.early_completion = true;
  Evaluator evaluator2(&machine2, options);
  Load(":- table t/1.\n"
       "t(X) :- member_(X, [1,2,3]).\n"
       "member_(X, [X|_]). member_(X, [_|T]) :- member_(X, T).\n");
  size_t trail = store_.TrailMark();
  Result<bool> r = machine2.SolveOnce(Parse("t(2)"));
  store_.UndoTrail(trail);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  EXPECT_GT(evaluator2.stats().early_completions, 0u);
  // Without early completion the default evaluator runs t(2)'s generator to
  // exhaustion but computes the same result.
  EXPECT_TRUE(Holds("t(2)"));
  EXPECT_EQ(evaluator_.stats().early_completions, 0u);
}

TEST_F(TablingTest, SldnfModeBypassesTables) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- edge(X,Z), path(Z,Y).\n");  // right recursion: acyclic ok
  machine_.set_ignore_tabling(true);
  EXPECT_EQ(Count("path(1,X)"), 2u);
  EXPECT_EQ(evaluator_.tables().num_subgoals(), 0u);
  machine_.set_ignore_tabling(false);
  EXPECT_EQ(Count("path(1,X)"), 2u);
  EXPECT_GT(evaluator_.tables().num_subgoals(), 0u);
}

TEST_F(TablingTest, TabledHiLogPredicate) {
  Load(":- table apply/3.\n"
       "edge1(1,2). edge1(2,3). edge1(3,1).\n"
       "path(Graph)(X, Y) :- Graph(X, Y).\n"
       "path(Graph)(X, Y) :- path(Graph)(X, Z), Graph(Z, Y).\n");
  EXPECT_EQ(Count("path(edge1)(1, X)"), 3u);
}

TEST_F(TablingTest, AbolishAllTablesForcesRecomputation) {
  Load(":- table p/1.\np(1).\n");
  EXPECT_EQ(Count("p(X)"), 1u);
  uint64_t created = evaluator_.tables().stats().subgoals_created;
  evaluator_.AbolishAllTables();
  EXPECT_EQ(Count("p(X)"), 1u);
  EXPECT_GT(evaluator_.tables().stats().subgoals_created, created);
}

TEST_F(TablingTest, LargeChainLinearAnswers) {
  std::string text = ":- table path/2.\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  for (int i = 1; i < 500; ++i) {
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
  }
  Load(text);
  EXPECT_EQ(Count("path(1,X)"), 499u);
}

TEST_F(TablingTest, CycleDoesNotLoop) {
  std::string text = ":- table path/2.\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  constexpr int kCycle = 64;
  for (int i = 1; i <= kCycle; ++i) {
    text += "edge(" + std::to_string(i) + "," +
            std::to_string(i % kCycle + 1) + ").\n";
  }
  Load(text);
  EXPECT_EQ(Count("path(1,X)"), static_cast<size_t>(kCycle));
}

TEST_F(TablingTest, PropertyTabledMatchesSldnfOnAcyclicGraphs) {
  // Property: on acyclic graphs both strategies agree on the answer set.
  std::string text = ":- table path/2.\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
      ":- table rpath/2.\n"
      "redge(X,Y) :- edge(X,Y).\n"
      "rpath(X,Y) :- redge(X,Y).\n"
      "rpath(X,Y) :- redge(X,Z), rpath(Z,Y).\n";
  // A small DAG: i -> i+1 and i -> i+2.
  for (int i = 0; i < 12; ++i) {
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 2) + ").\n";
  }
  Load(text);
  for (int start = 0; start < 12; start += 3) {
    std::string q = std::to_string(start);
    size_t tabled = Count("path(" + q + ",X)");
    machine_.set_ignore_tabling(true);
    // SLDNF loops on the left-recursive path/2 (the very problem tabling
    // solves), so the SLDNF side runs the right-recursive rpath/2 and
    // deduplicates its answers.
    size_t sldnf_distinct = 0;
    {
      Word pair = Parse("'$pair'(X, rpath(" + q + ",X))");
      Word templ = store_.Arg(store_.Deref(pair), 0);
      Word g = store_.Arg(store_.Deref(pair), 1);
      Result<std::vector<FlatTerm>> all = machine_.FindAll(templ, g);
      ASSERT_TRUE(all.ok());
      std::vector<FlatTerm> v = all.value();
      std::sort(v.begin(), v.end(),
                [](const FlatTerm& a, const FlatTerm& b) {
                  return a.cells < b.cells;
                });
      v.erase(std::unique(v.begin(), v.end()), v.end());
      sldnf_distinct = v.size();
    }
    machine_.set_ignore_tabling(false);
    EXPECT_EQ(tabled, sldnf_distinct) << "start " << start;
  }
}

class TablingTrieTest : public TablingTest {};

TEST_F(TablingTrieTest, HashAblationModeGivesSameResults) {
  // The default store is the answer trie; build a second evaluator in the
  // legacy hash-set mode on a fresh machine and check agreement.
  Machine machine2(&store_, &program_);
  Evaluator::Options options;
  options.answer_trie = false;
  Evaluator evaluator2(&machine2, options);
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,1). edge(1,3).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  Result<size_t> trie_count = machine_.CountSolutions(Parse("path(1,X)"));
  Result<size_t> hash_count = machine2.CountSolutions(Parse("path(1,X)"));
  ASSERT_TRUE(trie_count.ok());
  ASSERT_TRUE(hash_count.ok());
  EXPECT_EQ(trie_count.value(), hash_count.value());
  EXPECT_EQ(trie_count.value(), 3u);
}

TEST_F(TablingTrieTest, TrieStoreReportsNodesAndInterns) {
  Load(":- table path/2.\n"
       "edge(a,b). edge(b,c). edge(c,d).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- edge(X,Z), path(Z,Y).\n");
  Result<size_t> n = machine_.CountSolutions(Parse("path(a,X)"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  const TableSpace& tables = evaluator_.tables();
  EXPECT_GT(tables.total_answers(), 0u);
  EXPECT_GT(tables.total_trie_nodes(), 0u);
  // Trie nodes never outnumber total inserted tokens, and shared prefixes
  // make them strictly fewer than answers * path-length here.
  EXPECT_GT(tables.table_bytes(), 0u);
}

}  // namespace
}  // namespace xsb

namespace xsb {
namespace {

class CutSafetyTest : public TablingTest {};

TEST_F(CutSafetyTest, CutAfterTabledCallIsRejected) {
  Status s = loader_.ConsultString(
      ":- table p/1.\np(1).\n"
      "bad(X) :- p(X), !.\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kPermission);
}

TEST_F(CutSafetyTest, CutBeforeTabledCallIsAllowed) {
  Status s = loader_.ConsultString(
      ":- table p/1.\np(1).\n"
      "ok(X) :- !, p(X).\n"
      "ok2(X) :- q(X), !, r(X).\nq(1). r(1).\n");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Holds("ok(1)"));
}

TEST_F(CutSafetyTest, CutInsideNegationScopeIsAllowed) {
  // tnot completes its table before returning, so a later cut is safe.
  Status s = loader_.ConsultString(
      ":- table p/1.\np(1).\n"
      "ok(X) :- tnot p(X), !.\n"
      "ok(_).\n");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// --- Incremental table maintenance -------------------------------------------

// These run through the Engine facade: the update/requery lifecycle spans
// consult, builtins, the evaluator and the table space, and the cursor tests
// below need Engine::ForEach's retired-snapshot release discipline.

const char kChainProgram[] =
    ":- table path/2.\n"
    ":- incremental(edge/2).\n"
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
    "edge(1,2). edge(2,3). edge(3,4). edge(4,5).\n";

std::string StateOf(Engine& engine, const std::string& goal) {
  std::string state;
  Status status =
      engine.ForEach("table_state(" + goal + ", S)", [&](const Answer& a) {
        state = a["S"];
        return false;
      });
  EXPECT_TRUE(status.ok()) << status.message();
  return state;
}

TEST(IncrementalMaintenance, AssertInvalidatesAndRequeryAgrees) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "undefined");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "complete");

  ASSERT_TRUE(engine.Holds("assert(edge(5,6))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 15u);
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "complete");
  EXPECT_GE(engine.evaluator().tables().stats().tables_reevaluated, 1u);
}

TEST(IncrementalMaintenance, RetractInvalidatesAndRequeryDropsAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  ASSERT_TRUE(engine.Holds("retract(edge(4,5))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
  // Retracting a fact that is not there changes nothing.
  EXPECT_FALSE(engine.Holds("retract(edge(4,5))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "complete");
}

TEST(IncrementalMaintenance, RetractallAndAbolishNotifyToo) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  ASSERT_TRUE(engine.Holds("retractall(edge(_, _))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 0u);

  ASSERT_TRUE(engine.Holds("assert(edge(1,2))").value());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 1u);
  ASSERT_TRUE(engine.Holds("abolish(edge/2)").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 0u);
}

TEST(IncrementalMaintenance, AbolishTableCallDisposesOneVariant) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(engine.Count("path(1, Y)").value(), 4u);
  EXPECT_EQ(engine.Count("path(2, Y)").value(), 3u);
  EXPECT_TRUE(engine.Holds("abolish_table_call(path(1, Y))").value());
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "undefined");
  EXPECT_EQ(StateOf(engine, "path(2, Y)"), "complete");
  // A second abolish finds nothing; the next call rebuilds the table.
  EXPECT_FALSE(engine.Holds("abolish_table_call(path(1, Y))").value());
  EXPECT_EQ(engine.Count("path(1, Y)").value(), 4u);
}

TEST(IncrementalMaintenance, LateRuntimeDeclarationInvalidatesConservatively) {
  // Tables built before a predicate becomes incremental carry no dependency
  // entries for it; the incremental/1 builtin must invalidate them all.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table path/2.\n"
                      ":- dynamic(edge/2).\n"
                      "path(X,Y) :- edge(X,Y).\n"
                      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                      "edge(1,2). edge(2,3).\n")
                  .ok());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 3u);
  ASSERT_TRUE(engine.Holds("incremental(edge/2)").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  ASSERT_TRUE(engine.Holds("assert(edge(3,4))").value());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
  // The re-evaluated table captured its dependencies at runtime, so further
  // updates invalidate it precisely.
  ASSERT_TRUE(engine.Holds("assert(edge(4,5))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
}

TEST(IncrementalMaintenance, UpdateDuringEvaluationCompletesTableAsInvalid) {
  // An assert fired from inside a tabled derivation: the running table may
  // already have read the old clause set, so it must complete as invalid and
  // re-evaluate on the next call.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table p/1.\n"
                      ":- incremental(d/1).\n"
                      "d(1).\n"
                      "p(X) :- d(X).\n"
                      "p(X) :- X = 0, \\+ d(2), assert(d(2)), fail.\n")
                  .ok());
  EXPECT_EQ(engine.Count("p(X)").value(), 1u);
  EXPECT_EQ(StateOf(engine, "p(X)"), "invalid");
  EXPECT_EQ(engine.Count("p(X)").value(), 2u);
  EXPECT_EQ(StateOf(engine, "p(X)"), "complete");
}

TEST(IncrementalMaintenance, BaselineModeAbolishesAndRecomputes) {
  Engine::Options options;
  options.incremental = false;
  Engine engine(options);
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  // Consulting the facts already fired one update event per edge clause.
  uint64_t consult_events = engine.evaluator().stats().update_events;
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  ASSERT_TRUE(engine.Holds("assert(edge(5,6))").value());
  // Baseline: the update dropped the whole table space.
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "undefined");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 15u);
  ASSERT_TRUE(engine.Holds("retract(edge(5,6))").value());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  EXPECT_EQ(engine.evaluator().stats().update_events, consult_events + 2);
}

// --- Open-cursor freeze semantics --------------------------------------------

TEST(IncrementalCursor, RetractAndReevalDuringOpenEnumerationKeepsSnapshot) {
  // Regression: a retract + nested requery while an answer cursor is open
  // retires the cursor's answer table. The cursor must keep enumerating its
  // frozen snapshot (this is a use-after-free without retirement; the ASan
  // job exists to prove it).
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);

  std::set<std::string> outer;
  size_t nested_count = 0;
  size_t retired_during = 0;
  bool mutated = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer& a) {
                             outer.insert(a["X"] + "," + a["Y"]);
                             if (!mutated) {
                               mutated = true;
                               EXPECT_TRUE(
                                   engine.Holds("retract(edge(4,5))").value());
                               // Nested requery: re-evaluates the invalid
                               // table out from under the outer cursor.
                               nested_count =
                                   engine.Count("path(X, Y)").value();
                               retired_during = engine.evaluator()
                                                    .tables()
                                                    .num_retired_answers();
                             }
                             return true;
                           })
                  .ok());
  EXPECT_EQ(outer.size(), 10u) << "outer cursor must see its frozen snapshot";
  EXPECT_EQ(nested_count, 6u) << "nested query must see the updated world";
  EXPECT_GT(retired_during, 0u);
  // The snapshot is released once the outermost query unwinds.
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
}

TEST(IncrementalCursor, AbolishAllTablesDuringOpenEnumerationKeepsSnapshot) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);
  size_t outer = 0;
  bool abolished = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer&) {
                             ++outer;
                             if (!abolished) {
                               abolished = true;
                               engine.AbolishAllTables();
                             }
                             return true;
                           })
                  .ok());
  EXPECT_EQ(outer, 10u);
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
}

// --- Substitution-factored answer return under table churn --------------------

TEST(FactoredCursor, FactoredReturnSurvivesRetractDuringOpenEnumeration) {
  // The factored answer path keeps two pieces of retired-table state alive
  // across an open cursor: the answer trie's binding streams AND the call
  // template they are spliced against. A retract plus nested requery
  // mid-enumeration retires the cursor's table; the factored cursor must
  // keep binding against the retired trie's own template copy (a dangling
  // pointer if the template were borrowed from the subgoal — the ASan job
  // proves it).
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);

  uint64_t factored_before = engine.machine().stats().factored_answer_returns;
  std::set<std::string> outer;
  bool mutated = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer& a) {
                             outer.insert(a["X"] + "," + a["Y"]);
                             if (!mutated) {
                               mutated = true;
                               EXPECT_TRUE(
                                   engine.Holds("retract(edge(4,5))").value());
                               EXPECT_EQ(engine.Count("path(X, Y)").value(),
                                         6u);
                             }
                             return true;
                           })
                  .ok());
  // The frozen snapshot delivered every pre-retract answer, each with the
  // correct bindings (i < j over the 5-node chain).
  std::set<std::string> expected;
  for (int i = 1; i <= 5; ++i) {
    for (int j = i + 1; j <= 5; ++j) {
      expected.insert(std::to_string(i) + "," + std::to_string(j));
    }
  }
  EXPECT_EQ(outer, expected);
  EXPECT_GT(engine.machine().stats().factored_answer_returns, factored_before)
      << "completed-table enumeration must take the factored path";
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
}

TEST(FactoredCursor, AbolishTableCallDuringOpenEnumerationKeepsSnapshot) {
  // abolish_table_call/1 clears the variant's call-trie payload and retires
  // its answers while a factored cursor is mid-enumeration. The cursor must
  // finish its frozen snapshot; a fresh call re-creates the table.
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);

  uint64_t factored_before = engine.machine().stats().factored_answer_returns;
  std::set<std::string> outer;
  bool abolished = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer& a) {
                             outer.insert(a["X"] + "," + a["Y"]);
                             if (!abolished) {
                               abolished = true;
                               EXPECT_TRUE(
                                   engine
                                       .Holds("abolish_table_call(path(A, B))")
                                       .value());
                               EXPECT_EQ(StateOf(engine, "path(A, B)"),
                                         "undefined");
                             }
                             return true;
                           })
                  .ok());
  EXPECT_EQ(outer.size(), 10u);
  EXPECT_GT(engine.machine().stats().factored_answer_returns, factored_before);
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
}

TEST(IncrementalCursor, EarlyStopStillReleasesRetiredSnapshots) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);
  // Stop after the first answer, having mutated mid-flight.
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer&) {
                             EXPECT_TRUE(
                                 engine.Holds("retract(edge(1,2))").value());
                             EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
                             return false;
                           })
                  .ok());
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
}


// --- Answer-range delivery ---------------------------------------------------

// Inside an evaluation batch a suspended consumer is resumed once per
// delivery round, over the range of its producer's answers that arrived since
// its last round, under one answer choice point. Each test below cuts or
// grows such a range mid-way and checks the answers against the bottom-up
// semi-naive oracle of the differential suites.

using TupleSet = std::set<std::string>;

// Tuples of pred/arity at the bottom-up fixpoint, as "a,b,...".
TupleSet BottomUpTuples(const std::string& program, const std::string& pred,
                        int arity) {
  datalog::DatalogProgram dl;
  Status parsed = datalog::ParseDatalog(program, &dl);
  EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  datalog::Evaluation eval(&dl);
  EXPECT_TRUE(eval.Run().ok());
  TupleSet out;
  datalog::Relation& rel = eval.relation(dl.InternPred(pred, arity));
  for (uint32_t row = 0; row < rel.tuples().size(); ++row) {
    if (rel.IsDead(row)) continue;  // retired by a lattice replacement
    std::string key;
    for (int i = 0; i < arity; ++i) {
      if (i > 0) key += ",";
      key += dl.consts().ToString(rel.tuples()[row][i]);
    }
    out.insert(key);
  }
  return out;
}

// Answers of `goal` through the engine, as "V1,V2,..." over `vars`.
TupleSet EngineTuples(Engine& engine, const std::string& goal,
                      const std::vector<std::string>& vars) {
  TupleSet out;
  Status status = engine.ForEach(goal, [&](const Answer& a) {
    std::string key;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i > 0) key += ",";
      key += a[vars[i]];
    }
    out.insert(key);
    return true;
  });
  EXPECT_TRUE(status.ok()) << goal << ": " << status.ToString();
  return out;
}

// Keeps the tuples whose first field is `first`, without that field.
TupleSet WithFirst(const TupleSet& tuples, const std::string& first) {
  TupleSet out;
  for (const std::string& t : tuples) {
    if (t.compare(0, first.size() + 1, first + ",") == 0) {
      out.insert(t.substr(first.size() + 1));
    }
  }
  return out;
}

// Left-recursive closure as bottom-up rules: the oracle for programs whose
// extra guards never reject an edge target.
const char kLeftPathRules[] =
    "path(X,Y) :- e(X,Y).\n"
    "path(X,Y) :- path(X,Z), e(Z,Y).\n";

// Node 1 fans out to 2..5, so the first delivery round of path(1, _) to any
// consumer is a range of four answers.
const char kFanoutEdges[] =
    "e(1,2). e(1,3). e(1,4). e(1,5). e(2,6). e(3,6). e(4,7). e(5,8).\n"
    "e(6,9). e(7,9). e(8,1). e(9,10).\n";

TEST(RangeDelivery, EarlyCompletionOfGroundOwnerCutsTheRange) {
  // conn(1, N) is ground; its consumer of path(1, Z) gets the range
  // [2, 3, 4, 5]. For N = 6 the first answer already proves it: the owner
  // completes early and the rest of the range is skipped.
  const std::string rules =
      "path(X,Y) :- e(X,Y).\n"
      "path(X,Y) :- path(X,Z), e(Z,Y).\n"
      "conn(X,Y) :- path(X,Z), e(Z,Y).\n";
  TupleSet oracle =
      WithFirst(BottomUpTuples(rules + kFanoutEdges, "conn", 2), "1");
  ASSERT_FALSE(oracle.empty());

  Engine::Options early_options;
  early_options.early_completion = true;
  Engine early(early_options);
  Engine plain;
  for (Engine* engine : {&early, &plain}) {
    ASSERT_TRUE(engine
                    ->ConsultString(":- table path/2, conn/2.\n" + rules +
                                    kFanoutEdges)
                    .ok());
  }
  for (int n = 1; n <= 11; ++n) {
    std::string goal = "conn(1, " + std::to_string(n) + ")";
    bool expected = oracle.count(std::to_string(n)) > 0;
    for (Engine* engine : {&early, &plain}) {
      engine->AbolishAllTables();
      EXPECT_EQ(engine->Holds(goal).value(), expected) << goal;
    }
  }
  EXPECT_GT(early.evaluator().stats().early_completions, 0u);
  // The cut ranges return fewer answers to continuations.
  EXPECT_LT(early.evaluator().stats().resumptions,
            plain.evaluator().stats().resumptions);
}

TEST(RangeDelivery, ExistentialNegationAbortCutsTheRange) {
  // e_tnot(hit(N)) stops at hit(N)'s first answer, which its consumer of
  // reach(N, _) derives mid-range; the batch is aborted and disposed.
  const std::string rules =
      "reach(X,Y) :- e(X,Y).\n"
      "reach(X,Y) :- reach(X,Z), e(Z,Y).\n"
      "hit(X) :- reach(X,Y), target(Y).\n";
  std::string facts = kFanoutEdges;
  facts += "target(6). target(8).\n";
  for (int n = 1; n <= 11; ++n) facts += "node(" + std::to_string(n) + ").\n";
  TupleSet oracle = BottomUpTuples(
      rules + "nohit(X) :- node(X), not hit(X).\n" + facts, "nohit", 1);

  Engine engine;
  ASSERT_TRUE(engine.ConsultString(":- table reach/2, hit/1.\n" + rules +
                                   facts)
                  .ok());
  EXPECT_EQ(EngineTuples(engine, "node(X), e_tnot(hit(X))", {"X"}), oracle);
  EXPECT_GT(engine.evaluator().stats().existential_aborts, 0u);
  engine.AbolishAllTables();
  EXPECT_EQ(EngineTuples(engine, "node(X), tnot(hit(X))", {"X"}), oracle);
}

TEST(RangeDelivery, ContinuationCreatingGeneratorsMidRange) {
  // Every answer Z returned to path's consumer calls step(Z, _), a variant
  // never seen before: new generators are queued in the middle of a range
  // and run after it.
  const std::string rules =
      "path(X,Y) :- step(X,Y).\n"
      "path(X,Y) :- path(X,Z), step(Z,Y).\n"
      "step(X,Y) :- e(X,Y).\n";
  TupleSet oracle = BottomUpTuples(rules + kFanoutEdges, "path", 2);

  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2, step/2.\n" + rules +
                                 kFanoutEdges)
                  .ok());
  EXPECT_EQ(EngineTuples(engine, "path(1, Y)", {"Y"}), WithFirst(oracle, "1"));
  // path(1, _) plus step(N, _) for the ten nodes it reaches.
  EXPECT_EQ(engine.evaluator().tables().stats().subgoals_created.load(), 11u);
  engine.AbolishAllTables();
  EXPECT_EQ(EngineTuples(engine, "path(X, Y)", {"X", "Y"}), oracle);
}

TEST(RangeDelivery, LatticeReplacementRetiresAnAnswerInsideTheRange) {
  // sp(a, _, _) starts with [sp(a,c,1), sp(a,b,10)]. Returning the first
  // answer derives sp(a,b,2), which retires sp(a,b,10) — the next answer of
  // the same range — and is appended past the range's end. The retired
  // answer is skipped, so sp(a,d,11) is never derived.
  const std::string edges = "e(a,c,1). e(a,b,10). e(c,b,1). e(b,d,1).\n";
  TupleSet oracle = BottomUpTuples(
      "lattice(sp, 3, 3, min).\n"
      "sp(X,Y,D) :- e(X,Y,D).\n"
      "sp(X,Y,D) :- sp(X,Z,D1), e(Z,Y,D2), add(D1,D2,D).\n" +
          edges,
      "sp", 3);

  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table sp(_,_,min).\n"
                      "sp(X,Y,D) :- e(X,Y,D).\n"
                      "sp(X,Y,D) :- sp(X,Z,D1), e(Z,Y,D2), D is D1+D2.\n" +
                      edges)
                  .ok());
  EXPECT_EQ(EngineTuples(engine, "sp(a, Y, D)", {"Y", "D"}),
            WithFirst(oracle, "a"));
  const TableStats& stats = engine.evaluator().tables().stats();
  EXPECT_EQ(stats.subsumed_replaced.load(), 1u);
  EXPECT_EQ(stats.answers_inserted.load(), 4u);
}

TEST(RangeDelivery, ErrorInContinuationDisposesTheBatch) {
  // The second answer of path(1, _)'s first range reaches guard(6), which
  // calls an undefined predicate. The error ends the range and the batch;
  // its tables are disposed, and a later query recomputes them.
  const std::string rules =
      "path(X,Y) :- e(X,Y).\n"
      "path(X,Y) :- path(X,Z), e(Z,Y), guard(Y).\n";
  TupleSet oracle = BottomUpTuples(std::string(kLeftPathRules) + kFanoutEdges,
                                   "path", 2);

  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2.\n"
                                 ":- dynamic bad/1.\n" +
                                 rules +
                                 "guard(Y) :- bad(Y), no_such_goal(Y).\n"
                                 "guard(_).\n"
                                 "bad(6).\n" +
                                 kFanoutEdges)
                  .ok());
  Result<size_t> failed = engine.Count("path(1, Y)");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kExistence);
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "undefined");

  ASSERT_TRUE(engine.Holds("retract(bad(6))").value());
  EXPECT_EQ(EngineTuples(engine, "path(1, Y)", {"Y"}), WithFirst(oracle, "1"));
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "complete");
}

TEST(RangeDelivery, IncrementalAssertFromContinuationGrowsTheGraph) {
  // Returning path(1, 2) runs grow(3), which assertz's e(3, 9) while the
  // range is mid-way. The table saw part of the update, so it completes
  // invalid; re-evaluation then agrees with the final edge set.
  const std::string rules =
      "path(X,Y) :- e(X,Y).\n"
      "path(X,Y) :- path(X,Z), e(Z,Y), grow(Y).\n";
  const std::string edges =
      "e(1,2). e(1,5). e(2,3). e(5,6). e(3,4). e(9,10).\n";
  TupleSet before =
      WithFirst(BottomUpTuples(kLeftPathRules + edges, "path", 2), "1");
  TupleSet after = WithFirst(
      BottomUpTuples(kLeftPathRules + edges + "e(3,9).\n", "path", 2), "1");
  ASSERT_NE(before, after);

  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table path/2.\n"
                      ":- incremental(e/2).\n" +
                      rules +
                      "grow(Y) :- ( Y == 3, \\+ e(3,9) -> assertz(e(3,9))"
                      " ; true ).\n" +
                      edges)
                  .ok());
  TupleSet first = EngineTuples(engine, "path(1, Y)", {"Y"});
  EXPECT_TRUE(std::includes(after.begin(), after.end(), first.begin(),
                            first.end()));
  EXPECT_TRUE(std::includes(first.begin(), first.end(), before.begin(),
                            before.end()));
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "invalid");
  EXPECT_EQ(EngineTuples(engine, "path(1, Y)", {"Y"}), after);
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "complete");
}

// --- Pinned SLG work ---------------------------------------------------------

// Batching changes how answers are delivered, not how many: the counts in
// these tests were recorded when every (consumer, answer) pair was resumed
// on its own, and range delivery must reproduce them exactly.

// A 40-node cycle with a chord from every fifth node.
std::string ChordedCycleEdges() {
  std::string edges;
  for (int i = 1; i <= 40; ++i) {
    edges += "e(" + std::to_string(i) + "," + std::to_string(i % 40 + 1) +
             ").\n";
    if (i % 5 == 0) {
      edges += "e(" + std::to_string(i) + "," +
               std::to_string((i * 7) % 40 + 1) + ").\n";
    }
  }
  return edges;
}

TEST(SlgWorkCounters, RightRecursiveClosureOverChordedCycle) {
  const std::string edges = ChordedCycleEdges();
  const std::string rules =
      "path(X,Y) :- e(X,Y).\n"
      "path(X,Y) :- e(X,Z), path(Z,Y).\n";
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(":- table path/2.\n" + rules + edges).ok());
  EXPECT_EQ(EngineTuples(engine, "path(1, Y)", {"Y"}),
            WithFirst(BottomUpTuples(rules + edges, "path", 2), "1"));
  const TableStats& stats = engine.evaluator().tables().stats();
  EXPECT_EQ(stats.subgoals_created.load(), 40u);
  EXPECT_EQ(stats.answers_inserted.load(), 1600u);
  EXPECT_EQ(stats.duplicate_answers.load(), 368u);
  EXPECT_EQ(stats.consumer_suspensions.load(), 48u);
  EXPECT_EQ(stats.consumer_resumptions.load(), 1920u);
}

TEST(SlgWorkCounters, LeftRecursiveClosureOverChordedCycle) {
  // The one consumer's owner is its own producer, so answers arrive while
  // its range runs; they wait for the next round instead of being returned
  // twice.
  const std::string edges = ChordedCycleEdges();
  Engine engine;
  ASSERT_TRUE(
      engine.ConsultString(":- table path/2.\n" + std::string(kLeftPathRules) +
                           edges)
          .ok());
  EXPECT_EQ(EngineTuples(engine, "path(1, Y)", {"Y"}),
            WithFirst(BottomUpTuples(kLeftPathRules + edges, "path", 2), "1"));
  const TableStats& stats = engine.evaluator().tables().stats();
  EXPECT_EQ(stats.subgoals_created.load(), 1u);
  EXPECT_EQ(stats.answers_inserted.load(), 40u);
  EXPECT_EQ(stats.duplicate_answers.load(), 9u);
  EXPECT_EQ(stats.consumer_suspensions.load(), 1u);
  EXPECT_EQ(stats.consumer_resumptions.load(), 40u);
}

TEST(GoalArena, ThousandQueriesLeaveTheArenaEmpty) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2.\n"
                                 ":- dynamic d/1.\n"
                                 "path(X,Y) :- e(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), e(Z,Y).\n"
                                 "d(1). d(2).\n" +
                                 std::string(kFanoutEdges))
                  .ok());
  for (int i = 0; i < 1000; ++i) {
    switch (i % 4) {
      case 0:
        engine.AbolishAllTables();
        EXPECT_EQ(engine.Count("path(1, Y)").value(), 10u);
        break;
      case 1:
        EXPECT_EQ(engine.Count("path(X, Y), X < Y").value(), 30u);
        break;
      case 2:
        EXPECT_EQ(engine.Count("clause(d(X), true)").value(), 2u);
        break;
      default:
        EXPECT_FALSE(engine.Count("path(1, Y), no_such_goal(Y)").ok());
        break;
    }
    ASSERT_EQ(engine.machine().arena_size(), 0u) << "after query " << i;
  }
}

}  // namespace
}  // namespace xsb
