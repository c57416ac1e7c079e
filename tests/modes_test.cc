// Tests for the mode analysis (src/analysis/modes.*): the instantiation
// lattice, the per-predicate per-call-pattern fixpoint, published modes
// (Predicate::modes() and predicate_mode/2), the M-series diagnostics, the
// retract republication of shard masks, and a seeded property sweep of the
// engine under published modes against the bottom-up oracle.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "bottomup/seminaive.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

using analysis::AnalysisResult;
using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Inst;
using analysis::InstVec;
using analysis::ModeEntry;
using analysis::PredModes;

const Diagnostic* FindCode(const AnalysisResult& result, DiagCode code) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

FunctorId Functor(Engine& engine, const char* name, int arity) {
  return engine.symbols().InternFunctor(engine.symbols().InternAtom(name),
                                        arity);
}

// --- The lattice -------------------------------------------------------------

TEST(ModeLattice, JoinIsLeastUpperBound) {
  EXPECT_EQ(JoinInst(Inst::kGround, Inst::kGround), Inst::kGround);
  EXPECT_EQ(JoinInst(Inst::kGround, Inst::kNonvar), Inst::kNonvar);
  EXPECT_EQ(JoinInst(Inst::kNonvar, Inst::kGround), Inst::kNonvar);
  EXPECT_EQ(JoinInst(Inst::kFree, Inst::kFree), Inst::kFree);
  // free and the bound states have disjoint concretizations: lub is any.
  EXPECT_EQ(JoinInst(Inst::kGround, Inst::kFree), Inst::kAny);
  EXPECT_EQ(JoinInst(Inst::kFree, Inst::kNonvar), Inst::kAny);
  EXPECT_EQ(JoinInst(Inst::kAny, Inst::kGround), Inst::kAny);
}

TEST(ModeLattice, LeqMatchesTheHasseDiagram) {
  EXPECT_TRUE(InstLeq(Inst::kGround, Inst::kNonvar));
  EXPECT_TRUE(InstLeq(Inst::kGround, Inst::kAny));
  EXPECT_TRUE(InstLeq(Inst::kNonvar, Inst::kAny));
  EXPECT_TRUE(InstLeq(Inst::kFree, Inst::kAny));
  EXPECT_FALSE(InstLeq(Inst::kNonvar, Inst::kGround));
  EXPECT_FALSE(InstLeq(Inst::kFree, Inst::kNonvar));
  EXPECT_FALSE(InstLeq(Inst::kGround, Inst::kFree));
  EXPECT_FALSE(InstLeq(Inst::kAny, Inst::kFree));
  for (Inst i : {Inst::kGround, Inst::kNonvar, Inst::kFree, Inst::kAny}) {
    EXPECT_TRUE(InstLeq(i, i));
  }
}

TEST(ModeLattice, AbsUnifyKeepsTheMostBoundSide) {
  // Unification only instantiates further: a ground side makes both ground.
  EXPECT_EQ(AbsUnifyInst(Inst::kGround, Inst::kFree), Inst::kGround);
  EXPECT_EQ(AbsUnifyInst(Inst::kFree, Inst::kGround), Inst::kGround);
  EXPECT_EQ(AbsUnifyInst(Inst::kGround, Inst::kAny), Inst::kGround);
  EXPECT_EQ(AbsUnifyInst(Inst::kNonvar, Inst::kFree), Inst::kNonvar);
  EXPECT_EQ(AbsUnifyInst(Inst::kFree, Inst::kFree), Inst::kFree);
  // free against any may come out anything.
  EXPECT_EQ(AbsUnifyInst(Inst::kFree, Inst::kAny), Inst::kAny);
}

// --- The fixpoint ------------------------------------------------------------

TEST(ModeFixpoint, TransitiveClosureInfersGroundSuccess) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2.\n"
                                 "path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "edge(1,2). edge(2,3).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  ASSERT_GT(result.modes.iterations, 0u);

  const PredModes& edge = result.modes.preds.at(Functor(engine, "edge", 2));
  // edge/2 is all ground facts: every pattern succeeds ground.
  ASSERT_EQ(edge.success_join.size(), 2u);
  EXPECT_EQ(edge.success_join[0], Inst::kGround);
  EXPECT_EQ(edge.success_join[1], Inst::kGround);
  // The recursive clause calls edge(Z,Y) with Z bound by path's ground
  // success, so edge has a site pattern with a ground first argument.
  bool saw_ground_first = false;
  for (const analysis::ModePattern& pat : edge.patterns) {
    if (pat.from_site && pat.call.size() == 2 &&
        pat.call[0] == Inst::kGround) {
      saw_ground_first = true;
    }
  }
  EXPECT_TRUE(saw_ground_first);

  const PredModes& path = result.modes.preds.at(Functor(engine, "path", 2));
  ASSERT_EQ(path.success_join.size(), 2u);
  EXPECT_EQ(path.success_join[0], Inst::kGround);
  EXPECT_EQ(path.success_join[1], Inst::kGround);
  // path/2 is only called from its own recursive clause; the analysis saw
  // that site, so a site join exists.
  EXPECT_FALSE(path.patterns.empty());
}

TEST(ModeFixpoint, EntrySeedsCreateSitePatterns) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("nrev([], []).\n"
                                 "nrev([H|T], R) :- nrev(T, RT), "
                                 "app(RT, [H], R).\n"
                                 "app([], L, L).\n"
                                 "app([H|T], L, [H|R]) :- app(T, L, R).\n")
                  .ok());
  analysis::AnalyzeOptions options;
  ModeEntry entry;
  entry.functor = Functor(engine, "nrev", 2);
  entry.call = {Inst::kGround, Inst::kFree};
  options.mode_entries.push_back(entry);
  AnalysisResult result = engine.Analyze(options);

  const PredModes& nrev = result.modes.preds.at(entry.functor);
  const analysis::ModePattern* seeded = nullptr;
  for (const analysis::ModePattern& pat : nrev.patterns) {
    if (pat.from_site && pat.call == entry.call) seeded = &pat;
  }
  ASSERT_NE(seeded, nullptr);
  // A ground list reversed is a ground list — under the seeded pattern.
  // (The all-any top pattern stays weaker, so the success *join* does not
  // reach ground; per-pattern precision is exactly the point.)
  ASSERT_TRUE(seeded->success_known);
  ASSERT_EQ(seeded->success.size(), 2u);
  EXPECT_EQ(seeded->success[0], Inst::kGround);
  EXPECT_EQ(seeded->success[1], Inst::kGround);
}

TEST(ModeFixpoint, PatternsAreCappedNotUnbounded) {
  // Many distinct call shapes for one predicate: the tabulation must stay
  // bounded (overflow folds into the all-any top pattern, which is sound).
  std::string text = "sink(_, _).\n";
  std::string callers;
  for (int i = 0; i < 24; ++i) {
    // Alternate bound/free shapes to force distinct patterns.
    callers += "c" + std::to_string(i) + "(Y) :- sink(" +
               (i % 2 == 0 ? std::to_string(i) : "Y") + ", " +
               (i % 3 == 0 ? "Y" : std::to_string(i)) + ").\n";
  }
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(text + callers).ok());
  AnalysisResult result = engine.Analyze();
  const PredModes& sink = result.modes.preds.at(Functor(engine, "sink", 2));
  EXPECT_LE(sink.patterns.size(), 9u);  // top + at most kMaxSitePatterns
}

TEST(ModeFixpoint, NeverSucceedingPredicateHasEmptySuccessJoin) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("dead(X) :- fail, X = 1.\n"
                                 "user(X) :- dead(X).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  const PredModes& dead = result.modes.preds.at(Functor(engine, "dead", 1));
  EXPECT_TRUE(dead.success_join.empty());
  const PredModes& user = result.modes.preds.at(Functor(engine, "user", 1));
  EXPECT_TRUE(user.success_join.empty());
}

TEST(ModeFixpoint, HiLogVariableTargetIsNotProvenFailing) {
  // path(G)(X,Y) :- G(X,Y).  The inner goal is apply/3 with a *variable*
  // target: at runtime it dispatches to whatever first-order predicate G
  // is bound to (edge1/2 here), which the analysis cannot see. Resolving
  // it against the stored apply/N clauses instead would make apply/3 look
  // like recursion with no base case — "proven to never succeed" — and
  // the XSB_MODE_ORACLE build would abort on the first real answer. The
  // analysis must treat it as an opaque meta-call.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("edge1(1,2). edge1(2,3). edge1(3,1).\n"
                                 ":- table apply/3.\n"
                                 "path(Graph)(X, Y) :- Graph(X, Y).\n"
                                 "path(Graph)(X, Y) :- path(Graph)(X, Z), "
                                 "Graph(Z, Y).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  FunctorId apply3 = Functor(engine, "apply", 3);
  EXPECT_GT(result.modes.meta_callers.count(apply3), 0u);
  const PredModes& pm = result.modes.preds.at(apply3);
  // Non-empty success join: apply/3 answers exist and must satisfy it.
  ASSERT_FALSE(pm.success_join.empty());
  EXPECT_EQ(pm.success_join[0], Inst::kNonvar);  // heads are path(G)
  // And the engine really does answer (under the oracle this also
  // exercises the check on every derived answer).
  size_t answers = 0;
  ASSERT_TRUE(engine
                  .ForEach("path(edge1)(1, X)",
                           [&answers](const Answer&) {
                             ++answers;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(answers, 3u);
}

// --- Diagnostics -------------------------------------------------------------

TEST(ModeDiagnostics, InferredModesReportedAsM001) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("lookup(a, 1). lookup(b, 2).\n"
                                 "use(V) :- lookup(a, V).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* d = FindCode(result, DiagCode::kInferredModes);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("ground"), std::string::npos) << d->message;
}

TEST(ModeDiagnostics, NeverBoundArgumentReportedAsM002) {
  Engine engine;
  // gen/1's argument is a fresh (definitely free) variable at every call
  // site: the analysis should point the index advisor away from it (M002).
  ASSERT_TRUE(engine
                  .ConsultString("gen(1). gen(2). gen(3).\n"
                                 "top(Y) :- gen(X), Y is X * 2.\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* d = FindCode(result, DiagCode::kNeverBound);
  ASSERT_NE(d, nullptr);
}

TEST(ModeDiagnostics, FreeIntoArithmeticIsM003) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("inc(X, Y) :- Y is X + 1.\n"
                                 "top(Y) :- inc(A, Y).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  ASSERT_FALSE(result.modes.violations.empty());
  const analysis::ModeViolation& v = result.modes.violations.front();
  EXPECT_EQ(v.callee, Functor(engine, "inc", 2));
  EXPECT_EQ(v.argnum, 1);
  const Diagnostic* d = FindCode(result, DiagCode::kModeViolation);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kWarning);
}

TEST(ModeDiagnostics, BoundCallSitesRaiseNoM003) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("inc(X, Y) :- Y is X + 1.\n"
                                 "top(Y) :- inc(41, Y).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  EXPECT_TRUE(result.modes.violations.empty());
  EXPECT_EQ(FindCode(result, DiagCode::kModeViolation), nullptr);
}

// --- Publication and predicate_mode/2 ---------------------------------------

TEST(ModePublication, ConsultPublishesModesOnPredicates) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2.\n"
                                 "path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "edge(1,2). edge(2,3).\n")
                  .ok());
  const Predicate* edge =
      engine.program().Lookup(Functor(engine, "edge", 2));
  ASSERT_NE(edge, nullptr);
  ASSERT_NE(edge->modes(), nullptr);
  EXPECT_EQ(edge->modes()->epoch, engine.program().clause_epoch());
  ASSERT_EQ(edge->modes()->success_join.size(), 2u);
  EXPECT_EQ(edge->modes()->success_join[0], kModeGround);
  // Every published pattern of a tabled-reaching predicate carries a
  // nonzero shard reach mask.
  const Predicate* path =
      engine.program().Lookup(Functor(engine, "path", 2));
  ASSERT_NE(path, nullptr);
  ASSERT_NE(path->modes(), nullptr);
  for (const PublishedModes::Pattern& pat : path->modes()->patterns) {
    EXPECT_NE(pat.reach_mask, 0u);
  }
}

TEST(ModePublication, PredicateModeBuiltinReportsJoins) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("lookup(a, 1). lookup(b, 2).\n"
                                 "use(V) :- lookup(a, V).\n")
                  .ok());
  Result<std::vector<Answer>> r =
      engine.FindAll("predicate_mode(lookup/2, M)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  std::string m = r.value()[0]["M"];
  // Call sites always pass a ground first argument (the head-var second
  // argument joins to any) and success grounds both arguments.
  EXPECT_NE(m.find("call - [ground,any]"), std::string::npos) << m;
  EXPECT_NE(m.find("success - [ground,ground]"), std::string::npos) << m;
}

TEST(ModePublication, PredicateModeFailsForUnknownPredicate) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("a(1).\n").ok());
  Result<size_t> n = engine.Count("predicate_mode(nosuch/3, M)");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

// --- Satellite: retract republishes the shard masks --------------------------

TEST(ModeRepublication, RetractShrinksReachMasks) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table p/1.\n"
                                 ":- table q/1.\n"
                                 "p(0).\n"
                                 "p(X) :- q(X).\n"
                                 "q(1). q(2).\n")
                  .ok());
  const Predicate* p = engine.program().Lookup(Functor(engine, "p", 1));
  const Predicate* q = engine.program().Lookup(Functor(engine, "q", 1));
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  ASSERT_GE(p->eval_shard(), 0);
  ASSERT_GE(q->eval_shard(), 0);
  // Before the retract, p's cold calls must own q's shard.
  ASSERT_NE(p->eval_reach_mask() & EvalShardBit(q->eval_shard()), 0u);

  Result<size_t> n = engine.Count("retract((p(X) :- q(X)))");
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);

  // The erasure severed the only p -> q edge; a stale mask here would make
  // every cold p call over-acquire q's shard forever (the regression this
  // test pins): the retract must republish the analysis.
  p = engine.program().Lookup(Functor(engine, "p", 1));
  q = engine.program().Lookup(Functor(engine, "q", 1));
  ASSERT_GE(p->eval_shard(), 0);
  ASSERT_GE(q->eval_shard(), 0);
  EXPECT_EQ(p->eval_reach_mask() & EvalShardBit(q->eval_shard()), 0u);
  EXPECT_NE(p->eval_reach_mask() & EvalShardBit(p->eval_shard()), 0u);

  // And evaluation still works on both sides of the shrunken program.
  Result<size_t> pc = engine.Count("p(X)");
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc.value(), 1u);
  Result<size_t> qc = engine.Count("q(X)");
  ASSERT_TRUE(qc.ok());
  EXPECT_EQ(qc.value(), 2u);
}

TEST(ModeRepublication, RetractallAndAbolishAlsoRepublish) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table p/1.\n"
                                 ":- table q/1.\n"
                                 "p(0).\n"
                                 "p(X) :- q(X).\n"
                                 "q(1). q(2).\n")
                  .ok());
  const Predicate* p = engine.program().Lookup(Functor(engine, "p", 1));
  const Predicate* q = engine.program().Lookup(Functor(engine, "q", 1));
  ASSERT_NE(p->eval_reach_mask() & EvalShardBit(q->eval_shard()), 0u);
  ASSERT_TRUE(engine.Count("retractall(p(_))").ok());
  // p lost every clause; whatever shard state it ends up with, q's own
  // published mask must have been recomputed against the shrunken program
  // (its reach is just itself).
  q = engine.program().Lookup(Functor(engine, "q", 1));
  ASSERT_GE(q->eval_shard(), 0);
  EXPECT_EQ(q->eval_reach_mask(), EvalShardBit(q->eval_shard()));
  Result<size_t> qc = engine.Count("q(X)");
  ASSERT_TRUE(qc.ok());
  EXPECT_EQ(qc.value(), 2u);
}

// --- Property sweep: mode-published engine vs bottom-up oracle ---------------

// Random digraphs as in differential_test.cc, kept small enough for tier1.
std::string RandomEdges(uint32_t seed, int* num_nodes) {
  std::mt19937 rng(seed * 2654435761u + 17);
  int n = 4 + static_cast<int>(rng() % 5);  // 4..8 nodes
  *num_nodes = n;
  std::set<std::pair<int, int>> edges;
  int num_edges = n + static_cast<int>(rng() % n);
  for (int k = 0; k < num_edges; ++k) {
    int a = 1 + static_cast<int>(rng() % n);
    int b = 1 + static_cast<int>(rng() % n);
    edges.insert({a, b});
  }
  std::string text;
  for (auto [a, b] : edges) {
    text += "edge(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
  }
  return text;
}

using AnswerSet = std::set<std::pair<std::string, std::string>>;

class ModeSweep : public ::testing::TestWithParam<uint32_t> {};

// The SLG engine runs with modes published (goal-aware shard masks, the
// sanitizer-build answer oracle when XSB_MODE_ORACLE is on); the bottom-up
// engine shares none of that machinery. Full and first-argument-bound
// queries must agree on every seed.
TEST_P(ModeSweep, AgreesWithBottomUpUnderPublishedModes) {
  int n = 0;
  std::string edges = RandomEdges(GetParam(), &n);
  std::string rules =
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";

  Engine engine;
  ASSERT_TRUE(engine.ConsultString(":- table path/2.\n" + rules + edges).ok());
  ASSERT_NE(engine.program()
                .Lookup(Functor(engine, "path", 2))
                ->modes(),
            nullptr);
  AnswerSet slg;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&slg](const Answer& a) {
                             slg.insert({a["X"], a["Y"]});
                             return true;
                           })
                  .ok());

  datalog::DatalogProgram dl;
  ASSERT_TRUE(datalog::ParseDatalog(rules + edges, &dl).ok());
  datalog::Evaluation eval(&dl);
  ASSERT_TRUE(eval.Run().ok());
  AnswerSet bottom_up;
  datalog::PredId pid = dl.InternPred("path", 2);
  for (const datalog::Tuple& t : eval.relation(pid).tuples()) {
    bottom_up.insert(
        {dl.consts().ToString(t[0]), dl.consts().ToString(t[1])});
  }
  EXPECT_EQ(slg, bottom_up) << "seed " << GetParam();

  // Bound-first-argument queries take the goal-aware mask refinement path.
  for (int a = 1; a <= n; ++a) {
    AnswerSet bound;
    ASSERT_TRUE(engine
                    .ForEach("path(" + std::to_string(a) + ", Y)",
                             [&](const Answer& ans) {
                               bound.insert({std::to_string(a), ans["Y"]});
                               return true;
                             })
                    .ok());
    AnswerSet expected;
    for (const auto& [x, y] : bottom_up) {
      if (x == std::to_string(a)) expected.insert({x, y});
    }
    EXPECT_EQ(bound, expected) << "seed " << GetParam() << " from " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeSweep, ::testing::Range(0u, 51u));

}  // namespace
}  // namespace xsb
