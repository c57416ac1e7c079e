#include <gtest/gtest.h>

#include <unordered_set>

#include "term/flat.h"
#include "term/store.h"

namespace xsb {
namespace {

class FlatTest : public ::testing::Test {
 protected:
  FlatTest() : store_(&symbols_) {}

  Word Atom(const char* name) { return AtomCell(symbols_.InternAtom(name)); }
  Word S(const char* name, std::vector<Word> args) {
    FunctorId f = symbols_.InternFunctor(symbols_.InternAtom(name),
                                         static_cast<int>(args.size()));
    return store_.MakeStruct(f, args);
  }

  SymbolTable symbols_;
  TermStore store_;
};

TEST_F(FlatTest, AtomFlattens) {
  FlatTerm f = Flatten(store_, Atom("a"));
  EXPECT_EQ(f.cells.size(), 1u);
  EXPECT_EQ(f.num_vars, 0u);
  EXPECT_TRUE(f.ground());
}

TEST_F(FlatTest, VariablesNumberedByFirstOccurrence) {
  Word x = store_.MakeVar();
  Word y = store_.MakeVar();
  // f(Y, X, Y) -> locals 0,1,0
  FlatTerm f = Flatten(store_, S("f", {y, x, y}));
  ASSERT_EQ(f.cells.size(), 4u);
  EXPECT_EQ(f.num_vars, 2u);
  EXPECT_EQ(f.cells[1], LocalCell(0));
  EXPECT_EQ(f.cells[2], LocalCell(1));
  EXPECT_EQ(f.cells[3], LocalCell(0));
}

TEST_F(FlatTest, VariantsHaveEqualFlats) {
  Word x1 = store_.MakeVar();
  Word y1 = store_.MakeVar();
  Word t1 = S("p", {x1, S("g", {y1, x1})});
  Word x2 = store_.MakeVar();
  Word y2 = store_.MakeVar();
  Word t2 = S("p", {y2, S("g", {x2, y2})});
  EXPECT_EQ(Flatten(store_, t1), Flatten(store_, t2));
  EXPECT_EQ(FlatTermHash()(Flatten(store_, t1)),
            FlatTermHash()(Flatten(store_, t2)));
}

TEST_F(FlatTest, NonVariantsDiffer) {
  Word x = store_.MakeVar();
  Word y = store_.MakeVar();
  // p(X, X) is not a variant of p(X, Y).
  Word t1 = S("p", {x, x});
  Word t2 = S("p", {x, y});
  EXPECT_FALSE(Flatten(store_, t1) == Flatten(store_, t2));
}

TEST_F(FlatTest, UnflattenRebuildsStructure) {
  Word x = store_.MakeVar();
  Word t = S("f", {Atom("a"), S("g", {x, IntCell(7)}), x});
  FlatTerm flat = Flatten(store_, t);
  Word rebuilt = Unflatten(&store_, flat);
  // The rebuilt term unifies with a fresh variant and is structurally a
  // variant of the original.
  EXPECT_EQ(Flatten(store_, rebuilt), flat);
}

TEST_F(FlatTest, UnflattenSharesVariablesAcrossCalls) {
  Word x = store_.MakeVar();
  FlatTerm fx = Flatten(store_, S("f", {x}));
  FlatTerm gx = Flatten(store_, S("g", {x}));
  std::vector<Word> vars;
  Word t1 = Unflatten(&store_, fx, &vars);
  Word t2 = Unflatten(&store_, gx, &vars);
  // Bind through t1, observe through t2.
  Word v1 = store_.Deref(store_.Arg(store_.Deref(t1), 0));
  EXPECT_TRUE(store_.Unify(v1, Atom("bound")));
  Word v2 = store_.Deref(store_.Arg(store_.Deref(t2), 0));
  EXPECT_EQ(v2, Atom("bound"));
}

TEST_F(FlatTest, FlattenRespectsBindings) {
  Word x = store_.MakeVar();
  Word t = S("f", {x});
  FlatTerm before = Flatten(store_, t);
  EXPECT_EQ(before.num_vars, 1u);
  ASSERT_TRUE(store_.Unify(x, Atom("a")));
  FlatTerm after = Flatten(store_, t);
  EXPECT_EQ(after.num_vars, 0u);
  EXPECT_TRUE(after.ground());
}

TEST_F(FlatTest, FlatTopFunctorReadsHead) {
  FlatTerm f = Flatten(store_, S("edge", {IntCell(1), IntCell(2)}));
  FunctorId functor;
  ASSERT_TRUE(FlatTopFunctor(f, &functor));
  EXPECT_EQ(symbols_.AtomName(symbols_.FunctorAtom(functor)), "edge");
  EXPECT_EQ(symbols_.FunctorArity(functor), 2);
  FlatTerm a = Flatten(store_, Atom("x"));
  EXPECT_FALSE(FlatTopFunctor(a, &functor));
}

TEST_F(FlatTest, HashDistributesDistinctGroundTerms) {
  std::unordered_set<size_t> hashes;
  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    FlatTerm f = Flatten(store_, S("t", {IntCell(i), IntCell(i * 3)}));
    hashes.insert(FlatTermHash()(f));
  }
  // No catastrophic collisions.
  EXPECT_GT(hashes.size(), kCount * 9 / 10);
}

TEST_F(FlatTest, RoundTripPropertyOnNestedTerms) {
  // Property: Flatten(Unflatten(f)) == f for a family of generated terms.
  for (int depth = 0; depth < 6; ++depth) {
    Word t = Atom("leaf");
    for (int i = 0; i < depth; ++i) {
      Word v = store_.MakeVar();
      t = S("n", {t, v, IntCell(i)});
    }
    FlatTerm f = Flatten(store_, t);
    EXPECT_EQ(Flatten(store_, Unflatten(&store_, f)), f) << "depth " << depth;
  }
}

// --- MatchNext: head unification against a stored clause image -----------

TEST_F(FlatTest, MatchNextReadModeBuildsNothing) {
  Word x = store_.MakeVar();
  FlatTerm clause = Flatten(store_, S("p", {x, S("f", {x}), Atom("a")}));
  Word goal = S("p", {IntCell(1), S("f", {IntCell(1)}), Atom("a")});
  size_t heap = store_.heap_size();
  size_t trail = store_.TrailMark();
  std::vector<Word> vars(clause.num_vars, 0), work;
  size_t pos = 0;
  ASSERT_TRUE(MatchNext(&store_, clause, &pos, goal, &vars, &work));
  EXPECT_EQ(pos, clause.size());
  EXPECT_EQ(store_.heap_size(), heap);
  EXPECT_EQ(store_.TrailMark(), trail);
  EXPECT_EQ(store_.Deref(vars[0]), IntCell(1));
}

TEST_F(FlatTest, MatchNextWriteModeBindsTheUnboundGoalVariable) {
  Word x = store_.MakeVar();
  Word y = store_.MakeVar();
  FlatTerm clause = Flatten(store_, S("p", {S("f", {x, S("g", {y})}), x}));
  Word z = store_.MakeVar();
  Word goal = S("p", {z, Atom("b")});
  std::vector<Word> vars(clause.num_vars, 0), work;
  size_t pos = 0;
  ASSERT_TRUE(MatchNext(&store_, clause, &pos, goal, &vars, &work));
  // The struct was built in write mode with a fresh X, which the second
  // argument then bound to b.
  Word expected = S("f", {Atom("b"), S("g", {store_.MakeVar()})});
  EXPECT_EQ(Flatten(store_, goal),
            Flatten(store_, S("p", {expected, Atom("b")})));
}

TEST_F(FlatTest, MatchNextRepeatedVariableUnifiesLaterOccurrences) {
  Word x = store_.MakeVar();
  FlatTerm clause = Flatten(store_, S("p", {x, x}));
  std::vector<Word> vars, work;
  size_t pos = 0;
  size_t trail = store_.TrailMark();
  vars.assign(clause.num_vars, 0);
  EXPECT_FALSE(MatchNext(&store_, clause, &pos,
                         S("p", {Atom("a"), Atom("b")}), &vars, &work));
  store_.UndoTrail(trail);
  Word a = store_.MakeVar();
  Word b = store_.MakeVar();
  Word goal = S("p", {a, b});
  vars.assign(clause.num_vars, 0);
  pos = 0;
  ASSERT_TRUE(MatchNext(&store_, clause, &pos, goal, &vars, &work));
  EXPECT_TRUE(store_.Identical(a, b));
}

TEST_F(FlatTest, MatchNextStopsAtTheBodyOfARule) {
  Word x = store_.MakeVar();
  Word y = store_.MakeVar();
  // (p(X) :- q(X, Y)): the head starts at cell 1.
  FlatTerm clause =
      Flatten(store_, S(":-", {S("p", {x}), S("q", {x, y})}));
  Word goal = S("p", {Atom("a")});
  std::vector<Word> vars(clause.num_vars, 0), work;
  size_t pos = 1;
  ASSERT_TRUE(MatchNext(&store_, clause, &pos, goal, &vars, &work));
  EXPECT_EQ(pos, 3u);
  Word body = UnflattenNext(&store_, clause, &pos, &vars);
  EXPECT_EQ(pos, clause.size());
  EXPECT_EQ(Flatten(store_, body),
            Flatten(store_, S("q", {Atom("a"), store_.MakeVar()})));
}

}  // namespace
}  // namespace xsb
