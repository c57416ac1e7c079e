// Differential sweep for in-place head matching: MatchNext (read mode
// against bound goal arguments, write mode into unbound goal variables) must
// agree with the reference it replaced in clause resolution — build the whole
// clause with Unflatten, then Unify its head with the goal. Both must agree
// on success, and after success they must leave the same goal instance and
// build the same body (compared as one Flatten, so variable sharing between
// goal and body counts too).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "db/index.h"
#include "parser/ops.h"
#include "parser/reader.h"
#include "term/flat.h"
#include "term/store.h"

namespace xsb {
namespace {

// A stored clause as the program keeps it: the flattened term, whether it
// is a rule, and where the head starts.
struct StoredClause {
  FlatTerm term;
  bool is_rule = false;
  size_t head_pos = 0;
};

enum class Mgu { kUnifies, kClash, kCyclic };

// Unification with the occurs check, used only to keep cases whose plain
// unification would build a cyclic term out of the sweep (neither side
// of the comparison checks occurrences, and Flatten does not terminate on
// a cyclic term). Leaves its bindings trailed.
class OccursCheck {
 public:
  explicit OccursCheck(TermStore* store) : store_(store) {}

  Mgu Unify(Word a, Word b) {
    std::vector<std::pair<Word, Word>> work{{a, b}};
    while (!work.empty()) {
      auto [x, y] = work.back();
      work.pop_back();
      x = store_->Deref(x);
      y = store_->Deref(y);
      if (x == y) continue;
      if (!IsRef(x) && IsRef(y)) std::swap(x, y);
      if (IsRef(x)) {
        if (Occurs(x, y)) return Mgu::kCyclic;
        store_->Bind(x, y);
        continue;
      }
      if (IsAtomic(x) || IsAtomic(y)) {
        if (x != y) return Mgu::kClash;
        continue;
      }
      if (store_->StructFunctor(x) != store_->StructFunctor(y)) {
        return Mgu::kClash;
      }
      for (int i = 0; i < store_->StructArity(x); ++i) {
        work.emplace_back(store_->Arg(x, i), store_->Arg(y, i));
      }
    }
    return Mgu::kUnifies;
  }

 private:
  bool Occurs(Word var, Word t) const {
    std::vector<Word> work{t};
    while (!work.empty()) {
      Word x = store_->Deref(work.back());
      work.pop_back();
      if (x == var) return true;
      if (IsStruct(x)) {
        for (int i = 0; i < store_->StructArity(x); ++i) {
          work.push_back(store_->Arg(x, i));
        }
      }
    }
    return false;
  }

  TermStore* store_;
};

class HeadMatchHarness {
 public:
  HeadMatchHarness() : store_(&symbols_), ops_(&symbols_) {}

  TermStore& store() { return store_; }
  SymbolTable& symbols() { return symbols_; }

  Word Parse(const std::string& text) {
    Result<Word> r = ParseTermString(&store_, &ops_, text);
    EXPECT_TRUE(r.ok()) << text;
    return r.ok() ? r.value() : AtomCell(symbols_.InternAtom("error"));
  }

  // Splits `clause_term` into a stored clause, as Program::AddClauseTerm
  // does.
  StoredClause Store(Word clause_term) {
    StoredClause clause;
    clause.term = Flatten(store_, clause_term);
    Word t = store_.Deref(clause_term);
    if (IsStruct(t)) {
      FunctorId f = store_.StructFunctor(t);
      if (symbols_.FunctorAtom(f) == symbols_.neck() &&
          symbols_.FunctorArity(f) == 2) {
        clause.is_rule = true;
        clause.head_pos = 1;
      }
    }
    return clause;
  }

  // The outcome of one way of resolving `goal` against `clause`: whether
  // the head matched and, if so, Flatten of '$r'(Goal, Body) afterwards
  // (Body is `true` for a fact).
  struct Outcome {
    bool matched = false;
    FlatTerm instance;
  };

  // The reference: build the whole clause, then unify its head.
  Outcome Reference(const StoredClause& clause, Word goal) {
    Outcome out;
    std::vector<Word> vars(clause.term.num_vars, 0);
    Word inst = Unflatten(&store_, clause.term, &vars);
    Word head = inst;
    Word body = AtomCell(symbols_.truth());
    if (clause.is_rule) {
      head = store_.Arg(store_.Deref(inst), 0);
      body = store_.Arg(store_.Deref(inst), 1);
    }
    out.matched = store_.Unify(goal, head);
    if (out.matched) out.instance = Flatten(store_, Pair(goal, body));
    return out;
  }

  // In place: match the head, then build the body from where the head
  // ends. Sets *wrote when matching put anything on the heap.
  Outcome InPlace(const StoredClause& clause, Word goal, bool* wrote) {
    Outcome out;
    std::vector<Word> vars(clause.term.num_vars, 0);
    std::vector<Word> work;
    size_t pos = clause.head_pos;
    size_t heap = store_.HeapMark();
    out.matched = MatchNext(&store_, clause.term, &pos, goal, &vars, &work);
    *wrote = store_.HeapMark() > heap;
    if (!out.matched) return out;
    Word body = AtomCell(symbols_.truth());
    if (clause.is_rule) {
      body = UnflattenNext(&store_, clause.term, &pos, &vars);
    }
    EXPECT_EQ(pos, clause.term.size()) << "stream not consumed";
    out.instance = Flatten(store_, Pair(goal, body));
    return out;
  }

  // Whether plain unification of the goal with a fresh clause head stays
  // acyclic; undoes everything it did.
  Mgu Classify(const StoredClause& clause, Word goal) {
    size_t trail = store_.TrailMark();
    size_t heap = store_.HeapMark();
    Word inst = Unflatten(&store_, clause.term);
    Word head = clause.is_rule ? store_.Arg(store_.Deref(inst), 0) : inst;
    Mgu mgu = OccursCheck(&store_).Unify(goal, head);
    store_.UndoTrail(trail);
    store_.TruncateHeap(heap);
    return mgu;
  }

  // Runs both ways from the same marks and compares them. Returns the
  // classification; *matched and *wrote report the in-place run.
  Mgu Compare(const StoredClause& clause, Word goal, const std::string& label,
              bool* matched, bool* wrote) {
    *matched = false;
    *wrote = false;
    Mgu mgu = Classify(clause, goal);
    if (mgu == Mgu::kCyclic) return mgu;
    size_t trail = store_.TrailMark();
    size_t heap = store_.HeapMark();
    Outcome reference = Reference(clause, goal);
    store_.UndoTrail(trail);
    store_.TruncateHeap(heap);
    Outcome in_place = InPlace(clause, goal, wrote);
    store_.UndoTrail(trail);
    store_.TruncateHeap(heap);
    EXPECT_EQ(in_place.matched, reference.matched) << label;
    EXPECT_EQ(in_place.matched, mgu == Mgu::kUnifies) << label;
    if (in_place.matched && reference.matched) {
      EXPECT_EQ(in_place.instance, reference.instance) << label;
    }
    *matched = in_place.matched;
    return mgu;
  }

 private:
  Word Pair(Word goal, Word body) {
    return store_.MakeStruct2(symbols_.InternAtom("$r"), goal, body);
  }

  SymbolTable symbols_;
  TermStore store_;
  OpTable ops_;
};

// Named cases, one per shape the sweep must cover.
TEST(HeadMatchDifferential, NamedCases) {
  struct Case {
    const char* clause;
    const char* goal;
    bool matches;
  };
  const Case cases[] = {
      // Repeated clause variables.
      {"p(X, X)", "p(a, a)", true},
      {"p(X, X)", "p(a, b)", false},
      {"p(X, f(X), X)", "p(A, f(b), A)", true},
      // Goal variables aliased to each other.
      {"p(a, b)", "p(Y, Y)", false},
      {"p(a, a)", "p(Y, Y)", true},
      {"p(X, Y)", "p(Z, Z)", true},
      // Write mode into a struct that holds an already-bound clause
      // variable, and into one holding a clause variable seen first there.
      {"p(X, f(X, Y), Y)", "p(a, Z, c)", true},
      {"p(X, g(h(X)))", "p(f(W), Z)", true},
      // Negative ints, lists, atom heads.
      {"p(-5, 3)", "p(-5, 3)", true},
      {"p(-5)", "p(5)", false},
      {"p(-1000000, X)", "p(Y, -3)", true},
      {"p([X|T], T)", "p([1, 2, 3], L)", true},
      {"p([a, b | T])", "p([a, c])", false},
      {"p([])", "p(L)", true},
      {"p", "p", true},
      {"(p :- q)", "p", true},
      // Rules: the body shares the head's bindings.
      {"(p(X, Y) :- q(X, Z), r(Z, Y))", "p(a, W)", true},
      {"(p(f(X)) :- X)", "p(f(q(1)))", true},
      {"(p(X, X) :- true)", "p(A, g(B))", true},
  };
  HeadMatchHarness h;
  for (const Case& c : cases) {
    StoredClause clause = h.Store(h.Parse(c.clause));
    Word goal = h.Parse(c.goal);
    std::string label = std::string(c.clause) + " vs " + c.goal;
    bool matched = false, wrote = false;
    EXPECT_NE(h.Compare(clause, goal, label, &matched, &wrote), Mgu::kCyclic)
        << label;
    EXPECT_EQ(matched, c.matches) << label;
  }
}

// --- The 51-seed sweep -------------------------------------------------------

// Random clause/goal pairs. A goal is usually a perturbed copy of the clause
// head, so that matching runs deep before it succeeds or fails; the
// perturbations put unbound, aliased and already-bound goal variables at
// every depth.
class PairGenerator {
 public:
  PairGenerator(HeadMatchHarness* h, uint32_t seed)
      : h_(h), store_(&h->store()), rng_(seed) {
    SymbolTable& symbols = h->symbols();
    for (const char* name : {"a", "b", "c", "[]"}) {
      atoms_.push_back(AtomCell(symbols.InternAtom(name)));
    }
    AtomId f = symbols.InternAtom("f");
    AtomId g = symbols.InternAtom("g");
    AtomId h3 = symbols.InternAtom("h");
    functors_ = {symbols.InternFunctor(f, 1), symbols.InternFunctor(g, 2),
                 symbols.InternFunctor(h3, 3)};
    cons_ = symbols.InternFunctor(symbols.dot(), 2);
    neck_ = symbols.InternFunctor(symbols.neck(), 2);
    pred_ = symbols.InternAtom("p");
  }

  // A clause over a pool of up to three variables: head p/0..p/3, and a
  // body two times in five.
  Word Clause() {
    pool_.clear();
    for (uint32_t i = 0, n = 1 + Pick(3); i < n; ++i) {
      pool_.push_back(store_->MakeVar());
    }
    Word head = Head(Pick(4));
    if (Pick(5) >= 2) return head;
    return store_->MakeStruct(neck_, {head, Term(2)});
  }

  // A goal for `clause`: nine in ten perturb its head, the rest are random
  // p/N terms.
  Word Goal(const StoredClause& clause) {
    pool_.clear();
    for (int i = 0; i < 3; ++i) pool_.push_back(store_->MakeVar());
    clause_vars_.assign(clause.term.num_vars, 0);
    if (Pick(10) == 0) return Head(Pick(4));
    size_t pos = clause.head_pos;
    return Perturb(clause.term, &pos);
  }

 private:
  uint32_t Pick(uint32_t n) { return static_cast<uint32_t>(rng_() % n); }

  Word Head(uint32_t arity) {
    if (arity == 0) return AtomCell(pred_);
    std::vector<Word> args;
    for (uint32_t i = 0; i < arity; ++i) args.push_back(Term(3));
    FunctorId p = h_->symbols().InternFunctor(pred_, static_cast<int>(arity));
    return store_->MakeStruct(p, args);
  }

  Word Leaf() {
    switch (Pick(4)) {
      case 0:
      case 1:
        return pool_[Pick(static_cast<uint32_t>(pool_.size()))];
      case 2:
        return atoms_[Pick(static_cast<uint32_t>(atoms_.size()))];
      default: {
        static const int64_t kInts[] = {0, 1, -1, 7, -7, -(int64_t{1} << 60)};
        return IntCell(kInts[Pick(6)]);
      }
    }
  }

  Word Term(int depth) {
    uint32_t r = Pick(10);
    if (depth == 0 || r < 4) return Leaf();
    if (r < 6) {
      // A list of 0..3 elements with a leaf tail (often []).
      Word list = Pick(2) == 0 ? atoms_[3] : Leaf();
      for (uint32_t i = 0, n = Pick(4); i < n; ++i) {
        list = store_->MakeStruct(cons_, {Term(depth - 1), list});
      }
      return list;
    }
    FunctorId f = functors_[Pick(3)];
    std::vector<Word> args;
    for (int i = 0; i < h_->symbols().FunctorArity(f); ++i) {
      args.push_back(Term(depth - 1));
    }
    return store_->MakeStruct(f, args);
  }

  // A goal subterm for the clause subterm at *pos, advancing *pos past it.
  Word Perturb(const FlatTerm& flat, size_t* pos) {
    uint32_t r = Pick(100);
    Word w = flat.cells[*pos];
    Word t;
    if (r < 12) {
      // An unbound goal variable from a pool of three: aliasing.
      *pos = SkipFlatSubterm(h_->symbols(), flat.cells, *pos);
      t = pool_[Pick(3)];
    } else if (r < 17) {
      *pos = SkipFlatSubterm(h_->symbols(), flat.cells, *pos);
      t = Term(2);
    } else if (IsLocal(w)) {
      ++*pos;
      // Keep repeated clause variables consistent most of the time so that
      // matches succeed.
      Word& v = clause_vars_[PayloadOf(w)];
      if (v == 0 || Pick(4) == 0) v = Term(2);
      t = v;
    } else if (IsFunctor(w)) {
      ++*pos;
      FunctorId f = FunctorOf(w);
      std::vector<Word> args;
      for (int i = 0; i < h_->symbols().FunctorArity(f); ++i) {
        args.push_back(Perturb(flat, pos));
      }
      t = store_->MakeStruct(f, args);
    } else {
      ++*pos;
      t = Pick(20) == 0 ? Leaf() : w;
    }
    if (Pick(100) < 8) {
      // An already-bound goal variable in front of the subterm.
      Word v = store_->MakeVar();
      store_->Bind(v, t);
      t = v;
    }
    return t;
  }

  HeadMatchHarness* h_;
  TermStore* store_;
  std::mt19937 rng_;
  std::vector<Word> atoms_;
  std::vector<FunctorId> functors_;
  FunctorId cons_, neck_;
  AtomId pred_;
  std::vector<Word> pool_;
  std::vector<Word> clause_vars_;
};

class HeadMatchDifferentialSweep : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(HeadMatchDifferentialSweep, InPlaceMatchAgreesWithUnflattenAndUnify) {
  const uint32_t seed = GetParam();
  HeadMatchHarness h;
  PairGenerator gen(&h, seed);
  int matched_count = 0, failed_count = 0, wrote_count = 0, cyclic = 0;
  constexpr int kPairs = 300;
  for (int i = 0; i < kPairs; ++i) {
    size_t heap = h.store().HeapMark();
    size_t trail = h.store().TrailMark();
    StoredClause clause = h.Store(gen.Clause());
    Word goal = gen.Goal(clause);
    std::string label =
        "seed " + std::to_string(seed) + " pair " + std::to_string(i);
    bool matched = false, wrote = false;
    Mgu mgu = h.Compare(clause, goal, label, &matched, &wrote);
    if (mgu == Mgu::kCyclic) {
      ++cyclic;
    } else {
      (matched ? matched_count : failed_count)++;
      if (wrote) ++wrote_count;
    }
    h.store().UndoTrail(trail);
    h.store().TruncateHeap(heap);
  }
  // The sweep exercises both outcomes and write mode on every seed.
  EXPECT_GT(matched_count, kPairs / 10) << "seed " << seed;
  EXPECT_GT(failed_count, kPairs / 10) << "seed " << seed;
  EXPECT_GT(wrote_count, 0) << "seed " << seed;
  EXPECT_LT(cyclic, kPairs / 10) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadMatchDifferentialSweep,
                         ::testing::Range(0u, 51u));

}  // namespace
}  // namespace xsb
