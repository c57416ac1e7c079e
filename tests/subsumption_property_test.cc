// Property and differential testing for answer subsumption (tier 2).
//
// Part 1 — algebraic properties over seeded random fact streams:
//   * min/max tables are insertion-order insensitive (lattice joins are
//     commutative and associative),
//   * re-deriving the same answers is idempotent (duplicated facts change
//     nothing),
//   * first(N) tables never exceed N answers per key and only ever contain
//     answers that were actually derived.
//
// Part 2 — a 51-seed random weighted digraph sweep: shortest path (min
// lattice) and widest path (max lattice) computed by three independent
// engines — SLG with in-trie subsumption, bottom-up semi-naive with the
// same lattices, and a naive all-answers enumeration post-filtered in C++ —
// must agree exactly. The engines share no evaluation machinery, so any
// divergence pins a bug to one of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bottomup/seminaive.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

// key (from, to) -> best cost, all rendered as strings.
using BestMap = std::map<std::pair<std::string, std::string>, int64_t>;

// --- Random weighted digraphs ------------------------------------------------

struct WeightedGraph {
  int num_nodes = 0;
  // (from, to) -> weight; at most one edge per ordered pair.
  std::map<std::pair<int, int>, int> edges;
};

WeightedGraph MakeGraph(uint32_t seed) {
  std::mt19937 rng(seed);
  WeightedGraph g;
  g.num_nodes = 5 + static_cast<int>(rng() % 4);  // 5..8 nodes
  int shape = seed % 3;
  auto add_edge = [&](int a, int b) {
    g.edges.try_emplace({a, b}, 1 + static_cast<int>(rng() % 9));
  };
  if (shape == 0) {
    // Chain with random shortcuts: shortest paths have nontrivial structure.
    for (int i = 1; i < g.num_nodes; ++i) add_edge(i, i + 1);
    for (int k = 0; k < 3; ++k) {
      add_edge(1 + static_cast<int>(rng() % g.num_nodes),
               1 + static_cast<int>(rng() % g.num_nodes));
    }
  } else if (shape == 1) {
    // Full cycle plus chords: every pair connected, replacement-heavy.
    for (int i = 1; i <= g.num_nodes; ++i) add_edge(i, i % g.num_nodes + 1);
    for (int k = 0; k < 2; ++k) {
      add_edge(1 + static_cast<int>(rng() % g.num_nodes),
               1 + static_cast<int>(rng() % g.num_nodes));
    }
  } else {
    // Sparse random digraph (self-loops possible and harmless).
    int num_edges = g.num_nodes + static_cast<int>(rng() % g.num_nodes);
    for (int k = 0; k < num_edges; ++k) {
      add_edge(1 + static_cast<int>(rng() % g.num_nodes),
               1 + static_cast<int>(rng() % g.num_nodes));
    }
  }
  return g;
}

std::string EdgeFacts(const WeightedGraph& g) {
  std::string text;
  for (const auto& [pair, w] : g.edges) {
    text += "edge(" + std::to_string(pair.first) + "," +
            std::to_string(pair.second) + "," + std::to_string(w) + ").\n";
  }
  return text;
}

// --- Oracle 1: SLG with in-trie answer subsumption ---------------------------

// kind: "min" with cost C1 + C2 (shortest path) or "max" with bottleneck
// min(W1, W2) (widest path).
std::string SlgProgram(const WeightedGraph& g, const std::string& kind) {
  std::string combine = kind == "min" ? "C is C1 + C2" : "C is min(C1, C2)";
  return ":- table best(_, _, " + kind + ").\n" +
         "best(X, Y, C) :- edge(X, Y, C).\n" +
         "best(X, Y, C) :- best(X, Z, C1), edge(Z, Y, C2), " + combine +
         ".\n" + EdgeFacts(g);
}

BestMap SlgBest(const WeightedGraph& g, const std::string& kind) {
  Engine engine;
  EXPECT_TRUE(engine.ConsultString(SlgProgram(g, kind)).ok());
  BestMap best;
  Status s = engine.ForEach("best(X, Y, C)", [&](const Answer& a) {
    auto [it, inserted] =
        best.try_emplace({a["X"], a["Y"]}, std::stoll(a["C"]));
    EXPECT_TRUE(inserted) << "two live answers for (" << a["X"] << ", "
                          << a["Y"] << ")";
    return true;
  });
  EXPECT_TRUE(s.ok()) << s.message();
  return best;
}

// --- Oracle 2: bottom-up semi-naive with the same lattices -------------------

BestMap BottomUpBest(const WeightedGraph& g, const std::string& kind) {
  std::string combine =
      kind == "min" ? "add(C1, C2, C)" : "min(C1, C2, C)";
  std::string text = "lattice(best, 3, 3, " + kind + ").\n" +
                     "best(X, Y, C) :- edge(X, Y, C).\n" +
                     "best(X, Y, C) :- best(X, Z, C1), edge(Z, Y, C2), " +
                     combine + ".\n" + EdgeFacts(g);
  datalog::DatalogProgram dl;
  EXPECT_TRUE(datalog::ParseDatalog(text, &dl).ok());
  datalog::Evaluation eval(&dl);
  EXPECT_TRUE(eval.Run().ok());
  BestMap best;
  datalog::PredId id = dl.InternPred("best", 3);
  datalog::Relation& rel = eval.relation(id);
  for (uint32_t row = 0; row < rel.tuples().size(); ++row) {
    if (rel.IsDead(row)) continue;  // tombstoned by a lattice replacement
    const datalog::Tuple& t = rel.tuples()[row];
    auto [it, inserted] = best.try_emplace(
        {dl.consts().ToString(t[0]), dl.consts().ToString(t[1])},
        dl.consts().IntOf(t[2]));
    EXPECT_TRUE(inserted) << "two live tuples for one key";
  }
  return best;
}

// --- Oracle 3: naive all-answers enumeration, post-filtered ------------------

// Enumerates every walk of at most `depth` edges with plain SLD (no tables,
// no subsumption) and aggregates in C++. With positive weights the best
// walk is a simple path, so depth = num_nodes covers the optimum.
BestMap NaiveBest(const WeightedGraph& g, const std::string& kind) {
  std::string combine = kind == "min" ? "C is C1 + C2" : "C is min(C1, C2)";
  std::string program =
      "walk(X, Y, C, s(_)) :- edge(X, Y, C).\n"
      "walk(X, Y, C, s(D)) :- edge(X, Z, C1), walk(Z, Y, C2, D), " + combine +
      ".\n" + EdgeFacts(g);
  std::string depth = "0";
  for (int i = 0; i < g.num_nodes; ++i) depth = "s(" + depth + ")";
  Engine engine;
  EXPECT_TRUE(engine.ConsultString(program).ok());
  BestMap best;
  Status s = engine.ForEach(
      "walk(X, Y, C, " + depth + ")", [&](const Answer& a) {
        int64_t c = std::stoll(a["C"]);
        auto [it, inserted] = best.try_emplace({a["X"], a["Y"]}, c);
        if (!inserted) {
          it->second = kind == "min" ? std::min(it->second, c)
                                     : std::max(it->second, c);
        }
        return true;
      });
  EXPECT_TRUE(s.ok()) << s.message();
  return best;
}

// --- The 51-seed sweep -------------------------------------------------------

TEST(SubsumptionDifferential, ShortestAndWidestPathsAgreeAcrossEngines) {
  for (uint32_t seed = 0; seed < 51; ++seed) {
    WeightedGraph g = MakeGraph(seed);
    for (const std::string kind : {"min", "max"}) {
      BestMap slg = SlgBest(g, kind);
      BestMap bottom_up = BottomUpBest(g, kind);
      BestMap naive = NaiveBest(g, kind);
      EXPECT_EQ(slg, naive) << "SLG vs naive, seed " << seed << " " << kind;
      EXPECT_EQ(bottom_up, naive)
          << "bottom-up vs naive, seed " << seed << " " << kind;
    }
  }
}

// --- Algebraic properties over random streams --------------------------------

// Consults the same weighted edges in a shuffled order; the lattice result
// must not depend on insertion order.
TEST(SubsumptionProperty, MinMaxAreInsertionOrderInsensitive) {
  for (uint32_t seed = 100; seed < 120; ++seed) {
    WeightedGraph g = MakeGraph(seed);
    std::vector<std::string> facts;
    for (const auto& [pair, w] : g.edges) {
      facts.push_back("edge(" + std::to_string(pair.first) + "," +
                      std::to_string(pair.second) + "," + std::to_string(w) +
                      ").\n");
    }
    std::mt19937 rng(seed * 7 + 1);
    for (const std::string kind : {"min", "max"}) {
      BestMap reference = SlgBest(g, kind);
      for (int shuffle = 0; shuffle < 3; ++shuffle) {
        std::shuffle(facts.begin(), facts.end(), rng);
        std::string program =
            ":- table best(_, _, " + kind + ").\n" +
            "best(X, Y, C) :- edge(X, Y, C).\n" +
            "best(X, Y, C) :- best(X, Z, C1), edge(Z, Y, C2), " +
            (kind == "min" ? std::string("C is C1 + C2")
                           : std::string("C is min(C1, C2)")) +
            ".\n";
        for (const std::string& f : facts) program += f;
        Engine engine;
        ASSERT_TRUE(engine.ConsultString(program).ok());
        BestMap got;
        ASSERT_TRUE(engine
                        .ForEach("best(X, Y, C)",
                                 [&](const Answer& a) {
                                   got[{a["X"], a["Y"]}] = std::stoll(a["C"]);
                                   return true;
                                 })
                        .ok());
        EXPECT_EQ(got, reference)
            << "seed " << seed << " shuffle " << shuffle << " " << kind;
      }
    }
  }
}

// Duplicating every fact (re-deriving every answer twice) changes nothing.
TEST(SubsumptionProperty, ReDerivationIsIdempotent) {
  for (uint32_t seed = 200; seed < 215; ++seed) {
    WeightedGraph g = MakeGraph(seed);
    BestMap reference = SlgBest(g, "min");
    std::string program = SlgProgram(g, "min") + EdgeFacts(g);
    Engine engine;
    ASSERT_TRUE(engine.ConsultString(program).ok());
    BestMap got;
    ASSERT_TRUE(engine
                    .ForEach("best(X, Y, C)",
                             [&](const Answer& a) {
                               auto [it, inserted] = got.try_emplace(
                                   {a["X"], a["Y"]}, std::stoll(a["C"]));
                               EXPECT_TRUE(inserted);
                               return true;
                             })
                    .ok());
    EXPECT_EQ(got, reference) << "seed " << seed;
  }
}

// first(N) keeps at most N answers per key, and only answers that were in
// the derived stream.
TEST(SubsumptionProperty, FirstNBoundsCardinalityPerKey) {
  for (uint32_t seed = 300; seed < 320; ++seed) {
    std::mt19937 rng(seed);
    int n = 1 + static_cast<int>(rng() % 3);  // first(1..3)
    int num_keys = 2 + static_cast<int>(rng() % 3);
    int stream_len = 8 + static_cast<int>(rng() % 8);
    std::map<int, std::vector<int>> stream;  // key -> values in order
    std::string program =
        ":- table fk(_, first(" + std::to_string(n) + ")).\n" +
        "fk(K, V) :- kv(K, V).\n";
    for (int i = 0; i < stream_len; ++i) {
      int k = 1 + static_cast<int>(rng() % num_keys);
      int v = 1 + static_cast<int>(rng() % 10);
      stream[k].push_back(v);
      program += "kv(" + std::to_string(k) + "," + std::to_string(v) + ").\n";
    }
    Engine engine;
    ASSERT_TRUE(engine.ConsultString(program).ok());
    std::map<int, std::vector<int>> kept;
    ASSERT_TRUE(engine
                    .ForEach("fk(K, V)",
                             [&](const Answer& a) {
                               kept[std::stoi(a["K"])].push_back(
                                   std::stoi(a["V"]));
                               return true;
                             })
                    .ok());
    for (auto& [k, values] : kept) {
      EXPECT_LE(values.size(), static_cast<size_t>(n)) << "seed " << seed;
      for (int v : values) {
        const std::vector<int>& derived = stream[k];
        EXPECT_NE(std::find(derived.begin(), derived.end(), v),
                  derived.end())
            << "seed " << seed << ": kept a value never derived";
      }
    }
    // Every key that produced answers keeps at least one.
    for (const auto& [k, derived] : stream) {
      EXPECT_FALSE(kept[k].empty()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace xsb
