#ifndef XSB_TABLING_EVALUATOR_H_
#define XSB_TABLING_EVALUATOR_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/machine.h"
#include "tabling/table_space.h"

namespace xsb {

// The SLG evaluator: plugs into the Machine as its TabledCallHandler and
// turns SLD into SLG resolution for tabled predicates (section 3).
//
// Scheduling is *local*: a tabled call made from ordinary (non-tabled)
// execution opens an evaluation batch, drives every subgoal the batch
// creates to fixpoint, marks them complete, and only then returns answers
// to the caller through an answer choice point. Inside a batch, repeated
// calls become suspended consumers captured by copying the (call,
// continuation) pair into table space — the copying realization of the
// SLG-WAM's frozen stacks. The batch loop works in delivery rounds: each
// round resumes every consumer once, over the range of its producer's
// answers it has not yet seen. The continuation is copied back once per
// range, and one answer choice point (Machine::RunAnswers) backtracks
// through the range, as the SLG-WAM backtracks through a frozen consumer's
// answers. Answers arriving during a round wait for the next one; rounds
// repeat until one delivers nothing.
//
// Negation:
//   * tnot/1  — SLG negation: completes the subgoal in a nested batch, then
//     succeeds iff the (necessarily ground) call has no answer. A nested
//     batch that touches an incomplete table of an enclosing batch is a
//     modular-stratification violation and is reported as an error.
//   * e_tnot/1 — existential negation: the nested batch stops at the first
//     answer and *disposes* every table it created (the tcut mechanism),
//     reproducing the paper's Table 2 behavior.
//
// Ground calls complete early: as soon as a ground subgoal gets its answer,
// its generator is cut off (XSB's early completion), which is what makes
// e_tnot explore sqrt(2)^n rather than 2^n nodes of the win/1 tree.
//
// Incremental maintenance: the evaluator registers as the program's update
// listener. While a table is being computed it records which incremental
// dynamic predicates its clauses read and which subsidiary tables it
// consumed (refining the analyzer's static seeds). An assert/retract on an
// incremental predicate then marks exactly the completed tables that
// transitively depend on it invalid; an invalid table is re-evaluated
// lazily on its next call, reusing every still-valid subsidiary table.
//
// Shared-table mode: an Evaluator may be constructed over an external
// TableSpace shared with other sessions (QueryService workers). The *warm
// path* — a top-level call whose table is already complete and valid —
// serves answers entirely lock-free via the publication/revalidation
// protocol (see Subgoal). A top-level caller that finds another session's
// batch mid-computation of its variant parks on the completion condvar
// instead of duplicating the work (first caller computes).
//
// Cold evaluation is parallel across *independent* subgoals: a top-level
// cold call acquires its predicate's static shard reach mask (analyzer SCC
// output, see PublishEvalShards) all-or-nothing, making this session the
// exclusive evaluator of every tabled predicate in those shards. Sessions
// whose roots reach disjoint shard sets evaluate concurrently against the
// shared space. A mid-batch call that falls outside the owned mask (the
// mask went stale via assertz, or the predicate was never analyzed) tries a
// non-blocking shard escalation; if the needed shards are contended the
// batch unwinds via an internal kRetryEvaluation status — disposing its
// partial tables exactly like an error — and restarts under the full shard
// mask (the coarse fallback, counted in coarse_fallbacks). Blocking shard
// acquisition only ever happens while holding no shards, so the scheduler
// cannot deadlock; condvar waits on in-progress variants likewise occur
// only outside any batch.
class Evaluator : public TabledCallHandler, public TableUpdateListener {
 public:
  struct Options {
    // Store answers as interned token paths in a trie (the default). When
    // false, falls back to the materialized vector + hash-set store, kept
    // for the indexing-ablation bench.
    bool answer_trie = true;
    // Complete ground subgoals as soon as their answer arrives, cutting off
    // the rest of their generator. This post-1994 XSB optimization makes
    // default tnot behave like e_tnot on Table 2's trees, so it is OFF by
    // default and exercised by the ablation bench.
    bool early_completion = false;
    // Maintain tables across updates to :- incremental predicates (the
    // default). When false, such an update abolishes the whole table space
    // — the from-scratch baseline the update bench compares against.
    bool incremental = true;
    // Register as the Program's (single) update listener. QueryService
    // worker sessions set this false: the service's control session owns
    // the listener slot, and all sessions share one table space anyway.
    bool register_update_listener = true;
  };

  explicit Evaluator(Machine* machine) : Evaluator(machine, Options()) {}
  Evaluator(Machine* machine, Options options)
      : Evaluator(machine, options, nullptr) {}
  // Shared-table construction: evaluate against `shared_tables` (owned by
  // the caller, typically a QueryService) instead of a private space.
  Evaluator(Machine* machine, Options options, TableSpace* shared_tables);
  ~Evaluator() override;

  TableSpace& tables() { return *tables_; }
  const TableSpace& tables() const { return *tables_; }

  // Drops all tables (exposed to benches; abolish_all_tables/0 equivalent).
  void AbolishAllTables();

  struct EvalStats {
    uint64_t batches = 0;
    uint64_t generator_episodes = 0;
    uint64_t resumptions = 0;
    uint64_t early_completions = 0;
    uint64_t existential_aborts = 0;
    uint64_t update_events = 0;  // incremental-predicate change reports
  };
  const EvalStats& stats() const { return stats_; }

  // TabledCallHandler:
  CallOutcome OnTabledCall(Machine* machine, Word goal,
                           const GoalNode* cont) override;
  CallOutcome OnTabledAnswer(Machine* machine, int64_t subgoal_index,
                             Word call_instance) override;
  CallOutcome OnNegation(Machine* machine, Word goal, const GoalNode* cont,
                         bool existential) override;
  CallOutcome OnTFindall(Machine* machine, Word templ, Word goal, Word result,
                         const GoalNode* cont) override;
  TableStatsInfo GetTableStats(Machine* machine, Word goal) override;
  void OnIncrementalAccess(FunctorId functor) override;
  bool AbolishTableCall(Machine* machine, Word goal) override;
  TableState GetTableState(Machine* machine, Word goal) override;

  // TableUpdateListener: an incremental predicate gained or lost clauses.
  void OnIncrementalUpdate(FunctorId functor) override;
  // A predicate became incremental after tables may have been built over it:
  // no dependency entries exist, so every completed table is conservatively
  // invalidated (or, in baseline mode, the table space abolished).
  void OnIncrementalDeclaration(FunctorId functor) override;

 private:
  struct Batch {
    uint64_t id;
    std::vector<SubgoalId> subgoals;
    std::vector<Consumer> consumers;
    std::vector<SubgoalId> generator_queue;
    SubgoalId stop_on_answer = kNoSubgoal;
    bool aborted = false;
  };

  // Runs `root` (a fresh subgoal for `goal`) to completion in a new batch.
  // With `existential`, stops at the root's first answer and disposes the
  // batch's tables. *has_answer reports whether the root derived an answer.
  // Caller owns shards covering `functor` (owned_shards_); may return the
  // internal kRetryEvaluation status, after which the batch's tables are
  // already disposed and the caller restarts under the full mask.
  Status EvaluateToCompletion(Word goal, FunctorId functor, bool existential,
                              bool* has_answer, SubgoalId* root_out);

  Status RunBatchLoop(size_t batch_index);
  Status RunGeneratorEpisode(SubgoalId id);
  // Resumes `consumer` once over its producer's answers
  // [consumer.next_answer, end): the saved continuation is rebuilt once and
  // run under one answer-range choice point (Machine::RunAnswers).
  Status DeliverRange(const Consumer& consumer, size_t end);

  // Lock-free warm-path attempt for a top-level tabled call: serve `goal`
  // from a published complete+valid table. Returns true and pushes the
  // answer choice point on success.
  bool TryServeWarm(Machine* machine, Word goal, const GoalNode* cont);

  // Builds '$consumer'(Goal, [G1, ..., Gk]) for the continuation chain.
  Word BuildConsumerTerm(Word goal, const GoalNode* cont);

  // The subgoal whose generator/consumer code is currently running, or
  // kNoSubgoal outside tabled evaluation. Dependency edges captured during
  // evaluation are attributed to it.
  SubgoalId CurrentSubgoal() const {
    return eval_stack_.empty() ? kNoSubgoal : eval_stack_.back();
  }

  // Registers a fresh subgoal with the analyzer's static dependency seeds.
  void SeedSubgoalDeps(SubgoalId id, FunctorId functor);

#ifdef XSB_MODE_ORACLE
  // Sanitizer-build soundness oracle: every subgoal records the success
  // modes the analysis published for its predicate (plus the clause epoch
  // they were computed at); every answer is then asserted against them.
  // An epoch mismatch (runtime assertz after the analysis) downgrades the
  // modes to untrusted hints and skips the assert.
  struct ModeExpectation {
    uint64_t epoch = 0;
    std::vector<uint8_t> success;  // kMode* bytes; empty = proven to fail
    bool has_modes = false;
  };
  void RecordModeExpectation(SubgoalId id, FunctorId functor);
  void CheckAnswerModes(SubgoalId id, Word call_instance);
  std::unordered_map<SubgoalId, ModeExpectation> mode_expectations_;
#endif

  // Applies a deferred full abolish (baseline mode) once no batch is live.
  void ApplyPendingAbolish();

  // --- Shard ownership (see the class comment) -------------------------------

  // The shards to acquire before evaluating `functor` cold: its published
  // reach mask plus its own shard bit; kAllEvalShards when the analyzer
  // never assigned it a shard.
  ShardMask ReachMask(FunctorId functor) const;
  // Goal-aware refinement used by top-level cold calls: consults the mode
  // analysis's per-call-pattern reach masks (and, for a bound first
  // argument, the predicate's first-arg key masks) to acquire fewer shards
  // than the functor-level mask. Every returned mask includes the
  // predicate's own shard bit; all refinements are hints — staleness is
  // repaired by the in-batch escalation / coarse fallback. Also counts a
  // runtime mode violation when the actual goal is less bound than the
  // analysis's site join says every call site is.
  ShardMask ReachMask(FunctorId functor, Word goal) const;
  // Ensures the running batch owns shards covering `functor`, widening
  // owned_shards_ via a non-blocking TryAcquireShards when it does not.
  // Returns the internal kRetryEvaluation status if the widening loses the
  // race; the batch then unwinds and restarts coarse.
  Status EnsureOwnedForCall(FunctorId functor);

  // The predicate's answer-subsumption declaration, or nullptr for plain
  // tabling; passed to TableSpace::LookupOrCreate at table creation.
  const TableSpec* SpecFor(FunctorId functor) const;

  Machine* machine_;
  std::unique_ptr<TableSpace> owned_tables_;  // null in shared mode
  TableSpace* tables_;
  bool early_completion_;
  bool incremental_;
  bool listener_registered_;
  std::vector<Batch> batches_;
  // Evaluation shards this session currently holds. Nonzero exactly while a
  // top-level cold evaluation (and its nested batches) runs; the session is
  // single-threaded, so no synchronization is needed on the member itself.
  ShardMask owned_shards_ = 0;
  // Subgoals whose evaluation frames are active, innermost last.
  std::vector<SubgoalId> eval_stack_;
  bool pending_full_abolish_ = false;
  EvalStats stats_;

  FunctorId f_resolve_clauses_, f_tabled_answer_, f_consumer_, f_dot_;
};

}  // namespace xsb

#endif  // XSB_TABLING_EVALUATOR_H_
