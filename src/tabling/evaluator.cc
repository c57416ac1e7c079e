#include "tabling/evaluator.h"

#include <cstdio>
#include <cstdlib>

#include "parser/writer.h"

namespace xsb {
namespace {

// Prefers the consult-time analyzer's S001 verdict (which carries a source
// span and the offending component) over the generic runtime message. The
// runtime trigger itself is unchanged; the generic text remains the fallback
// when the analyzer never saw this predicate (runtime asserts, skipped
// analysis).
Status StratificationFailure(Machine* machine, FunctorId functor,
                             const char* fallback) {
  const std::string* reason =
      machine->program()->UnstratifiedReason(functor);
  if (reason != nullptr) return StratificationError(*reason);
  return StratificationError(fallback);
}

// Internal unwind signal: a batch hit a call outside its owned shards and
// the non-blocking widening lost the race. It propagates through the
// machine's ordinary error path (disposing the batch's partial tables on the
// way out) and is consumed by the top-level retry loop — it never reaches
// the API.
Status RetryEvaluation() {
  return Status(ErrorCode::kRetryEvaluation,
                "shard escalation contended; restarting coarse");
}

}  // namespace

Evaluator::Evaluator(Machine* machine, Options options,
                     TableSpace* shared_tables)
    : machine_(machine),
      early_completion_(options.early_completion),
      incremental_(options.incremental),
      listener_registered_(options.register_update_listener) {
  if (shared_tables != nullptr) {
    tables_ = shared_tables;
  } else {
    owned_tables_ = std::make_unique<TableSpace>(
        machine->store()->symbols(), options.answer_trie, /*shared=*/false);
    tables_ = owned_tables_.get();
  }
  SymbolTable* symbols = machine->store()->symbols();
  f_resolve_clauses_ = symbols->InternFunctor(
      symbols->InternAtom("$resolve_clauses"), 1);
  f_tabled_answer_ =
      symbols->InternFunctor(symbols->InternAtom("$tabled_answer"), 2);
  f_consumer_ = symbols->InternFunctor(symbols->InternAtom("$consumer"), 2);
  f_dot_ = symbols->InternFunctor(symbols->dot(), 2);
  machine->set_tabled_handler(this);
  if (listener_registered_) {
    machine->program()->set_update_listener(this);
  }
}

Evaluator::~Evaluator() {
  if (listener_registered_) {
    machine_->program()->set_update_listener(nullptr);
  }
}

void Evaluator::AbolishAllTables() {
  ShardLease lease(tables_, kAllEvalShards);
  tables_->Clear();
}

ShardMask Evaluator::ReachMask(FunctorId functor) const {
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred == nullptr || pred->eval_shard() < 0) return kAllEvalShards;
  // The self bit is OR-ed in explicitly: a predicate tabled *after* the
  // analysis ran has a shard but no tabled bit in its published mask, and
  // exclusivity requires every evaluator of `functor` to hold its shard.
  return pred->eval_reach_mask() | EvalShardBit(pred->eval_shard());
}

ShardMask Evaluator::ReachMask(FunctorId functor, Word goal) const {
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred == nullptr || pred->eval_shard() < 0) return kAllEvalShards;
  ShardMask self = EvalShardBit(pred->eval_shard());
  TermStore* store = machine_->store();
  int arity = IsStruct(goal) ? store->StructArity(goal) : 0;

  // First-argument key masks: when every live clause keys on a constant
  // first argument, a bound first argument selects one clause group and
  // needs only that group's reach; a key-table miss means no clause can
  // match, so only the predicate's own shard is touched.
  const std::unordered_map<Word, ShardMask>* keys = pred->key_masks();
  if (keys != nullptr && arity >= 1) {
    Word a0 = store->Deref(store->Arg(goal, 0));
    if (IsAtom(a0) || IsInt(a0)) {
      auto it = keys->find(a0);
      return it == keys->end() ? self : (it->second | self);
    }
  }

  const PublishedModes* modes = pred->modes();
  if (modes == nullptr) return pred->eval_reach_mask() | self;

  // Runtime mode-violation counter: the site join is the join over every
  // call site the analysis saw, so a top-level call less bound than it is
  // a pattern the static analysis never predicted.
  if (static_cast<int>(modes->site_join.size()) == arity) {
    for (int i = 0; i < arity; ++i) {
      uint8_t m = modes->site_join[i];
      if (m == kModeAny) continue;
      Word v = store->Deref(store->Arg(goal, i));
      bool consistent = m == kModeFree     ? IsRef(v)
                        : m == kModeNonvar ? !IsRef(v)
                                           : store->IsGround(v);
      if (!consistent) {
        ++tables_->stats().mode_violations;
        break;
      }
    }
  }

  // Per-pattern reach masks: a pattern whose call modes the actual goal
  // satisfies abstracts this concrete call, so its mask upper-bounds the
  // call's reach; intersecting over all such patterns keeps the tightest.
  ShardMask best = 0;
  bool found = false;
  for (const PublishedModes::Pattern& pat : modes->patterns) {
    if (pat.reach_mask == 0 ||
        static_cast<int>(pat.call.size()) != arity) {
      continue;
    }
    bool satisfied = true;
    for (int i = 0; i < arity && satisfied; ++i) {
      uint8_t m = pat.call[i];
      if (m == kModeAny) continue;
      Word v = store->Deref(store->Arg(goal, i));
      satisfied = m == kModeFree     ? IsRef(v)
                  : m == kModeNonvar ? !IsRef(v)
                                     : store->IsGround(v);
    }
    if (!satisfied) continue;
    best = found ? (best & pat.reach_mask) : pat.reach_mask;
    found = true;
  }
  if (found) return best | self;
  return pred->eval_reach_mask() | self;
}

const TableSpec* Evaluator::SpecFor(FunctorId functor) const {
  const Predicate* pred = machine_->program()->Lookup(functor);
  return pred == nullptr ? nullptr : pred->table_spec();
}

Status Evaluator::EnsureOwnedForCall(FunctorId functor) {
  ShardMask need = ReachMask(functor) & ~owned_shards_;
  if (need == 0) return Status::Ok();
  // Already holding shards: blocking here could deadlock, so the widening
  // is try-only; contention unwinds the batch into the coarse restart.
  if (!tables_->TryAcquireShards(need)) return RetryEvaluation();
  owned_shards_ |= need;
  ++tables_->stats().shard_escalations;
  return Status::Ok();
}

#ifdef XSB_MODE_ORACLE
void Evaluator::RecordModeExpectation(SubgoalId id, FunctorId functor) {
  ModeExpectation exp;
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred != nullptr && pred->modes() != nullptr) {
    exp.has_modes = true;
    exp.epoch = pred->modes()->epoch;
    exp.success = pred->modes()->success_join;
  }
  mode_expectations_[id] = std::move(exp);
}

void Evaluator::CheckAnswerModes(SubgoalId id, Word call_instance) {
  auto it = mode_expectations_.find(id);
  if (it == mode_expectations_.end() || !it->second.has_modes) return;
  const ModeExpectation& exp = it->second;
  // Runtime asserts since the analysis may have added clauses with more
  // general answers: the published success modes are no longer a bound on
  // the current program, so the oracle stands down for this table.
  if (exp.epoch != machine_->program()->clause_epoch()) return;
  TermStore* store = machine_->store();
  Word d = store->Deref(call_instance);
  int arity = IsStruct(d) ? store->StructArity(d) : 0;
  auto die = [&](const char* what, int argnum) {
    std::fprintf(stderr,
                 "mode oracle: answer for subgoal %lld violates proven "
                 "success mode (%s, argument %d)\n",
                 static_cast<long long>(id), what, argnum);
    std::abort();
  };
  if (exp.success.empty()) {
    // success_join is empty exactly when the analysis proved every call
    // pattern of this predicate fails — an answer refutes the analysis.
    die("predicate proven to never succeed", 0);
  }
  if (static_cast<int>(exp.success.size()) != arity) return;
  for (int i = 0; i < arity; ++i) {
    Word v = store->Deref(store->Arg(d, i));
    if (exp.success[i] == kModeGround && !store->IsGround(v)) {
      die("proven ground", i + 1);
    }
    if (exp.success[i] == kModeNonvar && IsRef(v)) {
      die("proven nonvar", i + 1);
    }
  }
}
#endif  // XSB_MODE_ORACLE

void Evaluator::SeedSubgoalDeps(SubgoalId id, FunctorId functor) {
#ifdef XSB_MODE_ORACLE
  RecordModeExpectation(id, functor);
#endif
  const std::vector<FunctorId>* seeds =
      machine_->program()->IncrementalDepsOf(functor);
  if (seeds != nullptr) {
    for (FunctorId pred : *seeds) tables_->AddPredReader(pred, id);
  }
  // Runtime-declared incremental predicates may predate any analysis run;
  // a table always depends on its own predicate's clauses.
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred != nullptr && pred->incremental()) {
    tables_->AddPredReader(functor, id);
  }
}

void Evaluator::OnIncrementalAccess(FunctorId functor) {
  SubgoalId current = CurrentSubgoal();
  if (current != kNoSubgoal) tables_->AddPredReader(functor, current);
}

void Evaluator::OnIncrementalUpdate(FunctorId functor) {
  ++stats_.update_events;
  if (!incremental_) {
    // Baseline policy: any update to incremental data invalidates the world.
    // Deferred while a batch is live — Clear() would pull the tables out
    // from under the running evaluation.
    if (batches_.empty()) {
      ShardLease lease(tables_, kAllEvalShards);
      tables_->Clear();
    } else {
      pending_full_abolish_ = true;
    }
    return;
  }
  // Invalidation is shard-free: it takes the structure mutex and flips
  // per-subgoal atomics, so it is safe both mid-batch (assertz from inside
  // evaluation) and against other sessions' batches.
  tables_->InvalidateForPredicate(functor);
}

void Evaluator::OnIncrementalDeclaration(FunctorId /*functor*/) {
  if (tables_->num_subgoals() == 0) return;
  if (!incremental_) {
    if (batches_.empty()) {
      ShardLease lease(tables_, kAllEvalShards);
      tables_->Clear();
    } else {
      pending_full_abolish_ = true;
    }
    return;
  }
  tables_->InvalidateAll();
}

void Evaluator::ApplyPendingAbolish() {
  if (pending_full_abolish_ && batches_.empty()) {
    tables_->Clear();
    pending_full_abolish_ = false;
  }
}

Word Evaluator::BuildConsumerTerm(Word goal, const GoalNode* cont) {
  TermStore* store = machine_->store();
  std::vector<Word> goals;
  for (const GoalNode* n = cont; n != nullptr; n = n->next) {
    goals.push_back(n->goal);
  }
  Word list = store->MakeList(goals, AtomCell(store->symbols()->nil()));
  return store->MakeStruct(f_consumer_, {goal, list});
}

bool Evaluator::TryServeWarm(Machine* machine, Word goal,
                             const GoalNode* cont) {
  TermStore* store = machine->store();
  SubgoalId id = tables_->Lookup(*store, goal);  // lock-free; miss advisory
  if (id == kNoSubgoal) return false;
  const Subgoal& sg = tables_->subgoal(id);
  // Revalidation protocol (see Subgoal): state first, then the table
  // pointer, then state/invalid again. If the re-check still reads
  // complete+valid, `table` is the published complete snapshot (a racing
  // retirement would have moved `state` out of kComplete *before* swapping
  // the pointer), and epoch protection keeps it readable even if it is
  // retired after we return.
  if (sg.state_acquire() != SubgoalState::kComplete) return false;
  AnswerTable* table = sg.table();
  if (sg.state_acquire() != SubgoalState::kComplete || sg.invalid_acquire()) {
    return false;
  }
  ++tables_->stats().shared_table_hits;
  machine->PushAnswerChoices(goal, table, cont);
  return true;
}

TabledCallHandler::CallOutcome Evaluator::OnTabledCall(
    Machine* machine, Word goal, const GoalNode* cont) {
  TermStore* store = machine->store();
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, goal);
  if (!functor.has_value()) {
    machine->SetError(TypeError("tabled call is not callable"));
    return CallOutcome::kError;
  }

  if (batches_.empty()) {
    // Top-level call. The warm path — table already complete and valid —
    // is fully lock-free; it is the path concurrent serving scales on.
    if (!pending_full_abolish_ && TryServeWarm(machine, goal, cont)) {
      return CallOutcome::kContinue;
    }
    if (tables_->shared()) {
      // First caller computes: if another session's batch is mid-evaluation
      // of this variant, park until it completes rather than duplicating
      // the work, then serve the published table.
      for (int spins = 0; spins < 64; ++spins) {
        SubgoalId id = tables_->Lookup(*store, goal);
        if (id == kNoSubgoal) break;
        const Subgoal& sg = tables_->subgoal(id);
        if (sg.state_acquire() != SubgoalState::kIncomplete) break;
        ++tables_->stats().waits_on_inprogress;
        tables_->WaitUntilComplete(id);
        if (TryServeWarm(machine, goal, cont)) {
          return CallOutcome::kContinue;
        }
      }
    }
    // Cold path: evaluate to completion (also when an update left the table
    // invalid) while owning the call's shard reach mask, then enumerate
    // answers. A contended mid-batch escalation unwinds back here and
    // restarts under the full mask (coarse fallback).
    for (bool coarse = false;;) {
      ShardMask mask = coarse || pending_full_abolish_
                           ? kAllEvalShards
                           : ReachMask(*functor, goal);
      tables_->AcquireShards(mask);
      owned_shards_ = mask;
      ApplyPendingAbolish();
      SubgoalId id = tables_->Lookup(*store, goal);
      Status st = Status::Ok();
      if (id == kNoSubgoal || tables_->NeedsReevaluation(id)) {
        bool has_answer = false;
        st = EvaluateToCompletion(goal, *functor, /*existential=*/false,
                                  &has_answer, &id);
      }
      if (st.ok() && owned_shards_ != kAllEvalShards) {
        ++tables_->stats().parallel_batches;
      }
      // Capture the published table pointer *before* releasing the shards:
      // once they are gone another session may dispose the subgoal and swap
      // in a fresh empty table. The captured snapshot stays enumerable —
      // epoch reclamation keeps a concurrently retired table readable.
      AnswerTable* table = st.ok() ? tables_->subgoal(id).table() : nullptr;
      tables_->ReleaseShards(owned_shards_);
      owned_shards_ = 0;
      if (st.ok()) {
        machine->PushAnswerChoices(goal, table, cont);
        return CallOutcome::kContinue;
      }
      if (st.code() == ErrorCode::kRetryEvaluation && !coarse) {
        coarse = true;
        ++tables_->stats().coarse_fallbacks;
        continue;
      }
      machine->SetError(st);
      return CallOutcome::kError;
    }
  }

  // In-batch call: widen this batch's shard ownership to cover the callee
  // before touching its tables (stale reach masks are repaired here).
  Batch& batch = batches_.back();
  Status own = EnsureOwnedForCall(*functor);
  if (!own.ok()) {
    machine->SetError(own);
    return CallOutcome::kError;
  }
  auto [id, created] =
      tables_->LookupOrCreate(*store, goal, *functor, batch.id,
                              SpecFor(*functor));
  // The consuming table depends on the consumed one: an update invalidating
  // `id` must also invalidate whoever built answers from it.
  SubgoalId caller = CurrentSubgoal();
  if (caller != kNoSubgoal) tables_->AddDependent(id, caller);
  Subgoal& sg = tables_->subgoal(id);
  if (!created) {
    if (sg.state_acquire() == SubgoalState::kComplete) {
      if (!tables_->NeedsReevaluation(id)) {
        machine->PushAnswerChoices(goal, sg.table(), cont);
        return CallOutcome::kContinue;
      }
      // Invalid table called mid-batch: reopen it as a generator of this
      // batch; the caller suspends as an ordinary consumer below.
      tables_->ResetForReevaluation(id, batch.id);
#ifdef XSB_MODE_ORACLE
      RecordModeExpectation(id, *functor);
#endif
      batch.subgoals.push_back(id);
      batch.generator_queue.push_back(id);
    } else if (sg.batch_id != batch.id) {
      machine->SetError(StratificationFailure(
          machine, *functor,
          "tabled subgoal depends on an incomplete table of an enclosing "
          "negation: the program is not modularly stratified"));
      return CallOutcome::kError;
    }
  } else {
    SeedSubgoalDeps(id, *functor);
    batch.subgoals.push_back(id);
    batch.generator_queue.push_back(id);
  }
  // Suspend the caller as a consumer; the batch loop resumes it per answer.
  Consumer consumer;
  consumer.producer = id;
  consumer.owner = caller;
  consumer.saved = Flatten(*store, BuildConsumerTerm(goal, cont));
  batch.consumers.push_back(std::move(consumer));
  ++tables_->stats().consumer_suspensions;
  return CallOutcome::kFail;
}

TabledCallHandler::CallOutcome Evaluator::OnTabledAnswer(Machine* machine,
                                                         int64_t subgoal_index,
                                                         Word call_instance) {
  TermStore* store = machine->store();
  SubgoalId id = static_cast<SubgoalId>(subgoal_index);
  AnswerInsert outcome = tables_->AddAnswer(id, *store, call_instance);
  if (outcome == AnswerInsert::kBadAggregate) {
    machine->SetError(TypeError(
        "answer subsumption: min/max argument must be an integer"));
    return CallOutcome::kError;
  }
  // A replacement is an insertion: the table grew (the beaten answer was
  // retired in place, not unlinked), so suspended consumers see it as a new
  // answer and re-fire — exactly the wake semantics of a fresh answer.
  bool fresh =
      outcome == AnswerInsert::kNew || outcome == AnswerInsert::kReplaced;
#ifdef XSB_MODE_ORACLE
  // Only answers actually stored are asserted against the published success
  // modes: lattice-dropped candidates never become answers of the predicate,
  // and answers later retired by a replacement were valid when stored.
  if (fresh) CheckAnswerModes(id, call_instance);
#endif
  if (fresh && !batches_.empty()) {
    Batch& batch = batches_.back();
    if (batch.stop_on_answer == id) {
      // Existential negation: one answer suffices; abandon the batch.
      batch.aborted = true;
      ++stats_.existential_aborts;
      machine->RequestStop();
      return CallOutcome::kFail;
    }
    Subgoal& sg = tables_->subgoal(id);
    if (early_completion_ && sg.ground_call() &&
        sg.state_acquire() == SubgoalState::kIncomplete) {
      // Early completion: a ground call has exactly this one answer.
      sg.state.store(SubgoalState::kComplete, std::memory_order_release);
      ++stats_.early_completions;
      machine->RequestStop();
    }
  }
  return CallOutcome::kFail;
}

Status Evaluator::RunGeneratorEpisode(SubgoalId id) {
  ++stats_.generator_episodes;
  TermStore* store = machine_->store();
  const Subgoal& sg = tables_->subgoal(id);
  if (sg.state_acquire() != SubgoalState::kIncomplete) return Status::Ok();

  size_t trail = store->TrailMark();
  size_t heap = store->HeapMark();
  Word call = Unflatten(store, sg.call);
  Word resolve = store->MakeStruct(f_resolve_clauses_, {call});
  Word marker = store->MakeStruct(
      f_tabled_answer_, {IntCell(static_cast<int64_t>(id)), call});
  uint32_t cut_depth = static_cast<uint32_t>(machine_->choice_point_count());
  const GoalNode* chain = machine_->Cons(
      resolve, machine_->Cons(marker, nullptr, cut_depth), cut_depth);
  eval_stack_.push_back(id);
  Status status =
      machine_->Run(chain, []() { return SolveAction::kContinue; });
  eval_stack_.pop_back();
  store->UndoTrail(trail);
  store->TruncateHeap(heap);
  return status;
}

Status Evaluator::DeliverRange(const Consumer& consumer, size_t end) {
  TermStore* store = machine_->store();
  size_t trail = store->TrailMark();
  size_t heap = store->HeapMark();

  // The saved continuation is rebuilt once for the whole range.
  Word pair = store->Deref(Unflatten(store, consumer.saved));
  Word call = store->Arg(pair, 0);
  Word list = store->Deref(store->Arg(pair, 1));
  const AnswerTable* producer = tables_->subgoal(consumer.producer).table();
  size_t begin = consumer.next_answer;
  SubgoalId owner = consumer.owner;
  // `consumer` lives in the batch's consumer vector, which the run below
  // may grow: it is not touched past this point.

  // Continuation nodes cut back to just above the range's choice point: a
  // cut in the continuation prunes only its own choice points, as when
  // each answer had a run of its own.
  uint32_t cut_depth =
      static_cast<uint32_t>(machine_->choice_point_count() + 1);
  std::vector<Word> goals;
  while (IsStruct(list) && store->StructFunctor(list) == f_dot_) {
    goals.push_back(store->Arg(list, 0));
    list = store->Deref(store->Arg(list, 1));
  }
  const GoalNode* chain = nullptr;
  for (auto it = goals.rbegin(); it != goals.rend(); ++it) {
    chain = machine_->Cons(*it, chain, cut_depth);
  }

  // consumer_resumptions counts one per live answer actually returned to
  // the continuation: the range's choice point bumps `returned` as it hands
  // each one over, so a range cut short by a stop or an error counts only
  // what it delivered.
  uint64_t returned = 0;
  // The continuation is part of `owner`'s clause bodies: run it in the
  // owner's dependency-capture context.
  eval_stack_.push_back(owner);
  Status status =
      machine_->RunAnswers(call, producer, begin, end, chain, &returned);
  eval_stack_.pop_back();
  stats_.resumptions += returned;
  tables_->stats().consumer_resumptions += returned;
  store->UndoTrail(trail);
  store->TruncateHeap(heap);
  return status;
}

Status Evaluator::RunBatchLoop(size_t batch_index) {
  while (true) {
    if (batches_[batch_index].aborted) return Status::Ok();

    if (!batches_[batch_index].generator_queue.empty()) {
      SubgoalId next = batches_[batch_index].generator_queue.back();
      batches_[batch_index].generator_queue.pop_back();
      Status status = RunGeneratorEpisode(next);
      if (!status.ok()) return status;
      continue;
    }

    // One delivery round: each consumer is resumed once, over the answers
    // its producer holds at the start of its turn that it has not seen yet
    // ([next_answer, size)). Answers that arrive during the round —
    // including those the consumer's own continuation derives — are
    // delivered in the next round. The consumer and batch vectors can both
    // grow during a run, so everything is re-fetched through indices.
    bool progressed = false;
    for (size_t ci = 0; ci < batches_[batch_index].consumers.size(); ++ci) {
      if (batches_[batch_index].aborted) return Status::Ok();
      if (!batches_[batch_index].generator_queue.empty()) break;
      Consumer& c = batches_[batch_index].consumers[ci];
      size_t end = tables_->subgoal(c.producer).table()->size();
      if (c.next_answer >= end) continue;
      Status status = DeliverRange(c, end);
      // A RequestStop mid-range ends the range: either the owner completed
      // early (a ground call has its one answer) or an e_tnot found its
      // answer and this batch is aborted. Skipping the rest of the range is
      // sound only because of that — the owner is complete, or its batch's
      // tables are about to be disposed.
      batches_[batch_index].consumers[ci].next_answer = end;
      if (!status.ok()) return status;
      progressed = true;
    }
    if (!batches_[batch_index].generator_queue.empty()) continue;
    if (!progressed) return Status::Ok();  // fixpoint
  }
}

Status Evaluator::EvaluateToCompletion(Word goal, FunctorId functor,
                                       bool existential, bool* has_answer,
                                       SubgoalId* root_out) {
  TermStore* store = machine_->store();
  ++stats_.batches;
  batches_.push_back(Batch{tables_->NextBatchId(),
                           {},
                           {},
                           {},
                           kNoSubgoal,
                           false});
  size_t batch_index = batches_.size() - 1;

  auto [root, created] =
      tables_->LookupOrCreate(*store, goal, functor, batches_[batch_index].id,
                              SpecFor(functor));
  if (created) {
    SeedSubgoalDeps(root, functor);
  } else if (tables_->NeedsReevaluation(root)) {
    tables_->ResetForReevaluation(root, batches_[batch_index].id);
#ifdef XSB_MODE_ORACLE
    RecordModeExpectation(root, functor);
#endif
  }
  batches_[batch_index].subgoals.push_back(root);
  batches_[batch_index].generator_queue.push_back(root);
  if (existential) batches_[batch_index].stop_on_answer = root;

  Status status = RunBatchLoop(batch_index);

  Batch& batch = batches_[batch_index];
  bool answered = batch.aborted || !tables_->subgoal(root).table()->empty();
  if (!status.ok() || batch.aborted) {
    // Error, or existential abort: the partial tables are unusable (paper:
    // existential negation "cuts away" the goals created in its context).
    for (SubgoalId id : batch.subgoals) tables_->Dispose(id);
  } else {
    // Publication: the release stores make every answer inserted above
    // visible to any thread that later acquires the state.
    TableSpace::Perturb("batch.publish");
    for (SubgoalId id : batch.subgoals) {
      tables_->subgoal(id).state.store(SubgoalState::kComplete,
                                       std::memory_order_release);
    }
    tables_->NotifyCompletion();
  }
  batches_.pop_back();
  if (has_answer != nullptr) *has_answer = answered;
  if (root_out != nullptr) *root_out = root;
  return status;
}

TabledCallHandler::CallOutcome Evaluator::OnNegation(Machine* machine,
                                                     Word goal,
                                                     const GoalNode* /*cont*/,
                                                     bool existential) {
  TermStore* store = machine->store();
  goal = store->Deref(goal);
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, goal);
  if (!functor.has_value()) {
    machine->SetError(TypeError("tnot/e_tnot argument is not callable"));
    return CallOutcome::kError;
  }
  Predicate* pred = machine->program()->Lookup(*functor);
  if (pred == nullptr || !pred->tabled()) {
    machine->SetError(
        TypeError("tnot/e_tnot require a tabled predicate; use \\+ for "
                  "non-tabled goals"));
    return CallOutcome::kError;
  }
  if (!store->IsGround(goal)) {
    machine->SetError(InstantiationError(
        "tnot/e_tnot on a non-ground goal: the query flounders"));
    return CallOutcome::kError;
  }

  if (batches_.empty()) {
    // Top-level negation: acquire the negated predicate's reach mask like
    // any cold call (same coarse-fallback loop); owning its shard means an
    // incomplete variant of it cannot exist here.
    for (bool coarse = false;;) {
      ShardMask mask =
          coarse ? kAllEvalShards : ReachMask(*functor, goal);
      tables_->AcquireShards(mask);
      owned_shards_ = mask;
      SubgoalId id = tables_->Lookup(*store, goal);
      if (id != kNoSubgoal && !tables_->NeedsReevaluation(id)) {
        bool empty = tables_->subgoal(id).table()->empty();
        tables_->ReleaseShards(owned_shards_);
        owned_shards_ = 0;
        return empty ? CallOutcome::kContinue : CallOutcome::kFail;
      }
      bool has_answer = false;
      Status status = EvaluateToCompletion(goal, *functor, existential,
                                           &has_answer, &id);
      tables_->ReleaseShards(owned_shards_);
      owned_shards_ = 0;
      if (status.ok()) {
        return has_answer ? CallOutcome::kFail : CallOutcome::kContinue;
      }
      if (status.code() == ErrorCode::kRetryEvaluation && !coarse) {
        coarse = true;
        ++tables_->stats().coarse_fallbacks;
        continue;
      }
      machine->SetError(status);
      return CallOutcome::kError;
    }
  }

  // In-batch negation: once this batch owns the negated predicate's shards,
  // an incomplete table seen here can only belong to this thread's own
  // enclosing batch — a genuine stratification violation, never another
  // session's in-flight work.
  Status own = EnsureOwnedForCall(*functor);
  if (!own.ok()) {
    machine->SetError(own);
    return CallOutcome::kError;
  }
  SubgoalId id = tables_->Lookup(*store, goal);
  SubgoalId caller = CurrentSubgoal();
  // An invalid table falls through to re-evaluation below.
  if (id != kNoSubgoal && !tables_->NeedsReevaluation(id)) {
    const Subgoal& sg = tables_->subgoal(id);
    if (sg.state_acquire() == SubgoalState::kComplete) {
      if (caller != kNoSubgoal) tables_->AddDependent(id, caller);
      return sg.table()->empty() ? CallOutcome::kContinue
                                 : CallOutcome::kFail;
    }
    machine->SetError(StratificationFailure(
        machine, *functor,
        "tnot over an incomplete table: the program is not modularly "
        "stratified"));
    return CallOutcome::kError;
  }

  bool has_answer = false;
  Status status = EvaluateToCompletion(goal, *functor, existential,
                                       &has_answer, &id);
  if (!status.ok()) {
    machine->SetError(status);
    return CallOutcome::kError;
  }
  // The negation's truth value depends on the negated table (which is
  // disposed after an existential abort; the edge is skipped there).
  if (caller != kNoSubgoal && id != kNoSubgoal &&
      tables_->subgoal(id).state_acquire() == SubgoalState::kComplete) {
    tables_->AddDependent(id, caller);
  }
  return has_answer ? CallOutcome::kFail : CallOutcome::kContinue;
}

TabledCallHandler::CallOutcome Evaluator::OnTFindall(Machine* machine,
                                                     Word templ, Word goal,
                                                     Word result,
                                                     const GoalNode* /*cont*/) {
  TermStore* store = machine->store();
  goal = store->Deref(goal);
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, goal);
  if (!functor.has_value()) {
    machine->SetError(TypeError("tfindall/3: goal is not callable"));
    return CallOutcome::kError;
  }
  Predicate* pred = machine->program()->Lookup(*functor);
  if (pred == nullptr || !pred->tabled()) {
    machine->SetError(
        TypeError("tfindall/3 requires a tabled goal; use findall/3"));
    return CallOutcome::kError;
  }

  SubgoalId id = kNoSubgoal;
  const AnswerTable* projected = nullptr;
  if (batches_.empty()) {
    // Top-level tfindall: complete the goal's table like a cold call (same
    // shard acquisition and coarse-fallback loop), then project below. The
    // table pointer is captured before the shards go (see OnTabledCall).
    for (bool coarse = false;;) {
      ShardMask mask =
          coarse ? kAllEvalShards : ReachMask(*functor, goal);
      tables_->AcquireShards(mask);
      owned_shards_ = mask;
      id = tables_->Lookup(*store, goal);
      Status status = Status::Ok();
      if (id == kNoSubgoal || tables_->NeedsReevaluation(id)) {
        status = EvaluateToCompletion(goal, *functor,
                                      /*existential=*/false, nullptr, &id);
      }
      if (status.ok()) projected = tables_->subgoal(id).table();
      tables_->ReleaseShards(owned_shards_);
      owned_shards_ = 0;
      if (status.ok()) break;
      if (status.code() == ErrorCode::kRetryEvaluation && !coarse) {
        coarse = true;
        ++tables_->stats().coarse_fallbacks;
        continue;
      }
      machine->SetError(status);
      return CallOutcome::kError;
    }
  } else {
    Status own = EnsureOwnedForCall(*functor);
    if (!own.ok()) {
      machine->SetError(own);
      return CallOutcome::kError;
    }
    id = tables_->Lookup(*store, goal);
    if (id == kNoSubgoal || tables_->NeedsReevaluation(id)) {
      Status status = EvaluateToCompletion(goal, *functor,
                                           /*existential=*/false, nullptr,
                                           &id);
      if (!status.ok()) {
        machine->SetError(status);
        return CallOutcome::kError;
      }
    } else if (tables_->subgoal(id).state_acquire() !=
               SubgoalState::kComplete) {
      // The paper's tfindall *suspends* until completion; under local
      // scheduling a same-SCC tfindall would deadlock, which we report.
      machine->SetError(StratificationFailure(
          machine, *functor,
          "tfindall/3 on a table of the same recursive component"));
      return CallOutcome::kError;
    }
  }

  SubgoalId caller = CurrentSubgoal();
  if (caller != kNoSubgoal) tables_->AddDependent(id, caller);

  // Project each answer through (goal, templ), which share variables. The
  // per-instance flatten goes through a reused scratch, so the stored copy
  // is exact-size and the scratch stops allocating once warm.
  std::vector<FlatTerm> instances;
  const AnswerTable& table =
      projected != nullptr ? *projected : *tables_->subgoal(id).table();
  FlatTerm answer;
  FlatTerm instance_scratch;
  for (size_t i = 0; i < table.size(); ++i) {
    if (!table.live(i)) continue;  // answer retired by lattice subsumption
    table.ReadAnswer(i, &answer);
    size_t trail = store->TrailMark();
    size_t heap = store->HeapMark();
    Word answer_term = Unflatten(store, answer);
    if (store->Unify(goal, answer_term)) {
      if (FlattenInto(*store, templ, &instance_scratch)) {
        ++machine->stats().findall_flatten_reuses;
      }
      instances.push_back(instance_scratch);
    }
    store->UndoTrail(trail);
    store->TruncateHeap(heap);
  }
  std::vector<Word> items;
  items.reserve(instances.size());
  for (const FlatTerm& flat : instances) {
    items.push_back(Unflatten(store, flat));
  }
  Word list = store->MakeList(items, AtomCell(store->symbols()->nil()));
  return store->Unify(result, list) ? CallOutcome::kContinue
                                    : CallOutcome::kFail;
}

bool Evaluator::AbolishTableCall(Machine* machine, Word goal) {
  TermStore* store = machine->store();
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, goal);
  ShardMask need =
      functor.has_value() ? ReachMask(*functor, goal) : kAllEvalShards;
  if (batches_.empty()) {
    ShardLease lease(tables_, need);
    SubgoalId id = tables_->Lookup(*store, goal);
    if (id == kNoSubgoal) return false;
    // Owning the shard, an incomplete table can only be a leftover of this
    // thread; defensively refuse (matches the documented mid-batch no-op).
    if (tables_->subgoal(id).state_acquire() == SubgoalState::kIncomplete) {
      return false;
    }
    tables_->Dispose(id);
    return true;
  }
  // Mid-batch abolish is best-effort: widen ownership without blocking and
  // report failure (no-op) when the shards are contended.
  if (!EnsureOwnedForCall(functor.value_or(0)).ok()) return false;
  SubgoalId id = tables_->Lookup(*store, goal);
  if (id == kNoSubgoal) return false;
  // A table mid-evaluation belongs to a live batch; pulling it out would
  // corrupt the batch, so abolishing it is a no-op.
  if (tables_->subgoal(id).state_acquire() == SubgoalState::kIncomplete) {
    return false;
  }
  tables_->Dispose(id);
  return true;
}

TabledCallHandler::TableState Evaluator::GetTableState(Machine* machine,
                                                       Word goal) {
  // Entirely lock-free: Lookup is an advisory probe and the state/invalid
  // reads are the published atomics — the result is a consistent snapshot
  // of one instant, which is all table_state/2 ever promised.
  TermStore* store = machine->store();
  SubgoalId id = tables_->Lookup(*store, goal);
  if (id == kNoSubgoal) return TableState::kNoTable;
  const Subgoal& sg = tables_->subgoal(id);
  switch (sg.state_acquire()) {
    case SubgoalState::kIncomplete:
      return TableState::kIncomplete;
    case SubgoalState::kComplete:
      return sg.invalid_acquire() ? TableState::kInvalid
                                  : TableState::kComplete;
    case SubgoalState::kDisposed:
      break;  // disposed tables are unreachable via Lookup; be safe
  }
  return TableState::kNoTable;
}

TabledCallHandler::TableStatsInfo Evaluator::GetTableStats(Machine* machine,
                                                           Word goal) {
  // The byte walks need a quiescent space (they read non-atomic capacity
  // fields), so stats take every shard. At top level that blocks until
  // running batches drain; mid-batch the widening is try-only and on
  // contention the walk degrades gracefully: counters and the mutex-guarded
  // aggregate walks stay exact, byte totals report 0.
  ShardMask added = kAllEvalShards & ~owned_shards_;
  bool exclusive;
  if (batches_.empty()) {
    tables_->AcquireShards(added);
    exclusive = true;
  } else {
    exclusive = tables_->TryAcquireShards(added);
    if (!exclusive) added = 0;
  }
  TableStatsInfo info;
  info.interned_terms = tables_->interns().num_terms();
  info.call_trie_nodes = tables_->call_trie_nodes();
  info.factored_saved_bytes =
      tables_->stats().factored_cells_saved * sizeof(Word);
  info.shared_table_hits = tables_->stats().shared_table_hits;
  info.waits_on_inprogress = tables_->stats().waits_on_inprogress;
  info.epochs_retired = tables_->stats().epochs_retired;
  info.coarse_fallbacks = tables_->stats().coarse_fallbacks;
  info.mode_violations = tables_->stats().mode_violations;
  info.subsumed_dropped = tables_->stats().subsumed_dropped;
  info.subsumed_replaced = tables_->stats().subsumed_replaced;
  if (goal == 0) {
    // Aggregate over the whole table space.
    info.found = true;
    info.subgoals = tables_->num_subgoals();
    info.answers = tables_->total_answers();
    info.trie_nodes = tables_->total_trie_nodes();
    info.bytes = exclusive ? tables_->table_bytes() : 0;
    if (added != 0) tables_->ReleaseShards(added);
    return info;
  }
  TermStore* store = machine->store();
  SubgoalId id = tables_->Lookup(*store, goal);
  if (id != kNoSubgoal) {
    const Subgoal& sg = tables_->subgoal(id);
    info.found = true;
    info.subgoals = 1;
    info.answers = sg.table()->live_size();
    info.trie_nodes = sg.table()->trie_nodes();
    info.bytes = exclusive ? sg.table()->bytes() : 0;
  }
  if (added != 0) tables_->ReleaseShards(added);
  return info;
}

}  // namespace xsb
