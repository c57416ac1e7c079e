#include "server/query_service.h"

#include <utility>

#include "db/loader.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "tabling/epoch.h"

namespace xsb {

QueryService::QueryService(Options options)
    : options_(options),
      symbols_(std::make_unique<SymbolTable>()),
      program_(std::make_unique<Program>(symbols_.get())),
      tables_(std::make_unique<TableSpace>(symbols_.get(), /*shared=*/true)) {
  control_ = MakeSession(/*control=*/true);
  int n = options_.num_workers < 1 ? 1 : options_.num_workers;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->session = MakeSession(/*control=*/false);
    workers_.push_back(std::move(worker));
  }
  // Sessions first, then threads: a worker loop must never observe a
  // half-built pool.
  for (auto& worker : workers_) {
    worker->thread = std::thread(&QueryService::WorkerLoop, this,
                                 worker.get());
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& job : queue_) {
    job.promise.set_value(
        Status(ErrorCode::kInvalid, "query service shut down"));
  }
}

QueryService::Session QueryService::MakeSession(bool control) {
  Session session;
  session.store = std::make_unique<TermStore>(symbols_.get());
  session.machine =
      std::make_unique<Machine>(session.store.get(), program_.get());
  Evaluator::Options eval;
  eval.early_completion = options_.early_completion;
  eval.incremental = options_.incremental;
  // The Program has one update-listener slot; the control session owns it.
  // All sessions share one table space, so invalidation raised there is
  // visible to every worker anyway.
  eval.register_update_listener = control;
  session.evaluator = std::make_unique<Evaluator>(session.machine.get(),
                                                  eval, tables_.get());
  return session;
}

Status QueryService::Consult(std::string_view text) {
  return PausedMutation([&]() -> Status {
    Loader loader(control_.store.get(), program_.get());
    return loader.ConsultString(text);
  });
}

Status QueryService::Update(std::string_view goal) {
  return PausedMutation([&]() -> Status {
    Result<std::vector<Answer>> result =
        RunGoal(control_, goal, /*max_answers=*/1);
    if (!result.ok()) return result.status();
    if (result.value().empty()) {
      return Status(ErrorCode::kInvalid,
                    "update goal failed: " + std::string(goal));
    }
    return Status::Ok();
  });
}

std::future<Result<std::vector<Answer>>> QueryService::Submit(
    std::string goal) {
  Job job;
  job.goal = std::move(goal);
  std::future<Result<std::vector<Answer>>> future =
      job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      job.promise.set_value(
          Status(ErrorCode::kInvalid, "query service shut down"));
      return future;
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return future;
}

Result<std::vector<Answer>> QueryService::Query(std::string_view goal) {
  return Submit(std::string(goal)).get();
}

Result<size_t> QueryService::Count(std::string_view goal) {
  Result<std::vector<Answer>> answers = Query(goal);
  if (!answers.ok()) return answers.status();
  return answers.value().size();
}

Result<std::vector<Answer>> QueryService::RunGoal(Session& session,
                                                  std::string_view goal,
                                                  size_t max_answers) {
  // Marks first: the parsed goal itself lives on the heap and goes with the
  // query.
  size_t trail = session.store->TrailMark();
  size_t heap = session.store->HeapMark();
  std::string buffer(goal);
  buffer += " .";
  Reader reader(session.store.get(), program_->ops(), buffer,
                program_->hilog_atoms());
  Result<Word> parsed = reader.ReadClause();
  if (!parsed.ok()) {
    session.store->TruncateHeap(heap);
    return parsed.status();
  }
  std::vector<std::pair<std::string, Word>> names = reader.var_names();

  std::vector<Answer> answers;
  Status status = session.machine->Solve(parsed.value(), [&]() {
    Answer answer;
    answer.bindings.reserve(names.size());
    for (const auto& [name, cell] : names) {
      answer.bindings.emplace_back(
          name, WriteTerm(*session.store, *program_->ops(), cell));
    }
    answers.push_back(std::move(answer));
    return answers.size() < max_answers ? SolveAction::kContinue
                                        : SolveAction::kStop;
  });
  session.store->UndoTrail(trail);
  session.store->TruncateHeap(heap);
  // The query has unwound: nothing references its goal nodes any more.
  session.machine->ResetArena();
  if (!status.ok()) return status;
  return answers;
}

void QueryService::WorkerLoop(Worker* worker) {
  // Each serving thread owns an epoch slot for the lifetime of the pool;
  // individual queries are bracketed with EpochGuard below.
  int slot = tables_->epochs().AcquireSlot();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) break;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_workers_;
    }
    {
      // The guard pins this thread's epoch for the whole query: any table
      // retired after this point stays allocated until we exit.
      EpochGuard guard(&tables_->epochs(), slot);
      Result<std::vector<Answer>> result =
          RunGoal(worker->session, job.goal, /*max_answers=*/SIZE_MAX);
      worker->queries_served.fetch_add(1, std::memory_order_relaxed);
      worker->heap_cells.store(worker->session.store->HeapMark(),
                               std::memory_order_relaxed);
      if (!result.ok()) {
        worker->errors.fetch_add(1, std::memory_order_relaxed);
      }
      job.promise.set_value(std::move(result));
    }
    // Outside the guard: reclaim whatever every serving thread has passed.
    tables_->ReleaseRetiredAnswers();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --busy_workers_;
    }
    idle_cv_.notify_all();
  }
  tables_->epochs().ReleaseSlot(slot);
}

Status QueryService::PausedMutation(const std::function<Status()>& fn) {
  std::lock_guard<std::mutex> control(control_mutex_);
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    paused_ = true;
    // Workers re-check `paused_` before picking up a job, so once the busy
    // count hits zero the world is stopped: no session reads the Program
    // or evaluates until we resume.
    idle_cv_.wait(lock, [&] { return busy_workers_ == 0; });
  }
  Status status = fn();
  // All workers idle, all epoch slots idle: every retired table frees now.
  tables_->ReleaseRetiredAnswers();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
  return status;
}

QueryService::ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.per_worker.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerStats ws;
    ws.queries_served =
        worker->queries_served.load(std::memory_order_relaxed);
    ws.errors = worker->errors.load(std::memory_order_relaxed);
    ws.heap_cells = worker->heap_cells.load(std::memory_order_relaxed);
    stats.queries_served += ws.queries_served;
    stats.per_worker.push_back(ws);
  }
  const TableStats& ts = tables_->stats();
  stats.shared_table_hits =
      ts.shared_table_hits.load(std::memory_order_relaxed);
  stats.waits_on_inprogress =
      ts.waits_on_inprogress.load(std::memory_order_relaxed);
  stats.epochs_retired = ts.epochs_retired.load(std::memory_order_relaxed);
  stats.parallel_batches =
      ts.parallel_batches.load(std::memory_order_relaxed);
  stats.shard_escalations =
      ts.shard_escalations.load(std::memory_order_relaxed);
  stats.coarse_fallbacks =
      ts.coarse_fallbacks.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace xsb
