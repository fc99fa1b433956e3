#include "rt/runtime.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/logging.hpp"

namespace jacepp::rt {

namespace {
constexpr auto kFarFuture = std::chrono::hours(24 * 365);
}

/// Env implementation for one worker; only used from that worker's thread
/// (except send(), which is thread-safe via the runtime's router).
class ThreadRuntime::WorkerEnv : public net::Env {
 public:
  WorkerEnv(ThreadRuntime* runtime, Worker* worker)
      : runtime_(runtime), worker_(worker) {}

  [[nodiscard]] double now() const override { return runtime_->now(); }

  [[nodiscard]] net::Stub self() const override { return worker_->stub; }

  void send(const net::Stub& to, net::Message message) override {
    message.from = worker_->stub;
    if (runtime_->link_config_.flush_window <= 0.0) {
      runtime_->route(to, std::move(message));
      return;
    }
    // Staleness-aware link path: enqueue on this worker's per-destination
    // link, flush immediately after an idle period (which opens a window) or
    // let the armed flush timer pick it up. All of this runs on the worker
    // thread — send() and timers share it — so the links need no locking.
    auto [it, inserted] = worker_->links.try_emplace(to.node, nullptr);
    if (inserted) {
      it->second = std::make_unique<WorkerLink>(&runtime_->link_config_,
                                                &runtime_->comm_stats_);
    }
    WorkerLink* wl = it->second.get();
    wl->link.enqueue(std::move(message), to);
    const auto now = std::chrono::steady_clock::now();
    if (now >= wl->next_flush) {
      runtime_->flush_worker_link(worker_, wl);
    } else if (!wl->flush_armed) {
      wl->flush_armed = true;
      const double delay =
          std::chrono::duration<double>(wl->next_flush - now).count();
      schedule(delay, [this, wl] {
        wl->flush_armed = false;
        runtime_->flush_worker_link(worker_, wl);
      });
    }
  }

  net::TimerId schedule(double delay, std::function<void()> fn) override {
    const net::TimerId id = runtime_->next_timer_.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<std::int64_t>(delay * 1e6));
    worker_->timers.push(Timer{deadline, id, std::move(fn)});
    return id;
  }

  void cancel(net::TimerId timer) override {
    worker_->cancelled.push_back(timer);
  }

  void compute(std::function<double()> work, std::function<void()> done) override {
    // Real time elapses while the work runs; there is no modelled cost. The
    // completion goes through the timer queue (NOT called inline) so control
    // returns to the worker loop between compute units — otherwise an
    // iterating task would recurse forever and never drain its mailbox.
    (void)work();
    schedule(0.0, std::move(done));
  }

  Rng& rng() override { return worker_->rng; }

  void shutdown_self() override { worker_->stop_requested = true; }

 private:
  ThreadRuntime* runtime_;
  Worker* worker_;
};

ThreadRuntime::ThreadRuntime(std::uint64_t seed, net::LinkConfig link)
    : epoch_(std::chrono::steady_clock::now()),
      seed_rng_(seed),
      link_config_(link) {}

void ThreadRuntime::flush_worker_link(Worker* worker, WorkerLink* wl) {
  (void)worker;
  bool sent_any = false;
  while (auto frame = wl->link.next_wire_frame()) {
    route(frame->to, std::move(frame->message));
    sent_any = true;
  }
  if (sent_any) {
    // The flush opens a window: messages arriving before it closes queue
    // (and Data coalesces) until the armed flush timer fires.
    wl->next_flush = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(static_cast<std::int64_t>(
                         link_config_.flush_window * 1e6));
  }
}

void ThreadRuntime::flush_all_worker_links(Worker* worker) {
  for (auto& [node, wl] : worker->links) {
    while (auto frame = wl->link.next_wire_frame()) {
      route(frame->to, std::move(frame->message));
    }
  }
}

ThreadRuntime::~ThreadRuntime() { shutdown_all(); }

double ThreadRuntime::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

net::Stub ThreadRuntime::add_node(std::unique_ptr<net::Actor> actor,
                                  net::EntityKind kind) {
  const net::NodeId id = next_node_.fetch_add(1);
  auto worker = std::make_unique<Worker>();
  worker->actor = std::move(actor);
  worker->stub = net::Stub{id, 1, kind};
  worker->rng = seed_rng_.split(id);
  worker->env = std::make_unique<WorkerEnv>(this, worker.get());
  Worker* raw = worker.get();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    workers_.emplace(id, std::move(worker));
  }
  raw->thread = std::thread([this, raw] { worker_loop(raw); });
  return raw->stub;
}

ThreadRuntime::Worker* ThreadRuntime::find_worker(net::NodeId node) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = workers_.find(node);
  return it == workers_.end() ? nullptr : it->second.get();
}

void ThreadRuntime::route(const net::Stub& to, net::Message message) {
  stats_.sent.fetch_add(1, std::memory_order_relaxed);
  Worker* dest = find_worker(to.node);
  // Incarnation 0 is an "address stub" that matches any live incarnation.
  if (dest == nullptr || !dest->up.load() ||
      (to.incarnation != 0 && dest->stub.incarnation != to.incarnation)) {
    stats_.lost.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (dest->mailbox.push(Command{Command::Kind::Deliver, std::move(message)})) {
    stats_.delivered.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.lost.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadRuntime::post(const net::Stub& to, net::Message message) {
  route(to, std::move(message));
}

bool ThreadRuntime::is_up(net::NodeId node) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = workers_.find(node);
  return it != workers_.end() && it->second->up.load();
}

void ThreadRuntime::disconnect(net::NodeId node) {
  Worker* worker = find_worker(node);
  if (worker == nullptr || !worker->up.load()) return;
  worker->up.store(false);
  worker->mailbox.push(Command{Command::Kind::Kill, {}});
  worker->mailbox.close();
}

bool ThreadRuntime::wait_node(net::NodeId node, double timeout_seconds) {
  Worker* worker = find_worker(node);
  if (worker == nullptr) return true;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(timeout_seconds * 1e6));
  std::unique_lock<std::mutex> lock(exit_mutex_);
  return exit_cv_.wait_until(lock, deadline,
                             [worker] { return worker->exited.load(); });
}

void ThreadRuntime::shutdown_all() {
  std::vector<Worker*> workers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (auto& [id, worker] : workers_) workers.push_back(worker.get());
  }
  for (Worker* worker : workers) {
    if (worker->up.load()) {
      worker->mailbox.push(Command{Command::Kind::Stop, {}});
      worker->mailbox.close();
    }
  }
  for (Worker* worker : workers) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

net::Actor* ThreadRuntime::actor(net::NodeId node) {
  Worker* worker = find_worker(node);
  return worker == nullptr ? nullptr : worker->actor.get();
}

void ThreadRuntime::worker_loop(Worker* worker) {
  net::Env& env = *worker->env;
  worker->actor->on_start(env);

  auto fire_due_timers = [&] {
    const auto now = std::chrono::steady_clock::now();
    while (!worker->timers.empty() && worker->timers.top().deadline <= now &&
           !worker->stop_requested && worker->up.load()) {
      Timer timer = worker->timers.top();
      worker->timers.pop();
      const auto cancelled =
          std::find(worker->cancelled.begin(), worker->cancelled.end(), timer.id);
      if (cancelled != worker->cancelled.end()) {
        worker->cancelled.erase(cancelled);
        continue;
      }
      timer.fn();
    }
  };

  while (!worker->stop_requested && worker->up.load()) {
    const auto deadline = worker->timers.empty()
                              ? std::chrono::steady_clock::now() + kFarFuture
                              : worker->timers.top().deadline;
    auto command = worker->mailbox.pop_until(deadline);
    bool drained_any = false;
    // Drain the whole backlog before firing timers: the asynchronous model is
    // latest-wins, so a task must see the newest dependency data each
    // iteration rather than consuming a queue of stale updates one per
    // compute step.
    while (command.has_value()) {
      drained_any = true;
      switch (command->kind) {
        case Command::Kind::Deliver:
          worker->actor->on_message(command->message, env);
          break;
        case Command::Kind::Stop:
          worker->stop_requested = true;
          break;
        case Command::Kind::Kill:
          worker->crashed = true;
          worker->up.store(false);
          break;
      }
      if (worker->stop_requested || !worker->up.load()) break;
      command = worker->mailbox.try_pop();
    }
    if (!drained_any && worker->mailbox.closed() && worker->timers.empty()) {
      // Queue closed and nothing left to wait for.
      break;
    }
    fire_due_timers();
  }

  // on_stop only runs on graceful shutdown; a crash (disconnect) exits
  // silently, as a powered-off machine would — its queued link frames are
  // lost with it.
  const bool graceful = worker->stop_requested && !worker->crashed;
  worker->up.store(false);
  if (graceful) {
    // Drain outbound links so window-delayed messages (e.g. a FinalState
    // waiting out a flush window) are not silently dropped; on_stop may send
    // more, so drain again after it.
    flush_all_worker_links(worker);
    worker->actor->on_stop(env);
    flush_all_worker_links(worker);
  }
  {
    // Publish under the lock so a wait_node() predicate check cannot slip
    // between the store and the notify.
    std::lock_guard<std::mutex> lock(exit_mutex_);
    worker->exited.store(true);
  }
  exit_cv_.notify_all();
}

}  // namespace jacepp::rt
