#include "support/thread_pool.hpp"

#include <algorithm>

namespace jacepp {

RoundWorkerPool::RoundWorkerPool(std::size_t lanes, bool force_workers)
    : lanes_(std::max<std::size_t>(lanes, 1)) {
  const std::size_t hardware =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  if (!force_workers) lanes_ = std::min(lanes_, hardware);
  workers_.reserve(lanes_ - 1);
  for (std::size_t i = 1; i < lanes_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

RoundWorkerPool::~RoundWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void RoundWorkerPool::run(const std::function<void(std::size_t)>& body) {
  if (workers_.empty()) {
    body(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    error_ = nullptr;
    remaining_ = workers_.size();
    ++epoch_;
  }
  start_.notify_all();
  try {
    body(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return remaining_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void RoundWorkerPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
      if (stopping_) return;
      seen = epoch_;
      body = body_;
    }
    try {
      (*body)(lane);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) done_.notify_all();
    }
  }
}

}  // namespace jacepp
