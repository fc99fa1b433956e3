// Self-rearming periodic timers for entities. A loop's body returns true to
// keep the timer armed; entities typically also guard with an epoch counter
// that they bump on state transitions, so stale loops die quietly.
//
// An actor owns its loops through a PeriodicTimers member. A tick carries
// only its owner and its loop, 16 trivially copyable bytes that fit
// std::function's inline buffer, so re-arming allocates nothing. A loop is
// freed when its body returns false, or with its actor; a dead actor's
// pending ticks never run, as the runtimes drop the timers of an ended
// incarnation.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/env.hpp"

namespace jacepp::core {

class PeriodicTimers {
 public:
  PeriodicTimers() = default;
  PeriodicTimers(const PeriodicTimers&) = delete;
  PeriodicTimers& operator=(const PeriodicTimers&) = delete;

  /// Run `body` every `period` seconds of `env`'s clock, the first time one
  /// period from now, until it returns false.
  void arm(net::Env& env, double period, std::function<bool()> body) {
    loops_.push_back(
        std::make_unique<Loop>(Loop{&env, period, std::move(body)}));
    env.schedule(period, Tick{this, loops_.back().get()});
  }

 private:
  struct Loop {
    net::Env* env;
    double period;
    std::function<bool()> body;
  };

  struct Tick {
    PeriodicTimers* owner;
    Loop* loop;

    void operator()() const {
      if (loop->body()) {
        loop->env->schedule(loop->period, *this);
      } else {
        owner->release(loop);
      }
    }
  };
  static_assert(std::is_trivially_copyable_v<Tick> && sizeof(Tick) <= 16,
                "a tick must fit std::function's inline buffer");

  void release(const Loop* loop) {
    const auto it = std::find_if(
        loops_.begin(), loops_.end(),
        [loop](const std::unique_ptr<Loop>& l) { return l.get() == loop; });
    loops_.erase(it);
  }

  std::vector<std::unique_ptr<Loop>> loops_;
};

}  // namespace jacepp::core
