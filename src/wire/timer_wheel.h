// Hashed timer wheel for connection deadlines (slowloris defense).
//
// The wire front-end arms one deadline per connection at a time — header
// deadline while a request head trickles in, idle deadline between
// keep-alive requests, write deadline while a response drains. All three
// are coarse (hundreds of ms to tens of seconds), so a classic hashed
// wheel fits: O(1) schedule/cancel, and the epoll loop advances it once
// per tick. Precision is one tick (default 50 ms) — deadlines fire at most
// one tick late, never early.
//
// Single-threaded by design: owned and driven only by the event loop.
// Cancellation is generation-based — each schedule() stamps its entry with
// a fresh value of one wheel-wide counter, and an entry whose stamp is no
// longer its id's current one is dropped lazily when its slot comes
// around, so neither operation touches the slot vectors. The counter never
// restarts, so an id that is cancelled and re-armed can never match an
// entry left over from before the cancel.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

namespace oak::wire {

class TimerWheel {
 public:
  explicit TimerWheel(double tick_s = 0.05, std::size_t slots = 256)
      : tick_s_(tick_s > 0 ? tick_s : 0.05),
        slots_(slots > 0 ? slots : 1) {
    wheel_.resize(slots_);
  }

  // Arm (or re-arm) the deadline for `id`. A previously scheduled entry
  // for the same id is invalidated.
  void schedule(std::uint64_t id, double deadline) {
    const std::uint64_t gen = ++next_gen_;
    gen_[id] = gen;
    // File at the first tick whose visit time is >= the deadline (ceil,
    // not floor): the cursor reaches tick T once now >= T*tick_s_, so a
    // floor-filed interior deadline would be visited before it is due and
    // re-filed a whole revolution out — up to slots-1 ticks late instead
    // of the promised one.
    std::int64_t tick = static_cast<std::int64_t>(
        std::ceil(deadline / tick_s_));
    // A deadline already in the past (loop lag) files into the next tick
    // to be visited, not a slot the cursor has moved beyond — otherwise it
    // would silently wait out a full wheel revolution.
    if (last_tick_ != std::numeric_limits<std::int64_t>::min() &&
        tick <= last_tick_) {
      tick = last_tick_ + 1;
    }
    wheel_[slot_index(tick)].push_back(Entry{id, gen, deadline});
  }

  void cancel(std::uint64_t id) { gen_.erase(id); }

  bool armed(std::uint64_t id) const { return gen_.count(id) != 0; }
  std::size_t armed_count() const { return gen_.size(); }

  // Total entries filed across all slots, live or stale. Lazy cancellation
  // means this can exceed armed_count() between advances; after a full
  // revolution every stale entry has been visited and dropped, so tests use
  // this to assert re-arm churn doesn't accrete slot garbage.
  std::size_t slot_entries() const {
    std::size_t n = 0;
    for (const auto& slot : wheel_) n += slot.size();
    return n;
  }

  // Fire fn(id) for every live entry whose deadline is <= now. Entries that
  // were re-armed or cancelled are dropped; entries hashed into a visited
  // slot but not yet due (wheel wrap-around) are re-filed one revolution
  // out. `now` must be monotone across calls.
  template <typename Fn>
  std::size_t advance(double now, Fn&& fn) {
    std::size_t fired = 0;
    const std::int64_t now_tick = tick_of(now);
    if (last_tick_ == std::numeric_limits<std::int64_t>::min()) {
      last_tick_ = now_tick - 1;
    }
    // Visit at most one full revolution — beyond that every slot has been
    // examined once and re-filed entries must wait for their tick.
    const std::int64_t from = last_tick_ + 1;
    const std::int64_t to =
        std::min(now_tick, from + static_cast<std::int64_t>(slots_) - 1);
    for (std::int64_t t = from; t <= to; ++t) {
      auto& slot = wheel_[slot_index(t)];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < slot.size(); ++i) {
        Entry e = slot[i];
        auto it = gen_.find(e.id);
        if (it == gen_.end() || it->second != e.gen) {
          continue;  // cancelled or re-armed: drop lazily
        }
        if (e.deadline <= now) {
          gen_.erase(it);
          ++fired;
          fn(e.id);
        } else {
          slot[keep++] = e;  // wrapped: due on a later revolution
        }
      }
      slot.resize(keep);
    }
    last_tick_ = now_tick;
    return fired;
  }

  double tick_seconds() const { return tick_s_; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t gen = 0;
    double deadline = 0.0;
  };

  std::int64_t tick_of(double t) const {
    return static_cast<std::int64_t>(t / tick_s_);
  }
  std::size_t slot_index(std::int64_t tick) const {
    const std::int64_t s = static_cast<std::int64_t>(slots_);
    return static_cast<std::size_t>(((tick % s) + s) % s);
  }

  double tick_s_;
  std::size_t slots_;
  std::vector<std::vector<Entry>> wheel_;
  // Live ids → the generation of their one armed entry.
  std::unordered_map<std::uint64_t, std::uint64_t> gen_;
  std::uint64_t next_gen_ = 0;
  std::int64_t last_tick_ = std::numeric_limits<std::int64_t>::min();
};

}  // namespace oak::wire
