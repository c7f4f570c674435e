#pragma once
/// \file event_queue.hpp
/// Time-ordered event queue for the discrete-event simulator.
///
/// Events are type-tagged PODs — a listener index, an opcode, and a small
/// payload — not heap-allocated callables: the queue never touches the
/// allocator on the steady state, which is what makes the simulation core
/// allocation-free per event.
///
/// Storage exploits the structure of hardware pipelines: almost every
/// event stream a component schedules is *monotone in time* (a fixed-delay
/// request hop, a serialized channel's ready times, a link's deliveries,
/// the per-transaction processing gap — each later than the one before).
/// The queue therefore keeps one FIFO *lane* per (listener, opcode) class,
/// appends in O(1) while a stream stays monotone, and falls back to a flat
/// 4-ary min-heap for the rare out-of-order push. Each non-empty lane's
/// head sits in a second, small binary min-heap keyed on (time, seq), so
/// pop() compares two fronts — lane heads and out-of-order heap — and
/// then re-sifts one entry: O(log lanes) instead of a scan over every
/// lane. A push onto a non-empty lane touches neither heap. The drain
/// order is *exactly* the (time, seq) order a single heap would produce
/// — lanes are a speed trick, not a semantic: equal timestamps still
/// execute in push order (the monotonically increasing sequence number
/// breaks ties), keeping every simulation bit-for-bit deterministic, and a
/// stream that stops being monotone only loses the fast path, never its
/// ordering.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace cxlgraph::sim {

using util::SimTime;

/// One scheduled event. `listener` indexes the simulator's registered
/// handler table, `opcode` tells the listener what happened, and `a`/`b`
/// carry a small payload (a pool slot, a warp index, a flit count...).
/// 32 bytes — two events per cache line — so sift paths stay cheap.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint16_t listener = 0;
  std::uint16_t opcode = 0;
};

class EventQueue {
 public:
  void push(SimTime time, std::uint16_t listener, std::uint16_t opcode,
            std::uint32_t a = 0, std::uint32_t b = 0) {
    const Event e{time, next_seq_++, a, b, listener, opcode};
    ++count_;
    const std::uint32_t index = lane_for(listener, opcode);
    Lane& lane = lanes_[index];
    if (lane.events.empty()) {
      lane.events.push_back(e);
      heap_push<kHeadsArity>(heads_, Head{e.time, e.seq, index});
    } else if (time >= lane.events.back().time) {
      lane.events.push_back(e);  // seq grows monotonically: stays sorted
    } else {
      heap_push<kArity>(heap_, e);
    }
  }

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  /// Time of the earliest event. Undefined when empty().
  SimTime next_time() const noexcept {
    if (heads_.empty()) return heap_.front().time;
    if (heap_.empty()) return heads_.front().time;
    return std::min(heads_.front().time, heap_.front().time);
  }

  /// Removes and returns the earliest event. Undefined when empty().
  Event pop() {
    --count_;
    if (!heap_.empty() &&
        (heads_.empty() || before(heap_.front(), heads_.front()))) {
      const Event e = heap_.front();
      heap_pop<kArity>(heap_);
      return e;
    }
    const std::uint32_t index = heads_.front().lane;
    Lane& lane = lanes_[index];
    const Event e = lane.events[lane.head];
    ++lane.head;
    if (lane.head == lane.events.size()) {
      lane.events.clear();
      lane.head = 0;
      heap_pop<kHeadsArity>(heads_);
      return e;
    }
    if (lane.head >= 1024 && lane.head * 2 >= lane.events.size()) {
      // Steady-state lanes never fully drain; compact the served prefix
      // occasionally (amortized O(1)) so memory stays bounded.
      lane.events.erase(lane.events.begin(),
                        lane.events.begin() +
                            static_cast<std::ptrdiff_t>(lane.head));
      lane.head = 0;
    }
    const Event& next = lane.events[lane.head];
    heap_replace_front<kHeadsArity>(heads_, Head{next.time, next.seq, index});
    return e;
  }

 private:
  static constexpr std::size_t kArity = 4;       // heap_
  static constexpr std::size_t kHeadsArity = 2;  // heads_
  /// Beyond this many distinct (listener, opcode) classes, the rest share
  /// one overflow lane — ordering is unaffected, only the fast path.
  static constexpr std::size_t kMaxLanes = 48;
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  struct Lane {
    std::uint32_t key = 0;
    std::size_t head = 0;
    std::vector<Event> events;
  };

  /// A non-empty lane's first unserved event, as a heads_ entry.
  struct Head {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t lane;
  };

  template <typename X, typename Y>
  static bool before(const X& x, const Y& y) noexcept {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  /// Maps (listener, opcode) to a lane via a small open-addressed table.
  std::uint32_t lane_for(std::uint16_t listener, std::uint16_t opcode) {
    const std::uint32_t key =
        (static_cast<std::uint32_t>(listener) << 16) | opcode;
    std::size_t slot = (key * 0x9e3779b1u) & (kTableSize - 1);
    for (;;) {
      const std::int32_t entry = table_[slot];
      if (entry >= 0 && lanes_[static_cast<std::size_t>(entry)].key == key) {
        return static_cast<std::uint32_t>(entry);
      }
      if (entry < 0) {
        if (lanes_.size() >= kMaxLanes) return overflow_lane();
        lanes_.push_back(Lane{key, 0, {}});
        table_[slot] = static_cast<std::int32_t>(lanes_.size() - 1);
        return static_cast<std::uint32_t>(lanes_.size() - 1);
      }
      slot = (slot + 1) & (kTableSize - 1);
    }
  }

  /// Shared lane of last resort once the table is full, appended after the
  /// keyed lanes so no existing index moves. It is almost never monotone,
  /// so its pushes effectively land in the heap.
  std::uint32_t overflow_lane() {
    if (overflow_ == kNoLane) {
      overflow_ = static_cast<std::uint32_t>(lanes_.size());
      lanes_.push_back(Lane{kNoLane, 0, {}});
    }
    return overflow_;
  }

  // Implicit Arity-ary min-heaps on (time, seq). Both sift directions
  // move a hole instead of swapping — one copy per level rather than three.

  /// Appends `x` to `heap` and sifts it up.
  template <std::size_t Arity, typename T>
  static void heap_push(std::vector<T>& heap, const T& x) {
    std::size_t i = heap.size();
    heap.push_back(x);  // placeholder; overwritten below
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!before(x, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = x;
  }

  /// Replaces the front of a non-empty `heap` with `x` and sifts it down.
  template <std::size_t Arity, typename T>
  static void heap_replace_front(std::vector<T>& heap, const T& x) {
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = i * Arity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + Arity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (before(heap[c], heap[best])) best = c;
      }
      if (!before(heap[best], x)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = x;
  }

  template <std::size_t Arity, typename T>
  static void heap_pop(std::vector<T>& heap) {
    const T back = heap.back();
    heap.pop_back();
    if (!heap.empty()) heap_replace_front<Arity>(heap, back);
  }

  static constexpr std::size_t kTableSize = 128;

  std::vector<Event> heap_;  // 4-ary: the out-of-order pushes
  std::vector<Head> heads_;  // binary: one entry per non-empty lane
  std::vector<Lane> lanes_;
  std::vector<std::int32_t> table_ = std::vector<std::int32_t>(kTableSize, -1);
  std::size_t count_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint32_t overflow_ = kNoLane;
};

}  // namespace cxlgraph::sim
