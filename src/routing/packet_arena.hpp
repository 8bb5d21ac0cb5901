// Flat slot arena backing the saturation simulators' per-link FIFOs.
//
// The seed simulators kept one std::deque<Packet> per forward link — n * 2^n
// * 2 separately heap-allocated containers — and probed every link's header
// every cycle.  The arena stores every in-flight packet in contiguous slot
// lanes and threads per-link FIFO chains through the slots' `next` fields:
//
//   * slot lane — (dst, next, tail, size) as four u32 in one 16-byte slot,
//     so a hop reads the packet's destination and its FIFO successor from
//     one cache line, four slots to a line;
//   * link heads — one u32 per link: the slot of the FIFO's front packet, or
//     kNil.  The FIFO's tail and size live in the *front* slot's tail/size
//     fields and are handed to the new front on pop, so push, pop,
//     move_front, size and front_dst stay O(1) whatever the queue length
//     while a link costs 4 bytes;
//   * injection-cycle lane — read only when a packet leaves its FIFO by pop
//     (delivery, drop, wrap, misroute, shard hand-off), never by a hop;
//   * budget lane — misroute/wrap counters packed into one u64, allocated
//     only for the fault simulator (with_budgets), and a flight-handle lane
//     allocated only with a flight recorder (with_flight);
//   * occupancy bitmap — one bit per link, maintained on push/pop, so the
//     cycle loop iterates non-empty links with countr_zero instead of
//     probing every FIFO (for_each_occupied).
//
// Why so small: B_n has n * 2^(n+1) links, and the cycle loop touches the
// link heads of two adjacent stages per hop plus scattered slots.  A 16-byte
// head/tail/size header put B_16's link state at 32 MiB, and 32-byte slots
// put a loaded B_16 shard's packets near 3 MiB, both past a 2 MiB L2: on a
// 4-vCPU Xeon host a dependent load costs 12 ns at a 1 MiB working set,
// 43-47 ns at 2-4 MiB and 150-170 ns from 8 MiB, and a hop with the 16-byte
// headers cost 32-40 cycles at B_10-B_14 but 74-144 cycles at B_16.  4-byte
// heads put B_16's link state at 8 MiB (1 MiB per default shard).  Three
// other layouts were measured and did not help: a 24-byte header holding the
// front packet inline (10% slower), transparent-huge-page backed lanes (no
// change), and a 16-link-deep software prefetch of source and target heads
// (no change).  A head-only header that walks the chain to find the tail ran
// about 5% faster still, but makes push O(queue length), and a faulted
// fabric can build very long queues.
//
// Freed slots recycle through a free list: once the arena has grown to the
// simulation's peak population, a cycle performs zero heap traffic.  reset()
// empties an arena for the next run while keeping its memory, so a run that
// reuses one does not page its lanes in again.
//
// Semantics are exactly deque push_back/pop_front per link (FIFO, one
// container per link), which is what makes the arena engines bit-identical to
// the seed simulators (asserted against the *_reference oracles in tests).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/bits.hpp"
#include "util/check.hpp"

namespace bfly {

class PacketArena {
 public:
  /// One in-flight packet.  misroutes/wraps are stored only when the arena
  /// was built with_budgets (the fault simulator); the pristine simulator
  /// reads them back as 0.  `flight` is the packet's flight-recorder handle
  /// (0 = unsampled), stored only when built with_flight — it rides the same
  /// optional-lane scheme as the budgets, so runs without a recorder pay
  /// nothing for it.
  struct Packet {
    u64 dst = 0;
    u64 injected_at = 0;
    u32 misroutes = 0;
    u32 wraps = 0;
    u64 flight = 0;
  };

  static constexpr u32 kNil = ~u32{0};
  static constexpr std::size_t kDefaultSlots = 4096;

  /// An empty arena over `links` FIFOs.  `initial_slots` preallocates packet
  /// capacity; the arena grows geometrically (amortized) beyond it.
  ///
  /// Both counts must fit the arena's 32-bit index width (kNil is the
  /// sentinel): slot ids are u32, and link FIFOs chain through those slots,
  /// so a dimension large enough to exceed them must fail loudly here rather
  /// than wrap deep inside a run.  The checks run before any allocation — an
  /// oversized request throws without first trying to reserve terabytes.
  explicit PacketArena(u64 links, bool with_budgets = false, bool with_flight = false,
                       std::size_t initial_slots = kDefaultSlots) {
    reset(links, with_budgets, with_flight, initial_slots);
  }

  /// Empties the arena and reshapes it as if freshly constructed with these
  /// arguments, keeping its allocations: the reused arena passes through the
  /// same capacity() sequence as a fresh one without paging its lanes in
  /// again.  Costs O(occupied links + links / 64), plus O(links) when the
  /// link count grows.
  void reset(u64 links, bool with_budgets, bool with_flight,
             std::size_t initial_slots = kDefaultSlots) {
    BFLY_REQUIRE(links < static_cast<u64>(kNil),
                 "PacketArena: link count exceeds the 32-bit index width");
    BFLY_REQUIRE(initial_slots < static_cast<std::size_t>(kNil),
                 "PacketArena: initial slot count exceeds the 32-bit index width");
    // Empty links already hold kNil, so only the occupied ones need clearing.
    for_each_occupied(0, num_links(), [&](u64 link) { head_[link] = kNil; });
    head_.resize(links, kNil);
    occupied_.assign((links + 63) / 64, 0);
    with_budgets_ = with_budgets;
    with_flight_ = with_flight;
    slots_.clear();
    injected_at_.clear();
    budgets_.clear();
    flight_.clear();
    free_head_ = kNil;
    grow(initial_slots);
  }

  u64 size(u64 link) const {
    const u32 h = head_[link];
    return h == kNil ? 0 : slots_[h].size;
  }
  u64 num_links() const { return head_.size(); }

  /// Appends `p` to the back of `link`'s FIFO.  p.dst must fit 32 bits (a
  /// row of B_n, n <= 30).
  void push(u64 link, const Packet& p) {
    BFLY_CHECK(p.dst <= u64{~u32{0}}, "PacketArena: destination exceeds 32 bits");
    const u32 slot = alloc();
    slots_[slot].dst = static_cast<u32>(p.dst);
    injected_at_[slot] = p.injected_at;
    if (with_budgets_) {
      budgets_[slot] = static_cast<u64>(p.misroutes) | (static_cast<u64>(p.wraps) << 32);
    }
    if (with_flight_) flight_[slot] = p.flight;
    append(link, slot);
  }

  /// dst of the front packet on `link` (must be non-empty).  Lets the
  /// simulators pick the output link before deciding between pop (delivery,
  /// drop, budget mutation) and the payload-invariant move_front fast path.
  u64 front_dst(u64 link) const { return slots_[head_[link]].dst; }

  /// Flight-recorder handle of the front packet on `link` (must be
  /// non-empty); 0 on arenas built without the flight lane, matching the
  /// "unsampled" convention.
  u64 front_flight(u64 link) const {
    return with_flight_ ? flight_[head_[link]] : 0;
  }

  /// Relinks the front slot of `from` (must be non-empty) onto the back of
  /// `to` without touching the payload or the free list.  A normal hop leaves
  /// dst/injected_at/budgets unchanged, so this replaces a pop+push pair —
  /// same FIFO semantics, roughly half the memory traffic.
  void move_front(u64 from, u64 to) { append(to, detach_front(from)); }

  /// Pops the front of `link`'s FIFO (must be non-empty) and recycles the
  /// slot.
  Packet pop(u64 link) {
    const u32 slot = detach_front(link);
    Packet p;
    p.dst = slots_[slot].dst;
    p.injected_at = injected_at_[slot];
    if (with_budgets_) {
      const u64 b = budgets_[slot];
      p.misroutes = static_cast<u32>(b);
      p.wraps = static_cast<u32>(b >> 32);
    }
    if (with_flight_) p.flight = flight_[slot];
    slots_[slot].next = free_head_;
    free_head_ = slot;
    return p;
  }

  /// Calls fn(link) for every non-empty link in [begin, end), in increasing
  /// link order.  The occupancy word is snapshotted per 64-link block, so fn
  /// may pop the visited link (or push to links outside the current block)
  /// freely; the simulators' descending-stage sweeps only push into stages
  /// that were already visited, which keeps snapshot and visit-time
  /// occupancy identical.
  template <typename Fn>
  void for_each_occupied(u64 begin, u64 end, Fn&& fn) const {
    const u64 first_word = begin >> 6;
    const u64 last_word = (end + 63) >> 6;
    for (u64 w = first_word; w < last_word; ++w) {
      u64 bits = occupied_[w];
      const u64 base = w << 6;
      if (base < begin) bits &= ~u64{0} << (begin - base);
      if (end - base < 64) bits &= (u64{1} << (end - base)) - 1;
      while (bits != 0) {
        const int bit = lowest_set_bit(bits);
        bits &= bits - 1;
        if (bits != 0) {
          // Hide the scattered front-slot load of the next occupied link
          // behind this link's work (the heads themselves are dense and stay
          // cached; the slot lane is what misses).
          BFLY_PREFETCH(&slots_[head_[base + static_cast<u64>(lowest_set_bit(bits))]]);
        }
        fn(base + static_cast<u64>(bit));
      }
    }
  }

  /// Total packet slots currently allocated (the denominator of the
  /// telemetry probes' arena_fill channel).  Grows geometrically with the
  /// peak population and never shrinks, so the sequence of capacities a run
  /// passes through is a deterministic function of the packet stream.
  u64 capacity() const { return slots_.size(); }

  /// Largest per-link FIFO size right now (the simulators' end-of-run
  /// max_queue statistic).  Visits only the occupied links.
  u64 max_size() const {
    u32 m = 0;
    for_each_occupied(0, num_links(),
                      [&](u64 link) { m = std::max(m, slots_[head_[link]].size); });
    return m;
  }

 private:
  /// One packet slot.  tail/size are meaningful only in a FIFO's front slot;
  /// next is the FIFO successor (kNil at the tail) or, for a free slot, the
  /// free-list successor.
  struct Slot {
    u32 dst;
    u32 next;
    u32 tail;
    u32 size;
  };

  /// Unlinks the front slot of `link` (must be non-empty), handing the
  /// FIFO's tail and size to the new front; returns the unlinked slot.
  u32 detach_front(u64 link) {
    const u32 slot = head_[link];
    BFLY_CHECK(slot != kNil, "PacketArena: pop/move_front on an empty link");
    const Slot& s = slots_[slot];
    const u32 next = s.next;
    if (next == kNil) {
      occupied_[link >> 6] &= ~(u64{1} << (link & 63));
    } else {
      slots_[next].tail = s.tail;
      slots_[next].size = s.size - 1;
    }
    head_[link] = next;
    return slot;
  }

  /// Links `slot` onto the back of `link`'s FIFO.
  void append(u64 link, u32 slot) {
    slots_[slot].next = kNil;
    u32& head = head_[link];
    if (head == kNil) {
      head = slot;
      slots_[slot].tail = slot;
      slots_[slot].size = 1;
      occupied_[link >> 6] |= u64{1} << (link & 63);
    } else {
      Slot& front = slots_[head];
      slots_[front.tail].next = slot;
      front.tail = slot;
      ++front.size;
    }
  }

  u32 alloc() {
    if (free_head_ == kNil) grow(slots_.size());
    const u32 slot = free_head_;
    free_head_ = slots_[slot].next;
    return slot;
  }

  void grow(std::size_t add) {
    const std::size_t old = slots_.size();
    const std::size_t grown = old + std::max<std::size_t>(add, 64);
    BFLY_CHECK(grown < static_cast<std::size_t>(kNil), "packet arena slot space exhausted");
    slots_.resize(grown);
    injected_at_.resize(grown);
    if (with_budgets_) budgets_.resize(grown);
    if (with_flight_) flight_.resize(grown);
    // Chain the new slots onto the free list, lowest index at the head.
    for (std::size_t s = grown; s-- > old;) {
      slots_[s].next = free_head_;
      free_head_ = static_cast<u32>(s);
    }
  }

  bool with_budgets_ = false;
  bool with_flight_ = false;
  // Packet lanes (indexed by slot).
  std::vector<Slot> slots_;
  std::vector<u64> injected_at_;
  std::vector<u64> budgets_;  ///< misroutes | wraps << 32, with_budgets only
  std::vector<u64> flight_;   ///< flight-recorder handle, with_flight only
  // Per-link FIFO state (indexed by dense link id).
  std::vector<u32> head_;      ///< front slot, or kNil when empty
  std::vector<u64> occupied_;  ///< bit (link & 63) of word (link >> 6)
  u32 free_head_ = kNil;
};

}  // namespace bfly
