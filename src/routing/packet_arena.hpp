// Flat slot arena backing the saturation simulators' per-link FIFOs.
//
// The seed simulators kept one std::deque<Packet> per forward link — n * 2^n
// * 2 separately heap-allocated containers — and probed every link's header
// every cycle (the dominant cost at low occupancy: the headers alone are
// ~80 B * links of cache traffic per cycle).  The arena stores every
// in-flight packet in contiguous slot lanes and threads per-link FIFO chains
// through a shared `next` lane:
//
//   * payload lane — (dst, injected_at) paired in one 16-byte slot, so a
//     hop touches one payload cache line instead of two;
//   * budget lane — misroute/wrap counters packed into one u64, allocated
//     only for the fault simulator (with_budgets);
//   * occupancy bitmap — one bit per link, maintained on push/pop, so the
//     cycle loop iterates non-empty links with countr_zero instead of
//     probing every FIFO (for_each_occupied).
//
// Freed slots recycle through a free list: once the arena has grown to the
// simulation's peak population, a cycle performs zero heap traffic.
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

  /// An empty arena over `links` FIFOs.  `initial_slots` preallocates packet
  /// capacity; the arena grows geometrically (amortized) beyond it.
  ///
  /// Both counts must fit the arena's 32-bit index width (kNil is the
  /// sentinel): slot ids are u32, and link FIFOs chain through those slots,
  /// so a dimension large enough to exceed them must fail loudly here rather
  /// than wrap deep inside a run.  The checks run before any allocation — an
  /// oversized request throws without first trying to reserve terabytes.
  explicit PacketArena(u64 links, bool with_budgets = false, bool with_flight = false,
                       std::size_t initial_slots = 4096)
      : with_budgets_(with_budgets), with_flight_(with_flight) {
    BFLY_REQUIRE(links < static_cast<u64>(kNil),
                 "PacketArena: link count exceeds the 32-bit index width");
    BFLY_REQUIRE(initial_slots < static_cast<std::size_t>(kNil),
                 "PacketArena: initial slot count exceeds the 32-bit index width");
    q_.resize(links);
    occupied_.resize((links + 63) / 64, 0);
    grow(initial_slots);
  }

  u64 size(u64 link) const { return q_[link].size; }
  u64 num_links() const { return q_.size(); }

  /// Appends `p` to the back of `link`'s FIFO.
  void push(u64 link, const Packet& p) {
    const u32 slot = alloc();
    payload_[slot] = Payload{p.dst, p.injected_at};
    if (with_budgets_) {
      budgets_[slot] = static_cast<u64>(p.misroutes) | (static_cast<u64>(p.wraps) << 32);
    }
    if (with_flight_) flight_[slot] = p.flight;
    next_[slot] = kNil;
    LinkQ& q = q_[link];
    if (q.tail == kNil) {
      q.head = slot;
      occupied_[link >> 6] |= u64{1} << (link & 63);
    } else {
      next_[q.tail] = slot;
    }
    q.tail = slot;
    ++q.size;
  }

  /// dst of the front packet on `link` (must be non-empty).  Lets the
  /// simulators pick the output link before deciding between pop (delivery,
  /// drop, budget mutation) and the payload-invariant move_front fast path.
  u64 front_dst(u64 link) const { return payload_[q_[link].head].dst; }

  /// Flight-recorder handle of the front packet on `link` (must be
  /// non-empty); 0 on arenas built without the flight lane, matching the
  /// "unsampled" convention.
  u64 front_flight(u64 link) const {
    return with_flight_ ? flight_[q_[link].head] : 0;
  }

  /// Relinks the front slot of `from` (must be non-empty) onto the back of
  /// `to` without touching the payload or the free list.  A normal hop leaves
  /// dst/injected_at/budgets unchanged, so this replaces a pop+push pair —
  /// same FIFO semantics, roughly half the memory traffic.
  void move_front(u64 from, u64 to) {
    LinkQ& qf = q_[from];
    const u32 slot = qf.head;
    BFLY_CHECK(slot != kNil, "PacketArena::move_front on empty link");
    const u32 nxt = next_[slot];
    qf.head = nxt;
    if (nxt == kNil) {
      qf.tail = kNil;
      occupied_[from >> 6] &= ~(u64{1} << (from & 63));
    }
    --qf.size;
    next_[slot] = kNil;
    LinkQ& qt = q_[to];
    if (qt.tail == kNil) {
      qt.head = slot;
      occupied_[to >> 6] |= u64{1} << (to & 63);
    } else {
      next_[qt.tail] = slot;
    }
    qt.tail = slot;
    ++qt.size;
  }

  /// Pops the front of `link`'s FIFO (must be non-empty) and recycles the
  /// slot.
  Packet pop(u64 link) {
    LinkQ& q = q_[link];
    const u32 slot = q.head;
    BFLY_CHECK(slot != kNil, "PacketArena::pop on empty link");
    Packet p;
    p.dst = payload_[slot].dst;
    p.injected_at = payload_[slot].injected_at;
    if (with_budgets_) {
      const u64 b = budgets_[slot];
      p.misroutes = static_cast<u32>(b);
      p.wraps = static_cast<u32>(b >> 32);
    }
    if (with_flight_) p.flight = flight_[slot];
    const u32 n = next_[slot];
    q.head = n;
    if (n == kNil) {
      q.tail = kNil;
      occupied_[link >> 6] &= ~(u64{1} << (link & 63));
    }
    --q.size;
    next_[slot] = free_head_;
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
          // behind this link's work (the headers themselves are dense and
          // stay cached; the payload/next lanes are what miss).
          const u32 ahead = q_[base + static_cast<u64>(lowest_set_bit(bits))].head;
          BFLY_PREFETCH(&payload_[ahead]);
          BFLY_PREFETCH(&next_[ahead]);
        }
        fn(base + static_cast<u64>(bit));
      }
    }
  }

  /// Total packet slots currently allocated (the denominator of the
  /// telemetry probes' arena_fill channel).  Grows geometrically with the
  /// peak population and never shrinks, so the sequence of capacities a run
  /// passes through is a deterministic function of the packet stream.
  u64 capacity() const { return payload_.size(); }

  /// Largest per-link FIFO size right now (the simulators' end-of-run
  /// max_queue statistic).
  u64 max_size() const {
    u32 m = 0;
    for (const LinkQ& q : q_) m = std::max(m, q.size);
    return m;
  }

 private:
  struct Payload {
    u64 dst;
    u64 injected_at;
  };

  /// Per-link FIFO header.  head/tail/size share one 16-byte struct so a hop
  /// dirties one cache line per endpoint instead of three.
  struct LinkQ {
    u32 head = kNil;
    u32 tail = kNil;
    u32 size = 0;
    u32 pad_ = 0;
  };

  u32 alloc() {
    if (free_head_ == kNil) grow(payload_.size());
    const u32 slot = free_head_;
    free_head_ = next_[slot];
    return slot;
  }

  void grow(std::size_t add) {
    const std::size_t old = payload_.size();
    const std::size_t grown = old + std::max<std::size_t>(add, 64);
    BFLY_CHECK(grown < static_cast<std::size_t>(kNil), "packet arena slot space exhausted");
    payload_.resize(grown);
    if (with_budgets_) budgets_.resize(grown);
    if (with_flight_) flight_.resize(grown);
    next_.resize(grown);
    // Chain the new slots onto the free list, lowest index at the head.
    for (std::size_t s = grown; s-- > old;) {
      next_[s] = free_head_;
      free_head_ = static_cast<u32>(s);
    }
  }

  bool with_budgets_;
  bool with_flight_;
  // Packet lanes (indexed by slot).
  std::vector<Payload> payload_;
  std::vector<u64> budgets_;  ///< misroutes | wraps << 32, with_budgets only
  std::vector<u64> flight_;   ///< flight-recorder handle, with_flight only
  std::vector<u32> next_;     ///< FIFO successor, or free-list successor
  // Per-link FIFO state (indexed by dense link id).
  std::vector<LinkQ> q_;
  std::vector<u64> occupied_;  ///< bit (link & 63) of word (link >> 6)
  u32 free_head_ = kNil;
};

}  // namespace bfly
