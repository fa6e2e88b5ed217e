#include "core/slot_finder.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.h"
#include "core/constraints.h"
#include "core/probe_counters.h"

namespace wsan::core {

namespace {

using word = std::uint64_t;
constexpr int k_wb = tsch::schedule::k_word_bits;

/// Isolation rules: an isolated transmission accepts only empty cells;
/// a cell holding an isolated transmission accepts nobody else.
bool isolation_ok(const tsch::transmission& tx,
                  const std::vector<tsch::transmission>& cell,
                  const std::set<std::pair<node_id, node_id>>* isolated) {
  if (isolated == nullptr || isolated->empty()) return true;
  if (cell.empty()) return true;
  if (is_isolated(*isolated, tx.sender, tx.receiver)) return false;
  for (const auto& other : cell)
    if (is_isolated(*isolated, other.sender, other.receiver)) return false;
  return true;
}

/// True iff a valid offset at `load` replaces the best one so far under
/// the policy. Strict comparisons keep the tie-break deterministic: the
/// first (lowest) valid offset at the winning load is retained.
bool improves(channel_policy policy, offset_t best, int best_load,
              int load) {
  if (best == k_invalid_offset) return true;
  switch (policy) {
    case channel_policy::min_load:
      return load < best_load;
    case channel_policy::first_fit:
      return false;  // first valid offset wins
    case channel_policy::max_reuse:
      return load > best_load;
  }
  return false;
}

/// True iff no later offset can replace `load` as the best under the
/// policy: first_fit keeps the first valid offset, and min_load cannot
/// beat an empty cell.
bool settled(channel_policy policy, int load) {
  return policy == channel_policy::first_fit ||
         (policy == channel_policy::min_load && load == 0);
}

/// Reference oracle: one slot at a time, the conflict test and every
/// cell's constraints answered by scanning transmission lists.
std::optional<slot_assignment> find_slot_naive(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t end, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const std::set<std::pair<node_id, node_id>>* isolated,
    int management_slot_period, probe_counters* probes) {
  for (slot_t s = earliest; s <= end; ++s) {
    if (is_management_slot(s, management_slot_period)) continue;
    if (probes != nullptr) ++probes->slots_scanned;
    if (!conflict_free(tx, sched.slot_transmissions(s))) continue;

    offset_t best = k_invalid_offset;
    int best_load = 0;
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      if (probes != nullptr) ++probes->cells_probed;
      const auto& cell = sched.cell(s, c);
      if (!channel_constraint_ok(tx, cell, rho, reuse_hops)) continue;
      if (!isolation_ok(tx, cell, isolated)) continue;
      const int load = static_cast<int>(cell.size());
      if (improves(policy, best, best_load, load)) {
        best = c;
        best_load = load;
        if (settled(policy, load)) break;
      }
    }
    if (best != k_invalid_offset) return slot_assignment{s, best};
  }
  return std::nullopt;
}

/// Bits of word w whose slots lie in [lo, hi].
word window_bits(std::size_t w, slot_t lo, slot_t hi) {
  const slot_t base = static_cast<slot_t>(w * k_wb);
  word bits = ~word{0};
  if (lo > base) bits &= ~word{0} << (lo - base);
  if (hi - base < k_wb - 1) bits &= (word{2} << (hi - base)) - 1;
  return bits;
}

/// Bits of word w whose slots are management-reserved.
word management_bits(std::size_t w, int period) {
  if (period == 0) return 0;
  const slot_t base = static_cast<slot_t>(w * k_wb);
  word bits = 0;
  for (slot_t k = (base + period - 1) / period * period; k < base + k_wb;
       k += period)
    bits |= word{1} << (k - base);
  return bits;
}

/// Bits 0..bit of a word: the slots up to and including the answer.
word through(int bit) { return (word{2} << bit) - 1; }

/// Word w of a busy-slot row; a node without a row is busy nowhere.
word busy_word(const word* row, std::size_t w) {
  return row != nullptr ? row[w] : 0;
}

/// The occupancy-index path, one 64-slot word at a time. In each word,
/// `scan` marks the window's non-management slots — the slots the naive
/// loop counts in slots_scanned — and `open` those of them where tx
/// shares no node with the slot. Only open slots reach the offset loop.
///
/// Without reuse (rho infinite) a cell is valid iff it is empty, so an
/// open slot fails iff it is full: the first open, non-full slot is the
/// answer and its first empty offset the offset under every policy. The
/// naive loop's probe counts follow by popcount: every scanned slot up
/// to the answer, num_offsets cells for each open (hence full) slot
/// before it, and at the answer the offsets up to the first empty one
/// (all of them under max_reuse, which never stops early).
///
/// With reuse the open slots are walked bit by bit through the same
/// offset loop as the naive path, the hop lookups reading two matrix
/// rows fetched once per call.
std::optional<slot_assignment> find_slot_indexed(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t end, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const std::set<std::pair<node_id, node_id>>* isolated,
    int management_slot_period, probe_counters* probes) {
  const word* sender_busy = sched.node_busy_words(tx.sender);
  const word* receiver_busy = sched.node_busy_words(tx.receiver);
  const word* full = sched.full_words();
  const int offsets = sched.num_offsets();
  const bool reuse = rho != k_infinite_hops;

  // Constraint 2b for an occupant x->y: hops(u, y) >= rho and
  // hops(x, v) >= rho, the latter read as row(v)[x] by symmetry.
  const int* from_sender = reuse ? reuse_hops.row(tx.sender) : nullptr;
  const int* from_receiver = reuse ? reuse_hops.row(tx.receiver) : nullptr;
  const auto num_nodes = static_cast<unsigned>(reuse_hops.num_nodes());
  const auto far_enough = [&](node_id sender, node_id receiver) {
    WSAN_REQUIRE(static_cast<unsigned>(sender) < num_nodes &&
                     static_cast<unsigned>(receiver) < num_nodes,
                 "node id out of range");
    return from_sender[receiver] >= rho && from_receiver[sender] >= rho;
  };
  const auto cell_ok = [&](const std::vector<tsch::transmission>& cell) {
    for (const auto& other : cell)
      if (!far_enough(other.sender, other.receiver)) return false;
    return isolation_ok(tx, cell, isolated);
  };

  std::size_t scanned = 0;
  std::size_t cells = 0;
  std::optional<slot_assignment> found;
  const auto last = static_cast<std::size_t>(end) / k_wb;
  for (auto w = static_cast<std::size_t>(earliest) / k_wb;
       w <= last && !found; ++w) {
    const word scan = window_bits(w, earliest, end) &
                      ~management_bits(w, management_slot_period);
    const word open = scan & ~(busy_word(sender_busy, w) |
                               busy_word(receiver_busy, w));
    if (!reuse) {
      const word free = open & ~full[w];
      if (free == 0) {
        scanned += static_cast<std::size_t>(std::popcount(scan));
        cells += static_cast<std::size_t>(offsets) *
                 static_cast<std::size_t>(std::popcount(open));
        continue;
      }
      const int bit = std::countr_zero(free);
      const slot_t s = static_cast<slot_t>(w * k_wb) + bit;
      const int* loads = sched.slot_loads(s);
      offset_t c = 0;
      while (loads[c] != 0) ++c;
      scanned += static_cast<std::size_t>(std::popcount(scan & through(bit)));
      const word before = (word{1} << bit) - 1;
      cells += static_cast<std::size_t>(offsets) *
                   static_cast<std::size_t>(std::popcount(open & before)) +
               static_cast<std::size_t>(
                   policy == channel_policy::max_reuse ? offsets : c + 1);
      found = slot_assignment{s, c};
      break;
    }
    for (word bits = open; bits != 0; bits &= bits - 1) {
      const int bit = std::countr_zero(bits);
      const slot_t s = static_cast<slot_t>(w * k_wb) + bit;
      const int* loads = sched.slot_loads(s);
      offset_t best = k_invalid_offset;
      int best_load = 0;
      for (offset_t c = 0; c < offsets; ++c) {
        ++cells;
        const int load = loads[c];
        // An empty cell passes the channel constraint and isolation
        // trivially — the cached load answers the probe.
        if (load > 0 && !cell_ok(sched.cell(s, c))) continue;
        if (improves(policy, best, best_load, load)) {
          best = c;
          best_load = load;
          if (settled(policy, load)) break;
        }
      }
      if (best != k_invalid_offset) {
        scanned +=
            static_cast<std::size_t>(std::popcount(scan & through(bit)));
        found = slot_assignment{s, best};
        break;
      }
    }
    if (!found) scanned += static_cast<std::size_t>(std::popcount(scan));
  }
  if (probes != nullptr) {
    probes->slots_scanned += scanned;
    probes->cells_probed += cells;
    probes->index_hits += scanned + cells;
  }
  return found;
}

}  // namespace

std::optional<slot_assignment> find_slot(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t latest, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const std::set<std::pair<node_id, node_id>>* isolated,
    int management_slot_period, bool use_index,
    probe_counters* probes) {
  WSAN_REQUIRE(earliest >= 0, "earliest slot must be non-negative");
  WSAN_REQUIRE(management_slot_period >= 0,
               "management slot period must be non-negative");
  WSAN_REQUIRE(rho >= 0, "rho must be non-negative");
  if (rho != k_infinite_hops) {
    const int n = reuse_hops.num_nodes();
    WSAN_REQUIRE(tx.sender >= 0 && tx.sender < n && tx.receiver >= 0 &&
                     tx.receiver < n,
                 "transmission endpoint outside the hop matrix");
  }
  const slot_t end = std::min<slot_t>(latest, sched.num_slots() - 1);
  if (earliest > end) return std::nullopt;
  return use_index
             ? find_slot_indexed(sched, tx, earliest, end, rho, reuse_hops,
                                 policy, isolated, management_slot_period,
                                 probes)
             : find_slot_naive(sched, tx, earliest, end, rho, reuse_hops,
                               policy, isolated, management_slot_period,
                               probes);
}

}  // namespace wsan::core
