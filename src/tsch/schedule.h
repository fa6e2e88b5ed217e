// The TSCH transmission schedule: a slot x channel-offset grid over the
// hyperperiod (Section III-B).
//
// Standard WirelessHART permits at most one transmission per (slot,
// offset) cell; with channel reuse a cell may hold several. The schedule
// itself is policy-free — constraints are enforced by the scheduler and
// re-checked by validate_schedule().
//
// Besides the raw cell contents, the schedule maintains an incremental
// occupancy index updated by add() and undone by truncate():
//   * per-node busy-slot bitsets (one bit per slot for every node that
//     sends or receives in it), so "does tx conflict with slot s" is two
//     O(1) bit tests instead of a scan of slot_transmissions(s) — two
//     transmissions conflict iff they share a node (Section III-B);
//   * per-cell load counters, so channel-selection policies read a
//     cached integer instead of measuring the cell vector;
//   * per-slot counts of non-empty offsets and a "full" bitset (bit k set
//     iff every offset of slot k holds a transmission), so the slot
//     search without reuse finds its first candidate with word
//     operations (core::find_slot).
// The index is derived state only; the vectors remain the ground truth
// and the naive scans stay available as a reference oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "tsch/transmission.h"

namespace wsan::tsch {

class schedule {
 public:
  schedule() = default;
  schedule(slot_t num_slots, int num_offsets);

  slot_t num_slots() const { return num_slots_; }
  int num_offsets() const { return num_offsets_; }

  /// Places a transmission at (slot, offset). No constraint checking —
  /// that is the scheduler's job.
  void add(const transmission& tx, slot_t slot, offset_t offset);

  /// Removes placements()[n, end) — the repair primitive of incremental
  /// delta-scheduling (core::delta_scheduler). Placements are popped in
  /// LIFO order, so each pop undoes exactly one add(): the popped
  /// transmission is the last element of its cell vector and of its slot
  /// vector, the cell's load counter and the slot's non-empty count drop
  /// back, and the busy bits this placement's add() set (recorded when
  /// it was added) are cleared — a bit that was already set stays, as it
  /// belongs to an earlier placement in the slot. Cost is O(1) per
  /// removed placement. Afterwards the schedule equals one built by
  /// add()ing the first n placements.
  /// Throws std::invalid_argument if n > num_transmissions().
  void truncate(std::size_t n);

  /// Transmissions already assigned to one cell (T_sc in the paper).
  const std::vector<transmission>& cell(slot_t slot, offset_t offset) const {
    return cells_[cell_index(slot, offset)];
  }

  /// All transmissions in a slot across every offset (T_s in the paper).
  const std::vector<transmission>& slot_transmissions(slot_t slot) const {
    check_slot(slot);
    return slot_all_[static_cast<std::size_t>(slot)];
  }

  int cell_size(slot_t slot, offset_t offset) const {
    return static_cast<int>(cell(slot, offset).size());
  }

  // ------------------------------------------------ occupancy index --

  /// Bits per busy-slot bitset word.
  static constexpr int k_word_bits = 64;

  /// Number of 64-bit words in each node's busy-slot bitset.
  std::size_t words_per_node() const { return words_per_node_; }

  /// The node's busy-slot bitset (bit k set iff the node sends or
  /// receives in slot k), or nullptr if no row was ever allocated for
  /// the node (its id exceeds every scheduled node's). The pointer is
  /// invalidated by the next add().
  const std::uint64_t* node_busy_words(node_id node) const {
    if (node < 0) return nullptr;
    const auto row = static_cast<std::size_t>(node) * words_per_node_;
    if (words_per_node_ == 0 || row + words_per_node_ > node_busy_.size())
      return nullptr;
    return node_busy_.data() + row;
  }

  /// True iff the node sends or receives in the slot. O(1).
  bool node_busy(node_id node, slot_t slot) const {
    check_slot(slot);
    const std::uint64_t* words = node_busy_words(node);
    if (words == nullptr) return false;
    return (words[static_cast<std::size_t>(slot) / k_word_bits] >>
            (static_cast<std::size_t>(slot) % k_word_bits)) &
           1;
  }

  /// True iff tx shares no node with any transmission in the slot —
  /// the index-backed equivalent of core::conflict_free over
  /// slot_transmissions(slot). O(1).
  bool slot_conflict_free(const transmission& tx, slot_t slot) const {
    return !node_busy(tx.sender, slot) && !node_busy(tx.receiver, slot);
  }

  /// Cached cell_size(slot, offset): transmissions in the cell. O(1).
  int cell_load(slot_t slot, offset_t offset) const {
    return cell_load_[cell_index(slot, offset)];
  }

  /// The slot's cached cell loads, one per offset (num_offsets() ints),
  /// for callers that walk every offset of a slot.
  const int* slot_loads(slot_t slot) const {
    check_slot(slot);
    return cell_load_.data() +
           static_cast<std::size_t>(slot) *
               static_cast<std::size_t>(num_offsets_);
  }

  /// The full-slot bitset, words_per_node() words: bit k is set iff
  /// every offset of slot k holds a transmission. Bits past num_slots()
  /// are zero.
  const std::uint64_t* full_words() const { return full_.data(); }

  /// A placement record, in insertion order.
  struct placement {
    transmission tx;
    slot_t slot = k_invalid_slot;
    offset_t offset = k_invalid_offset;

    friend bool operator==(const placement&, const placement&) = default;
  };
  const std::vector<placement>& placements() const { return placements_; }

  std::size_t num_transmissions() const { return placements_.size(); }

 private:
  std::size_t cell_index(slot_t slot, offset_t offset) const {
    check_slot(slot);
    WSAN_REQUIRE(offset >= 0 && offset < num_offsets_,
                 "offset out of range");
    return static_cast<std::size_t>(slot) *
               static_cast<std::size_t>(num_offsets_) +
           static_cast<std::size_t>(offset);
  }
  void check_slot(slot_t slot) const {
    WSAN_REQUIRE(slot >= 0 && slot < num_slots_, "slot out of range");
  }
  /// Sets the node's busy bit in the slot; true iff it was clear.
  bool mark_busy(node_id node, slot_t slot);
  void clear_busy(node_id node, slot_t slot);

  /// What one add() changed in the busy bitsets, so truncate() can undo
  /// it without scanning the slot.
  static constexpr std::uint8_t k_set_sender = 1;
  static constexpr std::uint8_t k_set_receiver = 2;

  slot_t num_slots_ = 0;
  int num_offsets_ = 0;
  std::vector<std::vector<transmission>> cells_;      // slots x offsets
  std::vector<std::vector<transmission>> slot_all_;   // per slot
  std::vector<placement> placements_;
  std::size_t words_per_node_ = 0;
  std::vector<std::uint64_t> node_busy_;  // nodes x words_per_node_
  std::vector<int> cell_load_;            // slots x offsets
  std::vector<int> slot_nonempty_;        // per slot: non-empty offsets
  std::vector<std::uint64_t> full_;       // words_per_node_ words
  std::vector<std::uint8_t> set_bits_;    // per placement: k_set_* flags
};

/// Rebuilds the schedule with every transmission's node ids shifted by
/// `offset` — the schedule counterpart of flow::shift_node_ids for
/// re-expressing a standalone network in a merged topology's id space.
schedule shift_node_ids(const schedule& sched, node_id offset);

}  // namespace wsan::tsch
