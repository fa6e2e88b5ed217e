#include "tsch/schedule.h"

#include <algorithm>

#include "common/error.h"

namespace wsan::tsch {

schedule::schedule(slot_t num_slots, int num_offsets)
    : num_slots_(num_slots), num_offsets_(num_offsets) {
  WSAN_REQUIRE(num_slots > 0, "schedule needs at least one slot");
  WSAN_REQUIRE(num_offsets > 0, "schedule needs at least one offset");
  cells_.resize(static_cast<std::size_t>(num_slots) *
                static_cast<std::size_t>(num_offsets));
  slot_all_.resize(static_cast<std::size_t>(num_slots));
  words_per_node_ =
      (static_cast<std::size_t>(num_slots) + k_word_bits - 1) / k_word_bits;
  cell_load_.assign(cells_.size(), 0);
}

void schedule::mark_busy(node_id node, slot_t slot) {
  WSAN_REQUIRE(node >= 0, "transmission node id must be non-negative");
  const auto row = static_cast<std::size_t>(node) * words_per_node_;
  if (row + words_per_node_ > node_busy_.size())
    node_busy_.resize(row + words_per_node_, 0);
  node_busy_[row + static_cast<std::size_t>(slot) / k_word_bits] |=
      std::uint64_t{1} << (static_cast<std::size_t>(slot) % k_word_bits);
}

void schedule::add(const transmission& tx, slot_t slot, offset_t offset) {
  const std::size_t ci = cell_index(slot, offset);
  cells_[ci].push_back(tx);
  slot_all_[static_cast<std::size_t>(slot)].push_back(tx);
  placements_.push_back(placement{tx, slot, offset});
  ++cell_load_[ci];
  mark_busy(tx.sender, slot);
  mark_busy(tx.receiver, slot);
}

void schedule::clear_busy(node_id node, slot_t slot) {
  const auto row = static_cast<std::size_t>(node) * words_per_node_;
  node_busy_[row + static_cast<std::size_t>(slot) / k_word_bits] &=
      ~(std::uint64_t{1} << (static_cast<std::size_t>(slot) % k_word_bits));
}

void schedule::truncate(std::size_t n) {
  WSAN_REQUIRE(n <= placements_.size(),
               "truncate past the end of the placement log");
  while (placements_.size() > n) {
    const placement p = placements_.back();
    placements_.pop_back();
    const std::size_t ci = cell_index(p.slot, p.offset);
    auto& cell = cells_[ci];
    auto& txs = slot_all_[static_cast<std::size_t>(p.slot)];
    // add() appends to all three vectors, so the log's last entry is
    // last in its cell and in its slot.
    WSAN_CHECK(!cell.empty() && cell.back() == p.tx && !txs.empty() &&
                   txs.back() == p.tx,
               "placement log out of step with the cell vectors");
    cell.pop_back();
    txs.pop_back();
    --cell_load_[ci];
    // Another transmission in the slot may share an endpoint (only in a
    // schedule with conflicts, which add() does not forbid): keep its bit.
    const auto uses = [&txs](node_id node) {
      return std::any_of(txs.begin(), txs.end(), [node](const auto& tx) {
        return tx.sender == node || tx.receiver == node;
      });
    };
    if (!uses(p.tx.sender)) clear_busy(p.tx.sender, p.slot);
    if (!uses(p.tx.receiver)) clear_busy(p.tx.receiver, p.slot);
  }
}

const std::vector<transmission>& schedule::cell(slot_t slot,
                                                offset_t offset) const {
  return cells_[cell_index(slot, offset)];
}

const std::vector<transmission>& schedule::slot_transmissions(
    slot_t slot) const {
  check_slot(slot);
  return slot_all_[static_cast<std::size_t>(slot)];
}

int schedule::cell_size(slot_t slot, offset_t offset) const {
  return static_cast<int>(cell(slot, offset).size());
}

schedule shift_node_ids(const schedule& sched, node_id offset) {
  WSAN_REQUIRE(offset >= 0, "offset must be non-negative");
  schedule shifted(sched.num_slots(), sched.num_offsets());
  for (const auto& p : sched.placements()) {
    transmission tx = p.tx;
    tx.sender += offset;
    tx.receiver += offset;
    shifted.add(tx, p.slot, p.offset);
  }
  return shifted;
}

}  // namespace wsan::tsch
