#include "tsch/schedule.h"

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
  slot_nonempty_.assign(static_cast<std::size_t>(num_slots), 0);
  full_.assign(words_per_node_, 0);
}

bool schedule::mark_busy(node_id node, slot_t slot) {
  const auto row = static_cast<std::size_t>(node) * words_per_node_;
  if (row + words_per_node_ > node_busy_.size())
    node_busy_.resize(row + words_per_node_, 0);
  std::uint64_t& word =
      node_busy_[row + static_cast<std::size_t>(slot) / k_word_bits];
  const std::uint64_t bit = std::uint64_t{1}
                            << (static_cast<std::size_t>(slot) % k_word_bits);
  const bool was_clear = (word & bit) == 0;
  word |= bit;
  return was_clear;
}

void schedule::add(const transmission& tx, slot_t slot, offset_t offset) {
  const std::size_t ci = cell_index(slot, offset);
  const auto si = static_cast<std::size_t>(slot);
  // Both ids are validated before anything changes, so a rejected add()
  // leaves the schedule as it was.
  WSAN_REQUIRE(tx.sender >= 0 && tx.receiver >= 0,
               "transmission node id must be non-negative");
  std::uint8_t set = 0;
  if (mark_busy(tx.sender, slot)) set |= k_set_sender;
  if (mark_busy(tx.receiver, slot)) set |= k_set_receiver;
  cells_[ci].push_back(tx);
  slot_all_[si].push_back(tx);
  placements_.push_back(placement{tx, slot, offset});
  set_bits_.push_back(set);
  if (cell_load_[ci]++ == 0 && ++slot_nonempty_[si] == num_offsets_)
    full_[si / k_word_bits] |= std::uint64_t{1} << (si % k_word_bits);
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
    const std::uint8_t set = set_bits_.back();
    placements_.pop_back();
    set_bits_.pop_back();
    const std::size_t ci = cell_index(p.slot, p.offset);
    const auto si = static_cast<std::size_t>(p.slot);
    auto& cell = cells_[ci];
    auto& txs = slot_all_[si];
    // add() appends to all three vectors, so the log's last entry is
    // last in its cell and in its slot.
    WSAN_CHECK(!cell.empty() && cell.back() == p.tx && !txs.empty() &&
                   txs.back() == p.tx,
               "placement log out of step with the cell vectors");
    cell.pop_back();
    txs.pop_back();
    if (--cell_load_[ci] == 0 && slot_nonempty_[si]-- == num_offsets_)
      full_[si / k_word_bits] &= ~(std::uint64_t{1} << (si % k_word_bits));
    // Every later placement is already popped, so a bit this add() set
    // has no other owner; a bit it found set belongs to an earlier
    // placement in the slot and stays.
    if (set & k_set_sender) clear_busy(p.tx.sender, p.slot);
    if (set & k_set_receiver) clear_busy(p.tx.receiver, p.slot);
  }
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
