// Oracle test for the word-level slot search. core::find_slot and
// core::calculate_laxity answer from the schedule's occupancy index 64
// slots at a time; the naive path (use_index = false) rescans the
// transmission lists slot by slot. On random schedules — conflicting
// add()s, full slots, isolated links — and on windows that start and
// end on both sides of word boundaries, the two must return the same
// result and count the same probes. The index itself must undo exactly
// under random add/truncate sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/laxity.h"
#include "core/slot_finder.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"

namespace wsan {
namespace {

using pick_fn = std::mt19937;

int pick(pick_fn& gen, int lo, int hi) {  // inclusive
  return std::uniform_int_distribution<int>(lo, hi)(gen);
}

tsch::transmission random_tx(pick_fn& gen, int nodes) {
  tsch::transmission tx;
  tx.flow = pick(gen, 0, 50);
  tx.instance = pick(gen, 0, 3);
  tx.sender = pick(gen, 0, nodes - 1);
  tx.receiver = (tx.sender + pick(gen, 1, nodes - 1)) % nodes;
  return tx;
}

/// A random undirected graph, sparse enough to leave some pairs
/// unreachable (infinite hops) and to give a diameter of several hops.
graph::hop_matrix random_hops(pick_fn& gen, int nodes) {
  graph::graph g(nodes);
  for (int u = 0; u + 1 < nodes; ++u)
    if (pick(gen, 0, 5) != 0) g.add_edge(u, u + 1);
  for (int e = 0; e < nodes / 3; ++e) {
    const int u = pick(gen, 0, nodes - 1);
    const int v = pick(gen, 0, nodes - 1);
    if (u != v) g.add_edge(u, v);
  }
  return graph::hop_matrix(g);
}

/// A slot near a word boundary of the schedule, or anywhere in it.
slot_t random_slot(pick_fn& gen, slot_t num_slots) {
  if (pick(gen, 0, 1) == 0) return pick(gen, 0, num_slots - 1);
  const int words = (num_slots + 63) / 64;
  const slot_t boundary = 64 * pick(gen, 0, words);
  return std::clamp<slot_t>(boundary + pick(gen, -2, 1), 0, num_slots - 1);
}

/// Random placements, dense enough that many slots are full and many
/// nodes are busy. add() checks no constraint, so slots may hold
/// conflicting transmissions.
tsch::schedule random_schedule(pick_fn& gen, slot_t num_slots, int offsets,
                               int nodes) {
  tsch::schedule sched(num_slots, offsets);
  const int adds = pick(gen, 0, num_slots * offsets * 3 / 2);
  for (int i = 0; i < adds; ++i)
    sched.add(random_tx(gen, nodes), random_slot(gen, num_slots),
              pick(gen, 0, offsets - 1));
  // Fill some slots completely, so the full bitset has set bits.
  for (int i = pick(gen, 0, 6); i > 0; --i) {
    const slot_t s = random_slot(gen, num_slots);
    for (offset_t c = 0; c < offsets; ++c)
      if (sched.cell_load(s, c) == 0) sched.add(random_tx(gen, nodes), s, c);
  }
  return sched;
}

constexpr slot_t k_slot_counts[] = {1, 37, 63, 64, 65, 100, 128, 200, 301};
constexpr int k_management_periods[] = {0, 7, 64};
constexpr core::channel_policy k_policies[] = {
    core::channel_policy::min_load, core::channel_policy::first_fit,
    core::channel_policy::max_reuse};

TEST(WordScan, FindSlotMatchesTheNaiveScan) {
  pick_fn gen(2024);
  constexpr int k_nodes = 14;
  int found = 0;
  int queries = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const slot_t num_slots =
        k_slot_counts[trial % std::size(k_slot_counts)];
    const int offsets = pick(gen, 1, 4);
    const auto hops = random_hops(gen, k_nodes);
    const auto sched = random_schedule(gen, num_slots, offsets, k_nodes);
    std::set<std::pair<node_id, node_id>> isolated;
    for (int i = pick(gen, 0, 4); i > 0; --i) {
      const auto tx = random_tx(gen, k_nodes);
      isolated.emplace(tx.sender, tx.receiver);
    }
    std::vector<int> rhos{k_infinite_hops};
    for (int rho = 1; rho <= hops.diameter(); ++rho) rhos.push_back(rho);

    for (int q = 0; q < 40; ++q) {
      auto tx = random_tx(gen, k_nodes);
      if (!isolated.empty() && pick(gen, 0, 3) == 0)
        std::tie(tx.sender, tx.receiver) = *isolated.begin();
      const slot_t earliest = random_slot(gen, num_slots);
      // Past the end of the schedule too: the window is clipped.
      const slot_t latest = pick(gen, 0, 4) == 0
                                ? num_slots + pick(gen, 0, 70)
                                : random_slot(gen, num_slots);
      for (const int period : k_management_periods)
        for (const auto policy : k_policies)
          for (const int rho : rhos) {
            const auto* iso = pick(gen, 0, 1) == 0 ? &isolated : nullptr;
            core::probe_counters word;
            core::probe_counters naive;
            const auto a = core::find_slot(sched, tx, earliest, latest, rho,
                                           hops, policy, iso, period,
                                           /*use_index=*/true, &word);
            const auto b = core::find_slot(sched, tx, earliest, latest, rho,
                                           hops, policy, iso, period,
                                           /*use_index=*/false, &naive);
            ++queries;
            ASSERT_EQ(a.has_value(), b.has_value())
                << "trial " << trial << " query " << q << " rho " << rho
                << " period " << period;
            if (a) {
              ++found;
              ASSERT_EQ(a->slot, b->slot) << "trial " << trial;
              ASSERT_EQ(a->offset, b->offset) << "trial " << trial;
            }
            ASSERT_EQ(word.slots_scanned, naive.slots_scanned)
                << "trial " << trial << " query " << q << " rho " << rho
                << " period " << period << " window [" << earliest << ", "
                << latest << "] of " << num_slots;
            ASSERT_EQ(word.cells_probed, naive.cells_probed)
                << "trial " << trial << " query " << q << " rho " << rho
                << " period " << period;
            ASSERT_EQ(word.index_hits,
                      word.slots_scanned + word.cells_probed);
            ASSERT_EQ(naive.index_hits, 0u);
          }
    }
  }
  // The draws must exercise both outcomes.
  EXPECT_GT(found, queries / 10);
  EXPECT_LT(found, queries);
}

TEST(WordScan, LaxityMatchesTheNaiveScan) {
  pick_fn gen(77);
  constexpr int k_nodes = 12;
  for (int trial = 0; trial < 60; ++trial) {
    const slot_t num_slots =
        k_slot_counts[trial % std::size(k_slot_counts)];
    const auto sched =
        random_schedule(gen, num_slots, pick(gen, 1, 3), k_nodes);
    for (int q = 0; q < 30; ++q) {
      std::vector<tsch::transmission> post(
          static_cast<std::size_t>(pick(gen, 0, 6)));
      for (auto& t : post) t = random_tx(gen, k_nodes);
      const slot_t s = random_slot(gen, num_slots);
      const slot_t deadline = s + pick(gen, 0, 140);
      for (const int period : k_management_periods) {
        core::probe_counters word;
        core::probe_counters naive;
        ASSERT_EQ(core::calculate_laxity(sched, post, s, deadline, period,
                                         /*use_index=*/true, &word),
                  core::calculate_laxity(sched, post, s, deadline, period,
                                         /*use_index=*/false, &naive))
            << "trial " << trial << " slot " << s << " deadline "
            << deadline << " period " << period;
        ASSERT_EQ(word.slots_scanned, naive.slots_scanned);
        ASSERT_EQ(word.cells_probed, naive.cells_probed);
      }
    }
  }
}

/// Asserts that the occupancy index of `sched` equals that of a schedule
/// built by add()ing its placements afresh.
void expect_index_equals_rebuild(const tsch::schedule& sched, int nodes,
                                 int round) {
  tsch::schedule rebuilt(sched.num_slots(), sched.num_offsets());
  for (const auto& p : sched.placements()) rebuilt.add(p.tx, p.slot, p.offset);
  const std::size_t words = sched.words_per_node();
  for (std::size_t w = 0; w < words; ++w)
    ASSERT_EQ(sched.full_words()[w], rebuilt.full_words()[w])
        << "round " << round << " word " << w;
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    bool full = true;
    for (offset_t c = 0; c < sched.num_offsets(); ++c)
      full = full && sched.cell_load(s, c) > 0;
    const auto w = static_cast<std::size_t>(s) / 64;
    ASSERT_EQ((sched.full_words()[w] >> (s % 64)) & 1, full ? 1u : 0u)
        << "round " << round << " slot " << s;
  }
  for (node_id node = 0; node < nodes; ++node) {
    const std::uint64_t* a = sched.node_busy_words(node);
    const std::uint64_t* b = rebuilt.node_busy_words(node);
    for (std::size_t w = 0; w < words; ++w)
      ASSERT_EQ(a != nullptr ? a[w] : 0, b != nullptr ? b[w] : 0)
          << "round " << round << " node " << node << " word " << w;
  }
}

TEST(WordScan, TruncateUndoesTheIndexExactly) {
  pick_fn gen(5);
  constexpr int k_nodes = 5;  // few nodes: slots share endpoints often
  for (const slot_t num_slots : {37, 64, 130}) {
    tsch::schedule sched(num_slots, 2);
    for (int round = 0; round < 80; ++round) {
      for (int i = pick(gen, 0, 50); i > 0; --i)
        sched.add(random_tx(gen, k_nodes), random_slot(gen, num_slots),
                  pick(gen, 0, 1));
      sched.truncate(static_cast<std::size_t>(
          pick(gen, 0, static_cast<int>(sched.num_transmissions()))));
      ASSERT_NO_FATAL_FAILURE(
          expect_index_equals_rebuild(sched, k_nodes, round));
    }
    sched.truncate(0);
    for (std::size_t w = 0; w < sched.words_per_node(); ++w)
      EXPECT_EQ(sched.full_words()[w], 0u);
  }
}

}  // namespace
}  // namespace wsan
