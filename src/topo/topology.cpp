#include "topo/topology.h"

#include <algorithm>

#include "common/error.h"

namespace wsan::topo {

node_id topology::add_nodes(std::span<const phy::position> positions) {
  const auto old_n = positions_.size();
  const node_id first = static_cast<node_id>(old_n);
  if (positions.empty()) return first;
  positions_.insert(positions_.end(), positions.begin(), positions.end());
  const auto n = positions_.size();
  // Row u of the old matrix (old_n * k_max_channels values) becomes the
  // head of row u of the new one.
  const auto old_row = old_n * phy::k_max_channels;
  const auto new_row = n * phy::k_max_channels;
  std::vector<double> grown(n * new_row, k_no_signal_dbm);
  for (std::size_t u = 0; u < old_n; ++u)
    std::copy_n(rssi_.begin() + static_cast<std::ptrdiff_t>(u * old_row),
                old_row,
                grown.begin() + static_cast<std::ptrdiff_t>(u * new_row));
  rssi_ = std::move(grown);
  return first;
}

const phy::position& topology::position_of(node_id id) const {
  WSAN_REQUIRE(id >= 0 && id < num_nodes(), "node id out of range");
  return positions_[static_cast<std::size_t>(id)];
}

std::vector<node_id> topology::node_ids() const {
  std::vector<node_id> ids(static_cast<std::size_t>(num_nodes()));
  for (int i = 0; i < num_nodes(); ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

std::size_t topology::link_index(node_id u, node_id v, channel_t ch) const {
  WSAN_REQUIRE(u >= 0 && u < num_nodes(), "sender id out of range");
  WSAN_REQUIRE(v >= 0 && v < num_nodes(), "receiver id out of range");
  const int c = phy::channel_index(ch);
  return (static_cast<std::size_t>(u) *
              static_cast<std::size_t>(num_nodes()) +
          static_cast<std::size_t>(v)) *
             phy::k_max_channels +
         static_cast<std::size_t>(c);
}

double topology::rssi_dbm(node_id u, node_id v, channel_t ch) const {
  if (u == v) return k_no_signal_dbm;
  return rssi_[link_index(u, v, ch)];
}

void topology::set_rssi_dbm(node_id u, node_id v, channel_t ch, double rssi) {
  WSAN_REQUIRE(u != v, "self links are not allowed");
  rssi_[link_index(u, v, ch)] = rssi;
}

double topology::prr(node_id u, node_id v, channel_t ch) const {
  return phy::prr_from_rssi(link_model_, rssi_dbm(u, v, ch));
}

void topology::set_prr(node_id u, node_id v, channel_t ch, double prr) {
  WSAN_REQUIRE(prr >= 0.0 && prr <= 1.0, "PRR must be in [0, 1]");
  set_rssi_dbm(u, v, ch, phy::rssi_from_prr(link_model_, prr));
}

double topology::min_prr(node_id u, node_id v,
                         const std::vector<channel_t>& channels) const {
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  double best = 1.0;
  for (channel_t ch : channels) best = std::min(best, prr(u, v, ch));
  return best;
}

double topology::max_prr(node_id u, node_id v,
                         const std::vector<channel_t>& channels) const {
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  double best = 0.0;
  for (channel_t ch : channels) best = std::max(best, prr(u, v, ch));
  return best;
}

}  // namespace wsan::topo
