#include "sim/interference.h"

#include "common/error.h"
#include "phy/channel.h"

namespace wsan::sim {

interference_field::interference_field(
    const topo::topology& topo,
    std::vector<external_interferer> interferers, std::uint64_t seed)
    : interferers_(std::move(interferers)), num_nodes_(topo.num_nodes()) {
  rng gen(seed);
  received_dbm_.resize(interferers_.size() *
                       static_cast<std::size_t>(num_nodes_));
  for (std::size_t i = 0; i < interferers_.size(); ++i) {
    for (node_id v = 0; v < num_nodes_; ++v) {
      const double loss = phy::mean_path_loss_db(
          topo.path_loss(), interferers_[i].pos, topo.position_of(v));
      const double shadow =
          gen.normal(0.0, topo.path_loss().shadow_sigma_db);
      received_dbm_[i * static_cast<std::size_t>(num_nodes_) +
                    static_cast<std::size_t>(v)] =
          interferers_[i].tx_power_dbm - loss - shadow -
          k_wifi_bandwidth_factor_db;
    }
  }
}

const external_interferer& interference_field::interferer(int i) const {
  WSAN_REQUIRE(i >= 0 && i < num_interferers(),
               "interferer index out of range");
  return interferers_[static_cast<std::size_t>(i)];
}

std::optional<double> interference_field::power_at(
    int i, node_id receiver, channel_t ieee_channel) const {
  WSAN_REQUIRE(i >= 0 && i < num_interferers(),
               "interferer index out of range");
  WSAN_REQUIRE(receiver >= 0 && receiver < num_nodes_,
               "receiver id out of range");
  if (!phy::wifi_overlaps(interferers_[static_cast<std::size_t>(i)]
                              .wifi_channel,
                          ieee_channel))
    return std::nullopt;
  return received_dbm_[static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(num_nodes_) +
                       static_cast<std::size_t>(receiver)];
}

double interference_field::received_dbm(int i, node_id receiver) const {
  WSAN_REQUIRE(i >= 0 && i < num_interferers(),
               "interferer index out of range");
  WSAN_REQUIRE(receiver >= 0 && receiver < num_nodes_,
               "receiver id out of range");
  return received_dbm_[static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(num_nodes_) +
                       static_cast<std::size_t>(receiver)];
}

std::vector<bool> interference_field::sample_active(rng& gen) const {
  std::vector<bool> active(interferers_.size());
  for (std::size_t i = 0; i < interferers_.size(); ++i)
    active[i] = gen.bernoulli(interferers_[i].duty_cycle);
  return active;
}

void interference_field::sample_active(rng& gen, char* active) const {
  for (std::size_t i = 0; i < interferers_.size(); ++i)
    active[i] = gen.bernoulli(interferers_[i].duty_cycle) ? 1 : 0;
}

std::vector<external_interferer> one_interferer_per_floor(
    const topo::topology& topo, double duty_cycle, double tx_power_dbm,
    int wifi_channel) {
  int max_floor = 0;
  double max_x = 0.0;
  double max_y = 0.0;
  for (node_id v = 0; v < topo.num_nodes(); ++v) {
    const auto& pos = topo.position_of(v);
    max_floor = std::max(max_floor, pos.floor);
    max_x = std::max(max_x, pos.x);
    max_y = std::max(max_y, pos.y);
  }
  std::vector<external_interferer> interferers;
  for (int f = 0; f <= max_floor; ++f) {
    external_interferer intf;
    // One pair per floor, placed off-center (like a Pi pair on a desk
    // near one wing) so its footprint covers part of the floor rather
    // than all of it.
    intf.pos = phy::position{max_x / 4.0, max_y / 4.0, f};
    intf.duty_cycle = duty_cycle;
    intf.tx_power_dbm = tx_power_dbm;
    intf.wifi_channel = wifi_channel;
    interferers.push_back(intf);
  }
  return interferers;
}

}  // namespace wsan::sim
