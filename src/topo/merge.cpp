#include "topo/merge.h"

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "phy/path_loss.h"

namespace wsan::topo {

merge_result merge_topologies(const topology& a, const topology& b,
                              double x_offset_m, std::uint64_t seed) {
  WSAN_REQUIRE(a.num_nodes() > 0 && b.num_nodes() > 0,
               "both deployments must be non-empty");
  WSAN_REQUIRE(x_offset_m >= 0.0, "offset must be non-negative");

  merge_result result;
  result.merged.set_name(a.name() + "+" + b.name());
  result.merged.set_path_loss(a.path_loss());
  result.merged.set_link_model(a.link_model());
  result.merged.set_tx_power_dbm(a.tx_power_dbm());
  result.node_offset = a.num_nodes();

  std::vector<phy::position> positions;
  positions.reserve(static_cast<std::size_t>(a.num_nodes() + b.num_nodes()));
  for (node_id u = 0; u < a.num_nodes(); ++u)
    positions.push_back(a.position_of(u));
  for (node_id v = 0; v < b.num_nodes(); ++v) {
    auto pos = b.position_of(v);
    pos.x += x_offset_m;
    positions.push_back(pos);
  }
  result.merged.add_nodes(positions);

  // Intra-deployment state is preserved exactly.
  for (node_id u = 0; u < a.num_nodes(); ++u)
    for (node_id v = 0; v < a.num_nodes(); ++v) {
      if (u == v) continue;
      for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
           ++ch)
        result.merged.set_rssi_dbm(u, v, ch, a.rssi_dbm(u, v, ch));
    }
  for (node_id u = 0; u < b.num_nodes(); ++u)
    for (node_id v = 0; v < b.num_nodes(); ++v) {
      if (u == v) continue;
      for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
           ++ch)
        result.merged.set_rssi_dbm(result.node_offset + u,
                                   result.node_offset + v, ch,
                                   b.rssi_dbm(u, v, ch));
    }

  // Cross-deployment links: same statistical model as make_testbed.
  rng gen(seed);
  const auto& pl = a.path_loss();
  for (node_id u = 0; u < a.num_nodes(); ++u) {
    for (node_id v = 0; v < b.num_nodes(); ++v) {
      const node_id w = result.node_offset + v;
      const double mean_loss = phy::mean_path_loss_db(
          pl, result.merged.position_of(u), result.merged.position_of(w));
      const double shadow = gen.normal(0.0, pl.shadow_sigma_db);
      for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
           ++ch) {
        const double fade =
            gen.normal(0.0, pl.channel_fading_sigma_db);
        const double rssi = a.tx_power_dbm() - mean_loss - shadow - fade;
        result.merged.set_rssi_dbm(u, w, ch, rssi);
        result.merged.set_rssi_dbm(w, u, ch, rssi);
      }
    }
  }
  return result;
}

}  // namespace wsan::topo
