#include "topo/topology_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/error.h"

namespace wsan::topo {

void save_topology(const topology& topo, std::ostream& os) {
  os << std::setprecision(10);
  os << "topology " << (topo.name().empty() ? "unnamed" : topo.name())
     << "\n";
  const auto& pl = topo.path_loss();
  const auto& lm = topo.link_model();
  os << "params " << pl.pl_d0_db << ' ' << pl.reference_distance_m << ' '
     << pl.exponent << ' ' << pl.floor_attenuation_db << ' '
     << pl.shadow_sigma_db << ' ' << pl.channel_fading_sigma_db << ' '
     << lm.sensitivity_dbm << ' ' << lm.noise_floor_dbm << ' '
     << lm.transition_width_db << ' ' << topo.tx_power_dbm() << "\n";
  for (node_id id = 0; id < topo.num_nodes(); ++id) {
    const auto& pos = topo.position_of(id);
    os << "node " << id << ' ' << pos.x << ' ' << pos.y << ' ' << pos.floor
       << "\n";
  }
  for (node_id u = 0; u < topo.num_nodes(); ++u) {
    for (node_id v = 0; v < topo.num_nodes(); ++v) {
      if (u == v) continue;
      // Skip all-dead links to keep files small.
      bool any = false;
      for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
           ++ch) {
        if (topo.rssi_dbm(u, v, ch) > k_no_signal_dbm) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      os << "rssi " << u << ' ' << v;
      for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
           ++ch)
        os << ' ' << topo.rssi_dbm(u, v, ch);
      os << "\n";
    }
  }
}

topology load_topology(std::istream& is) {
  topology topo;
  struct pending_rssi {
    node_id u, v;
    double values[phy::k_max_channels];
  };
  std::vector<pending_rssi> pending;
  std::map<node_id, phy::position> nodes;

  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    const std::string where = " at line " + std::to_string(line_no);
    if (kind == "topology") {
      std::string name;
      ls >> name;
      topo.set_name(name);
    } else if (kind == "params") {
      phy::path_loss_params pl;
      phy::link_model_params lm;
      double tx_power = 0.0;
      ls >> pl.pl_d0_db >> pl.reference_distance_m >> pl.exponent >>
          pl.floor_attenuation_db >> pl.shadow_sigma_db >>
          pl.channel_fading_sigma_db >> lm.sensitivity_dbm >>
          lm.noise_floor_dbm >> lm.transition_width_db >> tx_power;
      WSAN_REQUIRE(static_cast<bool>(ls), "malformed params line" + where);
      WSAN_REQUIRE(std::isfinite(lm.transition_width_db) &&
                       lm.transition_width_db > 0.0,
                   "transition width must be finite and positive" + where);
      topo.set_path_loss(pl);
      topo.set_link_model(lm);
      topo.set_tx_power_dbm(tx_power);
    } else if (kind == "node") {
      node_id id = k_invalid_node;
      phy::position pos;
      ls >> id >> pos.x >> pos.y >> pos.floor;
      WSAN_REQUIRE(static_cast<bool>(ls), "malformed node line" + where);
      WSAN_REQUIRE(nodes.count(id) == 0, "duplicate node id" + where);
      nodes[id] = pos;
    } else if (kind == "rssi") {
      pending_rssi entry{};
      ls >> entry.u >> entry.v;
      for (double& value : entry.values) ls >> value;
      WSAN_REQUIRE(static_cast<bool>(ls), "malformed rssi line" + where);
      pending.push_back(entry);
    } else {
      WSAN_REQUIRE(false, "unknown record kind '" + kind + "'" + where);
    }
  }

  // Node ids must be dense and 0-based (they are written that way).
  std::vector<phy::position> positions;
  positions.reserve(nodes.size());
  for (const auto& [id, pos] : nodes) {
    WSAN_REQUIRE(id == static_cast<node_id>(positions.size()),
                 "node ids must be dense starting at 0");
    positions.push_back(pos);
  }
  topo.add_nodes(positions);
  for (const auto& entry : pending) {
    for (int c = 0; c < phy::k_max_channels; ++c)
      topo.set_rssi_dbm(entry.u, entry.v, phy::k_first_channel + c,
                        entry.values[c]);
  }
  return topo;
}

void save_topology_file(const topology& topo, const std::string& path) {
  std::ofstream os(path);
  WSAN_REQUIRE(os.good(), "cannot open file for writing: " + path);
  save_topology(topo, os);
}

topology load_topology_file(const std::string& path) {
  std::ifstream is(path);
  WSAN_REQUIRE(is.good(), "cannot open file for reading: " + path);
  return load_topology(is);
}

}  // namespace wsan::topo
