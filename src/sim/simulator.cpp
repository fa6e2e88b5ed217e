#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <set>

#include "common/batch_rng.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phy/channel.h"
#include "phy/sigmoid.h"
#include "tsch/hopping.h"

namespace wsan::sim {

namespace {

/// A transmission as laid out for fast slot iteration.
struct slot_entry {
  tsch::transmission tx;
  offset_t offset = k_invalid_offset;
  bool reuse_cell = false;  ///< scheduled cell holds >= 2 transmissions
  int so_mod = 0;  ///< (slot + offset) mod |channels|
};

/// Oracle-tier memo state for one (schedule link, channel-position)
/// coordinate. Packing the run-invariant base and the epoch-stamped
/// live signal and clean reception probability into one struct keeps a
/// hot-path query (and its miss path) on one cache line instead of
/// several parallel arrays.
struct coord_cache {
  double base = 0.0;  ///< measured RSSI + drift (run-invariant)
  double sig = 0.0;   ///< base + fade, valid when epoch matches
  double p0 = 0.0;    ///< clean PRR of sig, valid when epoch matches
  std::uint32_t epoch = 0;
  std::uint8_t base_ready = 0;
};

/// Per-run accumulation of one link's attempts/successes by slot kind.
struct link_run_counts {
  int reuse_attempts = 0;
  int reuse_successes = 0;
  int cf_attempts = 0;
  int cf_successes = 0;
  double loss_internal = 0.0;
  double loss_external = 0.0;
};

/// Flattens the schedule for slot-major iteration, validating every
/// transmission's indices up front: the inner loop indexes
/// progress[flow][instance], flows[flow].route[link_index], and the
/// per-node energy array with these values, so a malformed schedule must
/// fail loudly here instead of corrupting memory later.
std::vector<std::vector<slot_entry>> flatten_schedule(
    const tsch::schedule& sched, const std::vector<flow::flow>& flows,
    int num_nodes, int num_channels) {
  const slot_t hp = sched.num_slots();
  std::vector<std::vector<slot_entry>> by_slot(
      static_cast<std::size_t>(hp));
  for (slot_t s = 0; s < hp; ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto& cell = sched.cell(s, c);
      for (const auto& tx : cell) {
        WSAN_REQUIRE(tx.flow >= 0 &&
                         tx.flow < static_cast<flow_id>(flows.size()),
                     "schedule references an unknown flow");
        const auto& f = flows[static_cast<std::size_t>(tx.flow)];
        WSAN_REQUIRE(tx.instance >= 0 && tx.instance < f.instances_in(hp),
                     "schedule transmission has an out-of-range instance");
        WSAN_REQUIRE(tx.link_index >= 0 &&
                         tx.link_index <
                             static_cast<int>(f.route.size()),
                     "schedule transmission has an out-of-range route "
                     "link index");
        WSAN_REQUIRE(tx.sender >= 0 && tx.sender < num_nodes &&
                         tx.receiver >= 0 && tx.receiver < num_nodes,
                     "schedule transmission references a node outside "
                     "the topology");
        slot_entry entry{tx, c, cell.size() >= 2, 0};
        entry.so_mod = static_cast<int>((s + c) % num_channels);
        by_slot[static_cast<std::size_t>(s)].push_back(entry);
      }
    }
  }
  return by_slot;
}

// Seed chains for the derived-RNG kernels. Both tiers share these
// integer chains verbatim — the tiers differ only in the transform
// applied to the final 64-bit seed (xoshiro + libm Box-Muller for the
// oracle, the counter-based batched kernels for batched), so a
// coordinate's identity is tier-independent.

/// Run-level prefix of the fade chain: everything that does not depend
/// on the pair/channel, hoisted so the fast engine computes it once per
/// run. Returns (state, first mixed output).
struct fade_run_prefix {
  std::uint64_t state = 0;
  std::uint64_t z = 0;
};

inline fade_run_prefix fade_prefix(std::uint64_t seed, int run) {
  std::uint64_t st =
      seed ^ (k_splitmix64_increment + static_cast<std::uint64_t>(run));
  fade_run_prefix p;
  p.z = splitmix64(st);
  p.state = st;
  return p;
}

/// Tail of the fade chain: folds the unordered pair and channel into
/// the run prefix, yielding the coordinate's fade seed.
inline std::uint64_t fade_seed(const fade_run_prefix& prefix, node_id a,
                               node_id b, channel_t ch) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  std::uint64_t state = prefix.state ^ (prefix.z + (lo << 32 | hi));
  state ^= splitmix64(state) + static_cast<std::uint64_t>(ch);
  return splitmix64(state);
}

/// Pair-level state of the drift chain (intermittence classification
/// keys off this alone — intermittence is a property of the pair, not
/// of one channel).
inline std::uint64_t drift_pair_state(std::uint64_t seed, node_id a,
                                      node_id b) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  std::uint64_t pair_state = seed ^ 0xd51f7ULL;
  pair_state ^= splitmix64(pair_state) + (lo << 32 | hi);
  return pair_state;
}

/// Per-channel drift seed derived from the pair state.
inline std::uint64_t drift_chan_seed(std::uint64_t pair_state,
                                     channel_t ch) {
  std::uint64_t state = pair_state;
  state ^= splitmix64(state) + static_cast<std::uint64_t>(ch);
  return splitmix64(state);
}

/// Calibration drift through one tier's transforms: the shared seed
/// chain, then xoshiro + libm Box-Muller for the oracle
/// (compute_drift_db) or the counter-based element kernels for batched
/// (the element function of the engine's prefill_drift_batched batch).
/// Unmaintained pairs draw their intermittence class from a pair-level
/// stream, so it is the same on every channel.
template <fade_kernel_kind Tier>
double drift_db(const sim_config& config, bool maintained, node_id a,
                node_id b, channel_t ch) {
  constexpr bool batched = Tier == fade_kernel_kind::batched;
  const std::uint64_t pair_state = drift_pair_state(config.seed, a, b);
  // Used links are re-measured every health-report epoch; a link that
  // went intermittent would be rerouted, so in steady state the
  // maintained population only sees small drift.
  double sigma = config.maintained_drift_sigma_db;
  if (!maintained) {
    std::uint64_t s = pair_state;
    const std::uint64_t class_seed = splitmix64(s);
    const double u = batched ? batch_uniform01(class_seed)
                             : rng(class_seed).uniform01();
    sigma = u < config.intermittent_fraction
                ? config.intermittent_sigma_db
                : config.calibration_drift_sigma_db;
  }
  if (sigma <= 0.0) return 0.0;
  const std::uint64_t seed = drift_chan_seed(pair_state, ch);
  return batched ? sigma * batch_normal(seed)
                 : rng(seed).normal(0.0, sigma);
}

/// Stream index for the batched tier's derived per-run interferer
/// activity stream: derive_seed(config.seed, k_interferer_stream, run).
/// Any fixed value distinct from the point indexes the experiment
/// harness feeds derive_seed works; collisions would only correlate
/// streams, not break determinism.
inline constexpr std::uint64_t k_interferer_stream = 0x1f7eedULL;

/// Stream index for the batched tier's derived per-run probe stream
/// (channel picks and Bernoulli thresholds; same derivation pattern as
/// the interferer stream above).
inline constexpr std::uint64_t k_probe_stream = 0x9b0be5ULL;

/// dBm <-> mW conversion constants for the batched tier's poly SINR
/// path: pow(10, x/10) == exp(x * ln10/10) and 10*log10(m) ==
/// 10/ln10 * ln(m), routed through batch_detail's poly_exp/poly_log.
inline constexpr double k_ln10_over_10 = std::numbers::ln10 / 10.0;
inline constexpr double k_10_over_ln10 = 10.0 / std::numbers::ln10;

/// Shared tail of both engines: totals, per-flow PDR, obs counters.
void finalize_result(sim_result& result,
                     const std::vector<flow::flow>& flows,
                     const std::vector<long long>& released,
                     const std::vector<long long>& delivered,
                     const sim_config& config) {
  for (double mj : result.energy.per_node_mj)
    result.energy.total_mj += mj;

  result.flow_pdr.resize(flows.size());
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    result.flow_pdr[fi] =
        released[fi] == 0 ? 1.0
                          : static_cast<double>(delivered[fi]) /
                                static_cast<double>(released[fi]);
    result.instances_released += released[fi];
    result.instances_delivered += delivered[fi];
  }
  if (wsan::obs::enabled()) {
    wsan::obs::add_counter("sim.simulations");
    wsan::obs::add_counter("sim.runs",
                           static_cast<std::uint64_t>(config.runs));
    wsan::obs::add_counter(
        "sim.data_transmissions",
        static_cast<std::uint64_t>(result.energy.data_transmissions));
    wsan::obs::add_counter(
        "sim.idle_listens",
        static_cast<std::uint64_t>(result.energy.idle_listens));
    wsan::obs::add_counter(
        "sim.instances_released",
        static_cast<std::uint64_t>(result.instances_released));
    wsan::obs::add_counter(
        "sim.instances_delivered",
        static_cast<std::uint64_t>(result.instances_delivered));
  }
}

// ---------------------------------------------------------------------
// Oracle engine: the original implementation, kept verbatim as the
// reference the fast path is tested against (sim_equivalence_test).
// Every live_rssi call re-seeds derived splitmix64 RNGs and samples
// normals; accumulators are per-run std::map/std::set; every slot
// allocates its scratch vectors.

sim_result run_simulation_naive(const topo::topology& topo,
                                const tsch::schedule& sched,
                                const std::vector<flow::flow>& flows,
                                const std::vector<channel_t>& channels,
                                const sim_config& config) {
  const slot_t hp = sched.num_slots();

  const auto by_slot = flatten_schedule(sched, flows, topo.num_nodes(),
                                        static_cast<int>(channels.size()));

  // Distinct links appearing in the schedule: probed by neighbor
  // discovery and maintained (fresh statistics) by health reports.
  std::vector<link_key> schedule_links;
  std::set<std::pair<node_id, node_id>> maintained_pairs;
  {
    std::map<link_key, bool> seen;
    for (const auto& p : sched.placements()) {
      seen[link_key{p.tx.sender, p.tx.receiver}] = true;
      maintained_pairs.insert({std::min(p.tx.sender, p.tx.receiver),
                               std::max(p.tx.sender, p.tx.receiver)});
    }
    if (config.probes_per_run > 0)
      for (const auto& [key, unused] : seen) schedule_links.push_back(key);
  }

  phy::capture_params capture;
  capture.capture_threshold_db = config.capture_threshold_db;
  capture.transition_width_db = config.capture_transition_db;
  capture.link = topo.link_model();

  interference_field field(topo, config.interferers, config.seed ^ 0x5eedULL);
  rng gen(config.seed);
  fault_state faults(config.faults, topo.num_nodes());

  const auto drift_db = [&](node_id a, node_id b, channel_t ch) {
    const bool maintained =
        maintained_pairs.count({std::min(a, b), std::max(a, b)}) > 0;
    return compute_drift_db(config, maintained, a, b, ch);
  };

  // Effective RSSI at experiment time.
  const auto live_rssi = [&](int run, node_id sender, node_id receiver,
                             channel_t ch) {
    return topo.rssi_dbm(sender, receiver, ch) +
           drift_db(sender, receiver, ch) +
           compute_fade_db(config, run, sender, receiver, ch);
  };

  // Packet progress per (flow, instance): index of the next route link
  // awaiting delivery; -1 marks a dead instance (both attempts failed).
  std::vector<std::vector<int>> progress(flows.size());
  std::vector<long long> delivered(flows.size(), 0);
  std::vector<long long> released(flows.size(), 0);

  sim_result result;
  result.energy.per_node_mj.assign(
      static_cast<std::size_t>(topo.num_nodes()), 0.0);
  const auto& em = config.energy;
  auto& energy = result.energy;

  for (int run = 0; run < config.runs; ++run) {
    faults.begin_run(run);
    // Reset per-run packet state; every instance releases anew.
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      const int instances = flows[fi].instances_in(hp);
      progress[fi].assign(static_cast<std::size_t>(instances), 0);
      released[fi] += instances;
    }
    std::map<link_key, link_run_counts> run_counts;

    for (slot_t s = 0; s < hp; ++s) {
      const auto& entries = by_slot[static_cast<std::size_t>(s)];
      if (entries.empty()) continue;
      const tsch::asn_t asn =
          static_cast<tsch::asn_t>(run) * hp + s;

      // Which scheduled transmissions actually fire: the packet must be
      // waiting at the link's sender (primary failed -> retry fires;
      // primary succeeded -> retry slot stays silent).
      std::vector<const slot_entry*> active;
      std::vector<channel_t> active_channel;
      for (const auto& entry : entries) {
        const auto fi = static_cast<std::size_t>(entry.tx.flow);
        const int prog = progress[fi][static_cast<std::size_t>(
            entry.tx.instance)];
        // A crashed sender is silent; a crashed receiver's radio is off
        // (no guard window, no energy).
        const bool sender_crashed = faults.node_down(entry.tx.sender);
        if (prog != entry.tx.link_index || sender_crashed) {
          // Nothing on the air for this entry: the sender either knows
          // its queue is empty and sleeps, or is dead. An alive receiver
          // must still open its guard window.
          if (!faults.node_down(entry.tx.receiver)) {
            energy.per_node_mj[static_cast<std::size_t>(
                entry.tx.receiver)] += em.idle_listen_mj;
            ++energy.idle_listens;
          }
          continue;  // done, dead, past, or crashed
        }
        active.push_back(&entry);
        active_channel.push_back(
            tsch::physical_channel(asn, entry.offset, channels));
      }
      if (active.empty()) continue;

      std::vector<bool> interferers_active = field.sample_active(gen);
      if (run < config.interferer_start_run)
        interferers_active.assign(interferers_active.size(), false);

      // Evaluate receptions against the snapshot of concurrent activity.
      std::vector<bool> success(active.size(), false);
      for (std::size_t i = 0; i < active.size(); ++i) {
        const auto& tx = active[i]->tx;
        const channel_t ch = active_channel[i];
        const double signal = live_rssi(run, tx.sender, tx.receiver, ch);
        std::vector<double> internal;
        for (std::size_t j = 0; j < active.size(); ++j) {
          if (j == i || active_channel[j] != ch) continue;
          internal.push_back(
              live_rssi(run, active[j]->tx.sender, tx.receiver, ch));
        }
        std::vector<double> external;
        for (int k = 0; k < field.num_interferers(); ++k) {
          if (!interferers_active[static_cast<std::size_t>(k)]) continue;
          if (const auto power = field.power_at(k, tx.receiver, ch))
            external.push_back(*power);
        }
        std::vector<double> combined = internal;
        combined.insert(combined.end(), external.begin(), external.end());
        const double p =
            phy::reception_probability(capture, signal, combined);
        // A crashed receiver, failed link, or jammed slot loses the
        // packet regardless of the channel (the sender, not knowing,
        // transmits anyway and still interferes with concurrent
        // receptions). The Bernoulli draw is consumed either way so a
        // fault does not reshuffle the sample path of unrelated links
        // within the slot.
        const bool faulted_rx = faults.node_down(tx.receiver) ||
                                faults.link_down(tx.sender, tx.receiver) ||
                                faults.slot_jammed(s);
        success[i] = gen.bernoulli(p) && !faulted_rx;

        // Ground-truth attribution (counterfactual reception). Fault
        // losses are neither internal nor external interference.
        auto& counts =
            run_counts[link_key{tx.sender, tx.receiver}];
        if (!internal.empty() && !faulted_rx) {
          counts.loss_internal +=
              phy::reception_probability(capture, signal, external) - p;
        }
        if (!external.empty() && !faulted_rx) {
          counts.loss_external +=
              phy::reception_probability(capture, signal, internal) - p;
        }
      }

      // Apply outcomes: advance or (on a failed retry) kill the packet.
      for (std::size_t i = 0; i < active.size(); ++i) {
        const auto& entry = *active[i];
        const auto& tx = entry.tx;
        const auto fi = static_cast<std::size_t>(tx.flow);
        auto& prog =
            progress[fi][static_cast<std::size_t>(tx.instance)];

        auto& counts = run_counts[link_key{tx.sender, tx.receiver}];
        if (entry.reuse_cell) {
          ++counts.reuse_attempts;
          counts.reuse_successes += success[i] ? 1 : 0;
        } else {
          ++counts.cf_attempts;
          counts.cf_successes += success[i] ? 1 : 0;
        }

        // Energy: sender transmits and listens for the ACK; an alive
        // receiver listens for the packet and ACKs only what it decoded
        // (a crashed receiver's radio draws nothing).
        energy.per_node_mj[static_cast<std::size_t>(tx.sender)] +=
            em.tx_packet_mj + em.rx_ack_mj;
        if (!faults.node_down(tx.receiver)) {
          energy.per_node_mj[static_cast<std::size_t>(tx.receiver)] +=
              em.rx_packet_mj + (success[i] ? em.tx_ack_mj : 0.0);
        }
        ++energy.data_transmissions;

        if (success[i]) {
          ++prog;
          if (prog == static_cast<int>(flows[fi].route.size()))
            ++delivered[fi];
        }
        // A failed final attempt leaves prog at the link; later slots of
        // this instance reference higher link indexes and stay silent,
        // which is exactly the dedicated-slot semantics of source
        // routing. (The retry for this link, if still pending, fires.)
      }
    }

    // Neighbor-discovery probes: contention-free broadcasts that hop
    // across the channel list, exposed only to external interference.
    for (const auto& link : schedule_links) {
      if (faults.node_down(link.sender)) continue;  // dead nodes are mute
      const bool probe_faulted = faults.node_down(link.receiver) ||
                                 faults.link_down(link.sender,
                                                  link.receiver);
      auto& counts = run_counts[link];
      for (int probe = 0; probe < config.probes_per_run; ++probe) {
        const channel_t ch = channels[static_cast<std::size_t>(
            gen.uniform_int(0,
                            static_cast<std::int64_t>(channels.size()) -
                                1))];
        const double signal = live_rssi(run, link.sender, link.receiver, ch);
        std::vector<double> interference;
        std::vector<bool> probe_interferers = field.sample_active(gen);
        if (run < config.interferer_start_run)
          probe_interferers.assign(probe_interferers.size(), false);
        for (int k = 0; k < field.num_interferers(); ++k) {
          if (!probe_interferers[static_cast<std::size_t>(k)]) continue;
          if (const auto power = field.power_at(k, link.receiver, ch))
            interference.push_back(*power);
        }
        const double p =
            phy::reception_probability(capture, signal, interference);
        ++counts.cf_attempts;
        counts.cf_successes += (gen.bernoulli(p) && !probe_faulted) ? 1 : 0;
        energy.per_node_mj[static_cast<std::size_t>(link.sender)] +=
            em.tx_packet_mj;  // broadcast: no ACK
        if (!faults.node_down(link.receiver)) {
          energy.per_node_mj[static_cast<std::size_t>(link.receiver)] +=
              em.rx_packet_mj;
        }
        ++energy.data_transmissions;
        if (!interference.empty() && !probe_faulted) {
          counts.loss_external +=
              phy::reception_probability(capture, signal, {}) - p;
        }
      }
    }

    for (const auto& [key, counts] : run_counts) {
      if (counts.reuse_attempts == 0 && counts.cf_attempts == 0) continue;
      // Health reports are the sender's to deliver: a crashed or
      // suppressed sender's statistics never reach the manager.
      if (faults.reports_withheld(key.sender)) continue;
      auto& obs = result.links[key];
      if (counts.reuse_attempts > 0) {
        obs.reuse_samples.emplace_back(
            run, static_cast<double>(counts.reuse_successes) /
                     static_cast<double>(counts.reuse_attempts));
        obs.reuse_attempts += counts.reuse_attempts;
        obs.reuse_successes += counts.reuse_successes;
      }
      if (counts.cf_attempts > 0) {
        obs.cf_samples.emplace_back(
            run, static_cast<double>(counts.cf_successes) /
                     static_cast<double>(counts.cf_attempts));
        obs.cf_attempts += counts.cf_attempts;
        obs.cf_successes += counts.cf_successes;
      }
      obs.expected_loss_internal += counts.loss_internal;
      obs.expected_loss_external += counts.loss_external;
    }
  }

  finalize_result(result, flows, released, delivered, config);
  return result;
}

// ---------------------------------------------------------------------
// Fast engine (DESIGN.md §10): allocation-free in steady state and
// memoized. drift_db is pure per (unordered pair, channel) and
// temporal_fade_db pure per (run, unordered pair, channel), so both are
// cached in flat tables — replacing a splitmix64 re-seed plus a
// Box-Muller normal per live_rssi call (including the O(active²)
// internal-interference cross products) with an array read. Per-link
// statistics accumulate in dense arrays over links interned once at
// setup, and every per-slot scratch vector is hoisted into a reusable
// pre-reserved buffer. The caches only memoize values drawn from
// *derived* RNGs keyed by their coordinates; in the oracle tier every
// draw from the main `gen` stream (interferer activity, reception
// Bernoullis, probe channels) happens in exactly the naive order, so
// the sample path — and therefore every output — is bit-identical to
// the naive engine.
//
// The derived-RNG kernel tier is a template parameter: run_simulation
// picks the oracle or the batched instantiation once, so neither slot
// loop branches on the tier. The batched tier keeps the engine
// structure and the coordinate-keyed seed chains but swaps the scalar
// xoshiro + libm transforms for the vectorized counter-based kernels
// of common/batch_rng.h: dense (link, channel) signal and clean-PRR
// tables (refilled per run by batch_fade_fill with fading on, filled
// once at setup without), a drift-table setup batch
// (prefill_drift_batched), and derived per-run streams for interferer
// duty-cycle activity (refresh_interferer_rows) and probe draws.
// Outputs are then statistically — not bitwise — equivalent to the
// oracle, which the K-S gate in stats/equivalence.h enforces.

/// Compact per-transmission record for the fast engine's hyperperiod
/// scan. Everything the slot loop reads per entry, packed into 24
/// bytes: the progress index is precomputed (prog_offset_[flow] +
/// instance), and the narrow fields carry construction-time range
/// checks. slot_entry stays as the shared flattening type; the fast
/// engine re-packs it once at setup.
struct fast_entry {
  int prog_index;            ///< flat (flow, instance) progress slot
  flow_id flow;              ///< route_len_ / delivered index
  node_id sender;
  node_id receiver;
  int link;                  ///< dense link index
  std::int16_t link_index;   ///< hop position within the route
  std::uint8_t so_mod;       ///< (slot + offset) mod |channels|
  std::uint8_t reuse_cell;   ///< scheduled cell holds >= 2 transmissions
};

template <fade_kernel_kind Tier>
class fast_engine {
  static constexpr bool k_batched = Tier == fade_kernel_kind::batched;

 public:
  fast_engine(const topo::topology& topo, const tsch::schedule& sched,
              const std::vector<flow::flow>& flows,
              const std::vector<channel_t>& channels,
              const sim_config& config)
      : topo_(topo),
        flows_(flows),
        config_(config),
        n_(topo.num_nodes()),
        ncl_(static_cast<int>(channels.size())),
        hp_(sched.num_slots()),
        field_(topo, config.interferers, config.seed ^ 0x5eedULL),
        num_intf_(field_.num_interferers()),
        faults_(config.faults, topo.num_nodes()),
        faults_on_(faults_.any()) {
    capture_.capture_threshold_db = config.capture_threshold_db;
    capture_.transition_width_db = config.capture_transition_db;
    capture_.link = topo.link_model();

    auto by_slot = flatten_schedule(sched, flows, n_, ncl_);

    // Link interning: dense indices assigned in link_key order, so the
    // per-run flush below walks links exactly as the oracle's
    // std::map<link_key, ...> iteration does.
    std::map<link_key, int> interned;
    for (const auto& p : sched.placements())
      interned.emplace(link_key{p.tx.sender, p.tx.receiver}, 0);
    link_keys_.reserve(interned.size());
    for (auto& [key, index] : interned) {
      index = static_cast<int>(link_keys_.size());
      link_keys_.push_back(key);
    }
    // Per-flow instance layout: progress for all (flow, instance)
    // slots lives in one flat array reset with a single fill per run.
    // Computed before the entry array so each entry can carry its
    // precomputed progress index.
    prog_offset_.resize(flows.size() + 1);
    flow_instances_.resize(flows.size());
    route_len_.resize(flows.size());
    int prog_total = 0;
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      prog_offset_[fi] = prog_total;
      flow_instances_[fi] = flows[fi].instances_in(hp_);
      route_len_[fi] = static_cast<int>(flows[fi].route.size());
      prog_total += flow_instances_[fi];
    }
    prog_offset_[flows.size()] = prog_total;
    progress_.assign(static_cast<std::size_t>(prog_total), 0);

    // One contiguous compact entry array with per-slot ranges: the
    // per-run scan reads every entry once, so the flat sequence and
    // the halved row size (24 bytes vs ~48 for slot_entry) halve the
    // cache lines the scan streams per run.
    std::size_t max_entries = 0;
    slot_begin_.resize(static_cast<std::size_t>(hp_) + 1);
    for (slot_t s = 0; s < hp_; ++s) {
      const auto& entries = by_slot[static_cast<std::size_t>(s)];
      max_entries = std::max(max_entries, entries.size());
      slot_begin_[static_cast<std::size_t>(s)] =
          static_cast<int>(entries_.size());
      for (const auto& entry : entries) {
        WSAN_REQUIRE(entry.tx.link_index <=
                         std::numeric_limits<std::int16_t>::max(),
                     "route longer than the compact entry field");
        fast_entry fe;
        fe.prog_index =
            prog_offset_[static_cast<std::size_t>(entry.tx.flow)] +
            entry.tx.instance;
        fe.flow = entry.tx.flow;
        fe.sender = entry.tx.sender;
        fe.receiver = entry.tx.receiver;
        fe.link =
            interned.at(link_key{entry.tx.sender, entry.tx.receiver});
        fe.link_index = static_cast<std::int16_t>(entry.tx.link_index);
        fe.so_mod = static_cast<std::uint8_t>(entry.so_mod);
        fe.reuse_cell = entry.reuse_cell ? 1 : 0;
        entries_.push_back(fe);
      }
    }
    slot_begin_[static_cast<std::size_t>(hp_)] =
        static_cast<int>(entries_.size());

    // Maintained unordered pairs as a dense bitmap (drift asymmetry).
    maintained_.assign(
        static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), 0);
    for (const auto& key : link_keys_)
      maintained_[pair_offset(key.sender, key.receiver)] = 1;

    // Channel list positions -> physical channel value. All memo tables
    // are keyed by list position (0..|channels|-1) rather than the
    // 16-wide IEEE channel index: the list is what the hopping loop and
    // the probe draw actually index, and the narrow dimension keeps the
    // tables a few hundred KB instead of several MB. A channel value
    // that appears at two list positions just gets the same pure value
    // recomputed once per position.
    list_chan_.resize(static_cast<std::size_t>(ncl_));
    for (int i = 0; i < ncl_; ++i)
      list_chan_[static_cast<std::size_t>(i)] =
          channels[static_cast<std::size_t>(i)];

    // Drift memo, lazily filled per (unordered pair, channel). The
    // double array is left uninitialized on purpose — the ready bytes
    // gate every read — so construction does not touch megabytes of
    // memory it will never fully use.
    drift_zero_ = config.calibration_drift_sigma_db <= 0.0 &&
                  config.maintained_drift_sigma_db <= 0.0 &&
                  (config.intermittent_fraction <= 0.0 ||
                   config.intermittent_sigma_db <= 0.0);
    const std::size_t pair_channels = static_cast<std::size_t>(n_) *
                                      static_cast<std::size_t>(n_) *
                                      static_cast<std::size_t>(ncl_);
    if (!drift_zero_) {
      drift_.reset(new double[pair_channels]);
      drift_ready_.assign(pair_channels, 0);
    }
    fade_on_ = config.temporal_fading_sigma_db > 0.0;
    coord_count_ = link_keys_.size() * static_cast<std::size_t>(ncl_);
    // The zero-interference reception probability is
    // prr_from_rssi(link, signal). run_simulation validated both
    // transition widths, so the parameter checks and the sigmoid
    // constants are hoisted here and the per-coordinate work is just
    // the clamped sigmoid itself.
    p0_scale_ = capture_.link.transition_width_db / 4.0;
    p0_sens_ = capture_.link.sensitivity_dbm;

    // External interferers: overlap per (interferer, list position) and
    // received power per (interferer, node), so the hot loop reads two
    // arrays instead of calling power_at. Powers are stored in the unit
    // the tier's rx_prob sums: dBm for the oracle, milliwatts (through
    // the poly kernel) for batched.
    ext_overlap_.assign(static_cast<std::size_t>(num_intf_) *
                            static_cast<std::size_t>(ncl_),
                        0);
    ext_power_.assign(static_cast<std::size_t>(num_intf_) *
                          static_cast<std::size_t>(n_),
                      0.0);
    for (int k = 0; k < num_intf_; ++k) {
      for (int ci = 0; ci < ncl_; ++ci)
        ext_overlap_[static_cast<std::size_t>(k) *
                         static_cast<std::size_t>(ncl_) +
                     static_cast<std::size_t>(ci)] =
            phy::wifi_overlaps(field_.interferer(k).wifi_channel,
                               list_chan_[static_cast<std::size_t>(ci)])
                ? 1
                : 0;
      for (node_id v = 0; v < n_; ++v) {
        const double dbm = field_.received_dbm(k, v);
        ext_power_[static_cast<std::size_t>(k) *
                       static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(v)] =
            k_batched ? batch_detail::poly_exp(dbm * k_ln10_over_10) : dbm;
      }
    }

    // Probe records and interferer activity rows, sized so the
    // steady-state loops never allocate. One activity row per possible
    // sample point of a run: every slot of the hyperperiod plus every
    // probe (slots without active transmissions and muted links skip
    // theirs).
    const std::size_t max_probes =
        link_keys_.size() *
        static_cast<std::size_t>(std::max(config.probes_per_run, 0));
    probe_ci_.resize(max_probes);
    probe_u_.resize(max_probes);
    probe_row_.resize(max_probes);
    intf_active_.resize((static_cast<std::size_t>(hp_) + max_probes) *
                        static_cast<std::size_t>(num_intf_));

    // Scratch buffers, reserved once; the slot loop only clear()s them.
    active_.reserve(max_entries);
    active_chan_pos_.reserve(max_entries);
    active_chan_val_.reserve(max_entries);
    success_.reserve(max_entries);
    powers_.reserve(max_entries + static_cast<std::size_t>(num_intf_));
    counts_.assign(link_keys_.size(), link_run_counts{});
    obs_cache_.assign(link_keys_.size(), nullptr);

    if constexpr (k_batched) {
      setup_batched(max_probes);
    } else {
      // Directed memo state, keyed by (schedule link, channel
      // position): every hot-path query — reception signal, clean
      // reception probability, probe probability — is for a link the
      // schedule carries, so the cache is sized |links| * |channels|
      // (tens of KB, resident in L1/L2) instead of nodes^2 * |channels|.
      // With fading off entries stay valid for the whole simulation
      // (epoch 1); with fading on they are stamped per run.
      link_coords_.reset(new coord_cache[coord_count_]());
      miss_queue_.reserve(coord_count_);
      if (fade_on_) {
        class_log_.resize(static_cast<std::size_t>(ncl_));
        for (auto& log : class_log_) log.reserve(coord_count_);
        run_used_mark_.assign(coord_count_, 0);
        run_used_ids_.reserve(coord_count_);
      }
    }
  }

  sim_result run() {
    rng gen(config_.seed);
    delivered_.assign(flows_.size(), 0);
    released_.assign(flows_.size(), 0);
    result_.energy.per_node_mj.assign(static_cast<std::size_t>(n_), 0.0);

    for (int run = 0; run < config_.runs; ++run) {
      faults_.begin_run(run);
      std::fill(progress_.begin(), progress_.end(), 0);
      for (std::size_t fi = 0; fi < flows_.size(); ++fi)
        released_[fi] += flow_instances_[fi];
      std::fill(counts_.begin(), counts_.end(), link_run_counts{});
      // (run * hp + s + offset) mod |channels|, with the run component
      // folded out of the per-entry work.
      run_base_ = static_cast<int>(
          (static_cast<std::int64_t>(run) * hp_) % ncl_);
      epoch_ = fade_on_ ? static_cast<std::uint32_t>(run) + 1 : 1;
      intf_cursor_ = 0;
      if (fade_on_) {
        // Hoist the run-only prefix of compute_fade_db's seed chain:
        // the first splitmix64 step mutates the state by a constant and
        // mixes a value that depends only on the run, so both halves
        // can be computed once here and xor-combined with the pair key
        // per coordinate.
        fade_prefix_ = fade_prefix(config_.seed, run);
        refill_coords();
      }
      if constexpr (k_batched) {
        if (num_intf_ > 0) refresh_interferer_rows(run);
      }
      slot_loop(gen, run);
      if (config_.probes_per_run > 0) probe_loop(gen, run);
      flush_run(run);
    }

    finalize_result(result_, flows_, released_, delivered_, config_);
    if (wsan::obs::enabled()) {
      wsan::obs::add_counter("sim.active_transmissions",
                             obs_active_transmissions_);
      wsan::obs::add_counter("sim.internal_interference_pairs",
                             obs_internal_pairs_);
      wsan::obs::add_counter("sim.rssi_cache_hits", obs_cache_hits_);
      wsan::obs::add_counter("sim.fade_kernels", obs_fade_kernels_);
    }
    return std::move(result_);
  }

 private:
  /// Run-start fill of this run's fading coordinates. Batched: one
  /// fused vectorized batch_fade_fill over the whole dense table (fade
  /// chain, sigma scale, base add and clean-PRR sigmoid per coordinate,
  /// matching the element transforms exactly). Oracle: the coordinates
  /// the slot loop used in the previous run of this hopping class (the
  /// (slot, offset) -> channel mapping repeats with period |channels|,
  /// so the used set is a high-accuracy predictor); batching the fills
  /// lets the fade kernels' splitmix/log/cos chains pipeline across
  /// independent coordinates instead of paying each chain's serial
  /// latency on a lazy miss. Prefilled values are pure derived data: a
  /// retry coordinate that does not fire this run wastes a kernel but
  /// cannot perturb the main gen stream.
  void refill_coords() {
    if constexpr (k_batched) {
      batch_fade_fill(fade_prefix_.state, fade_prefix_.z, dense_pk_.data(),
                      dense_ch_.data(), dense_base_.data(), coord_count_,
                      config_.temporal_fading_sigma_db, p0_sens_,
                      p0_scale_, dense_sig_.data(), dense_p0_.data());
      obs_fade_kernels_ += coord_count_;
    } else {
      for (const int packed :
           class_log_[static_cast<std::size_t>(run_base_)]) {
        coord_cache& c = link_coords_[coord_index(packed)];
        if (c.epoch != epoch_) fill_coord(c, packed);
      }
    }
  }

  void slot_loop(rng& gen, int run) {
    OBS_SPAN("sim.slot_loop");
    const auto& em = config_.energy;
    auto& energy = result_.energy;
    for (slot_t s = 0; s < hp_; ++s) {
      const int eb = slot_begin_[static_cast<std::size_t>(s)];
      const int ee = slot_begin_[static_cast<std::size_t>(s) + 1];
      if (eb == ee) continue;

      active_.clear();
      active_chan_pos_.clear();
      active_chan_val_.clear();
      for (int e = eb; e < ee; ++e) {
        const auto& entry = entries_[static_cast<std::size_t>(e)];
        const int prog =
            progress_[static_cast<std::size_t>(entry.prog_index)];
        const bool sender_crashed =
            faults_on_ && faults_.node_down(entry.sender);
        if (prog != entry.link_index || sender_crashed) {
          if (!faults_on_ || !faults_.node_down(entry.receiver)) {
            energy.per_node_mj[static_cast<std::size_t>(entry.receiver)] +=
                em.idle_listen_mj;
            ++energy.idle_listens;
          }
          continue;  // done, dead, past, or crashed
        }
        active_.push_back(&entry);
        int ci = run_base_ + entry.so_mod;
        if (ci >= ncl_) ci -= ncl_;
        active_chan_pos_.push_back(ci);
        active_chan_val_.push_back(list_chan_[static_cast<std::size_t>(ci)]);
      }
      if (active_.empty()) continue;
      obs_active_transmissions_ += active_.size();

      // With no interferers the naive sample_active draws nothing, so
      // no activity row is taken.
      const char* row = num_intf_ > 0 ? next_activity_row(gen, run) : nullptr;

      success_.assign(active_.size(), 0);
      for (std::size_t i = 0; i < active_.size(); ++i) {
        const auto& tx = *active_[i];
        const int li = tx.link;
        const channel_t ch = active_chan_val_[i];
        const int ci = active_chan_pos_[i];
        // One scratch buffer, internal powers first then external:
        // sub-ranges feed the counterfactual reception probabilities
        // in exactly the oracle's vector order.
        powers_.clear();
        for (std::size_t j = 0; j < active_.size(); ++j) {
          if (j == i || active_chan_val_[j] != ch) continue;
          powers_.push_back(cross_power(active_[j]->sender, tx.receiver, ci));
        }
        const std::size_t internal_count = powers_.size();
        obs_internal_pairs_ += internal_count;
        add_external(row, ci, tx.receiver);
        const std::size_t external_count = powers_.size() - internal_count;
        // A crashed receiver, failed link, or jammed slot loses the
        // packet; the Bernoulli draw is consumed either way.
        const bool faulted = faults_on_ &&
                             (faults_.node_down(tx.receiver) ||
                              faults_.link_down(tx.sender, tx.receiver) ||
                              faults_.slot_jammed(s));
        // Interference-free receptions — the bulk of a contention-free
        // schedule — collapse to one cached probability; the signal is
        // only assembled when a counterfactual needs it.
        double p;
        if (powers_.empty()) {
          p = p0<true>(li, ci);
        } else {
          const double signal = link_signal<true>(li, ci);
          p = rx_prob(li, ci, signal, 0, powers_.size());
          auto& counts = counts_[static_cast<std::size_t>(li)];
          // Each counterfactual drops one source: the other sub-span
          // alone, or the cached p0 when that sub-span is empty.
          if (internal_count > 0 && !faulted) {
            counts.loss_internal +=
                (external_count > 0
                     ? rx_prob(li, ci, signal, internal_count, external_count)
                     : p0<true>(li, ci)) -
                p;
          }
          if (external_count > 0 && !faulted) {
            counts.loss_external +=
                (internal_count > 0
                     ? rx_prob(li, ci, signal, 0, internal_count)
                     : p0<true>(li, ci)) -
                p;
          }
        }
        success_[i] = (gen.bernoulli(p) && !faulted) ? 1 : 0;
      }

      for (std::size_t i = 0; i < active_.size(); ++i) {
        const auto& tx = *active_[i];
        const auto fi = static_cast<std::size_t>(tx.flow);
        auto& prog = progress_[static_cast<std::size_t>(tx.prog_index)];

        auto& counts = counts_[static_cast<std::size_t>(tx.link)];
        if (tx.reuse_cell) {
          ++counts.reuse_attempts;
          counts.reuse_successes += success_[i] ? 1 : 0;
        } else {
          ++counts.cf_attempts;
          counts.cf_successes += success_[i] ? 1 : 0;
        }

        energy.per_node_mj[static_cast<std::size_t>(tx.sender)] +=
            em.tx_packet_mj + em.rx_ack_mj;
        if (!faults_on_ || !faults_.node_down(tx.receiver)) {
          energy.per_node_mj[static_cast<std::size_t>(tx.receiver)] +=
              em.rx_packet_mj + (success_[i] ? em.tx_ack_mj : 0.0);
        }
        ++energy.data_transmissions;

        if (success_[i]) {
          ++prog;
          if (prog == route_len_[fi]) ++delivered_[fi];
        }
      }
    }

    if constexpr (!k_batched) {
      if (fade_on_) {
        // This run's used set becomes the next same-class run's
        // prefill list; the scratch bitmap is wiped by walking the
        // same list (never the full table).
        class_log_[static_cast<std::size_t>(run_base_)].assign(
            run_used_ids_.begin(), run_used_ids_.end());
        for (const int packed : run_used_ids_)
          run_used_mark_[coord_index(packed)] = 0;
        run_used_ids_.clear();
      }
    }
  }

  /// Neighbor-discovery probes: contention-free broadcasts that hop
  /// across the channel list, exposed only to external interference. A
  /// probe's main-stream draws — the rejection-loop channel pick, one
  /// duty-cycle draw per interferer, the Bernoulli uniform — never
  /// depend on its reception probability, so the loop runs in three
  /// phases: (1) record every probe's channel, interferer activity and
  /// threshold, in the naive draw order; (2) in the oracle tier, fill
  /// the coordinates those probes miss in one batch, whose independent
  /// fade kernels pipeline; (3) evaluate and account each probe from
  /// the warm table.
  void probe_loop(rng& gen, int run) {
    OBS_SPAN("sim.probe_loop");
    const auto per_link = static_cast<std::size_t>(config_.probes_per_run);
    // The batched tier without interferers takes channel picks and
    // thresholds from a derived per-run stream generated in one
    // vectorized uniform pass: the first |links| * probes values are the
    // channel uniforms, the second half the thresholds, indexed by
    // (link, probe) so muted links skip their entries without shifting
    // anyone else's. Channel picks map through floor(u * ncl) rather
    // than the oracle's rejection loop — both are uniform over the
    // list, which is all the statistical contract asks. With
    // interferers it draws from the main stream like the oracle, with
    // activity from its pre-generated rows.
    const bool derived = k_batched && num_intf_ == 0;
    const std::size_t np_total = link_keys_.size() * per_link;
    if (derived) {
      batch_uniform01s(derive_seed(config_.seed, k_probe_stream,
                                   static_cast<std::uint64_t>(run)),
                       2 * np_total, probe_uu_.data());
    }

    // The probe channel draw inlines rng::uniform_int(0, ncl-1): the
    // Lemire rejection threshold only depends on the range, so it is
    // computed once instead of per probe.
    const auto range = static_cast<std::uint64_t>(ncl_);
    const std::uint64_t threshold = (0 - range) % range;
    std::size_t np = 0;
    for (std::size_t li = 0; li < link_keys_.size(); ++li) {
      if (faults_on_ && faults_.node_down(link_keys_[li].sender))
        continue;  // dead nodes are mute
      for (std::size_t probe = 0; probe < per_link; ++probe, ++np) {
        int ci;
        const char* row = nullptr;
        if (derived) {
          const std::size_t k = li * per_link + probe;
          // u < 1 keeps u*ncl < ncl except for a possible round-to-even
          // at the very top of the range; clamp the (never-taken in
          // practice) overflow instead of trusting the rounding mode.
          ci = std::min(static_cast<int>(probe_uu_[k] * ncl_), ncl_ - 1);
          probe_u_[np] = probe_uu_[np_total + k];
        } else {
          // Identical rejection loop, identical draws.
          for (;;) {
            const std::uint64_t r = gen();
            if (r >= threshold) {
              ci = static_cast<int>(r % range);
              break;
            }
          }
          if (num_intf_ > 0) row = next_activity_row(gen, run);
          // The draw gen.bernoulli(p) would consume, recorded before p
          // is known.
          probe_u_[np] = gen.uniform01();
        }
        probe_ci_[np] = ci;
        probe_row_[np] = row;
        if constexpr (!k_batched) {
          const int packed = (static_cast<int>(li) << 8) | ci;
          coord_cache& c = link_coords_[coord_index(packed)];
          if (c.epoch != epoch_) {
            // Stamp now so duplicates queue once; the values land in
            // the fill pass below, before anything reads them.
            c.epoch = epoch_;
            miss_queue_.push_back(packed);
          }
        }
      }
    }
    if constexpr (!k_batched) {
      for (const int packed : miss_queue_)
        fill_coord(link_coords_[coord_index(packed)], packed);
      miss_queue_.clear();
    }

    const auto& em = config_.energy;
    auto& energy = result_.energy;
    np = 0;
    for (std::size_t li = 0; li < link_keys_.size(); ++li) {
      const auto& link = link_keys_[li];
      if (faults_on_ && faults_.node_down(link.sender)) continue;
      const bool probe_faulted =
          faults_on_ && (faults_.node_down(link.receiver) ||
                         faults_.link_down(link.sender, link.receiver));
      const bool rx_alive = !faults_on_ || !faults_.node_down(link.receiver);
      auto& counts = counts_[li];
      const int l = static_cast<int>(li);
      for (std::size_t probe = 0; probe < per_link; ++probe, ++np) {
        const int ci = probe_ci_[np];
        powers_.clear();
        add_external(probe_row_[np], ci, link.receiver);
        const double clean = p0(l, ci);
        const double p =
            powers_.empty()
                ? clean
                : rx_prob(l, ci, link_signal(l, ci), 0, powers_.size());
        // Same validation gen.bernoulli(p) performs before comparing
        // against its (here pre-recorded) uniform draw.
        WSAN_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli requires p in [0, 1]");
        ++counts.cf_attempts;
        counts.cf_successes += (probe_u_[np] < p && !probe_faulted) ? 1 : 0;
        energy.per_node_mj[static_cast<std::size_t>(link.sender)] +=
            em.tx_packet_mj;  // broadcast: no ACK
        if (rx_alive) {
          energy.per_node_mj[static_cast<std::size_t>(link.receiver)] +=
              em.rx_packet_mj;
        }
        ++energy.data_transmissions;
        if (!powers_.empty() && !probe_faulted)
          counts.loss_external += clean - p;
      }
    }
  }

  /// Flushes this run's accumulators, in link_key order (== the
  /// oracle's std::map iteration order).
  void flush_run(int run) {
    for (std::size_t li = 0; li < link_keys_.size(); ++li) {
      const auto& counts = counts_[li];
      if (counts.reuse_attempts == 0 && counts.cf_attempts == 0) continue;
      if (faults_.reports_withheld(link_keys_[li].sender)) continue;
      link_observations* obs = obs_cache_[li];
      if (obs == nullptr) {
        obs = &result_.links[link_keys_[li]];
        obs_cache_[li] = obs;
      }
      if (counts.reuse_attempts > 0) {
        obs->reuse_samples.emplace_back(
            run, static_cast<double>(counts.reuse_successes) /
                     static_cast<double>(counts.reuse_attempts));
        obs->reuse_attempts += counts.reuse_attempts;
        obs->reuse_successes += counts.reuse_successes;
      }
      if (counts.cf_attempts > 0) {
        obs->cf_samples.emplace_back(
            run, static_cast<double>(counts.cf_successes) /
                     static_cast<double>(counts.cf_attempts));
        obs->cf_attempts += counts.cf_attempts;
        obs->cf_successes += counts.cf_successes;
      }
      obs->expected_loss_internal += counts.loss_internal;
      obs->expected_loss_external += counts.loss_external;
    }
  }

  std::size_t pair_offset(node_id a, node_id b) const {
    const node_id lo = a < b ? a : b;
    const node_id hi = a < b ? b : a;
    return static_cast<std::size_t>(lo) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(hi);
  }

  double drift(node_id a, node_id b, int ci, channel_t ch) {
    if (drift_zero_) return 0.0;
    const std::size_t pair = pair_offset(a, b);
    const std::size_t idx = pair * static_cast<std::size_t>(ncl_) +
                            static_cast<std::size_t>(ci);
    if (drift_ready_[idx]) {
      ++obs_cache_hits_;
      return drift_[idx];
    }
    const bool maintained = maintained_[pair] != 0;
    drift_[idx] = drift_db<Tier>(config_, maintained, a, b, ch);
    drift_ready_[idx] = 1;
    return drift_[idx];
  }

  /// Temporal fade for the current run: compute_fade_db's seed chain
  /// with its run-only prefix hoisted into fade_prefix_ (see run()).
  /// Oracle tier: the derived rng's Box-Muller collapsed into the
  /// spare-free shared kernel rng::first_normal — bit-identical to
  /// `sigma * rng(seed).normal()`. Batched tier: the same seed through
  /// the counter-based batch_normal element transform, so a lazy miss
  /// produces exactly what the bulk fill would have.
  double fade(node_id a, node_id b, channel_t ch) {
    ++obs_fade_kernels_;
    const std::uint64_t seed = fade_seed(fade_prefix_, a, b, ch);
    return config_.temporal_fading_sigma_db *
           (k_batched ? batch_normal(seed) : rng::first_normal(seed));
  }

  /// Reception probability under interference over the sub-range
  /// [begin, begin + count) of the collected powers. Oracle:
  /// phy::reception_probability verbatim over dBm powers
  /// (bit-identity). Batched: the same standalone x capture-sigmoid
  /// product with every libm call eliminated — the standalone sigmoid
  /// is the dense p0, the SINR denominator sums milliwatt powers
  /// (interferer conversions are memoized at their source: ext_power_
  /// at setup, cross_ per run), and mw_to_dbm plus the capture sigmoid
  /// go through the branch-free poly_log / batch_sigmoid kernels.
  /// Within ~1e-13 relative of the oracle away from the sigmoid clamp
  /// rails, which the tier's statistical-equivalence gate absorbs.
  double rx_prob(int li, int ci, double signal, std::size_t begin,
                 std::size_t count) {
    if constexpr (k_batched) {
      double denom_mw = noise_mw_;
      for (std::size_t k = 0; k < count; ++k) denom_mw += powers_[begin + k];
      const double sinr =
          signal - batch_detail::poly_log(denom_mw) * k_10_over_ln10;
      return p0(li, ci) * batch_sigmoid((sinr - cap_thresh_) / cap_scale_);
    } else {
      (void)li;
      (void)ci;
      return phy::reception_probability(capture_, signal,
                                        powers_.data() + begin, count);
    }
  }

  /// Appends the power of every active interferer that overlaps list
  /// position ci, as heard at `receiver`, to powers_. `row` is the
  /// sample point's activity row (unread when there are no
  /// interferers).
  void add_external(const char* row, int ci, node_id receiver) {
    for (int k = 0; k < num_intf_; ++k) {
      if (!row[k]) continue;
      if (!ext_overlap_[static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(ncl_) +
                        static_cast<std::size_t>(ci)])
        continue;
      powers_.push_back(ext_power_[static_cast<std::size_t>(k) *
                                       static_cast<std::size_t>(n_) +
                                   static_cast<std::size_t>(receiver)]);
    }
  }

  /// Interferer activity of the run's next sample point (slots first,
  /// then probes), one row each. The oracle tier samples it from the
  /// main gen stream in naive order; the batched tier pre-generated the
  /// run's rows from a derived stream (refresh_interferer_rows).
  const char* next_activity_row(rng& gen, int run) {
    char* row = intf_active_.data() +
                intf_cursor_ * static_cast<std::size_t>(num_intf_);
    ++intf_cursor_;
    if constexpr (!k_batched) {
      field_.sample_active(gen, row);
      if (run < config_.interferer_start_run)
        std::fill(row, row + num_intf_, char{0});
    }
    return row;
  }

  /// Batched-tier interferer activity: the duty-cycle Bernoullis for a
  /// whole run are generated here in one vectorized uniform pass from
  /// a derived per-run stream — derive_seed(seed, interferer stream,
  /// run) — instead of draw-by-draw from the main gen stream. Row r is
  /// the activity handed out by the r-th sample point of the run, so
  /// the process keeps the oracle's structure: independent
  /// Bernoulli(duty_cycle) per interferer per sample point,
  /// deterministic per (config, run).
  void refresh_interferer_rows(int run) {
    if (run < config_.interferer_start_run) {
      std::fill(intf_active_.begin(), intf_active_.end(), char{0});
      return;
    }
    const std::size_t total = intf_u_.size();
    batch_uniform01s(derive_seed(config_.seed, k_interferer_stream,
                                 static_cast<std::uint64_t>(run)),
                     total, intf_u_.data());
    for (std::size_t i = 0; i < total; ++i) {
      intf_active_[i] =
          intf_u_[i] < intf_duty_[i % intf_duty_.size()] ? char{1} : char{0};
    }
  }

  /// Batched-tier setup: the poly SINR constants, the drift table, the
  /// dense (link, channel) tables, and the interferer row scratch.
  void setup_batched(std::size_t max_probes) {
    // The noise-floor term of the SINR denominator is run-invariant,
    // so it is converted once here.
    cap_thresh_ = capture_.capture_threshold_db;
    cap_scale_ = capture_.transition_width_db / 4.0;
    noise_mw_ = batch_detail::poly_exp(capture_.link.noise_floor_dbm *
                                       k_ln10_over_10);
    probe_uu_.resize(2 * max_probes);
    if (!drift_zero_) prefill_drift_batched();
    // Pair keys, channels and bases (rssi + drift) never change across
    // runs. With fading on, the run prefix enters inside
    // batch_fade_fill each run; with fading off the signal and clean
    // PRR are filled once here through the same scalar element
    // transforms.
    dense_base_.resize(coord_count_);
    dense_sig_.resize(coord_count_);
    dense_p0_.resize(coord_count_);
    if (fade_on_) {
      dense_pk_.resize(coord_count_);
      dense_ch_.resize(coord_count_);
    }
    for (std::size_t li = 0; li < link_keys_.size(); ++li) {
      const link_key& key = link_keys_[li];
      const auto lo = static_cast<std::uint64_t>(
          key.sender < key.receiver ? key.sender : key.receiver);
      const auto hi = static_cast<std::uint64_t>(
          key.sender < key.receiver ? key.receiver : key.sender);
      for (int ci = 0; ci < ncl_; ++ci) {
        const std::size_t id = li * static_cast<std::size_t>(ncl_) +
                               static_cast<std::size_t>(ci);
        const channel_t ch = list_chan_[static_cast<std::size_t>(ci)];
        dense_base_[id] = topo_.rssi_dbm(key.sender, key.receiver, ch) +
                          drift(key.sender, key.receiver, ci, ch);
        if (fade_on_) {
          dense_pk_[id] = lo << 32 | hi;
          dense_ch_[id] = static_cast<std::uint64_t>(ch);
        } else {
          dense_sig_[id] = dense_base_[id] + 0.0;
          dense_p0_[id] =
              batch_sigmoid((dense_sig_[id] - p0_sens_) / p0_scale_);
        }
      }
    }
    intf_u_.resize(intf_active_.size());
    for (int k = 0; k < num_intf_; ++k)
      intf_duty_.push_back(field_.interferer(k).duty_cycle);
  }

  /// Batched-tier setup pass: fills the drift table for every
  /// (schedule link, channel) coordinate with one vectorized normal
  /// batch over the drift seed chains. Link pairs are maintained by
  /// construction (the bitmap is built from the same link set), so the
  /// sigma is uniform and the intermittence draw does not apply; the
  /// quadratic non-link pairs that cross_power touches stay lazy and go
  /// through the batched element transform on miss, producing the same
  /// values this pass would (drift_db<batched> is the element function
  /// of this batch).
  void prefill_drift_batched() {
    const double sigma = config_.maintained_drift_sigma_db;
    std::vector<std::uint64_t> seeds;
    std::vector<std::size_t> idxs;
    seeds.reserve(coord_count_);
    idxs.reserve(coord_count_);
    for (const auto& key : link_keys_) {
      const std::size_t pair = pair_offset(key.sender, key.receiver);
      const std::uint64_t pair_state =
          drift_pair_state(config_.seed, key.sender, key.receiver);
      for (int ci = 0; ci < ncl_; ++ci) {
        const std::size_t idx = pair * static_cast<std::size_t>(ncl_) +
                                static_cast<std::size_t>(ci);
        if (drift_ready_[idx]) continue;  // both link directions share it
        drift_ready_[idx] = 1;
        if (sigma <= 0.0) {
          drift_[idx] = 0.0;  // the element function's early-out
          continue;
        }
        seeds.push_back(drift_chan_seed(
            pair_state, list_chan_[static_cast<std::size_t>(ci)]));
        idxs.push_back(idx);
      }
    }
    if (seeds.empty()) return;
    std::vector<double> vals(seeds.size());
    batch_normals(seeds.data(), seeds.size(), vals.data());
    for (std::size_t j = 0; j < idxs.size(); ++j)
      drift_[idxs[j]] = sigma * vals[j];
  }

  /// Oracle-tier coordinate index of a packed (li << 8) | ci id:
  /// channel positions fit 8 bits, so unpacking is shift/mask instead
  /// of division by a runtime ncl.
  std::size_t coord_index(int packed) const {
    return static_cast<std::size_t>(packed >> 8) *
               static_cast<std::size_t>(ncl_) +
           static_cast<std::size_t>(packed & 255);
  }

  /// Fills a coordinate's live signal and clean reception probability
  /// for the current epoch. The signal is the naive live_rssi sum
  /// (rssi + drift) + fade with the run-invariant left half cached, so
  /// a fade epoch rollover is one add plus the fade kernel; the PRR
  /// inlines phy::reception_probability's zero-interference path
  /// (prr_from_rssi) with the parameter checks and the sigmoid scale
  /// hoisted to setup. Fills of distinct coordinates are independent,
  /// so the prefill and probe batches pipeline the fade kernels'
  /// log/cos chains instead of paying their serial latency per miss.
  void fill_coord(coord_cache& c, int packed) {
    const link_key& key = link_keys_[static_cast<std::size_t>(packed >> 8)];
    const int ci = packed & 255;
    const channel_t ch = list_chan_[static_cast<std::size_t>(ci)];
    if (!c.base_ready) {
      c.base = topo_.rssi_dbm(key.sender, key.receiver, ch) +
               drift(key.sender, key.receiver, ci, ch);
      c.base_ready = 1;
    }
    c.sig = c.base + (fade_on_ ? fade(key.sender, key.receiver, ch) : 0.0);
    c.p0 = phy::clamped_sigmoid((c.sig - p0_sens_) / p0_scale_);
    c.epoch = epoch_;
  }

  /// Marks a (link, channel) coordinate as used by this run's slot
  /// loop (oracle tier, fading on). The per-run used set feeds the
  /// next same-class run's prefill; the set of coordinates that
  /// actually fire (primaries plus the retries whose primary failed) is
  /// far smaller than the union of all entry coordinates, so tracking
  /// last use keeps the prefill from wasting kernels on retries that
  /// rarely fire.
  void mark_used(int packed) {
    char& mark = run_used_mark_[coord_index(packed)];
    if (!mark) {
      mark = 1;
      run_used_ids_.push_back(packed);
    }
  }

  /// Oracle-tier memo entry of (link, channel position), filled for
  /// the current epoch. kLog tracks the coordinate in the per-run used
  /// set feeding the hopping-class prefill (slot-loop callers only;
  /// probe channels are uniform draws with no cross-run structure).
  template <bool kLog>
  const coord_cache& coord(int li, int ci) {
    const int packed = (li << 8) | ci;
    coord_cache& c = link_coords_[coord_index(packed)];
    if (kLog && fade_on_) mark_used(packed);
    if (c.epoch == epoch_) {
      ++obs_cache_hits_;
    } else {
      fill_coord(c, packed);
    }
    return c;
  }

  /// Effective RSSI at experiment time for a schedule link: same sum,
  /// same order as the naive live_rssi (base + drift + fade).
  template <bool kLog = false>
  double link_signal(int li, int ci) {
    if constexpr (k_batched) {
      return dense_sig_[static_cast<std::size_t>(li * ncl_ + ci)];
    } else {
      return coord<kLog>(li, ci).sig;
    }
  }

  /// Reception probability with zero concurrent interference — the
  /// common case on contention-free cells and probes. In the oracle
  /// tier bit-identical to phy::reception_probability(capture,
  /// live_rssi, {}) by construction (the empty-interference path of
  /// the same function); in the batched tier the batch_sigmoid image
  /// of the same signal.
  template <bool kLog = false>
  double p0(int li, int ci) {
    if constexpr (k_batched) {
      return dense_p0_[static_cast<std::size_t>(li * ncl_ + ci)];
    } else {
      return coord<kLog>(li, ci).p0;
    }
  }

  /// Interference power of a concurrent sender into another link's
  /// receiver (in-network interference cross product), in the unit the
  /// tier's rx_prob sums: dBm for the oracle, milliwatts for batched
  /// (converted once per (pair, position, run) here instead of per
  /// reception). These pairs are not schedule links, so the
  /// link-coordinate tables have no slot for them, but the value is
  /// still pure per (sender, receiver, position) within a run — the
  /// same collisions repeat every period of a hyperperiod, so an
  /// epoch-gated memo over the directed pair space turns all repeats
  /// into a table read (the first touch computes the identical naive
  /// sum, so bit-identity is unaffected). The table is allocated on
  /// first collision: contention-free schedules never pay the
  /// quadratic footprint.
  double cross_power(node_id sender, node_id receiver, int ci) {
    if (cross_epoch_.empty()) {
      const std::size_t cells = static_cast<std::size_t>(n_) *
                                static_cast<std::size_t>(n_) *
                                static_cast<std::size_t>(ncl_);
      // Uninitialized like drift_: the zeroed epoch words gate reads.
      cross_.reset(new double[cells]);
      cross_epoch_.assign(cells, 0);
    }
    const std::size_t idx =
        (static_cast<std::size_t>(sender) * static_cast<std::size_t>(n_) +
         static_cast<std::size_t>(receiver)) *
            static_cast<std::size_t>(ncl_) +
        static_cast<std::size_t>(ci);
    if (cross_epoch_[idx] == epoch_) {
      ++obs_cache_hits_;
      return cross_[idx];
    }
    const channel_t ch = list_chan_[static_cast<std::size_t>(ci)];
    const double sig = topo_.rssi_dbm(sender, receiver, ch) +
                       drift(sender, receiver, ci, ch) +
                       (fade_on_ ? fade(sender, receiver, ch) : 0.0);
    cross_[idx] =
        k_batched ? batch_detail::poly_exp(sig * k_ln10_over_10) : sig;
    cross_epoch_[idx] = epoch_;
    return cross_[idx];
  }

  const topo::topology& topo_;
  const std::vector<flow::flow>& flows_;
  const sim_config& config_;
  const int n_;
  const int ncl_;  ///< channel list length (== schedule offsets)
  const slot_t hp_;
  interference_field field_;
  const int num_intf_;
  fault_state faults_;
  const bool faults_on_;  ///< plan non-empty: gates the link_down calls
  phy::capture_params capture_;

  std::vector<fast_entry> entries_;  ///< all transmissions, slot-major
  std::vector<int> slot_begin_;  ///< slot -> [begin, end) into entries_
  std::vector<link_key> link_keys_;  ///< dense link index -> key, sorted
  std::vector<char> maintained_;     ///< unordered pair bitmap (lo*n+hi)
  std::vector<channel_t> list_chan_;  ///< list position -> channel value
  std::vector<int> prog_offset_;     ///< flow -> progress_ base index
  std::vector<int> flow_instances_;  ///< flow -> instances per hyperperiod
  std::vector<int> route_len_;       ///< flow -> route length
  std::vector<int> progress_;  ///< flat (flow, instance) hop progress

  bool drift_zero_ = false;
  bool fade_on_ = false;
  std::unique_ptr<double[]> drift_;  ///< (pair, position) -> drift dB
  std::vector<char> drift_ready_;
  // Cross-interference memo (directed pair, position), allocated on
  // first collision.
  std::unique_ptr<double[]> cross_;
  std::vector<std::uint32_t> cross_epoch_;
  double p0_scale_ = 1.0;  ///< link transition width / 4
  double p0_sens_ = 0.0;   ///< link sensitivity dBm
  fade_run_prefix fade_prefix_;  ///< per-run fade seed chain prefix
  std::uint32_t epoch_ = 1;  ///< current cache epoch (run+1 with fading)
  int run_base_ = 0;         ///< (run * hp) mod |channels|: hopping class
  std::size_t coord_count_ = 0;  ///< |links| * |channels|

  std::vector<char> ext_overlap_;  ///< (interferer, list position)
  std::vector<double> ext_power_;  ///< (interferer, node), tier unit
  std::vector<char> intf_active_;  ///< (sample row, interferer) activity
  std::size_t intf_cursor_ = 0;    ///< next unused activity row

  // Probe records (phase 1 output): channel position, Bernoulli
  // threshold, and interferer activity row per probe.
  std::vector<int> probe_ci_;
  std::vector<double> probe_u_;
  std::vector<const char*> probe_row_;

  // Reusable per-slot scratch (pre-reserved, cleared in place).
  std::vector<const fast_entry*> active_;
  std::vector<int> active_chan_pos_;  ///< active entry -> list position
  std::vector<channel_t> active_chan_val_;
  std::vector<char> success_;
  std::vector<double> powers_;  ///< interference powers, tier unit

  // Dense per-link accumulators and result-map pointer cache.
  std::vector<link_run_counts> counts_;
  std::vector<link_observations*> obs_cache_;
  sim_result result_;
  std::vector<long long> delivered_;
  std::vector<long long> released_;

  // Oracle-tier state: the (link, position) coordinate memo, the
  // per-hopping-class prefill logs (the coordinate working set of the
  // last run in each class, batch-filled at the start of the next run
  // of the same class), and the probe fill queue.
  std::unique_ptr<coord_cache[]> link_coords_;
  std::vector<std::vector<int>> class_log_;  ///< class -> packed ids
  std::vector<char> run_used_mark_;  ///< per-run coord usage bitmap
  std::vector<int> run_used_ids_;    ///< packed ids used this run
  std::vector<int> miss_queue_;      ///< probe coordinates to fill

  // Batched-tier state (DESIGN.md §10).
  double cap_thresh_ = 0.0;  ///< capture threshold dB
  double cap_scale_ = 1.0;   ///< capture transition width / 4
  double noise_mw_ = 0.0;    ///< poly_exp image of the noise floor, mW
  std::vector<double> probe_uu_;  ///< derived probe stream scratch
  std::vector<std::uint64_t> dense_pk_;  ///< pair key per coordinate
  std::vector<std::uint64_t> dense_ch_;  ///< channel per coordinate
  std::vector<double> dense_base_;  ///< rssi + drift per coordinate
  std::vector<double> dense_sig_;   ///< signal per coordinate
  std::vector<double> dense_p0_;    ///< clean PRR per coordinate
  std::vector<double> intf_u_;     ///< uniform scratch for the rows
  std::vector<double> intf_duty_;  ///< interferer -> duty cycle

  std::uint64_t obs_active_transmissions_ = 0;
  std::uint64_t obs_internal_pairs_ = 0;
  std::uint64_t obs_cache_hits_ = 0;
  std::uint64_t obs_fade_kernels_ = 0;
};

}  // namespace

/// Temporal fading: deterministic per (unordered pair, channel, run).
/// Fast multipath variation is frequency-selective, which is exactly
/// why TSCH hops channels: a retry on a different channel sees an
/// independent fade, so engineered links with retries ride through it,
/// while a single shared cell pinned to a faded channel does not.
double compute_fade_db(const sim_config& config, int run, node_id a,
                       node_id b, channel_t ch) {
  if (config.temporal_fading_sigma_db <= 0.0) return 0.0;
  rng pair_gen(fade_seed(fade_prefix(config.seed, run), a, b, ch));
  return pair_gen.normal(0.0, config.temporal_fading_sigma_db);
}

/// Calibration drift: static per (unordered pair, channel) offset
/// between the measured topology (which produced the schedule's graphs)
/// and the RF world the schedule actually runs in. `maintained` is
/// whether the pair carries scheduled traffic (re-measured every
/// health-report epoch).
double compute_drift_db(const sim_config& config, bool maintained,
                        node_id a, node_id b, channel_t ch) {
  return drift_db<fade_kernel_kind::oracle>(config, maintained, a, b, ch);
}

void validate_sim_config(const sim_config& config) {
  WSAN_REQUIRE(config.runs >= 1, "need at least one run");
  WSAN_REQUIRE(config.probes_per_run >= 0,
               "probe count must be non-negative");
  WSAN_REQUIRE(config.interferer_start_run >= 0,
               "interferer start run must be non-negative");
  const auto valid_sigma = [](double sigma) {
    return std::isfinite(sigma) && sigma >= 0.0;
  };
  WSAN_REQUIRE(valid_sigma(config.calibration_drift_sigma_db),
               "calibration drift sigma must be finite and non-negative");
  WSAN_REQUIRE(valid_sigma(config.maintained_drift_sigma_db),
               "maintained drift sigma must be finite and non-negative");
  WSAN_REQUIRE(valid_sigma(config.intermittent_sigma_db),
               "intermittent sigma must be finite and non-negative");
  WSAN_REQUIRE(valid_sigma(config.temporal_fading_sigma_db),
               "temporal fading sigma must be finite and non-negative");
  WSAN_REQUIRE(std::isfinite(config.intermittent_fraction) &&
                   config.intermittent_fraction >= 0.0 &&
                   config.intermittent_fraction <= 1.0,
               "intermittent fraction must be in [0, 1]");
  WSAN_REQUIRE(std::isfinite(config.capture_threshold_db),
               "capture threshold must be finite");
  WSAN_REQUIRE(std::isfinite(config.capture_transition_db) &&
                   config.capture_transition_db > 0.0,
               "capture transition width must be finite and positive");
  validate_fault_plan(config.faults);
}

sim_result run_simulation(const topo::topology& topo,
                          const tsch::schedule& sched,
                          const std::vector<flow::flow>& flows,
                          const std::vector<channel_t>& channels,
                          const sim_config& config) {
  OBS_SPAN("sim.run_simulation");
  WSAN_REQUIRE(!flows.empty(), "flow set must be non-empty");
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  WSAN_REQUIRE(static_cast<int>(channels.size()) == sched.num_offsets(),
               "channel list size must equal the schedule's offset count");
  validate_sim_config(config);
  WSAN_REQUIRE(topo.link_model().transition_width_db > 0.0,
               "link-model transition width must be positive");
  WSAN_REQUIRE(config.use_fast_path ||
                   config.fade_kernel == fade_kernel_kind::oracle,
               "the batched fade-kernel tier is a mode of the fast "
               "engine; the naive engine is the bit-identity oracle");

  if (!config.use_fast_path)
    return run_simulation_naive(topo, sched, flows, channels, config);
  if (config.fade_kernel == fade_kernel_kind::batched) {
    return fast_engine<fade_kernel_kind::batched>(topo, sched, flows,
                                                  channels, config)
        .run();
  }
  return fast_engine<fade_kernel_kind::oracle>(topo, sched, flows, channels,
                                               config)
      .run();
}

}  // namespace wsan::sim
