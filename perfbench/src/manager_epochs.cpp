// manager_epochs: an operator control loop on Indriya-80 with one WiFi
// interferer, built from public calls. A timed op is one control epoch:
//
//   1. route arrivals (flow::generate_flow_set on the graph without dead
//      nodes) and admit each through manager::network_manager::admit —
//      one full reschedule per request; departed flows leave the
//      operator's flow list before the op;
//   2. shed to fit with core::schedule_shedding under the current
//      isolations;
//   3. one health-report epoch of sim::run_simulation with few runs;
//   4. network_manager::maintain, then network_manager::recover.
//
// The environment runs on a fixed cycle: at the start of each cycle the
// operator clears isolations and the watchdog (crashed hardware was
// replaced) and deploys a fresh population of flows, shed to fit, and a
// little later one relay node crashes. Without the cycle, isolations
// and dead nodes pile up and a longer run would measure a different
// mix. With one population per cycle, a pass averages over many
// populations instead of following one for its whole length, whose
// routes made one seed's ops about 10% dearer than another's. Every
// admitted schedule is validated, and
// the first oracle-tier simulation of each distinct executed schedule in
// the first pass is compared with the naive engine, outside op time.
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/rescheduler.h"
#include "flow/flow_generator.h"
#include "graph/algorithms.h"
#include "manager/network_manager.h"
#include "sim/interference.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using namespace wsan;

constexpr int k_channels = 4;
constexpr int k_initial_flows = 30;
constexpr int k_max_flows = 40;
constexpr int k_arrivals_per_epoch = 2;
constexpr double k_departure_rate = 0.05;
constexpr int k_runs_per_epoch = 6;
constexpr std::uint64_t k_cycle_epochs = 12;
constexpr std::uint64_t k_crash_phase = 2;
/// Traced run only: every k_fixed_probe_every-th epoch also simulates
/// its schedule once with runs = 1 to estimate the per-call fixed cost.
constexpr std::uint64_t k_fixed_probe_every = 8;
/// 84 whole cycles.
constexpr std::uint64_t k_pass_ops = 84 * k_cycle_epochs;

// derive_seed streams of this workload.
constexpr std::uint64_t k_stream_initial = 1;
constexpr std::uint64_t k_stream_epoch = 3;
constexpr std::uint64_t k_stream_sim = 4;

enum class arrival { backpressure, unroutable, rejected, admitted };

/// An admitted schedule and the length of the flow prefix it covers.
struct admitted {
  std::size_t flows = 0;
  tsch::schedule sched;
};

void add_stats(run_context& ctx, const core::scheduler_stats& s) {
  ctx.count("core.placements", static_cast<double>(s.total_transmissions));
  ctx.count("core.reuse_activations",
            static_cast<double>(s.reuse_activations));
  ctx.count("core.probes.slots_scanned",
            static_cast<double>(s.probes.slots_scanned));
  ctx.count("core.probes.cells_probed",
            static_cast<double>(s.probes.cells_probed));
}

class manager_epochs final : public workload {
 public:
  explicit manager_epochs(std::uint64_t seed) : seed_(seed) {
    params_.num_flows = 1;
    params_.type = flow::traffic_type::peer_to_peer;
    params_.period_min_exp = -1;
    params_.period_max_exp = 1;
  }

  void setup(run_context& ctx) override {
    gen_name_ = ctx.tr.intern("flow.generate");
    admit_name_ = ctx.tr.intern("manager.admit");
    shed_name_ = ctx.tr.intern("core.schedule_shedding");
    remove_nodes_name_ = ctx.tr.intern("graph.remove_nodes");
    sim_name_ = ctx.tr.intern("sim.oracle.run_simulation");
    maintain_name_ = ctx.tr.intern("manager.maintain");
    recover_name_ = ctx.tr.intern("manager.recover");

    manager::manager_config config;
    config.num_channels = k_channels;
    config.scheduler = core::make_config(core::algorithm::rc, k_channels);
    auto topology = make_testbed(ctx, "indriya");
    // The manager derives the channel list, both graphs and the hop
    // matrix in its constructor.
    timed_call(ctx.tr, ctx.tr.intern("graph.build"), [&] {
      mgr_.emplace(std::move(topology), config);
    });
    access_points_ = flow::pick_access_points(mgr_->communication_graph(),
                                              params_.num_access_points);
    sim_.runs = k_runs_per_epoch;
    sim_.interferers.push_back(
        sim::one_interferer_per_floor(mgr_->topology(), 0.3, 8.0).front());
  }

  void run_op(run_context& ctx, std::uint64_t op) override {
    rng gen(derive_seed(seed_, k_stream_epoch, op));
    const std::uint64_t phase = op % k_cycle_epochs;
    // Ground truth and operator actions, outside op time.
    if (phase == 0) {
      down_.clear();
      mgr_->reset_isolations();
      mgr_->reset_watchdog();
      deploy(ctx, op / k_cycle_epochs);
    } else if (phase == k_crash_phase) {
      const auto relays = relay_nodes();
      if (!relays.empty()) down_.insert(gen.pick(relays));
    }
    // Departures only shorten the operator's own flow list.
    std::vector<char> departs(flows_.size(), 0);
    for (auto& d : departs) d = gen.bernoulli(k_departure_rate) ? 1 : 0;
    remove_departures(departs);

    std::vector<admitted> to_validate;
    std::vector<arrival> verdicts;
    core::shed_result shed;
    sim::sim_result result;
    sim::sim_config sc = epoch_sim_config(op);
    std::int64_t sim_ns = 0;

    ctx.begin_op();
    // 1. arrivals
    const graph::graph* routing = &mgr_->communication_graph();
    graph::graph pruned;
    if (!mgr_->dead_nodes().empty()) {
      timed_call(ctx.tr, remove_nodes_name_, [&] {
        pruned = graph::remove_nodes(*routing, mgr_->dead_nodes());
      });
      routing = &pruned;
    }
    for (int a = 0; a < k_arrivals_per_epoch; ++a) {
      if (static_cast<int>(flows_.size()) >= k_max_flows) {
        verdicts.push_back(arrival::backpressure);
        continue;
      }
      flow::flow_set fs;
      bool routed = true;
      timed_call(ctx.tr, gen_name_, [&] {
        try {
          fs = flow::generate_flow_set(*routing, params_, gen);
        } catch (const std::runtime_error&) {
          routed = false;
        }
      });
      if (!routed) {
        verdicts.push_back(arrival::unroutable);
        continue;
      }
      flows_.push_back(std::move(fs.flows.front()));
      flows_.back().id = static_cast<flow_id>(flows_.size() - 1);
      core::schedule_result res;
      const auto ns =
          timed_call(ctx.tr, admit_name_, [&] { res = mgr_->admit(flows_); });
      ctx.call_us["admit"].push_back(static_cast<double>(ns) / 1e3);
      add_stats(ctx, res.stats);
      if (res.schedulable) {
        verdicts.push_back(arrival::admitted);
        to_validate.push_back({flows_.size(), std::move(res.sched)});
      } else {
        verdicts.push_back(arrival::rejected);
        flows_.pop_back();
      }
    }
    // 2. shed to fit under the current isolations; flows_ keeps the
    // pre-shed set for the checks below.
    timed_call(ctx.tr, shed_name_, [&] {
      shed = core::schedule_shedding(flows_, mgr_->reuse_hops(),
                                     scheduler_config());
    });
    const auto& live = shed.kept;
    const auto& executed = shed.result.sched;
    const sim_inputs epoch{mgr_->topology(), executed, live,
                           mgr_->channels()};
    const bool have_traffic =
        !live.empty() && executed.num_transmissions() > 0;
    // 3. one health-report epoch
    if (have_traffic)
      sim_ns = timed_call(ctx.tr, sim_name_, [&] { result = epoch.run(sc); });
    // 4. maintain, then recover
    manager::network_manager::maintenance_outcome maintenance;
    manager::network_manager::recovery_outcome recovery;
    if (have_traffic) {
      timed_call(ctx.tr, maintain_name_, [&] {
        maintenance = mgr_->maintain(live, result.links);
      });
      mgr_->reset_flow_lineage();
      timed_call(ctx.tr, recover_name_, [&] {
        recovery = mgr_->recover(live, result.links);
      });
    }
    ctx.end_op();

    // Correctness checks, outside op time.
    for (const auto& a : to_validate)
      check_valid(ctx, a.sched,
                  {flows_.begin(),
                   flows_.begin() + static_cast<std::ptrdiff_t>(a.flows)});
    if (have_traffic) {
      check_valid(ctx, executed, live);
      check_naive(ctx, epoch, sc, result);
      if (result.flow_pdr.size() != live.size())
        ctx.fail("flow_pdr size differs from the flow count");
      if (ctx.tr.enabled() && op % k_fixed_probe_every == 0)
        probe_fixed_cost(ctx, epoch, sc, sim_ns);
    }
    flows_ = recovery.rescheduled ? std::move(recovery.surviving_flows)
                                  : live;

    // Counters (first pass only) and digest.
    for (const arrival v : verdicts) {
      if (v != arrival::rejected && v != arrival::admitted) continue;
      ctx.count("manager.admit.attempts", 1);
      ctx.count("manager.admit.accepted", v == arrival::admitted ? 1 : 0);
    }
    ctx.count("core.schedule_shedding.shed_flows",
              static_cast<double>(shed.shed.size()));
    if (maintenance.repaired) add_stats(ctx, maintenance.repaired->stats);
    if (recovery.repaired) add_stats(ctx, recovery.repaired->stats);
    ctx.count("manager.maintain.newly_isolated",
              static_cast<double>(maintenance.newly_isolated.size()));
    ctx.count("manager.recover.rerouted",
              static_cast<double>(recovery.rerouted_flows.size()));
    ctx.count("manager.recover.shed",
              static_cast<double>(recovery.shed_flows.size()));
    if (have_traffic) {
      ctx.count("sim.pdr_sum", result.network_pdr());
      ctx.count("sim.pdr_count", 1);
      ctx.totals["sim.ns"] += static_cast<double>(sim_ns);
      ctx.totals["sim.runs"] += sc.runs;
      ctx.totals["sim.slots"] +=
          static_cast<double>(executed.num_slots()) * sc.runs;
    }
    auto& dg = ctx.dg;
    for (const arrival v : verdicts) dg.feed(static_cast<std::uint64_t>(v));
    for (const flow_id id : shed.shed) dg.feed(static_cast<std::uint64_t>(id));
    dg.feed_placements(executed);
    for (const auto& [s, r] : mgr_->isolated_links()) {
      dg.feed(static_cast<std::uint64_t>(s));
      dg.feed(static_cast<std::uint64_t>(r));
    }
    for (const node_id n : mgr_->dead_nodes())
      dg.feed(static_cast<std::uint64_t>(n));
    for (const flow_id id : recovery.shed_flows)
      dg.feed(static_cast<std::uint64_t>(id));
    dg.feed(flows_.size());
    if (have_traffic) {
      dg.feed_double(result.network_pdr());
      for (const double p : result.flow_pdr) dg.feed_double(p);
    }
    ctx.finish_op();
  }

  void finish(run_context&) override {}

  std::uint64_t pass_ops() const override { return k_pass_ops; }

 private:
  core::scheduler_config scheduler_config() const {
    auto config = core::make_config(core::algorithm::rc, k_channels);
    config.isolated_links = mgr_->isolated_links();
    return config;
  }

  /// A fresh population of k_initial_flows flows, shed to fit.
  void deploy(run_context& ctx, std::uint64_t cycle) {
    rng gen(derive_seed(seed_, k_stream_initial, cycle));
    auto initial = params_;
    initial.num_flows = k_initial_flows;
    timed_call(ctx.tr, gen_name_, [&] {
      flows_ = mgr_->generate_workload(initial, gen).flows;
    });
    flows_ = core::schedule_shedding(flows_, mgr_->reuse_hops(),
                                     scheduler_config())
                 .kept;
  }

  sim::sim_config epoch_sim_config(std::uint64_t op) const {
    sim::sim_config sc = sim_;
    sc.seed = derive_seed(seed_, k_stream_sim, op);
    for (const node_id n : down_) sc.faults.crashes.push_back({n, 0, -1});
    return sc;
  }

  /// Nodes on current routes other than the access points.
  std::vector<node_id> relay_nodes() const {
    std::set<node_id> nodes;
    for (const auto& f : flows_)
      for (const auto& l : f.route) {
        nodes.insert(l.sender);
        nodes.insert(l.receiver);
      }
    for (const node_id ap : access_points_) nodes.erase(ap);
    return {nodes.begin(), nodes.end()};
  }

  void remove_departures(const std::vector<char>& departs) {
    std::vector<flow::flow> kept;
    kept.reserve(flows_.size());
    for (std::size_t i = 0; i < flows_.size(); ++i)
      if (!departs[i]) kept.push_back(std::move(flows_[i]));
    flows_ = std::move(kept);
    for (std::size_t i = 0; i < flows_.size(); ++i)
      flows_[i].id = static_cast<flow_id>(i);
  }

  void check_valid(run_context& ctx, const tsch::schedule& sched,
                   const std::vector<flow::flow>& flows) const {
    const std::string violation = check_schedule(
        sched, flows, mgr_->reuse_hops(), scheduler_config());
    if (!violation.empty())
      ctx.fail("admitted schedule invalid: " + violation);
  }

  /// The first oracle-tier run of each distinct schedule must equal the
  /// naive engine bit for bit. Later passes repeat the first one, which
  /// the pass digest checks.
  void check_naive(run_context& ctx, const sim_inputs& in,
                   const sim::sim_config& sc, const sim::sim_result& fast) {
    if (!ctx.first_pass()) return;
    digest key;
    key.feed_placements(in.sched);
    for (const auto& f : in.flows)
      key.feed(static_cast<std::uint64_t>(f.source));
    if (!checked_.insert(key.value()).second) return;
    if (!matches_naive_engine(in, sc, fast))
      ctx.fail("oracle tier differs from naive engine");
  }

  std::uint64_t seed_;
  flow::flow_set_params params_;
  std::optional<manager::network_manager> mgr_;
  std::vector<node_id> access_points_;
  sim::sim_config sim_;
  std::vector<flow::flow> flows_;
  std::set<node_id> down_;
  std::unordered_set<std::uint64_t> checked_;
  std::uint32_t gen_name_ = 0;
  std::uint32_t admit_name_ = 0;
  std::uint32_t shed_name_ = 0;
  std::uint32_t remove_nodes_name_ = 0;
  std::uint32_t sim_name_ = 0;
  std::uint32_t maintain_name_ = 0;
  std::uint32_t recover_name_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_manager_epochs(std::uint64_t seed) {
  return std::make_unique<manager_epochs>(seed);
}

}  // namespace perfbench
