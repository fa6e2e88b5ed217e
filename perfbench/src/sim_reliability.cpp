// sim_reliability: reliability evaluation of prebuilt RC schedules on
// both testbeds with WiFi interferers on, in the shape of Fig. 8.
//
// Set-up builds, per testbed, flow sets in the Fig. 8 shape
// (peer-to-peer, periods 2^-1..2^0 s, four channels) that RC schedules
// and NR does not, so RC must reuse channels. The flow count per testbed
// is fixed (30 on Indriya-80, 35 on WUSTL-60, where most generated sets
// need reuse), so every seed runs the same load. At Fig. 8's own load RC
// places no reuse at all and the detector would have no reuse links to
// classify. A timed op runs one
// schedule 100 times with sim::run_simulation, two ops on the oracle
// tier for each op on the batched tier, then classifies its links with
// detect::classify_links. The scheduler does no timed work here. Each
// prebuilt schedule is validated, and its first oracle-tier evaluation
// in the first pass is compared with the naive engine, outside op time.
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "detect/detector.h"
#include "flow/flow_generator.h"
#include "sim/interference.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using namespace wsan;

struct testbed_load {
  const char* name;
  int flows;
};
constexpr std::array<testbed_load, 2> k_testbeds = {
    {{"indriya", 30}, {"wustl", 35}}};
constexpr int k_channels = 4;
constexpr int k_sets_per_testbed = 8;
constexpr int k_max_attempts = 64;
constexpr int k_runs = 100;
/// Traced run only: every k_fixed_probe_every-th op also simulates its
/// schedule once with runs = 1 to estimate the per-call fixed cost.
constexpr std::uint64_t k_fixed_probe_every = 8;
/// Five rounds of the 3-op cycle over the 16 schedules.
constexpr std::uint64_t k_pass_ops = 240;

// derive_seed streams of this workload.
constexpr std::uint64_t k_stream_sets = 5;
constexpr std::uint64_t k_stream_sim = 6;

struct prebuilt {
  const testbed_env* env = nullptr;
  const std::vector<sim::external_interferer>* interferers = nullptr;
  std::vector<flow::flow> flows;
  tsch::schedule sched;
  bool naive_checked = false;
};

class sim_reliability final : public workload {
 public:
  explicit sim_reliability(std::uint64_t seed) : seed_(seed) {}

  void setup(run_context& ctx) override {
    oracle_name_ = ctx.tr.intern("sim.oracle.run_simulation");
    batched_name_ = ctx.tr.intern("sim.batched.run_simulation");
    classify_name_ = ctx.tr.intern("detect.classify_links");
    schedules_.clear();
    for (std::size_t tb = 0; tb < k_testbeds.size(); ++tb) {
      envs_[tb] = build_env(ctx, k_testbeds[tb].name, k_channels);
      interferers_[tb] =
          sim::one_interferer_per_floor(envs_[tb].topology, 0.3, 8.0);
      find_sets(ctx, tb);
    }
  }

  void run_op(run_context& ctx, std::uint64_t op) override {
    // Each schedule gets three consecutive ops: oracle, oracle, batched.
    // An even split would put op_p50_us on the boundary between the two
    // tiers' latency modes, where it swings with every small change.
    auto& s = schedules_[(op / 3) % schedules_.size()];
    const bool batched = op % 3 == 2;
    sim::sim_config sc;
    sc.runs = k_runs;
    sc.seed = derive_seed(seed_, k_stream_sim, op);
    sc.interferers = *s.interferers;
    sc.fade_kernel = batched ? sim::fade_kernel_kind::batched
                             : sim::fade_kernel_kind::oracle;
    const sim_inputs in{s.env->topology, s.sched, s.flows, s.env->channels};
    sim::sim_result result;
    std::vector<detect::link_report> reports;

    ctx.begin_op();
    const auto sim_ns =
        timed_call(ctx.tr, batched ? batched_name_ : oracle_name_,
                   [&] { result = in.run(sc); });
    timed_call(ctx.tr, classify_name_, [&] {
      reports = detect::classify_links(result.links, policy_);
    });
    ctx.end_op();

    if (result.flow_pdr.size() != s.flows.size())
      ctx.fail("flow_pdr size differs from the flow count");
    // Later passes repeat the first one, which the pass digest checks.
    if (!batched && !s.naive_checked && ctx.first_pass()) {
      s.naive_checked = true;
      if (!matches_naive_engine(in, sc, result))
        ctx.fail("oracle tier differs from naive engine");
    }
    if (ctx.tr.enabled() && op % k_fixed_probe_every == 0)
      probe_fixed_cost(ctx, in, sc, sim_ns);

    std::size_t degraded = 0;
    for (const auto& r : reports)
      if (r.verdict == detect::link_verdict::degraded_by_reuse) ++degraded;
    ctx.count("detect.classify_links.links",
              static_cast<double>(reports.size()));
    ctx.count("detect.classify_links.degraded",
              static_cast<double>(degraded));
    ctx.count("sim.pdr_sum", result.network_pdr());
    ctx.count("sim.pdr_count", 1);
    ctx.totals["sim.ns"] += static_cast<double>(sim_ns);
    ctx.totals["sim.runs"] += sc.runs;
    ctx.totals["sim.slots"] +=
        static_cast<double>(s.sched.num_slots()) * sc.runs;
    ctx.dg.feed_double(result.network_pdr());
    for (const double p : result.flow_pdr) ctx.dg.feed_double(p);
    for (const auto& r : reports) {
      ctx.dg.feed(static_cast<std::uint64_t>(r.link.sender));
      ctx.dg.feed(static_cast<std::uint64_t>(r.link.receiver));
      ctx.dg.feed(static_cast<std::uint64_t>(r.verdict));
    }
    ctx.finish_op();
  }

  void finish(run_context&) override {}

  std::uint64_t pass_ops() const override { return k_pass_ops; }

 private:
  /// Keeps the RC schedules of the first k_sets_per_testbed generated
  /// sets that RC schedules and NR does not, validated.
  void find_sets(run_context& ctx, std::size_t tb) {
    const auto& env = envs_[tb];
    const auto gen_name = ctx.tr.intern("flow.generate");
    flow::flow_set_params params;
    params.num_flows = k_testbeds[tb].flows;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = -1;
    params.period_max_exp = 0;
    const int num_channels = static_cast<int>(env.channels.size());
    const auto rc_config =
        core::make_config(core::algorithm::rc, num_channels);
    const auto nr_config =
        core::make_config(core::algorithm::nr, num_channels);
    int found = 0;
    for (int a = 0; a < k_max_attempts && found < k_sets_per_testbed; ++a) {
      rng gen(derive_seed(seed_, k_stream_sets,
                          tb * 1000 + static_cast<std::uint64_t>(a)));
      flow::flow_set fs;
      timed_call(ctx.tr, gen_name, [&] {
        fs = flow::generate_flow_set(env.comm, params, gen);
      });
      auto rc = core::schedule_flows(fs.flows, env.hops, rc_config);
      const bool needs_reuse =
          rc.schedulable &&
          !core::schedule_flows(fs.flows, env.hops, nr_config).schedulable;
      if (!needs_reuse) continue;
      if (!check_schedule(rc.sched, fs.flows, env.hops, rc_config).empty())
        ctx.fail_final("prebuilt RC schedule invalid");
      prebuilt p;
      p.env = &env;
      p.interferers = &interferers_[tb];
      p.flows = std::move(fs.flows);
      p.sched = std::move(rc.sched);
      schedules_.push_back(std::move(p));
      ++found;
    }
    if (found < k_sets_per_testbed)
      ctx.fail_final("too few sets that need reuse on " + env.name);
  }

  std::uint64_t seed_;
  detect::detection_policy policy_;
  // prebuilt entries point into envs_ and interferers_.
  std::array<testbed_env, 2> envs_;
  std::array<std::vector<sim::external_interferer>, 2> interferers_;
  std::vector<prebuilt> schedules_;
  std::uint32_t oracle_name_ = 0;
  std::uint32_t batched_name_ = 0;
  std::uint32_t classify_name_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_sim_reliability(std::uint64_t seed) {
  return std::make_unique<sim_reliability>(seed);
}

}  // namespace perfbench
