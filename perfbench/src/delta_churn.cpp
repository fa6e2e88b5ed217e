// delta_churn: incremental admission at capacity.
//
// Many tenant core::delta_schedulers on both testbeds, RC on three
// channels, multi-rate periods 2^-1..2^2 s. Each tenant is warmed up to
// capacity during set-up. A timed op is one churn request on a tenant
// picked uniformly: the departure of a uniformly chosen flow
// (evict_flow) followed by the arrival of a fresh one (admit_flow).
// Every op makes the same two calls, so op latency has one mode rather
// than one mode per call. Candidate flows are generated (and routed)
// before the op, outside op time.
//
// Evicts can leave a tenant unschedulable (greedy scheduling is not
// monotone) and rejected arrivals shrink it, so a tenant left alone
// drifts away from capacity and the op mix changes over a run. Each
// tenant therefore returns to its warm-up state every k_cycle_ops of its
// ops, outside op time, and a run measures the same mix from start to
// end. Before each return and at the end of each pass, the tenant is
// compared against a full core::schedule_flows rerun and
// tsch::validate_schedule, outside op time.
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/delta.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"

namespace perfbench {
namespace {

using namespace wsan;

constexpr int k_tenants_per_testbed = 8;
constexpr int k_channels = 3;
constexpr int k_max_flows = 60;
/// Consecutive rejections that end a tenant's warm-up below k_max_flows.
constexpr int k_warmup_rejections = 8;
/// Ops of a tenant between two returns to its warm-up state; each
/// return is preceded by an oracle checkpoint.
constexpr std::uint64_t k_cycle_ops = 16;
constexpr std::uint64_t k_pass_ops = 2000;

// derive_seed streams of this workload.
constexpr std::uint64_t k_stream_warmup = 1;
constexpr std::uint64_t k_stream_op = 2;

struct tenant {
  tenant(const testbed_env& e, const core::scheduler_config& config)
      : env(&e), delta(e.hops, config), warm(e.hops, config) {}

  const testbed_env* env;
  core::delta_scheduler delta;
  /// State at the end of warm-up.
  core::delta_scheduler warm;
  std::uint64_t ops = 0;
};

class delta_churn final : public workload {
 public:
  explicit delta_churn(std::uint64_t seed) : seed_(seed) {
    params_.num_flows = 1;
    params_.type = flow::traffic_type::peer_to_peer;
    params_.period_min_exp = -1;
    params_.period_max_exp = 2;
    config_ = core::make_config(core::algorithm::rc, k_channels);
  }

  void setup(run_context& ctx) override {
    gen_name_ = ctx.tr.intern("flow.generate");
    admit_name_ = ctx.tr.intern("core.delta.admit");
    evict_name_ = ctx.tr.intern("core.delta.evict");
    envs_[0] = build_env(ctx, "indriya", k_channels);
    envs_[1] = build_env(ctx, "wustl", k_channels);
    tenants_.clear();
    tenants_.reserve(2 * k_tenants_per_testbed);
    for (const auto& env : envs_)
      for (int i = 0; i < k_tenants_per_testbed; ++i)
        tenants_.emplace_back(env, config_);
    // Warm-up to capacity; counts in setup_s.
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      auto& ten = tenants_[t];
      rng gen(derive_seed(seed_, k_stream_warmup, t));
      int rejections = 0;
      while (static_cast<int>(ten.delta.size()) < k_max_flows &&
             rejections < k_warmup_rejections) {
        if (ten.delta.admit_flow(next_flow(ctx, *ten.env, gen)).admitted)
          rejections = 0;
        else
          ++rejections;
      }
      // A cycle evicts at most k_cycle_ops flows, so a tenant never
      // runs empty.
      if (ten.delta.size() <= k_cycle_ops)
        ctx.fail_final("tenant " + std::to_string(t) + " warmed up to only " +
                       std::to_string(ten.delta.size()) + " flows");
      ten.warm = ten.delta;
    }
  }

  void run_op(run_context& ctx, std::uint64_t op) override {
    rng gen(derive_seed(seed_, k_stream_op, op));
    const auto t = static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(tenants_.size()) - 1));
    auto& ten = tenants_[t];
    const auto victim = static_cast<flow_id>(gen.uniform_int(
        0, static_cast<std::int64_t>(ten.delta.size()) - 1));
    flow::flow f = next_flow(ctx, *ten.env, gen);
    core::delta_scheduler::evict_outcome evict;
    core::delta_scheduler::admit_outcome admit;

    ctx.begin_op();
    const auto evict_ns = timed_call(
        ctx.tr, evict_name_, [&] { evict = ten.delta.evict_flow(victim); });
    const auto admit_ns = timed_call(ctx.tr, admit_name_, [&] {
      admit = ten.delta.admit_flow(std::move(f));
    });
    ctx.end_op();

    ctx.call_us["evict"].push_back(static_cast<double>(evict_ns) / 1e3);
    ctx.call_us["admit"].push_back(static_cast<double>(admit_ns) / 1e3);
    if (!evict.evicted) ctx.fail("evict of an existing flow id refused");
    ctx.count("delta.ops", 2);
    ctx.count("delta.evicts", 1);
    ctx.count("delta.replayed", static_cast<double>(evict.rescheduled_flows));
    ctx.count("delta.admits", 1);
    ctx.count("delta.rejects", admit.admitted ? 0 : 1);
    ctx.count("delta.full_reschedules", (evict.full_reschedule ? 1 : 0) +
                                            (admit.full_reschedule ? 1 : 0));
    ctx.count("core.placements", static_cast<double>(admit.placed));
    ctx.dg.feed(t);
    ctx.dg.feed(static_cast<std::uint64_t>(victim));
    ctx.dg.feed(evict.freed);
    ctx.dg.feed(evict.rescheduled_flows);
    ctx.dg.feed(evict.full_reschedule ? 1 : 0);
    ctx.dg.feed(admit.admitted ? 1 : 0);
    ctx.dg.feed(admit.full_reschedule ? 1 : 0);
    ctx.dg.feed(admit.placed);
    if (++ten.ops % k_cycle_ops == 0) {
      const std::string error = check(ten);
      if (!error.empty())
        ctx.fail("tenant " + std::to_string(t) + ": " + error);
      ctx.dg.feed_placements(ten.delta.sched());
      ten.delta = ten.warm;
    }
    ctx.finish_op();
  }

  void finish(run_context& ctx) override {
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const std::string error = check(tenants_[t]);
      if (!error.empty())
        ctx.fail_final("tenant " + std::to_string(t) + ": " + error);
    }
  }

  std::uint64_t pass_ops() const override { return k_pass_ops; }

 private:
  flow::flow next_flow(run_context& ctx, const testbed_env& env, rng& gen) {
    flow::flow f;
    timed_call(ctx.tr, gen_name_, [&] {
      f = std::move(
          flow::generate_flow_set(env.comm, params_, gen).flows.front());
    });
    return f;
  }

  /// Compares a tenant with a full reschedule of its flow set and
  /// validates its schedule; returns an error message or "".
  std::string check(const tenant& ten) const {
    const auto& delta = ten.delta;
    if (delta.empty()) {
      // schedule_flows rejects an empty set: an empty tenant is
      // trivially schedulable with an empty schedule.
      if (!delta.schedulable() || !delta.sched().placements().empty())
        return "empty tenant is not trivially schedulable";
      return "";
    }
    const auto oracle =
        core::schedule_flows(delta.flows(), ten.env->hops, config_);
    if (oracle.schedulable != delta.schedulable())
      return "verdict differs from schedule_flows";
    if (!delta.schedulable()) return "";
    if (oracle.sched.placements() != delta.sched().placements())
      return "placements differ from schedule_flows";
    const std::string violation = check_schedule(
        delta.sched(), delta.flows(), ten.env->hops, config_);
    if (!violation.empty()) return "invalid schedule: " + violation;
    return "";
  }

  std::uint64_t seed_;
  flow::flow_set_params params_;
  core::scheduler_config config_;
  // Tenants point into envs_, so it never moves after set-up.
  std::array<testbed_env, 2> envs_;
  std::vector<tenant> tenants_;
  std::uint32_t gen_name_ = 0;
  std::uint32_t admit_name_ = 0;
  std::uint32_t evict_name_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_delta_churn(std::uint64_t seed) {
  return std::make_unique<delta_churn>(seed);
}

}  // namespace perfbench
