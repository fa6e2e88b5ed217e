// Equivalence oracle for incremental delta-scheduling and the fleet
// service built on it (the PR's acceptance test).
//
// core::delta_scheduler claims a canonical invariant: after any sequence
// of admit_flow/evict_flow calls, its (schedule, schedulable) state is
// bit-identical to a from-scratch core::schedule_flows run over its
// current flow set — same placements in the same insertion order, same
// verdict. This suite drives randomized admit/evict traces on both
// testbeds (Indriya-80, WUSTL-60) and checks the oracle after every
// single operation, plus the fleet-level determinism contract:
// run_churn is bit-identical at any --jobs value and replay_tenant
// reproduces exactly each tenant's slice of the full run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/delta.h"
#include "core/scheduler.h"
#include "fleet/fleet.h"
#include "flow/flow_generator.h"
#include "tsch/validate.h"

namespace wsan::fleet {
namespace {

fleet_config small_config(const std::string& testbed) {
  fleet_config config;
  config.testbed = testbed;
  config.num_channels = 4;
  config.tenants = 12;
  config.ops_per_tenant = 16;
  config.max_flows_per_tenant = 8;
  config.seed = 7;
  return config;
}

/// Asserts the canonical invariant: the delta scheduler's state equals a
/// full schedule_flows rerun over its current flow set, placement for
/// placement. Returns the oracle verdict for the caller's convenience.
bool expect_canonical(const core::delta_scheduler& delta,
                      const network_blueprint& blueprint,
                      const std::string& context) {
  if (delta.empty()) {
    EXPECT_TRUE(delta.schedulable()) << context;
    EXPECT_TRUE(delta.sched().placements().empty()) << context;
    return true;
  }
  const auto oracle = core::schedule_flows(
      delta.flows(), blueprint.reuse_hops, delta.config());
  EXPECT_EQ(delta.schedulable(), oracle.schedulable) << context;
  EXPECT_EQ(delta.first_failed(), oracle.first_failed_flow) << context;
  EXPECT_EQ(delta.sched().num_slots(), oracle.sched.num_slots()) << context;
  EXPECT_EQ(delta.sched().num_offsets(), oracle.sched.num_offsets())
      << context;
  EXPECT_EQ(delta.sched().placements(), oracle.sched.placements())
      << context << ": placements diverged from the schedule_flows oracle";
  return oracle.schedulable;
}

/// The admission verdict delta.h promises: schedule_flows over
/// flows()+f, computed on a copy before the delta state is mutated.
bool oracle_admits_flow(const core::delta_scheduler& delta,
                        const network_blueprint& blueprint, flow::flow f) {
  auto with_f = delta.flows();
  f.id = static_cast<flow_id>(with_f.size());
  with_f.push_back(std::move(f));
  return core::schedule_flows(with_f, blueprint.reuse_hops, delta.config())
      .schedulable;
}

/// Spot-checks the occupancy index against the ground-truth vectors:
/// every placement's endpoints are busy in its slot, and cell_load
/// matches cell_size.
void expect_index_consistent(const tsch::schedule& sched) {
  for (const auto& p : sched.placements()) {
    EXPECT_TRUE(sched.node_busy(p.tx.sender, p.slot));
    EXPECT_TRUE(sched.node_busy(p.tx.receiver, p.slot));
  }
  for (slot_t s = 0; s < sched.num_slots(); ++s)
    for (offset_t c = 0; c < sched.num_offsets(); ++c)
      EXPECT_EQ(sched.cell_load(s, c), sched.cell_size(s, c));
}

/// Drives one randomized admit/evict trace against the oracle.
void run_trace(const std::string& testbed, std::uint64_t seed, int ops) {
  auto config = small_config(testbed);
  config.seed = seed;
  const auto blueprint = make_blueprint(config);
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config);

  flow::flow_set_params params = config.flow_params;
  params.num_flows = 1;
  // Span three period octaves so admissions grow and evictions shrink
  // the hyperperiod — both full-reschedule fallbacks get exercised.
  params.period_min_exp = 0;
  params.period_max_exp = 2;

  rng gen(seed);
  int admissions = 0;
  int rejections = 0;
  int evictions = 0;
  int full_rebuilds = 0;
  for (int op = 0; op < ops; ++op) {
    const std::string context =
        testbed + " op " + std::to_string(op);
    const bool can_admit =
        delta.size() < static_cast<std::size_t>(config.max_flows_per_tenant);
    const bool can_evict = !delta.empty();
    const bool do_admit =
        can_admit && (!can_evict || gen.bernoulli(config.admit_bias));
    if (do_admit) {
      auto f = flow::generate_flow_set(blueprint.comm, params, gen)
                   .flows.front();
      const bool oracle_admits = oracle_admits_flow(delta, blueprint, f);
      const auto out = delta.admit_flow(f);
      EXPECT_EQ(out.admitted, oracle_admits)
          << context << ": admission verdict diverged";
      out.admitted ? ++admissions : ++rejections;
      if (out.full_reschedule) ++full_rebuilds;
    } else {
      const auto victim = static_cast<flow_id>(
          gen.uniform_int(0, static_cast<int>(delta.size()) - 1));
      const auto out = delta.evict_flow(victim);
      EXPECT_TRUE(out.evicted) << context;
      ++evictions;
      if (out.full_reschedule) ++full_rebuilds;
    }
    expect_canonical(delta, blueprint, context);
    expect_index_consistent(delta.sched());
    if (delta.schedulable() && !delta.empty()) {
      tsch::validation_options opts;
      opts.min_reuse_hops = blueprint.sched_config.rho_t;
      EXPECT_TRUE(tsch::validate_schedule(delta.sched(), delta.flows(),
                                          blueprint.reuse_hops, opts)
                      .ok)
          << context;
    }
  }
  // The trace must have exercised every path; otherwise it proves
  // nothing. (Deterministic given the seed — tune the seed, not these.)
  EXPECT_GT(admissions, 0) << testbed;
  EXPECT_GT(evictions, 0) << testbed;
  EXPECT_GT(full_rebuilds, 0) << testbed;
}

TEST(DeltaEquivalence, RandomTraceMatchesOracleOnIndriya) {
  run_trace("indriya", 7, 48);
}

TEST(DeltaEquivalence, RandomTraceMatchesOracleOnWustl) {
  run_trace("wustl", 9, 48);
}

/// Churn at capacity, the shape under which greedy repair leaves
/// tenants unschedulable: RC on three channels, periods 2^-1..2^2 s,
/// warm-up to about 60 flows, then evict-one/admit-one ops. Every op is
/// checked against schedule_flows, and the trace must reach each branch
/// of the in-place repair of an unschedulable base.
void run_churn_at_capacity(const std::string& testbed, std::uint64_t seed,
                           int ops) {
  fleet_config config;
  config.testbed = testbed;
  config.num_channels = 3;
  config.algo = core::algorithm::rc;
  const auto blueprint = make_blueprint(config);
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config);

  flow::flow_set_params params;
  params.num_flows = 1;
  params.period_min_exp = -1;
  params.period_max_exp = 2;
  rng gen(seed);
  const auto next_flow = [&] {
    return flow::generate_flow_set(blueprint.comm, params, gen)
        .flows.front();
  };

  for (int rejections = 0; delta.size() < 60 && rejections < 8;) {
    const auto f = next_flow();
    const bool oracle_admits = oracle_admits_flow(delta, blueprint, f);
    const auto out = delta.admit_flow(f);
    ASSERT_EQ(out.admitted, oracle_admits) << testbed << " warm-up";
    rejections = out.admitted ? 0 : rejections + 1;
  }
  expect_canonical(delta, blueprint, testbed + " warm-up");
  ASSERT_GT(delta.size(), 40u) << testbed;
  // Rejected arrivals shrink a tenant, so return to the warm-up state
  // every 16 ops to stay near capacity.
  const core::delta_scheduler warm = delta;

  int unschedulable_bases = 0;
  int quick_rejections = 0;
  int evicts_after_failed = 0;
  int evicts_at_or_before_failed = 0;
  for (int op = 0; op < ops; ++op) {
    const std::string context = testbed + " op " + std::to_string(op);
    const auto victim = static_cast<flow_id>(
        gen.uniform_int(0, static_cast<int>(delta.size()) - 1));
    const flow_id failed = delta.first_failed();
    const slot_t hp = delta.sched().num_slots();
    // The branch boundary, on copies: evict the failed flow itself (it
    // must be replayed) and the flow right after it (only renumbered).
    for (const flow_id edge : {failed, failed + 1}) {
      if (failed == k_invalid_flow ||
          static_cast<std::size_t>(edge) >= delta.size())
        continue;
      auto copy = delta;
      ASSERT_TRUE(copy.evict_flow(edge).evicted) << context;
      expect_canonical(copy, blueprint,
                       context + " evict of flow " + std::to_string(edge));
    }
    const auto evict = delta.evict_flow(victim);
    ASSERT_TRUE(evict.evicted) << context;
    if (failed != k_invalid_flow && victim > failed) {
      // Flows after the failed one hold no placements: only renumbering.
      ++evicts_after_failed;
      if (!evict.full_reschedule) {
        EXPECT_EQ(evict.freed, 0u) << context;
        EXPECT_EQ(evict.rescheduled_flows, 0u) << context;
      }
    } else if (failed != k_invalid_flow) {
      ++evicts_at_or_before_failed;
    }
    EXPECT_EQ(evict.full_reschedule,
              flow::hyperperiod(delta.flows()) != hp)
        << context << ": evict rerun without a hyperperiod change";
    expect_canonical(delta, blueprint, context + " evict");
    expect_index_consistent(delta.sched());

    const auto f = next_flow();
    const bool oracle_admits = oracle_admits_flow(delta, blueprint, f);
    const bool base_schedulable = delta.schedulable();
    const slot_t base_hp = delta.sched().num_slots();
    const auto admit = delta.admit_flow(f);
    EXPECT_EQ(admit.admitted, oracle_admits)
        << context << ": admission verdict diverged";
    EXPECT_EQ(admit.full_reschedule, std::lcm(base_hp, f.period) != base_hp)
        << context << ": admit rerun without a hyperperiod change";
    if (!base_schedulable) {
      ++unschedulable_bases;
      if (!admit.full_reschedule) {
        EXPECT_FALSE(admit.admitted) << context;
        ++quick_rejections;
      }
    }
    expect_canonical(delta, blueprint, context + " admit");
    expect_index_consistent(delta.sched());
    if (op % 16 == 15) delta = warm;
  }
  // Deterministic given the seed — tune the seed, not these.
  EXPECT_GT(unschedulable_bases, 0) << testbed;
  EXPECT_GT(quick_rejections, 0) << testbed;
  EXPECT_GT(evicts_after_failed, 0) << testbed;
  EXPECT_GT(evicts_at_or_before_failed, 0) << testbed;
}

TEST(DeltaEquivalence, ChurnAtCapacityMatchesOracleOnIndriya) {
  run_churn_at_capacity("indriya", 3, 120);
}

TEST(DeltaEquivalence, ChurnAtCapacityMatchesOracleOnWustl) {
  run_churn_at_capacity("wustl", 3, 120);
}

TEST(DeltaEquivalence, AdmissionRejectionRollsBackExactly) {
  // Starve the grid (1 channel, rho high) so an admission fails, then
  // check the rollback left the state canonical and the rejection
  // verdict equals the oracle's.
  auto config = small_config("wustl");
  config.num_channels = 1;
  config.rho_t = 4;
  config.max_flows_per_tenant = 64;
  const auto blueprint = make_blueprint(config);
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config);

  flow::flow_set_params params;
  params.num_flows = 1;
  params.period_min_exp = 0;
  params.period_max_exp = 0;

  rng gen(3);
  bool saw_rejection = false;
  for (int op = 0; op < 64 && !saw_rejection; ++op) {
    const auto f =
        flow::generate_flow_set(blueprint.comm, params, gen).flows.front();
    const auto before = delta.sched().placements();
    const auto size_before = delta.size();
    const auto out = delta.admit_flow(f);
    if (!out.admitted) {
      saw_rejection = true;
      // State untouched: same flows, same placements.
      EXPECT_EQ(delta.size(), size_before);
      EXPECT_EQ(delta.sched().placements(), before);
      expect_canonical(delta, blueprint, "after rejection");
      expect_index_consistent(delta.sched());
    }
  }
  ASSERT_TRUE(saw_rejection)
      << "the starved configuration never rejected an admission";
}

TEST(DeltaEquivalence, EvictToEmptyAndReadmit) {
  const auto config = small_config("indriya");
  const auto blueprint = make_blueprint(config);
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config);

  flow::flow_set_params params;
  params.num_flows = 1;
  rng gen(5);
  for (int i = 0; i < 3; ++i) {
    const auto f =
        flow::generate_flow_set(blueprint.comm, params, gen).flows.front();
    ASSERT_TRUE(delta.admit_flow(f).admitted);
  }
  // Evicting an unknown id is a no-op with evicted == false.
  EXPECT_FALSE(delta.evict_flow(99).evicted);
  EXPECT_EQ(delta.size(), 3u);

  while (!delta.empty()) {
    ASSERT_TRUE(delta.evict_flow(0).evicted);
    expect_canonical(delta, blueprint, "drain");
  }
  EXPECT_TRUE(delta.schedulable());
  EXPECT_EQ(delta.sched().num_transmissions(), 0u);

  const auto f =
      flow::generate_flow_set(blueprint.comm, params, gen).flows.front();
  const auto out = delta.admit_flow(f);
  EXPECT_TRUE(out.admitted);
  EXPECT_EQ(out.id, 0);
  expect_canonical(delta, blueprint, "readmit after drain");
}

// --------------------------------------------------- fleet determinism --

TEST(FleetDeterminism, RunChurnIsBitIdenticalAcrossJobCounts) {
  for (const std::string testbed : {"indriya", "wustl"}) {
    const fleet_manager fleet(small_config(testbed));
    const auto serial = fleet.run_churn(1);
    const auto two = fleet.run_churn(2);
    const auto eight = fleet.run_churn(8);
    EXPECT_TRUE(serial == two) << testbed << ": jobs 1 vs 2 diverged";
    EXPECT_TRUE(serial == eight) << testbed << ": jobs 1 vs 8 diverged";
    EXPECT_EQ(serial.tenants, 12);
    EXPECT_EQ(serial.totals.ops, 12 * 16);
    EXPECT_GT(serial.totals.admissions, 0) << testbed;
    EXPECT_GT(serial.totals.evictions, 0) << testbed;
    // Every admission attempt was timed, on every worker count.
    EXPECT_EQ(serial.admit_latency_ns.size(),
              static_cast<std::size_t>(serial.totals.admissions +
                                       serial.totals.rejections));
    EXPECT_EQ(eight.admit_latency_ns.size(), serial.admit_latency_ns.size());
  }
}

TEST(FleetDeterminism, ReplayTenantReproducesItsSliceOfTheFleet) {
  const fleet_manager fleet(small_config("indriya"));
  const auto full = fleet.run_churn(4);

  // Replaying every tenant in isolation and re-merging must rebuild the
  // fleet's deterministic result exactly: same op totals, same summed
  // state digest.
  tenant_stats merged;
  std::uint64_t digest = 0;
  std::int64_t schedulable = 0;
  std::int64_t final_flows = 0;
  const auto n = static_cast<std::uint64_t>(fleet.config().tenants);
  for (std::uint64_t id = 0; id < n; ++id) {
    tenant_stats stats;
    const auto t = fleet.replay_tenant(id, &stats);
    merged += stats;
    digest += tenant_state_digest(id, t.delta());
    schedulable += t.delta().schedulable() ? 1 : 0;
    final_flows += static_cast<std::int64_t>(t.delta().size());
  }
  EXPECT_EQ(merged, full.totals);
  EXPECT_EQ(digest, full.state_digest);
  EXPECT_EQ(schedulable, full.schedulable_tenants);
  EXPECT_EQ(final_flows, full.final_flows);

  EXPECT_THROW(fleet.replay_tenant(n), std::invalid_argument);
}

TEST(FleetDeterminism, SeedChangesTheFleetFingerprint) {
  auto config = small_config("wustl");
  const fleet_manager a(config);
  config.seed = config.seed + 1;
  const fleet_manager b(config);
  EXPECT_NE(a.run_churn(2).state_digest, b.run_churn(2).state_digest);
}

TEST(FleetConfig, RejectsInvalidConfigs) {
  auto bad = small_config("indriya");
  bad.tenants = 0;
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
  bad = small_config("nowhere");
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
  bad = small_config("wustl");
  bad.admit_bias = 1.5;
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
  bad = small_config("wustl");
  bad.max_flows_per_tenant = 0;
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace wsan::fleet
