// Robustness "fuzz" tests: hostile or random inputs must produce clean
// std::invalid_argument / std::logic_error failures (or valid results),
// never crashes, hangs, or silent corruption.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "exp/json.h"
#include "flow/flow_io.h"
#include "graph/hop_matrix.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "stats/ks_test.h"
#include "stats/mann_whitney.h"
#include "stats/summary.h"
#include "topo/topology_io.h"
#include "tsch/schedule_io.h"
#include "tsch/validate.h"

namespace wsan {
namespace {

/// Random printable garbage, sometimes resembling real records.
std::string random_document(rng& gen) {
  static const char* fragments[] = {
      "schedule", "tx", "flowset", "flow", "accesspoint", "topology",
      "node", "rssi", "params", "-1", "0", "1", "999999999",
      "99999999999999999999", "nan", "inf", "-inf", "1e308", "#",
      "peer-to-peer", "centralized", "bogus", "\t", "  ",
      "faultplan", "crash", "linkfail", "suppress",
  };
  std::ostringstream os;
  const int lines = static_cast<int>(gen.uniform_int(0, 12));
  for (int l = 0; l < lines; ++l) {
    const int tokens = static_cast<int>(gen.uniform_int(0, 10));
    for (int t = 0; t < tokens; ++t) {
      os << fragments[gen.uniform_int(
                0, static_cast<std::int64_t>(std::size(fragments)) - 1)]
         << ' ';
    }
    os << '\n';
  }
  return os.str();
}

template <typename Loader>
void expect_clean_failure_or_success(Loader loader, int seed_base,
                                     int iterations) {
  for (int i = 0; i < iterations; ++i) {
    rng gen(static_cast<std::uint64_t>(seed_base + i));
    std::stringstream in(random_document(gen));
    try {
      loader(in);
    } catch (const std::invalid_argument&) {
      // expected for malformed input
    } catch (const std::logic_error&) {
      // acceptable: internal invariant caught the nonsense
    }
    // Anything else (segfault, uncaught bad_alloc, infinite loop) fails
    // the test by crashing or timing out.
  }
}

/// Two nodes with a perfect link on every channel, one flow over it,
/// and one scheduled transmission.
struct pair_world {
  topo::topology t{"pair"};
  std::vector<channel_t> channels = phy::channels(4);
  flow::flow f;
  tsch::schedule sched{10, 4};

  pair_world() {
    t.add_node({0.0, 0.0, 0});
    t.add_node({10.0, 0.0, 0});
    for (channel_t ch : channels) {
      t.set_prr(0, 1, ch, 1.0);
      t.set_prr(1, 0, ch, 1.0);
    }
    f.id = 0;
    f.source = 0;
    f.destination = 1;
    f.period = 10;
    f.deadline = 10;
    f.route = {flow::link{0, 1}};
    f.uplink_links = 1;
    tsch::transmission tx;
    tx.flow = 0;
    tx.instance = 0;
    tx.link_index = 0;
    tx.attempt = 0;
    tx.sender = 0;
    tx.receiver = 1;
    sched.add(tx, 0, 0);
  }

  sim::sim_result run(const sim::sim_config& config) const {
    return sim::run_simulation(t, sched, {f}, channels, config);
  }
};

TEST(Fuzz, ScheduleLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return tsch::load_schedule(is); }, 1000,
      300);
}

TEST(Fuzz, FlowSetLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return flow::load_flow_set(is); }, 2000,
      300);
}

TEST(Fuzz, TopologyLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return topo::load_topology(is); }, 3000,
      300);
}

TEST(Fuzz, TopologyLoaderRejectsNonPositiveTransitionWidth) {
  // A zero or negative link-model transition width would make every
  // reception throw mid-simulation; the loader refuses it up front,
  // naming the line.
  for (const char* width : {"0", "-2.5", "nan"}) {
    std::stringstream in(std::string("topology t\n"
                                     "params 40 1 3 15 4 2 -90 -98 ") +
                         width + " 0\nnode 0 0 0 0\n");
    try {
      topo::load_topology(in);
      ADD_FAILURE() << "width " << width << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // A topology built in code with such a width is refused by the
  // simulator before either engine runs.
  pair_world w;
  auto lm = w.t.link_model();
  for (const bool fast : {true, false}) {
    sim::sim_config config;
    config.runs = 2;
    config.use_fast_path = fast;
    lm.transition_width_db = 0.0;
    w.t.set_link_model(lm);
    EXPECT_THROW(w.run(config), std::invalid_argument);
    lm.transition_width_db = 5.0;
    w.t.set_link_model(lm);
    EXPECT_NO_THROW(w.run(config));
  }
}

TEST(Fuzz, JsonParserRejectsDeepNesting) {
  // 100,000 nested arrays used to overflow the stack; the parser now
  // stops at a fixed depth with a clean error.
  EXPECT_THROW(exp::json::parse(std::string(100000, '[')),
               std::invalid_argument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"k\":";
  EXPECT_THROW(exp::json::parse(objects), std::invalid_argument);
  // Shallow nesting still parses.
  const auto v = exp::json::parse(std::string(64, '[') +
                                  std::string(64, ']'));
  EXPECT_TRUE(v.is_array());
}

TEST(Fuzz, FaultPlanLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return sim::load_fault_plan(is); }, 4000,
      300);
}

TEST(Fuzz, FaultPlanRoundTripsRandomValidPlans) {
  for (int trial = 0; trial < 200; ++trial) {
    rng gen(static_cast<std::uint64_t>(5000 + trial));
    sim::fault_plan plan;
    const auto interval = [&](int& start, int& end) {
      start = static_cast<int>(gen.uniform_int(0, 100));
      end = gen.bernoulli(0.3)
                ? -1
                : start + 1 + static_cast<int>(gen.uniform_int(0, 50));
    };
    const int crashes = static_cast<int>(gen.uniform_int(0, 4));
    for (int i = 0; i < crashes; ++i) {
      sim::node_crash c;
      c.node = static_cast<node_id>(gen.uniform_int(0, 60));
      interval(c.start_run, c.restart_run);
      plan.crashes.push_back(c);
    }
    const int fails = static_cast<int>(gen.uniform_int(0, 4));
    for (int i = 0; i < fails; ++i) {
      sim::link_failure l;
      l.sender = static_cast<node_id>(gen.uniform_int(0, 60));
      l.receiver = static_cast<node_id>(gen.uniform_int(0, 60));
      if (l.sender == l.receiver) continue;
      interval(l.start_run, l.end_run);
      plan.link_failures.push_back(l);
    }
    const int mutes = static_cast<int>(gen.uniform_int(0, 4));
    for (int i = 0; i < mutes; ++i) {
      sim::report_suppression s;
      s.node = static_cast<node_id>(gen.uniform_int(0, 60));
      interval(s.start_run, s.end_run);
      plan.suppressions.push_back(s);
    }
    std::stringstream ss;
    sim::save_fault_plan(plan, ss);
    EXPECT_EQ(sim::load_fault_plan(ss), plan);
  }
}

TEST(Fuzz, AllNodesCrashedDeliversNothing) {
  // The harshest plan: every node dead from run 0. No packet is ever
  // delivered and nobody reports anything.
  pair_world w;
  sim::sim_config config;
  config.runs = 20;
  config.faults.crashes.push_back(sim::node_crash{0, 0, -1});
  config.faults.crashes.push_back(sim::node_crash{1, 0, -1});
  const auto result = w.run(config);
  EXPECT_EQ(result.instances_delivered, 0);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.0);
  EXPECT_TRUE(result.links.empty());
}

TEST(Fuzz, ValidatorSurvivesRandomSchedules) {
  // Random transmissions thrown into a schedule: the validator must
  // return violations, never crash.
  rng gen(4);
  graph::graph g(20);
  for (int e = 0; e < 30; ++e) {
    const auto u = static_cast<node_id>(gen.uniform_int(0, 19));
    const auto v = static_cast<node_id>(gen.uniform_int(0, 19));
    if (u != v) g.add_edge(u, v);
  }
  const graph::hop_matrix hops(g);

  flow::flow f;
  f.id = 0;
  f.source = 0;
  f.destination = 1;
  f.period = 50;
  f.deadline = 40;
  f.route = {flow::link{0, 1}};
  f.uplink_links = 1;

  for (int trial = 0; trial < 100; ++trial) {
    tsch::schedule sched(50, 3);
    const int placements = static_cast<int>(gen.uniform_int(0, 30));
    for (int p = 0; p < placements; ++p) {
      tsch::transmission tx;
      tx.flow = static_cast<flow_id>(gen.uniform_int(0, 2));
      tx.instance = static_cast<int>(gen.uniform_int(0, 3));
      tx.link_index = static_cast<int>(gen.uniform_int(0, 4));
      tx.attempt = static_cast<int>(gen.uniform_int(0, 2));
      tx.sender = static_cast<node_id>(gen.uniform_int(0, 19));
      tx.receiver = static_cast<node_id>(gen.uniform_int(0, 19));
      if (tx.sender == tx.receiver) continue;
      sched.add(tx, static_cast<slot_t>(gen.uniform_int(0, 49)),
                static_cast<offset_t>(gen.uniform_int(0, 2)));
    }
    const auto result = tsch::validate_schedule(sched, {f}, hops);
    // A random schedule essentially never satisfies the invariants;
    // what matters is a structured answer.
    EXPECT_EQ(result.ok, result.violations.empty());
  }
}

TEST(Fuzz, StatsSurviveDegenerateSamples) {
  rng gen(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int n1 = static_cast<int>(gen.uniform_int(1, 6));
    const int n2 = static_cast<int>(gen.uniform_int(1, 6));
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < n1; ++i)
      a.push_back(gen.bernoulli(0.5) ? 0.0 : 1.0);  // heavy ties
    for (int i = 0; i < n2; ++i)
      b.push_back(gen.bernoulli(0.5) ? 0.0 : 1.0);
    const auto ks = stats::ks_test(a, b);
    EXPECT_GE(ks.p_value, 0.0);
    EXPECT_LE(ks.p_value, 1.0);
    const auto mw = stats::mann_whitney_test(a, b);
    EXPECT_GE(mw.p_value, 0.0);
    EXPECT_LE(mw.p_value, 1.0);
    const auto box = stats::make_box_stats(a);
    EXPECT_LE(box.min, box.max);
  }
}

}  // namespace
}  // namespace wsan
