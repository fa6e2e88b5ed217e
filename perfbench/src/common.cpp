#include "common.h"

#include <cstring>
#include <iostream>
#include <stdexcept>

#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"
#include "phy/channel.h"
#include "topo/testbeds.h"
#include "tsch/validate.h"

namespace perfbench {

void digest::feed_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  feed(bits);
}

void digest::feed_placements(const wsan::tsch::schedule& sched) {
  feed(static_cast<std::uint64_t>(sched.num_slots()));
  for (const auto& p : sched.placements()) {
    feed(static_cast<std::uint64_t>(p.tx.flow));
    feed(static_cast<std::uint64_t>(p.tx.instance));
    feed(static_cast<std::uint64_t>(p.tx.link_index));
    feed(static_cast<std::uint64_t>(p.tx.attempt));
    feed(static_cast<std::uint64_t>(p.slot));
    feed(static_cast<std::uint64_t>(p.offset));
  }
}

run_context::run_context(bool trace)
    : tr(trace), op_root_(tr.intern("bench.op")) {}

void run_context::start_op(std::uint64_t op) {
  op_ = op;
  op_failed_ = false;
  tr.set_op(op);
}

void run_context::begin_op() {
  op_start_ = now_ns();
  op_span_ = tr.open(op_root_, op_start_);
}

void run_context::end_op() {
  const std::int64_t end = now_ns();
  tr.close(op_span_, end);
  op_us.push_back(static_cast<double>(end - op_start_) / 1e3);
}

void run_context::finish_op() {
  ++attempted;
  if (op_failed_) ++failed;
  op_ = k_no_op;
  tr.set_op(k_no_op);
}

void run_context::fail(const std::string& what) {
  op_failed_ = true;
  if (messages_++ < 20)
    std::cerr << "perfbench: op " << op_ << " failed: " << what << "\n";
}

void run_context::fail_final(const std::string& what) {
  ++failed;
  if (messages_++ < 20)
    std::cerr << "perfbench: end-of-stream check failed: " << what << "\n";
}

wsan::topo::topology make_testbed(run_context& ctx, const std::string& name) {
  wsan::topo::topology topology;
  timed_call(ctx.tr, ctx.tr.intern("topo.make_testbed"), [&] {
    if (name == "indriya")
      topology = wsan::topo::make_indriya();
    else if (name == "wustl")
      topology = wsan::topo::make_wustl();
    else
      throw std::invalid_argument("unknown testbed: " + name);
  });
  return topology;
}

testbed_env build_env(run_context& ctx, const std::string& name,
                      int num_channels) {
  testbed_env env;
  env.name = name;
  env.topology = make_testbed(ctx, name);
  timed_call(ctx.tr, ctx.tr.intern("graph.build"), [&] {
    env.channels = wsan::phy::channels(num_channels);
    env.comm =
        wsan::graph::build_communication_graph(env.topology, env.channels);
    env.hops = wsan::graph::hop_matrix(
        wsan::graph::build_channel_reuse_graph(env.topology, env.channels));
  });
  return env;
}

std::string check_schedule(const wsan::tsch::schedule& sched,
                           const std::vector<wsan::flow::flow>& flows,
                           const wsan::graph::hop_matrix& hops,
                           const wsan::core::scheduler_config& config) {
  wsan::tsch::validation_options options;
  options.min_reuse_hops = config.rho_t;
  options.retries_per_link = config.retries_per_link;
  const auto valid = wsan::tsch::validate_schedule(sched, flows, hops, options);
  return valid.ok ? "" : valid.violations.front();
}

wsan::sim::sim_result sim_inputs::run(const wsan::sim::sim_config& sc) const {
  return wsan::sim::run_simulation(topology, sched, flows, channels, sc);
}

bool matches_naive_engine(const sim_inputs& in,
                          const wsan::sim::sim_config& sc,
                          const wsan::sim::sim_result& fast) {
  auto naive = sc;
  naive.use_fast_path = false;
  return in.run(naive) == fast;
}

void probe_fixed_cost(run_context& ctx, const sim_inputs& in,
                      const wsan::sim::sim_config& sc, std::int64_t full_ns) {
  auto one = sc;
  one.runs = 1;
  const std::int64_t start = now_ns();
  in.run(one);
  const auto t1 = static_cast<double>(now_ns() - start);
  const double per_run = (static_cast<double>(full_ns) - t1) / (sc.runs - 1);
  ctx.sim_fixed_us.push_back((t1 - per_run) / 1e3);
}

}  // namespace perfbench
