// Shared pieces of the three workloads: the run context (timers,
// tracer, deterministic counters, digest, failure count), the testbed
// environment, the correctness checks and simulator probes they share,
// and the workload interface.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "flow/flow.h"
#include "graph/graph.h"
#include "graph/hop_matrix.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "trace.h"
#include "tsch/schedule.h"

namespace perfbench {

/// FNV-1a over 64-bit words; doubles are fed by bit pattern.
class digest {
 public:
  void feed(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  void feed_double(double v);
  void feed_placements(const wsan::tsch::schedule& sched);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// State of one run, shared by the workload and the main loop.
class run_context {
 public:
  explicit run_context(bool trace);

  tracer tr;

  /// Starts op `op`: spans opened from now on, input generation before
  /// begin_op included, carry its id.
  void start_op(std::uint64_t op);
  /// Open and close the root span of the current op. Only the calls
  /// between the two count as op time; correctness checks run after
  /// end_op.
  void begin_op();
  void end_op();
  /// Counts the op as attempted, and as failed if any check failed.
  void finish_op();

  /// Records a failed correctness check against the current op.
  void fail(const std::string& what);
  /// Records a failure found after the last op (end-of-stream checks).
  void fail_final(const std::string& what);

  /// Deterministic counters cover only the first pass, so they repeat
  /// exactly for a seed whatever the run length.
  bool first_pass() const { return op_ < pass_ops; }
  void count(const std::string& key, double v) {
    if (first_pass()) counters[key] += v;
  }
  double counter(const std::string& key) const { return lookup(counters, key); }
  double total(const std::string& key) const { return lookup(totals, key); }

  /// Ops in one pass; op ids run on across passes.
  std::uint64_t pass_ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Latency of every op in id order: pass p's op i is op_us[p *
  /// pass_ops + i].
  std::vector<double> op_us;
  /// End-to-end latency samples of single calls inside ops, in µs
  /// ("admit", "evict").
  std::map<std::string, std::vector<double>> call_us;
  /// Deterministic counters (first pass only).
  std::map<std::string, double> counters;
  /// Whole-run totals used by rates (sim slots, sim ns, runs).
  std::map<std::string, double> totals;
  /// Digest of the current pass's verdicts, placements, isolations and
  /// PDRs; every pass must end with the first pass's digest.
  digest dg;
  /// Fixed per-call cost samples of run_simulation (traced run only).
  std::vector<double> sim_fixed_us;

 private:
  static double lookup(const std::map<std::string, double>& m,
                       const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }

  std::uint32_t op_root_;
  std::uint64_t op_ = k_no_op;
  std::int64_t op_start_ = 0;
  int op_span_ = -1;
  bool op_failed_ = false;
  int messages_ = 0;
};

/// Topology, channels, communication graph and reuse hop matrix of one
/// testbed, built under the topo.make_testbed and graph.build spans.
struct testbed_env {
  std::string name;
  wsan::topo::topology topology;
  std::vector<wsan::channel_t> channels;
  wsan::graph::graph comm;
  wsan::graph::hop_matrix hops;
};

wsan::topo::topology make_testbed(run_context& ctx, const std::string& name);
testbed_env build_env(run_context& ctx, const std::string& name,
                      int num_channels);

/// Runs tsch::validate_schedule under the reuse distance and retries of
/// `config`; returns the first violation, or "" when the schedule is
/// valid.
std::string check_schedule(const wsan::tsch::schedule& sched,
                           const std::vector<wsan::flow::flow>& flows,
                           const wsan::graph::hop_matrix& hops,
                           const wsan::core::scheduler_config& config);

/// The inputs of a sim::run_simulation call other than its sim_config.
struct sim_inputs {
  const wsan::topo::topology& topology;
  const wsan::tsch::schedule& sched;
  const std::vector<wsan::flow::flow>& flows;
  const std::vector<wsan::channel_t>& channels;

  wsan::sim::sim_result run(const wsan::sim::sim_config& sc) const;
};

/// Reruns `sc` on the naive engine (use_fast_path = false) and compares
/// with the oracle-tier result `fast` bit for bit.
bool matches_naive_engine(const sim_inputs& in,
                          const wsan::sim::sim_config& sc,
                          const wsan::sim::sim_result& fast);

/// Traced run only: one extra runs = 1 call on the inputs of a call with
/// sc.runs runs that took `full_ns`. With t1 and tR, the per-run cost is
/// (tR - t1) / (R - 1) and the fixed per-call cost is t1 minus one run;
/// the estimate goes to ctx.sim_fixed_us.
void probe_fixed_cost(run_context& ctx, const sim_inputs& in,
                      const wsan::sim::sim_config& sc, std::int64_t full_ns);

/// A run is a series of passes. Each pass sets up a fresh workload and
/// runs its pass_ops() ops, so every pass does the same work on the same
/// inputs, and each set-up and each op is timed once per pass at a
/// different moment of the run.
class workload {
 public:
  virtual ~workload() = default;
  /// Builds inputs and warms up; timed as one setup_s sample.
  virtual void setup(run_context& ctx) = 0;
  /// Op `op` (0 <= op < pass_ops()) of the pass, plus its correctness
  /// checks. Its inputs depend only on the seed and `op`.
  virtual void run_op(run_context& ctx, std::uint64_t op) = 0;
  /// End-of-stream checks after the last op of the pass.
  virtual void finish(run_context& ctx) = 0;
  virtual std::uint64_t pass_ops() const = 0;
};

std::unique_ptr<workload> make_delta_churn(std::uint64_t seed);
std::unique_ptr<workload> make_manager_epochs(std::uint64_t seed);
std::unique_ptr<workload> make_sim_reliability(std::uint64_t seed);

}  // namespace perfbench
