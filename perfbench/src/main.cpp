// perfbench: the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs the workload in passes until S seconds and at least k_min_passes
// passes are done. A pass sets up a fresh workload, then runs its ops in
// a closed loop — one client, one thread, the next op only after the
// previous one returns — so every pass does the same work. setup_s is
// the median of the passes' set-ups, and an op's latency the median of
// its latencies over the passes: a slow stretch of the host that covers
// less than half of the passes does not move them. Prints a
// `perfbench-info` line with the workload's own figures (determinism
// digest, sample counts, admission and simulator figures) and, last,
// one JSON result line whose metrics are the end-to-end set (--trace 0)
// or the per-layer set (--trace 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

/// A run that has not done k_min_passes passes stops here anyway, so
/// the process ends well inside the 180 s a run may take.
constexpr double k_hard_limit_s = 120.0;
constexpr int k_min_passes = 5;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload "
               "delta_churn|manager_epochs|sim_reliability --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload")
        o.workload = value;
      else if (key == "--seed")
        o.seed = std::stoull(value);
      else if (key == "--seconds")
        o.seconds = std::stod(value);
      else if (key == "--trace")
        o.trace = std::stoi(value) != 0;
      else if (key == "--trace-out")
        o.trace_out = value;
      else
        usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0.0) usage("bad --seconds");
  return o;
}

std::unique_ptr<workload> make(const options& o) {
  if (o.workload == "delta_churn") return make_delta_churn(o.seed);
  if (o.workload == "manager_epochs") return make_manager_epochs(o.seed);
  if (o.workload == "sim_reliability") return make_sim_reliability(o.seed);
  usage("unknown workload " + o.workload);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Latency of each op of a pass: the median of its latencies over the
/// passes. op_us holds whole passes in op id order.
std::vector<double> per_op_medians(const std::vector<double>& op_us,
                                   std::size_t pass_ops) {
  const std::size_t passes = pass_ops ? op_us.size() / pass_ops : 0;
  std::vector<double> out(passes ? pass_ops : 0);
  std::vector<double> samples(passes);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t p = 0; p < passes; ++p)
      samples[p] = op_us[p * pass_ops + i];
    out[i] = median(samples);
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process (VmHWM). getrusage's ru_maxrss
/// would also count the parent's peak, which Linux carries across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Ordered (name -> value, unit) list printed as a JSON object.
class metric_list {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream out;
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    out << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out << ", ";
      out << "\"" << items_[i].name << "\": {\"value\": " << items_[i].value
          << ", \"unit\": \"" << items_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<item> items_;
};

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The per-layer metric set, from the span summary and the counters.
metric_list layer_metrics(const run_context& ctx, const trace_summary& t,
                          const std::vector<double>& op_us) {
  metric_list m;
  const auto layer = [&](const std::string& name) -> const layer_totals& {
    static const layer_totals none;
    const auto it = t.layers.find(name);
    return it == t.layers.end() ? none : it->second;
  };
  const auto durations_us = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto d : layer(name).durations_ns) v.push_back(us(d));
    return v;
  };
  const auto calls_busy = [&](const std::string& name) {
    m.add(name + ".calls", static_cast<double>(layer(name).calls), "count");
    m.add(name + ".busy_ms", ms(layer(name).busy_ns), "ms");
  };
  const auto full = [&](const std::string& name) {
    calls_busy(name);
    m.add(name + ".self_ms", ms(layer(name).self_ns), "ms");
    m.add(name + ".p50_us", percentile(durations_us(name), 0.50), "us");
    m.add(name + ".p99_us", percentile(durations_us(name), 0.99), "us");
  };

  m.add("topo.make_testbed.busy_ms", ms(layer("topo.make_testbed").busy_ns),
        "ms");
  m.add("graph.build.busy_ms", ms(layer("graph.build").busy_ns), "ms");
  calls_busy("graph.remove_nodes");
  calls_busy("flow.generate");

  full("core.delta.admit");
  full("core.delta.evict");
  m.add("core.delta.full_reschedule_ratio",
        ratio(ctx.counter("delta.full_reschedules"), ctx.counter("delta.ops")),
        "ratio");
  m.add("core.delta.replayed_per_evict",
        ratio(ctx.counter("delta.replayed"), ctx.counter("delta.evicts")),
        "count");
  m.add("core.delta.reject_ratio",
        ratio(ctx.counter("delta.rejects"), ctx.counter("delta.admits")),
        "ratio");

  calls_busy("core.schedule_shedding");
  m.add("core.schedule_shedding.shed_flows",
        ctx.counter("core.schedule_shedding.shed_flows"), "count");
  for (const char* key : {"core.placements", "core.reuse_activations",
                          "core.probes.slots_scanned",
                          "core.probes.cells_probed"})
    m.add(key, ctx.counter(key), "count");

  full("manager.admit");
  m.add("manager.admit.reject_ratio",
        ratio(ctx.counter("manager.admit.attempts") -
                  ctx.counter("manager.admit.accepted"),
              ctx.counter("manager.admit.attempts")),
        "ratio");
  calls_busy("manager.maintain");
  m.add("manager.maintain.newly_isolated",
        ctx.counter("manager.maintain.newly_isolated"), "count");
  calls_busy("manager.recover");
  m.add("manager.recover.rerouted", ctx.counter("manager.recover.rerouted"),
        "count");
  m.add("manager.recover.shed", ctx.counter("manager.recover.shed"), "count");

  full("sim.oracle.run_simulation");
  full("sim.batched.run_simulation");
  m.add("sim.us_per_run",
        ratio(ctx.total("sim.ns") / 1e3, ctx.total("sim.runs")), "us");
  m.add("sim.fixed_us", median(ctx.sim_fixed_us), "us");
  m.add("sim.slots_per_s",
        ratio(ctx.total("sim.slots"), ctx.total("sim.ns") / 1e9), "1/s");
  m.add("sim.mean_pdr",
        ratio(ctx.counter("sim.pdr_sum"), ctx.counter("sim.pdr_count")),
        "ratio");

  calls_busy("detect.classify_links");
  m.add("detect.classify_links.links",
        ctx.counter("detect.classify_links.links"), "count");
  m.add("detect.classify_links.degraded",
        ctx.counter("detect.classify_links.degraded"), "count");

  m.add("bench.unattributed_ms", ms(t.unattributed_ns), "ms");
  m.add("bench.op_p50_us", percentile(op_us, 0.50), "us");
  return m;
}

int run(const options& o) {
  run_context ctx(o.trace);
  std::unique_ptr<workload> w;
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::uint64_t first_digest = 0;
  bool aborted = false;
  const std::int64_t start = now_ns();
  std::uint64_t op = 0;
  try {
    while (true) {
      // The previous pass's workload is freed first, so peak_rss_mb
      // counts one instance. Set-up spans carry the id of the pass's
      // first op, so the traced figures cover the first set-up only.
      w.reset();
      w = make(o);
      ctx.pass_ops = w->pass_ops();
      ctx.tr.set_op(op);
      const std::int64_t pass_start = now_ns();
      w->setup(ctx);
      setup_s.push_back(static_cast<double>(now_ns() - pass_start) / 1e9);
      ctx.dg = digest{};
      for (std::uint64_t i = 0; i < ctx.pass_ops; ++i, ++op) {
        ctx.start_op(op);
        w->run_op(ctx, i);
      }
      w->finish(ctx);
      if (pass_s.empty())
        first_digest = ctx.dg.value();
      else if (ctx.dg.value() != first_digest)
        ctx.fail_final("pass " + std::to_string(pass_s.size()) +
                       " digest differs from the first pass");
      const std::int64_t end = now_ns();
      pass_s.push_back(static_cast<double>(end - pass_start) / 1e9);
      const double elapsed = static_cast<double>(end - start) / 1e9;
      const int passes = static_cast<int>(pass_s.size());
      if (passes >= k_min_passes && elapsed >= o.seconds) break;
      if (elapsed >= k_hard_limit_s) {
        std::cerr << "perfbench: stopped at the " << k_hard_limit_s
                  << " s limit after " << passes << " passes\n";
        break;
      }
    }
  } catch (const std::exception& e) {
    // The workload state is unknown after a throw: count the op as
    // failed and stop.
    std::cerr << "perfbench: op " << op << " threw: " << e.what() << "\n";
    ++ctx.attempted;
    ++ctx.failed;
    aborted = true;
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  // A throw leaves a partial pass; only whole passes are summarized.
  ctx.op_us.resize(pass_s.size() * ctx.pass_ops);
  const auto op_us = per_op_medians(ctx.op_us, ctx.pass_ops);

  bool correct = ctx.failed == 0 && !aborted && ctx.attempted > 0;
  metric_list metrics;
  std::ostringstream info;
  info << std::setprecision(std::numeric_limits<double>::max_digits10);
  const std::size_t n = op_us.size();
  double op_s = 0.0;
  for (const double v : op_us) op_s += v / 1e6;
  const double ops_per_s = ratio(static_cast<double>(n), op_s);
  if (o.trace) {
    const auto summary =
        summarize(ctx.tr, ctx.tr.intern("bench.op"), ctx.pass_ops);
    // Layer self times plus the unattributed remainder must add up to
    // op time; by construction they do exactly unless spans overlap.
    const std::int64_t gap =
        summary.attributed_ns + summary.unattributed_ns - summary.op_ns;
    const bool adds_up =
        summary.nesting_ok &&
        std::abs(static_cast<double>(gap)) <=
            1e-3 * static_cast<double>(summary.op_ns);
    if (!adds_up) {
      std::cerr << "perfbench: span self times do not add up to op time "
                << "(gap " << gap << " ns)\n";
      correct = false;
    }
    if (!o.trace_out.empty() && !ctx.tr.write_jsonl(o.trace_out)) {
      std::cerr << "perfbench: cannot write " << o.trace_out << "\n";
      correct = false;
    }
    metrics = layer_metrics(ctx, summary, op_us);
    info << "\"spans\": " << ctx.tr.spans().size()
         << ", \"op_ms\": " << ms(summary.op_ns)
         << ", \"attributed_ms\": " << ms(summary.attributed_ns)
         << ", \"unattributed_ms\": " << ms(summary.unattributed_ns)
         << ", \"self_time_gap_ns\": " << gap << ", ";
  } else {
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("ops_per_s", ops_per_s, "1/s");
    metrics.add("op_p50_us", percentile(op_us, 0.50), "us");
    metrics.add("op_p99_us", percentile(op_us, 0.99), "us");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  }

  // Workload figures that are not defined on every workload, and the
  // run's bookkeeping.
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(first_digest));
  info << "\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
       << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"digest\": \""
       << digest_hex << "\", \"pass_ops\": " << ctx.pass_ops
       << ", \"passes\": " << pass_s.size() << ", \"pass_s\": [";
  for (std::size_t p = 0; p < pass_s.size(); ++p)
    info << (p ? ", " : "") << pass_s[p];
  info << "], \"wall_s\": " << wall_s
       << ", \"error_rate\": "
       << ratio(static_cast<double>(ctx.failed),
                static_cast<double>(ctx.attempted))
       << ", \"op_p99_beyond\": " << n - (n * 99 + 99) / 100;
  for (const auto& [name, samples] : ctx.call_us)
    info << ", \"" << name << "_p50_us\": " << percentile(samples, 0.5)
         << ", \"" << name << "_p99_us\": " << percentile(samples, 0.99)
         << ", \"" << name << "_samples\": " << samples.size();
  const double admits =
      ctx.counter("delta.admits") + ctx.counter("manager.admit.attempts");
  const double accepted = ctx.counter("delta.admits") -
                          ctx.counter("delta.rejects") +
                          ctx.counter("manager.admit.accepted");
  if (admits > 0) info << ", \"accept_ratio\": " << accepted / admits;
  if (ctx.total("sim.ns") > 0)
    info << ", \"sim_slots_per_s\": "
         << ratio(ctx.total("sim.slots"), ctx.total("sim.ns") / 1e9)
         << ", \"mean_pdr\": "
         << ratio(ctx.counter("sim.pdr_sum"), ctx.counter("sim.pdr_count"));
  std::cout << "perfbench-info {" << info.str() << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ctx.attempted
            << ", \"failed\": " << ctx.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
