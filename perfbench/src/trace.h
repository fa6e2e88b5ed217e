// In-memory span recording for the traced run.
//
// The benchmark wraps every call it makes into a library module in a
// timed call. The clock is read around the call in every run, because
// the end-to-end latencies need it; with tracing on, the call is also
// kept as a span (name, start, end, parent, op id) in memory and written
// out when the run ends. The library's own obs spans stay off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::int64_t now_ns();

/// Op id of spans recorded outside any timed op (set-up, input
/// generation between ops, fixed-cost probes).
inline constexpr std::uint64_t k_no_op = ~std::uint64_t{0};

struct span_record {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  ///< index into tracer::spans(); -1 = root
  std::uint64_t op = k_no_op;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  /// Op id given to spans opened from now on.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Opens a span that started at `start_ns`. Returns its index, or -1
  /// when tracing is off.
  int open(std::uint32_t name, std::int64_t start_ns);
  void close(int index, std::int64_t end_ns);

  const std::vector<span_record>& spans() const { return spans_; }
  /// Writes one JSON object per span. Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t op_ = k_no_op;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<span_record> spans_;
  std::vector<int> stack_;
};

/// Calls `fn` as one span named `name`; returns its duration in ns.
template <class F>
std::int64_t timed_call(tracer& tr, std::uint32_t name, F&& fn) {
  const std::int64_t start = now_ns();
  const int index = tr.open(name, start);
  fn();
  const std::int64_t end = now_ns();
  tr.close(index, end);
  return end - start;
}

/// Per-name aggregate of the recorded spans.
struct layer_totals {
  std::int64_t calls = 0;
  std::int64_t busy_ns = 0;  ///< sum of span durations
  std::int64_t self_ns = 0;  ///< busy minus the time covered by children
  std::vector<std::int64_t> durations_ns;
};

struct trace_summary {
  std::map<std::string, layer_totals> layers;
  /// Total duration of the op root spans.
  std::int64_t op_ns = 0;
  /// Self time of the op roots: op time no layer span covers.
  std::int64_t unattributed_ns = 0;
  /// Self time of every span nested in an op root.
  std::int64_t attributed_ns = 0;
  /// Every child lies inside its parent and children do not overlap.
  bool nesting_ok = true;
};

/// Aggregates the spans of set-up and of the first pass (op ids below
/// `pass_ops`), so that a layer's figures cover the same work in every
/// run, however many passes the run's time allows. `op_root` names the
/// spans that delimit ops. Nesting is checked on every span.
trace_summary summarize(const tracer& tr, std::uint32_t op_root,
                        std::uint64_t pass_ops);

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 when
/// empty.
double percentile(std::vector<double> samples, double q);

}  // namespace perfbench
