#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t tracer::intern(std::string_view name) {
  const auto [it, inserted] = ids_.try_emplace(
      std::string(name), static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

int tracer::open(std::uint32_t name, std::int64_t start_ns) {
  if (!enabled_) return -1;
  span_record s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void tracer::close(int index, std::int64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  // Spans close in LIFO order because every span is one scoped call.
  stack_.pop_back();
}

bool tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : spans_) {
    out << "{\"name\":\"" << names_[s.name] << "\",\"parent\":" << s.parent
        << ",\"op\":";
    if (s.op == k_no_op)
      out << "null";
    else
      out << s.op;
    out << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

trace_summary summarize(const tracer& tr, std::uint32_t op_root,
                        std::uint64_t pass_ops) {
  const auto& spans = tr.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  // Children are recorded after their parent and, on one thread, end
  // before the next sibling starts.
  std::vector<std::int64_t> last_child_end(spans.size(), 0);
  // Whether the span is an op root or nested in one.
  std::vector<char> in_op(spans.size(), 0);
  trace_summary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.end_ns < s.start_ns) out.nesting_ok = false;
    if (s.parent < 0) {
      in_op[i] = s.name == op_root;
      continue;
    }
    const auto p = static_cast<std::size_t>(s.parent);
    const auto& parent = spans[p];
    if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns ||
        (last_child_end[p] != 0 && s.start_ns < last_child_end[p]))
      out.nesting_ok = false;
    last_child_end[p] = s.end_ns;
    child_ns[p] += s.end_ns - s.start_ns;
    in_op[i] = in_op[p];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.op != k_no_op && s.op >= pass_ops) continue;
    const std::int64_t dur = s.end_ns - s.start_ns;
    const std::int64_t self = dur - child_ns[i];
    if (s.name == op_root) {
      out.op_ns += dur;
      out.unattributed_ns += self;
      continue;
    }
    auto& layer = out.layers[tr.name(s.name)];
    ++layer.calls;
    layer.busy_ns += dur;
    layer.self_ns += self;
    layer.durations_ns.push_back(dur);
    if (in_op[i]) out.attributed_ns += self;
  }
  return out;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
