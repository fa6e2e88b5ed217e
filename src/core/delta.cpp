#include "core/delta.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsan::core {

std::size_t delta_scheduler::first_placement_of(flow_id id) const {
  const auto& log = sched_.placements();
  return static_cast<std::size_t>(
      std::partition_point(log.begin(), log.end(),
                           [id](const tsch::schedule::placement& p) {
                             return p.tx.flow < id;
                           }) -
      log.begin());
}

delta_scheduler::admit_outcome delta_scheduler::admit_flow(flow::flow f) {
  OBS_SPAN("core.delta.admit");
  f.id = static_cast<flow_id>(flows_.size());
  flow::validate_flow(f);

  admit_outcome out;
  const slot_t candidate_hp =
      flows_.empty() ? f.period : std::lcm(sched_.num_slots(), f.period);

  if (flows_.empty() || candidate_hp != sched_.num_slots()) {
    // The slot grid must be resized: repair cannot be expressed as a
    // greedy resumption, so run the oracle itself and adopt its result
    // only on success. (On a new grid RC's per-flow rho can change any
    // flow's placements, so even an unschedulable base may admit.)
    auto candidate = flows_;
    candidate.push_back(std::move(f));
    auto full = schedule_flows(candidate, *reuse_hops_, config_);
    out.full_reschedule = true;
    obs::add_counter("core.delta.full_reschedules");
    if (!full.schedulable) return out;
    out.admitted = true;
    out.id = candidate.back().id;
    sched_ = std::move(full.sched);
    flows_ = std::move(candidate);
    first_failed_ = k_invalid_flow;
    out.placed = sched_.num_transmissions() - first_placement_of(out.id);
    return out;
  }

  // Same grid, unschedulable base: a rerun on flows()+f would place the
  // prefix identically and stop at first_failed_ before reaching f.
  if (!schedulable()) return out;

  // Resume the greedy exactly where schedule_flows(flows_) stopped: the
  // new flow has the lowest priority, so its placements against the
  // existing occupancy equal those of a full rerun — and so does the
  // rejection verdict. On failure the partial placements are rolled
  // back, leaving the canonical state untouched.
  scheduler_stats stats;
  const std::size_t mark = sched_.num_transmissions();
  if (!schedule_flow_into(sched_, f, *reuse_hops_, config_, stats)) {
    sched_.truncate(mark);
    return out;
  }
  out.admitted = true;
  out.id = f.id;
  out.placed = stats.total_transmissions;
  flows_.push_back(std::move(f));
  return out;
}

delta_scheduler::evict_outcome delta_scheduler::evict_flow(flow_id id) {
  OBS_SPAN("core.delta.evict");
  evict_outcome out;
  if (id < 0 || static_cast<std::size_t>(id) >= flows_.size()) return out;
  out.evicted = true;

  // The victim's placements are one run of the flow-sorted log, and
  // everything from its start on belongs to the victim or later flows.
  const std::size_t cut = first_placement_of(id);
  out.freed = first_placement_of(id + 1) - cut;

  // Survivors with dense ids again: everything above `id` shifts down.
  flows_.erase(flows_.begin() + id);
  for (std::size_t j = static_cast<std::size_t>(id); j < flows_.size(); ++j)
    flows_[j].id = static_cast<flow_id>(j);

  if (flows_.empty()) {
    sched_ = tsch::schedule();
    first_failed_ = k_invalid_flow;
    return out;
  }

  if (flow::hyperperiod(flows_) != sched_.num_slots()) {
    // Hyperperiod shrink (the evicted flow alone carried the longest
    // period): rebuild on the oracle's grid.
    out.full_reschedule = true;
    obs::add_counter("core.delta.full_reschedules");
    auto full = schedule_flows(flows_, *reuse_hops_, config_);
    sched_ = std::move(full.sched);
    first_failed_ = full.first_failed_flow;
    return out;
  }

  // Flows after the failed one have no placements: the greedy still
  // stops at the same flow, which keeps its rank, so only the ids moved.
  if (!schedulable() && id > first_failed_) return out;

  // In-place repair. Cut the victim and the lower-priority suffix, then
  // replay the suffix: those are the only flows whose greedy placements
  // saw the freed occupancy, and replaying them in priority order
  // against the retained prefix reproduces the oracle's schedule
  // placement-for-placement.
  sched_.truncate(cut);
  first_failed_ = k_invalid_flow;
  for (std::size_t i = static_cast<std::size_t>(id); i < flows_.size();
       ++i) {
    scheduler_stats stats;
    if (!schedule_flow_into(sched_, flows_[i], *reuse_hops_, config_,
                            stats)) {
      // Mirror schedule_flows: stop at the first failure; the failed
      // flow's partial placements stay, later flows are not attempted.
      first_failed_ = static_cast<flow_id>(i);
      break;
    }
    ++out.rescheduled_flows;
  }
  return out;
}

}  // namespace wsan::core
