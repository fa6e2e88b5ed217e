// Incremental delta-scheduling: admit or evict one flow by repairing an
// existing schedule instead of re-running the scheduler from scratch.
//
// The fleet service (src/fleet) serves a high-rate admission/removal
// stream across thousands of tenant networks; re-running schedule_flows
// end-to-end on every request — the paper's manager behaviour — costs
// O(all transmissions) per request. This module exploits a structural
// property of the greedy scheduler: schedule_flows processes flows
// strictly in priority order, and each flow's placements depend only on
// the occupancy left by higher-priority flows. The schedule's placement
// log is therefore sorted by flow id, and every prefix of it is the
// schedule of a prefix of the flows. Hence, on an unchanged slot grid,
//
//   * admitting a new lowest-priority flow is an exact *resumption* of
//     the greedy (schedule_flow_into): only the new flow's transmissions
//     are placed, against the existing occupancy index, and the result
//     is placement-identical to a full schedule_flows rerun — including
//     the rejection verdict. A rejected admission rolls back with one
//     tsch::schedule::truncate to the pre-call placement count;
//   * evicting a flow cuts the log with one truncate at the victim's
//     first placement and replays only the lower-priority suffix in
//     place — the prefix placements, the grid, and the occupancy index
//     are all retained;
//   * an unschedulable state holds the complete prefix before the flow
//     where the greedy stopped (first_failed()) plus that flow's partial
//     placements, and nothing of the flows after it. Admitting on it is
//     rejected without work (a rerun would stop at the same flow before
//     reaching the new one); evicting a flow after it only renumbers;
//     evicting it or an earlier flow truncates and replays as above.
//
// The class maintains the canonical invariant that its (schedule,
// schedulable, first_failed) state always equals the schedule_flows
// result for its current flow set, so the full reschedule stays
// available as an equivalence oracle (tests/fleet_equivalence_test.cpp
// asserts placement-level identity after randomized admit/evict
// traces). A full schedule_flows rerun happens only when the
// hyperperiod changes, because then the slot grid must be resized.
#pragma once

#include <cstddef>
#include <vector>

#include "core/scheduler.h"

namespace wsan::core {

class delta_scheduler {
 public:
  /// `reuse_hops` must outlive the scheduler. `config` is fixed for the
  /// lifetime (isolation changes require a rebuild; use a fresh
  /// instance).
  delta_scheduler(const graph::hop_matrix& reuse_hops,
                  scheduler_config config)
      : reuse_hops_(&reuse_hops), config_(std::move(config)) {}

  struct admit_outcome {
    /// False: the flow does not fit (state unchanged). The verdict
    /// equals what a full schedule_flows rerun on flows()+f would say.
    bool admitted = false;
    /// Dense id assigned to the admitted flow (= flows().size()-1).
    flow_id id = k_invalid_flow;
    /// True when the repair required a full schedule_flows rerun
    /// (the first flow, or hyperperiod growth).
    bool full_reschedule = false;
    /// Transmissions placed for the new flow.
    std::size_t placed = 0;
  };

  /// Admits `f` as the new lowest-priority flow. f.id is ignored; the
  /// next dense id is assigned. Throws std::invalid_argument when f is
  /// structurally invalid (flow::validate_flow).
  admit_outcome admit_flow(flow::flow f);

  struct evict_outcome {
    /// False: no flow with that id (state unchanged).
    bool evicted = false;
    /// The evicted flow's placements freed from the grid.
    std::size_t freed = 0;
    /// Lower-priority flows replayed in place to restore canonicity.
    std::size_t rescheduled_flows = 0;
    /// True when the repair required a full schedule_flows rerun
    /// (hyperperiod shrink).
    bool full_reschedule = false;
  };

  /// Evicts the flow with dense id `id`; higher ids shift down by one.
  evict_outcome evict_flow(flow_id id);

  /// Current flow set in priority order with dense ids.
  const std::vector<flow::flow>& flows() const { return flows_; }
  /// The maintained schedule; meaningful iff schedulable() (mirrors
  /// schedule_result::sched being complete iff schedulable).
  const tsch::schedule& sched() const { return sched_; }
  /// True iff every flow in flows() is fully placed. Can only be false
  /// after an eviction whose repair (or full rerun) failed — a greedy
  /// scheduling anomaly; admissions never leave a false state behind
  /// because they roll back.
  bool schedulable() const { return first_failed_ == k_invalid_flow; }
  /// The flow at which the greedy stopped (schedule_result's
  /// first_failed_flow), or k_invalid_flow when schedulable().
  flow_id first_failed() const { return first_failed_; }
  const scheduler_config& config() const { return config_; }
  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }

 private:
  /// Index in sched_.placements() of the first placement of a flow
  /// with id >= `id` (the log is sorted by flow id).
  std::size_t first_placement_of(flow_id id) const;

  const graph::hop_matrix* reuse_hops_;
  scheduler_config config_;
  std::vector<flow::flow> flows_;  // dense ids == priority ranks
  tsch::schedule sched_;           // == schedule_flows(flows_).sched
  /// == schedule_flows(flows_).first_failed_flow; the empty set is
  /// trivially schedulable.
  flow_id first_failed_ = k_invalid_flow;
};

}  // namespace wsan::core
