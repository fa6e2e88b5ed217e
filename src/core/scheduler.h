// The scheduling engine: fixed-priority (Deadline Monotonic when flows
// were prioritized that way) transmission scheduling with the three
// channel-reuse policies NR, RA, and RC (Algorithm 1).
#pragma once

#include <vector>

#include "core/config.h"
#include "flow/flow.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"
#include "core/probe_counters.h"

namespace wsan::core {

struct scheduler_stats {
  std::size_t total_transmissions = 0;   ///< attempts scheduled
  std::size_t reuse_placements = 0;      ///< placed into occupied cells
  std::size_t find_slot_calls = 0;
  std::size_t laxity_evaluations = 0;
  /// Times RC switched a transmission from rho = infinity to reuse.
  std::size_t reuse_activations = 0;
  /// Hot-path work: slots scanned, cells probed, checks answered by the
  /// occupancy index (see scheduler_config::use_occupancy_index).
  probe_counters probes;
};

struct schedule_result {
  bool schedulable = false;
  tsch::schedule sched;                  ///< complete iff schedulable
  scheduler_stats stats;
  flow_id first_failed_flow = k_invalid_flow;
};

/// Schedules all instances of all flows within the hyperperiod.
///
/// Flows must already be in priority order (see flow::assign_priorities)
/// with dense ids. Returns schedulable=false as soon as any transmission
/// cannot be placed by its deadline (Algorithm 1 returns the empty
/// schedule in that case).
schedule_result schedule_flows(const std::vector<flow::flow>& flows,
                               const graph::hop_matrix& reuse_hops,
                               const scheduler_config& config);

/// Places every instance of one flow into an existing schedule with the
/// exact greedy placement loop of schedule_flows — the resume primitive
/// of incremental admission (core::delta_scheduler).
///
/// schedule_flows processes flows strictly in priority order and each
/// flow's placements depend only on the occupancy left by its
/// predecessors, so appending flow n to the schedule produced for flows
/// 0..n-1 yields a schedule placement-identical to
/// schedule_flows(flows 0..n). `sched` must span the flow set's
/// hyperperiod (including f).
///
/// Returns false when some transmission cannot be placed by its
/// deadline; placements made before the failure remain in `sched` (roll
/// back with tsch::schedule::truncate to the pre-call num_transmissions()
/// if the caller wants the pre-call state back). `stats` accumulates
/// across calls.
bool schedule_flow_into(tsch::schedule& sched, const flow::flow& f,
                        const graph::hop_matrix& reuse_hops,
                        const scheduler_config& config,
                        scheduler_stats& stats);

}  // namespace wsan::core
