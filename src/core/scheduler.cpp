#include "core/scheduler.h"

#include <optional>
#include <span>
#include <vector>

#include "common/error.h"
#include "core/laxity.h"
#include "core/slot_finder.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phy/channel.h"

namespace wsan::core {

namespace {

/// End-of-run metrics flush. The hot path keeps accumulating into the
/// plain scheduler_stats struct (deterministic per trial and cheap);
/// the registry only sees the totals, once per schedule_flows call.
/// This is also where the probe_counters totals surface under their
/// registry names (core.probes.*) — the sole observability surface for
/// them now that the tsch::probe_stats façade is gone.
void flush_scheduler_metrics(const scheduler_stats& stats,
                             bool schedulable) {
  if (!obs::enabled()) return;
  obs::add_counter("core.sched.runs");
  obs::add_counter(schedulable ? "core.sched.runs_schedulable"
                               : "core.sched.runs_unschedulable");
  obs::add_counter("core.sched.total_transmissions",
                   stats.total_transmissions);
  obs::add_counter("core.sched.reuse_placements", stats.reuse_placements);
  obs::add_counter("core.sched.find_slot_calls", stats.find_slot_calls);
  obs::add_counter("core.sched.laxity_evaluations",
                   stats.laxity_evaluations);
  obs::add_counter("core.sched.reuse_activations",
                   stats.reuse_activations);
  obs::add_counter("core.probes.slots_scanned",
                   stats.probes.slots_scanned);
  obs::add_counter("core.probes.cells_probed", stats.probes.cells_probed);
  obs::add_counter("core.probes.index_hits", stats.probes.index_hits);
}

/// Distribution of the reuse distance each flow ended up with; an
/// infinite rho (reuse never activated) lands in the overflow bucket.
void observe_final_rho(int rho) {
  static const obs::histogram h = obs::register_histogram(
      "core.sched.final_rho", {0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16});
  h.observe(static_cast<double>(rho));
}

/// Expands one flow instance into its transmission sequence: every route
/// link in order, each with (1 + retries) attempts. Overwrites `txs`, so
/// one buffer serves every instance of a flow.
void instance_transmissions(const flow::flow& f, int instance,
                            int retries_per_link,
                            std::vector<tsch::transmission>& txs) {
  txs.clear();
  for (int li = 0; li < static_cast<int>(f.route.size()); ++li) {
    for (int a = 0; a <= retries_per_link; ++a) {
      tsch::transmission tx;
      tx.flow = f.id;
      tx.instance = instance;
      tx.link_index = li;
      tx.attempt = a;
      tx.sender = f.route[static_cast<std::size_t>(li)].sender;
      tx.receiver = f.route[static_cast<std::size_t>(li)].receiver;
      txs.push_back(tx);
    }
  }
}

}  // namespace

std::string to_string(algorithm algo) {
  switch (algo) {
    case algorithm::nr:
      return "NR";
    case algorithm::ra:
      return "RA";
    case algorithm::rc:
      return "RC";
  }
  WSAN_CHECK(false, "unknown algorithm");
}

scheduler_config make_config(algorithm algo, int num_channels, int rho_t) {
  scheduler_config config;
  config.algo = algo;
  config.num_channels = num_channels;
  config.rho_t = rho_t;
  config.policy = algo == algorithm::ra ? channel_policy::first_fit
                                        : channel_policy::min_load;
  return config;
}

std::string to_string(channel_policy policy) {
  switch (policy) {
    case channel_policy::min_load:
      return "min-load";
    case channel_policy::first_fit:
      return "first-fit";
    case channel_policy::max_reuse:
      return "max-reuse";
  }
  WSAN_CHECK(false, "unknown channel policy");
}

schedule_result schedule_flows(const std::vector<flow::flow>& flows,
                               const graph::hop_matrix& reuse_hops,
                               const scheduler_config& config) {
  OBS_SPAN("core.schedule_flows");
  WSAN_REQUIRE(!flows.empty(), "flow set must be non-empty");
  WSAN_REQUIRE(config.num_channels >= 1 &&
                   config.num_channels <= phy::k_max_channels,
               "channel count must be in [1, 16]");
  WSAN_REQUIRE(config.rho_t >= 1, "rho_t must be at least 1");
  WSAN_REQUIRE(config.retries_per_link >= 0,
               "retries must be non-negative");
  WSAN_REQUIRE(config.management_slot_period >= 0,
               "management slot period must be non-negative");
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flow::validate_flow(flows[i]);
    WSAN_REQUIRE(flows[i].id == static_cast<flow_id>(i),
                 "flows must be in priority order with dense ids");
  }

  const slot_t hp = flow::hyperperiod(flows);

  schedule_result result;
  result.sched = tsch::schedule(hp, config.num_channels);

  for (const auto& f : flows) {
    if (!schedule_flow_into(result.sched, f, reuse_hops, config,
                            result.stats)) {
      result.schedulable = false;
      result.first_failed_flow = f.id;
      flush_scheduler_metrics(result.stats, false);
      return result;
    }
  }

  result.schedulable = true;
  flush_scheduler_metrics(result.stats, true);
  return result;
}

bool schedule_flow_into(tsch::schedule& sched, const flow::flow& f,
                        const graph::hop_matrix& reuse_hops,
                        const scheduler_config& config,
                        scheduler_stats& stats) {
  const int lambda_r = reuse_hops.diameter();
  // Algorithm 1: rho starts at infinity for each flow.
  int rho = k_infinite_hops;
  const int instances = f.instances_in(sched.num_slots());
  std::vector<tsch::transmission> txs;
  txs.reserve(f.route.size() *
              static_cast<std::size_t>(1 + config.retries_per_link));
  for (int r = 0; r < instances; ++r) {
    instance_transmissions(f, r, config.retries_per_link, txs);
    slot_t earliest = f.release_slot(r);
    const slot_t d_i = f.deadline_slot(r);

    for (std::size_t ti = 0; ti < txs.size(); ++ti) {
      const auto& tx = txs[ti];
      // T_post: the remaining transmissions of this instance.
      const auto post =
          std::span<const tsch::transmission>(txs).subspan(ti + 1);

      std::optional<slot_assignment> found;
      switch (config.algo) {
        case algorithm::nr: {
          ++stats.find_slot_calls;
          found = find_slot(sched, tx, earliest, d_i,
                            k_infinite_hops, reuse_hops, config.policy,
                            &config.isolated_links,
                            config.management_slot_period,
                            config.use_occupancy_index,
                            &stats.probes);
          break;
        }
        case algorithm::ra: {
          ++stats.find_slot_calls;
          found = find_slot(sched, tx, earliest, d_i,
                            config.rho_t, reuse_hops, config.policy,
                            &config.isolated_links,
                            config.management_slot_period,
                            config.use_occupancy_index,
                            &stats.probes);
          break;
        }
        case algorithm::rc: {
          // Algorithm 1 inner loop: try the current rho; on negative
          // laxity enable reuse at the network diameter and tighten
          // one hop at a time until laxity >= 0 or rho < rho_t.
          OBS_SPAN("core.rc_relaxation");
          static const obs::counter relaxation_rounds =
              obs::register_counter("core.sched.relaxation_rounds");
          while (true) {
            relaxation_rounds.add();
            ++stats.find_slot_calls;
            found = find_slot(sched, tx, earliest, d_i, rho,
                              reuse_hops, config.policy,
                              &config.isolated_links,
                              config.management_slot_period,
                              config.use_occupancy_index,
                              &stats.probes);
            bool laxity_ok = false;
            if (found) {
              ++stats.laxity_evaluations;
              laxity_ok =
                  calculate_laxity(sched, post, found->slot, d_i,
                                   config.management_slot_period,
                                   config.use_occupancy_index,
                                   &stats.probes) >= 0;
            }
            if (laxity_ok) break;
            if (rho == k_infinite_hops) {
              rho = lambda_r;
              ++stats.reuse_activations;
              if (obs::events_enabled())
                obs::emit(obs::severity::info, "core", "reuse_activated",
                          {{"flow", f.id}, {"rho", rho}});
            } else {
              --rho;
            }
            if (rho < config.rho_t) {
              // The most permissive find_slot already ran (at rho_t, or
              // not at all when the diameter is below rho_t); keep its
              // result and clamp rho so later transmissions of this
              // flow start from a legal hop count.
              rho = config.rho_t;
              break;
            }
          }
          break;
        }
      }

      if (!found) {
        if (obs::events_enabled())
          obs::emit(obs::severity::warning, "core", "flow_rejected",
                    {{"flow", f.id},
                     {"instance", r},
                     {"link_index", tx.link_index}});
        return false;
      }
      if (sched.cell_load(found->slot, found->offset) > 0)
        ++stats.reuse_placements;
      sched.add(tx, found->slot, found->offset);
      ++stats.total_transmissions;
      earliest = found->slot + 1;
    }
  }
  observe_final_rho(rho);
  if (obs::events_enabled())
    obs::emit(obs::severity::info, "core", "flow_admitted",
              {{"flow", f.id},
               {"rho", rho == k_infinite_hops ? -1 : rho},
               {"instances", instances}});
  return true;
}

}  // namespace wsan::core
