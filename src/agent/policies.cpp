#include "agent/policies.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "core/app_spec.hpp"
#include "core/placement.hpp"

namespace numashare::agent {

std::vector<Directive> OversubscribedPolicy::decide(const topo::Machine&,
                                                    const std::vector<AppView>& views) {
  std::vector<Directive> out(views.size(), Directive::none());
  if (!cleared_) {
    for (auto& d : out) d = Directive::clear();
    cleared_ = true;
  }
  return out;
}

std::vector<Directive> FairSharePolicy::decide(const topo::Machine& machine,
                                               const std::vector<AppView>& views) {
  std::vector<Directive> out(views.size(), Directive::none());
  if (views.empty()) return out;
  if (issued_ && last_app_count_ == views.size()) return out;

  const auto apps = static_cast<std::uint32_t>(views.size());
  // Round-robin waterfill honouring per-app caps (AppView::thread_cap, set by
  // the compliance watchdog). With everyone uncapped this yields exactly the
  // classic fair split — core_count/apps with the remainder to the first
  // apps — while a capped app's unreachable share flows to its peers instead
  // of idling.
  std::vector<std::uint32_t> totals(apps, 0);
  const auto waterfill = [&](std::uint32_t budget, auto&& grant) {
    while (budget > 0) {
      bool granted = false;
      for (std::uint32_t a = 0; a < apps && budget > 0; ++a) {
        if (totals[a] >= views[a].thread_cap) continue;
        grant(a);
        ++totals[a];
        --budget;
        granted = true;
      }
      if (!granted) break;  // every app capped out; leftover cores idle
    }
  };
  if (flavor_ == Flavor::kTotalThreads) {
    waterfill(machine.core_count(), [](std::uint32_t) {});
    for (std::uint32_t a = 0; a < apps; ++a) {
      out[a] = Directive::total(totals[a]);
    }
  } else {
    std::vector<std::vector<std::uint32_t>> per_node(apps,
                                                     std::vector<std::uint32_t>(machine.node_count()));
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      waterfill(machine.cores_in_node(n), [&](std::uint32_t a) { ++per_node[a][n]; });
    }
    for (std::uint32_t a = 0; a < apps; ++a) {
      out[a] = Directive::per_node(std::move(per_node[a]));
    }
  }
  issued_ = true;
  last_app_count_ = views.size();
  return out;
}

std::vector<Directive> StaticPartitionPolicy::decide(const topo::Machine& machine,
                                                     const std::vector<AppView>& views) {
  NS_REQUIRE(targets_.size() == views.size(), "one target row per app");
  std::vector<Directive> out(views.size(), Directive::none());
  if (issued_) return out;
  for (std::size_t a = 0; a < views.size(); ++a) {
    NS_REQUIRE(targets_[a].size() == machine.node_count(), "one target per node");
    out[a] = Directive::per_node(targets_[a]);
  }
  issued_ = true;
  return out;
}

std::vector<Directive> ProducerConsumerPolicy::decide(const topo::Machine& machine,
                                                      const std::vector<AppView>& views) {
  NS_REQUIRE(options_.producer < views.size() && options_.consumer < views.size(),
             "producer/consumer indices out of range");
  NS_REQUIRE(options_.producer != options_.consumer, "producer must differ from consumer");
  std::vector<Directive> out(views.size(), Directive::none());

  const auto& producer = views[options_.producer];
  const auto& consumer = views[options_.consumer];
  if (!producer.has_telemetry || !consumer.has_telemetry) return out;

  const std::uint32_t cores = machine.core_count();
  if (!initialized_) {
    producer_threads_ = cores / 2;
    consumer_threads_ = cores - producer_threads_;
    initialized_ = true;
    out[options_.producer] = Directive::total(producer_threads_);
    out[options_.consumer] = Directive::total(consumer_threads_);
    return out;
  }

  // The paper's [10] controller: keep the producer "only ahead by a small
  // number of iterations". Shift one thread per tick toward whichever side
  // is falling out of the band — gentle moves favour stability (§V).
  const std::uint64_t produced = producer.latest.progress;
  const std::uint64_t consumed = consumer.latest.progress;
  const std::uint64_t lead = produced > consumed ? produced - consumed : 0;

  std::int32_t shift = 0;  // positive = toward the consumer
  if (lead > options_.max_lead) shift = 1;
  else if (lead < options_.min_lead) shift = -1;
  if (shift == 0) return out;

  const std::uint32_t min_threads = options_.min_threads;
  if (shift > 0 && producer_threads_ > min_threads) {
    --producer_threads_;
    ++consumer_threads_;
  } else if (shift < 0 && consumer_threads_ > min_threads) {
    ++producer_threads_;
    --consumer_threads_;
  } else {
    return out;
  }
  NS_LOG_DEBUG("agent", "producer-consumer lead={} -> producer={} consumer={}", lead,
               producer_threads_, consumer_threads_);
  out[options_.producer] = Directive::total(producer_threads_);
  out[options_.consumer] = Directive::total(consumer_threads_);
  return out;
}

void ModelGuidedPolicy::on_foreign_load(const model::ForeignLoad& load) {
  foreign_ = load;
  // Drift gate vs the load priced into the *last decision* (not the last
  // report): slow creep eventually crosses the threshold and re-searches.
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  const std::size_t nodes = std::max(
      std::max(foreign_.busy_cores.size(), decided_foreign_.busy_cores.size()),
      std::max(foreign_.bandwidth.size(), decided_foreign_.bandwidth.size()));
  for (std::size_t n = 0; n < nodes; ++n) {
    if (std::abs(at(foreign_.busy_cores, n) - at(decided_foreign_.busy_cores, n)) >
            options_.foreign_core_drift ||
        std::abs(at(foreign_.bandwidth, n) - at(decided_foreign_.bandwidth, n)) >
            options_.foreign_bw_drift) {
      foreign_dirty_ = true;
      return;
    }
  }
}

std::vector<Directive> ModelGuidedPolicy::decide(const topo::Machine& machine,
                                                 const std::vector<AppView>& views) {
  std::vector<Directive> out(views.size(), Directive::none());
  // Zero apps is a legal state under dynamic membership (daemon with no
  // clients yet); the optimizer has nothing to do.
  if (views.empty()) return out;

  std::vector<double> ai(views.size(), 0.0);
  for (std::size_t a = 0; a < views.size(); ++a) {
    if (!views[a].has_telemetry || views[a].latest.ai_estimate <= 0.0) {
      return out;  // wait until every app has advertised an AI
    }
    ai[a] = views[a].latest.ai_estimate;
  }

  // A data home that moved changes the problem as much as an AI drift does:
  // the model prices a NUMA-bad app by its home controller.
  std::vector<std::uint32_t> homes(views.size(), kMaxNodes);
  for (std::size_t a = 0; a < views.size(); ++a) {
    const auto home = views[a].latest.data_home_node;
    if (home < machine.node_count()) homes[a] = home;
  }

  if (!last_ai_.empty() && last_ai_.size() == ai.size() && !foreign_dirty_ &&
      homes == last_homes_) {
    bool drifted = false;
    for (std::size_t a = 0; a < ai.size(); ++a) {
      if (std::abs(ai[a] - last_ai_[a]) > options_.ai_drift_threshold * last_ai_[a]) {
        drifted = true;
        break;
      }
    }
    if (!drifted) return out;
  }

  std::vector<model::AppSpec> specs;
  specs.reserve(views.size());
  for (std::size_t a = 0; a < views.size(); ++a) {
    if (homes[a] != kMaxNodes) {
      specs.push_back(model::AppSpec::numa_bad(views[a].name, ai[a], homes[a]));
    } else {
      specs.push_back(model::AppSpec::numa_perfect(views[a].name, ai[a]));
    }
  }

  // Administrative caps from the compliance watchdog. When any client is
  // capped the data-placement advisor is bypassed: a quarantined client is a
  // transient state, not worth migrating data over, and the capped
  // exhaustive search already re-grants the reclaimed cores.
  std::vector<std::uint32_t> caps;
  for (const auto& view : views) {
    if (view.thread_cap != 0xffffffffu) {
      caps.assign(views.size(), 0xffffffffu);
      for (std::size_t a = 0; a < views.size(); ++a) caps[a] = views[a].thread_cap;
      break;
    }
  }

  // A tick is "non-structural" when the problem only moved a little: same
  // membership (enforced by on_membership_change), same advertised homes, no
  // administrative caps or placement co-optimization, and every AI within
  // the structural-drift band of the last *full* search. Those ticks refine
  // the previous allocation with a seeded hill-climb instead of re-running
  // the full pruned enumeration.
  // A foreign-load change is always structural: the whole point of pricing
  // it is to potentially vacate a node, which a seeded local climb from the
  // pre-foreign allocation may not find.
  bool refine = options_.incremental_refine && last_allocation_.has_value() &&
                caps.empty() && !options_.advise_data_placement && !foreign_dirty_ &&
                last_homes_ == homes && last_full_ai_.size() == ai.size() &&
                last_allocation_->app_count() == views.size() &&
                last_allocation_->node_count() == machine.node_count();
  if (refine) {
    for (std::size_t a = 0; a < ai.size(); ++a) {
      if (std::abs(ai[a] - last_full_ai_[a]) >
          options_.structural_ai_drift * last_full_ai_[a]) {
        refine = false;
        break;
      }
    }
  }

  model::Allocation allocation;
  double predicted = 0.0;
  std::vector<std::uint32_t> suggested_home(views.size(), kMaxNodes);
  if (refine) {
    model::RefineOptions refine_options;
    refine_options.objective = options_.objective;
    refine_options.churn_penalty = options_.churn_penalty;
    refine_options.min_threads_per_app = options_.min_threads_per_app;
    refine_options.foreign = foreign_;
    auto result = model::refine_search(machine, specs, *last_allocation_, refine_options);
    allocation = result.allocation;
    predicted = result.solution.total_gflops;
    last_search_kind_ = SearchKind::kRefine;
  } else if (options_.advise_data_placement && caps.empty() && !foreign_.any()) {
    auto joint = model::advise_joint(machine, specs, options_.objective,
                                     options_.min_threads_per_app);
    allocation = joint.allocation;
    predicted = joint.solution.total_gflops;
    for (std::size_t a = 0; a < views.size(); ++a) {
      if (joint.apps[a].placement == model::Placement::kNumaBad &&
          joint.apps[a].home_node != specs[a].home_node) {
        suggested_home[a] = joint.apps[a].home_node;
      }
    }
    last_full_ai_ = ai;
    last_search_kind_ = SearchKind::kFull;
  } else {
    auto result = model::exhaustive_search(machine, specs, options_.objective,
                                           /*require_full=*/true,
                                           options_.min_threads_per_app, caps, foreign_);
    allocation = result.allocation;
    predicted = result.solution.total_gflops;
    if (foreign_.any() && caps.empty()) {
      // Polish: the uniform candidate family cannot express "vacate one
      // node" (every app runs the same count on every node it uses), which
      // is precisely the right answer when a foreign hog occupies a node.
      // A hill-climb seeded from the full-search winner can drop/shift
      // threads off the hogged node; keep it only when it actually wins.
      model::RefineOptions polish;
      polish.objective = options_.objective;
      polish.min_threads_per_app = options_.min_threads_per_app;
      polish.foreign = foreign_;
      auto polished = model::refine_search(machine, specs, allocation, polish);
      if (polished.objective_value > result.objective_value) {
        allocation = polished.allocation;
        predicted = polished.solution.total_gflops;
      }
    }
    last_full_ai_ = ai;
    last_search_kind_ = SearchKind::kFull;
  }
  last_ai_ = ai;
  last_homes_ = homes;
  last_allocation_ = allocation;
  decided_foreign_ = foreign_;
  foreign_dirty_ = false;
  NS_LOG_INFO("agent", "model-guided allocation: {} ({} GFLOPS predicted)",
              allocation.to_string(), predicted);
  for (std::size_t a = 0; a < views.size(); ++a) {
    std::vector<std::uint32_t> per_node(machine.node_count());
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      per_node[n] = allocation.threads(static_cast<model::AppId>(a), n);
    }
    out[a] = Directive::per_node(std::move(per_node));
    out[a].suggested_data_home = suggested_home[a];
  }
  return out;
}

}  // namespace numashare::agent
