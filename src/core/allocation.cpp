#include "core/allocation.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace numashare::model {

Allocation::Allocation(std::uint32_t apps, std::uint32_t nodes)
    : apps_(apps), nodes_(apps == 0 ? 0 : nodes), counts_(std::size_t{apps} * nodes_, 0) {}

Allocation Allocation::from_matrix(std::vector<std::vector<std::uint32_t>> threads) {
  NS_REQUIRE(!threads.empty(), "allocation needs at least one app");
  const std::size_t nodes = threads.front().size();
  for (const auto& row : threads) {
    NS_REQUIRE(row.size() == nodes, "ragged allocation matrix");
  }
  Allocation allocation(static_cast<std::uint32_t>(threads.size()),
                        static_cast<std::uint32_t>(nodes));
  for (AppId a = 0; a < allocation.apps_; ++a) {
    std::copy(threads[a].begin(), threads[a].end(), allocation.counts_.begin() + a * nodes);
  }
  return allocation;
}

Allocation Allocation::even(const topo::Machine& machine, std::uint32_t apps) {
  NS_REQUIRE(apps > 0, "need at least one app");
  Allocation allocation(apps, machine.node_count());
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    const std::uint32_t share = machine.cores_in_node(n) / apps;
    for (AppId a = 0; a < apps; ++a) allocation.set_threads(a, n, share);
  }
  return allocation;
}

Allocation Allocation::uniform_per_node(const topo::Machine& machine,
                                        std::vector<std::uint32_t> per_node_counts) {
  NS_REQUIRE(!per_node_counts.empty(), "need at least one app");
  Allocation allocation(static_cast<std::uint32_t>(per_node_counts.size()),
                        machine.node_count());
  for (AppId a = 0; a < per_node_counts.size(); ++a) {
    for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
      allocation.set_threads(a, n, per_node_counts[a]);
    }
  }
  return allocation;
}

Allocation Allocation::node_per_app(const topo::Machine& machine,
                                    std::vector<topo::NodeId> order) {
  NS_REQUIRE(order.size() == machine.node_count(),
             "node_per_app needs exactly one node per app");
  Allocation allocation(static_cast<std::uint32_t>(order.size()), machine.node_count());
  for (AppId a = 0; a < order.size(); ++a) {
    const topo::NodeId n = order[a];
    allocation.set_threads(a, n, machine.cores_in_node(n));
  }
  return allocation;
}

std::uint32_t Allocation::threads(AppId app, topo::NodeId node) const {
  NS_REQUIRE(app < apps_, "app id out of range");
  NS_REQUIRE(node < nodes_, "node id out of range");
  return counts_[app * nodes_ + node];
}

void Allocation::set_threads(AppId app, topo::NodeId node, std::uint32_t count) {
  NS_REQUIRE(app < apps_, "app id out of range");
  NS_REQUIRE(node < nodes_, "node id out of range");
  counts_[app * nodes_ + node] = count;
}

std::uint32_t Allocation::app_total(AppId app) const {
  NS_REQUIRE(app < apps_, "app id out of range");
  const auto row = counts_.begin() + app * nodes_;
  return std::accumulate(row, row + nodes_, 0u);
}

std::uint32_t Allocation::node_total(topo::NodeId node) const {
  NS_REQUIRE(apps_ == 0 || node < nodes_, "node id out of range");
  std::uint32_t total = 0;
  for (AppId a = 0; a < apps_; ++a) total += counts_[a * nodes_ + node];
  return total;
}

std::uint32_t Allocation::total() const {
  return std::accumulate(counts_.begin(), counts_.end(), 0u);
}

bool Allocation::validate(const topo::Machine& machine, std::string* error) const {
  const auto fail = [&](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  if (apps_ == 0) return fail("no apps in allocation");
  if (node_count() != machine.node_count()) {
    return fail(ns_format("allocation has {} nodes, machine has {}", node_count(),
                          machine.node_count()));
  }
  for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
    const std::uint32_t used = node_total(n);
    const std::uint32_t cores = machine.cores_in_node(n);
    if (used > cores) {
      return fail(ns_format("node {} oversubscribed: {} threads on {} cores", n, used, cores));
    }
  }
  return true;
}

std::string Allocation::to_string() const {
  std::string out;
  for (AppId a = 0; a < app_count(); ++a) {
    if (a) out += " ";
    out += ns_format("app{}:[", a);
    for (topo::NodeId n = 0; n < node_count(); ++n) {
      if (n) out += " ";
      out += ns_format("{}", counts_[a * nodes_ + n]);
    }
    out += "]";
  }
  return out;
}

}  // namespace numashare::model
