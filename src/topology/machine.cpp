#include "topology/machine.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace numashare::topo {

Machine Machine::symmetric(std::uint32_t nodes, std::uint32_t cores_per_node,
                           GFlops core_peak_gflops, GBps node_bandwidth, GBps link_bandwidth,
                           std::string name) {
  NS_REQUIRE(nodes > 0, "machine needs at least one NUMA node");
  NS_REQUIRE(cores_per_node > 0, "NUMA nodes need at least one core");
  Machine machine;
  machine.name_ = std::move(name);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    machine.add_node(cores_per_node, core_peak_gflops, node_bandwidth);
  }
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = 0; b < nodes; ++b) {
      if (a != b) machine.set_link_bandwidth(a, b, link_bandwidth);
    }
  }
  return machine;
}

NodeId Machine::add_node(std::uint32_t core_count, GFlops core_peak_gflops,
                         GBps node_bandwidth, double memory_gb) {
  const auto id = static_cast<NodeId>(nodes_.size());
  NumaNode node;
  node.id = id;
  node.memory_bandwidth = node_bandwidth;
  node.memory_gb = memory_gb;
  for (std::uint32_t c = 0; c < core_count; ++c) {
    const auto core_id = static_cast<CoreId>(cores_.size());
    cores_.push_back(Core{core_id, id, core_peak_gflops});
    node.cores.push_back(core_id);
  }
  nodes_.push_back(std::move(node));
  // Grow the link matrix, preserving existing entries.
  const std::size_t n = nodes_.size();
  std::vector<GBps> grown(n * n, 0.0);
  for (std::size_t a = 0; a + 1 < n; ++a) {
    for (std::size_t b = 0; b + 1 < n; ++b) {
      grown[a * n + b] = links_[a * (n - 1) + b];
    }
  }
  links_ = std::move(grown);
  return id;
}

std::uint32_t Machine::cores_in_node(NodeId node_id) const {
  return static_cast<std::uint32_t>(node(node_id).cores.size());
}

const NumaNode& Machine::node(NodeId id) const {
  NS_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

const Core& Machine::core(CoreId id) const {
  NS_REQUIRE(id < cores_.size(), "core id out of range");
  return cores_[id];
}

GBps Machine::link_bandwidth(NodeId from, NodeId to) const {
  NS_REQUIRE(from < nodes_.size() && to < nodes_.size(), "node id out of range");
  if (from == to) return 0.0;
  return links_[from * nodes_.size() + to];
}

void Machine::set_link_bandwidth(NodeId from, NodeId to, GBps bandwidth) {
  NS_REQUIRE(from < nodes_.size() && to < nodes_.size(), "node id out of range");
  NS_REQUIRE(from != to, "diagonal link entries are fixed at 0");
  NS_REQUIRE(bandwidth >= 0.0, "bandwidth must be non-negative");
  links_[from * nodes_.size() + to] = bandwidth;
}

bool Machine::is_symmetric() const {
  if (nodes_.empty()) return true;
  const auto& first = nodes_.front();
  for (const auto& n : nodes_) {
    if (n.cores.size() != first.cores.size()) return false;
    if (n.memory_bandwidth != first.memory_bandwidth) return false;
  }
  for (const auto& c : cores_) {
    if (c.peak_gflops != cores_.front().peak_gflops) return false;
  }
  return true;
}

GFlops Machine::total_peak_gflops() const {
  GFlops total = 0.0;
  for (const auto& c : cores_) total += c.peak_gflops;
  return total;
}

GBps Machine::total_memory_bandwidth() const {
  GBps total = 0.0;
  for (const auto& n : nodes_) total += n.memory_bandwidth;
  return total;
}

std::string Machine::describe() const {
  std::string out = ns_format("machine '{}': {} NUMA node(s), {} core(s)\n", name_,
                              node_count(), core_count());
  for (const auto& n : nodes_) {
    out += ns_format("  node {}: {} cores, {} GB/s memory bandwidth", n.id, n.cores.size(),
                     fmt_compact(n.memory_bandwidth));
    if (n.memory_gb > 0) out += ns_format(", {} GB installed", fmt_compact(n.memory_gb));
    if (!n.cores.empty()) {
      out += ns_format(", core peak {} GFLOPS", fmt_compact(cores_[n.cores.front()].peak_gflops, 4));
    }
    out += "\n";
  }
  if (node_count() > 1) {
    out += "  link bandwidth (GB/s, row=from, col=to):\n";
    for (NodeId a = 0; a < node_count(); ++a) {
      out += "   ";
      for (NodeId b = 0; b < node_count(); ++b) {
        out += ' ';
        out += fmt_compact(a == b ? 0.0 : link_bandwidth(a, b));
      }
      out += "\n";
    }
  }
  return out;
}

bool Machine::validate(std::string* error) const {
  const auto fail = [&](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };
  if (nodes_.empty()) return fail("machine has no NUMA nodes");
  std::vector<int> seen(cores_.size(), 0);
  for (const auto& n : nodes_) {
    if (n.memory_bandwidth < 0) return fail("negative node bandwidth");
    if (n.cores.empty()) return fail(ns_format("node {} has no cores", n.id));
    for (auto c : n.cores) {
      if (c >= cores_.size()) return fail("core id out of range");
      if (cores_[c].node != n.id) return fail("core/node membership mismatch");
      if (++seen[c] > 1) return fail("core listed in two nodes");
    }
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    if (seen[c] == 0) return fail(ns_format("core {} belongs to no node", c));
    if (cores_[c].peak_gflops < 0) return fail("negative core peak");
    if (cores_[c].id != c) return fail("core ids must be dense and ordered");
  }
  for (auto l : links_) {
    if (l < 0 || std::isnan(l)) return fail("invalid link bandwidth");
  }
  return true;
}

}  // namespace numashare::topo
