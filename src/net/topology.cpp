#include "net/topology.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace excovery::net {

namespace {

std::uint64_t pack_endpoints(NodeId a, NodeId b) noexcept {
  return a < b ? (static_cast<std::uint64_t>(a) << 32) | b
               : (static_cast<std::uint64_t>(b) << 32) | a;
}

/// "n<i>", the generated-topology node name.
std::string node_name(std::size_t i) {
  std::string name = "n";
  name += std::to_string(i);
  return name;
}

}  // namespace

NodeId Topology::add_node(std::string name, std::optional<Address> address) {
  auto id = static_cast<NodeId>(nodes_.size());
  Address addr = address.value_or(Address::for_node(id + 1));
  nodes_.push_back(TopologyNode{std::move(name), addr, 0.0, 0.0});
  return id;
}

NodeId Topology::add_node(std::string name, double x, double y) {
  NodeId id = add_node(std::move(name));
  nodes_[id].x = x;
  nodes_[id].y = y;
  return id;
}

Status Topology::connect(NodeId a, NodeId b, const LinkModel& model) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return err_invalid("link endpoint out of range");
  }
  if (a == b) return err_invalid("self-link not allowed");
  auto [it, inserted] = link_index_.try_emplace(
      pack_endpoints(a, b), static_cast<std::uint32_t>(links_.size()));
  if (!inserted) {
    return err_invalid(strings::format("nodes %u and %u already linked", a, b));
  }
  links_.push_back(Link{a, b, model});
  return {};
}

Result<NodeId> Topology::find(const std::string& name) const {
  // Fold nodes added since the last query into the index (append-only).
  for (; names_indexed_ < nodes_.size(); ++names_indexed_) {
    name_index_.try_emplace(nodes_[names_indexed_].name,
                            static_cast<NodeId>(names_indexed_));
  }
  auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  return err_not_found("no node named '" + name + "'");
}

Result<NodeId> Topology::find(Address address) const {
  for (; addresses_indexed_ < nodes_.size(); ++addresses_indexed_) {
    address_index_.try_emplace(nodes_[addresses_indexed_].address.raw(),
                               static_cast<NodeId>(addresses_indexed_));
  }
  auto it = address_index_.find(address.raw());
  if (it != address_index_.end()) return it->second;
  return err_not_found("no node with address " + address.to_string());
}

std::vector<std::pair<NodeId, const LinkModel*>> Topology::neighbours(
    NodeId id) const {
  std::vector<std::pair<NodeId, const LinkModel*>> out;
  for (const Link& link : links_) {
    if (link.a == id) out.emplace_back(link.b, &link.model);
    if (link.b == id) out.emplace_back(link.a, &link.model);
  }
  return out;
}

std::ptrdiff_t Topology::link_index(NodeId a, NodeId b) const {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) return -1;
  auto it = link_index_.find(pack_endpoints(a, b));
  return it == link_index_.end() ? -1 : static_cast<std::ptrdiff_t>(it->second);
}

const LinkModel* Topology::link_between(NodeId a, NodeId b) const {
  std::ptrdiff_t index = link_index(a, b);
  return index < 0 ? nullptr : &links_[static_cast<std::size_t>(index)].model;
}

LinkModel* Topology::mutable_link_between(NodeId a, NodeId b) {
  std::ptrdiff_t index = link_index(a, b);
  return index < 0 ? nullptr : &links_[static_cast<std::size_t>(index)].model;
}

bool Topology::connected() const {
  if (nodes_.empty()) return true;
  // Flat CSR-style adjacency, built once: the former per-node neighbours()
  // scan made this O(V·E), which dominated mega-scale generation.
  std::vector<std::uint32_t> offset(nodes_.size() + 1, 0);
  for (const Link& link : links_) {
    offset[link.a + 1]++;
    offset[link.b + 1]++;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) offset[i + 1] += offset[i];
  std::vector<NodeId> adjacency(offset[nodes_.size()]);
  std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
  for (const Link& link : links_) {
    adjacency[cursor[link.a]++] = link.b;
    adjacency[cursor[link.b]++] = link.a;
  }
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> frontier;
  frontier.reserve(nodes_.size());
  frontier.push_back(0);
  seen[0] = true;
  std::size_t visited = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    NodeId current = frontier[head];
    for (std::uint32_t i = offset[current]; i < offset[current + 1]; ++i) {
      NodeId next = adjacency[i];
      if (!seen[next]) {
        seen[next] = true;
        ++visited;
        frontier.push_back(next);
      }
    }
  }
  return visited == nodes_.size();
}

Topology Topology::chain(std::size_t length, const LinkModel& model) {
  Topology topo;
  for (std::size_t i = 0; i < length; ++i) {
    topo.add_node(node_name(i), static_cast<double>(i), 0.0);
  }
  for (std::size_t i = 0; i + 1 < length; ++i) {
    (void)topo.connect(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                       model);
  }
  return topo;
}

Topology Topology::grid(std::size_t width, std::size_t height,
                        const LinkModel& model) {
  Topology topo;
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      topo.add_node(node_name(y * width + x), static_cast<double>(x),
                    static_cast<double>(y));
    }
  }
  auto id = [width](std::size_t x, std::size_t y) {
    return static_cast<NodeId>(y * width + x);
  };
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if (x + 1 < width) (void)topo.connect(id(x, y), id(x + 1, y), model);
      if (y + 1 < height) (void)topo.connect(id(x, y), id(x, y + 1), model);
    }
  }
  return topo;
}

Topology Topology::full_mesh(std::size_t size, const LinkModel& model) {
  Topology topo;
  for (std::size_t i = 0; i < size; ++i) {
    topo.add_node(node_name(i));
  }
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = i + 1; j < size; ++j) {
      (void)topo.connect(static_cast<NodeId>(i), static_cast<NodeId>(j),
                         model);
    }
  }
  return topo;
}

Result<Topology> Topology::random_geometric(std::size_t size, double radius,
                                            std::uint64_t seed,
                                            const LinkModel& model) {
  constexpr int kMaxAttempts = 64;
  RngFactory factory(seed);
  // Uniform-grid spatial index: cells at least `radius` wide, so every
  // neighbour of a node lies in its 3x3 cell block.  Cell count is bounded
  // by ~V cells to keep the index O(V) even for tiny radii.
  std::size_t cells_per_axis = 1;
  if (radius > 0.0 && radius < 1.0) {
    auto by_radius = static_cast<std::size_t>(1.0 / radius);
    auto by_nodes = static_cast<std::size_t>(
        std::sqrt(static_cast<double>(std::max<std::size_t>(size, 1)))) + 1;
    cells_per_axis = std::max<std::size_t>(1, std::min(by_radius, by_nodes));
  }
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Pcg32 rng = factory.stream("geometric-topology",
                               static_cast<std::uint64_t>(attempt));
    Topology topo;
    for (std::size_t i = 0; i < size; ++i) {
      topo.add_node(node_name(i), rng.uniform01(), rng.uniform01());
    }
    // Bucket node ids by cell, in id order.
    auto cell_of = [cells_per_axis](double value) {
      auto cell = static_cast<std::size_t>(
          value * static_cast<double>(cells_per_axis));
      return std::min(cell, cells_per_axis - 1);
    };
    std::vector<std::vector<NodeId>> cells(cells_per_axis * cells_per_axis);
    for (std::size_t i = 0; i < size; ++i) {
      cells[cell_of(topo.nodes()[i].y) * cells_per_axis +
            cell_of(topo.nodes()[i].x)]
          .push_back(static_cast<NodeId>(i));
    }
    // For each node, candidates come from the 3x3 cell block; sorting the
    // higher-id candidates reproduces the exact link order (and therefore
    // byte-identical topologies) of the naive `for i { for j > i }` scan.
    std::vector<NodeId> candidates;
    for (std::size_t i = 0; i < size; ++i) {
      const double xi = topo.nodes()[i].x;
      const double yi = topo.nodes()[i].y;
      const std::size_t cx = cell_of(xi);
      const std::size_t cy = cell_of(yi);
      candidates.clear();
      for (std::size_t gy = cy > 0 ? cy - 1 : 0;
           gy <= std::min(cy + 1, cells_per_axis - 1); ++gy) {
        for (std::size_t gx = cx > 0 ? cx - 1 : 0;
             gx <= std::min(cx + 1, cells_per_axis - 1); ++gx) {
          for (NodeId j : cells[gy * cells_per_axis + gx]) {
            if (j > i) candidates.push_back(j);
          }
        }
      }
      std::sort(candidates.begin(), candidates.end());
      for (NodeId j : candidates) {
        double dx = xi - topo.nodes()[j].x;
        double dy = yi - topo.nodes()[j].y;
        if (std::sqrt(dx * dx + dy * dy) <= radius) {
          (void)topo.connect(static_cast<NodeId>(i), j, model);
        }
      }
    }
    if (topo.connected()) return topo;
  }
  return err_invalid(strings::format(
      "could not generate a connected geometric graph (size=%zu radius=%.3f)",
      size, radius));
}

}  // namespace excovery::net
