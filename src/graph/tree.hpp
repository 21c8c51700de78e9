// RootedTree: the in-memory form of the paper's dominating trees. A tree
// sub-graph of G rooted at u, grown by attaching BFS-parent chains. Tracks
// depth and the depth-1 branch of every member, which is what the
// k-connecting dominating-tree conditions are expressed in (disjoint tree
// paths from the root share only the root iff they live in distinct
// branches).
//
// Membership lives in an insert-only open-addressing table rather than
// std::unordered_map: a build constructs one tree per root (10^7 of them at
// scale), and the node-per-allocation map made tree bookkeeping a visible
// slice of every engine's per-root constant. The flat table costs one
// allocation per tree (amortized) and a couple of probes per lookup.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/prelude.hpp"

namespace remspan {

class RootedTree {
 public:
  explicit RootedTree(NodeId root)
      : root_(root), slots_(kInitialSlots, Slot{kInvalidNode, Info{}}) {
    nodes_.reserve(kInitialSlots / 2);
    nodes_.push_back(root);
    insert(root, Info{kInvalidNode, 0, kInvalidNode, kInvalidEdge});
  }

  [[nodiscard]] NodeId root() const noexcept { return root_; }
  [[nodiscard]] bool contains(NodeId v) const { return find(v) != nullptr; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return nodes_.size() - 1; }

  /// Depth of v in the tree (kUnreachable when absent). d_T(root, v) == depth.
  [[nodiscard]] Dist depth(NodeId v) const {
    const Info* info = find(v);
    return info == nullptr ? kUnreachable : info->depth;
  }

  [[nodiscard]] NodeId parent(NodeId v) const {
    const Info* info = find(v);
    return info == nullptr ? kInvalidNode : info->parent;
  }

  /// Graph edge id of {parent(v), v} as recorded at add_child time
  /// (kInvalidEdge for the root, absent nodes, and graph-less trees). Lets
  /// the union engine OR tree edges into the spanner bitset with no adjacency
  /// search.
  [[nodiscard]] EdgeId parent_edge(NodeId v) const {
    const Info* info = find(v);
    return info == nullptr ? kInvalidEdge : info->parent_edge;
  }

  /// The child of the root on the path root -> v; kInvalidNode for the root
  /// itself or absent nodes. Two members have internally disjoint root paths
  /// iff their branches differ.
  [[nodiscard]] NodeId branch(NodeId v) const {
    const Info* info = find(v);
    return info == nullptr ? kInvalidNode : info->branch;
  }

  /// Attaches v as a child of p (p must already be in the tree). If v is
  /// already present it must have the same parent; conflicting attachments
  /// indicate an algorithmic bug and trip a check. `edge` is the id of
  /// {p, v} in the underlying Graph when the caller knows it (the BFS that
  /// discovered v records it); kInvalidEdge for trees built without a graph.
  void add_child(NodeId p, NodeId v, EdgeId edge = kInvalidEdge) {
    const Info* pinfo = find(p);
    REMSPAN_CHECK(pinfo != nullptr);
    const Info* vinfo = find(v);
    if (vinfo != nullptr) {
      REMSPAN_CHECK(vinfo->parent == p);
      return;
    }
    Info info;
    info.parent = p;
    info.depth = pinfo->depth + 1;
    info.branch = (p == root_) ? v : pinfo->branch;
    info.parent_edge = edge;
    insert(v, info);  // copies of pinfo's fields taken above: insert may rehash
    nodes_.push_back(v);
  }

  /// Members in insertion order (root first).
  [[nodiscard]] const std::vector<NodeId>& nodes() const noexcept { return nodes_; }

  /// Tree edges as canonical graph edges.
  [[nodiscard]] std::vector<Edge> edges() const {
    std::vector<Edge> out;
    out.reserve(num_edges());
    for (const NodeId v : nodes_) {
      if (v == root_) continue;
      out.push_back(make_edge(v, find(v)->parent));
    }
    return out;
  }

 private:
  struct Info {
    NodeId parent;
    Dist depth;
    NodeId branch;
    EdgeId parent_edge;
  };
  /// key == kInvalidNode marks an empty slot; graph node ids are strictly
  /// below the sentinel (check_graph_limits), so no member can collide.
  struct Slot {
    NodeId key;
    Info info;
  };

  static constexpr std::size_t kInitialSlots = 16;  // power of two

  [[nodiscard]] static std::size_t hash(NodeId v) noexcept {
    std::uint32_t h = v * UINT32_C(0x9E3779B9);  // Fibonacci mixing
    h ^= h >> 16;
    return h;
  }

  [[nodiscard]] const Info* find(NodeId v) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(v) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key == v) return &s.info;
      if (s.key == kInvalidNode) return nullptr;
    }
  }

  /// Inserts a key known to be absent, growing first when the table would
  /// pass half load (keeps probe chains a couple of slots long).
  void insert(NodeId v, const Info& info) {
    if ((entries_ + 1) * 2 > slots_.size()) {
      std::vector<Slot> old(slots_.size() * 2, Slot{kInvalidNode, Info{}});
      old.swap(slots_);
      const std::size_t mask = slots_.size() - 1;
      for (const Slot& s : old) {
        if (s.key == kInvalidNode) continue;
        std::size_t i = hash(s.key) & mask;
        while (slots_[i].key != kInvalidNode) i = (i + 1) & mask;
        slots_[i] = s;
      }
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(v) & mask;
    while (slots_[i].key != kInvalidNode) i = (i + 1) & mask;
    slots_[i] = Slot{v, info};
    ++entries_;
  }

  NodeId root_;
  std::vector<NodeId> nodes_;
  std::vector<Slot> slots_;
  std::size_t entries_ = 0;
};

}  // namespace remspan
