#include "core/dominating_tree.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>
#include <utility>

#include "obs/obs.hpp"

namespace remspan {

namespace {

/// Bits set in w, in the SWAR form. std::popcount on the default x86-64
/// target (no POPCNT) is an out-of-line libgcc call per word, which the
/// cover scan cannot afford; this inlines to a dozen ALU ops, and GCC turns
/// it back into the POPCNT instruction when the target has one.
[[nodiscard]] constexpr std::uint32_t popcount64(std::uint64_t w) noexcept {
  w -= (w >> 1) & 0x5555555555555555U;
  w = (w & 0x3333333333333333U) + ((w >> 2) & 0x3333333333333333U);
  w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FU;
  return static_cast<std::uint32_t>((w * 0x0101010101010101U) >> 56);
}

}  // namespace

DomTreeBuilder::DomTreeBuilder(const Graph& g)
    : g_(&g),
      bfs_(g.num_nodes()),
      in_s_(g.num_nodes(), 0),
      in_x_(g.num_nodes(), 0),
      rem_(g.num_nodes(), 0),
      branches_(g.num_nodes()),
      nbr_u_(g.num_nodes(), 0),
      slot_(g.num_nodes(), 0) {}

void DomTreeBuilder::rebind(const Graph& g) {
  REMSPAN_CHECK(g.num_nodes() == static_cast<NodeId>(in_s_.size()));
  g_ = &g;
}

void DomTreeBuilder::add_parent_chain(RootedTree& tree, NodeId x) {
  // Collect the BFS ancestors of x that are not yet in the tree, then attach
  // them top-down. Because every chain comes from the same root BFS, the
  // union stays a tree and d_T(root, x) = d_G(root, x).
  NodeId chain[64];
  std::size_t len = 0;
  while (!tree.contains(x)) {
    REMSPAN_CHECK(len < 64);
    chain[len++] = x;
    x = bfs_.parent(x);
    REMSPAN_CHECK(x != kInvalidNode);
  }
  while (len > 0) {
    const NodeId child = chain[--len];
    tree.add_child(x, child, bfs_.parent_edge(child));
    x = child;
  }
}

void DomTreeBuilder::publish_stats(const RootedTree& tree) {
  // Always drained, so a sink installed mid-process starts from zero
  // instead of inheriting tallies of builds it never saw.
  const std::uint64_t picks = std::exchange(stat_picks_, 0);
  const std::uint64_t evals = std::exchange(stat_cover_evals_, 0);
  if (obs::Registry* m = obs::metrics()) {
    obs::ThreadCells& cells = m->local();
    cells.add(obs::Metric::kDomtreeBuilds, 1);
    cells.add(obs::Metric::kDomtreeHeapPops, picks);
    cells.add(obs::Metric::kDomtreeCoverTouches, evals);
    cells.record(obs::Metric::kDomtreeTreeEdges, tree.num_edges());
  }
}

void DomTreeBuilder::reset_flags() {
  for (const NodeId v : bfs_.order()) {
    in_s_[v] = 0;
    in_x_[v] = 0;
    rem_[v] = 0;
    branches_[v].clear();
    nbr_u_[v] = 0;
  }
}

template <std::size_t kWords>
void DomTreeBuilder::cover_words(std::span<const NodeId> target,
                                 std::span<const NodeId> candidates, Dist k) {
  const std::size_t w = kWords != 0 ? kWords : (target.size() + 63) / 64;
  alive_.assign(w, 0);
  for (std::size_t i = 0; i < target.size(); ++i) {
    slot_[target[i]] = static_cast<std::uint32_t>(i + 1);
    alive_[i / 64] |= std::uint64_t{1} << (i % 64);
  }

  // One mask per candidate, built branch-free: a node outside S (slot 0)
  // ORs a zero bit into word 0, so the ~50/50 shell-membership test never
  // costs a misprediction. A candidate covering nothing is never stored.
  cand_.clear();
  cand_.reserve(candidates.size());
  masks_.resize(candidates.size() * w);
  for (const NodeId x : candidates) {
    std::uint64_t* mask = masks_.data() + cand_.size() * w;
    std::fill_n(mask, w, 0);
    std::uint64_t any = 0;
    const auto mark = [&](NodeId v) {
      const std::uint32_t s = slot_[v];
      const std::uint32_t i = s - 1 + static_cast<std::uint32_t>(s == 0);
      const std::uint64_t bit = std::uint64_t{s != 0} << (i % 64);
      mask[kWords == 1 ? 0 : i / 64] |= bit;
      any |= bit;
    };
    mark(x);
    for (const NodeId y : g_->neighbors(x)) mark(y);
    if (any != 0) cand_.push_back(x);
  }

  std::size_t left = target.size();
  if (k > 1) {
    need_.assign(left, k);
    reach_.assign(left, 0);
    for (std::size_t i = 0; i < cand_.size() * w; ++i) {
      for (std::uint64_t bits = masks_[i]; bits != 0; bits &= bits - 1) {
        ++reach_[(i % w) * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      }
    }
  }
  picks_.clear();
  while (left > 0) {
    // Greedy set-cover pick: the candidate covering the most live slots,
    // ties to the smallest id — the largest (cover, ~id) key. The same
    // branch-free pass compacts away candidates whose cover reached zero
    // (covers never grow, so they can never be picked).
    std::uint64_t best_key = 0;
    std::size_t best = 0;
    std::size_t kept = 0;
    stat_cover_evals_ += cand_.size();
    for (std::size_t c = 0; c < cand_.size(); ++c) {
      const std::uint64_t* mask = masks_.data() + c * w;
      std::uint32_t cover = 0;
      for (std::size_t i = 0; i < w; ++i) cover += popcount64(mask[i] & alive_[i]);
      const NodeId x = cand_[c];
      const std::uint64_t key = (std::uint64_t{cover} << 32) | static_cast<std::uint32_t>(~x);
      if (key > best_key) {
        best_key = key;
        best = kept;
      }
      cand_[kept] = x;
      std::uint64_t* dst = masks_.data() + kept * w;
      for (std::size_t i = 0; i < w; ++i) dst[i] = mask[i];
      kept += cover != 0 ? 1 : 0;
    }
    cand_.resize(kept);
    const auto best_cover = static_cast<std::uint32_t>(best_key >> 32);
    // Every live slot keeps an unpicked candidate reaching it (its BFS
    // predecessor, or by the k >= 2 reach rule), so the greedy never stalls
    // (Proposition 2's argument).
    REMSPAN_CHECK(best_cover > 0);
    ++stat_picks_;
    picks_.push_back(cand_[best]);
    std::uint64_t* mask = masks_.data() + best * w;
    if (k == 1) {
      for (std::size_t i = 0; i < w; ++i) alive_[i] &= ~mask[i];
      left -= best_cover;
    } else {
      for (std::size_t i = 0; i < w; ++i) {
        for (std::uint64_t bits = mask[i] & alive_[i]; bits != 0; bits &= bits - 1) {
          const int b = std::countr_zero(bits);
          const std::size_t s = i * 64 + static_cast<std::size_t>(b);
          // Covered k times, or no unpicked candidate reaches it any more.
          if (--need_[s] == 0 || --reach_[s] == 0) {
            alive_[i] &= ~(std::uint64_t{1} << b);
            --left;
          }
        }
      }
    }
    std::fill_n(mask, w, 0);  // picked: the next pass drops it
  }
  for (const NodeId v : target) slot_[v] = 0;
}

void DomTreeBuilder::select_cover(std::span<const NodeId> target,
                                  std::span<const NodeId> candidates, Dist k) {
  // Shells of at most 64 nodes — every root of a unit-disk graph at
  // benchmark density — compile the same body with the width fixed at one.
  if (target.size() <= 64) {
    cover_words<1>(target, candidates, k);
  } else {
    cover_words<0>(target, candidates, k);
  }
}

RootedTree DomTreeBuilder::greedy(NodeId u, Dist r, Dist beta) {
  REMSPAN_CHECK(r >= 2);
  RootedTree tree(u);
  const Dist depth_needed = std::max(r, r - 1 + beta);
  bfs_.run(GraphView(*g_), u, depth_needed);

  for (Dist shell = 2; shell <= r; ++shell) {
    // S := nodes at distance exactly `shell` — one contiguous BFS slice;
    // X := nodes in the distance range [shell-1, shell-1+beta], each
    // covering ({x} ∪ N(x)) ∩ S.
    const auto s_nodes = bfs_.shell(shell);
    if (s_nodes.empty()) continue;
    // Clamp the candidate range to shells that exist: shells past the ball's
    // eccentricity are empty, and a huge beta must not spin over them.
    const Dist x_hi = static_cast<Dist>(std::min<std::uint64_t>(
        std::uint64_t{shell} - 1 + beta, bfs_.num_shells() - 1));
    // Shells are contiguous in the BFS order, so X is one slice of it.
    const auto x_lo_shell = bfs_.shell(shell - 1);
    const auto x_hi_shell = bfs_.shell(x_hi);
    select_cover(s_nodes, {x_lo_shell.data(), x_hi_shell.data() + x_hi_shell.size()}, 1);
    for (const NodeId x : picks_) add_parent_chain(tree, x);
  }
  publish_stats(tree);
  return tree;
}

RootedTree DomTreeBuilder::mis(NodeId u, Dist r) {
  REMSPAN_CHECK(r >= 2);
  RootedTree tree(u);
  bfs_.run(GraphView(*g_), u, r);

  // B := B(u, r) \ B(u, 1), processed by (distance, id): shells are
  // contiguous slices of the BFS order, so sorting each shell by id — far
  // cheaper than one global sort of the ball — yields the deterministic
  // "pick x at minimal distance" order of Algorithm 2.
  const Dist num_shells = bfs_.num_shells();
  for (Dist d = 2; d < num_shells; ++d) {
    for (const NodeId v : bfs_.shell(d)) in_s_[v] = 1;
  }
  for (Dist d = 2; d < num_shells; ++d) {
    const auto sh = bfs_.shell(d);
    shell_sorted_.assign(sh.begin(), sh.end());
    std::sort(shell_sorted_.begin(), shell_sorted_.end());
    for (const NodeId x : shell_sorted_) {
      if (in_s_[x] == 0) continue;
      // x is the remaining node of B at minimal distance: add it to the MIS.
      add_parent_chain(tree, x);
      in_s_[x] = 0;
      for (const NodeId y : g_->neighbors(x)) in_s_[y] = 0;
    }
  }
  reset_flags();
  publish_stats(tree);
  return tree;
}

RootedTree DomTreeBuilder::greedy_k(NodeId u, Dist k) {
  REMSPAN_CHECK(k >= 1);
  RootedTree tree(u);
  bfs_.run(GraphView(*g_), u, 2);

  // S := distance-2 shell, covered by relay candidates x ∈ N(u), each
  // covering N(x) ∩ S. A shell node needs k relays, or every common
  // neighbor it has with u.
  select_cover(bfs_.shell(2), g_->neighbors(u), k);
  for (const NodeId x : picks_) tree.add_child(u, x, bfs_.parent_edge(x));
  publish_stats(tree);
  return tree;
}

RootedTree DomTreeBuilder::mis_k(NodeId u, Dist k) {
  REMSPAN_CHECK(k >= 1);
  RootedTree tree(u);
  bfs_.run(GraphView(*g_), u, 2);

  // S := distance-2 shell (kept in id order for deterministic picks);
  // rem_[v] = |(N(v) ∩ N(u)) \ V(T)|; branches_[v] = distinct tree branches
  // holding a neighbor of v within depth 2.
  const auto s_nodes = bfs_.shell(2);
  std::size_t s_count = s_nodes.size();
  for (const NodeId v : s_nodes) in_s_[v] = 1;
  shell_sorted_.assign(s_nodes.begin(), s_nodes.end());
  std::sort(shell_sorted_.begin(), shell_sorted_.end());
  const auto& shell = shell_sorted_;
  for (const NodeId x : g_->neighbors(u)) {
    nbr_u_[x] = 1;
    for (const NodeId y : g_->neighbors(x)) {
      if (in_s_[y] != 0) ++rem_[y];
    }
  }

  // Attaches `node` under `parent` and updates the shell bookkeeping: a
  // node entering V(T) extends the branch sets of its shell neighbors and,
  // when it is a neighbor of u, consumes one "available common neighbor"
  // from each adjacent shell node.
  auto attach = [&](NodeId parent, NodeId node) {
    // The BFS discovered node through some distance-1 predecessor; when it is
    // not the requested parent (mis_k attaches x under its fresh common
    // neighbor ys[0]), fall back to one adjacency lookup.
    const EdgeId pe = bfs_.parent(node) == parent ? bfs_.parent_edge(node)
                                                  : g_->find_edge(parent, node);
    tree.add_child(parent, node, pe);
    const NodeId branch = tree.branch(node);
    const bool depth_one = tree.depth(node) == 1;
    for (const NodeId w : g_->neighbors(node)) {
      if (in_s_[w] == 0) continue;
      if (depth_one) --rem_[w];
      auto& br = branches_[w];
      if (std::find(br.begin(), br.end(), branch) == br.end()) br.push_back(branch);
      if (rem_[w] == 0 || br.size() >= k) {
        in_s_[w] = 0;
        --s_count;
      }
    }
  };

  std::vector<NodeId> ys;
  for (Dist round = 1; round <= k && s_count > 0; ++round) {
    // X := S at round start.
    for (const NodeId v : shell) in_x_[v] = in_s_[v];
    for (const NodeId x : shell) {
      if (s_count == 0) break;
      if (in_x_[x] == 0 || in_s_[x] == 0) continue;
      // Pick x into this round's MIS. Its available common neighbors with u
      // are fresh depth-1 attachment points. N(u) membership is a flag load
      // (nbr_u_ was marked once at tree start), not an O(log deg) adjacency
      // search per neighbor of every pick.
      ys.clear();
      for (const NodeId y : g_->neighbors(x)) {
        if (nbr_u_[y] != 0 && !tree.contains(y)) ys.push_back(y);
      }
      // x in S implies rem_[x] > 0, so at least one attachment point exists.
      REMSPAN_CHECK(!ys.empty());
      const std::size_t count = std::min<std::size_t>(k, ys.size());
      attach(u, ys[0]);
      // x may have been removed from S by attaching ys[0]; it still enters
      // the tree (its own branch can dominate other shell nodes).
      attach(ys[0], x);
      for (std::size_t i = 1; i < count; ++i) attach(u, ys[i]);
      // X := X \ B(x, 1).
      in_x_[x] = 0;
      for (const NodeId y : g_->neighbors(x)) in_x_[y] = 0;
    }
  }
  // Proposition 7: k rounds of MIS domination always empty the shell.
  REMSPAN_CHECK(s_count == 0);
  reset_flags();
  publish_stats(tree);
  return tree;
}

bool is_dominating_tree(const Graph& g, const RootedTree& tree, Dist r, Dist beta) {
  if (!tree_is_valid_subgraph(g, tree)) return false;
  const NodeId u = tree.root();
  const auto dist = bfs_distances(GraphView(g), u, r);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Dist d = dist[v];
    if (d < 2 || d > r || d == kUnreachable) continue;
    bool dominated = false;
    for (const NodeId x : g.neighbors(v)) {
      const Dist depth = tree.depth(x);
      if (depth != kUnreachable && depth <= d - 1 + beta) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

bool is_k_connecting_dominating_tree(const Graph& g, const RootedTree& tree, Dist k,
                                     Dist beta) {
  if (!tree_is_valid_subgraph(g, tree)) return false;
  const NodeId u = tree.root();
  const auto dist = bfs_distances(GraphView(g), u, 2);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] != 2) continue;
    // Alternative A: every common neighbor of u and v is attached by a root
    // edge of the tree.
    bool all_attached = true;
    for (const NodeId w : g.neighbors(v)) {
      if (g.has_edge(u, w) && tree.depth(w) != 1) {
        all_attached = false;
        break;
      }
    }
    if (all_attached) continue;
    // Alternative B: k neighbors of v within tree depth 1 + beta on k
    // distinct branches (their root paths share only the root).
    std::unordered_set<NodeId> branches;
    for (const NodeId w : g.neighbors(v)) {
      const Dist depth = tree.depth(w);
      if (depth >= 1 && depth != kUnreachable && depth <= 1 + beta) {
        branches.insert(tree.branch(w));
      }
    }
    if (branches.size() < k) return false;
  }
  return true;
}

bool tree_is_valid_subgraph(const Graph& g, const RootedTree& tree) {
  for (const NodeId v : tree.nodes()) {
    if (v == tree.root()) {
      REMSPAN_CHECK(tree.depth(v) == 0);
      continue;
    }
    const NodeId p = tree.parent(v);
    if (!g.has_edge(p, v)) return false;
    REMSPAN_CHECK(tree.depth(v) == tree.depth(p) + 1);
  }
  return true;
}

}  // namespace remspan
