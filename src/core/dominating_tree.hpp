// The paper's four dominating-tree algorithms (Sections 2.2 and 3.3), one
// per-root builder each:
//
//   greedy(u, r, beta)  — Algorithm 1, DomTreeGdy_{r,beta}: for each shell
//       distance r' = 2..r, greedily set-covers the shell with balls of
//       candidates in the [r'-1, r'-1+beta] range. Within
//       (1+beta)(r+beta-1)(1+log Delta) of the optimal tree (Prop. 2).
//   mis(u, r)           — Algorithm 2, DomTreeMIS_{r,1}: grows a maximal
//       independent set of B(u,r)\B(u,1) by increasing distance; O(r^{p+1})
//       edges on doubling unit ball graphs (Prop. 3).
//   greedy_k(u, k)      — Algorithm 4, DomTreeGdy_{2,0,k}: greedy k-cover of
//       the distance-2 shell by neighbors of u; within 1+log Delta of
//       optimal (Prop. 6). Generalizes OLSR multipoint-relay selection.
//   mis_k(u, k)         — Algorithm 5, DomTreeMIS_{2,1,k}: k rounds of MIS
//       over the distance-2 shell, attaching each pick through fresh common
//       neighbors; O(k^2) edges on doubling UBGs (Prop. 7).
//
// All four attach nodes through BFS-parent chains of the same root BFS, so
// each result is a genuine tree with d_T(u,x) = d_G(u,x).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "graph/tree.hpp"
#include "util/prelude.hpp"

namespace remspan {

/// Reusable per-thread builder: all scratch arrays are kept between calls
/// and reset in O(|ball|) so building trees for every root of a graph costs
/// the sum of local work, not n times global resets.
///
/// The greedy set-cover picks (greedy / greedy_k) share one word-parallel
/// kernel (select_cover). Each call gives its cover target S (the distance-2
/// shell, or greedy's current shell) dense slots 0..|S|-1 and stores one
/// bitmask per candidate x: N(x) ∩ S, plus x itself when x ∈ S. A pick is
/// then the candidate maximizing popcount(mask & alive) over ceil(|S|/64)
/// words — one word for every shell of at most 64 nodes — with ties broken
/// on smallest id. Covers only shrink within a round, so a candidate whose
/// count reaches zero is dropped for good. Every pick, and therefore every
/// tree, is bit-identical to the quadratic reference scan
/// (test_domtree_equivalence.cpp pins this down, wide shells included).
class DomTreeBuilder {
 public:
  explicit DomTreeBuilder(const Graph& g);

  /// Re-targets the builder at a new graph over the same node universe
  /// (num_nodes must match — all scratch arrays are sized by it), so a
  /// caller rebuilding roots against a sequence of snapshots (perfbench's
  /// traced dynamic replay) keeps its O(n) scratch across them.
  void rebind(const Graph& g);

  /// Algorithm 1: (r, beta)-dominating tree for u. Requires r >= 2.
  [[nodiscard]] RootedTree greedy(NodeId u, Dist r, Dist beta);

  /// Algorithm 2: (r, 1)-dominating tree for u. Requires r >= 2.
  [[nodiscard]] RootedTree mis(NodeId u, Dist r);

  /// Algorithm 4: k-connecting (2, 0)-dominating tree for u (k >= 1). For
  /// k = 1 this is exactly an OLSR multipoint-relay set with its links.
  [[nodiscard]] RootedTree greedy_k(NodeId u, Dist k);

  /// Algorithm 5: k-connecting (2, 1)-dominating tree for u (k >= 1).
  [[nodiscard]] RootedTree mis_k(NodeId u, Dist k);

 private:
  /// Adds the BFS-parent chain from x up to the first node already in the
  /// tree. Requires x to be reached by the last bfs_ run from tree.root().
  void add_parent_chain(RootedTree& tree, NodeId x);

  /// Clears mis / mis_k's per-node flags for every node the last BFS
  /// touched. The greedy builders keep no per-node state but slot_, which
  /// select_cover releases itself.
  void reset_flags();

  /// Adds the whole-build tallies (greedy picks, candidate-cover
  /// evaluations) into the installed metrics sink and zeroes them. The
  /// tallies themselves are plain members bumped unconditionally — the
  /// sink branch happens once per tree build, not per pick.
  void publish_stats(const RootedTree& tree);

  /// Greedy k-cover of `target` (the cover target S) by `candidates`:
  /// candidate x covers N(x) ∩ S, plus x itself when x ∈ S. Repeatedly
  /// picks the unpicked candidate covering the most live slots (smallest id
  /// on ties) into picks_, in pick order, until S is empty. k = 1 retires
  /// every slot the pick covers; k >= 2 retires a slot once it is covered
  /// k times or once no unpicked candidate reaches it, so the live set is
  /// S minus the k-covered slots, intersected with the union of the
  /// unpicked masks.
  void select_cover(std::span<const NodeId> target, std::span<const NodeId> candidates,
                    Dist k);

  /// select_cover's body for masks of kWords words (0: ceil(|S| / 64),
  /// read at run time).
  template <std::size_t kWords>
  void cover_words(std::span<const NodeId> target, std::span<const NodeId> candidates,
                   Dist k);

  const Graph* g_;
  BoundedBfs bfs_;
  // in_s_: node still needs covering (mis, mis_k); in_x_: mis_k's round
  // candidates; rem_: mis_k's available common neighbors per shell node;
  // branches_: distinct tree branches adjacent to a shell node (mis_k).
  std::vector<std::uint8_t> in_s_;
  std::vector<std::uint8_t> in_x_;
  std::vector<Dist> rem_;
  std::vector<std::vector<NodeId>> branches_;
  // nbr_u_: marks N(root) so mis_k's attach-point test is an O(1) flag
  // load instead of a per-neighbor adjacency search.
  std::vector<std::uint8_t> nbr_u_;
  // shell_sorted_: per-shell id-order scratch (mis, mis_k).
  std::vector<NodeId> shell_sorted_;

  // Set-cover kernel scratch (select_cover). slot_[v] is 1 + v's slot in
  // the target S, 0 outside it; masks_ holds one mask per candidate,
  // parallel to cand_; alive_ marks the slots still to cover. need_ (covers
  // still missing) and reach_ (unpicked candidates still reaching the slot)
  // are per-slot counters for k >= 2.
  std::vector<std::uint32_t> slot_;
  std::vector<NodeId> cand_;
  std::vector<std::uint64_t> masks_;
  std::vector<std::uint64_t> alive_;
  std::vector<Dist> need_;
  std::vector<Dist> reach_;
  std::vector<NodeId> picks_;

  // Whole-build observability tallies (see publish_stats).
  std::uint64_t stat_picks_ = 0;
  std::uint64_t stat_cover_evals_ = 0;
};

// --- property checkers (used by tests and the approximation benches) -------

/// Exhaustively checks the (r,beta)-dominating-tree condition: every v with
/// 2 <= d_G(u,v) = r' <= r has a neighbor x in V(T) with
/// d_T(u,x) <= r' - 1 + beta.
[[nodiscard]] bool is_dominating_tree(const Graph& g, const RootedTree& tree, Dist r, Dist beta);

/// Checks the k-connecting (2,beta)-dominating-tree condition: every v at
/// distance 2 from the root either has all common neighbors attached as
/// root edges, or has k neighbors within tree depth 1+beta lying on k
/// distinct branches (pairwise internally disjoint root paths).
[[nodiscard]] bool is_k_connecting_dominating_tree(const Graph& g, const RootedTree& tree,
                                                   Dist k, Dist beta);

/// Every tree edge must be a G edge and depths must be consistent; trips a
/// check on structurally broken trees, returns true otherwise.
[[nodiscard]] bool tree_is_valid_subgraph(const Graph& g, const RootedTree& tree);

}  // namespace remspan
