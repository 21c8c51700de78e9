#include "shard/shard_engine.hpp"

#include "obs/obs.hpp"

namespace remspan {

EdgeSet cluster_union_of_trees(const Graph& g, const TreeRecipe& recipe,
                               const ShardConfig& config, SpannerBuildInfo* info,
                               const TreeVisitor& visit) {
  obs::PhaseSpan span("core.union_of_trees");
  const std::size_t cap =
      config.num_shards == 0 ? ThreadPool::global().concurrency() : config.num_shards;
  detail::check_shard_limits(g.num_nodes(), g.num_edges(), cap);

  const std::vector<NodeId> order =
      locality_root_order(g, std::max<std::size_t>(1, config.batch_roots));
  AtomicBitset shared(g.num_edges());
  ClusterEngine engine;
  const ClusterTallies total =
      engine.build(GraphView(g), order, recipe, config, &shared,
                   [&visit](std::size_t /*i*/, NodeId root, std::span<const EdgeId> ids) {
                     if (visit) visit(root, ids);
                   });
  EdgeSet spanner(g, shared.snapshot());

  if (info != nullptr) {
    info->sum_tree_edges = total.sum_tree_edges;
    info->max_tree_edges = total.max_tree_edges;
    info->build_seconds = span.seconds();
  }
  if (obs::Registry* m = obs::metrics()) {
    m->add(obs::Metric::kUnionBuilds, 1);
    m->add(obs::Metric::kUnionTrees, g.num_nodes());
    m->add(obs::Metric::kUnionWordsOrd, total.words_ord);
    m->add(obs::Metric::kUnionSpannerEdges, spanner.size());
    m->add(obs::Metric::kShardBatches, total.batches);
    m->add(obs::Metric::kShardGatherNodes, total.gather_nodes);
    m->add(obs::Metric::kShardGatherEdges, total.gather_edges);
  }
  return spanner;
}

}  // namespace remspan
