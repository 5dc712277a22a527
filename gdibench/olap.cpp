// olap_traverse: Graph500-style BFS from seeded search keys, then PageRank
// (10 iterations, damping 0.85), on a freshly loaded 4-rank Kronecker graph.
// Every result is checked against the single-threaded gdi::ref kernels.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "workloads/graph500.hpp"
#include "workloads/olap.hpp"
#include "workloads/reference.hpp"

namespace gb {
namespace {

constexpr int kRanks = 4;
constexpr int kScale = 16;
/// Smallest power-of-two block size whose holder limit (block table in the
/// primary block) fits the scale-16 graph's largest vertex, so the loaded
/// graph is the generated one and gdi::ref can check it.
constexpr std::size_t kBlockSize = 4096;
constexpr int kPrIters = 10;
constexpr double kDamping = 0.85;
constexpr double kPrTolerance = 1e-9;  ///< absolute, per vertex
/// Fixed work per run, sized by --seconds (about --seconds of wall time on
/// a 4-core host): this many BFS roots and PageRank runs per second.
constexpr double kRootsPerSecond = 2;
/// Every root is traversed once per pass; its wall time is the fastest pass.
/// The passes are seconds apart, so a root's figure survives a stretch in
/// which the host deschedules a rank (every BFS level waits for all four).
constexpr int kBfsPasses = 2;
constexpr double kPageRanksPerSecond = 1;
constexpr std::size_t kMinRoots = 8;
constexpr std::size_t kMinPageRanks = 2;

/// Reference kernels over the whole generated edge list (built on rank 0).
struct Reference {
  ref::Csr undirected;
  std::vector<double> pagerank;
};

struct KernelRun {
  double wall_ns = 0;
  double model_ns = 0;
  Ctr ctr;  ///< global counter delta
};

}  // namespace

int run_olap_traverse(const RunOpts& o) {
  Report rep("olap_traverse");
  std::vector<double> setups;
  std::vector<KernelRun> bfs_runs, pr_runs;
  std::vector<double> bfs_edges;      // traversed input edges per root
  std::vector<double> g500_model_ns;  // traced run: Graph500 BFS per root
  bool setup_ok = true;
  Graph g0;
  double rss = 0;
  std::uint64_t bfs_bad = 0, bfs_repeat_bad = 0, pr_bad = 0;
  double pr_mass = 0;

  const std::size_t root_count =
      std::max(kMinRoots, static_cast<std::size_t>(std::lround(o.seconds * kRootsPerSecond)));
  const std::size_t pageranks = std::max(
      kMinPageRanks, static_cast<std::size_t>(std::lround(o.seconds * kPageRanksPerSecond)));
  announce_plan(root_count + pageranks);
  rma::Runtime rt(kRanks, rma::NetParams::xc50());
  rt.run([&](rma::Rank& self) {
    GraphOpts go;
    go.scale = kScale;
    go.block_size = kBlockSize;
    go.seed = o.seed;
    go.pool_headroom = 0.25;
    Graph g;
    for (int s = 0; s < kSetups; ++s) {
      g.db.reset();
      self.barrier();
      const double t0 = now_ns();
      g = setup_graph(self, go);
      self.barrier();
      if (self.id() == 0) setups.push_back((now_ns() - t0) * 1e-9);
      if (!g.ok) break;
    }
    if (!g.ok) {
      if (self.id() == 0) setup_ok = false;
      return;
    }
    const int P = self.nranks();
    const auto me = static_cast<std::uint64_t>(self.id());
    const auto roots = pick_roots(g, o.seed, root_count);
    // Each kernel resets the rank clock and counters on entry, so its
    // modeled time and counters after the call are the call's own.
    auto timed = [&](auto&& kernel) {
      self.barrier();
      const double w0 = now_ns();
      auto res = kernel();
      self.barrier();
      KernelRun k;
      k.wall_ns = now_ns() - w0;
      k.model_ns = res.sim_time_ns;
      k.ctr = allreduce_ctr(self, Ctr::of(self.counters()));
      return std::make_pair(std::move(res), k);
    };

    std::vector<std::vector<std::uint64_t>> levels;  // this rank's shard per root
    for (std::size_t i = 0; i < roots.size(); ++i) {
      auto [res, k] = timed([&] { return work::bfs(g.db, self, g.n, roots[i]); });
      std::uint64_t deg_sum = 0;
      for (std::size_t j = 0; j < res.values.size(); ++j)
        if (res.values[j] != work::kUnreached)
          deg_sum += g.degree[me + j * static_cast<std::uint64_t>(P)];
      const std::uint64_t edges = self.allreduce_sum(deg_sum) / 2;
      levels.push_back(std::move(res.values));
      if (self.id() == 0) {
        bfs_runs.push_back(k);
        bfs_edges.push_back(static_cast<double>(edges));
      }
    }
    // Further passes only time the roots again (and must agree with pass 1).
    std::uint64_t repeat_bad = 0;
    for (int pass = 1; pass < kBfsPasses; ++pass)
      for (std::size_t i = 0; i < roots.size(); ++i) {
        auto [res, k] = timed([&] { return work::bfs(g.db, self, g.n, roots[i]); });
        if (res.values != levels[i]) ++repeat_bad;
        if (self.id() == 0) bfs_runs[i].wall_ns = std::min(bfs_runs[i].wall_ns, k.wall_ns);
      }
    repeat_bad = self.allreduce_sum(repeat_bad);
    std::vector<double> pr_values;
    for (std::size_t i = 0; i < pageranks; ++i) {
      auto [res, k] = timed([&] { return work::pagerank(g.db, self, g.n, kPrIters, kDamping); });
      pr_values = std::move(res.values);
      if (self.id() == 0) pr_runs.push_back(k);
    }
    self.barrier();
    if (self.id() == 0) rss = peak_rss_mb();
    self.barrier();

    // Traced run, after the measured section: work::Graph500 BFS on the same
    // edge slice and roots, for olap.bfs_vs_graph500_model.
    if (o.trace) {
      work::Graph500 g500(self, g.n, g.edges);
      for (const std::uint64_t root : roots) {
        const auto r500 = g500.bfs(self, root);
        if (self.id() == 0) g500_model_ns.push_back(r500.sim_time_ns);
      }
    }

    // Output checks against gdi::ref (built once, shared read-only).
    auto reference = self.collective_make<Reference>([&] {
      const auto all = gen::KroneckerGenerator(g.config, {}, {}).all_edges();
      auto r = std::make_shared<Reference>();
      r->undirected = ref::Csr::build(g.n, all, true);
      r->pagerank = ref::pagerank(ref::Csr::build(g.n, all, false), kPrIters, kDamping);
      return r;
    });
    std::uint64_t bad_bfs = 0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const auto expect = ref::bfs_levels(reference->undirected, roots[i]);
      for (std::size_t j = 0; j < levels[i].size(); ++j)
        if (levels[i][j] != expect[me + j * static_cast<std::uint64_t>(P)]) {
          ++bad_bfs;
          break;
        }
    }
    std::uint64_t bad_pr = 0;
    double mass = 0;
    for (std::size_t j = 0; j < pr_values.size(); ++j) {
      const double e = reference->pagerank[me + j * static_cast<std::uint64_t>(P)];
      if (!(std::fabs(pr_values[j] - e) <= kPrTolerance)) ++bad_pr;
      mass += pr_values[j];
    }
    bad_bfs = self.allreduce_sum(bad_bfs);
    bad_pr = self.allreduce_sum(bad_pr);
    mass = self.allreduce_sum(mass);
    reference.reset();
    self.barrier();
    if (self.id() == 0) {
      bfs_bad = bad_bfs;
      bfs_repeat_bad = repeat_bad;
      pr_bad = bad_pr;
      pr_mass = mass;
      g0 = g;
      g0.db.reset();
    }
    self.barrier();
  });

  if (!setup_ok) {
    std::cerr << "olap_traverse: bulk load failed on at least one rank\n";
    return 2;
  }

  std::vector<double> teps_model, teps_wall, bfs_model_ns, pr_model_ns, pr_wall_ns;
  Ctr bfs_ctr, pr_ctr;
  double edges_total = 0;
  for (std::size_t i = 0; i < bfs_runs.size(); ++i) {
    teps_model.push_back(bfs_edges[i] / (bfs_runs[i].model_ns * 1e-9));
    teps_wall.push_back(bfs_edges[i] / (bfs_runs[i].wall_ns * 1e-9));
    bfs_model_ns.push_back(bfs_runs[i].model_ns);
    bfs_ctr += bfs_runs[i].ctr;
    edges_total += bfs_edges[i];
  }
  for (const auto& k : pr_runs) {
    pr_model_ns.push_back(k.model_ns);
    pr_wall_ns.push_back(k.wall_ns);
    pr_ctr += k.ctr;
  }
  const std::uint64_t nb = bfs_runs.size();
  const std::uint64_t np = pr_runs.size();

  rep.info("ranks", std::to_string(kRanks));
  rep.info("block_size", std::to_string(kBlockSize));
  rep.info("scale", std::to_string(kScale));
  rep.info("bfs_roots", std::to_string(nb));
  rep.info("pagerank_runs", std::to_string(np));
  rep.info("block_pool_blocks_per_rank", std::to_string(g0.blocks_per_rank));
  rep.info("edges_skipped", std::to_string(g0.edges_skipped));
  rep.info("max_degree", std::to_string(*std::max_element(g0.degree.begin(), g0.degree.end())));

  report_setups(rep, setups);
  rep.e2e("peak_rss_mb", "peak_rss_mb", rss, "MB", "-", 1);
  rep.e2e("bfs_mteps_model", "bfs_mteps_model", harmonic_mean(teps_model), "1/s", "model", nb,
          1e6, "MTEPS");
  rep.e2e("bfs_mteps_wall", "bfs_mteps_wall", harmonic_mean(teps_wall), "1/s", "wall", nb, 1e6,
          "MTEPS");
  // Gated: the median root's rate. The harmonic mean follows the slowest
  // roots: on the wall clock the ones a preemption hit, on both clocks a
  // root in a small component (few edges, the same number of levels).
  rep.e2e("rate_model", "bfs_mteps_model_median_root", median(teps_model), "1/s", "model", nb,
          1e6, "MTEPS");
  rep.e2e("rate_wall", "bfs_mteps_wall_median_root", median(teps_wall), "1/s", "wall", nb, 1e6,
          "MTEPS");
  rep.e2e("lat_p50_us", "bfs_root_p50_us_model", percentile(bfs_model_ns, 0.5) / 1e3, "us",
          "model", nb);
  rep.e2e("lat_p99_us", "bfs_root_max_us_model", percentile(bfs_model_ns, 1.0) / 1e3, "us",
          "model", nb);
  rep.e2e("lat2_mean_us", "pagerank_mean_s_model", mean(pr_model_ns) / 1e3, "us", "model", np,
          1e6, "s");
  rep.e2e("pagerank_s_model", "pagerank_s_model", percentile(pr_model_ns, 0.5) * 1e-9, "s",
          "model", np);
  rep.e2e("lat2_tail_us", "pagerank_max_s_model", percentile(pr_model_ns, 1.0) / 1e3, "us",
          "model", np, 1e6, "s");
  rep.e2e("pagerank_s_wall", "pagerank_s_wall", percentile(pr_wall_ns, 0.5) * 1e-9, "s",
          "wall", np);
  rep.e2e("failed_frac", "failed_frac", 0, "ratio", "-", nb + np);
  rep.count(nb + np, 0);

  rep.check("setup_no_skipped_edges", g0.edges_skipped == 0,
            std::to_string(g0.edges_skipped) + " edges dropped by the holder limit");
  rep.check("bfs_levels_match_ref", bfs_bad == 0,
            std::to_string(bfs_bad) + " (rank, root) shards differ over " +
                std::to_string(nb) + " roots");
  rep.check("bfs_passes_agree", bfs_repeat_bad == 0,
            std::to_string(bfs_repeat_bad) + " (rank, root) shards differ between passes");
  rep.check("pagerank_matches_ref", pr_bad == 0 && std::fabs(pr_mass - 1.0) < 1e-6,
            std::to_string(pr_bad) + " vertices off by > 1e-9; mass " + std::to_string(pr_mass));

  if (o.trace) {
    double bfs_wall = 0, bfs_model = 0, g500_model = 0;
    for (const auto& k : bfs_runs) {
      bfs_wall += k.wall_ns;
      bfs_model += k.model_ns;
    }
    for (double t : g500_model_ns) g500_model += t;
    const auto nbd = static_cast<double>(nb);
    rep.layer("olap.bfs.wall_ns", ratio(bfs_wall, nbd), "ns");
    rep.layer("olap.bfs.model_ns", ratio(bfs_model, nbd), "ns");
    rep.layer("olap.pagerank_iter.model_ns", median(pr_model_ns) / kPrIters, "ns");
    rep.layer("olap.bfs_vs_graph500_model", ratio(bfs_model, g500_model), "ratio");
    rep.layer("rma.gets_per_edge", ratio(bfs_ctr.gets, edges_total), "count");
    rep.layer("rma.bytes_per_edge", ratio(bfs_ctr.rma_bytes(), edges_total), "B");
    rep.layer("rma.remote_share", ratio(bfs_ctr.remote_ops, bfs_ctr.rma_ops()), "ratio");
    rep.layer("rma.ops_per_batch",
              ratio(bfs_ctr.nb_gets + bfs_ctr.nb_puts + bfs_ctr.nb_atomics, bfs_ctr.batches),
              "count");
    // Counters are summed over ranks; a collective is one call per rank.
    rep.layer("rma.collectives_per_kernel",
              ratio(pr_ctr.collectives, static_cast<double>(np) * kRanks), "count");
    const Ctr all_ctr = [&] {
      Ctr c = bfs_ctr;
      c += pr_ctr;
      return c;
    }();
    rep.layer("cache.txn_hit_ratio",
              ratio(all_ctr.cache_hits, all_ctr.cache_hits + all_ctr.cache_misses), "ratio");
    rep.layer("cache.scache_hit_ratio",
              ratio(all_ctr.scache_hits, all_ctr.scache_hits + all_ctr.scache_misses), "ratio");
    rep.layer("setup.generate_s", g0.generate_s, "s");
    rep.layer("setup.load_s", g0.load_s, "s");
    rep.layer("setup.blocks_per_vertex", ratio(g0.blocks_used_total, g0.n), "count");
    rep.layer("setup.max_rank_block_share",
              ratio(g0.blocks_used_max_rank, g0.blocks_used_total), "ratio");
  }
  return rep.emit();
}

}  // namespace gb
