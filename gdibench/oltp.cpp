// oltp_linkbench: the paper's LinkBench mix (Table 3) as a closed loop, one
// client per rank, on an in-process 4-rank runtime over a Kronecker graph.
//
// The benchmark drives the stream with its own loop (the shape of
// work::run_oltp, with the same op weights from work::OpMix::linkbench()) so
// that every call into the gdi layer can be wrapped in a span. The untraced
// and the traced run execute this same loop.
#include <sys/prctl.h>

#include <array>
#include <cmath>
#include <iostream>
#include <span>
#include <thread>

#include "common.hpp"
#include "common/hash.hpp"
#include "workloads/oltp.hpp"

namespace gb {
namespace {

using work::OltpOp;

constexpr int kRanks = 4;
constexpr int kScale = 15;
/// Smallest power-of-two block size whose holder limit (block table in the
/// primary block) fits the scale-15 graph's largest vertex with room to grow.
constexpr std::size_t kBlockSize = 2048;
constexpr std::size_t kReadBatch = 32;    ///< point reads per BatchScope
constexpr std::size_t kChunk = 1000;      ///< queries sampled per batch of the stream
/// The work is split over the kSetups set-ups: each freshly loaded graph
/// serves one kSetups-th of the stream. The LinkBench deletes target the
/// loaded ids, so one long stream on one graph would drift: at 800,000
/// queries per rank 62% of the loaded vertices were gone, 40% of the queries
/// found no vertex, and the rounds' rate rose fourfold from first to last.
/// Each repetition runs in this many barrier-separated rounds; oltp_qps_wall
/// is the median of all rounds' rates, so one preempted round moves one
/// sample. A round's rate is its queries over the ranks' mean busy time in
/// it: wall time minus retry-backoff sleeps, the client's policy rather than
/// the system's work (the rate with the sleeps is printed beside it).
constexpr int kRounds = 8;
constexpr int kAllRounds = kRounds * kSetups;
constexpr double kCpuNsPerQuery = 180.0;  ///< modeled client work (as work::run_oltp)
constexpr double kHotFill = 0.9;          ///< hot set's share of the scache budget
/// A query whose transaction ends transaction-critical (a lock conflict) is
/// re-run, as a client library would, after an exponential backoff (1 us,
/// doubling up to 1 ms), up to this many attempts in all (about 60 ms,
/// longer than a lock holder's thread is descheduled on a shared 4-core
/// host). Only a query failing every attempt counts as failed. The backoff
/// is slept on the wall clock and not charged to the modeled clock: how long
/// a lock stays held in wall time is the host's timing, not LogGP cost (the
/// retried attempts' own work is charged).
constexpr int kAttempts = 64;

struct Query {
  OltpOp op = OltpOp::kGetVertexProps;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

[[nodiscard]] bool is_point_read(OltpOp op) {
  return op == OltpOp::kGetVertexProps || op == OltpOp::kCountEdges ||
         op == OltpOp::kGetEdges;
}

OltpOp sample_op(const work::OpMix& mix, double u) {
  double acc = 0;
  for (int i = 0; i < work::kNumOltpOps; ++i) {
    acc += mix.weights[static_cast<std::size_t>(i)];
    if (u < acc) return static_cast<OltpOp>(i);
  }
  return OltpOp::kGetVertexProps;
}

/// Per-rank outcome of the measured loop.
struct RankRun {
  std::vector<double> read_ns;   ///< model latency of each point read
  std::vector<double> write_ns;  ///< model latency of each write query
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t inserted = 0;    ///< committed vertex inserts
  std::uint64_t deleted = 0;     ///< committed vertex deletes
  std::uint64_t edges_added = 0; ///< committed edge inserts
  std::uint64_t refused = 0;     ///< edge adds refused by the degree limit
  std::array<std::uint64_t, 16> outcomes{};  ///< final query status counts
  std::uint64_t txns = 0;        ///< transactions begun (groups + singles)
  std::uint64_t conflicts = 0;   ///< transactions ending transaction-critical
  std::uint64_t groups = 0;
  std::uint64_t grouped_reads = 0;
  std::uint64_t write_txns = 0;
  double model_ns = 0;           ///< modeled time spent in the loop
  double busy_wall_ns = 0;       ///< wall time in the loop, backoff sleeps excluded
  double sleep_wall_ns = 0;      ///< wall time slept in retry backoff
  std::vector<double> round_busy_ns;  ///< busy_wall_ns of each round
};

/// The LinkBench client loop of one rank.
class Client {
 public:
  Client(const Graph& g, rma::Rank& self, Tracer& tr, const std::vector<std::uint64_t>& hot,
         const work::OpMix& mix, std::uint64_t seed)
      : g_(g), db_(g.db), self_(self), tr_(tr), hot_(hot), mix_(mix),
        rng_(hash_combine(seed, static_cast<std::uint64_t>(self.id()) + 0x0177)),
        next_new_id_(g.n + static_cast<std::uint64_t>(self.id())) {}

  void run_chunk(RankRun& out) {
    std::vector<Query> qs(kChunk);
    for (auto& q : qs) {
      q.op = sample_op(mix_, rng_.next_unit());
      switch (q.op) {
        case OltpOp::kGetVertexProps:
        case OltpOp::kCountEdges:
        case OltpOp::kGetEdges:
          q.a = hot_[rng_.next_below(hot_.size())];
          break;
        case OltpOp::kDeleteVertex:
        case OltpOp::kUpdateVertexProp:
          q.a = rng_.next_below(g_.n);
          break;
        case OltpOp::kAddEdge:
          q.a = rng_.next_below(g_.n);
          q.b = rng_.next_below(g_.n);
          break;
        default:
          break;
      }
    }
    const double m0 = self_.sim_time_ns();
    const double w0 = now_ns();
    const double s0 = out.sleep_wall_ns;
    std::size_t i = 0;
    while (i < qs.size()) {
      if (is_point_read(qs[i].op)) {
        std::size_t j = i;
        while (j < qs.size() && is_point_read(qs[j].op) && j - i < kReadBatch) ++j;
        read_group(std::span<const Query>(qs.data() + i, j - i), out);
        i = j;
      } else {
        single(qs[i], out);
        ++i;
      }
    }
    out.queries += qs.size();
    out.model_ns += self_.sim_time_ns() - m0;
    out.busy_wall_ns += now_ns() - w0 - (out.sleep_wall_ns - s0);
  }

  /// Fence the open commit epoch (its deferred work is part of the run).
  void drain(RankRun& out) {
    const double m0 = self_.sim_time_ns();
    if (auto* cp = db_->commit_pipeline(self_)) cp->sync(self_);
    out.model_ns += self_.sim_time_ns() - m0;
  }

 private:
  void account(Status s, RankRun& out) {
    if (is_transaction_critical(s)) ++out.failed;
    ++out.outcomes[static_cast<std::size_t>(s)];
  }

  /// Consecutive point reads share one kRead transaction and one
  /// BatchScope::execute. Every read in the group completes when the group
  /// does, so each is charged the group's latency. A doomed group retries
  /// every query alone (what a client library would do).
  void read_group(std::span<const Query> group, RankRun& out) {
    const double t0 = self_.sim_time_ns();
    for (std::size_t k = 0; k < group.size(); ++k) self_.charge_compute(kCpuNsPerQuery);
    std::vector<Status> st(group.size(), Status::kOk);
    bool doomed = false;
    ++out.txns;
    ++out.groups;
    out.grouped_reads += group.size();
    {
      Transaction txn(db_, self_, TxnMode::kRead);
      BatchScope scope = txn.batch();
      std::vector<Future<VertexHandle>> hs;
      hs.reserve(group.size());
      for (const auto& q : group) hs.push_back(scope.find(q.a));
      doomed = is_transaction_critical(
          tr_.span("gdi.read_execute", self_, [&] { return scope.execute(); }));
      if (!doomed) {
        for (std::size_t k = 0; k < group.size(); ++k) {
          if (!hs[k].ok()) {
            st[k] = hs[k].status();
            continue;
          }
          st[k] = read_one(txn, group[k].op, *hs[k]);
        }
        doomed = is_transaction_critical(txn.commit());
      }
    }
    if (!doomed) {
      const double lat = self_.sim_time_ns() - t0;
      for (std::size_t k = 0; k < group.size(); ++k) {
        account(st[k], out);
        out.read_ns.push_back(lat);
      }
      return;
    }
    ++out.conflicts;
    for (const auto& q : group) single(q, out);
  }

  Status read_one(Transaction& txn, OltpOp op, VertexHandle vh) {
    switch (op) {
      case OltpOp::kGetVertexProps: {
        auto props = txn.ptypes_of(vh);
        if (!props.ok()) return props.status();
        if (!props->empty()) return txn.get_properties(vh, (*props)[0]).status();
        return Status::kOk;
      }
      case OltpOp::kCountEdges:
        return txn.count_edges(vh, DirFilter::kAll).status();
      case OltpOp::kGetEdges:
        return txn.edges_of(vh, DirFilter::kAll).status();
      default:
        return Status::kOk;
    }
  }

  Result<VertexHandle> write_find(Transaction& txn, std::uint64_t id) {
    return tr_.span("gdi.write_find", self_, [&] { return txn.find_vertex(id); });
  }
  template <class F>
  decltype(auto) write_op(F&& f) {
    return tr_.span("gdi.write_op", self_, std::forward<F>(f));
  }
  Status commit(Transaction& txn) {
    return tr_.span("gdi.commit", self_, [&] { return txn.commit(); });
  }

  void single(const Query& q, RankRun& out) {
    const double t0 = self_.sim_time_ns();
    Status s = Status::kOk;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      if (attempt > 0) {
        const auto backoff = std::chrono::microseconds(attempt <= 10 ? 1 << (attempt - 1) : 1000);
        const double z0 = now_ns();
        std::this_thread::sleep_for(backoff);
        out.sleep_wall_ns += now_ns() - z0;
      }
      self_.charge_compute(kCpuNsPerQuery);
      ++out.txns;
      if (!is_point_read(q.op)) ++out.write_txns;
      s = is_point_read(q.op) ? read_single(q) : write(q, out);
      if (!is_transaction_critical(s)) break;
      ++out.conflicts;
    }
    account(s, out);
    (is_point_read(q.op) ? out.read_ns : out.write_ns).push_back(self_.sim_time_ns() - t0);
  }

  Status read_single(const Query& q) {
    Transaction txn(db_, self_, TxnMode::kRead);
    auto vh = txn.find_vertex(q.a);
    if (!vh.ok()) {
      txn.abort();
      return vh.status();
    }
    const Status s = read_one(txn, q.op, *vh);
    if (is_transaction_critical(s)) {
      txn.abort();
      return s;
    }
    return txn.commit();
  }

  Status write(const Query& q, RankRun& out) {
    Transaction txn(db_, self_, TxnMode::kWrite);
    auto fail = [&](Status s) {
      txn.abort();
      return s;
    };
    switch (q.op) {
      case OltpOp::kAddVertex: {
        const std::uint64_t id = next_new_id_;
        auto vh = write_op([&] { return txn.create_vertex(id); });
        if (!vh.ok()) return fail(vh.status());
        next_new_id_ += static_cast<std::uint64_t>(self_.nranks());
        (void)write_op([&] { return txn.add_label(*vh, g_.label_ids[0]); });
        (void)write_op([&] {
          return txn.add_property(*vh, g_.ptype_ids[0],
                                  PropValue{static_cast<std::int64_t>(id)});
        });
        const Status s = commit(txn);
        if (ok(s)) ++out.inserted;
        return s;
      }
      case OltpOp::kDeleteVertex: {
        auto vh = write_find(txn, q.a);
        if (!vh.ok()) return fail(vh.status());
        const Status d = write_op([&] { return txn.delete_vertex(*vh); });
        if (!ok(d)) return fail(d);
        const Status s = commit(txn);
        if (ok(s)) ++out.deleted;
        return s;
      }
      case OltpOp::kUpdateVertexProp: {
        auto vh = write_find(txn, q.a);
        if (!vh.ok()) return fail(vh.status());
        const Status u = write_op([&] {
          return txn.update_property(*vh, g_.ptype_ids[0],
                                     PropValue{static_cast<std::int64_t>(q.a)});
        });
        if (is_transaction_critical(u)) return fail(u);
        return commit(txn);
      }
      case OltpOp::kAddEdge: {
        auto a = write_find(txn, q.a);
        if (!a.ok()) return fail(a.status());
        auto b = write_find(txn, q.b);
        if (!b.ok()) return fail(b.status());
        auto e = write_op(
            [&] { return txn.create_edge(*a, *b, layout::Dir::kOut, g_.label_ids[0]); });
        // A refused add (the holder's degree limit, kNoSpace) ends the
        // transaction: its only operation failed.
        if (!e.ok()) {
          if (e.status() == Status::kNoSpace) ++out.refused;
          return fail(e.status());
        }
        const Status s = commit(txn);
        if (ok(s)) ++out.edges_added;
        return s;
      }
      default:
        return fail(Status::kInvalidArgument);
    }
  }

  const Graph& g_;
  std::shared_ptr<Database> db_;
  rma::Rank& self_;
  Tracer& tr_;
  const std::vector<std::uint64_t>& hot_;
  work::OpMix mix_;
  CounterRng rng_;
  std::uint64_t next_new_id_;
};

/// Read targets: a hashed hot set whose holders fill at most kHotFill of a
/// rank's shared-cache byte budget (hashed ids avoid the Kronecker hubs at
/// the low ids). Every rank reads the whole set and caches what it reads,
/// remote holders included, so the whole set must fit one rank's budget.
std::vector<std::uint64_t> hot_set(const Graph& g, std::uint64_t seed,
                                   std::size_t budget_bytes, std::size_t block_size,
                                   std::uint64_t* bytes) {
  std::vector<std::uint64_t> hot;
  std::vector<bool> taken(g.n, false);
  const auto cap = static_cast<std::uint64_t>(kHotFill * static_cast<double>(budget_bytes));
  *bytes = 0;
  for (std::uint64_t k = 0; k < 4 * g.n; ++k) {
    const std::uint64_t v = splitmix64(hash_combine(seed ^ 0x407, k)) % g.n;
    if (taken[v]) continue;
    const std::uint64_t b = holder_blocks(g.degree[v], block_size) * block_size;
    if (*bytes + b > cap) break;
    *bytes += b;
    taken[v] = true;
    hot.push_back(v);
  }
  return hot;
}

/// Collective: edge records held by all vertices (each edge has two).
std::uint64_t edge_records(const Graph& g, rma::Rank& self) {
  std::uint64_t recs = 0;
  Transaction txn(g.db, self, TxnMode::kRead);
  for (std::uint64_t v = static_cast<std::uint64_t>(self.id()); v < g.n;
       v += static_cast<std::uint64_t>(self.nranks())) {
    auto vh = txn.find_vertex(v);
    if (!vh.ok()) continue;
    auto c = txn.count_edges(*vh, DirFilter::kAll);
    if (c.ok()) recs += *c;
  }
  txn.abort();
  return self.allreduce_sum(recs);
}

}  // namespace

int run_oltp(const RunOpts& o, const std::string& name, const work::OpMix& mix,
             double queries_per_rank_per_second, bool write_p99_gated) {
  Report rep(name);
  const std::uint64_t q_per_rank =
      kChunk * std::max<std::uint64_t>(
                   1, static_cast<std::uint64_t>(
                          std::llround(o.seconds * queries_per_rank_per_second / kChunk)));
  std::vector<double> setups;
  std::vector<Tracer> tracers(kRanks, Tracer(o.trace));
  std::vector<RankRun> runs(kRanks);
  Graph g0;  // rank 0's view of the last set-up (for reporting only)
  bool setup_ok = true;
  double wall_s = 0;
  std::vector<double> qps_wall_rounds;
  Ctr window;  // global counter delta over the measured loops
  // Output checks, summed over the repetitions.
  std::uint64_t count_bad = 0, records_bad = 0;
  std::string count_detail, records_detail;
  std::size_t hot_count = 0;
  std::uint64_t hot_bytes = 0;
  std::size_t scache_budget = 0;
  double rss = 0;

  announce_plan(q_per_rank * kRanks);
  rma::Runtime rt(kRanks, rma::NetParams::xc50());
  rt.run([&](rma::Rank& self) {
    GraphOpts go;
    go.scale = kScale;
    go.block_size = kBlockSize;
    go.seed = o.seed;
    go.shared_cache = true;
    go.write_through = true;
    go.commit_pipeline = true;
    go.pool_headroom = 0.5;
    // Room for one repetition's growth: each edge add appends a 24-byte
    // record at both ends (holders grow by doubling), each insert a new holder.
    const double q_total = static_cast<double>(q_per_rank) * kRanks / kSetups;
    const auto& w = mix.weights;
    go.extra_blocks_per_rank = static_cast<std::size_t>(
        (4.0 * 24.0 * q_total * w[static_cast<std::size_t>(OltpOp::kAddEdge)] / kBlockSize +
         2.0 * q_total * w[static_cast<std::size_t>(OltpOp::kAddVertex)]) /
        kRanks);
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // backoff sleeps of a few microseconds
    Tracer& tr = tracers[static_cast<std::size_t>(self.id())];
    RankRun& run = runs[static_cast<std::size_t>(self.id())];
    const std::uint64_t chunks = q_per_rank / kChunk;
    // The edge-record check needs a mix without deletes (a delete removes
    // records at its neighbours). Walking every loaded id after a LinkBench
    // stream also reads deleted ids, which crashes (NOTES.md, defect b).
    const bool check_records = mix.weights[static_cast<std::size_t>(OltpOp::kDeleteVertex)] == 0;
    Graph g;
    for (int rep_i = 0; rep_i < kSetups; ++rep_i) {
      g.db.reset();
      self.barrier();
      const double t0 = now_ns();
      g = setup_graph(self, go);
      self.barrier();
      if (self.id() == 0) setups.push_back((now_ns() - t0) * 1e-9);
      if (!g.ok) {
        if (self.id() == 0) setup_ok = false;
        return;
      }
      std::uint64_t hb = 0;
      const auto hot = hot_set(g, o.seed, g.db->config().shared_cache_bytes,
                               g.db->config().block.block_size, &hb);
      const std::uint64_t recs0 = check_records ? edge_records(g, self) : 0;
      const std::uint64_t ins0 = run.inserted, del0 = run.deleted, add0 = run.edges_added;
      Client client(g, self, tr, hot, mix, hash_combine(o.seed, static_cast<std::uint64_t>(rep_i)));
      self.barrier();
      const double w0 = now_ns();
      const Ctr c0 = Ctr::of(self.counters());
      std::vector<double> round_qps;
      for (int r = rep_i * kRounds; r < (rep_i + 1) * kRounds; ++r) {
        const double r0 = now_ns();
        const double b0 = run.busy_wall_ns;
        const std::uint64_t begin = chunks * r / kAllRounds;
        const std::uint64_t end = chunks * (r + 1) / kAllRounds;
        for (std::uint64_t k = begin; k < end; ++k) client.run_chunk(run);
        run.round_busy_ns.push_back(run.busy_wall_ns - b0);
        self.barrier();
        round_qps.push_back(static_cast<double>((end - begin) * kChunk * kRanks) /
                            ((now_ns() - r0) * 1e-9));
      }
      client.drain(run);
      const Ctr mine = Ctr::of(self.counters()) - c0;
      self.barrier();
      const double w1 = now_ns();
      const Ctr sum = allreduce_ctr(self, mine);

      // Output checks: every committed insert and delete shows in the id
      // index; without deletes, every committed edge add shows as one edge
      // record at each endpoint.
      std::uint64_t live = 0;
      if (self.id() == 0)
        for (int r = 0; r < self.nranks(); ++r)
          live += g.db->id_index().live_entries(self, static_cast<std::uint32_t>(r));
      const std::uint64_t ins = self.allreduce_sum(run.inserted - ins0);
      const std::uint64_t del = self.allreduce_sum(run.deleted - del0);
      const std::uint64_t added = self.allreduce_sum(run.edges_added - add0);
      const std::uint64_t recs1 = check_records ? edge_records(g, self) : 0;
      self.barrier();
      if (self.id() == 0) {
        const std::uint64_t expect = g.n + ins - del;
        count_bad += live != expect ? 1 : 0;
        count_detail = "live " + std::to_string(live) + " == loaded " + std::to_string(g.n) +
                       " + inserted " + std::to_string(ins) + " - deleted " +
                       std::to_string(del);
        if (check_records) {
          records_bad += recs1 != recs0 + 2 * added ? 1 : 0;
          records_detail = "records " + std::to_string(recs1) + " == " +
                           std::to_string(recs0) + " + 2 x added " + std::to_string(added);
        }
        wall_s += (w1 - w0) * 1e-9;
        qps_wall_rounds.insert(qps_wall_rounds.end(), round_qps.begin(), round_qps.end());
        window += sum;
        hot_count = hot.size();
        hot_bytes = hb;
        scache_budget = g.db->config().shared_cache_bytes;
      }
      self.barrier();
    }
    if (self.id() == 0) {
      rss = peak_rss_mb();
      g0 = g;
      g0.db.reset();
    }
    self.barrier();
  });

  if (!setup_ok) {
    std::cerr << name << ": bulk load failed on at least one rank\n";
    return 2;
  }

  RankRun all;
  double max_model_ns = 0, slept_ns = 0;
  Tracer tr(o.trace);
  for (int r = 0; r < kRanks; ++r) {
    const auto& x = runs[static_cast<std::size_t>(r)];
    all.read_ns.insert(all.read_ns.end(), x.read_ns.begin(), x.read_ns.end());
    all.write_ns.insert(all.write_ns.end(), x.write_ns.begin(), x.write_ns.end());
    all.queries += x.queries;
    all.failed += x.failed;
    all.inserted += x.inserted;
    all.deleted += x.deleted;
    all.edges_added += x.edges_added;
    all.refused += x.refused;
    for (std::size_t k = 0; k < all.outcomes.size(); ++k) all.outcomes[k] += x.outcomes[k];
    all.txns += x.txns;
    all.conflicts += x.conflicts;
    all.groups += x.groups;
    all.grouped_reads += x.grouped_reads;
    all.write_txns += x.write_txns;
    max_model_ns = std::max(max_model_ns, x.model_ns);
    slept_ns += x.sleep_wall_ns;
    tr.merge(tracers[static_cast<std::size_t>(r)]);
  }
  const auto q = static_cast<double>(all.queries);
  const std::uint64_t nr = all.read_ns.size();
  const std::uint64_t nw = all.write_ns.size();

  rep.info("mix", mix.name);
  rep.info("ranks", std::to_string(kRanks));
  rep.info("queries_per_rank", std::to_string(q_per_rank));
  rep.info("block_size", std::to_string(kBlockSize));
  rep.info("edge_adds_refused_nospace", std::to_string(all.refused));
  {
    std::string by_status;
    for (std::size_t k = 0; k < all.outcomes.size(); ++k)
      if (all.outcomes[k] != 0) {
        if (!by_status.empty()) by_status += ' ';
        by_status += to_string(static_cast<Status>(k));
        by_status += '=' + std::to_string(all.outcomes[k]);
      }
    rep.info("query_outcomes", by_status);
  }
  rep.info("scale", std::to_string(kScale));
  rep.info("hot_set_ids", std::to_string(hot_count));
  rep.info("hot_set_bytes", std::to_string(hot_bytes));
  rep.info("scache_budget_bytes_per_rank", std::to_string(scache_budget));
  rep.info("block_pool_blocks_per_rank", std::to_string(g0.blocks_per_rank));
  rep.info("edges_skipped", std::to_string(g0.edges_skipped));
  rep.info("max_degree", std::to_string(*std::max_element(g0.degree.begin(), g0.degree.end())));

  report_setups(rep, setups);
  rep.e2e("peak_rss_mb", "peak_rss_mb", rss, "MB", "-", 1);
  rep.e2e("rate_model", "oltp_qps_model", q / (max_model_ns * 1e-9), "1/s", "model",
          all.queries);
  std::vector<double> busy_rounds;
  {
    const std::uint64_t chunks = q_per_rank / kChunk;
    for (int r = 0; r < kAllRounds; ++r) {
      double busy = 0;
      for (const auto& x : runs) busy += x.round_busy_ns[static_cast<std::size_t>(r)];
      const std::uint64_t n = (chunks * (r + 1) / kAllRounds - chunks * r / kAllRounds) * kChunk;
      busy_rounds.push_back(static_cast<double>(n * kRanks) / (busy / kRanks * 1e-9));
    }
  }
  rep.e2e("rate_wall", "oltp_qps_wall", median(busy_rounds), "1/s", "wall", kAllRounds);
  rep.e2e("qps_wall_incl_backoff", "oltp_qps_wall_incl_backoff", median(qps_wall_rounds), "1/s",
          "wall", kAllRounds);
  rep.info("oltp_qps_wall_whole_run", std::to_string(q / wall_s));
  rep.info("retry_backoff_slept_s", std::to_string(slept_ns * 1e-9));
  {
    std::string rounds;
    for (double r : qps_wall_rounds) {
      if (!rounds.empty()) rounds += ' ';
      rounds += std::to_string(std::lround(r));
    }
    rep.info("oltp_qps_wall_incl_backoff_rounds", rounds);
  }
  rep.e2e("lat_p50_us", "oltp_read_p50_us_model", percentile(all.read_ns, 0.50) / 1e3,
          "us", "model", nr);
  rep.e2e("lat_p99_us", "oltp_read_p99_us_model", percentile(all.read_ns, 0.99) / 1e3,
          "us", "model", nr);
  rep.e2e("lat2_mean_us", "oltp_write_mean_us_model", mean(all.write_ns) / 1e3, "us", "model",
          nw);
  rep.e2e("write_p50_us", "oltp_write_p50_us_model", percentile(all.write_ns, 0.50) / 1e3,
          "us", "model", nw);
  // With one write kind (edge adds) the modeled write latencies take few
  // distinct values, so p99 can read the same on every run; the gated tail
  // is then the mean of the slowest 1%.
  const double write_p99 = percentile(all.write_ns, 0.99) / 1e3;
  const double write_tail = tail_mean(all.write_ns, 0.01) / 1e3;
  rep.e2e(write_p99_gated ? "lat2_tail_us" : "write_p99_us", "oltp_write_p99_us_model",
          write_p99, "us", "model", nw);
  rep.e2e(write_p99_gated ? "write_tail_us" : "lat2_tail_us",
          "oltp_write_slowest1pct_mean_us_model", write_tail, "us", "model", nw);
  rep.e2e("failed_frac", "failed_frac", ratio(static_cast<double>(all.failed), q), "ratio",
          "-", all.queries);
  rep.count(all.queries, all.failed);

  const std::string reps = " (last of " + std::to_string(kSetups) + " repetitions; ";
  rep.check("vertex_count", count_bad == 0,
            count_detail + reps + std::to_string(count_bad) + " differ)");
  if (!records_detail.empty())
    rep.check("edge_records", records_bad == 0,
              records_detail + reps + std::to_string(records_bad) + " differ)");
  rep.check("queries_ran", all.queries > 0 && nr > 0 && nw > 0,
            std::to_string(all.queries) + " queries");

  if (o.trace) {
    auto span = [&](const char* name, const std::string& key) {
      const SpanStat s = tr.get(name);
      rep.layer(key + ".wall_ns", s.mean_wall_ns(), "ns");
      rep.layer(key + ".model_ns", s.mean_model_ns(), "ns");
    };
    span("gdi.read_execute", "gdi.read_execute");
    span("gdi.write_find", "gdi.write_find");
    span("gdi.write_op", "gdi.write_op");
    span("gdi.commit", "gdi.commit");
    const Ctr& w = window;
    const auto writes = static_cast<double>(all.write_txns);
    rep.layer("gdi.conflict_ratio", ratio(all.conflicts, all.txns), "ratio");
    rep.layer("gdi.reads_per_group", ratio(all.grouped_reads, all.groups), "count");
    rep.layer("rma.gets_per_query", w.gets / q, "count");
    rep.layer("rma.puts_per_query", w.puts / q, "count");
    rep.layer("rma.atomics_per_query", w.atomics / q, "count");
    rep.layer("rma.flushes_per_query", w.flushes / q, "count");
    rep.layer("rma.bytes_per_query", w.rma_bytes() / q, "B");
    rep.layer("rma.remote_share", ratio(w.remote_ops, w.rma_ops()), "ratio");
    rep.layer("rma.ops_per_batch", ratio(w.nb_gets + w.nb_puts + w.nb_atomics, w.batches),
              "count");
    rep.layer("dht.probe_rounds_per_query", w.dht_probe_rounds / q, "count");
    rep.layer("dht.xlate_hit_ratio", ratio(w.xlate_hits, w.xlate_hits + w.xlate_fallbacks),
              "ratio");
    rep.layer("cache.scache_hit_ratio", ratio(w.scache_hits, w.scache_hits + w.scache_misses),
              "ratio");
    rep.layer("cache.scache_invalidations_per_write", ratio(w.scache_invalidations, writes),
              "count");
    rep.layer("cache.scache_restamps_per_write", ratio(w.scache_restamps, writes), "count");
    rep.layer("cache.txn_hit_ratio", ratio(w.cache_hits, w.cache_hits + w.cache_misses),
              "ratio");
    rep.layer("commit.txns_per_epoch", ratio(w.gc_enrolled, w.gc_epochs), "count");
    // Flushes inside a write transaction's spans (find, ops, commit).
    const std::uint64_t write_flushes = tr.get("gdi.write_find").ctr.flushes +
                                        tr.get("gdi.write_op").ctr.flushes +
                                        tr.get("gdi.commit").ctr.flushes;
    rep.layer("commit.flushes_per_write_txn", ratio(write_flushes, writes), "count");
    rep.layer("setup.generate_s", g0.generate_s, "s");
    rep.layer("setup.load_s", g0.load_s, "s");
    rep.layer("setup.blocks_per_vertex", ratio(g0.blocks_used_total, g0.n), "count");
    rep.layer("setup.max_rank_block_share", ratio(g0.blocks_used_max_rank, g0.blocks_used_total),
              "ratio");
  }
  return rep.emit();
}

}  // namespace gb
