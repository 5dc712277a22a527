// Shared pieces of the end-to-end benchmark: outside-in spans, exact
// percentiles, the result report, and the collective graph set-up.
//
// Every layer is measured from outside: a span wraps one call into a
// module's public function and records its wall time (steady_clock), its
// modeled time (the rank's LogGP clock delta) and the rank's OpCounters
// delta. Spans are only taken in the traced run; the untraced run executes
// the same loops with the span wrapper reduced to a plain call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gdi/gdi.hpp"
#include "generator/kronecker.hpp"
#include "workloads/oltp.hpp"

namespace gb {

using namespace gdi;

// --- clocks -----------------------------------------------------------------

[[nodiscard]] inline double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- counters ---------------------------------------------------------------

// The OpCounters fields the per-layer metrics read.
#define GB_COUNTERS(X)                                                        \
  X(puts) X(gets) X(atomics) X(flushes) X(collectives) X(bytes_put)           \
  X(bytes_get) X(remote_ops) X(nb_gets) X(nb_puts) X(nb_atomics) X(batches)   \
  X(cache_hits) X(cache_misses) X(scache_hits) X(scache_misses)               \
  X(scache_invalidations) X(scache_restamps) X(gc_epochs) X(gc_enrolled)      \
  X(xlate_hits) X(xlate_fallbacks) X(dht_probe_rounds) X(wal_appends)         \
  X(wal_fsyncs) X(wal_io_errors) X(sched_served) X(sched_coalesced)           \
  X(sched_admission_rejects) X(sched_epochs) X(net_frames_rx)                 \
  X(net_frames_tx) X(net_backpressure_stalls)

struct Ctr {
#define GB_FIELD(f) std::uint64_t f = 0;
  GB_COUNTERS(GB_FIELD)
#undef GB_FIELD

  [[nodiscard]] static Ctr of(const rma::OpCounters& c) {
    Ctr o;
#define GB_COPY(f) o.f = c.f;
    GB_COUNTERS(GB_COPY)
#undef GB_COPY
    return o;
  }
  Ctr& operator+=(const Ctr& b) {
#define GB_ADD(f) f += b.f;
    GB_COUNTERS(GB_ADD)
#undef GB_ADD
    return *this;
  }
  [[nodiscard]] Ctr operator-(const Ctr& b) const {
    Ctr o;
#define GB_SUB(f) o.f = f - b.f;
    GB_COUNTERS(GB_SUB)
#undef GB_SUB
    return o;
  }
  [[nodiscard]] std::uint64_t rma_ops() const { return gets + puts + atomics; }
  [[nodiscard]] std::uint64_t rma_bytes() const { return bytes_get + bytes_put; }
};

/// Collective: element-wise sum of every rank's counters.
[[nodiscard]] Ctr allreduce_ctr(rma::Rank& self, const Ctr& mine);

// --- spans ------------------------------------------------------------------

struct SpanStat {
  std::uint64_t calls = 0;
  double wall_ns = 0;
  double model_ns = 0;
  Ctr ctr;

  void add(const SpanStat& o) {
    calls += o.calls;
    wall_ns += o.wall_ns;
    model_ns += o.model_ns;
    ctr += o.ctr;
  }
  [[nodiscard]] double mean_wall_ns() const { return calls ? wall_ns / calls : 0; }
  [[nodiscard]] double mean_model_ns() const { return calls ? model_ns / calls : 0; }
};

/// Per-thread span recorder keyed by span name. Off: span() is a plain call.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// Time `f()` as one call of span `name` on `self`'s clocks and counters.
  template <class F>
  decltype(auto) span(const char* name, rma::Rank& self, F&& f) {
    if (!on_) return f();
    Guard g{*this, name, &self, now_ns(), self.sim_time_ns(), Ctr::of(self.counters())};
    return f();
  }
  /// Wall-only span for threads that own no rank (socket clients).
  template <class F>
  decltype(auto) wall_span(const char* name, F&& f) {
    if (!on_) return f();
    Guard g{*this, name, nullptr, now_ns(), 0, Ctr{}};
    return f();
  }

  [[nodiscard]] SpanStat get(const std::string& name) const {
    auto it = stats_.find(name);
    return it == stats_.end() ? SpanStat{} : it->second;
  }
  void merge(const Tracer& o) {
    for (const auto& [k, v] : o.stats_) stats_[k].add(v);
  }

 private:
  struct Guard {
    Tracer& t;
    const char* name;
    rma::Rank* self;
    double w0;
    double m0;
    Ctr c0;
    ~Guard() {
      SpanStat s;
      s.calls = 1;
      s.wall_ns = now_ns() - w0;
      if (self != nullptr) {
        s.model_ns = self->sim_time_ns() - m0;
        s.ctr = Ctr::of(self->counters()) - c0;
      }
      t.stats_[name].add(s);
    }
  };

  bool on_;
  std::map<std::string, SpanStat> stats_;
};

// --- statistics -------------------------------------------------------------

/// Exact nearest-rank percentile (q in (0,1]) of raw samples; sorts `v`.
[[nodiscard]] double percentile(std::vector<double>& v, double q);
/// Harmonic mean of positive values (Graph500's TEPS average).
[[nodiscard]] double harmonic_mean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
/// Mean of the largest `share` of the samples (at least one); sorts `v`.
[[nodiscard]] double tail_mean(std::vector<double>& v, double share);
[[nodiscard]] inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// --- process facts ------------------------------------------------------------

/// Peak resident set size of this process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();
/// Name of the file system holding `path` (statfs magic), "unknown" if unmapped.
[[nodiscard]] std::string fs_name(const std::string& path);

// --- report -----------------------------------------------------------------

/// One workload's results. Printed as human-readable lines and a final
/// machine-readable line `GDIBENCH_RESULT {...}` that run.py consumes.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// End-to-end metric: `slot` is the BENCHMARK.json name with its unit,
  /// `name` the workload-specific name, `clock` is "model" or "wall" (or
  /// "-"). The human-readable line shows value/`scale` in `shown_unit`.
  void e2e(const std::string& slot, const std::string& name, double value,
           const std::string& unit, const std::string& clock, std::uint64_t samples,
           double scale = 1, const std::string& shown_unit = "");
  void layer(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool pass, const std::string& detail);
  void info(const std::string& key, const std::string& value);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const;
  /// Print everything; returns the process exit code (0 iff correct).
  int emit() const;

 private:
  struct E2e {
    std::string slot, name, unit, clock;
    double value;
    std::uint64_t samples;
    double scale;
    std::string shown_unit;
  };
  struct Layer {
    std::string name, unit;
    double value;
  };
  struct Check {
    std::string name, detail;
    bool pass;
  };
  std::string workload_;
  std::vector<E2e> e2e_;
  std::vector<Layer> layers_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// setup_s: the median of a run's set-up times (the fastest is printed too).
void report_setups(Report& rep, const std::vector<double>& setups);

/// Print `GDIBENCH_PLAN <requests>` before the measured work starts, so a
/// run that crashes is charged with every request it would have attempted.
void announce_plan(std::uint64_t requests);

// --- run options ----------------------------------------------------------------

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

struct RunOpts {
  std::uint64_t seed = 1;
  double seconds = 10;   ///< sizes the run's work (see each workload)
  bool trace = false;
  std::string tmp_dir;   ///< scratch directory for WAL segments
};

// --- graph set-up (the OLTP mixes, olap_traverse) ----------------------------

struct GraphOpts {
  int scale = 15;
  std::size_t block_size = 512;
  std::uint64_t seed = 1;
  bool shared_cache = true;
  bool write_through = false;
  bool commit_pipeline = false;
  /// Block-pool headroom over the fullest rank's load, as a share of it
  /// (room for inserted vertices and grown holders).
  double pool_headroom = 0.5;
  /// Further blocks per rank for the workload's expected growth.
  std::size_t extra_blocks_per_rank = 0;
};

struct Graph {
  std::shared_ptr<Database> db;
  std::vector<std::uint32_t> label_ids;
  std::vector<std::uint32_t> ptype_ids;
  std::vector<BulkEdge> edges;        ///< this rank's generated edge slice
  std::vector<std::uint32_t> degree;  ///< global degree per vertex (both ends)
  std::uint64_t n = 0;
  std::size_t blocks_per_rank = 0;    ///< pool size chosen from the slices
  std::uint64_t blocks_used_total = 0;
  std::uint64_t blocks_used_max_rank = 0;
  std::uint64_t edges_skipped = 0;    ///< global: dropped by the holder limit
  double generate_s = 0;              ///< KroneckerGenerator::generate_local
  double load_s = 0;                  ///< BulkLoader::load
  gen::LpgConfig config;
  bool ok = false;                    ///< every rank's load succeeded
};

/// Blocks the bulk loader gives a holder of degree `deg` with block size `B`.
[[nodiscard]] std::uint64_t holder_blocks(std::uint64_t deg, std::size_t B);

/// Collective: size the block pool from every rank's generated slice, create
/// the database, generate and bulk load. The load status is allreduced, so
/// either every rank returns ok or none does.
[[nodiscard]] Graph setup_graph(rma::Rank& self, const GraphOpts& o);

/// The `count` Graph500 search keys for `seed`: distinct vertices of nonzero
/// degree, identical on every rank.
[[nodiscard]] std::vector<std::uint64_t> pick_roots(const Graph& g, std::uint64_t seed,
                                                    std::size_t count);

// --- workloads -----------------------------------------------------------------

/// The run's work is fixed: --seconds x `queries_per_rank_per_second`
/// queries per rank. A fixed count keeps the modeled metrics independent of
/// host speed: the mix grows the graph, so a time-bounded run on a faster
/// host would measure a larger one. `write_p99_gated`: the lat2_tail_us slot
/// holds the write p99 (a mix with several write kinds) rather than the mean
/// of the slowest 1% of writes.
int run_oltp(const RunOpts& o, const std::string& name, const work::OpMix& mix,
             double queries_per_rank_per_second, bool write_p99_gated);
int run_olap_traverse(const RunOpts& o);
int run_wire_serve(const RunOpts& o);

}  // namespace gb
