#include "common.hpp"

#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/hash.hpp"
#include "layout/holder.hpp"

namespace gb {

Ctr allreduce_ctr(rma::Rank& self, const Ctr& mine) {
  Ctr sum;
  for (const Ctr& c : self.allgather(mine)) sum += c;
  return sum;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double harmonic_mean(const std::vector<double>& v) {
  double inv = 0;
  for (double x : v) inv += 1.0 / x;
  return v.empty() ? 0 : static_cast<double>(v.size()) / inv;
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double tail_mean(std::vector<double>& v, double share) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(v.size())));
  double s = 0;
  for (std::size_t i = v.size() - k; i < v.size(); ++i) s += v[i];
  return s / static_cast<double>(k);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

std::string fs_name(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: return "unknown";
  }
}

// --- report -----------------------------------------------------------------

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::e2e(const std::string& slot, const std::string& name, double value,
                 const std::string& unit, const std::string& clock,
                 std::uint64_t samples, double scale, const std::string& shown_unit) {
  e2e_.push_back({slot, name, unit, clock, value, samples, scale,
                  shown_unit.empty() ? unit : shown_unit});
}
void Report::layer(const std::string& name, double value, const std::string& unit) {
  layers_.push_back({name, unit, value});
}
void Report::check(const std::string& name, bool pass, const std::string& detail) {
  checks_.push_back({name, detail, pass});
}
void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const auto& c : checks_)
    if (!c.pass) return false;
  return true;
}

int Report::emit() const {
  std::ostringstream h;
  h << "== " << workload_ << "\n";
  h << "host: nproc=" << std::thread::hardware_concurrency()
    << " compiler=" << GB_CXX_COMPILER << " build=" << GB_BUILD_TYPE << "\n";
  for (const auto& [k, v] : info_) h << "info  " << k << " = " << v << "\n";
  for (const auto& e : e2e_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", e.value / e.scale);
    h << "e2e   " << e.name << " = " << buf << " " << e.shown_unit << "  [clock=" << e.clock
      << ", n=" << e.samples << ", slot=" << e.slot << "]\n";
  }
  for (const auto& l : layers_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", l.value);
    h << "layer " << l.name << " = " << buf << " " << l.unit << "\n";
  }
  for (const auto& c : checks_)
    h << "check " << (c.pass ? "PASS " : "FAIL ") << c.name << ": " << c.detail << "\n";
  std::cout << h.str();

  std::ostringstream j;
  j << "{\"workload\":" << json_str(workload_) << ",\"correct\":"
    << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
    << ",\"failed\":" << failed_ << ",\"host\":{\"nproc\":"
    << std::thread::hardware_concurrency() << ",\"compiler\":" << json_str(GB_CXX_COMPILER)
    << ",\"build\":" << json_str(GB_BUILD_TYPE);
  for (const auto& [k, v] : info_) j << "," << json_str(k) << ":" << json_str(v);
  j << "},\"e2e\":{";
  for (std::size_t i = 0; i < e2e_.size(); ++i) {
    const auto& e = e2e_[i];
    j << (i ? "," : "") << json_str(e.slot) << ":{\"name\":" << json_str(e.name)
      << ",\"value\":" << json_num(e.value) << ",\"unit\":" << json_str(e.unit)
      << ",\"clock\":" << json_str(e.clock) << ",\"samples\":" << e.samples
      << ",\"shown\":" << json_num(e.value / e.scale) << ",\"shown_unit\":" << json_str(e.shown_unit)
      << "}";
  }
  j << "},\"layer\":{";
  for (std::size_t i = 0; i < layers_.size(); ++i)
    j << (i ? "," : "") << json_str(layers_[i].name) << ":{\"value\":"
      << json_num(layers_[i].value) << ",\"unit\":" << json_str(layers_[i].unit) << "}";
  j << "},\"checks\":{";
  for (std::size_t i = 0; i < checks_.size(); ++i)
    j << (i ? "," : "") << json_str(checks_[i].name) << ":"
      << (checks_[i].pass ? "true" : "false");
  j << "}}";
  std::cout << "GDIBENCH_RESULT " << j.str() << std::endl;
  return correct() ? 0 : 1;
}

void report_setups(Report& rep, const std::vector<double>& setups) {
  rep.e2e("setup_s", "setup_s", median(setups), "s", "wall", setups.size());
  rep.info("setup_s_fastest",
           std::to_string(setups.empty() ? 0 : *std::min_element(setups.begin(), setups.end())));
}

void announce_plan(std::uint64_t requests) {
  std::cout << "GDIBENCH_PLAN " << requests << std::endl;
}

// --- graph set-up -------------------------------------------------------------

namespace {

constexpr int kEdgeFactor = 16;             // Graph500 default
constexpr std::uint32_t kLabels = 20;       // paper default: 20 labels
constexpr std::uint32_t kPtypes = 13;       // paper default: 13 property types
constexpr std::uint32_t kLabelsPerVertex = 2;
constexpr std::uint32_t kPropsPerVertex = 4;
constexpr std::uint32_t kValueBytes = 8;

double seconds_since(double t0_ns) { return (now_ns() - t0_ns) * 1e-9; }

}  // namespace

// Mirrors the loader's exact-size holder rule, with a conservative
// property-entry size.
std::uint64_t holder_blocks(std::uint64_t deg, std::size_t B) {
  using layout::VertexView;
  const auto max_tcap = static_cast<std::uint32_t>((B - VertexView::kHeaderSize) / 8);
  const std::uint32_t prop_bytes =
      kLabelsPerVertex * 16 + kPropsPerVertex * (16 + kValueBytes);
  const auto edge_cap = static_cast<std::uint32_t>(deg);
  std::uint32_t tcap = 4;
  for (int i = 0; i < 6; ++i) {
    const auto nb = static_cast<std::uint32_t>(
        (VertexView::required_size(tcap, edge_cap, prop_bytes) + B - 1) / B);
    if (nb <= tcap) break;
    tcap = nb;
  }
  if (tcap > max_tcap) return max_tcap;
  return (VertexView::required_size(tcap, edge_cap, prop_bytes) + B - 1) / B;
}

Graph setup_graph(rma::Rank& self, const GraphOpts& o) {
  Graph g;
  const int P = self.nranks();
  const auto r = static_cast<std::uint64_t>(self.id());

  gen::LpgConfig lc;
  lc.scale = o.scale;
  lc.edge_factor = kEdgeFactor;
  lc.seed = o.seed;
  lc.labels_per_vertex = kLabelsPerVertex;
  lc.props_per_vertex = kPropsPerVertex;
  lc.value_bytes = kValueBytes;
  g.config = lc;
  g.n = lc.num_vertices();
  const std::uint64_t m = lc.num_edges();

  // Size the pool from this rank's slice: endpoint degrees of the slice's
  // edges, summed over ranks, give every owned vertex's holder size. The
  // pool is uniform, so it is the fullest rank's need plus headroom.
  {
    const gen::KroneckerGenerator plain(lc, {}, {});
    std::vector<std::uint32_t> deg(g.n, 0);
    const std::uint64_t k0 = r * m / static_cast<std::uint64_t>(P);
    const std::uint64_t k1 = (r + 1) * m / static_cast<std::uint64_t>(P);
    for (std::uint64_t k = k0; k < k1; ++k) {
      const auto [s, d] = plain.edge_endpoints(k);
      ++deg[s];
      if (s != d) ++deg[d];
    }
    g.degree = self.allreduce(std::span<const std::uint32_t>(deg),
                              [](std::uint32_t a, std::uint32_t b) { return a + b; });
  }
  std::uint64_t need = 0;
  for (std::uint64_t v = r; v < g.n; v += static_cast<std::uint64_t>(P))
    need += holder_blocks(g.degree[v], o.block_size);
  const std::uint64_t max_need = self.allreduce_max(need);
  g.blocks_per_rank = static_cast<std::size_t>(
      static_cast<double>(max_need) * (1.0 + o.pool_headroom)) + o.extra_blocks_per_rank + 1024;

  DatabaseConfig c;
  c.shared_cache = o.shared_cache;
  c.scache_write_through = o.write_through;
  c.commit_pipeline = o.commit_pipeline;
  c.block.block_size = o.block_size;
  c.block.blocks_per_rank = g.blocks_per_rank;
  c.dht = gen::recommended_dht_config(lc, P);
  const std::uint64_t per_rank = g.n / static_cast<std::uint64_t>(P) + 64;
  c.index_capacity_per_rank = per_rank * 4 + 4096;
  g.db = Database::create(self, c);
  for (std::uint32_t i = 0; i < kLabels; ++i)
    g.label_ids.push_back(*g.db->create_label(self, "Label" + std::to_string(i)));
  for (std::uint32_t i = 0; i < kPtypes; ++i) {
    PropertyType p{.name = "ptype" + std::to_string(i),
                   .dtype = Datatype::kInt64,
                   .mult = Multiplicity::kMultiple,
                   .stype = SizeType::kLimited,
                   .max_size = kValueBytes};
    g.ptype_ids.push_back(*g.db->create_ptype(self, p));
  }
  (void)g.db->create_index(self, IndexDef{{g.label_ids[0]}, {}});

  const double tg = now_ns();
  gen::KroneckerGenerator kg(lc, g.label_ids, g.ptype_ids);
  auto slice = kg.generate_local(self);
  g.generate_s = self.allreduce_max(seconds_since(tg));

  self.barrier();
  const double tl = now_ns();
  BulkLoader loader(g.db, self);
  auto st = loader.load(slice.vertices, slice.edges);
  const bool mine_ok = st.ok();
  g.ok = self.allreduce_min<std::uint8_t>(mine_ok ? 1 : 0) == 1;
  g.load_s = self.allreduce_max(seconds_since(tl));
  const std::uint64_t used = mine_ok ? st->blocks_used : 0;
  g.blocks_used_total = self.allreduce_sum(used);
  g.blocks_used_max_rank = self.allreduce_max(used);
  g.edges_skipped = self.allreduce_sum(mine_ok ? st->edges_skipped : 0);
  g.edges = std::move(slice.edges);
  return g;
}

std::vector<std::uint64_t> pick_roots(const Graph& g, std::uint64_t seed,
                                      std::size_t count) {
  std::vector<std::uint64_t> roots;
  std::vector<bool> taken(g.n, false);
  std::size_t connected = 0;
  for (std::uint32_t d : g.degree) connected += d > 0 ? 1 : 0;
  count = std::min(count, connected);
  for (std::uint64_t k = 0; roots.size() < count; ++k) {
    const std::uint64_t v = splitmix64(hash_combine(seed, k)) % g.n;
    if (g.degree[v] == 0 || taken[v]) continue;
    taken[v] = true;
    roots.push_back(v);
  }
  return roots;
}

}  // namespace gb
