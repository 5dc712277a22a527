// wire_serve: one server rank behind the socket front end (listener,
// scheduler and transactions on the rank thread), group commit and the WAL
// with real fsync on; three socket clients send an open-loop 70/30 mix of
// kGetProps and kUpdateProp at a fixed ladder of offered rates.
//
// Every latency is timed from the request's due time, so a stalled client or
// server also charges the requests queued behind the stall.
//
// The clients speak the net/wire.hpp protocol through WireConn below rather
// than net::NetClient: NetClient::poll_frames returns before reading the
// socket when its timeout is under 2 ms and blocks for a millisecond
// otherwise, so it cannot drive an open loop whose gaps are ~100 us.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "common/hash.hpp"
#include "net/listener.hpp"
#include "net/wire.hpp"

namespace gb {
namespace {

namespace fs = std::filesystem;

constexpr int kClients = 3;
constexpr std::uint64_t kKeys = 3 * 2048;      ///< key space; client c writes keys == c mod 3
constexpr std::uint64_t kToken = 0x6b656e63681ULL;
constexpr std::uint32_t kCredits = 32;
constexpr double kReadShare = 0.7;
constexpr double kLimitUs = 1000;              ///< p99 limit for wire_kqps_max
/// A ladder step's p99 is the median over this many equal windows of the
/// step (by due time), so one scheduler or device stall fails one window.
constexpr std::size_t kStepWindows = 5;
/// The run's first half offers the reference rate in kRefWindows windows;
/// wire_p50/p99 are the medians of the per-window percentiles, so one
/// device stall moves one window, not the reported figure.
constexpr double kRefRate = 20e3;
constexpr std::size_t kRefWindows = 16;
/// The second half climbs the ladder of offered total rates (1/s).
constexpr std::array<double, 8> kLadder = {5e3, 10e3, 20e3, 40e3, 60e3, 80e3, 100e3, 120e3};
constexpr std::size_t kPhases = kRefWindows + kLadder.size();
constexpr double kDrainTimeoutNs = 20e9;

/// Offered rate of phase k (reference windows first, then the ladder).
[[nodiscard]] double phase_rate(std::size_t k) {
  return k < kRefWindows ? kRefRate : kLadder[k - kRefWindows];
}

struct Planned {
  server::Request req;
  double due_ns = 0;
  std::uint8_t phase = 0;
};

struct Outcome {
  double send_ns = 0;
  double recv_ns = 0;
  Status status = Status::kOk;
  std::uint32_t replies = 0;
};

struct ClientRun {
  std::vector<Planned> plan;
  std::vector<Outcome> out;
  bool connected = false;
};

/// Phase k spans [edges[k], edges[k+1]).
std::array<double, kPhases + 1> phase_edges(double t0, double seconds) {
  std::array<double, kPhases + 1> e{};
  const double ref_ns = 0.5 * seconds * 1e9 / kRefWindows;
  const double step_ns = 0.5 * seconds * 1e9 / static_cast<double>(kLadder.size());
  e[0] = t0;
  for (std::size_t k = 0; k < kPhases; ++k)
    e[k + 1] = e[k] + (k < kRefWindows ? ref_ns : step_ns);
  return e;
}

/// The client's open-loop schedule: in each phase, evenly spaced due times
/// at a third of the phase's rate, shifted per client.
std::vector<Planned> make_plan(int c, std::uint64_t seed,
                               const std::array<double, kPhases + 1>& edges,
                               std::uint32_t ptype) {
  std::vector<Planned> plan;
  CounterRng rng(hash_combine(seed, 0x57a9e + static_cast<std::uint64_t>(c)));
  std::uint64_t tag = 0;
  for (std::size_t k = 0; k < kPhases; ++k) {
    const double gap = 1e9 * kClients / phase_rate(k);
    for (double due = edges[k] + gap * c / kClients; due < edges[k + 1]; due += gap) {
      Planned p;
      p.due_ns = due;
      p.phase = static_cast<std::uint8_t>(k);
      p.req.client_tag = ++tag;
      p.req.ptype = ptype;
      if (rng.next_unit() < kReadShare) {
        p.req.op = server::OpKind::kGetProps;
        p.req.a = rng.next_below(kKeys);
      } else {
        p.req.op = server::OpKind::kUpdateProp;
        p.req.a = static_cast<std::uint64_t>(c) + kClients * rng.next_below(kKeys / kClients);
        p.req.value = static_cast<std::int64_t>((static_cast<std::uint64_t>(c + 1) << 40) | tag);
      }
      plan.push_back(p);
    }
  }
  return plan;
}

/// One client connection: the Hello/HelloAck handshake, blocking request
/// writes, and nonblocking reply harvest, framed by net/wire.hpp.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool connect(std::uint16_t port, std::uint64_t token, std::uint64_t tenant) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return false;
    if (!send_frame(net::FrameType::kHello, net::HelloBody{token, tenant})) return false;
    for (int i = 0; i < 100; ++i) {  // up to ~2 s for the HelloAck
      pollfd pf{fd_, POLLIN, 0};
      if (::poll(&pf, 1, 20) <= 0) continue;
      if (!read_some()) return false;
      net::Frame fr;
      std::size_t used = 0;
      if (net::decode_frame(rx_, net::kMaxFrameLen, &fr, &used) != net::DecodeResult::kFrame)
        continue;
      net::HelloAckBody ack;
      const bool ok = fr.type == net::FrameType::kHelloAck && net::read_body(fr.payload, &ack);
      rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(used));
      return ok && ack.credits >= kCredits;
    }
    return false;
  }

  bool send(const server::Request& r) { return send_frame(net::FrameType::kRequest, r); }

  /// Block until the socket is readable or `ns` nanoseconds have passed.
  void wait(double ns) {
    pollfd pf{fd_, POLLIN, 0};
    const auto whole = static_cast<long>(ns);
    const timespec ts{whole / 1000000000L, whole % 1000000000L};
    (void)::ppoll(&pf, 1, &ts, nullptr);
  }

  /// Harvest every reply already on the socket without blocking. False once
  /// the connection is over (EOF, error, Bye or a malformed frame).
  bool poll(std::vector<server::Reply>* out) {
    for (;;) {
      std::byte buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        rx_.insert(rx_.end(), buf, buf + n);
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) return false;
    }
    for (;;) {
      net::Frame fr;
      std::size_t used = 0;
      const net::DecodeResult dr = net::decode_frame(rx_, net::kMaxFrameLen, &fr, &used);
      if (dr == net::DecodeResult::kNeedMore) return true;
      server::Reply rep;
      if (dr == net::DecodeResult::kBad || fr.type != net::FrameType::kReply ||
          !net::read_body(fr.payload, &rep))
        return false;
      rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(used));
      out->push_back(rep);
    }
  }

  /// Orderly close: Bye(kDone), then wait (bounded) for the server's Bye.
  void finish() {
    if (!send_frame(net::FrameType::kBye, net::ByeBody{})) return;
    for (int i = 0; i < 100; ++i) {
      pollfd pf{fd_, POLLIN, 0};
      if (::poll(&pf, 1, 20) > 0 && !read_some()) return;
    }
  }

 private:
  template <class T>
  bool send_frame(net::FrameType type, const T& body) {
    std::vector<std::byte> f;
    net::encode_frame(f, type, body);
    for (std::size_t off = 0; off < f.size();) {
      const ssize_t n = ::send(fd_, f.data() + off, f.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool read_some() {
    std::byte buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    rx_.insert(rx_.end(), buf, buf + n);
    return true;
  }

  int fd_ = -1;
  std::vector<std::byte> rx_;
};

/// Open-loop sender/receiver on one connection. Sends each request at its
/// due time (later only when the credit window is full), stamps replies on
/// arrival, and stops once everything is answered or the drain times out.
void client_loop(int c, std::uint16_t port, ClientRun& run, Tracer& tr, double end_ns) {
  run.out.assign(run.plan.size(), Outcome{});
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake for due times to the microsecond
  WireConn conn;
  if (!conn.connect(port, kToken, 1 + static_cast<std::uint64_t>(c))) return;
  run.connected = true;
  std::size_t sent = 0, answered = 0;
  std::vector<server::Reply> reps;
  const double give_up = end_ns + kDrainTimeoutNs;
  while (answered < run.plan.size() && now_ns() < give_up) {
    while (sent < run.plan.size() && run.plan[sent].due_ns <= now_ns() &&
           sent - answered < kCredits) {
      if (!tr.wall_span("net.client_send", [&] { return conn.send(run.plan[sent].req); }))
        return;
      run.out[sent++].send_ns = now_ns();
    }
    reps.clear();
    const bool alive = tr.wall_span("net.client_poll", [&] { return conn.poll(&reps); });
    const double t = now_ns();
    for (const auto& r : reps) {
      if (r.client_tag == 0 || r.client_tag > sent) continue;
      Outcome& o = run.out[r.client_tag - 1];
      if (o.replies++ == 0) {
        o.recv_ns = t;
        o.status = r.status;
        ++answered;
      }
    }
    if (!alive) return;
    // Sleep until a reply arrives or the next request is due (the window
    // full: until a reply arrives), so idle clients leave the cores to the
    // server.
    if (reps.empty()) {
      const bool can_send = sent < run.plan.size() && sent - answered < kCredits;
      conn.wait(can_send ? std::min(run.plan[sent].due_ns - now_ns(), 1e6) : 1e6);
    }
  }
  conn.finish();
}

std::uint64_t dir_bytes(const fs::path& p) {
  std::uint64_t b = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(p, ec); !ec && it != fs::end(it);
       it.increment(ec))
    if (it->is_regular_file(ec)) b += it->file_size(ec);
  return b;
}

}  // namespace

int run_wire_serve(const RunOpts& o) {
  Report rep("wire_serve");
  const fs::path tmp = fs::path(o.tmp_dir) / ("wire-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) {
    std::cerr << "wire_serve: cannot create " << tmp << "\n";
    return 2;
  }

  std::vector<double> setups;
  std::array<ClientRun, kClients> runs;
  std::vector<Tracer> ctr_tracers(kClients, Tracer(o.trace));
  Tracer tr(o.trace);
  bool setup_ok = true;
  double rss = 0, loop_ns = 0, busy_ns = 0;
  std::array<double, kPhases + 1> edges{};   // phase boundaries (steady_clock ns)
  std::array<double, kPhases + 1> sim_at{};  // rank model clock at the boundaries
  Ctr window;
  std::uint64_t wal_bytes = 0, readback_bad = 0, readback_keys = 0;

  rma::Runtime rt(1, rma::NetParams::xc50());
  rt.run([&](rma::Rank& self) {
    std::shared_ptr<Database> db;
    std::uint32_t pt = 0;
    fs::path wal_dir;
    for (int s = 0; s < kSetups && setup_ok; ++s) {
      db.reset();
      const double t0 = now_ns();
      wal_dir = tmp / ("wal" + std::to_string(s));
      DatabaseConfig c;
      c.block.block_size = 512;
      c.block.blocks_per_rank = kKeys * 2 + 8192;
      c.dht.entries_per_rank = kKeys * 2 + 4096;
      c.dht.buckets_per_rank = (kKeys * 2 + 4096) / 8;
      c.commit_pipeline = true;
      c.wal = true;
      c.wal_dir = wal_dir.string();
      c.server = true;
      c.net_listen = true;
      c.net_auth_token = kToken;
      c.net_credits = kCredits;
      db = Database::create(self, c);
      pt = *db->create_ptype(self, PropertyType{.name = "val", .dtype = Datatype::kInt64});
      for (std::uint64_t base = 0; base < kKeys && setup_ok; base += 64) {
        Transaction txn(db, self, TxnMode::kWrite);
        for (std::uint64_t id = base; id < std::min(base + 64, kKeys); ++id) {
          auto vh = txn.create_vertex(id);
          if (!vh.ok() || !ok(txn.add_property(*vh, pt, PropValue{std::int64_t{0}})))
            setup_ok = false;
        }
        if (!setup_ok) txn.abort();
        else if (!ok(txn.commit())) setup_ok = false;
      }
      if (!setup_ok || !ok(db->listener(self)->start())) setup_ok = false;
      setups.push_back((now_ns() - t0) * 1e-9);
    }
    if (!setup_ok) return;
    net::Listener* L = db->listener(self);

    edges = phase_edges(now_ns() + 50e6, o.seconds);  // clients connect first
    const double end = edges[kPhases];
    std::uint64_t planned = 0;
    for (int c = 0; c < kClients; ++c) {
      runs[static_cast<std::size_t>(c)].plan = make_plan(c, o.seed, edges, pt);
      planned += runs[static_cast<std::size_t>(c)].plan.size();
    }
    announce_plan(planned);
    std::atomic<int> done{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        client_loop(c, L->port(), runs[static_cast<std::size_t>(c)],
                    ctr_tracers[static_cast<std::size_t>(c)], end);
        if (done.fetch_add(1) + 1 == kClients) L->request_stop();
      });

    // The benchmark owns the rank loop: poll_once until every client is
    // done, then serve() drains what is still admitted. As in serve(), a
    // pass that made progress is followed by a non-blocking one, whose idle
    // pump fences the open commit epoch.
    const Ctr c0 = Ctr::of(self.counters());
    std::size_t edge = 0;
    const double l0 = now_ns();
    for (bool busy = true; !L->stop_requested();) {
      const double p0 = now_ns();
      busy = tr.span("net.poll_once", self,
                     [&] { return L->poll_once(db, self, busy ? 0 : 1); });
      const double p1 = now_ns();
      if (busy) busy_ns += p1 - p0;
      while (edge <= kPhases && p1 >= edges[edge]) sim_at[edge++] = self.sim_time_ns();
    }
    for (auto& t : clients) t.join();
    L->serve(db, self);
    loop_ns = now_ns() - l0;
    for (; edge <= kPhases; ++edge) sim_at[edge] = self.sim_time_ns();
    window = Ctr::of(self.counters()) - c0;
    rss = peak_rss_mb();

    // Read-back: each key holds the value of its last acknowledged update
    // (one writer per key, whose session applies its requests in order).
    std::vector<std::int64_t> expect(kKeys, 0);
    std::vector<std::uint64_t> expect_tag(kKeys, 0);
    for (const auto& run : runs)
      for (std::size_t i = 0; i < run.plan.size(); ++i) {
        const auto& r = run.plan[i].req;
        if (r.op == server::OpKind::kUpdateProp && run.out[i].replies > 0 &&
            run.out[i].status == Status::kOk && r.client_tag > expect_tag[r.a]) {
          expect_tag[r.a] = r.client_tag;
          expect[r.a] = r.value;
        }
      }
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      Transaction txn(db, self, TxnMode::kRead);
      auto vh = txn.find_vertex(id);
      std::int64_t got = -1;
      if (vh.ok()) {
        auto v = txn.get_properties(*vh, pt);
        if (v.ok() && v->size() == 1) got = std::get<std::int64_t>((*v)[0]);
      }
      txn.abort();
      ++readback_keys;
      if (got != expect[id]) ++readback_bad;
    }
    db.reset();
    wal_bytes = dir_bytes(wal_dir);
  });
  rep.info("wal_fs", fs_name(tmp.string()));
  fs::remove_all(tmp, ec);
  if (!setup_ok) {
    std::cerr << "wire_serve: set-up failed\n";
    return 2;
  }

  // Per-phase latency (from due time), answered rate and end-of-phase backlog.
  struct Phase {
    std::vector<double> lat_us, upd_us;
    std::array<std::vector<double>, kStepWindows> windows;
    std::uint64_t due = 0, answered_in = 0, answered_by_end = 0;
  };
  std::array<Phase, kPhases> phases;
  std::uint64_t attempted = 0, failed = 0, dup = 0, unanswered = 0;
  std::vector<double> lateness_us;
  for (const auto& run : runs) {
    for (std::size_t i = 0; i < run.plan.size(); ++i) {
      const auto& p = run.plan[i];
      const auto& out = run.out[i];
      auto& ph = phases[p.phase];
      ++attempted;
      ++ph.due;
      if (out.replies == 0) {
        ++unanswered;
        ++failed;
        continue;
      }
      if (out.replies > 1) ++dup;
      if (out.status != Status::kOk && out.status != Status::kNotFound) ++failed;
      const double lat = (out.recv_ns - p.due_ns) / 1e3;
      ph.lat_us.push_back(lat);
      const auto w = static_cast<std::size_t>(kStepWindows * (p.due_ns - edges[p.phase]) /
                                              (edges[p.phase + 1u] - edges[p.phase]));
      ph.windows[std::min(w, kStepWindows - 1)].push_back(lat);
      if (p.req.op == server::OpKind::kUpdateProp) ph.upd_us.push_back(lat);
      if (out.recv_ns < edges[p.phase + 1u]) ++ph.answered_by_end;
      const auto k = static_cast<std::size_t>(
          std::upper_bound(edges.begin(), edges.end(), out.recv_ns) - edges.begin());
      if (k >= 1 && k <= kPhases) ++phases[k - 1].answered_in;
      // Generator lateness where it qualifies wire_p50/p99: the reference windows.
      if (p.phase < kRefWindows) lateness_us.push_back((out.send_ns - p.due_ns) / 1e3);
    }
  }
  auto secs = [&](std::size_t k) { return (edges[k + 1] - edges[k]) * 1e-9; };

  // Reference rate: medians over the windows of each window's figure.
  std::vector<double> p50, p99, umean, u99, model_rate;
  std::uint64_t ref_n = 0, ref_upd = 0;
  for (std::size_t k = 0; k < kRefWindows; ++k) {
    auto& ph = phases[k];
    ref_n += ph.lat_us.size();
    ref_upd += ph.upd_us.size();
    p50.push_back(percentile(ph.lat_us, 0.50));
    p99.push_back(percentile(ph.lat_us, 0.99));
    umean.push_back(mean(ph.upd_us));
    u99.push_back(percentile(ph.upd_us, 0.99));
    model_rate.push_back(ratio(ph.answered_in, (sim_at[k + 1] - sim_at[k]) * 1e-9));
  }

  // Ladder: the highest step (with every lower one) meeting the p99 limit
  // without a growing backlog (more unanswered at its end than the windows
  // hold in flight).
  double kqps_max = 0;
  std::size_t best = 0;
  for (std::size_t k = kRefWindows; k < kPhases; ++k) {
    auto& ph = phases[k];
    std::vector<double> window_p99;
    for (auto& w : ph.windows) window_p99.push_back(percentile(w, 0.99));
    const double q99 = median(window_p99);
    const std::uint64_t backlog = ph.due - ph.answered_by_end;
    const bool pass = !ph.lat_us.empty() && ph.lat_us.size() == ph.due && q99 < kLimitUs &&
                      backlog <= kClients * kCredits;
    const double rate = ph.answered_in / secs(k);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "offered %.0f/s answered %.0f/s p99 %.1f us backlog %llu %s",
                  phase_rate(k), rate, q99, static_cast<unsigned long long>(backlog),
                  pass ? "pass" : "fail");
    rep.info("step" + std::to_string(k - kRefWindows), buf);
    if (pass && best == k - kRefWindows) {
      kqps_max = rate;
      best = k - kRefWindows + 1;
    }
  }
  std::uint64_t served = window.sched_served;

  rep.info("ref_rate", std::to_string(static_cast<int>(kRefRate)));
  rep.info("ref_windows", std::to_string(kRefWindows));
  rep.info("steps_passed", std::to_string(best));
  rep.info("keys", std::to_string(kKeys));
  report_setups(rep, setups);
  rep.e2e("peak_rss_mb", "peak_rss_mb", rss, "MB", "-", 1);
  rep.e2e("rate_model", "wire_ref_rate_model", median(model_rate), "1/s", "model", ref_n);
  rep.e2e("rate_wall", "wire_kqps_max", kqps_max, "1/s", "wall", best, 1e3, "kq/s");
  rep.e2e("lat_p50_us", "wire_p50_us", median(p50), "us", "wall", ref_n);
  rep.e2e("lat_p99_us", "wire_p99_us", median(p99), "us", "wall", ref_n);
  rep.e2e("lat2_mean_us", "wire_update_mean_us", median(umean), "us", "wall", ref_upd);
  rep.e2e("lat2_tail_us", "wire_update_p99_us", median(u99), "us", "wall", ref_upd);
  rep.e2e("failed_frac", "failed_frac", ratio(failed, attempted), "ratio", "-", attempted);
  rep.count(attempted, failed);

  bool all_connected = true;
  for (const auto& run : runs) all_connected = all_connected && run.connected;
  rep.check("clients_connected", all_connected, std::to_string(kClients) + " connections");
  rep.check("answered_exactly_once", unanswered == 0 && dup == 0,
            std::to_string(unanswered) + " unanswered, " + std::to_string(dup) +
                " answered twice, of " + std::to_string(attempted));
  rep.check("acked_updates_read_back", readback_bad == 0,
            std::to_string(readback_bad) + " of " + std::to_string(readback_keys) +
                " keys differ from their last acked update");
  rep.check("wal_io_errors", window.wal_io_errors == 0,
            std::to_string(window.wal_io_errors) + " sealed epochs dropped");

  if (o.trace) {
    for (const auto& t : ctr_tracers) tr.merge(t);
    const SpanStat poll = tr.get("net.poll_once");
    const auto req = static_cast<double>(attempted);
    rep.layer("net.poll_once.wall_ns", poll.mean_wall_ns(), "ns");
    rep.layer("net.poll_busy_share", ratio(busy_ns, loop_ns), "ratio");
    rep.layer("net.frames_per_request", (window.net_frames_rx + window.net_frames_tx) / req,
              "count");
    rep.layer("net.backpressure_stalls", static_cast<double>(window.net_backpressure_stalls),
              "count");
    rep.layer("net.client_send.wall_ns", tr.get("net.client_send").mean_wall_ns(), "ns");
    rep.layer("net.client_poll.wall_ns", tr.get("net.client_poll").mean_wall_ns(), "ns");
    rep.layer("net.gen_lateness_us", percentile(lateness_us, 0.99), "us");
    rep.layer("wal.appends_per_fsync", ratio(window.wal_appends, window.wal_fsyncs), "count");
    rep.layer("wal.fsyncs_per_s", ratio(window.wal_fsyncs, o.seconds), "1/s");
    rep.layer("wal.bytes_per_commit", ratio(wal_bytes, window.wal_appends), "B");
    rep.layer("wal.io_errors", static_cast<double>(window.wal_io_errors), "count");
    rep.layer("server.coalesce_ratio", ratio(window.sched_coalesced, served), "ratio");
    rep.layer("server.admission_rejects", static_cast<double>(window.sched_admission_rejects),
              "count");
    rep.layer("server.epochs_per_s", ratio(window.sched_epochs, o.seconds), "1/s");
    rep.layer("commit.txns_per_epoch", ratio(window.gc_enrolled, window.gc_epochs), "count");
    rep.layer("dht.probe_rounds_per_query", ratio(window.dht_probe_rounds, served), "count");
    rep.layer("dht.xlate_hit_ratio",
              ratio(window.xlate_hits, window.xlate_hits + window.xlate_fallbacks), "ratio");
  }
  return rep.emit();
}

}  // namespace gb
