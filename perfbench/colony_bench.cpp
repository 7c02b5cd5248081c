// End-to-end ColonyChat benchmark.
//
// Runs one named workload (the ColonyChat driver on a Cluster, plus the
// benchmark's own delivery probes and, in edge_faults, its fault schedule)
// in a single thread, checks the outputs, and prints one JSON object as the
// last line of standard output. Simulated-time metrics come from the
// deterministic simulation; CPU-time metrics time only calls this file
// makes. See README.md for the workloads and the metric definitions.
//
//   colony_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>]
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chat/driver.hpp"
#include "chat/model.hpp"
#include "chat/trace.hpp"
#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/rga.hpp"
#include "dc/messages.hpp"
#include "security/acl.hpp"

namespace {

using namespace colony;

/// CPU time of this process, whose epoch is the process's start. The run is
/// single-threaded, so this is the time it ran, whether or not the host let
/// it run all along; waits for the forked copies are never timed.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(std::chrono::seconds(ts.tv_sec) +
                      std::chrono::nanoseconds(ts.tv_nsec));
  }
};

const Clock::time_point kProcessStart{};

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double ms(SimTime us) { return static_cast<double>(us) / 1000.0; }

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Every workload runs on 3 DCs with K = 2.
constexpr std::size_t kDcs = 3;
constexpr std::size_t kStability = 2;
/// Cache capacity of edge_faults' client-cache users.
constexpr std::size_t kSoloCacheCapacity = 16;

struct Workload {
  std::string name;
  ClientMode mode = ClientMode::kPeerGroup;
  std::size_t clients = 48;
  std::size_t group_size = 12;
  /// edge_faults: client-cache users beside the peer group, on the default
  /// three workspaces of twenty channels each.
  std::size_t solo_clients = 0;
  double write_ratio = 0.10;
  double bot_write_ratio = 0.40;
  SimTime think = 100 * kMillisecond;
  std::size_t cache_capacity = 64;
  std::size_t workspaces = 3;
  std::size_t channels = 20;
  /// Simulated seconds of the timed phase per --seconds.
  double sim_per_second = 1.0;
  /// Percentile reported as response_tail_ms (at least ten samples beyond
  /// it at the committed run length, and off the step between hit classes).
  double tail_pct = 99.0;
  bool faults = false;
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "cloud_dc") {
    w.mode = ClientMode::kCloudOnly;
    w.clients = 256;
    w.sim_per_second = 1.0;
    w.tail_pct = 99.0;
  } else if (name == "group_long") {
    w.mode = ClientMode::kPeerGroup;
    w.clients = 120;
    w.group_size = 12;
    w.cache_capacity = 8;
    w.sim_per_second = 0.25;
    w.tail_pct = 99.9;
  } else if (name == "edge_faults") {
    w.mode = ClientMode::kPeerGroup;
    w.clients = 16;
    w.group_size = 16;
    w.solo_clients = 96;
    w.write_ratio = 0.30;
    w.bot_write_ratio = 0.60;
    w.think = 150 * kMillisecond;
    w.workspaces = 1;
    w.channels = 8;
    w.sim_per_second = 0.25;
    w.tail_pct = 99.0;
    w.faults = true;
  } else {
    w.name.clear();
  }
  return w;
}

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into the layers, kept in
// memory and written out as JSON at the end. Inactive unless --trace 1.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }

  int begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(),
                      seconds_since(kProcessStart), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Ends span `id` and returns its duration in seconds.
  double end(int id) {
    if (id < 0) return 0.0;
    spans_[id].end = seconds_since(kProcessStart);
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    return spans_[id].end - spans_[id].start;
  }

  template <typename F>
  double timed(const std::string& name, F&& f) {
    const int id = begin(name);
    f();
    return end(id);
  }

  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"start_s\":" << s.start
          << ",\"end_s\":" << s.end << "}";
    }
    out << "\n]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Delivery probes: a peer group of the benchmark's own (parent, author,
// peers) plus two client-cache observers per DC, all on one probe channel.
// The author posts numbered messages at a fixed period; every observer
// records when each post first becomes visible to it.
// ---------------------------------------------------------------------------

const ObjectKey kProbeKey{"probe", "feed"};
constexpr UserId kProbeAuthor = 500;
constexpr UserId kProbePeerBase = 501;
constexpr UserId kProbeObserverBase = 600;
constexpr std::size_t kProbePeers = 6;
constexpr std::size_t kObserversPerDc = 2;
constexpr SimTime kProbePeriod = 250 * kMillisecond;
constexpr SimTime kNever = UINT64_MAX;

class Probes {
 public:
  struct Observer {
    EdgeNode* node;
    bool peer;                      // group member (else DC observer)
    std::vector<SimTime> seen_at;   // by probe number; kNever = not yet
  };

  explicit Probes(Cluster& cluster) : cluster_(cluster) {
    parent_ = &cluster.add_group_parent(0);
    author_ = &cluster.add_edge(ClientMode::kPeerGroup, 0, kProbeAuthor);
    std::vector<NodeId> group{parent_->id(), author_->id()};
    for (std::size_t i = 0; i < kProbePeers; ++i) {
      EdgeNode& peer = cluster.add_edge(ClientMode::kPeerGroup, 0,
                                        kProbePeerBase + i);
      group.push_back(peer.id());
      observers_.push_back({&peer, true, {}});
    }
    cluster.wire_peer_links(group);
    for (std::size_t i = 0; i < kObserversPerDc * cluster.num_dcs(); ++i) {
      EdgeNode& obs = cluster.add_edge(ClientMode::kClientCache,
                                       static_cast<DcId>(i % cluster.num_dcs()),
                                       kProbeObserverBase + i);
      observers_.push_back({&obs, false, {}});
    }
  }

  /// Join, subscribe and watch; posts start at `first_post`.
  void start(SimTime first_post) {
    author_->join_group(parent_->id(), [this](Result<void>) {
      author_->subscribe({kProbeKey}, [](Result<void>) {});
    });
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      EdgeNode* node = observers_[i].node;
      auto subscribe = [node] { node->subscribe({kProbeKey}, [](Result<void>) {}); };
      if (observers_[i].peer) {
        node->join_group(parent_->id(),
                         [subscribe](Result<void>) { subscribe(); });
      } else {
        subscribe();
      }
      node->watch(kProbeKey, [this, i](const ObjectKey&) { on_visible(i); });
    }
    cluster_.scheduler().at(first_post, [this] { post(); });
  }

  void stop() { stopped_ = true; }
  void measure_from(SimTime t) { measure_from_ = t; }
  void measure_until(SimTime t) { measure_until_ = t; }

  [[nodiscard]] const std::vector<std::string>& posted() const {
    return posted_;
  }
  [[nodiscard]] const std::vector<Observer>& observers() const {
    return observers_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  PeerGroupParent& parent() { return *parent_; }

  /// Delivery latencies (ms) of posts committed in the measured window.
  [[nodiscard]] std::vector<double> delivery_ms(bool peer) const {
    std::vector<double> out;
    for (std::size_t n = 0; n < posted_.size(); ++n) {
      if (commit_at_[n] < measure_from_ || commit_at_[n] >= measure_until_) {
        continue;
      }
      for (const Observer& o : observers_) {
        if (o.peer != peer) continue;
        if (n < o.seen_at.size() && o.seen_at[n] != kNever) {
          out.push_back(ms(o.seen_at[n] - commit_at_[n]));
        }
      }
    }
    return out;
  }

  /// Posts in the measured window not seen by some observer at run end.
  [[nodiscard]] std::size_t undelivered() const {
    std::size_t missing = 0;
    for (std::size_t n = 0; n < posted_.size(); ++n) {
      if (commit_at_[n] < measure_from_ || commit_at_[n] >= measure_until_) {
        continue;
      }
      for (const Observer& o : observers_) {
        if (n >= o.seen_at.size() || o.seen_at[n] == kNever) ++missing;
      }
    }
    return missing;
  }

 private:
  void post() {
    if (stopped_) return;
    Session session(*author_);
    auto txn = session.begin();
    const std::string value = "p" + std::to_string(posted_.size());
    session.append(txn, kProbeKey, value);
    ++attempted_;
    if (session.commit(std::move(txn)).ok()) {
      posted_.push_back(value);
      commit_at_.push_back(cluster_.now());
    } else {
      ++failed_;
    }
    cluster_.scheduler().after(kProbePeriod, [this] { post(); });
  }

  void on_visible(std::size_t i) {
    Observer& o = observers_[i];
    const auto* rga = dynamic_cast<const Rga*>(o.node->cached(kProbeKey));
    if (rga == nullptr) return;
    for (const std::string& v : rga->values()) {
      const std::size_t n = std::strtoull(v.c_str() + 1, nullptr, 10);
      if (n >= o.seen_at.size()) o.seen_at.resize(n + 1, kNever);
      if (o.seen_at[n] == kNever) o.seen_at[n] = cluster_.now();
    }
  }

  Cluster& cluster_;
  PeerGroupParent* parent_ = nullptr;
  EdgeNode* author_ = nullptr;
  std::vector<Observer> observers_;
  std::vector<std::string> posted_;
  std::vector<SimTime> commit_at_;
  SimTime measure_from_ = 0;
  SimTime measure_until_ = kNever;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Access control (edge_faults): an admin installs a policy, then revokes
// and later restores the write right of one writer whose user id no other
// device shares. The writer updates only its own object, so its masked
// transactions cannot drag other users' transactions along.
// ---------------------------------------------------------------------------

constexpr UserId kAdminUser = 1;
constexpr UserId kRevokedUser = 777;
const ObjectKey kRevokedKey{"aclnote", "777"};
const security::AclTuple kRevokedGrant{"aclnote", kRevokedUser,
                                       security::Permission::kWrite};
constexpr SimTime kWriterPeriod = 200 * kMillisecond;

class AclScenario {
 public:
  AclScenario(Cluster& cluster, std::vector<UserId> chat_users)
      : cluster_(cluster), chat_users_(std::move(chat_users)) {
    admin_ = &cluster.add_edge(ClientMode::kClientCache, 0, kAdminUser);
    writer_ = &cluster.add_edge(ClientMode::kClientCache, 2 % cluster.num_dcs(),
                                kRevokedUser);
  }

  void install() {
    admin_->subscribe({security::acl_object_key()}, [](Result<void>) {});
    Session s(*admin_);
    auto txn = s.begin();
    s.grant(txn, {"_sys", kAdminUser, security::Permission::kOwn});
    for (const UserId u : chat_users_) {
      s.grant(txn, {"chat", u, security::Permission::kWrite});
    }
    s.grant(txn, {"probe", kProbeAuthor, security::Permission::kWrite});
    for (std::size_t i = 0; i < kProbePeers; ++i) {
      s.grant(txn, {"probe", kProbePeerBase + i, security::Permission::kWrite});
    }
    s.grant(txn, kRevokedGrant);
    ++attempted_;
    if (!s.commit(std::move(txn)).ok()) ++failed_;
  }

  void start_writer(SimTime at) {
    cluster_.scheduler().at(at, [this] { write(); });
  }

  void revoke() {
    Session s(*admin_);
    auto txn = s.begin();
    s.revoke(txn, kRevokedGrant);
    ++attempted_;
    const Result<Dot> r = s.commit(std::move(txn));
    if (r.ok()) {
      revoke_dot_ = r.value();
    } else {
      ++failed_;
    }
    revoked_ = true;
  }

  void restore() {
    Session s(*admin_);
    auto txn = s.begin();
    s.grant(txn, kRevokedGrant);
    ++attempted_;
    if (!s.commit(std::move(txn)).ok()) ++failed_;
  }

  void stop() { stopped_ = true; }

  /// Audit the DCs' masks while the revocation is in force everywhere.
  void audit(std::vector<std::string>& failures) {
    std::vector<const DcNode*> dcs;
    for (DcId d = 0; d < cluster_.num_dcs(); ++d) {
      const DcNode& dc = cluster_.dc(d);
      if (dc.crashed()) return;
      const security::AclObject* acl = dc.acl();
      if (acl == nullptr ||
          acl->check(kRevokedGrant.object, kRevokedUser, kRevokedGrant.permission)) {
        return;  // revocation not (or no longer) in force at this DC
      }
      dcs.push_back(&dc);
    }
    ++audits_;
    // Agreement on every transaction all DCs have applied.
    for (const Dot& dot : dcs[0]->engine().applied_set()) {
      bool everywhere = true;
      for (const DcNode* dc : dcs) everywhere &= dc->engine().is_applied(dot);
      if (!everywhere) continue;
      const bool m = dcs[0]->engine().is_masked(dot);
      for (const DcNode* dc : dcs) {
        if (dc->engine().is_masked(dot) != m) {
          failures.push_back("acl: DCs disagree on the mask of " +
                             dot.to_string());
          return;
        }
      }
    }
    for (const DcNode* dc : dcs) {
      // The revoked user's writes in the causal past of the revocation.
      VersionVector revocation_cut;
      const bool cut_known =
          dc->txns().effective_snapshot(revoke_dot_, revocation_cut);
      if (cut_known) {
        std::size_t before = 0;
        for (const Dot& dot : pre_revocation_) {
          before += dc->txns().visible_at(dot, revocation_cut) ? 1 : 0;
        }
        max_causal_before_ = std::max(max_causal_before_, before);
      }
      std::size_t masked_before = 0;
      const auto& masked = dc->engine().masked_set();
      max_masked_ = std::max(max_masked_, masked.size());
      for (const Dot& dot : masked) {
        const Transaction* txn = dc->txns().find(dot);
        if (txn == nullptr) continue;
        if (txn->meta.user == kRevokedUser) {
          if (cut_known && dc->txns().visible_at(dot, revocation_cut)) {
            ++masked_before;
          } else {
            masked_revoked_ = true;
          }
          continue;
        }
        bool depends = false;
        for (const Dot& other : masked) {
          const Transaction* m = dc->txns().find(other);
          if (other == dot || m == nullptr) continue;
          if (m->meta.origin == txn->meta.origin) depends = true;
          for (const OpRecord& a : txn->ops) {
            for (const OpRecord& b : m->ops) depends |= a.key == b.key;
          }
          if (depends) break;
        }
        if (!depends) {
          failures.push_back("acl: masked transaction " + dot.to_string() +
                             " is neither the revoked user's nor dependent");
          return;
        }
      }
      max_masked_before_ = std::max(max_masked_before_, masked_before);
    }
  }

  void final_check(std::vector<std::string>& failures) const {
    if (audits_ == 0) {
      failures.push_back("acl: the revocation never took effect at all DCs");
    } else if (!masked_revoked_) {
      failures.push_back("acl: no post-revocation write of the revoked user "
                         "was masked");
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::size_t max_masked() const { return max_masked_; }
  /// Writes of the revoked user in the causal past of the revocation that
  /// a DC masked. Reported, not gated: the policy re-evaluation masks every
  /// such write not yet baked into a base version (see README.md).
  [[nodiscard]] std::size_t max_masked_before() const {
    return max_masked_before_;
  }
  /// Writes of the revoked user in the causal past of the revocation.
  [[nodiscard]] std::size_t causal_before() const {
    return max_causal_before_;
  }

 private:
  void write() {
    if (stopped_) return;
    Session s(*writer_);
    auto txn = s.begin();
    s.increment(txn, kRevokedKey, 1);
    ++attempted_;
    const Result<Dot> r = s.commit(std::move(txn));
    if (!r.ok()) {
      ++failed_;
    } else if (!revoked_) {
      pre_revocation_.insert(r.value());
    }
    cluster_.scheduler().after(kWriterPeriod, [this] { write(); });
  }

  Cluster& cluster_;
  std::vector<UserId> chat_users_;
  EdgeNode* admin_ = nullptr;
  EdgeNode* writer_ = nullptr;
  std::set<Dot> pre_revocation_;  // committed before revoke() ran
  Dot revoke_dot_{};
  bool revoked_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t audits_ = 0;
  std::size_t max_masked_ = 0;
  std::size_t max_masked_before_ = 0;
  std::size_t max_causal_before_ = 0;
  bool masked_revoked_ = false;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// One repetition of the timed phase: its CPU time at the reference speed,
/// its CPU time, and the mean gauge chunk time beside it.
using Timing = std::array<double, 3>;

/// Runs `work` in a forked copy of this process and returns the numbers it
/// computes, or nothing if the copy did not report them. The copy starts
/// from this process's exact state; it writes nothing but the numbers.
std::optional<Timing> in_forked_copy(const std::function<Timing()>& work) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const Timing v = work();
    const bool sent = write(fds[1], v.data(), sizeof v) == sizeof v;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Timing v{};
  ssize_t got = 0;
  do {
    got = read(fds[0], v.data(), sizeof v);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof v || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return v;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Highest of the usual percentiles with at least ten samples beyond it.
double tail_pct_for(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

/// A fixed piece of work, independent of the program under test, whose CPU
/// time stands for the host's current speed. The host is shared: its speed
/// wanders by tens of percent over minutes, and a slow spell can outlast a
/// run. Timing a gauge chunk between short spans of the simulation and
/// scaling each span by the chunks beside it (see ReferenceTime) cancels
/// that drift. A chunk chases pointers through a 4 MB cycle, which misses
/// the caches as the simulation's node maps do, and churns a std::map and
/// the allocator, as its message handling does.
class HostGauge {
 public:
  HostGauge() : next_(kSlots) {
    // Sattolo's shuffle: one cycle through every slot.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 0;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      x = mix(x, i);
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Runs one chunk and returns its CPU time in seconds.
  double chunk() {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < kChase; ++i) at = next_[at];
    std::map<std::uint32_t, std::uint32_t> counts;
    std::vector<std::unique_ptr<char[]>> ring(1024);
    std::uint64_t x = at;
    for (std::size_t i = 0; i < kChurn; ++i) {
      x = mix(x, i);
      counts[static_cast<std::uint32_t>(x % 50000)] += 1;
      auto& block = ring[i % ring.size()];
      block.reset(new char[16 + x % 512]);
      block[0] = static_cast<char>(x);
    }
    sink_ += at + counts.size();
    return seconds_since(t0);
  }

  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::uint32_t kSlots = 1u << 20;
  static constexpr std::size_t kChase = 60000;
  static constexpr std::size_t kChurn = 12000;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
};

/// Gauge chunk time between two spans of the simulation on the reference
/// host (4-core Xeon VM, RelWithDebInfo).
constexpr double kReferenceChunkS = 0.0085;

/// Adds up CPU spans of the simulation, each scaled to the reference speed
/// by the mean of the gauge chunks run just before and just after it, so a
/// span is scaled by the host's speed while it ran. The chunks' own time is
/// not counted.
class ReferenceTime {
 public:
  /// Runs the chunk before the first span.
  explicit ReferenceTime(HostGauge& gauge)
      : gauge_(gauge), last_chunk_s_(gauge.chunk()) {}

  /// Counts a span of `cpu_s` that has just ended, then runs the chunk
  /// after it.
  void add(double cpu_s) {
    const double next_s = gauge_.chunk();
    scaled_s_ += cpu_s * kReferenceChunkS / ((last_chunk_s_ + next_s) / 2.0);
    cpu_s_ += cpu_s;
    chunks_s_ += next_s;
    ++spans_;
    last_chunk_s_ = next_s;
  }

  [[nodiscard]] double scaled_s() const { return scaled_s_; }
  [[nodiscard]] double cpu_s() const { return cpu_s_; }
  [[nodiscard]] double mean_chunk_s() const {
    return spans_ ? chunks_s_ / static_cast<double>(spans_) : last_chunk_s_;
  }

 private:
  HostGauge& gauge_;
  double last_chunk_s_;
  double scaled_s_ = 0.0;
  double cpu_s_ = 0.0;
  double chunks_s_ = 0.0;
  std::size_t spans_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::map<std::uint32_t, std::string>& reported_kinds() {
  static const std::map<std::uint32_t, std::string> kinds{
      {proto::kDcExecute, "dc_execute"},   {proto::kShardRead, "shard_read"},
      {proto::kShardApply, "shard_apply"}, {proto::kReplicateTxn, "replicate_txn"},
      {proto::kPushTxn, "push_txn"},       {proto::kEdgeCommit, "edge_commit"},
      {proto::kEpaxos, "epaxos"},          {proto::kDcGossip, "dc_gossip"},
  };
  return kinds;
}

/// The ChatDriver seed for one population. Bots (write-heavy, reacting to
/// every message) and the Pareto activity draw dominate how much work a
/// small population offers, so seeds are stratified: candidates derived
/// from `base` are tried in order until one gives the expected bot count
/// and an offered action rate and write rate each within 1 % of their
/// expectation. A client's action rate is proportional to its clamped
/// activity, as in ChatDriver::schedule_next. The scripts are replayed
/// with the draw order ChatDriver's constructor uses.
std::uint64_t stratified_seed(const chat::TraceConfig& trace,
                              std::size_t clients, std::uint64_t base) {
  constexpr double kTolerance = 0.01;
  const auto want_bots = static_cast<std::size_t>(
      std::llround(trace.bot_fraction * static_cast<double>(clients)));
  // Mean of the activity as the driver uses it, clamp(Pareto(1, a), 1, 3).
  const double a = trace.pareto_alpha;
  const double mean_activity =
      a / (1.0 - a) * (std::pow(3.0, 1.0 - a) - 1.0) + 3.0 * std::pow(3.0, -a);
  const double want_rate = mean_activity * static_cast<double>(clients);
  const double want_writes =
      mean_activity *
      (trace.write_ratio * static_cast<double>(clients - want_bots) +
       trace.bot_write_ratio * static_cast<double>(want_bots));
  std::uint64_t candidate = base;
  for (std::uint64_t k = 0; k < 1000000; ++k) {
    candidate = mix(base, k);
    Rng rng(candidate);
    std::size_t bots = 0;
    double rate = 0.0, writes = 0.0;
    for (std::size_t i = 0; i < clients; ++i) {
      const chat::UserScript script(trace, 1000 + i, rng);
      const double activity = std::clamp(script.activity(), 1.0, 3.0);
      bots += script.is_bot() ? 1 : 0;
      rate += activity;
      writes += activity * (script.is_bot() ? trace.bot_write_ratio
                                            : trace.write_ratio);
    }
    if (bots == want_bots &&
        std::abs(rate - want_rate) <= kTolerance * want_rate &&
        std::abs(writes - want_writes) <= kTolerance * want_writes) {
      break;
    }
  }
  return candidate;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: colony_bench --workload <cloud_dc|group_long|"
                 "edge_faults> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  const Workload w = make_workload(args.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer tracer(args.trace);
  const int setup_span = tracer.begin("setup");
  constexpr SimTime kWarmup = 2 * kSecond;
  constexpr std::size_t kSlices = 20;
  constexpr std::size_t kRepetitions = 3;
  const SimTime span =
      std::max<SimTime>(kSlices * kMillisecond,
                        static_cast<SimTime>(std::llround(
                            args.seconds * w.sim_per_second * 1000.0)) *
                            kMillisecond);
  const SimTime warm_end = kWarmup;
  const SimTime timed_end = kWarmup + span;

  // --- set-up: cluster, drivers, probes, warm-up ---------------------------
  ClusterConfig cc;
  cc.num_dcs = kDcs;
  cc.k_stability = kStability;
  cc.seed = mix(args.seed, 0);
  std::unique_ptr<Cluster> cluster_owner;
  tracer.timed("setup.cluster", [&] {
    cluster_owner = std::make_unique<Cluster>(cc);
  });
  Cluster& cluster = *cluster_owner;

  std::vector<std::unique_ptr<chat::ChatDriver>> drivers;
  auto add_driver = [&](ClientMode mode, std::size_t clients,
                        std::uint64_t stream, bool solo) {
    chat::ChatDriverConfig dc;
    dc.mode = mode;
    dc.clients = clients;
    dc.group_size = w.group_size;
    if (!solo) {
      dc.trace.num_workspaces = w.workspaces;
      dc.trace.channels_per_workspace = w.channels;
    }
    dc.trace.write_ratio = w.write_ratio;
    dc.trace.bot_write_ratio = w.bot_write_ratio;
    dc.think_time = w.think;
    dc.cache_capacity = solo ? kSoloCacheCapacity : w.cache_capacity;
    dc.seed = stratified_seed(dc.trace, clients, mix(args.seed, stream));
    drivers.push_back(std::make_unique<chat::ChatDriver>(cluster, dc));
  };
  tracer.timed("setup.drivers", [&] {
    add_driver(w.mode, w.clients, 1, false);
    if (w.solo_clients > 0) {
      add_driver(ClientMode::kClientCache, w.solo_clients, 2, true);
    }
  });
  Probes probes(cluster);
  std::unique_ptr<AclScenario> acl;
  if (w.faults) {
    std::vector<UserId> users;
    for (std::size_t i = 0; i < std::max(w.clients, w.solo_clients); ++i) {
      users.push_back(1000 + i);
    }
    acl = std::make_unique<AclScenario>(cluster, users);
    acl->install();
    acl->start_writer(kWarmup / 2);
  }
  for (auto& d : drivers) d->start();
  probes.start(kWarmup / 2);
  probes.measure_from(warm_end);
  probes.measure_until(timed_end);

  // --- fault schedule (edge_faults), at fixed shares of the timed span ------
  std::vector<std::string> failures;
  double restart_ms = 0.0;
  auto at_share = [&](double share) {
    return warm_end + static_cast<SimTime>(static_cast<double>(span) * share);
  };
  if (w.faults) {
    // (a) the group's uplink cut and restored: a forward backlog builds and
    // then drains.
    const std::vector<NodeId> group = drivers[0]->group_node_ids(0);
    auto set_uplinks = [&cluster, group](bool up) {
      for (const NodeId node : group) {
        for (DcId d = 0; d < cluster.num_dcs(); ++d) {
          cluster.set_uplink(node, d, up);
        }
      }
    };
    cluster.scheduler().at(at_share(0.20), [set_uplinks] { set_uplinks(false); });
    cluster.scheduler().at(at_share(0.50), [set_uplinks] { set_uplinks(true); });
    // (b) one DC process crashed and restarted from its WAL after 1 ms.
    const NodeId victim = cluster.dc_node_id(1);
    cluster.scheduler().at(at_share(0.65), [&cluster, victim] {
      cluster.crash_node(victim);
    });
    cluster.scheduler().at(at_share(0.65) + kMillisecond, [&, victim] {
      const Clock::time_point t0 = Clock::now();
      const int id = tracer.begin("recovery.restart");
      cluster.restart_node(victim);
      tracer.end(id);
      restart_ms = seconds_since(t0) * 1000.0;
    });
    // (c) one user's write right revoked and later restored.
    cluster.scheduler().at(at_share(0.30), [&] { acl->revoke(); });
    cluster.scheduler().at(at_share(0.75), [&] { acl->restore(); });
  }

  // Set-up is scaled to the reference speed like the timed phase: the time
  // up to here is one span, and the warm-up runs as kWarmupSpans
  // Cluster::run_until calls, with gauge chunks between them. Building the
  // gauge is not counted.
  constexpr std::size_t kWarmupSpans = 10;
  const double construction_s = seconds_since(kProcessStart);
  HostGauge gauge;
  ReferenceTime setup_time(gauge);
  setup_time.add(construction_s);
  tracer.timed("setup.warmup", [&] {
    for (std::size_t i = 1; i <= kWarmupSpans; ++i) {
      const Clock::time_point t0 = Clock::now();
      cluster.run_until(warm_end * static_cast<SimTime>(i) /
                        static_cast<SimTime>(kWarmupSpans));
      setup_time.add(seconds_since(t0));
    }
  });
  const double setup_s = setup_time.scaled_s();
  rusage setup_usage{};
  getrusage(RUSAGE_SELF, &setup_usage);
  tracer.end(setup_span);

  // --- baselines at the end of the warm-up ---------------------------------
  auto sum_dc_committed = [&] {
    std::uint64_t n = 0;
    for (DcId d = 0; d < cluster.num_dcs(); ++d) n += cluster.dc(d).committed();
    return n;
  };
  auto driver_ops = [&](std::uint64_t& completed, std::uint64_t& failed) {
    completed = failed = 0;
    for (const auto& d : drivers) {
      completed += d->completed();
      failed += d->failed_reads() + d->stalled_commits();
    }
  };
  auto probe_ops = [&](std::uint64_t& attempted, std::uint64_t& failed) {
    attempted = probes.attempted() + (acl ? acl->attempted() : 0);
    failed = probes.failed() + (acl ? acl->failed() : 0);
  };
  std::uint64_t completed0 = 0, dfailed0 = 0, pattempted0 = 0, pfailed0 = 0;
  driver_ops(completed0, dfailed0);
  probe_ops(pattempted0, pfailed0);
  const std::uint64_t committed0 = sum_dc_committed();
  const WireStats wire0 = cluster.network().wire_stats();
  const std::uint64_t events0 = cluster.scheduler().executed();
  const std::uint64_t messages0 = cluster.network().messages_delivered();

  // --- sampling at slice boundaries (reads only) ----------------------------
  std::vector<PeerGroupParent*> parents{&probes.parent()};
  for (auto& d : drivers) {
    for (std::size_t g = 0; g < d->group_count(); ++g) {
      parents.push_back(&d->parent(g));
    }
  }
  std::vector<std::map<std::string, double>> samples;
  std::map<std::string, double> maxima;
  double recover_ms = 0.0, encode_ms = 0.0, state_kb = 0.0;
  auto bump_max = [&](const std::string& k, double v) {
    maxima[k] = std::max(maxima[k], v);
  };
  auto sample = [&] {
    std::map<std::string, double> s;
    s["t_sim_s"] = static_cast<double>(cluster.now()) / kSecond;
    double pending = 0, unacked = 0, backlog = 0;
    for (DcId d = 0; d < cluster.num_dcs(); ++d) {
      pending += static_cast<double>(cluster.dc(d).engine().pending_count());
    }
    for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
      pending += static_cast<double>(cluster.edge(i).engine().pending_count());
      unacked += static_cast<double>(cluster.edge(i).unacked_count());
    }
    for (const PeerGroupParent* p : parents) {
      backlog += static_cast<double>(p->forward_backlog());
    }
    s["visibility.pending"] = pending;
    s["edge.unacked"] = unacked;
    s["group.forward_backlog"] = backlog;
    bump_max("visibility.pending.max", pending);
    bump_max("edge.unacked.max", unacked);
    bump_max("group.forward_backlog.max", backlog);
    s["sim.events"] = static_cast<double>(cluster.scheduler().executed() - events0);
    s["wire.bytes"] = static_cast<double>(
        cluster.network().wire_stats().total().bytes - wire0.total().bytes);

    // WAL recovery scan of the largest disk, and checkpoint encoding per DC.
    storage::Wal* largest = nullptr;
    std::size_t largest_bytes = 0;
    std::vector<NodeId> nodes = cluster.dc_node_ids();
    for (const NodeId id : cluster.edge_node_ids()) nodes.push_back(id);
    for (const NodeId id : nodes) {
      storage::Wal* disk = cluster.disk(id);
      if (disk == nullptr) continue;
      const std::size_t b = disk->log_bytes() + disk->checkpoint_bytes();
      if (b > largest_bytes) {
        largest_bytes = b;
        largest = disk;
      }
    }
    if (largest != nullptr) {
      std::size_t tail = 0;
      recover_ms = tracer.timed("wal.recover", [&] {
                     tail = largest->recover().tail.size();
                   }) * 1000.0;
      s["wal.recover_ms"] = recover_ms;
      s["wal.recover_tail_records"] = static_cast<double>(tail);
    }
    double enc = 0.0, kb = 0.0;
    for (DcId d = 0; d < cluster.num_dcs(); ++d) {
      if (cluster.dc(d).crashed()) continue;
      std::size_t bytes = 0;
      enc += tracer.timed("checkpoint.encode", [&] {
               bytes = cluster.dc(d).durable_bytes().size();
             }) * 1000.0;
      kb += static_cast<double>(bytes) / 1024.0;
    }
    encode_ms = enc / static_cast<double>(cluster.num_dcs());
    state_kb = kb / static_cast<double>(cluster.num_dcs());
    s["checkpoint.encode_ms"] = encode_ms;
    s["checkpoint.state_kb"] = state_kb;
    samples.push_back(std::move(s));
  };

  // --- timed phase -----------------------------------------------------------
  // One repetition runs the span as kSlices Cluster::run_until calls, with a
  // gauge chunk after each and then the ACL audit and, traced, the sampling
  // and one more chunk. Its time is the CPU time of the calls plus that of
  // the sampling, each scaled by the chunks beside it; the audit and the
  // chunks are not counted.
  std::vector<double> slice_s;
  double sampling_s = 0.0;
  auto repetition = [&] {
    slice_s.clear();
    sampling_s = 0.0;
    ReferenceTime time(gauge);
    for (std::size_t i = 1; i <= kSlices; ++i) {
      const SimTime until =
          warm_end + static_cast<SimTime>(static_cast<double>(span) *
                                          static_cast<double>(i) / kSlices);
      const Clock::time_point t0 = Clock::now();
      const int id = tracer.begin("sim.slice");
      cluster.run_until(until);
      tracer.end(id);
      slice_s.push_back(seconds_since(t0));
      time.add(slice_s.back());
      if (acl) acl->audit(failures);
      if (tracer.on()) {
        const Clock::time_point s0 = Clock::now();
        sample();
        const double sampled = seconds_since(s0);
        sampling_s += sampled;
        time.add(sampled);
      }
    }
    return Timing{time.scaled_s(), time.cpu_s(), time.mean_chunk_s()};
  };
  // The first repetitions run in forked copies of this process, which start
  // from the same warmed-up state and so repeat the same simulation; the
  // last runs here and is the one the checks and per-layer metrics read.
  // run_s is the median of the repetitions' scaled times. The gauge cancels
  // slow spells of the host; the median drops a repetition that one hit
  // unevenly, slowing the simulation more than the gauge or the other way.
  std::vector<Timing> repetitions;
  for (std::size_t r = 1; r < kRepetitions; ++r) {
    const std::optional<Timing> t = in_forked_copy(repetition);
    if (t) {
      repetitions.push_back(*t);
    } else {
      failures.push_back("repetition " + std::to_string(r) +
                         " of the timed phase did not finish");
    }
  }
  repetitions.push_back(repetition());
  std::vector<double> repetition_s, repetition_cpu_s, chunk_s;
  for (const Timing& t : repetitions) {
    repetition_s.push_back(t[0]);
    repetition_cpu_s.push_back(t[1]);
    chunk_s.push_back(t[2]);
  }
  const double run_s = median(repetition_s);

  const double rss_mb = peak_rss_mb();
  const Clock::time_point checks_start = Clock::now();

  // --- end-of-run readings ---------------------------------------------------
  std::uint64_t completed1 = 0, dfailed1 = 0, pattempted1 = 0, pfailed1 = 0;
  driver_ops(completed1, dfailed1);
  probe_ops(pattempted1, pfailed1);
  const std::uint64_t completed = completed1 - completed0;
  const std::uint64_t driver_failed = dfailed1 - dfailed0;
  const std::uint64_t attempted =
      completed + driver_failed + (pattempted1 - pattempted0);
  const std::uint64_t failed = driver_failed + (pfailed1 - pfailed0);
  const std::uint64_t committed = sum_dc_committed() - committed0;
  const WireStats& wire1 = cluster.network().wire_stats();
  const double span_s = static_cast<double>(span) / kSecond;

  double disk_bytes = 0, wal_records = 0, wal_record_bytes = 0,
         wal_checkpoints = 0, wal_truncated = 0, cp_max = 0, cp_sum = 0,
         cp_nodes = 0;
  std::vector<NodeId> all_nodes = cluster.dc_node_ids();
  for (const NodeId id : cluster.edge_node_ids()) all_nodes.push_back(id);
  for (const NodeId id : all_nodes) {
    const storage::Wal* disk = cluster.disk(id);
    if (disk == nullptr) continue;
    disk_bytes += static_cast<double>(disk->log_bytes() + disk->checkpoint_bytes());
    wal_records += static_cast<double>(disk->record_count());
    wal_record_bytes += static_cast<double>(disk->log_base() + disk->log_bytes());
    wal_checkpoints += static_cast<double>(disk->checkpoint_count());
    wal_truncated += static_cast<double>(disk->truncated_bytes());
    if (disk->checkpoint_count() > 0) {
      const double kb = static_cast<double>(disk->checkpoint_bytes()) / 1024.0;
      cp_max = std::max(cp_max, kb);
      cp_sum += kb;
      cp_nodes += 1;
    }
  }

  // Response times by hit class, completed in the timed window.
  std::vector<double> all_ms;
  std::vector<double> by_class[3];
  for (const auto& d : drivers) {
    for (int src = 0; src < 3; ++src) {
      for (const SeriesPoint& p : d->series(static_cast<ReadSource>(src)).points()) {
        if (p.at < warm_end || p.at >= timed_end) continue;
        by_class[src].push_back(p.value);
        all_ms.push_back(p.value);
      }
    }
  }
  const std::vector<double> peer_ms = probes.delivery_ms(true);
  const std::vector<double> dc_ms = probes.delivery_ms(false);
  const double peer_tail_pct = tail_pct_for(peer_ms.size());
  const double dc_tail_pct = tail_pct_for(dc_ms.size());

  // --- output checks ---------------------------------------------------------
  // Latency floors: nothing beats a round trip at the fastest modelled link.
  const ClusterConfig& cfg = cluster.config();
  const double min_uplink_rtt_ms =
      2.0 * ms(std::min(cfg.edge_uplink.mean - cfg.edge_uplink.jitter,
                        cfg.pop_uplink.mean - cfg.pop_uplink.jitter));
  const double min_peer_rtt_ms =
      2.0 * ms(cfg.peer_link.mean - cfg.peer_link.jitter);
  for (const double v : by_class[static_cast<int>(ReadSource::kDc)]) {
    if (v < min_uplink_rtt_ms) {
      failures.push_back("DC hit of " + std::to_string(v) +
                         " ms beats the uplink round trip");
      break;
    }
  }
  for (const double v : by_class[static_cast<int>(ReadSource::kPeer)]) {
    if (v < min_peer_rtt_ms) {
      failures.push_back("peer hit of " + std::to_string(v) +
                         " ms beats the peer-link round trip");
      break;
    }
  }
  if (all_ms.empty()) failures.push_back("no action completed");

  // The fault schedule restarts the DC it crashed within the timed phase.
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    if (cluster.dc(d).crashed()) {
      failures.push_back("DC " + std::to_string(d) +
                         " still crashed at the end of the timed phase");
    }
  }

  // Stop, heal and settle; then audit replicas.
  for (auto& d : drivers) d->stop();
  probes.stop();
  if (acl) acl->stop();
  cluster.heal_all();
  for (const NodeId id : cluster.dc_node_ids()) cluster.restart_node(id);
  bool quiet = false;
  // Polled every 200 ms: two idle polls in a row are 400 ms apart, longer
  // than the slowest probe delivery.
  tracer.timed("quiesce", [&] {
    quiet = cluster.quiesce(60 * kSecond, 200 * kMillisecond);
  });
  if (!quiet) failures.push_back("cluster did not quiesce within 60 s");

  const std::size_t undelivered = probes.undelivered();
  if (undelivered != 0) {
    failures.push_back(std::to_string(undelivered) +
                       " probe deliveries never observed");
  }
  auto probe_list_ok = [&](const Crdt* obj, const std::string& where) {
    const auto* rga = dynamic_cast<const Rga*>(obj);
    const std::vector<std::string> got =
        rga == nullptr ? std::vector<std::string>{} : rga->values();
    if (got != probes.posted()) {
      failures.push_back("probe channel at " + where + " holds " +
                         std::to_string(got.size()) + " posts, expected " +
                         std::to_string(probes.posted().size()) + " in order");
    }
  };
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    probe_list_ok(cluster.dc(d).store().current(kProbeKey),
                  "DC " + std::to_string(d));
  }
  for (const auto& o : probes.observers()) {
    if (!o.peer) {
      probe_list_ok(o.node->cached(kProbeKey),
                    "observer " + std::to_string(o.node->id()));
    }
  }

  // Convergence: every DC holds the same objects in the same state.
  {
    const DcNode& ref = cluster.dc(0);
    const std::vector<ObjectKey> keys = ref.store().keys();
    for (DcId d = 1; d < cluster.num_dcs(); ++d) {
      const DcNode& dc = cluster.dc(d);
      if (dc.store().keys() != keys) {
        failures.push_back("DC " + std::to_string(d) +
                           " holds a different key set from DC 0");
        continue;
      }
      for (const ObjectKey& key : keys) {
        auto a = ref.store().export_snapshot(key);
        auto b = dc.store().export_snapshot(key);
        if (a && b) {
          std::sort(a->applied.begin(), a->applied.end());
          std::sort(b->applied.begin(), b->applied.end());
        }
        if (a != b) {
          failures.push_back("DC " + std::to_string(d) + " diverges on " +
                             key.bucket + "/" + key.name);
          break;
        }
      }
    }
  }

  // Every commit issued at an edge was sequenced exactly once in the core.
  if (w.mode != ClientMode::kCloudOnly) {
    std::uint64_t issued = 0;
    for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
      issued += cluster.edge(i).commits_issued();
    }
    if (issued != sum_dc_committed()) {
      failures.push_back("edges issued " + std::to_string(issued) +
                         " commits, DCs sequenced " +
                         std::to_string(sum_dc_committed()));
    }
  }

  // Crash recovery holds at every DC, the restarted one included.
  double verify_ms = 0.0;
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    std::string why;
    bool ok = false;
    const Clock::time_point v0 = Clock::now();
    const int id = tracer.begin("recovery.verify");
    ok = cluster.dc(d).verify_recovery(&why);
    tracer.end(id);
    verify_ms += seconds_since(v0) * 1000.0;
    if (!ok) failures.push_back("verify_recovery: " + why);
  }
  verify_ms /= static_cast<double>(cluster.num_dcs());
  if (acl) acl->final_check(failures);
  if (failed != 0) {
    std::uint64_t reads = 0, stalls = 0;
    for (const auto& d : drivers) {
      reads += d->failed_reads();
      stalls += d->stalled_commits();
    }
    failures.push_back(std::to_string(failed) + " operations failed (run " +
                       "totals: failed reads " + std::to_string(reads) +
                       ", stalled commits " + std::to_string(stalls) +
                       ", probe/acl " + std::to_string(pfailed1) + ")");
  }

  // --- report ----------------------------------------------------------------
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  auto to_json = [](const std::vector<Metric>& ms) {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      out << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
          << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit
          << "\"}";
    }
    out << "}";
    return out.str();
  };
  const std::vector<Metric> e2e = {
        {"setup_s", setup_s, "s"},
        {"run_s", run_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"actions_per_s", static_cast<double>(completed) / span_s, "1/s"},
        {"dc_txn_per_s", static_cast<double>(committed) / span_s, "1/s"},
        {"response_mean_ms", mean(all_ms), "ms"},
        {"response_tail_ms", percentile(all_ms, w.tail_pct), "ms"},
        {"delivery_peer_ms", percentile(peer_ms, 50), "ms"},
        {"delivery_peer_tail_ms", percentile(peer_ms, peer_tail_pct), "ms"},
        {"delivery_dc_ms", percentile(dc_ms, 50), "ms"},
        {"delivery_dc_tail_ms", percentile(dc_ms, dc_tail_pct), "ms"},
        {"wire_mb",
         static_cast<double>(wire1.total().bytes - wire0.total().bytes) / 1e6,
         "MB"},
        {"disk_mb", disk_bytes / 1e6, "MB"},
  };
  std::vector<Metric> layer;
  if (args.trace) {
    const double frames =
        static_cast<double>(wire1.total().frames - wire0.total().frames);
    const double bytes =
        static_cast<double>(wire1.total().bytes - wire0.total().bytes);
    double epaxos_committed = 0, epaxos_executed = 0, epaxos_fast = 0,
           epaxos_slow = 0;
    auto add_epaxos = [&](const consensus::Epaxos* e) {
      if (e == nullptr) return;
      epaxos_committed += static_cast<double>(e->committed_count());
      epaxos_executed += static_cast<double>(e->executed_count());
      epaxos_fast += static_cast<double>(e->fast_path_commits());
      epaxos_slow += static_cast<double>(e->slow_path_commits());
    };
    for (const PeerGroupParent* p : parents) add_epaxos(p->epaxos());
    for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
      add_epaxos(cluster.edge(i).group_consensus());
    }
    double jkeys = 0, jentries = 0, txns = 0, log_entries = 0, applied = 0,
           sessions = 0;
    auto add_store = [&](const JournalStore& store) {
      for (const ObjectKey& key : store.keys()) {
        jkeys += 1;
        jentries += static_cast<double>(store.journal_length(key));
      }
    };
    for (DcId d = 0; d < cluster.num_dcs(); ++d) {
      const DcNode& dc = cluster.dc(d);
      add_store(dc.store());
      txns += static_cast<double>(dc.txns().size());
      log_entries += static_cast<double>(dc.engine().log().size());
      applied += static_cast<double>(dc.engine().applied_set().size());
      sessions += static_cast<double>(dc.session_count());
    }
    for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
      const EdgeNode& e = cluster.edge(i);
      add_store(e.store());
      txns += static_cast<double>(e.txns().size());
      log_entries += static_cast<double>(e.engine().log().size());
      applied += static_cast<double>(e.engine().applied_set().size());
    }
    layer = {
        {"sim.events",
         static_cast<double>(cluster.scheduler().executed() - events0), "count"},
        {"sim.messages",
         static_cast<double>(cluster.network().messages_delivered() - messages0),
         "count"},
        {"sim.slice_s.first", slice_s.front(), "s"},
        {"sim.slice_s.last", slice_s.back(), "s"},
        {"wire.frames", frames, "count"},
        {"wire.bytes_per_frame", frames > 0 ? bytes / frames : 0.0, "bytes"},
    };
    for (const auto& [kind, label] : reported_kinds()) {
      layer.push_back(
          {"wire.bytes." + label,
           static_cast<double>(wire1.for_kind(kind).bytes -
                               wire0.for_kind(kind).bytes),
           "bytes"});
    }
    const std::vector<Metric> rest = {
        {"wal.records", wal_records, "count"},
        {"wal.record_mb", wal_record_bytes / 1e6, "MB"},
        {"wal.checkpoints", wal_checkpoints, "count"},
        {"wal.checkpoint_kb.max", cp_max, "KB"},
        {"wal.checkpoint_kb.mean", cp_nodes > 0 ? cp_sum / cp_nodes : 0.0, "KB"},
        {"wal.truncated_mb", wal_truncated / 1e6, "MB"},
        {"wal.recover_ms", recover_ms, "ms"},
        {"checkpoint.encode_ms", encode_ms, "ms"},
        {"checkpoint.state_kb", state_kb, "KB"},
        {"journal.keys", jkeys, "count"},
        {"journal.entries", jentries, "count"},
        {"txn.entries", txns, "count"},
        {"visibility.log_entries", log_entries, "count"},
        {"visibility.applied", applied, "count"},
        {"visibility.pending.max", maxima["visibility.pending.max"], "count"},
        {"epaxos.committed", epaxos_committed, "count"},
        {"epaxos.executed", epaxos_executed, "count"},
        {"epaxos.fast", epaxos_fast, "count"},
        {"epaxos.slow", epaxos_slow, "count"},
        {"dc.committed", static_cast<double>(committed), "count"},
        {"dc.sessions", sessions, "count"},
        {"recovery.restart_ms", restart_ms, "ms"},
        {"recovery.verify_ms", verify_ms, "ms"},
        {"group.forward_backlog.max", maxima["group.forward_backlog.max"],
         "count"},
        {"edge.unacked.max", maxima["edge.unacked.max"], "count"},
        {"acl.masked", acl ? static_cast<double>(acl->max_masked()) : 0.0,
         "count"},
        {"acl.masked_before_revoke",
         acl ? static_cast<double>(acl->max_masked_before()) : 0.0, "count"},
        {"chat.hits.client", static_cast<double>(by_class[0].size()), "count"},
        {"chat.hits.peer", static_cast<double>(by_class[1].size()), "count"},
        {"chat.hits.dc", static_cast<double>(by_class[2].size()), "count"},
        {"chat.peer_hit_ms", mean(by_class[1]), "ms"},
        {"chat.dc_hit_ms", mean(by_class[2]), "ms"},
        {"trace.sampling_s", sampling_s, "s"},
        {"host.setup_cpu_s", setup_time.cpu_s(), "s"},
        {"host.run_cpu_s", median(repetition_cpu_s), "s"},
        {"host.gauge_ms", median(chunk_s) * 1000.0, "ms"},
    };
    layer.insert(layer.end(), rest.begin(), rest.end());

    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
          << ",\"end_to_end\":" << to_json(e2e)
          << ",\"per_layer\":" << to_json(layer) << ",\"spans\":";
      tracer.write_json(out);
      out << ",\"samples\":[";
      for (std::size_t i = 0; i < samples.size(); ++i) {
        out << (i ? ",\n" : "\n") << "{";
        bool first = true;
        for (const auto& [k, v] : samples[i]) {
          out << (first ? "" : ",") << "\"" << k << "\":" << json_number(v);
          first = false;
        }
        out << "}";
      }
      out << "\n]}\n";
    }
  }

  // Human-readable context on stderr; the result line on stdout.
  std::fprintf(stderr,
               "workload=%s seed=%llu span=%.1fs sim actions=%llu "
               "hits(client/peer/dc)=%zu/%zu/%zu probes=%zu "
               "delivery samples peer=%zu dc=%zu tail pct=%.1f/%.1f/%.1f\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               span_s, static_cast<unsigned long long>(completed),
               by_class[0].size(), by_class[1].size(), by_class[2].size(),
               probes.posted().size(), peer_ms.size(), dc_ms.size(),
               w.tail_pct, peer_tail_pct, dc_tail_pct);
  std::fprintf(stderr,
               "set-up: %.3f s cpu without the gauge, gauge chunk %.3f ms "
               "(process: user %.3f s, system %.3f s, %ld minor faults; "
               "gauge sink %llu)\n",
               setup_time.cpu_s(), setup_time.mean_chunk_s() * 1000.0,
               static_cast<double>(setup_usage.ru_utime.tv_sec) +
                   static_cast<double>(setup_usage.ru_utime.tv_usec) / 1e6,
               static_cast<double>(setup_usage.ru_stime.tv_sec) +
                   static_cast<double>(setup_usage.ru_stime.tv_usec) / 1e6,
               setup_usage.ru_minflt,
               static_cast<unsigned long long>(gauge.sink()));
  std::fprintf(stderr, "timed phase repetitions, cpu s / gauge chunk ms:");
  for (std::size_t i = 0; i < repetitions.size(); ++i) {
    std::fprintf(stderr, " %.3f/%.3f", repetition_cpu_s[i],
                 chunk_s[i] * 1000.0);
  }
  std::fprintf(stderr, "; after it (s): %.3f\n", seconds_since(checks_start));
  if (acl) {
    std::fprintf(stderr,
                 "acl: %zu of the %zu writes of user %llu in the causal past "
                 "of the revocation masked after it\n",
                 acl->max_masked_before(), acl->causal_before(),
                 static_cast<unsigned long long>(kRevokedUser));
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::ostringstream out;
  out << "{\"correct\": " << (failures.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": " << to_json(args.trace ? layer : e2e) << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
