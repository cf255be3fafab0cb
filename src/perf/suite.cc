#include "perf/suite.h"

#include <chrono>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "common/task.h"
#include "proto/broadcast.h"
#include "proto/wire.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "swim/config.h"
#include "swim/membership.h"

namespace lifeguard::perf {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Repeat `body` (one batch of `batch_items` operations) until `min_time_s`
/// elapsed; returns the measured Measurement with items_per_s filled in.
Measurement timed_loop(const SuiteOptions& opt, std::int64_t batch_items,
                       const std::function<void()>& body) {
  Measurement m;
  const double min_time = opt.quick ? opt.min_time_s / 4.0 : opt.min_time_s;
  const double start = now_s();
  double elapsed = 0.0;
  std::int64_t batches = 0;
  do {
    body();
    ++batches;
    elapsed = now_s() - start;
  } while (elapsed < min_time);
  m.wall_s = elapsed;
  m.iterations = batches;
  m.items_per_s =
      static_cast<double>(batches * batch_items) / std::max(elapsed, 1e-9);
  m.peak_rss_kb = peak_rss_kb();
  return m;
}

// ---------------------------------------------------------------------------
// micro suite — component hot paths

Measurement bench_event_queue(const SuiteOptions& opt) {
  constexpr std::int64_t kBatch = 100'000;
  return timed_loop(opt, kBatch, [] {
    sim::EventQueue q;
    TimePoint now{};
    std::int64_t sink = 0;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      q.push(TimePoint{(i * 7919) % 100000}, [&sink, i] { sink += i; });
      if (i % 4 == 0) q.run_next(now);
    }
    while (q.run_next(now)) {
    }
  });
}

Measurement bench_event_queue_cancel(const SuiteOptions& opt) {
  constexpr std::int64_t kBatch = 100'000;
  return timed_loop(opt, kBatch, [] {
    sim::EventQueue q;
    TimePoint now{};
    std::uint64_t handles[64] = {};
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const auto h = q.push(TimePoint{(i * 131) % 50000}, [] {});
      handles[i % 64] = h;
      if (i % 2 == 0) q.cancel(handles[(i * 31) % 64]);  // half cancelled
      if (i % 8 == 0) q.run_next(now);
    }
    while (q.run_next(now)) {
    }
  });
}

Measurement bench_task_dispatch(const SuiteOptions& opt) {
  constexpr std::int64_t kBatch = 1'000'000;
  return timed_loop(opt, kBatch, [] {
    // A capture the size of the simulator's delivery closure.
    struct Payload {
      void* p = nullptr;
      std::uint64_t a = 0, b = 0, c = 0;
    };
    std::int64_t sink = 0;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      Payload pl{nullptr, static_cast<std::uint64_t>(i), 0, 0};
      Task t([pl, &sink] { sink += static_cast<std::int64_t>(pl.a); });
      t();
    }
  });
}

Measurement bench_codec_roundtrip(const SuiteOptions& opt) {
  constexpr std::int64_t kBatch = 100'000;
  return timed_loop(opt, kBatch, [] {
    const proto::Ping ping{12345, "node-042", "node-117", Address{1, 7946}};
    for (std::int64_t i = 0; i < kBatch; ++i) {
      BufWriter w(64);
      proto::encode(ping, w);
      const auto bytes = std::move(w).take();
      BufReader r(bytes);
      auto msg = proto::decode(r);
      if (!msg) throw std::runtime_error("codec roundtrip failed");
    }
  });
}

Measurement bench_codec_join_datagram(const SuiteOptions& opt) {
  // A join-storm datagram: 56 Alive frames, as a node at n=512 piggybacks
  // them, walked and parsed in place the way swim::Node::on_packet does.
  // Items are frames.
  constexpr int kFrames = 56;
  constexpr std::int64_t kDatagrams = 2'000;
  proto::CompoundWriter w;
  for (int i = 0; i < kFrames; ++i) {
    BufWriter f;
    proto::encode(proto::AliveView{"node-" + std::to_string(100 + i), 1,
                                   Address{static_cast<std::uint32_t>(i), 7946}},
                  f);
    w.add(f.bytes());
  }
  const std::vector<std::uint8_t> datagram = std::move(w).take();
  return timed_loop(opt, kDatagrams * kFrames, [&datagram] {
    std::uint64_t sink = 0;
    for (std::int64_t d = 0; d < kDatagrams; ++d) {
      proto::FrameWalk walk(datagram);
      for (std::span<const std::uint8_t> frame; walk.next(frame);) {
        BufReader r(frame);
        const bool ok = proto::parse(r, [&sink](const auto& m) {
          if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                       proto::AliveView>) {
            sink += m.member.size() + m.incarnation;
          }
        });
        if (!ok) throw std::runtime_error("join datagram failed to parse");
      }
    }
    if (sink != static_cast<std::uint64_t>(kDatagrams) * kFrames * 9) {
      throw std::runtime_error("join datagram parsed wrong");
    }
  });
}

Measurement bench_broadcast_queue(const SuiteOptions& opt) {
  constexpr std::int64_t kBatch = 10'000;
  return timed_loop(opt, kBatch, [] {
    proto::BroadcastQueue q(4);
    const std::vector<std::uint8_t> frame(40, 0xab);
    for (std::int64_t i = 0; i < kBatch; ++i) {
      // Churn: rotating updates (each invalidates its predecessor),
      // drained by MTU-budget selections like the per-message piggyback.
      q.queue("member-" + std::to_string(i % 64), frame);
      if (i % 4 == 0) {
        proto::CompoundWriter out;
        q.append_broadcasts(out, 2, 1400, 128);
        if (out.count() == 0 && i > 64) {
          throw std::runtime_error("empty select");
        }
      }
    }
  });
}

Measurement bench_broadcast_queue_join(const SuiteOptions& opt) {
  // A join storm at n=512: the queue holds about 512 Alive frames, and each
  // MTU-budget selection is followed by a top-up with new members' updates.
  // At this depth every selection moves dozens of frames between transmit
  // counts, which the 64-key churn case above never reaches.
  constexpr std::int64_t kBatch = 1'000;
  constexpr std::size_t kDepth = 512;
  constexpr std::size_t kMembers = 8 * kDepth;
  std::vector<std::string> names;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < kMembers; ++i) {
    names.push_back("node-" + std::to_string(i));
    BufWriter w;
    proto::encode(proto::Alive{names.back(), 1,
                               Address{static_cast<std::uint32_t>(i), 7946}},
                  w);
    frames.push_back(std::move(w).take());
  }
  proto::BroadcastQueue q(4);
  std::size_t next = 0;
  const auto top_up = [&] {
    while (q.pending() < kDepth) {
      q.queue(names[next], frames[next]);
      next = (next + 1) % kMembers;
    }
  };
  top_up();
  std::vector<std::uint8_t> datagram;  // recycled, as the runtimes do
  return timed_loop(opt, kBatch, [&] {
    for (std::int64_t i = 0; i < kBatch; ++i) {
      proto::CompoundWriter out(std::move(datagram));
      q.append_broadcasts(out, 2, 1400, 512);
      if (out.count() == 0) throw std::runtime_error("empty select");
      datagram = std::move(out).take();
      top_up();
    }
  });
}

Measurement bench_membership_selection(const SuiteOptions& opt) {
  constexpr std::int64_t kBatch = 10'000;
  return timed_loop(opt, kBatch, [] {
    Rng rng(42);
    swim::MembershipTable table("node-0");
    for (int i = 0; i < 256; ++i) {
      swim::Member m;
      m.name = "node-" + std::to_string(i);
      m.addr = Address{static_cast<std::uint32_t>(i) + 1, 7946};
      table.add(std::move(m), rng);
    }
    for (std::int64_t i = 0; i < kBatch; ++i) {
      auto picks = table.random_active(3, rng, {});
      if (picks.empty()) throw std::runtime_error("no candidates");
    }
  });
}

Measurement bench_agent_dispatch(const SuiteOptions& opt) {
  // The membership::Backend seam's cost: the sampler's per-tick access
  // pattern (view size, suspect/dead counts, health, queue depth) through
  // the Agent vtable. The cluster is built and settled outside the timed
  // loop — this measures dispatch, not simulation.
  constexpr std::int64_t kBatch = 100'000;
  sim::SimParams p;
  p.seed = 11;
  sim::Simulator sim(16, swim::Config::lifeguard(), p);
  sim.start_all();
  sim.run_for(sec(10));
  return timed_loop(opt, kBatch, [&sim] {
    double sink = 0;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const membership::Agent& a = sim.agent(static_cast<int>(i % 16));
      sink += static_cast<double>(a.active_members() + a.suspect_count() +
                                  a.dead_count() + a.pending_broadcast_count());
      sink += a.health_score();
    }
    if (sink < 0) throw std::runtime_error("impossible");
  });
}

// ---------------------------------------------------------------------------
// sim suite — whole-simulator throughput

/// Run a healthy n-node cluster for `virtual_s` virtual seconds and report
/// virtual-seconds-per-second (items), events/sec and datagrams/sec.
Measurement bench_cluster(int n, std::int64_t virtual_s) {
  Measurement m;
  sim::SimParams p;
  p.seed = 7;
  sim::Simulator sim(n, swim::Config::lifeguard(), p);
  const double start = now_s();
  sim.start_all();
  sim.run_for(sec(virtual_s));
  const double elapsed = std::max(now_s() - start, 1e-9);
  m.wall_s = elapsed;
  m.iterations = 1;
  m.items_per_s = static_cast<double>(virtual_s) / elapsed;
  m.events_per_s = static_cast<double>(sim.queue().executed()) / elapsed;
  m.datagrams_per_s = static_cast<double>(sim.datagrams_routed()) / elapsed;
  m.peak_rss_kb = peak_rss_kb();
  return m;
}

/// The anomaly workload: block/unblock cycles over a 64-node cluster.
Measurement bench_cluster_anomaly(const SuiteOptions& opt) {
  Measurement m;
  sim::SimParams p;
  p.seed = 9;
  sim::Simulator sim(64, swim::Config::swim_baseline(), p);
  const std::int64_t virtual_s = opt.quick ? 15 : 30;
  const double start = now_s();
  sim.start_all();
  sim.run_for(sec(virtual_s / 3));
  for (int v = 0; v < 8; ++v) sim.block_node(v);
  sim.run_for(sec(virtual_s / 2));
  for (int v = 0; v < 8; ++v) sim.unblock_node(v);
  sim.run_for(sec(virtual_s - virtual_s / 3 - virtual_s / 2));
  const double elapsed = std::max(now_s() - start, 1e-9);
  m.wall_s = elapsed;
  m.iterations = 1;
  m.items_per_s = static_cast<double>(virtual_s) / elapsed;
  m.events_per_s = static_cast<double>(sim.queue().executed()) / elapsed;
  m.datagrams_per_s = static_cast<double>(sim.datagrams_routed()) / elapsed;
  m.peak_rss_kb = peak_rss_kb();
  return m;
}

// ---------------------------------------------------------------------------
// registry

const std::vector<BenchCase>& micro_cases() {
  static const std::vector<BenchCase> cases = {
      {"micro/event-queue", "schedule/fire mix on the discrete-event queue",
       bench_event_queue, false},
      {"micro/event-queue-cancel", "schedule/cancel storm (timer churn)",
       bench_event_queue_cancel, false},
      {"micro/task-dispatch", "Task construction + dispatch, 32-byte capture",
       bench_task_dispatch, false},
      {"micro/codec-roundtrip", "ping encode+decode round trip",
       bench_codec_roundtrip, false},
      {"micro/codec-join-datagram",
       "frame walk + in-place parse of a 56-frame Alive datagram",
       bench_codec_join_datagram, false},
      {"micro/broadcast-queue", "piggyback queue churn + MTU-fill selection",
       bench_broadcast_queue, false},
      {"micro/broadcast-queue-join",
       "MTU-fill selection + top-up at join-storm depth (512 frames, n=512)",
       bench_broadcast_queue_join, false},
      {"micro/membership-selection", "random gossip-target selection, n=256",
       bench_membership_selection, false},
      {"micro/agent-dispatch",
       "sampler access pattern through the membership::Agent vtable, n=16",
       bench_agent_dispatch, false},
  };
  return cases;
}

const std::vector<BenchCase>& sim_cases() {
  // Ascending footprint: an entry's peak_rss_kb is the process high-water
  // mark after its case, so a heavy case run first would own every later
  // entry's figure.
  static const std::vector<BenchCase> cases = {
      {"sim/cluster-n64", "healthy 64-node cluster, 30 virtual s",
       [](const SuiteOptions& opt) {
         return bench_cluster(64, opt.quick ? 10 : 30);
       },
       false},
      {"sim/cluster-anomaly-n64",
       "64 nodes with an 8-victim synchronized block cycle",
       bench_cluster_anomaly, false},
      {"sim/cluster-n256", "healthy 256-node cluster, 20 virtual s",
       [](const SuiteOptions& opt) {
         return bench_cluster(256, opt.quick ? 5 : 20);
       },
       false},
      {"sim/cluster-n1024", "large-n tier: 1024 nodes, 15 virtual s",
       [](const SuiteOptions&) { return bench_cluster(1024, 15); }, true},
  };
  return cases;
}

}  // namespace

std::vector<std::string> Suite::names() { return {"micro", "sim"}; }

const std::vector<BenchCase>* Suite::find(std::string_view suite) {
  if (suite == "micro") return &micro_cases();
  if (suite == "sim") return &sim_cases();
  return nullptr;
}

Baseline Suite::run(std::string_view suite, const SuiteOptions& opt,
                    std::FILE* progress) {
  const std::vector<BenchCase>* cases = find(suite);
  if (cases == nullptr) {
    throw std::invalid_argument("unknown suite '" + std::string(suite) +
                                "' (expected one of: micro, sim)");
  }
  Baseline b;
  b.suite = suite;
  b.created = utc_timestamp();
  b.host = host_fingerprint();
  b.build = build_fingerprint();
  b.commit = git_fingerprint();
  for (const BenchCase& c : *cases) {
    if (opt.quick && c.heavy) {
      if (progress != nullptr) {
        std::fprintf(progress, "%-32s skipped (--quick)\n", c.name.c_str());
      }
      continue;
    }
    Measurement m = c.fn(opt);
    m.name = c.name;
    if (progress != nullptr) {
      std::fprintf(progress, "%-32s %12.4g items/s  %10.4g events/s  %.2fs\n",
                   m.name.c_str(), m.items_per_s, m.events_per_s, m.wall_s);
    }
    b.entries.push_back(std::move(m));
  }
  return b;
}

}  // namespace lifeguard::perf
