// The telemetry layer end to end: catalog stability, the typed registry
// facade, exporters, the snapshot sampler's determinism guarantees (metrics
// must never perturb a (scenario, seed) run), record/replay with snapshots
// and probe spans enabled, campaign band folding at every `jobs` level, and
// the paper's Fig. 1 shape (LHM rises under CPU exhaustion, decays after).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "check/replay.h"
#include "check/trace.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "obs/catalog.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "swim/config.h"

namespace lifeguard::obs {
namespace {

// ---------------------------------------------------------------------------
// Catalog

TEST(Catalog, IdsRoundTripThroughNamesAndBack) {
  const auto all = all_metrics();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kMetricCount));
  for (int id = 0; id < kMetricCount; ++id) {
    const auto m = metric_from_id(id);
    ASSERT_TRUE(m.has_value()) << "id " << id;
    EXPECT_EQ(static_cast<int>(*m), id);
    const auto back = metric_from_name(metric_name(*m));
    ASSERT_TRUE(back.has_value()) << metric_name(*m);
    EXPECT_EQ(*back, *m);
  }
  EXPECT_FALSE(metric_from_id(-1).has_value());
  EXPECT_FALSE(metric_from_id(kMetricCount).has_value());
  EXPECT_FALSE(metric_from_name("no.such.metric").has_value());
}

TEST(Catalog, DetectionMetricIdsAndNamesArePinned) {
  // Append-only contract: these ids are wire/artifact identifiers. A failure
  // here means a recorded trace's samples silently changed meaning.
  EXPECT_EQ(kMetricCount, 19);
  EXPECT_EQ(static_cast<int>(Metric::kHeartbeatSentTotal), 16);
  EXPECT_EQ(static_cast<int>(Metric::kHeartbeatMissedTotal), 17);
  EXPECT_EQ(static_cast<int>(Metric::kCoordinatorRttMeanUs), 18);
  EXPECT_STREQ(metric_name(Metric::kHeartbeatSentTotal),
               "detect.heartbeat.sent.total");
  EXPECT_STREQ(metric_name(Metric::kHeartbeatMissedTotal),
               "detect.heartbeat.missed.total");
  EXPECT_STREQ(metric_name(Metric::kCoordinatorRttMeanUs),
               "detect.coordinator.rtt.mean_us");
  EXPECT_EQ(metric_from_name("detect.heartbeat.sent.total"),
            Metric::kHeartbeatSentTotal);
  EXPECT_EQ(metric_from_name("detect.heartbeat.missed.total"),
            Metric::kHeartbeatMissedTotal);
  EXPECT_EQ(metric_from_name("detect.coordinator.rtt.mean_us"),
            Metric::kCoordinatorRttMeanUs);
}

TEST(Catalog, NamesAreUniqueAndPrometheusSafe) {
  std::vector<std::string> names;
  for (Metric m : all_metrics()) {
    names.push_back(metric_name(m));
    const std::string prom = prometheus_metric_name(m);
    EXPECT_EQ(prom.rfind("lifeguard_", 0), 0u) << prom;
    EXPECT_EQ(prom.find('.'), std::string::npos) << prom;
  }
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
}

// ---------------------------------------------------------------------------
// Typed registry facade

TEST(NodeMetrics, FacadeWritesThroughToTheNamedRegistry) {
  Metrics m;
  NodeMetrics nm(m);
  nm.probe_started().add();
  nm.probe_started().add();
  nm.probe_rtt_us().record(1500.0);
  nm.count_sent("ping", 48, Channel::kUdp);
  EXPECT_EQ(m.counter_value("probe.started"), 2);
  EXPECT_EQ(m.counter_value("net.msgs_sent"), 1);
  EXPECT_EQ(m.counter_value("net.bytes_sent"), 48);
  EXPECT_EQ(m.counter_value("net.sent.ping"), 1);
  EXPECT_EQ(m.histogram("probe.rtt_us").count(), 1u);
}

TEST(NetMetrics, OneCountSentServesBothFacades) {
  // swim counts per channel; the heartbeat backends keep the same kind
  // counters without channel ones.
  Metrics node_m;
  Metrics det_m;
  NodeMetrics nm(node_m);
  DetectionMetrics dm(det_m);
  nm.count_sent("ping", 48, Channel::kReliable);
  nm.count_sent("ping", 40, Channel::kUdp);
  dm.count_sent("heartbeat", 20, Channel::kUdp);
  EXPECT_EQ(node_m.counter_value("net.msgs_sent"), 2);
  EXPECT_EQ(node_m.counter_value("net.bytes_sent"), 88);
  EXPECT_EQ(node_m.counter_value("net.sent.ping"), 2);
  EXPECT_EQ(node_m.counter_value("net.sent_ch.reliable"), 1);
  EXPECT_EQ(node_m.counter_value("net.sent_ch.udp"), 1);
  EXPECT_EQ(det_m.counter_value("net.msgs_sent"), 1);
  EXPECT_EQ(det_m.counter_value("net.bytes_sent"), 20);
  EXPECT_EQ(det_m.counter_value("net.sent.heartbeat"), 1);
  for (const auto& [name, c] : det_m.counters()) {
    EXPECT_NE(name.rfind("net.sent_ch.", 0), 0u) << name;
  }
}

TEST(NodeMetrics, EveryDatagramCountsUnderItsKindAndChannel) {
  // A node counts each control datagram by its frame's tag byte. A run with
  // a blocked member has every kind: pings, ping-reqs and the relays'
  // nacks, acks, push-pull requests and responses, and pure gossip. The
  // per-kind and the per-channel counters each sum to net.msgs_sent.
  sim::SimParams p;
  p.seed = 3;
  sim::Simulator sim(8, swim::Config::lifeguard(), p);
  sim.start_all();
  sim.run_for(sec(10));
  sim.block_node(3);
  sim.run_for(sec(8));
  sim.unblock_node(3);
  sim.run_for(sec(40));
  const Metrics m = sim.aggregate_metrics();
  for (const char* kind : {"ping", "ping-req", "ack", "nack", "push-pull-req",
                           "push-pull-resp", "gossip"}) {
    EXPECT_GT(m.counter_value(std::string("net.sent.") + kind), 0) << kind;
  }
  std::int64_t by_kind = 0;
  for (const auto& [name, c] : m.counters()) {
    if (name.rfind("net.sent.", 0) == 0) by_kind += c.value();
  }
  const std::int64_t sent = m.counter_value("net.msgs_sent");
  EXPECT_EQ(by_kind, sent);
  EXPECT_EQ(m.counter_value("net.sent_ch.udp") +
                m.counter_value("net.sent_ch.reliable"),
            sent);
}

TEST(NodeMetrics, EagerResolutionSurvivesUnrelatedInsertions) {
  // std::map nodes are stable: adding new names later must not invalidate
  // the facade's resolved pointers.
  Metrics m;
  NodeMetrics nm(m);
  Counter& started = nm.probe_started();
  for (int i = 0; i < 64; ++i) {
    m.counter("churn.extra." + std::to_string(i)).add();
  }
  started.add(7);
  EXPECT_EQ(m.counter_value("probe.started"), 7);
}

TEST(NodeMetrics, GaugesAreLevelsOutsideThePostRunRegistry) {
  Metrics m;
  NodeMetrics nm(m);
  nm.lhm().set(3.0);
  nm.gossip_pending().set(12.0);
  EXPECT_DOUBLE_EQ(nm.lhm().value(), 3.0);
  EXPECT_DOUBLE_EQ(nm.gossip_pending().value(), 12.0);
  EXPECT_EQ(m.counters().find("lhm"), m.counters().end());
}

// ---------------------------------------------------------------------------
// Exporters

Series tiny_series() {
  Series s;
  s.push_back({TimePoint{500000}, Metric::kMembersActive, -1, 8.0});
  s.push_back({TimePoint{500000}, Metric::kLhmMean, -1, 0.25});
  s.push_back({TimePoint{1000000}, Metric::kMembersActive, -1, 9.0});
  return s;
}

TEST(Export, SeriesJsonlEmitsOneSchemaConformingLinePerSample) {
  std::ostringstream os;
  write_series_jsonl(os, tiny_series());
  EXPECT_EQ(os.str(),
            "{\"t\":0.5,\"metric\":\"members.active\",\"id\":0,\"node\":-1,"
            "\"value\":8}\n"
            "{\"t\":0.5,\"metric\":\"lhm.mean\",\"id\":3,\"node\":-1,"
            "\"value\":0.25}\n"
            "{\"t\":1,\"metric\":\"members.active\",\"id\":0,\"node\":-1,"
            "\"value\":9}\n");
}

TEST(Export, PrometheusSnapshotKeepsTheLatestValuePerMetricAndNode) {
  Series s = tiny_series();
  s.push_back({TimePoint{1500000}, Metric::kMembersActive, 2, 7.0});
  std::ostringstream os;
  write_prometheus(os, s);
  const std::string out = os.str();
  // Latest cluster-aggregate value wins (9, not 8); per-node points get a
  // node label; one TYPE line per metric family.
  EXPECT_NE(out.find("# TYPE lifeguard_members_active gauge\n"
                     "lifeguard_members_active 9\n"
                     "lifeguard_members_active{node=\"2\"} 7\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("lifeguard_lhm_mean 0.25"), std::string::npos);
}

TEST(Export, FoldSeriesBandsGroupsByTimeMetricAndNode) {
  Series a = tiny_series();
  Series b = tiny_series();
  b[0].value = 10.0;  // t=0.5 members.active: {8, 10}
  const auto bands = fold_series_bands({&a, &b});
  ASSERT_EQ(bands.size(), 3u);
  EXPECT_EQ(bands[0].metric, Metric::kMembersActive);
  EXPECT_EQ(bands[0].at.us, 500000);
  EXPECT_EQ(bands[0].stats.count, 2u);
  EXPECT_DOUBLE_EQ(bands[0].stats.mean, 9.0);
  EXPECT_DOUBLE_EQ(bands[0].stats.min, 8.0);
  EXPECT_DOUBLE_EQ(bands[0].stats.max, 10.0);
  // Summary round-trips through both band serializations.
  std::ostringstream jsonl, csv;
  write_bands_jsonl(jsonl, bands);
  write_bands_csv(csv, bands);
  EXPECT_NE(jsonl.str().find("\"count\":2,\"mean\":9"), std::string::npos);
  EXPECT_EQ(csv.str().rfind("t,metric,id,node,count,mean,stddev,min,max,"
                            "p50,p99\n",
                            0),
            0u);
}

// ---------------------------------------------------------------------------
// Sampler through the sim engine

harness::Scenario small_scenario() {
  harness::Scenario s =
      *harness::ScenarioRegistry::builtin().find("steady-state");
  s.cluster_size = 12;
  s.quiesce = sec(5);
  s.run_length = sec(20);
  return s;
}

// Swim runs never emit the backend-generic detect.* tail (ids 16..18) — a
// swim tick is exactly the first 16 catalog ids, which keeps swim series
// byte-identical to recordings made before the membership seam existed.
constexpr int kSwimMetricsPerTick = 16;

TEST(Sampler, EmitsTheSwimCatalogEveryIntervalInIdOrder) {
  harness::Scenario s = small_scenario();
  s.metrics_interval = msec(500);
  const harness::RunResult r = harness::run(s);
  ASSERT_FALSE(r.series.empty());
  ASSERT_EQ(r.series.size() % kSwimMetricsPerTick, 0u);
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const Sample& sample = r.series[i];
    EXPECT_EQ(static_cast<int>(sample.metric),
              static_cast<int>(i % kSwimMetricsPerTick));
    EXPECT_EQ(sample.node, -1);
    // First tick fires one interval after start; ticks stay on the grid.
    EXPECT_EQ(sample.at.us % 500000, 0);
    EXPECT_GT(sample.at.us, 0);
  }
  // A healthy steady-state cluster converges to everyone seeing everyone.
  const Sample& last_active = r.series[r.series.size() - kSwimMetricsPerTick];
  EXPECT_EQ(last_active.metric, Metric::kMembersActive);
  EXPECT_DOUBLE_EQ(last_active.value, 12.0);
}

TEST(Sampler, NonSwimBackendsEmitTheDetectionTail) {
  harness::Scenario s = small_scenario();
  s.membership = "central";
  s.metrics_interval = msec(500);
  const harness::RunResult r = harness::run(s);
  ASSERT_FALSE(r.series.empty());
  ASSERT_EQ(r.series.size() % kMetricCount, 0u);
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    EXPECT_EQ(static_cast<int>(r.series[i].metric),
              static_cast<int>(i % kMetricCount));
  }
  // Members heartbeat the coordinator, so the cumulative counter grows and
  // the RTT histogram sees acks on the loss-free steady-state fabric.
  const Sample& last_hb = r.series[r.series.size() - kMetricCount +
                                   static_cast<int>(Metric::kHeartbeatSentTotal)];
  EXPECT_EQ(last_hb.metric, Metric::kHeartbeatSentTotal);
  EXPECT_GT(last_hb.value, 0.0);
}

TEST(Sampler, MetricsDoNotPerturbTheRun) {
  // The PR 4 guard for checks, mirrored for telemetry: sampling on vs off
  // must leave every protocol-visible result bit-identical.
  harness::Scenario off = small_scenario();
  harness::Scenario on = small_scenario();
  on.metrics_interval = msec(250);
  const harness::RunResult a = harness::run(off);
  const harness::RunResult b = harness::run(on);
  EXPECT_TRUE(a.series.empty());
  EXPECT_FALSE(b.series.empty());
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.fp_events, b.fp_events);
  EXPECT_EQ(a.fp_healthy_events, b.fp_healthy_events);
  EXPECT_EQ(a.first_detect, b.first_detect);
  EXPECT_EQ(a.full_dissem, b.full_dissem);
  EXPECT_EQ(a.metrics.counters(), b.metrics.counters());
}

TEST(Sampler, SeriesIsBitIdenticalAcrossRepeatedRuns) {
  harness::Scenario s = small_scenario();
  s.metrics_interval = msec(500);
  const harness::RunResult a = harness::run(s);
  const harness::RunResult b = harness::run(s);
  EXPECT_EQ(a.series, b.series);
}

TEST(GoldenTrace, RecordReplayMatchesWithSnapshotsAndSpansEnabled) {
  harness::Scenario s = small_scenario();
  s.metrics_interval = msec(500);
  check::TraceRecorder recorder(s, /*include_datagrams=*/false,
                                /*include_probe_spans=*/true);
  harness::run(s, {&recorder});
  const check::Trace& t = recorder.trace();
  EXPECT_EQ(t.scenario.metrics_interval, msec(500));
  EXPECT_TRUE(t.probe_spans);
  const auto has_kind = [&](check::TraceEventKind k) {
    return std::any_of(t.events.begin(), t.events.end(),
                       [&](const check::TraceEvent& e) { return e.kind == k; });
  };
  EXPECT_TRUE(has_kind(check::TraceEventKind::kMetricSample));
  EXPECT_TRUE(has_kind(check::TraceEventKind::kProbeStart));
  EXPECT_TRUE(has_kind(check::TraceEventKind::kProbeAck));
  const check::ReplayResult r = check::replay(s, t);
  EXPECT_TRUE(r.matches) << r.divergence;
}

TEST(Fig1, LhmRisesUnderCpuExhaustionAndDecaysAfter) {
  // Scaled-down fig1-cpu-exhaustion with an explicit timeline: 40 s of
  // stochastic CPU starvation, then a 50 s recovery tail the legacy anomaly
  // window would not leave. Loose bounds on purpose — the shape, not the
  // values, is the paper's claim (§II, Fig. 1).
  harness::Scenario s;
  s.name = "fig1-lhm-shape";
  s.cluster_size = 24;
  s.quiesce = sec(15);
  s.config = swim::Config::lifeguard();
  s.timeline.add(Duration{}, sec(40), fault::Fault::stressed(),
                 fault::VictimSelector::uniform(3));
  s.run_length = sec(90);
  s.metrics_interval = msec(500);
  const harness::RunResult r = harness::run(s);
  ASSERT_FALSE(r.series.empty());

  double peak_during = 0.0, last = 0.0;
  TimePoint last_at{};
  const TimePoint inject{s.quiesce.us};
  const TimePoint stress_end{(s.quiesce + sec(40)).us};
  for (const Sample& sample : r.series) {
    if (sample.metric != Metric::kLhmMax) continue;
    if (sample.at > inject && sample.at <= stress_end) {
      peak_during = std::max(peak_during, sample.value);
    }
    if (sample.at > last_at) {
      last_at = sample.at;
      last = sample.value;
    }
  }
  EXPECT_GE(peak_during, 1.0);   // stress drove somebody's LHM up
  EXPECT_LT(last, peak_during);  // and the tail let it decay back down
}

// ---------------------------------------------------------------------------
// Campaign band folding

harness::Campaign tiny_campaign(int jobs) {
  harness::Campaign c;
  c.name = "obs-parity";
  c.base = small_scenario();
  c.base.run_length = sec(10);
  c.base.metrics_interval = msec(500);
  c.repetitions = 3;
  c.jobs = jobs;
  return c;
}

TEST(CampaignBands, FoldedSeriesAreIdenticalAtEveryJobsLevel) {
  std::ostringstream r1, r8;
  harness::JsonlReporter rep1(r1), rep8(r8);
  const harness::CampaignResult a = harness::run(tiny_campaign(1), {&rep1});
  const harness::CampaignResult b = harness::run(tiny_campaign(8), {&rep8});
  ASSERT_EQ(a.points.size(), 1u);
  ASSERT_FALSE(a.points[0].series.empty());
  // Exact fold equality, and byte-identical streamed artifacts.
  std::ostringstream ja, jb;
  write_bands_jsonl(ja, a.points[0].series);
  write_bands_jsonl(jb, b.points[0].series);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(r1.str(), r8.str());
}

TEST(CampaignBands, TrialSeriesSurviveTheMetricsReset) {
  // Campaigns drop each trial's bulky Metrics registry unless asked to keep
  // it; the telemetry series is its own field and must survive that reset.
  const harness::CampaignResult r = harness::run(tiny_campaign(2));
  ASSERT_EQ(r.trials.size(), 3u);
  for (const harness::TrialResult& t : r.trials) {
    EXPECT_TRUE(t.result.metrics.counters().empty());
    EXPECT_FALSE(t.result.series.empty());
  }
  // Every trial of one grid point samples the same virtual-time grid, so
  // each band folds exactly `repetitions` values.
  for (const SeriesBand& b : r.points[0].series) {
    EXPECT_EQ(b.stats.count, 3u);
  }
}

}  // namespace
}  // namespace lifeguard::obs
