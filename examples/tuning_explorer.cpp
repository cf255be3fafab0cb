// Explore the alpha/beta suspicion-timeout trade-off (paper §V-F4): lower
// alpha buys faster detection at the cost of more false positives. Prints
// detection latency and FP counts for a few tunings so an operator can pick
// a point on the curve. Each tuning runs the same two declarative scenarios
// (a threshold run for latency, a cycling run for false positives).
//
//   ./examples/tuning_explorer
#include <cstdio>

#include "harness/scenario.h"
#include "harness/table.h"
#include "swim/suspicion.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  std::printf(
      "Lifeguard suspicion-timeout tuning explorer\n"
      "Min = alpha*log10(n)*probe_interval, Max = beta*Min  (n = 64 here)\n\n");

  struct Point {
    double alpha, beta;
  };
  const Point points[] = {{2, 2}, {2, 6}, {4, 4}, {5, 6}};

  Table table({"alpha", "beta", "Median detect (s)", "99th detect (s)",
               "FP events", "Suspicion Min (s)", "Suspicion Max (s)"});

  for (const Point& pt : points) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.suspicion_alpha = pt.alpha;
    cfg.suspicion_beta = pt.beta;

    // Latency: one threshold scenario with long anomalies.
    Scenario lat_s;
    lat_s.name = "tuning-latency";
    lat_s.cluster_size = 64;
    lat_s.config = cfg;
    lat_s.seed = 9;
    lat_s.timeline.add(sec(0), msec(32768), fault::Fault::block(),
                       fault::VictimSelector::uniform(6));
    lat_s.run_length = sec(60);
    const RunResult lat = run(lat_s);
    Histogram h;
    for (double s : lat.first_detect) h.record(s);

    // False positives: one cycling scenario with aggressive flapping.
    Scenario fp_s;
    fp_s.name = "tuning-false-positives";
    fp_s.cluster_size = 64;
    fp_s.config = cfg;
    fp_s.seed = 9;
    fp_s.timeline.add(sec(0), sec(120),
                      fault::Fault::interval_block(msec(16384), msec(4)),
                      fault::VictimSelector::uniform(10));
    fp_s.run_length = sec(120);
    const RunResult fp = run(fp_s);

    const Duration min_t =
        swim::suspicion_min(pt.alpha, 64, cfg.probe_interval);
    table.add_row({fmt_double(pt.alpha, 0), fmt_double(pt.beta, 0),
                   fmt_double(h.percentile(0.5), 2),
                   fmt_double(h.percentile(0.99), 2),
                   fmt_int(fp.fp_events), fmt_double(min_t.seconds(), 1),
                   fmt_double(min_t.scaled(pt.beta).seconds(), 1)});
    std::fprintf(stderr, "alpha=%.0f beta=%.0f done\n", pt.alpha, pt.beta);
  }
  table.print();
  std::printf(
      "\nReading the curve: alpha=2 halves detection latency but multiplies"
      "\nfalse positives; alpha=5, beta=6 is the paper's recommended point.\n");
  return 0;
}
