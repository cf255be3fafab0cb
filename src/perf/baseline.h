// Machine-readable performance baselines — the perf:: layer's artifact.
//
// A Baseline is what one `bench_runner --suite NAME --json FILE` run emits:
// run metadata (suite, host, build, creation time) plus one Measurement per
// benchmark case. Baselines are committed as BENCH_<suite>.json at the repo
// root so the performance trajectory is recorded next to the code it
// measures, and perf::compare (compare.h) diffs two of them to gate
// regressions. The format is plain JSON, written by hand and parsed with the
// shared common/flatjson.h scanner — no external dependency.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lifeguard::perf {

/// One benchmark case's results. `items_per_s` is the case's primary
/// throughput (ops/sec for micro cases, virtual seconds per real second for
/// simulator cases); the event/datagram rates and peak RSS add the
/// simulator-specific dimensions the ROADMAP asks to track.
struct Measurement {
  std::string name;
  double wall_s = 0.0;            ///< total measured wall time
  double items_per_s = 0.0;       ///< primary throughput (higher is better)
  double events_per_s = 0.0;      ///< simulator events executed per second
  double datagrams_per_s = 0.0;   ///< datagrams routed per second
  std::int64_t peak_rss_kb = 0;   ///< process peak RSS after the case ran
  std::int64_t iterations = 0;    ///< repetitions folded into the rates

  bool operator==(const Measurement&) const = default;
};

struct Baseline {
  std::string suite;    ///< suite name ("micro", "sim", ...)
  std::string created;  ///< UTC timestamp, "YYYY-MM-DD HH:MM:SS"
  std::string host;     ///< uname summary of the measuring machine
  std::string build;    ///< compiler + build-type fingerprint
  /// git HEAD of the measured tree ("abc1234" or "abc1234-dirty"); empty
  /// when the measuring process ran outside a git checkout.
  std::string commit;
  std::vector<Measurement> entries;

  const Measurement* find(const std::string& name) const;
};

/// Current process peak RSS in KiB (getrusage; 0 if unavailable).
std::int64_t peak_rss_kb();
/// "YYYY-MM-DD HH:MM:SS" UTC now.
std::string utc_timestamp();
/// uname-based host fingerprint ("Linux 6.8.0 x86_64").
std::string host_fingerprint();
/// Compiler/build fingerprint ("gcc 12.2.0, NDEBUG").
std::string build_fingerprint();
/// Short git HEAD sha of the working tree, "-dirty"-suffixed when the
/// checkout has uncommitted changes ("abc1234" / "abc1234-dirty"). Empty
/// when git is unavailable or the cwd is not a repository — baselines stay
/// writable anywhere.
std::string git_fingerprint();

/// Pretty-printed JSON document (the BENCH_*.json format).
std::string to_json(const Baseline& b);
/// Parse a baseline document. Returns std::nullopt and sets `error` on
/// malformed input (a bad value names its field: "entries[2]: field
/// 'wall_s' is not a number"); unknown keys are ignored (forward
/// compatibility).
std::optional<Baseline> from_json(const std::string& text, std::string& error);

bool save_baseline_file(const Baseline& b, const std::string& path,
                        std::string& error);
std::optional<Baseline> load_baseline_file(const std::string& path,
                                           std::string& error);

}  // namespace lifeguard::perf
