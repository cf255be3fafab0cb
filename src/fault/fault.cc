#include "fault/fault.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace lifeguard::fault {

// ---------------------------------------------------------------------------
// Fault

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kBlock:
      return "block";
    case FaultKind::kIntervalBlock:
      return "interval";
    case FaultKind::kStress:
      return "stress";
    case FaultKind::kFlapping:
      return "flapping";
    case FaultKind::kChurn:
      return "churn";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kLinkLoss:
      return "loss";
    case FaultKind::kLatency:
      return "latency";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
  }
  return "?";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (FaultKind k :
       {FaultKind::kBlock, FaultKind::kIntervalBlock, FaultKind::kStress,
        FaultKind::kFlapping, FaultKind::kChurn, FaultKind::kPartition,
        FaultKind::kLinkLoss, FaultKind::kLatency, FaultKind::kDuplicate,
        FaultKind::kReorder}) {
    if (name == fault_kind_name(k)) return k;
  }
  return std::nullopt;
}

bool is_network_fault(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkLoss:
    case FaultKind::kLatency:
    case FaultKind::kDuplicate:
    case FaultKind::kReorder:
      return true;
    default:
      return false;
  }
}

Fault Fault::block() { return {}; }

Fault Fault::interval_block(Duration d, Duration i) {
  Fault f;
  f.kind = FaultKind::kIntervalBlock;
  f.period = d;
  f.gap = i;
  return f;
}

Fault Fault::stressed(StressParams params) {
  Fault f;
  f.kind = FaultKind::kStress;
  f.stress = params;
  return f;
}

Fault Fault::flapping(Duration d, Duration i) {
  Fault f;
  f.kind = FaultKind::kFlapping;
  f.period = d;
  f.gap = i;
  return f;
}

Fault Fault::churn(Duration downtime, Duration uptime) {
  Fault f;
  f.kind = FaultKind::kChurn;
  f.period = downtime;
  f.gap = uptime;
  return f;
}

Fault Fault::partition() {
  Fault f;
  f.kind = FaultKind::kPartition;
  return f;
}

Fault Fault::link_loss(double egress, double ingress) {
  Fault f;
  f.kind = FaultKind::kLinkLoss;
  f.egress_loss = egress;
  f.ingress_loss = ingress;
  return f;
}

Fault Fault::latency(Duration extra, Duration jitter) {
  Fault f;
  f.kind = FaultKind::kLatency;
  f.extra_latency = extra;
  f.jitter = jitter;
  return f;
}

Fault Fault::duplicate(double probability) {
  Fault f;
  f.kind = FaultKind::kDuplicate;
  f.probability = probability;
  return f;
}

Fault Fault::reorder(double probability, Duration spread) {
  Fault f;
  f.kind = FaultKind::kReorder;
  f.probability = probability;
  f.spread = spread;
  return f;
}

LinkFault link_fault_of(const Fault& f) {
  LinkFault lf;
  switch (f.kind) {
    case FaultKind::kLinkLoss:
      lf.egress_loss = f.egress_loss;
      lf.ingress_loss = f.ingress_loss;
      break;
    case FaultKind::kLatency:
      lf.extra_latency = f.extra_latency;
      lf.jitter = f.jitter;
      break;
    case FaultKind::kDuplicate:
      lf.duplicate_p = f.probability;
      break;
    case FaultKind::kReorder:
      lf.reorder_p = f.probability;
      lf.reorder_spread = f.spread;
      break;
    default:
      break;  // process-level kinds carry no link math
  }
  return lf;
}

// ---------------------------------------------------------------------------
// VictimSelector

VictimSelector VictimSelector::uniform(int count) {
  VictimSelector v;
  v.mode = Mode::kUniform;
  v.count = count;
  return v;
}

VictimSelector VictimSelector::nodes(std::vector<int> indices) {
  VictimSelector v;
  v.mode = Mode::kExplicit;
  v.indices = std::move(indices);
  return v;
}

VictimSelector VictimSelector::fraction_of(double fraction) {
  VictimSelector v;
  v.mode = Mode::kFraction;
  v.fraction = fraction;
  return v;
}

VictimSelector VictimSelector::island(int size, int first) {
  VictimSelector v;
  v.mode = Mode::kIsland;
  v.count = size;
  v.first = first;
  return v;
}

int VictimSelector::resolved_count(int cluster_size) const {
  switch (mode) {
    case Mode::kUniform:
    case Mode::kIsland:
      return count;
    case Mode::kExplicit:
      return static_cast<int>(indices.size());
    case Mode::kFraction:
      return static_cast<int>(fraction * cluster_size + 0.5);
  }
  return 0;
}

std::vector<int> VictimSelector::resolve(int cluster_size, Rng& rng,
                                         bool exclude_seed_node) const {
  switch (mode) {
    case Mode::kExplicit:
      return indices;
    case Mode::kIsland: {
      std::vector<int> out;
      for (int i = first; i < first + count && i < cluster_size; ++i) {
        out.push_back(i);
      }
      return out;
    }
    case Mode::kUniform:
    case Mode::kFraction: {
      // Shuffle-then-truncate over the eligible indices. Every golden run
      // depends on this draw sequence; do not reorder it.
      std::vector<int> all;
      for (int i = exclude_seed_node ? 1 : 0; i < cluster_size; ++i) {
        all.push_back(i);
      }
      rng.shuffle(all);
      int n = resolved_count(cluster_size);
      if (n > static_cast<int>(all.size())) n = static_cast<int>(all.size());
      all.resize(static_cast<std::size_t>(std::max(n, 0)));
      return all;
    }
  }
  return {};
}

std::string VictimSelector::describe() const {
  std::ostringstream os;
  switch (mode) {
    case Mode::kUniform:
      os << "x" << count;
      break;
    case Mode::kExplicit: {
      os << "nodes ";
      for (std::size_t i = 0; i < indices.size(); ++i) {
        if (i > 0) os << "+";
        os << indices[i];
      }
      break;
    }
    case Mode::kFraction:
      os << static_cast<int>(fraction * 100 + 0.5) << "%";
      break;
    case Mode::kIsland:
      os << "island [" << first << "," << first + count << ")";
      break;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Timeline

namespace {

std::string fmt_duration(Duration d) {
  std::ostringstream os;
  if (d.us % 1000000 == 0) {
    os << d.us / 1000000 << "s";
  } else if (d.us % 1000 == 0) {
    os << d.us / 1000 << "ms";
  } else {
    os << d.us << "us";
  }
  return os.str();
}

}  // namespace

std::string TimelineEntry::describe() const {
  std::ostringstream os;
  os << fault_kind_name(fault.kind) << "@" << fmt_duration(at) << "+"
     << fmt_duration(duration) << " " << victims.describe();
  switch (fault.kind) {
    case FaultKind::kIntervalBlock:
    case FaultKind::kFlapping:
      os << " D=" << fmt_duration(fault.period)
         << " I=" << fmt_duration(fault.gap);
      break;
    case FaultKind::kChurn:
      os << " down=" << fmt_duration(fault.period)
         << " up=" << fmt_duration(fault.gap);
      break;
    case FaultKind::kLinkLoss:
      os << " egress=" << fault.egress_loss
         << " ingress=" << fault.ingress_loss;
      break;
    case FaultKind::kLatency:
      os << " extra=" << fmt_duration(fault.extra_latency)
         << " jitter=" << fmt_duration(fault.jitter);
      break;
    case FaultKind::kDuplicate:
      os << " p=" << fault.probability;
      break;
    case FaultKind::kReorder:
      os << " p=" << fault.probability
         << " spread=" << fmt_duration(fault.spread);
      break;
    default:
      break;
  }
  return os.str();
}

Timeline& Timeline::add(Duration at, Duration duration, Fault fault,
                        VictimSelector victims) {
  TimelineEntry e;
  e.at = at;
  e.duration = duration;
  e.fault = fault;
  e.victims = std::move(victims);
  entries_.push_back(std::move(e));
  return *this;
}

Timeline& Timeline::add(TimelineEntry entry) {
  entries_.push_back(std::move(entry));
  return *this;
}

TimelineEntry& Timeline::entry(std::size_t i) {
  if (i >= entries_.size()) {
    throw std::out_of_range("timeline entry " + std::to_string(i) +
                            " does not exist — the timeline has " +
                            std::to_string(entries_.size()) + " entries");
  }
  return entries_[i];
}

std::vector<std::string> Timeline::validate(int cluster_size) const {
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const TimelineEntry& e = entries_[i];
    const std::string where = "timeline[" + std::to_string(i) + "] (" +
                              fault_kind_name(e.fault.kind) + "): ";
    auto fail = [&errors, &where](const std::string& msg) {
      errors.push_back(where + msg);
    };

    if (e.at.is_negative()) fail("at must be >= 0");
    if (e.duration <= Duration{0}) {
      fail("duration must be > 0 — it is the fault's active span");
    }
    // Keep every span far from int64-microsecond overflow so the drain
    // arithmetic (at + duration + cycle alignment + slack) is always safe.
    // Ten years of virtual time is orders beyond any real experiment.
    constexpr Duration kMaxSpan = sec(315360000);
    for (Duration d : {e.at, e.duration, e.fault.period, e.fault.gap,
                       e.fault.extra_latency, e.fault.jitter, e.fault.spread}) {
      if (d > kMaxSpan) {
        fail("time spans are capped at 10 years of virtual time — larger "
             "values risk clock overflow");
        break;
      }
    }

    // -- victims --
    const VictimSelector& v = e.victims;
    const int n = v.resolved_count(cluster_size);
    switch (v.mode) {
      case VictimSelector::Mode::kUniform:
        if (v.count < 1) fail("victims count must be >= 1");
        break;
      case VictimSelector::Mode::kExplicit:
        if (v.indices.empty()) fail("explicit victim list must be non-empty");
        for (int idx : v.indices) {
          if (idx < 0 || idx >= cluster_size) {
            fail("victim index " + std::to_string(idx) +
                 " is outside [0, " + std::to_string(cluster_size) + ")");
          }
        }
        break;
      case VictimSelector::Mode::kFraction:
        if (v.fraction <= 0.0 || v.fraction > 1.0) {
          fail("victim fraction (" + std::to_string(v.fraction) +
               ") must be in (0, 1]");
        } else if (n < 1) {
          fail("victim fraction (" + std::to_string(v.fraction) +
               ") rounds to 0 members of a " + std::to_string(cluster_size) +
               "-node cluster — the entry would be a silent no-op");
        }
        break;
      case VictimSelector::Mode::kIsland:
        if (v.count < 1 || v.first < 0 ||
            v.first + v.count > cluster_size) {
          fail("island [" + std::to_string(v.first) + ", " +
               std::to_string(v.first + v.count) +
               ") must fit inside [0, " + std::to_string(cluster_size) + ")");
        }
        break;
    }
    if (n > cluster_size) {
      fail("resolves to " + std::to_string(n) +
           " victims, more than cluster_size (" +
           std::to_string(cluster_size) + ")");
    }

    // -- per-kind parameters --
    const Fault& f = e.fault;
    switch (f.kind) {
      case FaultKind::kBlock:
        break;
      case FaultKind::kIntervalBlock:
      case FaultKind::kFlapping:
        if (f.period <= Duration{0} || f.gap <= Duration{0}) {
          fail("cycle shape needs period D > 0 and gap I > 0 — use 'block' "
               "for one uninterrupted span");
        }
        break;
      case FaultKind::kStress:
        if (f.stress.block_min <= Duration{0} ||
            f.stress.block_min > f.stress.block_max) {
          fail("stress block range must satisfy 0 < block_min <= block_max");
        }
        if (f.stress.run_min <= Duration{0} ||
            f.stress.run_min > f.stress.run_max) {
          fail("stress run range must satisfy 0 < run_min <= run_max");
        }
        break;
      case FaultKind::kChurn:
        if (f.period <= Duration{0} || f.gap <= Duration{0}) {
          fail("churn needs downtime > 0 and uptime > 0");
        }
        if (n >= cluster_size) {
          fail("churn victims (" + std::to_string(n) +
               ") must be <= cluster_size - 1 — node 0 is the rejoin seed "
               "and is never churned");
        }
        if ((v.mode == VictimSelector::Mode::kIsland && v.first == 0) ||
            std::count(v.indices.begin(), v.indices.end(), 0) > 0) {
          fail("node 0 is the rejoin seed and cannot be churned — pick "
               "explicit indices >= 1 or start the island at 1");
        }
        break;
      case FaultKind::kPartition:
        if (n >= cluster_size) {
          fail("island size (" + std::to_string(n) +
               ") must leave members on both sides of the split");
        }
        break;
      case FaultKind::kLinkLoss:
        if (f.egress_loss < 0.0 || f.egress_loss > 1.0 ||
            f.ingress_loss < 0.0 || f.ingress_loss > 1.0) {
          fail("loss probabilities must be in [0, 1]");
        } else if (f.egress_loss == 0.0 && f.ingress_loss == 0.0) {
          fail("at least one of egress/ingress loss must be > 0");
        }
        break;
      case FaultKind::kLatency:
        if (f.extra_latency.is_negative() || f.jitter.is_negative()) {
          fail("extra latency and jitter must be >= 0");
        } else if (f.extra_latency.is_zero() && f.jitter.is_zero()) {
          fail("at least one of extra/jitter must be > 0");
        }
        break;
      case FaultKind::kDuplicate:
        if (f.probability <= 0.0 || f.probability > 1.0) {
          fail("duplicate probability must be in (0, 1]");
        }
        break;
      case FaultKind::kReorder:
        if (f.probability <= 0.0 || f.probability > 1.0) {
          fail("reorder probability must be in (0, 1]");
        }
        if (f.spread <= Duration{0}) {
          fail("reorder spread must be > 0 — it is the extra delay window");
        }
        break;
    }
  }
  return errors;
}

std::string Timeline::summary() const {
  std::string out;
  for (const TimelineEntry& e : entries_) {
    if (!out.empty()) out += "; ";
    out += e.describe();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parsing

namespace {

/// "16384", "16s", "500ms", "250us" → Duration; bare numbers are ms.
std::optional<Duration> parse_duration_text(std::string_view text) {
  std::int64_t scale = 1000;  // default: milliseconds
  if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    scale = 1;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1000;
    text.remove_suffix(2);
  } else if (!text.empty() && text.back() == 's') {
    scale = 1000000;
    text.remove_suffix(1);
  }
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE || v < 0 ||
      v > std::numeric_limits<std::int64_t>::max() / scale) {
    return std::nullopt;
  }
  return Duration{v * scale};
}

/// Strict non-negative integer (no fractions, no exponents).
std::optional<int> parse_int_text(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE || v < 0 ||
      v > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

std::optional<double> parse_prob_text(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t p = s.find(sep);
    out.push_back(s.substr(0, p));
    if (p == std::string_view::npos) break;
    s.remove_prefix(p + 1);
  }
  return out;
}

}  // namespace

std::optional<TimelineEntry> parse_timeline_entry(std::string_view spec,
                                                  std::string& error) {
  const auto parts = split(spec, ',');
  // Head: KIND@AT:DUR
  const std::string_view head = parts[0];
  const std::size_t at_pos = head.find('@');
  const std::size_t colon = head.find(':', at_pos == std::string_view::npos
                                                 ? 0
                                                 : at_pos);
  if (at_pos == std::string_view::npos || colon == std::string_view::npos) {
    error = "expected KIND@AT:DUR, got '" + std::string(head) + "'";
    return std::nullopt;
  }
  TimelineEntry e;
  const auto kind = fault_kind_from_name(head.substr(0, at_pos));
  if (!kind) {
    error = "unknown fault kind '" + std::string(head.substr(0, at_pos)) +
            "' (expected block|interval|stress|flapping|churn|partition|"
            "loss|latency|duplicate|reorder)";
    return std::nullopt;
  }
  e.fault.kind = *kind;
  const auto at = parse_duration_text(head.substr(at_pos + 1,
                                                  colon - at_pos - 1));
  const auto dur = parse_duration_text(head.substr(colon + 1));
  if (!at || !dur) {
    error = "bad time in '" + std::string(head) +
            "' (use e.g. 10s, 500ms, 250us; bare numbers are ms)";
    return std::nullopt;
  }
  e.at = *at;
  e.duration = *dur;

  bool selector_set = false;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string_view kv = parts[i];
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      error = "expected key=value, got '" + std::string(kv) + "'";
      return std::nullopt;
    }
    const std::string_view key = kv.substr(0, eq);
    const std::string_view val = kv.substr(eq + 1);
    auto bad_value = [&error, key, val]() {
      error = "bad value '" + std::string(val) + "' for key '" +
              std::string(key) + "'";
    };
    // Fault-parameter keys apply only to the kinds that read them — a
    // misapplied key would otherwise silently configure nothing.
    auto applies_to = [&](std::initializer_list<FaultKind> kinds) {
      for (FaultKind k : kinds) {
        if (e.fault.kind == k) return true;
      }
      error = "key '" + std::string(key) + "' does not apply to fault kind '" +
              fault_kind_name(e.fault.kind) + "'";
      return false;
    };
    auto duration_key = [&](Duration& out) {
      const auto d = parse_duration_text(val);
      if (!d) {
        bad_value();
        return false;
      }
      out = *d;
      return true;
    };
    auto prob_key = [&](double& out) {
      const auto p = parse_prob_text(val);
      if (!p) {
        bad_value();
        return false;
      }
      out = *p;
      return true;
    };

    if (key == "victims") {
      const auto n = parse_int_text(val);
      if (!n || *n < 1) {
        bad_value();
        return std::nullopt;
      }
      e.victims = VictimSelector::uniform(*n);
      selector_set = true;
    } else if (key == "nodes") {
      std::vector<int> idx;
      for (std::string_view tok : split(val, '+')) {
        const auto n = parse_int_text(tok);
        if (!n) {
          bad_value();
          return std::nullopt;
        }
        idx.push_back(*n);
      }
      e.victims = VictimSelector::nodes(std::move(idx));
      selector_set = true;
    } else if (key == "pct") {
      double p = 0;
      if (!prob_key(p)) return std::nullopt;
      e.victims = VictimSelector::fraction_of(p / 100.0);
      selector_set = true;
    } else if (key == "island") {
      const auto toks = split(val, '+');
      const auto n = parse_int_text(toks[0]);
      const std::optional<int> f =
          toks.size() > 1 ? parse_int_text(toks[1]) : std::optional<int>(0);
      if (!n || !f || toks.size() > 2) {
        bad_value();
        return std::nullopt;
      }
      e.victims = VictimSelector::island(*n, *f);
      selector_set = true;
    } else if (key == "d" || key == "down") {
      if (!applies_to({FaultKind::kIntervalBlock, FaultKind::kFlapping,
                       FaultKind::kChurn})) {
        return std::nullopt;
      }
      if (!duration_key(e.fault.period)) return std::nullopt;
    } else if (key == "i" || key == "up") {
      if (!applies_to({FaultKind::kIntervalBlock, FaultKind::kFlapping,
                       FaultKind::kChurn})) {
        return std::nullopt;
      }
      if (!duration_key(e.fault.gap)) return std::nullopt;
    } else if (key == "egress") {
      if (!applies_to({FaultKind::kLinkLoss})) return std::nullopt;
      if (!prob_key(e.fault.egress_loss)) return std::nullopt;
    } else if (key == "ingress") {
      if (!applies_to({FaultKind::kLinkLoss})) return std::nullopt;
      if (!prob_key(e.fault.ingress_loss)) return std::nullopt;
    } else if (key == "extra") {
      if (!applies_to({FaultKind::kLatency})) return std::nullopt;
      if (!duration_key(e.fault.extra_latency)) return std::nullopt;
    } else if (key == "jitter") {
      if (!applies_to({FaultKind::kLatency})) return std::nullopt;
      if (!duration_key(e.fault.jitter)) return std::nullopt;
    } else if (key == "p") {
      if (!applies_to({FaultKind::kDuplicate, FaultKind::kReorder})) {
        return std::nullopt;
      }
      if (!prob_key(e.fault.probability)) return std::nullopt;
    } else if (key == "spread") {
      if (!applies_to({FaultKind::kReorder})) return std::nullopt;
      if (!duration_key(e.fault.spread)) return std::nullopt;
    } else if (key == "bmin") {
      if (!applies_to({FaultKind::kStress})) return std::nullopt;
      if (!duration_key(e.fault.stress.block_min)) return std::nullopt;
    } else if (key == "bmax") {
      if (!applies_to({FaultKind::kStress})) return std::nullopt;
      if (!duration_key(e.fault.stress.block_max)) return std::nullopt;
    } else if (key == "rmin") {
      if (!applies_to({FaultKind::kStress})) return std::nullopt;
      if (!duration_key(e.fault.stress.run_min)) return std::nullopt;
    } else if (key == "rmax") {
      if (!applies_to({FaultKind::kStress})) return std::nullopt;
      if (!duration_key(e.fault.stress.run_max)) return std::nullopt;
    } else {
      error = "unknown key '" + std::string(key) + "'";
      return std::nullopt;
    }
  }
  if (!selector_set) e.victims = VictimSelector::uniform(1);
  return e;
}

Duration cycle_aligned_length(Duration span, Duration duration,
                              Duration interval) {
  const Duration cycle = duration + interval;
  if (cycle <= Duration{0}) return span;
  const std::int64_t cycles = (span.us + cycle.us - 1) / cycle.us;
  return cycle * cycles;
}

// ---------------------------------------------------------------------------
// Fuzzing hooks

namespace {

/// Uniform whole-millisecond duration on a `step_ms` grid over [lo, hi] —
/// the serializable value lattice every generated span lives on.
Duration grid_ms(Rng& rng, std::int64_t lo_ms, std::int64_t hi_ms,
                 std::int64_t step_ms) {
  if (hi_ms < lo_ms) hi_ms = lo_ms;
  const std::int64_t steps = (hi_ms - lo_ms) / step_ms;
  return msec(lo_ms +
              step_ms * static_cast<std::int64_t>(
                            rng.uniform(static_cast<std::uint64_t>(steps + 1))));
}

/// Probabilities are twentieths in (0, 1]: 0.05, 0.1, ..., 1. Shortest-form
/// double rendering of these is short and strtod-exact.
double grid_prob(Rng& rng) {
  return static_cast<double>(1 + rng.uniform(20)) / 20.0;
}

VictimSelector random_selector(FaultKind kind, int cluster_size, Rng& rng) {
  // Churn never touches node 0 (the rejoin seed); churn and partition must
  // leave survivors, so their victim count stays below the cluster size.
  const bool churn = kind == FaultKind::kChurn;
  const bool spare_some = churn || kind == FaultKind::kPartition;
  const int cap =
      std::max(1, std::min(spare_some ? cluster_size - 1 : cluster_size,
                           cluster_size / 2 + 1));
  const int count = 1 + static_cast<int>(rng.uniform(
                            static_cast<std::uint64_t>(cap)));
  switch (rng.uniform(3)) {
    case 0:
      return VictimSelector::uniform(count);
    case 1: {
      const int lo = churn ? 1 : 0;
      std::vector<int> pool;
      for (int i = lo; i < cluster_size; ++i) pool.push_back(i);
      rng.shuffle(pool);
      const int k = std::min<int>(count, static_cast<int>(pool.size()));
      pool.resize(static_cast<std::size_t>(k));
      std::sort(pool.begin(), pool.end());
      return VictimSelector::nodes(std::move(pool));
    }
    default: {
      const int lo = churn ? 1 : 0;
      const int c = std::min(count, cluster_size - lo);
      const int first =
          lo + static_cast<int>(rng.uniform(
                   static_cast<std::uint64_t>(cluster_size - lo - c + 1)));
      return VictimSelector::island(c, first);
    }
  }
}

Fault random_fault(FaultKind kind, Rng& rng) {
  switch (kind) {
    case FaultKind::kBlock:
      return Fault::block();
    case FaultKind::kIntervalBlock:
      return Fault::interval_block(grid_ms(rng, 250, 4000, 250),
                                   grid_ms(rng, 250, 4000, 250));
    case FaultKind::kFlapping:
      return Fault::flapping(grid_ms(rng, 250, 4000, 250),
                             grid_ms(rng, 250, 4000, 250));
    case FaultKind::kStress: {
      StressParams p;
      p.block_min = grid_ms(rng, 100, 2000, 100);
      p.block_max = p.block_min + grid_ms(rng, 0, 4000, 100);
      p.run_min = grid_ms(rng, 1, 50, 1);
      p.run_max = p.run_min + grid_ms(rng, 0, 100, 1);
      return Fault::stressed(p);
    }
    case FaultKind::kChurn:
      return Fault::churn(grid_ms(rng, 500, 8000, 250),
                          grid_ms(rng, 1000, 10000, 250));
    case FaultKind::kPartition:
      return Fault::partition();
    case FaultKind::kLinkLoss: {
      const double egress = grid_prob(rng);
      const double ingress = rng.chance(0.5) ? grid_prob(rng) : 0.0;
      return Fault::link_loss(egress, ingress);
    }
    case FaultKind::kLatency:
      return Fault::latency(grid_ms(rng, 50, 2000, 50),
                            grid_ms(rng, 0, 1000, 50));
    case FaultKind::kDuplicate:
      return Fault::duplicate(grid_prob(rng));
    case FaultKind::kReorder:
      return Fault::reorder(grid_prob(rng), grid_ms(rng, 10, 1000, 10));
  }
  return Fault::block();  // unreachable
}

}  // namespace

const std::vector<FaultKind>& all_fault_kinds() {
  static const std::vector<FaultKind> kinds = {
      FaultKind::kBlock,    FaultKind::kIntervalBlock, FaultKind::kStress,
      FaultKind::kFlapping, FaultKind::kChurn,         FaultKind::kPartition,
      FaultKind::kLinkLoss, FaultKind::kLatency,       FaultKind::kDuplicate,
      FaultKind::kReorder,
  };
  return kinds;
}

TimelineEntry random_timeline_entry(FaultKind kind, int cluster_size,
                                    Duration horizon, Rng& rng) {
  TimelineEntry e;
  const std::int64_t horizon_ms = std::max<std::int64_t>(horizon.us / 1000,
                                                         1000);
  // Onset leaves at least 500 ms of active span before the horizon.
  e.at = grid_ms(rng, 0, horizon_ms - 500, 250);
  e.duration = grid_ms(rng, 500, horizon_ms - e.at.us / 1000, 250);
  e.fault = random_fault(kind, rng);
  e.victims = random_selector(kind, cluster_size, rng);
  return e;
}

void perturb_timeline_entry(TimelineEntry& e, int cluster_size,
                            Duration horizon, Rng& rng) {
  const std::int64_t horizon_ms = std::max<std::int64_t>(horizon.us / 1000,
                                                         1000);
  switch (rng.uniform(4)) {
    case 0:  // onset — keep the span inside the horizon
      e.at = grid_ms(rng, 0, horizon_ms - e.duration.us / 1000, 250);
      break;
    case 1:  // duration
      e.duration = grid_ms(rng, 500, horizon_ms - e.at.us / 1000, 250);
      break;
    case 2:  // victims
      e.victims = random_selector(e.fault.kind, cluster_size, rng);
      break;
    default:  // parameters (a fresh draw of the same kind)
      e.fault = random_fault(e.fault.kind, rng);
      break;
  }
}

}  // namespace lifeguard::fault
