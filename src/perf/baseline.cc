#include "perf/baseline.h"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/flatjson.h"
#include "harness/report.h"  // json_escape — one escaping rule set

namespace lifeguard::perf {

const Measurement* Baseline::find(const std::string& name) const {
  for (const Measurement& m : entries) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::int64_t peak_rss_kb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
}

std::string utc_timestamp() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm);
  return buf;
}

std::string host_fingerprint() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

std::string build_fingerprint() {
  std::string out;
#if defined(__clang__)
  out = "clang " + std::to_string(__clang_major__) + "." +
        std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  out = "gcc " + std::to_string(__GNUC__) + "." +
        std::to_string(__GNUC_MINOR__);
#else
  out = "unknown-compiler";
#endif
#if defined(NDEBUG)
  out += ", NDEBUG";
#else
  out += ", assertions";
#endif
  return out;
}

namespace {

/// First output line of `cmd`, stripped of its newline; empty on any
/// failure (no git, not a repo, popen error).
std::string command_line_output(const char* cmd) {
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return {};
  char buf[256] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  // Drain the rest: closing a pipe with unread output can SIGPIPE the
  // child and turn a successful command into a nonzero pclose status.
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
  }
  const int rc = ::pclose(pipe);
  if (rc != 0) return {};
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string git_fingerprint() {
  std::string sha =
      command_line_output("git rev-parse --short HEAD 2>/dev/null");
  if (sha.empty()) return {};
  // `git status --porcelain` prints one line per modification; any output
  // means the measured tree differs from the recorded sha.
  const std::string status =
      command_line_output("git status --porcelain 2>/dev/null");
  if (!status.empty()) sha += "-dirty";
  return sha;
}

std::string to_json(const Baseline& b) {
  using harness::json_escape;
  std::ostringstream os;
  os << "{\n";
  os << "  \"suite\": \"" << json_escape(b.suite) << "\",\n";
  os << "  \"created\": \"" << json_escape(b.created) << "\",\n";
  os << "  \"host\": \"" << json_escape(b.host) << "\",\n";
  os << "  \"build\": \"" << json_escape(b.build) << "\",\n";
  if (!b.commit.empty()) {
    os << "  \"commit\": \"" << json_escape(b.commit) << "\",\n";
  }
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    const Measurement& m = b.entries[i];
    os << "    {\"name\": \"" << json_escape(m.name) << "\", "
       << "\"wall_s\": " << fmt(m.wall_s) << ", "
       << "\"items_per_s\": " << fmt(m.items_per_s) << ", "
       << "\"events_per_s\": " << fmt(m.events_per_s) << ", "
       << "\"datagrams_per_s\": " << fmt(m.datagrams_per_s) << ", "
       << "\"peak_rss_kb\": " << m.peak_rss_kb << ", "
       << "\"iterations\": " << m.iterations << "}"
       << (i + 1 < b.entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Parsing — the shared flatjson dialect. Unknown keys are ignored (forward
// compatibility); a known key with a malformed value is an error naming it.

namespace {

bool parse_measurement(const flatjson::Value& o, Measurement& m,
                       std::string& error) {
  if (o.kind != flatjson::Value::Kind::kObject) {
    error = "is not an object";
    return false;
  }
  constexpr bool opt = false;
  return flatjson::get_str(o, "name", m.name, error, opt) &&
         flatjson::get_dbl(o, "wall_s", m.wall_s, error, opt) &&
         flatjson::get_dbl(o, "items_per_s", m.items_per_s, error, opt) &&
         flatjson::get_dbl(o, "events_per_s", m.events_per_s, error, opt) &&
         flatjson::get_dbl(o, "datagrams_per_s", m.datagrams_per_s, error,
                           opt) &&
         flatjson::get_i64(o, "peak_rss_kb", m.peak_rss_kb, error, opt) &&
         flatjson::get_i64(o, "iterations", m.iterations, error, opt);
}

}  // namespace

std::optional<Baseline> from_json(const std::string& text,
                                  std::string& error) {
  flatjson::Value doc;
  if (!flatjson::parse(text, doc, error)) return std::nullopt;
  Baseline b;
  constexpr bool opt = false;
  if (!flatjson::get_str(doc, "suite", b.suite, error, opt) ||
      !flatjson::get_str(doc, "created", b.created, error, opt) ||
      !flatjson::get_str(doc, "host", b.host, error, opt) ||
      !flatjson::get_str(doc, "build", b.build, error, opt) ||
      !flatjson::get_str(doc, "commit", b.commit, error, opt)) {
    return std::nullopt;
  }
  if (const flatjson::Value* entries = doc.find("entries")) {
    if (entries->kind != flatjson::Value::Kind::kArray) {
      error = "field 'entries' is not an array";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < entries->array.size(); ++i) {
      Measurement m;
      if (!parse_measurement(entries->array[i], m, error)) {
        error = "entries[" + std::to_string(i) + "]: " + error;
        return std::nullopt;
      }
      b.entries.push_back(std::move(m));
    }
  }
  return b;
}

bool save_baseline_file(const Baseline& b, const std::string& path,
                        std::string& error) {
  std::ofstream out(path);
  if (!out) {
    error = "cannot open " + path + " for writing";
    return false;
  }
  out << to_json(b);
  if (!out) {
    error = "write to " + path + " failed";
    return false;
  }
  return true;
}

std::optional<Baseline> load_baseline_file(const std::string& path,
                                           std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = from_json(buf.str(), error);
  if (!parsed) error = path + ": " + error;
  return parsed;
}

}  // namespace lifeguard::perf
