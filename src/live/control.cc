#include "live/control.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include "check/trace.h"
#include "common/narrow.h"

namespace lifeguard::live {

namespace {

// %.17g round-trips every double exactly; probabilities must survive the
// parent -> worker hop unchanged or seeded runs stop being reproducible.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_us(Duration d) { return std::to_string(d.us); }

bool parse_i64(std::string_view s, std::int64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const std::string tmp(s);
  const long long v = std::strtoll(tmp.c_str(), &end, 10);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  std::int64_t v = 0;
  if (!parse_i64(s, v) || v < 0) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(std::string_view s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const std::string tmp(s);
  out = std::strtod(tmp.c_str(), &end);
  return end == tmp.c_str() + tmp.size();
}

bool parse_duration_us(std::string_view s, Duration& out) {
  std::int64_t us = 0;
  if (!parse_i64(s, us)) return false;
  out = Duration{us};
  return true;
}

/// Splits "a,b,c" / "a b c" on `sep`, invoking `fn(piece)`; stops and
/// returns false the first time `fn` does.
template <typename Fn>
bool for_each_piece(std::string_view s, char sep, Fn fn) {
  while (!s.empty()) {
    const std::size_t cut = s.find(sep);
    const std::string_view piece =
        cut == std::string_view::npos ? s : s.substr(0, cut);
    if (!fn(piece)) return false;
    if (cut == std::string_view::npos) break;
    s.remove_prefix(cut + 1);
  }
  return true;
}

bool split_kv(std::string_view piece, std::string_view& key,
              std::string_view& val) {
  const std::size_t eq = piece.find('=');
  if (eq == std::string_view::npos) return false;
  key = piece.substr(0, eq);
  val = piece.substr(eq + 1);
  return true;
}

std::string_view take_word(std::string_view& s) {
  const std::size_t cut = s.find(' ');
  std::string_view word;
  if (cut == std::string_view::npos) {
    word = s;
    s = {};
  } else {
    word = s.substr(0, cut);
    s.remove_prefix(cut + 1);
  }
  return word;
}

}  // namespace

// ---------------------------------------------------------------------------
// Address codec

std::string format_address(const Address& a) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (a.ip >> 24) & 0xff,
                (a.ip >> 16) & 0xff, (a.ip >> 8) & 0xff, a.ip & 0xff, a.port);
  return buf;
}

std::optional<Address> parse_address(std::string_view s) {
  unsigned b0 = 0, b1 = 0, b2 = 0, b3 = 0, port = 0;
  char tail = 0;
  const std::string tmp(s);
  const int matched = std::sscanf(tmp.c_str(), "%u.%u.%u.%u:%u%c", &b0, &b1,
                                  &b2, &b3, &port, &tail);
  if (matched != 5 || b0 > 255 || b1 > 255 || b2 > 255 || b3 > 255 ||
      port > 65535) {
    return std::nullopt;
  }
  return Address{(b0 << 24) | (b1 << 16) | (b2 << 8) | b3,
                 static_cast<std::uint16_t>(port)};
}

// ---------------------------------------------------------------------------
// Worker -> parent messages

std::string hello_line(int index, int pid, std::uint16_t udp_port) {
  return "HELLO " + std::to_string(index) + " " + std::to_string(pid) + " " +
         std::to_string(udp_port);
}

std::string event_msg_line(const check::TraceEvent& e) {
  return "EV " + check::event_line(e);
}

std::string tick_line(TimePoint t) { return "TICK " + std::to_string(t.us); }

std::string stats_line(const WorkerStats& s) {
  return "STATS msgs=" + std::to_string(s.msgs_sent) +
         " bytes=" + std::to_string(s.bytes_sent) +
         " active=" + std::to_string(s.active);
}

std::string bye_line() { return "BYE"; }

std::optional<WorkerMsg> parse_worker_msg(std::string_view line,
                                          std::string& error) {
  std::string_view rest = line;
  const std::string_view verb = take_word(rest);
  WorkerMsg m;
  if (verb == "HELLO") {
    m.kind = WorkerMsg::Kind::kHello;
    std::int64_t index = 0, pid = 0, port = 0;
    std::string_view w1 = take_word(rest), w2 = take_word(rest),
                     w3 = take_word(rest);
    if (!parse_i64(w1, index) || !parse_i64(w2, pid) || !parse_i64(w3, port) ||
        !rest.empty()) {
      error = "malformed HELLO: '" + std::string(line) + "'";
      return std::nullopt;
    }
    if (!narrow(index, "index", m.index, error) ||
        !narrow(pid, "pid", m.pid, error) ||
        !narrow(port, "port", m.udp_port, error)) {
      error = "HELLO: " + error;
      return std::nullopt;
    }
    return m;
  }
  if (verb == "EV") {
    m.kind = WorkerMsg::Kind::kEvent;
    const auto e = check::event_from_line(rest, error);
    if (!e) return std::nullopt;
    m.event = *e;
    return m;
  }
  if (verb == "TICK") {
    m.kind = WorkerMsg::Kind::kTick;
    std::int64_t us = 0;
    if (!parse_i64(rest, us)) {
      error = "malformed TICK: '" + std::string(line) + "'";
      return std::nullopt;
    }
    m.tick = TimePoint{us};
    return m;
  }
  if (verb == "STATS") {
    m.kind = WorkerMsg::Kind::kStats;
    std::int64_t active = 0;
    std::string range_error;
    const bool ok = for_each_piece(rest, ' ', [&](std::string_view piece) {
      std::string_view key, val;
      if (!split_kv(piece, key, val)) return false;
      if (key == "msgs") return parse_u64(val, m.stats.msgs_sent);
      if (key == "bytes") return parse_u64(val, m.stats.bytes_sent);
      if (key == "active") {
        return parse_i64(val, active) &&
               narrow(active, "active", m.stats.active, range_error);
      }
      return false;
    });
    if (!ok) {
      error = range_error.empty()
                  ? "malformed STATS: '" + std::string(line) + "'"
                  : "STATS: " + range_error;
      return std::nullopt;
    }
    return m;
  }
  if (verb == "BYE" && rest.empty()) {
    m.kind = WorkerMsg::Kind::kBye;
    return m;
  }
  error = "unknown worker message: '" + std::string(line) + "'";
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Parent -> worker commands

std::string start_line(const std::optional<Address>& join) {
  return "START " + (join ? format_address(*join) : std::string("-"));
}

std::string fault_add_line(int token, const fault::LinkFault& o) {
  return "FAULT add " + std::to_string(token) + " el=" +
         fmt_double(o.egress_loss) + " il=" + fmt_double(o.ingress_loss) +
         " lat=" + fmt_us(o.extra_latency) + " jit=" + fmt_us(o.jitter) +
         " dup=" + fmt_double(o.duplicate_p) + " rp=" + fmt_double(o.reorder_p) +
         " rs=" + fmt_us(o.reorder_spread);
}

std::string fault_part_line(int token, const std::vector<Address>& peers) {
  std::string out = "FAULT part " + std::to_string(token) + " ";
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (i > 0) out += ',';
    out += format_address(peers[i]);
  }
  return out;
}

std::string fault_del_line(int token) {
  return "FAULT del " + std::to_string(token);
}

std::string stats_request_line() { return "STATS"; }

std::string stop_line() { return "STOP"; }

std::optional<Command> parse_command(std::string_view line,
                                     std::string& error) {
  std::string_view rest = line;
  const std::string_view verb = take_word(rest);
  Command cmd;
  if (verb == "START") {
    cmd.kind = Command::Kind::kStart;
    if (rest == "-") return cmd;
    cmd.join = parse_address(rest);
    if (!cmd.join) {
      error = "malformed START: '" + std::string(line) + "'";
      return std::nullopt;
    }
    return cmd;
  }
  if (verb == "STATS" && rest.empty()) {
    cmd.kind = Command::Kind::kStats;
    return cmd;
  }
  if (verb == "STOP" && rest.empty()) {
    cmd.kind = Command::Kind::kStop;
    return cmd;
  }
  if (verb != "FAULT") {
    error = "unknown command: '" + std::string(line) + "'";
    return std::nullopt;
  }
  const std::string_view op = take_word(rest);
  std::int64_t token = 0;
  if (!parse_i64(take_word(rest), token)) {
    error = "malformed FAULT token: '" + std::string(line) + "'";
    return std::nullopt;
  }
  if (!narrow(token, "token", cmd.token, error)) {
    error = "FAULT: " + error;
    return std::nullopt;
  }
  if (op == "del") {
    cmd.kind = Command::Kind::kFaultDel;
    if (!rest.empty()) {
      error = "malformed FAULT del: '" + std::string(line) + "'";
      return std::nullopt;
    }
    return cmd;
  }
  if (op == "add") {
    cmd.kind = Command::Kind::kFaultAdd;
    auto& o = cmd.overlay;
    const bool ok = for_each_piece(rest, ' ', [&](std::string_view piece) {
      std::string_view key, val;
      if (!split_kv(piece, key, val)) return false;
      if (key == "el") return parse_double(val, o.egress_loss);
      if (key == "il") return parse_double(val, o.ingress_loss);
      if (key == "lat") return parse_duration_us(val, o.extra_latency);
      if (key == "jit") return parse_duration_us(val, o.jitter);
      if (key == "dup") return parse_double(val, o.duplicate_p);
      if (key == "rp") return parse_double(val, o.reorder_p);
      if (key == "rs") return parse_duration_us(val, o.reorder_spread);
      return false;
    });
    if (!ok) {
      error = "malformed FAULT add: '" + std::string(line) + "'";
      return std::nullopt;
    }
    return cmd;
  }
  if (op == "part") {
    cmd.kind = Command::Kind::kFaultPart;
    const bool ok = for_each_piece(rest, ',', [&](std::string_view piece) {
      const auto a = parse_address(piece);
      if (!a) return false;
      cmd.peers.push_back(*a);
      return true;
    });
    if (!ok || cmd.peers.empty()) {
      error = "malformed FAULT part: '" + std::string(line) + "'";
      return std::nullopt;
    }
    return cmd;
  }
  error = "unknown FAULT op: '" + std::string(line) + "'";
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Stream plumbing

std::optional<std::string> LineBuffer::next_line() {
  const std::size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  std::string line = buf_.substr(0, nl);
  buf_.erase(0, nl + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

bool LineWriter::write_line(std::string_view line) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string framed(line);
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::write(fd_, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace lifeguard::live
