#include "live/control.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include "check/trace.h"

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

bool parse_bool(std::string_view s, bool& out) {
  if (s == "0") {
    out = false;
    return true;
  }
  if (s == "1") {
    out = true;
    return true;
  }
  return false;
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
// Address + config codecs

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

std::string encode_config(const swim::Config& c) {
  std::string out;
  const auto kv = [&out](const char* key, const std::string& val) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += val;
  };
  kv("pi", fmt_us(c.probe_interval));
  kv("pt", fmt_us(c.probe_timeout));
  kv("ic", std::to_string(c.indirect_checks));
  kv("rfp", c.reliable_fallback_probe ? "1" : "0");
  kv("rm", std::to_string(c.retransmit_mult));
  kv("gi", fmt_us(c.gossip_interval));
  kv("gf", std::to_string(c.gossip_fanout));
  kv("gtd", fmt_us(c.gossip_to_dead));
  kv("mpb", std::to_string(c.max_packet_bytes));
  kv("ppi", fmt_us(c.push_pull_interval));
  kv("ri", fmt_us(c.reconnect_interval));
  kv("jri", fmt_us(c.join_retry_interval));
  kv("sa", fmt_double(c.suspicion_alpha));
  kv("sb", fmt_double(c.suspicion_beta));
  kv("sk", std::to_string(c.suspicion_k));
  kv("lp", c.lha_probe ? "1" : "0");
  kv("ls", c.lha_suspicion ? "1" : "0");
  kv("bs", c.buddy_system ? "1" : "0");
  kv("lhm", std::to_string(c.lhm_max));
  kv("nf", fmt_double(c.nack_fraction));
  kv("ne", c.nack_enabled ? "1" : "0");
  kv("dra", fmt_us(c.dead_reclaim_after));
  return out;
}

std::optional<swim::Config> decode_config(std::string_view s,
                                          std::string& error) {
  swim::Config c;
  const bool ok = for_each_piece(s, ',', [&](std::string_view piece) {
    std::string_view key, val;
    if (!split_kv(piece, key, val)) {
      error = "config: expected key=val, got '" + std::string(piece) + "'";
      return false;
    }
    std::int64_t i = 0;
    bool parsed = false;
    if (key == "pi") parsed = parse_duration_us(val, c.probe_interval);
    else if (key == "pt") parsed = parse_duration_us(val, c.probe_timeout);
    else if (key == "ic") parsed = parse_i64(val, i),
             c.indirect_checks = static_cast<int>(i);
    else if (key == "rfp") parsed = parse_bool(val, c.reliable_fallback_probe);
    else if (key == "rm") parsed = parse_i64(val, i),
             c.retransmit_mult = static_cast<int>(i);
    else if (key == "gi") parsed = parse_duration_us(val, c.gossip_interval);
    else if (key == "gf") parsed = parse_i64(val, i),
             c.gossip_fanout = static_cast<int>(i);
    else if (key == "gtd") parsed = parse_duration_us(val, c.gossip_to_dead);
    else if (key == "mpb") parsed = parse_i64(val, i),
             c.max_packet_bytes = static_cast<std::size_t>(i);
    else if (key == "ppi") parsed = parse_duration_us(val, c.push_pull_interval);
    else if (key == "ri") parsed = parse_duration_us(val, c.reconnect_interval);
    else if (key == "jri") parsed = parse_duration_us(val, c.join_retry_interval);
    else if (key == "sa") parsed = parse_double(val, c.suspicion_alpha);
    else if (key == "sb") parsed = parse_double(val, c.suspicion_beta);
    else if (key == "sk") parsed = parse_i64(val, i),
             c.suspicion_k = static_cast<int>(i);
    else if (key == "lp") parsed = parse_bool(val, c.lha_probe);
    else if (key == "ls") parsed = parse_bool(val, c.lha_suspicion);
    else if (key == "bs") parsed = parse_bool(val, c.buddy_system);
    else if (key == "lhm") parsed = parse_i64(val, i),
             c.lhm_max = static_cast<int>(i);
    else if (key == "nf") parsed = parse_double(val, c.nack_fraction);
    else if (key == "ne") parsed = parse_bool(val, c.nack_enabled);
    else if (key == "dra") parsed = parse_duration_us(val, c.dead_reclaim_after);
    else {
      error = "config: unknown key '" + std::string(key) + "'";
      return false;
    }
    if (!parsed) {
      error = "config: bad value for '" + std::string(key) + "': '" +
              std::string(val) + "'";
      return false;
    }
    return true;
  });
  if (!ok) return std::nullopt;
  if (const auto errors = c.validate(); !errors.empty()) {
    error = "config: " + errors.front();
    return std::nullopt;
  }
  return c;
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
        port < 0 || port > 65535 || !rest.empty()) {
      error = "malformed HELLO: '" + std::string(line) + "'";
      return std::nullopt;
    }
    m.index = static_cast<int>(index);
    m.pid = static_cast<int>(pid);
    m.udp_port = static_cast<std::uint16_t>(port);
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
    const bool ok = for_each_piece(rest, ' ', [&](std::string_view piece) {
      std::string_view key, val;
      if (!split_kv(piece, key, val)) return false;
      if (key == "msgs") return parse_u64(val, m.stats.msgs_sent);
      if (key == "bytes") return parse_u64(val, m.stats.bytes_sent);
      if (key == "active") {
        if (!parse_i64(val, active)) return false;
        m.stats.active = static_cast<int>(active);
        return true;
      }
      return false;
    });
    if (!ok) {
      error = "malformed STATS: '" + std::string(line) + "'";
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
  cmd.token = static_cast<int>(token);
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
