// Codec round-trips for the live tier's control-channel protocol
// (src/live/control.h): every line the parent and workers exchange must
// survive build -> parse unchanged, and the config/address codecs must be
// exact inverses — a worker configured through argv has to run the same
// protocol parameters the simulator would.
#include "live/control.h"

#include <gtest/gtest.h>

#include "check/events.h"
#include "fault/fault.h"
#include "swim/config.h"

namespace lifeguard::live {
namespace {

TEST(LiveControl, AddressRoundTrip) {
  const Address a{(127u << 24) | 1u, 9431};
  const auto parsed = parse_address(format_address(a));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip, a.ip);
  EXPECT_EQ(parsed->port, a.port);
}

TEST(LiveControl, AddressRejectsGarbage) {
  EXPECT_FALSE(parse_address("").has_value());
  EXPECT_FALSE(parse_address("127.0.0.1").has_value());
  EXPECT_FALSE(parse_address("127.0.0.1:").has_value());
  EXPECT_FALSE(parse_address("127.0.0.1:99999").has_value());
  EXPECT_FALSE(parse_address("1.2.3:44").has_value());
  EXPECT_FALSE(parse_address("a.b.c.d:44").has_value());
}

TEST(LiveControl, ConfigRoundTripDefault) {
  std::string error;
  const auto decoded = decode_config(encode_config(swim::Config{}), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, swim::Config{});
}

TEST(LiveControl, ConfigRoundTripEveryFieldNonDefault) {
  swim::Config c;
  c.probe_interval = msec(123);
  c.probe_timeout = msec(45);
  c.indirect_checks = 7;
  c.reliable_fallback_probe = false;
  c.retransmit_mult = 9;
  c.gossip_interval = msec(77);
  c.gossip_fanout = 5;
  c.gossip_to_dead = sec(11);
  c.max_packet_bytes = 512;
  c.push_pull_interval = sec(41);
  c.reconnect_interval = sec(13);
  c.suspicion_alpha = 3.25;
  c.suspicion_beta = 1.75;
  c.suspicion_k = 2;
  c.lha_probe = false;
  c.lha_suspicion = false;
  c.buddy_system = false;
  c.lhm_max = 4;
  c.nack_fraction = 0.6180339887498949;  // full double precision must survive
  c.nack_enabled = false;
  c.dead_reclaim_after = sec(33);

  std::string error;
  const auto decoded = decode_config(encode_config(c), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, c);
}

TEST(LiveControl, ConfigRejectsUnknownKey) {
  std::string error;
  EXPECT_FALSE(decode_config("pi=1000,zz=3", error).has_value());
  EXPECT_NE(error.find("zz"), std::string::npos) << error;
}

TEST(LiveControl, ConfigRejectsOutOfRangeValuesNamingTheField) {
  // Each parses, but would spin the worker at one instant (intervals) or
  // wrap the gossip budget (a packet smaller than the compound header).
  const std::pair<const char*, const char*> cases[] = {
      {"gi=0", "gossip_interval"},
      {"pi=-1000", "probe_interval"},
      {"mpb=2", "max_packet_bytes"},
      {"sb=0.5", "suspicion_beta"},
      // Integers the field's type cannot hold, which a bare cast would
      // wrap (mpb=-1 to SIZE_MAX, rm=4294967297 to 1), and a multiplier
      // past Config::validate's bound.
      {"ic=4294967296", "'ic'"},
      {"rm=4294967297", "'rm'"},
      {"gf=-4294967295", "'gf'"},
      {"mpb=-1", "'mpb'"},
      {"sk=2147483648", "'sk'"},
      {"lhm=-2147483649", "'lhm'"},
      {"rm=65", "retransmit_mult"},
  };
  for (const auto& [line, field] : cases) {
    std::string error;
    EXPECT_FALSE(decode_config(line, error).has_value()) << line;
    EXPECT_NE(error.find(field), std::string::npos) << line << ": " << error;
  }
  // Zero is "disabled" for the periodic exchanges, not an error.
  std::string error;
  EXPECT_TRUE(decode_config("ppi=0,ri=0,jri=0", error).has_value()) << error;
}

TEST(LiveControl, HelloRoundTrip) {
  std::string error;
  const auto msg = parse_worker_msg(hello_line(4, 12345, 40001), error);
  ASSERT_TRUE(msg.has_value()) << error;
  EXPECT_EQ(msg->kind, WorkerMsg::Kind::kHello);
  EXPECT_EQ(msg->index, 4);
  EXPECT_EQ(msg->pid, 12345);
  EXPECT_EQ(msg->udp_port, 40001);
}

TEST(LiveControl, WorkerLinesRejectIntegersBeyondTheirField) {
  // Each fits an int64 but not its field, where a bare cast would wrap.
  for (const char* line :
       {"HELLO 4294967296 12345 40001", "HELLO 4 -4294967297 40001",
        "HELLO 4 12345 65536", "STATS msgs=1 bytes=2 active=4294967297"}) {
    std::string error;
    EXPECT_FALSE(parse_worker_msg(line, error).has_value()) << line;
    EXPECT_NE(error.find("out of range"), std::string::npos)
        << line << ": " << error;
  }
  std::string error;
  EXPECT_FALSE(parse_command("FAULT del 4294967296", error).has_value());
  EXPECT_NE(error.find("field 'token'"), std::string::npos) << error;
}

TEST(LiveControl, EventRoundTrip) {
  check::TraceEvent e;
  e.at = TimePoint{msec(12304).us};
  e.kind = check::TraceEventKind::kSuspect;
  e.node = 3;
  e.peer = 7;
  e.origin = 3;
  e.incarnation = 2;
  e.originated = true;

  std::string error;
  const auto msg = parse_worker_msg(event_msg_line(e), error);
  ASSERT_TRUE(msg.has_value()) << error;
  EXPECT_EQ(msg->kind, WorkerMsg::Kind::kEvent);
  EXPECT_EQ(msg->event, e);
}

TEST(LiveControl, TickAndStatsAndByeRoundTrip) {
  std::string error;
  const TimePoint t{msec(2500).us};
  auto tick = parse_worker_msg(tick_line(t), error);
  ASSERT_TRUE(tick.has_value()) << error;
  EXPECT_EQ(tick->kind, WorkerMsg::Kind::kTick);
  EXPECT_EQ(tick->tick, t);

  WorkerStats s;
  s.msgs_sent = 101;
  s.bytes_sent = 20202;
  s.active = 8;
  auto stats = parse_worker_msg(stats_line(s), error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->kind, WorkerMsg::Kind::kStats);
  EXPECT_EQ(stats->stats.msgs_sent, s.msgs_sent);
  EXPECT_EQ(stats->stats.bytes_sent, s.bytes_sent);
  EXPECT_EQ(stats->stats.active, s.active);

  auto bye = parse_worker_msg(bye_line(), error);
  ASSERT_TRUE(bye.has_value()) << error;
  EXPECT_EQ(bye->kind, WorkerMsg::Kind::kBye);
}

TEST(LiveControl, StartCommandRoundTrip) {
  std::string error;
  const Address seed{(127u << 24) | 1u, 7001};
  auto join = parse_command(start_line(seed), error);
  ASSERT_TRUE(join.has_value()) << error;
  EXPECT_EQ(join->kind, Command::Kind::kStart);
  ASSERT_TRUE(join->join.has_value());
  EXPECT_EQ(join->join->port, seed.port);

  auto be_seed = parse_command(start_line(std::nullopt), error);
  ASSERT_TRUE(be_seed.has_value()) << error;
  EXPECT_EQ(be_seed->kind, Command::Kind::kStart);
  EXPECT_FALSE(be_seed->join.has_value());
}

TEST(LiveControl, FaultAddCommandRoundTrip) {
  fault::LinkFault o;
  o.egress_loss = 0.25;
  o.ingress_loss = 0.1;
  o.extra_latency = msec(30);
  o.jitter = msec(20);
  o.duplicate_p = 0.05;
  o.reorder_p = 0.3;
  o.reorder_spread = msec(200);

  std::string error;
  const auto cmd = parse_command(fault_add_line(6, o), error);
  ASSERT_TRUE(cmd.has_value()) << error;
  EXPECT_EQ(cmd->kind, Command::Kind::kFaultAdd);
  EXPECT_EQ(cmd->token, 6);
  EXPECT_DOUBLE_EQ(cmd->overlay.egress_loss, o.egress_loss);
  EXPECT_DOUBLE_EQ(cmd->overlay.ingress_loss, o.ingress_loss);
  EXPECT_EQ(cmd->overlay.extra_latency, o.extra_latency);
  EXPECT_EQ(cmd->overlay.jitter, o.jitter);
  EXPECT_DOUBLE_EQ(cmd->overlay.duplicate_p, o.duplicate_p);
  EXPECT_DOUBLE_EQ(cmd->overlay.reorder_p, o.reorder_p);
  EXPECT_EQ(cmd->overlay.reorder_spread, o.reorder_spread);
}

TEST(LiveControl, FaultPartAndDelCommandRoundTrip) {
  const std::vector<Address> peers = {{(127u << 24) | 1u, 7002},
                                      {(127u << 24) | 1u, 7003}};
  std::string error;
  const auto part = parse_command(fault_part_line(9, peers), error);
  ASSERT_TRUE(part.has_value()) << error;
  EXPECT_EQ(part->kind, Command::Kind::kFaultPart);
  EXPECT_EQ(part->token, 9);
  ASSERT_EQ(part->peers.size(), 2u);
  EXPECT_EQ(part->peers[0].port, 7002);
  EXPECT_EQ(part->peers[1].port, 7003);

  const auto del = parse_command(fault_del_line(9), error);
  ASSERT_TRUE(del.has_value()) << error;
  EXPECT_EQ(del->kind, Command::Kind::kFaultDel);
  EXPECT_EQ(del->token, 9);

  EXPECT_EQ(parse_command(stats_request_line(), error)->kind,
            Command::Kind::kStats);
  EXPECT_EQ(parse_command(stop_line(), error)->kind, Command::Kind::kStop);
}

TEST(LiveControl, LineBufferFramesPartialReads) {
  LineBuffer lb;
  EXPECT_FALSE(lb.next_line().has_value());
  lb.append("HEL", 3);
  EXPECT_FALSE(lb.next_line().has_value());  // no terminator yet
  lb.append("LO 1 2 3\nTI", 11);
  auto first = lb.next_line();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "HELLO 1 2 3");
  EXPECT_FALSE(lb.next_line().has_value());  // "TI" is incomplete
  lb.append("CK 5\r\n", 6);
  auto second = lb.next_line();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "TICK 5");  // \r stripped
  EXPECT_TRUE(lb.empty());
}

}  // namespace
}  // namespace lifeguard::live
