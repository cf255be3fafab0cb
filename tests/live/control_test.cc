// Codec round-trips for the live tier's control-channel protocol
// (src/live/control.h): every line the parent and workers exchange must
// survive build -> parse unchanged, and the address codec must be an exact
// inverse. The worker's --config argument is the scenario codec's config
// object; tests/scenariofile/worker_config_test.cc covers it.
#include "live/control.h"

#include <gtest/gtest.h>

#include "check/events.h"
#include "fault/fault.h"

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
