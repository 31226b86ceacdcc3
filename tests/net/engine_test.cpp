#include "dut/net/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"

namespace dut::net {
namespace {

/// Floods a counter for `rounds` rounds, then halts.
class PingProgram : public NodeProgram {
 public:
  explicit PingProgram(std::uint64_t rounds) : rounds_(rounds) {}

  void on_round(NodeContext& ctx) override {
    received_ += ctx.inbox().size();
    for (const MessageView m : ctx.inbox()) last_value_ = m.field(0);
    if (ctx.round() < rounds_) {
      Message msg;
      msg.push_field(ctx.round() + 1, 32);
      ctx.broadcast(msg);
    } else {
      ctx.halt();
    }
  }

  std::uint64_t received() const { return received_; }
  std::uint64_t last_value() const { return last_value_; }

 private:
  std::uint64_t rounds_;
  std::uint64_t received_ = 0;
  std::uint64_t last_value_ = 0;
};

TEST(Engine, DeliversNextRoundAndCountsMetrics) {
  const Graph g = Graph::line(3);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  std::vector<PingProgram> progs{PingProgram(2), PingProgram(2),
                                 PingProgram(2)};
  std::vector<NodeProgram*> raw{&progs[0], &progs[1], &progs[2]};
  engine.run(raw);
  // Rounds 0 and 1 send; round 2 everyone halts => 3 rounds total.
  EXPECT_EQ(engine.metrics().rounds, 3u);
  // Each of rounds 0,1: middle node sends 2, ends send 1 each => 4 msgs.
  EXPECT_EQ(engine.metrics().messages, 8u);
  EXPECT_EQ(engine.metrics().max_message_bits, 32u);
  EXPECT_EQ(engine.metrics().total_bits, 8u * 32u);
  // End nodes got 2 messages (one per sending round), middle got 4.
  EXPECT_EQ(progs[0].received(), 2u);
  EXPECT_EQ(progs[1].received(), 4u);
  EXPECT_EQ(progs[2].received(), 2u);
}

class SendOnceTo : public NodeProgram {
 public:
  SendOnceTo(std::uint32_t target, std::uint64_t bits, int copies = 1)
      : target_(target), bits_(bits), copies_(copies) {}
  void on_round(NodeContext& ctx) override {
    if (ctx.round() == 0 && ctx.id() == 0) {
      for (int c = 0; c < copies_; ++c) {
        Message msg;
        msg.push_field(1, static_cast<unsigned>(bits_));
        ctx.send(target_, msg);
      }
    }
    if (ctx.round() >= 1) ctx.halt();
  }

 private:
  std::uint32_t target_;
  std::uint64_t bits_;
  int copies_;
};

class Idle : public NodeProgram {
 public:
  explicit Idle(std::uint64_t halt_round = 1) : halt_round_(halt_round) {}
  void on_round(NodeContext& ctx) override {
    if (ctx.round() >= halt_round_) ctx.halt();
  }

 private:
  std::uint64_t halt_round_;
};

TEST(Engine, CongestEnforcesBandwidth) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 16, 100, 1});
  SendOnceTo sender(1, 17);
  Idle idle;
  std::vector<NodeProgram*> raw{&sender, &idle};
  EXPECT_THROW(engine.run(raw), BandwidthExceeded);
}

TEST(Engine, LocalModelIgnoresBandwidth) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kLocal, 16, 100, 1});
  SendOnceTo sender(1, 64);
  Idle idle;
  std::vector<NodeProgram*> raw{&sender, &idle};
  EXPECT_NO_THROW(engine.run(raw));
}

TEST(Engine, RejectsDoubleSendOnEdge) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  SendOnceTo sender(1, 8, /*copies=*/2);
  Idle idle;
  std::vector<NodeProgram*> raw{&sender, &idle};
  EXPECT_THROW(engine.run(raw), ProtocolViolation);
}

TEST(Engine, RejectsSendToNonNeighbor) {
  const Graph g = Graph::line(3);  // 0-1-2; 0 and 2 not adjacent
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  SendOnceTo sender(2, 8);
  Idle a;
  Idle b;
  std::vector<NodeProgram*> raw{&sender, &a, &b};
  EXPECT_THROW(engine.run(raw), ProtocolViolation);
}

class HaltImmediately : public NodeProgram {
 public:
  void on_round(NodeContext& ctx) override { ctx.halt(); }
};

TEST(Engine, RejectsSendToHaltedNode) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  HaltImmediately quitter;   // node 0 halts in round 0
  SendOnceTo sender(0, 8);   // node 1... sender only acts as id 0
  // Build: node 0 halts round 0; node 1 sends to node 0 in round 1.
  class LateSender : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      if (ctx.round() == 1) {
        Message msg;
        msg.push_field(1, 8);
        ctx.send(0, msg);
        ctx.halt();
      }
    }
  } late;
  std::vector<NodeProgram*> raw{&quitter, &late};
  EXPECT_THROW(engine.run(raw), ProtocolViolation);
}

class NeverHalts : public NodeProgram {
 public:
  void on_round(NodeContext&) override {}
};

TEST(Engine, RoundLimitAborts) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 50, 1});
  NeverHalts a;
  NeverHalts b;
  std::vector<NodeProgram*> raw{&a, &b};
  EXPECT_THROW(engine.run(raw), RoundLimitExceeded);
}

TEST(Engine, RequiresOneProgramPerNode) {
  const Graph g = Graph::line(3);
  Engine engine(g, EngineConfig{});
  Idle a;
  std::vector<NodeProgram*> raw{&a};
  EXPECT_THROW(engine.run(raw), std::invalid_argument);
  std::vector<NodeProgram*> with_null{&a, nullptr, &a};
  EXPECT_THROW(engine.run(with_null), std::invalid_argument);
}

class RngRecorder : public NodeProgram {
 public:
  void on_round(NodeContext& ctx) override {
    value_ = ctx.rng()();
    ctx.halt();
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

TEST(Engine, PerNodeRngIsDeterministicAndDistinct) {
  const Graph g = Graph::line(3);
  auto run_once = [&](std::uint64_t seed) {
    Engine engine(g, EngineConfig{Model::kCongest, 64, 10, seed});
    std::vector<RngRecorder> progs(3);
    std::vector<NodeProgram*> raw{&progs[0], &progs[1], &progs[2]};
    engine.run(raw);
    return std::vector<std::uint64_t>{progs[0].value(), progs[1].value(),
                                      progs[2].value()};
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  const auto c = run_once(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[1], a[2]);
}

TEST(Engine, SenderFieldIsStamped) {
  const Graph g = Graph::line(2);
  class Recorder : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      for (const MessageView m : ctx.inbox()) sender_ = m.sender;
      if (ctx.round() >= 1) ctx.halt();
    }
    std::uint32_t sender_ = 99;
  } recorder;
  SendOnceTo sender(1, 8);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 10, 1});
  std::vector<NodeProgram*> raw{&sender, &recorder};
  engine.run(raw);
  EXPECT_EQ(recorder.sender_, 0u);
}

// --- Wake contract (NodeContext::sleep_until) -----------------------------

/// Round 0: asks to sleep until `wake` (also asking for a later round first,
/// which the earlier request overrides). Any later call halts. Records the
/// rounds it ran in and how much mail it read.
class Sleeper : public NodeProgram {
 public:
  explicit Sleeper(std::uint64_t wake) : wake_(wake) {}

  void on_round(NodeContext& ctx) override {
    calls_.push_back(ctx.round());
    heard_ += ctx.inbox().size();
    if (ctx.round() > 0) {
      ctx.halt();
      return;
    }
    if (wake_ != NodeContext::kForever) ctx.sleep_until(wake_ + 2);
    ctx.sleep_until(wake_);
  }

  std::vector<std::uint64_t> calls_;
  std::uint64_t heard_ = 0;

 private:
  std::uint64_t wake_;
};

/// Awake every round; sends one message to `target` in round `at`, then
/// halts.
class SendAt : public NodeProgram {
 public:
  SendAt(std::uint32_t target, std::uint64_t at) : target_(target), at_(at) {}

  void on_round(NodeContext& ctx) override {
    if (ctx.round() < at_) return;
    Message msg;
    msg.push_field(5, 8);
    ctx.send(target_, msg);
    ctx.halt();
  }

 private:
  std::uint32_t target_;
  std::uint64_t at_;
};

TEST(EngineWake, SleeperIsNotCalledUntilADeliveryWakesIt) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  Sleeper sleeper(NodeContext::kForever);
  SendAt sender(0, 5);
  std::vector<NodeProgram*> raw{&sleeper, &sender};
  engine.run(raw);
  // Round 0, then nothing until the round-5 send lands in round 6.
  EXPECT_EQ(sleeper.calls_, (std::vector<std::uint64_t>{0, 6}));
  EXPECT_EQ(sleeper.heard_, 1u);
  EXPECT_EQ(engine.metrics().rounds, 7u);
  // Node 1 ran rounds 0..5; node 0 twice.
  EXPECT_EQ(engine.metrics().wakes, 8u);
}

TEST(EngineWake, TimerFiresOnItsRoundAndEarliestRequestWins) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  Sleeper sleeper(7);  // asks for 9, then 7
  HaltImmediately quitter;
  std::vector<NodeProgram*> raw{&sleeper, &quitter};
  engine.run(raw);
  EXPECT_EQ(sleeper.calls_, (std::vector<std::uint64_t>{0, 7}));
  EXPECT_EQ(sleeper.heard_, 0u);
  EXPECT_EQ(engine.metrics().rounds, 8u);
  EXPECT_EQ(engine.metrics().wakes, 3u);
}

TEST(EngineWake, SleepUntilTheNextRoundStaysAwake) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  Sleeper sleeper(1);
  HaltImmediately quitter;
  std::vector<NodeProgram*> raw{&sleeper, &quitter};
  engine.run(raw);
  EXPECT_EQ(sleeper.calls_, (std::vector<std::uint64_t>{0, 1}));
}

TEST(EngineWake, MailAndTimerInOneRoundWakeOnce) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  Sleeper sleeper(4);
  SendAt sender(0, 3);  // lands in round 4, the timer's round
  std::vector<NodeProgram*> raw{&sleeper, &sender};
  engine.run(raw);
  EXPECT_EQ(sleeper.calls_, (std::vector<std::uint64_t>{0, 4}));
  EXPECT_EQ(sleeper.heard_, 1u);
}

TEST(EngineWake, CrashWhileAsleepIsTallied) {
  const Graph g = Graph::line(2);
  FaultPlan plan(1);
  plan.add_crash(/*node=*/0, /*round=*/3);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  engine.set_fault_plan(plan);
  Sleeper sleeper(NodeContext::kForever);
  SendAt sender(0, 5);
  std::vector<NodeProgram*> raw{&sleeper, &sender};
  engine.run(raw);
  // The crash takes the sleeper out without a wake-up; the later send to
  // it expires.
  EXPECT_EQ(sleeper.calls_, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(engine.metrics().faults.crashes, 1u);
  EXPECT_EQ(engine.metrics().faults.expired, 1u);
  EXPECT_EQ(engine.metrics().rounds, 6u);
}

TEST(EngineWake, DelayedMessageWakesSleeperWhenItLands) {
  const Graph g = Graph::line(2);
  FaultPlan plan(1);
  FaultRates rates;
  rates.delay = 1.0;
  rates.max_delay_rounds = 3;
  plan.set_rates(rates);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  engine.set_fault_plan(plan);
  Sleeper sleeper(NodeContext::kForever);
  SendAt sender(0, 2);
  std::vector<NodeProgram*> raw{&sleeper, &sender};
  engine.run(raw);
  EXPECT_EQ(engine.metrics().faults.delayed, 1u);
  ASSERT_EQ(sleeper.calls_.size(), 2u);
  // Due in round 3 + delay, delay in [1, 3].
  EXPECT_GE(sleeper.calls_[1], 4u);
  EXPECT_LE(sleeper.calls_[1], 6u);
  EXPECT_EQ(sleeper.heard_, 1u);
}

TEST(EngineWake, DuplicatedMessageWakesSleeperOnce) {
  const Graph g = Graph::line(2);
  FaultPlan plan(1);
  FaultRates rates;
  rates.duplicate = 1.0;
  plan.set_rates(rates);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  engine.set_fault_plan(plan);
  Sleeper sleeper(NodeContext::kForever);
  SendAt sender(0, 2);
  std::vector<NodeProgram*> raw{&sleeper, &sender};
  engine.run(raw);
  EXPECT_EQ(engine.metrics().faults.duplicated, 1u);
  EXPECT_EQ(sleeper.calls_, (std::vector<std::uint64_t>{0, 3}));
  EXPECT_EQ(sleeper.heard_, 2u);
}

TEST(EngineWake, ProgramsThatNeverSleepAreWokenEveryRound) {
  const Graph g = Graph::line(3);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 1});
  std::vector<PingProgram> progs{PingProgram(4), PingProgram(4),
                                 PingProgram(4)};
  std::vector<NodeProgram*> raw{&progs[0], &progs[1], &progs[2]};
  engine.run(raw);
  EXPECT_EQ(engine.metrics().rounds, 5u);
  EXPECT_EQ(engine.metrics().wakes, 3u * 5u);
}

TEST(Message, PushFieldValidation) {
  Message msg;
  EXPECT_THROW(msg.push_field(1, 0), std::invalid_argument);
  EXPECT_THROW(msg.push_field(1, 65), std::invalid_argument);
  EXPECT_THROW(msg.push_field(4, 2), std::invalid_argument);
  msg.push_field(3, 2);
  msg.push_field(0xFFFFFFFFFFFFFFFFULL, 64);
  EXPECT_EQ(msg.bits, 66u);
  EXPECT_EQ(msg.field(0), 3u);
  EXPECT_THROW(msg.field(2), std::out_of_range);
}

TEST(Message, BitsForCounts) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(1ULL << 20), 20u);
  EXPECT_EQ(bits_for((1ULL << 20) + 1), 21u);
}

}  // namespace
}  // namespace dut::net
