// End-to-end Figure 1: agent + policy + channels + live runtimes.
#include "agent/agent.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "agent/policies.hpp"
#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

using namespace std::chrono_literals;

topo::Machine machine_2x2() { return topo::Machine::symmetric(2, 2, 1.0, 10.0); }

template <typename F>
bool eventually(F predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

TEST(Agent, FairShareDrivesTwoRuntimes) {
  const auto machine = machine_2x2();
  rt::Runtime app1(machine, {.name = "app1"});
  rt::Runtime app2(machine, {.name = "app2"});
  Channel ch1, ch2;
  RuntimeAdapter ad1(app1, ch1), ad2(app2, ch2);

  Agent agent(machine, std::make_unique<FairSharePolicy>());
  agent.add_app("app1", ch1);
  agent.add_app("app2", ch2);

  // Manual pumping keeps the test deterministic.
  for (int i = 0; i < 5; ++i) {
    ad1.pump();
    ad2.pump();
    agent.step(static_cast<double>(i));
  }
  ad1.pump();
  ad2.pump();

  // Fair share of a 2x2 machine between two apps: one thread per node each;
  // combined running threads equal the core count (no over-subscription).
  // Workers park and unpark asynchronously, so the total is part of the
  // settled state being waited for, not a snapshot taken after it.
  EXPECT_TRUE(eventually([&] {
    return app1.running_per_node()[0] == 1 && app2.running_per_node()[0] == 1 &&
           app1.running_threads() + app2.running_threads() == 4u;
  })) << "running " << app1.running_threads() << " + " << app2.running_threads();
  EXPECT_GE(agent.commands_sent(), 2u);
  EXPECT_GT(agent.telemetry_received(), 0u);
}

TEST(Agent, ViewsTrackProgressRates) {
  const auto machine = machine_2x2();
  rt::Runtime app(machine, {.name = "rates"});
  Channel ch;
  RuntimeAdapter adapter(app, ch);
  Agent agent(machine, std::make_unique<OversubscribedPolicy>());
  agent.add_app("rates", ch);

  app.report_progress(10);
  adapter.pump();
  agent.step(0.0);
  std::this_thread::sleep_for(20ms);
  app.report_progress(10);
  adapter.pump();
  agent.step(1.0);

  const auto& view = agent.views()[0];
  EXPECT_TRUE(view.has_telemetry);
  EXPECT_EQ(view.latest.progress, 20u);
  EXPECT_GT(view.progress_rate, 0.0);
}

TEST(Agent, BackgroundLoopConverges) {
  const auto machine = machine_2x2();
  rt::Runtime app1(machine, {.name = "bg1"});
  rt::Runtime app2(machine, {.name = "bg2"});
  Channel ch1, ch2;
  RuntimeAdapter ad1(app1, ch1), ad2(app2, ch2);
  ad1.start(500);
  ad2.start(500);

  Agent agent(machine, std::make_unique<FairSharePolicy>(), {.period_us = 1000});
  agent.add_app("bg1", ch1);
  agent.add_app("bg2", ch2);
  agent.start();

  EXPECT_TRUE(eventually(
      [&] { return app1.running_threads() == 2 && app2.running_threads() == 2; }));
  agent.stop();
  ad1.stop();
  ad2.stop();
}

TEST(Agent, ProducerConsumerKeepsLeadBounded) {
  // Virtual producer/consumer progressing at thread-count-proportional rates:
  // the controller must keep the producer's lead inside (or near) the band.
  const auto machine = topo::Machine::symmetric(1, 8, 1.0, 10.0);
  rt::Runtime producer(machine, {.name = "prod"});
  rt::Runtime consumer(machine, {.name = "cons"});
  Channel chp, chc;
  RuntimeAdapter adp(producer, chp), adc(consumer, chc);

  ProducerConsumerPolicy::Options options;
  options.min_lead = 2;
  options.max_lead = 8;
  Agent agent(machine, std::make_unique<ProducerConsumerPolicy>(options));
  agent.add_app("prod", chp);
  agent.add_app("cons", chc);

  // Drive progress proportional to granted threads; the producer is
  // intrinsically 2x faster per thread, so unmanaged it would run away
  // (8 units/tick of divergence). Each tick sleeps so the worker threads can
  // actually enact the block/unblock commands on a single-CPU host.
  for (int tick = 0; tick < 150; ++tick) {
    producer.report_progress(2 * producer.running_threads());
    consumer.report_progress(1 * consumer.running_threads());
    adp.pump();
    adc.pump();
    agent.step(tick * 0.01);
    adp.pump();
    adc.pump();
    std::this_thread::sleep_for(2ms);
  }
  const auto produced = producer.stats().progress;
  const auto consumed = consumer.stats().progress;
  EXPECT_GT(produced, consumed);  // still a pipeline, not starved
  // The controller must have shifted threads away from the fast producer;
  // with a 2x speed gap the steady state leaves it the minimum.
  EXPECT_TRUE(eventually(
      [&] { return producer.running_threads() < consumer.running_threads(); }))
      << "producer=" << producer.running_threads()
      << " consumer=" << consumer.running_threads();
  // Divergence must be well below the unmanaged 8-per-tick rate.
  EXPECT_LT(produced - consumed, 150u * 4u);
}

TEST(AgentDeath, PolicyRequired) {
  EXPECT_DEATH(Agent(machine_2x2(), nullptr), "policy");
}

// Registration after start() is legal now (dynamic membership) — covered in
// dynamic_membership_test.cpp. Duplicate names are still rejected.
TEST(AgentDeath, DuplicateNameRejected) {
  Agent agent(machine_2x2(), std::make_unique<OversubscribedPolicy>());
  Channel ch1, ch2;
  agent.add_app("same", ch1);
  EXPECT_DEATH(agent.add_app("same", ch2), "duplicate");
}

}  // namespace
}  // namespace numashare::agent
