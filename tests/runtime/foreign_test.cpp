#include "runtime/foreign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/runtime.hpp"
#include "topology/presets.hpp"

namespace numashare::rt {
namespace {

TEST(ForeignThreads, EnrollAndDeregister) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  EXPECT_EQ(registry.count(), 0u);
  {
    auto io = registry.enroll("io-thread", ForeignRole::kIo);
    auto compute = registry.enroll("legacy-solver", ForeignRole::kCompute);
    EXPECT_EQ(registry.count(), 2u);
    EXPECT_EQ(registry.count(ForeignRole::kIo), 1u);
    EXPECT_EQ(registry.count(ForeignRole::kCompute), 1u);
    EXPECT_NE(io->id(), compute->id());
    EXPECT_EQ(io->bound_node(), topo::kInvalidNode);
  }
  EXPECT_EQ(registry.count(), 0u);  // handles dropped
}

TEST(ForeignThreads, BindRequestAppliedAtPoll) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  auto handle = registry.enroll("worker", ForeignRole::kCompute);
  EXPECT_FALSE(handle->poll());  // nothing requested yet
  ASSERT_TRUE(registry.request_bind(handle->id(), 1));
  EXPECT_EQ(handle->bound_node(), topo::kInvalidNode);  // not yet applied
  EXPECT_TRUE(handle->poll());
  EXPECT_EQ(handle->bound_node(), 1u);
  EXPECT_FALSE(handle->poll());  // idempotent until the next request
}

TEST(ForeignThreads, UnknownIdRejected) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  EXPECT_FALSE(registry.request_bind(12345, 0));
}

TEST(ForeignThreads, PerNodeAccountingCountsComputeOnly) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  auto compute1 = registry.enroll("c1", ForeignRole::kCompute);
  auto compute2 = registry.enroll("c2", ForeignRole::kCompute);
  auto io = registry.enroll("io", ForeignRole::kIo);
  registry.request_bind(compute1->id(), 0);
  registry.request_bind(compute2->id(), 0);
  registry.request_bind(io->id(), 1);
  compute1->poll();
  compute2->poll();
  io->poll();
  const auto per_node = registry.compute_bound_per_node();
  EXPECT_EQ(per_node[0], 2u);
  EXPECT_EQ(per_node[1], 0u);  // the I/O thread is not budgeted
}

TEST(ForeignThreads, ListSnapshot) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  auto handle = registry.enroll("main-thread", ForeignRole::kCompute);
  const auto entries = registry.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "main-thread");
  EXPECT_EQ(entries[0].role, ForeignRole::kCompute);
  EXPECT_EQ(entries[0].bound_node, topo::kInvalidNode);
}

TEST(ForeignThreads, RealThreadAppliesAffinity) {
  // An actual foreign thread polling its handle: the bind must stick (or be
  // a recorded no-op on constrained hosts) without crashing.
  const auto machine = topo::Machine::symmetric(1, 1, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  std::atomic<bool> bound{false};
  std::thread foreign([&] {
    auto handle = registry.enroll("real", ForeignRole::kCompute);
    while (!handle->poll()) std::this_thread::yield();
    bound.store(handle->bound_node() == 0);
  });
  while (registry.count() == 0) std::this_thread::yield();
  ASSERT_TRUE(registry.request_bind(registry.list()[0].id, 0));
  foreign.join();
  EXPECT_TRUE(bound.load());
}

TEST(ForeignThreads, AccessibleThroughRuntime) {
  Runtime runtime(topo::Machine::symmetric(2, 2, 1.0, 10.0), {.name = "fg"});
  auto handle = runtime.foreign_threads().enroll("main", ForeignRole::kCompute);
  EXPECT_EQ(runtime.foreign_threads().count(), 1u);
  runtime.foreign_threads().request_bind(handle->id(), 1);
  handle->poll();
  EXPECT_EQ(runtime.foreign_threads().compute_bound_per_node()[1], 1u);
}

TEST(ForeignThreadsDeath, BadNodeRejected) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  auto handle = registry.enroll("x", ForeignRole::kCompute);
  EXPECT_DEATH(registry.request_bind(handle->id(), 9), "out of range");
}

TEST(ForeignThreads, RoleNames) {
  EXPECT_STREQ(to_string(ForeignRole::kCompute), "compute");
  EXPECT_STREQ(to_string(ForeignRole::kIo), "io");
}

TEST(ForeignThreads, RebindRacesHandleDestruction) {
  // The controller re-binds by id while enrolled threads churn: a
  // request_bind must either land on a live handle or return false for an
  // already-deregistered id — never touch a destroyed handle. Run under
  // TSan/ASan this is the lifecycle-race regression for the registry's
  // id-indexed lookup against ~ForeignThreadHandle.
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  std::atomic<bool> stop{false};

  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto handle = registry.enroll("churn", ForeignRole::kCompute);
      handle->poll();
      // handle dies here, racing the binder's request_bind on its id
    }
  });

  for (int i = 0; i < 2000; ++i) {
    for (const auto& entry : registry.list()) {
      registry.request_bind(entry.id, static_cast<topo::NodeId>(i % 2));
    }
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(registry.count(), 0u);
}

TEST(ForeignThreads, ConcurrentEnrollPollAndAccounting) {
  // Many foreign threads enroll/poll/deregister while the controller binds
  // and reads the per-node accounting. Nothing may crash, deadlock, or
  // leave a stale entry behind; counts observed mid-run are only ever of
  // live handles.
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  ForeignThreadRegistry registry(machine);
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::string name = "w";
      name += std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        auto handle = registry.enroll(name,
                                      t % 2 == 0 ? ForeignRole::kCompute
                                                 : ForeignRole::kIo);
        for (int p = 0; p < 4; ++p) handle->poll();
      }
    });
  }
  std::thread binder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& entry : registry.list()) {
        registry.request_bind(entry.id, static_cast<topo::NodeId>(entry.id % 2));
      }
      const auto per_node = registry.compute_bound_per_node();
      ASSERT_EQ(per_node.size(), 2u);
      EXPECT_LE(per_node[0] + per_node[1], registry.count() + kThreads);
    }
  });

  for (auto& worker : workers) worker.join();
  stop.store(true);
  binder.join();
  EXPECT_EQ(registry.count(), 0u);
  EXPECT_EQ(registry.compute_bound_per_node()[0], 0u);
}

}  // namespace
}  // namespace numashare::rt
