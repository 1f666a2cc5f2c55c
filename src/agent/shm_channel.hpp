// POSIX shared-memory transport: the agent as a real separate process.
//
// The paper's Figure 1 runs the agent outside the applications. This
// transport carries exactly the same POD Command/Telemetry messages as the
// in-process Channel, but through a shm_open/mmap segment containing two
// fixed-capacity lock-free SPSC rings built from address-free atomics —
// legal across process boundaries on every platform we target.
//
// Roles: the agent create()s the segment (and unlinks it on destruction);
// each application attach()es by name. One segment per (agent, app) pair,
// preserving the SPSC discipline per ring.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "agent/channel.hpp"
#include "agent/protocol.hpp"

namespace numashare::agent {

/// Fixed-capacity POD SPSC ring suitable for shared memory: no pointers, no
/// heap, only address-free atomics and trivially-copyable slots.
template <typename T, std::size_t N>
class ShmRing {
  static_assert((N & (N - 1)) == 0 && N >= 2, "capacity must be a power of two");
  static_assert(std::is_trivially_copyable_v<T>, "slots must be trivially copyable");

 public:
  void init() {
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  bool try_push(const T& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= N) return false;
    slots_[head & (N - 1)] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    T value = slots_[tail & (N - 1)];
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  std::uint64_t size() const {
    return head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_acquire);
  }

  /// Consumer-side batch drain in O(1): copy the NEWEST committed slot into
  /// `out` and advance the cursor past everything queued, returning how many
  /// entries were consumed (0 = empty, `out` untouched). Safe against a
  /// concurrent producer: slot head-1 is committed (its release store of
  /// head happens-before our acquire load), and the producer cannot reuse
  /// that cell until position head-1+N becomes writable, which needs the
  /// tail — which only we advance — to move past head-1 first.
  std::uint64_t drain_to_newest(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return 0;
    out = slots_[(head - 1) & (N - 1)];
    tail_.store(head, std::memory_order_release);
    return head - tail;
  }

 private:
  alignas(64) std::atomic<std::uint64_t> head_;
  alignas(64) std::atomic<std::uint64_t> tail_;
  T slots_[N];
};

class ShmChannel final : public ChannelBase {
 public:
  static constexpr std::size_t kCommandSlots = 64;
  static constexpr std::size_t kTelemetrySlots = 256;

  /// Agent side: create (exclusively) and initialize the segment. The
  /// creating ShmChannel unlinks the name on destruction.
  static std::unique_ptr<ShmChannel> create(const std::string& name, std::string* error = nullptr);
  /// Application side: attach to an existing segment. Validates the magic
  /// and protocol version before use.
  static std::unique_ptr<ShmChannel> attach(const std::string& name, std::string* error = nullptr);

  ~ShmChannel() override;

  ShmChannel(const ShmChannel&) = delete;
  ShmChannel& operator=(const ShmChannel&) = delete;

  const std::string& name() const { return name_; }
  bool is_creator() const { return creator_; }

  // ChannelBase.
  bool push_command(const Command& command) override;
  std::optional<Command> pop_command() override;
  bool push_telemetry(const Telemetry& telemetry) override;
  std::optional<Telemetry> pop_telemetry() override;
  /// O(1) sequence-coalesced drain (ShmRing::drain_to_newest): one cursor
  /// store consumes the whole backlog instead of 256 serial pops.
  std::uint64_t drain_newest(Telemetry& out) override;
  /// Drop counters live in the segment itself, so either end sees losses
  /// regardless of which process suffered the full ring.
  std::uint64_t commands_dropped() const override;
  std::uint64_t telemetry_dropped() const override;

  std::uint64_t commands_queued() const;
  std::uint64_t telemetry_queued() const;

 private:
  struct Layout;

  ShmChannel(std::string name, Layout* layout, bool creator);

  std::string name_;
  Layout* layout_ = nullptr;
  bool creator_ = false;
};

/// Unlink every POSIX shm segment whose name starts with `prefix` (leading
/// '/' optional, as in shm_open). Returns the number of segments removed.
///
/// A crashed agent or application leaves its segments behind — only the
/// creator's destructor unlinks, and a SIGKILL never runs it. The daemon
/// calls this on startup with its channel prefix to reclaim /dev/shm litter
/// from a previous incarnation before creating fresh segments.
std::size_t cleanup_stale_segments(const std::string& prefix, std::string* error = nullptr);

}  // namespace numashare::agent
