// Deterministic fault injection for the daemon/agent coordination path.
//
// The paper's architecture only works if the arbiter is strictly advisory:
// applications must degrade, never wedge, when the agent dies, stalls, or
// floods the rings. The happy-path tests cannot reach most failure
// interleavings (a client dying between two slot-claim CAS states, a
// command dropped mid-reallocation, a heartbeat stalling just under the
// eviction threshold) — this subsystem makes them reachable on purpose and
// on schedule.
//
// A FaultPlan is a list of rules parsed from a compact spec string:
//
//   "shm.cmd.drop@seq=7;client.die@site=post_claim"
//
// Each rule names a *site* (a dotted path baked into the coordination code)
// plus match/behaviour parameters. The plan is process-global: tests
// install it (in the parent before forking, or in a forked child for
// client-only faults) and the hooks consult it.
//
// Every library compiles the hooks in, in the style of FreeBSD fail(9) and
// etcd gofail: each NS_FAULT_* macro first does one relaxed load of a
// process-global "plan armed" flag and calls into this module only when a
// plan is installed. Unarmed, a hook costs that load and an untaken branch
// — no lock, no call, no clock read — so the code the chaos suites test is
// the code that ships. Nothing but install_plan/install_spec arms the flag.
//
// Site catalog and grammar: docs/INJECT.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace numashare::inject {

/// Sentinel: rule matches any message sequence number.
inline constexpr std::uint64_t kAnySeq = ~0ull;

struct FaultRule {
  std::string site;   ///< dotted site path, e.g. "shm.cmd.drop"
  std::string where;  ///< named sub-site ("post_claim", "claiming"); empty = any
  std::uint64_t seq = kAnySeq;  ///< match one message seq (kAnySeq = all)
  std::uint64_t count = 1;      ///< fire at most this many times (0 = unlimited)
  std::uint64_t after = 0;      ///< skip the first N matching hits
  std::int64_t delay_us = 0;    ///< sleep duration for *.pause sites
  std::uint64_t ticks = 1;      ///< ops to hold a message for *.delay sites
  int exit_code = -1;           ///< _exit code override for *.die sites (< 0 = site default)
  std::uint64_t pct = 100;      ///< magnitude for value sites (foreign.balloon@pct=N)
};

struct FaultPlan {
  std::string spec;  ///< the original text, for failure reproduction messages
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
};

/// Parse a plan spec: clause (';' clause)*, clause = site ['@' k[=v] (',' k[=v])*].
/// Keys: seq, count, after, us, ticks, exit, pct (numeric); site / state (name).
/// Returns nullopt and sets `error` on malformed input.
std::optional<FaultPlan> parse_plan(const std::string& spec, std::string* error = nullptr);

namespace detail {
/// Set while a non-empty plan is installed; written only under the plan
/// mutex by install_plan/clear_plan.
extern std::atomic<bool> plan_armed;
}  // namespace detail

/// The gate every hook checks before calling into this module. A stale
/// read only delays the first firing after an install; the firing decision
/// itself is made under the plan mutex.
inline bool armed() {
  return __builtin_expect(detail::plan_armed.load(std::memory_order_relaxed), false);
}

/// Install (replace) the process-global plan. Rule counters reset and held
/// messages are discarded; a non-empty plan arms the hooks.
void install_plan(const FaultPlan& plan);
/// parse_plan + install_plan in one step.
bool install_spec(const std::string& spec, std::string* error = nullptr);
/// Remove the plan and disarm; every hook goes quiet.
void clear_plan();
bool plan_active();
/// Spec text of the installed plan ("" when none).
std::string active_spec();

/// Cumulative firings of one site since the last install/clear.
std::uint64_t fires(const std::string& site);
/// Cumulative firings across all sites since the last install/clear.
std::uint64_t total_fires();

// ---- hook queries (wrapped by the NS_FAULT_* macros below) ---------------

/// True when a rule for `site` (matching `where`/`seq`, past its `after`
/// skip, within its `count` budget) fires now. A true return consumes one
/// firing. Thread-safe.
bool fire(const char* site, std::uint64_t seq = kAnySeq, const char* where = nullptr);

/// fire(), and when firing, sleep the rule's delay_us. Returns the firing.
bool fire_pause(const char* site, const char* where = nullptr);

/// fire(), and when firing, _exit() with the rule's exit code (or
/// `default_exit_code` when the rule does not override it).
void fire_die(const char* site, const char* where, int default_exit_code);

/// fire(), and when firing, write the rule's `pct` magnitude into *pct.
/// Returns the firing; *pct is untouched when the site stays quiet. Used by
/// value sites (foreign.balloon@pct=N) where the rule carries how big the
/// injected effect should be, not just whether it happens.
bool fire_value(const char* site, std::uint64_t* pct, const char* where = nullptr);

/// Message hold for *.delay sites: when the rule fires, copy `len` bytes
/// into the pending store and return true (the caller suppresses the send).
bool hold(const char* site, std::uint64_t seq, const void* bytes, std::size_t len);
/// One transport op elapsed at `site`: age every held message by one tick.
void delay_tick(const char* site);
/// Pop one aged-out held message for `site` into `out` (exactly `len`
/// bytes, which must match the held size). False when none is ready.
bool take_ready(const char* site, void* out, std::size_t len);

}  // namespace numashare::inject

// The hook macros: one inline armed() check, then the call.
#define NS_FAULT(site, seq) \
  (::numashare::inject::armed() && ::numashare::inject::fire((site), (seq)))
#define NS_FAULT_AT(site) \
  (::numashare::inject::armed() && ::numashare::inject::fire((site)))
#define NS_FAULT_PAUSE(site, where) \
  ((void)(::numashare::inject::armed() && ::numashare::inject::fire_pause((site), (where))))
#define NS_FAULT_DIE(site, where, code)                                            \
  (::numashare::inject::armed() ? ::numashare::inject::fire_die((site), (where), (code)) \
                                : (void)0)
#define NS_FAULT_VALUE(site, pct_out) \
  (::numashare::inject::armed() && ::numashare::inject::fire_value((site), (pct_out)))
#define NS_FAULT_HOLD(site, seq, message) \
  (::numashare::inject::armed() &&        \
   ::numashare::inject::hold((site), (seq), &(message), sizeof(message)))
