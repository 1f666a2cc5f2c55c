// perfbench: one end-to-end benchmark of numashare's core-reallocation loop.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Workloads: task_stream (runtime only), realloc_churn (daemon + two real
// runtimes), arbiter_scale (daemon + command-acking stub clients). See
// perfbench/README.md for what each measures and why.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}, each metric with its value, unit and sample count; the lines
// before it give the build/host stamp and the failures. perfbench/run.py
// checks the metrics against BENCHMARK.json.
#include <dirent.h>
#include <signal.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "agent/shm_channel.hpp"
#include "bench.hpp"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

const char* sanitizer_name() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload task_stream|realloc_churn|arbiter_scale "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--source-digest HEX]\n");
  return 2;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

/// Shm names in /dev/shm (without the leading '/') starting with `prefix`.
std::vector<std::string> shm_entries(const std::string& prefix) {
  std::vector<std::string> out;
  DIR* dir = opendir("/dev/shm");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) == 0) {
      out.emplace_back(entry->d_name);
    }
  }
  closedir(dir);
  return out;
}

/// Remove segments an earlier run of this benchmark left behind when it
/// died: every "nspb<pid>-..." whose pid no longer exists.
void clean_stale_segments() {
  for (const std::string& name : shm_entries("nspb")) {
    const long pid = std::strtol(name.c_str() + 4, nullptr, 10);
    if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      ns::agent::cleanup_stale_segments("/" + name);
    }
  }
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c == '\n' ? ' ' : c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string digest = "unknown";
  int trace_flag = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace_flag = std::atoi(value);
    else if (key == "--out-dir") args.out_dir = value;
    else if (key == "--source-digest") digest = value;
    else return usage();
  }
  if (argc % 2 != 1 || args.workload.empty() || (trace_flag != 0 && trace_flag != 1) ||
      !(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return usage();
  }
  args.trace = trace_flag == 1;

  // Only optimized, unsanitized builds may record numbers.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  bool asserts_on = true;
#ifdef NDEBUG
  asserts_on = false;
#endif
  if (kSanitized || asserts_on || build_type == "Debug") {
    std::fprintf(stderr, "perfbench: refusing to record from a %s build (sanitizer %s)\n",
                 build_type.c_str(), sanitizer_name());
    return 3;
  }

  void (*run)(const Args&, Layers&, Result&) = nullptr;
  if (args.workload == "task_stream") run = run_task_stream;
  else if (args.workload == "realloc_churn") run = run_realloc_churn;
  else if (args.workload == "arbiter_scale") run = run_arbiter_scale;
  else return usage();

  std::printf("{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"sanitizer\": \"%s\", \"source_digest\": \"%s\"}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              trace_flag, online_cpus(), build_type.c_str(), PERFBENCH_COMPILER,
              sanitizer_name(), digest.c_str());

  clean_stale_segments();
  const std::string own = "nspb" + std::to_string(::getpid()) + "-";
  args.shm_prefix = "/" + own;

  auto layers = std::make_unique<Layers>();
  std::unique_ptr<ns::trace::Tracer> tracer;
  if (args.trace) {
    tracer = std::make_unique<ns::trace::Tracer>(std::size_t{1} << 18);
    layers->tracer = tracer.get();
    layers->origin_ns = now_ns();
  }

  Result result;
  run(args, *layers, result);

  // Every segment must be gone once the workload's objects are destroyed.
  const auto leaked = shm_entries(own);
  if (!leaked.empty()) {
    result.fail("leaked " + std::to_string(leaked.size()) + " shm segment(s), e.g. " +
                leaked.front());
    ns::agent::cleanup_stale_segments(args.shm_prefix);
  }

  if (tracer) {
    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer->write_chrome_json(path)) result.fail("cannot write trace " + path);
    std::printf("trace: %s (%llu events dropped)\n", path.c_str(),
                static_cast<unsigned long long>(tracer->dropped()));
  }

  if (args.trace) {
    result.set("check.fail_frac",
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
               "ratio", result.attempted);
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", name.c_str());
      return 4;
    }
  }
  for (const auto& failure : result.failures) std::printf("failure: %s\n", failure.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s", sep);
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    print_json_string(metric.unit);
    std::printf(", \"samples\": %llu}", static_cast<unsigned long long>(metric.samples));
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
