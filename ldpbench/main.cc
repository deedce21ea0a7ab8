// ldpbench: the repository benchmark's runner. One process runs one
// workload for --seconds of measured work and prints, as its last line,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Earlier lines carry the host header and notes.

#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace ldpbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end list.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"users_per_user_cpu_s", "users/cpu-s"},
    {"peak_rss_mb", "MiB"},
};

// The traced run's per-layer metrics; must match BENCHMARK.json's
// per_layer list. Every workload prints all of them, and a layer it does
// not exercise reads 0: city_perturb reconstructs nothing, and only
// device_ingest has a network, a journal, a queue and a registry.
constexpr MetricSpec kPerLayer[] = {
    {"region.decomposition_s", "s"},
    {"region.graph_s", "s"},
    {"region.distance_s", "s"},
    {"region.edges", "count"},
    {"core.perturb_s", "s"},
    {"core.perturb_utilisation", "ratio"},
    {"core.reconstruct_s", "s"},
    {"core.candidates_per_user", "count"},
    {"core.poi_s", "s"},
    {"core.poi_attempts_per_user", "count"},
    {"core.poi_accept_ratio", "ratio"},
    {"core.domain_fill_s", "s"},
    {"core.domain_miss_ratio", "ratio"},
    {"core.domain_rows", "count"},
    {"core.queue_wait_s", "s"},
    {"core.queue_high_water", "count"},
    {"core.collector_reconstruct_s", "s"},
    {"io.journal_append_s", "s"},
    {"io.journal_sync_s", "s"},
    {"io.fsyncs_per_upload", "count"},
    {"io.wire_bytes_per_upload", "bytes"},
    {"net.upload_s", "s"},
    {"net.ack_p50_ms", "ms"},
    {"net.ack_p99_ms", "ms"},
    {"net.reactor_wakeups_per_frame", "count"},
    {"net.frames_resent", "count"},
    {"net.reconnects", "count"},
    {"ingest.kernel_cpu_ms_per_upload", "ms"},
    {"ingest.switches_per_upload", "count"},
    {"analytics.consume_s", "s"},
    {"analytics.memory_bytes", "bytes"},
    {"obs.scrape_s", "s"},
    {"self.region_s", "s"},
    {"self.core_s", "s"},
    {"self.net_s", "s"},
    {"self.analytics_s", "s"},
    {"self.obs_s", "s"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// ------------------------------------------------------------ host header

size_t HostThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Seconds one thread takes for a fixed amount of dependent arithmetic.
double SpinSeconds() {
  const auto t0 = std::chrono::steady_clock::now();
  volatile uint64_t sink = 0;
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Effective parallel cores: nproc × (one thread's spin time) / (wall time
// of nproc threads spinning at once). Reads only; changes nothing.
double SpinProbeCores(size_t threads) {
  const double one = SpinSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> spinners;
  for (size_t i = 0; i < threads; ++i) spinners.emplace_back(SpinSeconds);
  for (auto& t : spinners) t.join();
  const double all =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(threads) * one / all;
}

// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string FsType(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  const auto magic = static_cast<uint64_t>(fs.f_type);
  static const std::map<uint64_t, const char*> kNames = {
      {0xEF53, "ext4"},        {0x58465342, "xfs"},   {0x01021994, "tmpfs"},
      {0x794c7630, "overlay"}, {0x9123683E, "btrfs"}, {0x6969, "nfs"},
      {0x2FC12FC1, "zfs"},     {0xF2F52010, "f2fs"},  {0x65735546, "fuse"},
  };
  const auto it = kNames.find(magic);
  if (it != kNames.end()) return it->second;
  std::ostringstream hex;
  hex << "0x" << std::hex << magic;
  return hex.str();
}

int Usage() {
  std::cerr << "usage: ldpbench --workload city_release|city_perturb|"
               "device_ingest --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--git-sha SHA]\n";
  return 2;
}

}  // namespace
}  // namespace ldpbench

int main(int argc, char** argv) {
  using namespace ldpbench;
  RunOptions options;
  std::string git_sha = "unknown";
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    return Usage();
  }
  try {
    options.workload = args["--workload"];
    options.seed = std::stoull(args["--seed"]);
    options.seconds = std::stod(args["--seconds"]);
    options.trace = std::stoi(args["--trace"]) != 0;
  } catch (const std::exception&) {
    return Usage();
  }
  if (args.count("--out-dir")) options.out_dir = args["--out-dir"];
  if (args.count("--git-sha")) git_sha = args["--git-sha"];
  options.host_threads = HostThreads();

  const auto steal_before = StealJiffies();
  const double cores = SpinProbeCores(options.host_threads);

  StatusOr<RunResult> result = Status::InvalidArgument("unknown workload");
  if (options.workload == "city_release") {
    result = RunCityRelease(options);
  } else if (options.workload == "city_perturb") {
    result = RunCityPerturb(options);
  } else if (options.workload == "device_ingest") {
    result = RunDeviceIngest(options);
  } else {
    return Usage();
  }
  if (!result.ok()) {
    std::cerr << options.workload << ": " << result.status() << "\n";
    return 1;
  }

  const auto steal_after = StealJiffies();
  const double jiffy = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  const uint64_t steal = steal_after.first - steal_before.first;
  const uint64_t total = steal_after.second - steal_before.second;
  std::cout << "host {\"git_sha\": " << JsonString(git_sha)
            << ", \"nproc\": " << options.host_threads
            << ", \"spin_probe_cores\": " << JsonNumber(cores)
            << ", \"steal_s\": " << JsonNumber(steal * jiffy)
            << ", \"steal_share\": "
            << JsonNumber(total > 0 ? static_cast<double>(steal) / total : 0.0)
            << ", \"journal_fs\": "
            << JsonString(FsType(options.out_dir.empty() ? "." : options.out_dir))
            << "}\n";
  for (const std::string& note : result->notes) std::cout << note << "\n";

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : result->metrics) by_name[m.name] = &m;
  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    metrics << (first ? "" : ", ") << JsonString(spec.name)
            << ": {\"value\": " << JsonNumber(value)
            << ", \"unit\": " << JsonString(spec.unit) << "}";
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = by_name.find(spec.name);
      emit(spec, it == by_name.end() ? 0.0 : it->second->value);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = by_name.find(spec.name);
      if (it == by_name.end()) {
        std::cerr << "workload did not measure " << spec.name << "\n";
        return 1;
      }
      emit(spec, it->second->value);
    }
  }
  std::cout << "{\"correct\": " << (result->correct ? "true" : "false")
            << ", \"attempted\": " << result->attempted
            << ", \"failed\": " << result->failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
