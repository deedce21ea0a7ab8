#include "workloads.h"

#include <sys/resource.h>

#include <fstream>
#include <optional>

#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"

namespace ldpbench {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

CpuUse ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime),
          static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw)};
}

Status TraceRegionBuilds(const trajldp::model::PoiDatabase& db,
                                   const trajldp::model::TimeDomain& time,
                                   const trajldp::core::NGramConfig& config,
                                   Tracer::ThreadBuffer* tb) {
  using namespace trajldp::region;  // NOLINT: three types, one block
  std::optional<StcDecomposition> decomp;
  {
    Tracer::Scope s(tb, "region.decomposition");
    auto built = StcDecomposition::Build(&db, time, config.decomposition);
    if (!built.ok()) return built.status();
    decomp.emplace(std::move(*built));
  }
  {
    Tracer::Scope s(tb, "region.distance");
    RegionDistance distance(&*decomp);
  }
  Tracer::Scope s(tb, "region.graph");
  RegionGraph::Build(*decomp, config.reachability);
  return Status::Ok();
}

void AddTraceSummary(const Tracer& tracer, RunResult& result) {
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    result.Add("self." + layer + "_s", seconds, "s");
  }
  for (const char* build : {"region.decomposition", "region.distance",
                            "region.graph"}) {
    result.Add(std::string(build) + "_s", tracer.TotalSeconds(build), "s");
  }
}

void AddOverhead(const std::string& metric, double untraced, double traced,
                 RunResult& result) {
  result.notes.push_back("trace overhead: " + metric + " untraced " +
                         std::to_string(untraced) + " traced " +
                         std::to_string(traced) + " difference " +
                         std::to_string(traced - untraced));
}

Status WriteSpans(const Tracer& tracer, const RunOptions& options) {
  if (!tracer.enabled() || options.out_dir.empty()) return Status::Ok();
  return tracer.Write(options.out_dir + "/" + options.workload + "-seed" +
                      std::to_string(options.seed) + ".spans.tsv");
}

}  // namespace ldpbench
