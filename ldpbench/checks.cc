#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "io/journal.h"

namespace ldpbench {

namespace {

using trajldp::region::RegionId;

std::string At(size_t i) { return " at position " + std::to_string(i); }

// Regularized upper incomplete gamma Q(a, x): series below a + 1,
// Lentz's continued fraction above.
double UpperGammaQ(double a, double x) {
  if (x <= 0.0) return 1.0;
  const double log_prefix = -x + a * std::log(x) - std::lgamma(a);
  if (x < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (int k = 1; k < 10000; ++k) {
      term *= x / (a + k);
      sum += term;
      if (term < sum * 1e-16) break;
    }
    return 1.0 - sum * std::exp(log_prefix);
  }
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int k = 1; k < 10000; ++k) {
    const double an = -k * (k - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return std::exp(log_prefix) * h;
}

std::vector<double> Normalized(std::vector<double> weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (double& w : weights) w /= total;
  return weights;
}

}  // namespace

Status CheckRegionWalk(const trajldp::region::RegionGraph& graph,
                       std::span<const RegionId> regions,
                       size_t expected_len) {
  if (regions.size() != expected_len) {
    return Status::FailedPrecondition(
        "released " + std::to_string(regions.size()) +
        " regions for an input of length " + std::to_string(expected_len));
  }
  for (size_t i = 0; i < regions.size(); ++i) {
    if (regions[i] >= graph.num_regions()) {
      return Status::FailedPrecondition("unknown region" + At(i));
    }
    if (i > 0 && !graph.HasEdge(regions[i - 1], regions[i])) {
      return Status::FailedPrecondition(
          "step " + std::to_string(regions[i - 1]) + " -> " +
          std::to_string(regions[i]) + " is not an edge of the region graph" +
          At(i));
    }
  }
  return Status::Ok();
}

Status CheckPoiTrajectory(const trajldp::region::StcDecomposition& decomp,
                          const trajldp::model::ReachabilityConfig& reach,
                          const trajldp::model::Trajectory& trajectory,
                          const trajldp::region::RegionTrajectory& regions) {
  if (trajectory.size() != regions.size()) {
    return Status::FailedPrecondition("trajectory and region lengths differ");
  }
  const auto& db = decomp.db();
  const auto& time = decomp.time();
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const auto& pt = trajectory.point(i);
    if (pt.poi >= db.size() || pt.t < 0 || pt.t >= time.num_timesteps()) {
      return Status::FailedPrecondition("point outside the world" + At(i));
    }
    if (!db.poi(pt.poi).hours.IsOpenAtMinute(time.TimestepToMinute(pt.t))) {
      return Status::FailedPrecondition("POI closed at its timestep" + At(i));
    }
    auto region = decomp.Lookup(pt.poi, pt.t);
    if (!region.ok() || *region != regions[i]) {
      return Status::FailedPrecondition(
          "point lies outside its released region" + At(i));
    }
    if (i == 0) continue;
    const auto& prev = trajectory.point(i - 1);
    if (pt.t <= prev.t) {
      return Status::FailedPrecondition("timesteps not increasing" + At(i));
    }
    const double gap_minutes =
        static_cast<double>(time.TimestepToMinute(pt.t) -
                            time.TimestepToMinute(prev.t));
    if (std::isfinite(reach.speed_kmh) &&
        db.DistanceKm(prev.poi, pt.poi) >
            reach.speed_kmh * gap_minutes / 60.0) {
      return Status::FailedPrecondition("point not reachable from the last" +
                                        At(i));
    }
  }
  return Status::Ok();
}

double OptimalObjective(const trajldp::core::ReconstructionProblem& problem) {
  const auto& cands = problem.candidates();
  const auto& graph = problem.graph();
  const size_t num_cands = cands.size();
  const size_t len = problem.traj_len();
  const double inf = std::numeric_limits<double>::infinity();
  if (num_cands == 0 || len == 0) return inf;
  std::vector<int64_t> index(graph.num_regions(), -1);
  for (size_t c = 0; c < num_cands; ++c) index[cands[c]] = static_cast<int64_t>(c);
  // Objective = Σ_i mult(i) · e(c_i, i) with mult {1, 2, ..., 2, 1}.
  auto mult = [len](size_t i) {
    return len == 1 || i == 0 || i + 1 == len ? 1.0 : 2.0;
  };
  std::vector<double> cost(num_cands), next(num_cands);
  for (size_t c = 0; c < num_cands; ++c) {
    cost[c] = mult(0) * problem.NodeError(0, c);
  }
  for (size_t i = 1; i < len; ++i) {
    std::fill(next.begin(), next.end(), inf);
    for (size_t c1 = 0; c1 < num_cands; ++c1) {
      if (cost[c1] == inf) continue;
      for (RegionId u : graph.Neighbors(cands[c1])) {
        const int64_t c2 = index[u];
        if (c2 >= 0 && cost[c1] < next[c2]) next[c2] = cost[c1];
      }
    }
    for (size_t c = 0; c < num_cands; ++c) {
      if (next[c] != inf) next[c] += mult(i) * problem.NodeError(i, c);
    }
    cost.swap(next);
  }
  return *std::min_element(cost.begin(), cost.end());
}

Status CheckOptimal(const trajldp::core::ReconstructionProblem& problem,
                    const trajldp::region::RegionTrajectory& released) {
  const auto& cands = problem.candidates();
  if (released.size() != problem.traj_len()) {
    return Status::FailedPrecondition("released length differs");
  }
  std::vector<size_t> assignment(released.size());
  for (size_t i = 0; i < released.size(); ++i) {
    const auto it = std::lower_bound(cands.begin(), cands.end(), released[i]);
    if (it == cands.end() || *it != released[i]) {
      return Status::FailedPrecondition("released region is no candidate" +
                                        At(i));
    }
    assignment[i] = static_cast<size_t>(it - cands.begin());
    if (i > 0 && !problem.Feasible(assignment[i - 1], assignment[i])) {
      return Status::FailedPrecondition("infeasible step" + At(i));
    }
  }
  const double got = problem.Objective(assignment);
  const double best = OptimalObjective(problem);
  if (!(std::fabs(got - best) <= 1e-9 * std::max(1.0, std::fabs(best)))) {
    return Status::FailedPrecondition(
        "released objective " + std::to_string(got) +
        " is not the optimum " + std::to_string(best));
  }
  return Status::Ok();
}

Status CheckReleasedOnce(std::vector<uint64_t> released,
                         std::vector<uint64_t> expected) {
  std::sort(released.begin(), released.end());
  std::sort(expected.begin(), expected.end());
  const auto dup = std::adjacent_find(released.begin(), released.end());
  if (dup != released.end()) {
    return Status::FailedPrecondition("user " + std::to_string(*dup) +
                                      " released more than once");
  }
  if (released != expected) {
    std::vector<uint64_t> missing;
    std::set_difference(expected.begin(), expected.end(), released.begin(),
                        released.end(), std::back_inserter(missing));
    return Status::FailedPrecondition(
        missing.empty() ? std::string("a user was released who never uploaded")
                        : "user " + std::to_string(missing.front()) +
                              " was never released");
  }
  return Status::Ok();
}

Status CheckAckedInJournal(
    const std::string& path,
    const std::vector<std::pair<uint64_t, uint64_t>>& acked) {
  auto journal =
      trajldp::io::FrameJournal::Open(path, trajldp::io::FrameJournal::Options());
  if (!journal.ok()) return journal.status();
  std::set<std::pair<uint64_t, uint64_t>> found;
  TRAJLDP_RETURN_NOT_OK(journal->Replay(
      [&found](uint64_t stream, uint64_t seq, std::string_view frame) {
        if (!frame.empty()) found.emplace(stream, seq);
        return Status::Ok();
      }));
  for (const auto& id : acked) {
    if (found.count(id) == 0) {
      return Status::FailedPrecondition(
          "acked frame (stream " + std::to_string(id.first) + ", seq " +
          std::to_string(id.second) + ") is missing from the journal");
    }
  }
  return Status::Ok();
}

Status CheckReport(const trajldp::region::RegionGraph& graph,
                   const trajldp::core::PerturbedNgramSet& report, size_t len,
                   int n, double epsilon_prime, double epsilon) {
  const size_t n_eff = std::min(static_cast<size_t>(n), len);
  if (report.size() != len + n_eff - 1) {
    return Status::FailedPrecondition(
        "report has " + std::to_string(report.size()) + " n-grams, not L + n - 1 = " +
        std::to_string(len + n_eff - 1));
  }
  std::vector<size_t> coverage(len + 1, 0);
  for (const auto& gram : report) {
    if (gram.a < 1 || gram.b < gram.a || gram.b > len ||
        gram.regions.size() != gram.b - gram.a + 1 ||
        gram.regions.size() > n_eff) {
      return Status::FailedPrecondition("n-gram with inconsistent bounds");
    }
    TRAJLDP_RETURN_NOT_OK(
        CheckRegionWalk(graph, gram.regions, gram.regions.size()));
    for (size_t i = gram.a; i <= gram.b; ++i) ++coverage[i];
  }
  for (size_t i = 1; i <= len; ++i) {
    if (coverage[i] != n_eff) {
      return Status::FailedPrecondition("position covered " +
                                        std::to_string(coverage[i]) +
                                        " times, not n" + At(i));
    }
  }
  const double spent = epsilon_prime * static_cast<double>(report.size());
  if (!(std::fabs(spent - epsilon) <= 1e-9 * epsilon)) {
    return Status::FailedPrecondition("report spends " + std::to_string(spent) +
                                      ", not epsilon " + std::to_string(epsilon));
  }
  return Status::Ok();
}

std::vector<double> UnigramEm(const trajldp::region::RegionDistance& distance,
                              RegionId x, double epsilon_prime,
                              double diameter) {
  const double scale = epsilon_prime / (2.0 * diameter);
  const auto row = distance.ToAll(x);
  std::vector<double> w(row.size());
  for (size_t i = 0; i < row.size(); ++i) w[i] = std::exp(-scale * row[i]);
  return Normalized(std::move(w));
}

std::vector<double> BigramFirstSlotEm(
    const trajldp::region::RegionDistance& distance,
    const trajldp::region::RegionGraph& graph, RegionId x1, RegionId x2,
    double epsilon_prime, double diameter) {
  const double scale = epsilon_prime / (2.0 * 2.0 * diameter);
  const auto row1 = distance.ToAll(x1);
  const auto row2 = distance.ToAll(x2);
  std::vector<double> w(row1.size());
  for (size_t v = 0; v < row1.size(); ++v) {
    double next = 0.0;
    for (RegionId u : graph.Neighbors(static_cast<RegionId>(v))) {
      next += std::exp(-scale * row2[u]);
    }
    w[v] = std::exp(-scale * row1[v]) * next;
  }
  return Normalized(std::move(w));
}

GofResult ChiSquareGof(std::span<const uint64_t> counts,
                       std::span<const double> probs, size_t bins) {
  std::vector<size_t> order(probs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&probs](size_t a, size_t b) { return probs[a] < probs[b]; });
  const double total =
      static_cast<double>(std::accumulate(counts.begin(), counts.end(), uint64_t{0}));
  std::vector<double> expected, observed;
  double mass = 0.0, seen = 0.0, cum = 0.0;
  for (size_t i = 0; i < order.size(); ++i) {
    mass += probs[order[i]];
    seen += static_cast<double>(counts[order[i]]);
    cum += probs[order[i]];
    const bool last = i + 1 == order.size();
    if (last || cum >= static_cast<double>(expected.size() + 1) / bins) {
      expected.push_back(mass * total);
      observed.push_back(seen);
      mass = 0.0;
      seen = 0.0;
    }
  }
  GofResult result;
  for (size_t b = 0; b < expected.size(); ++b) {
    if (expected[b] <= 0.0) continue;
    const double diff = observed[b] - expected[b];
    result.statistic += diff * diff / expected[b];
    ++result.dof;
  }
  result.dof = std::max(1, result.dof - 1);
  result.p_value = UpperGammaQ(0.5 * result.dof, 0.5 * result.statistic);
  return result;
}

Status CheckFrequencies(std::span<const uint64_t> counts,
                        std::span<const double> probs,
                        const std::string& what) {
  if (counts.size() != probs.size()) {
    return Status::FailedPrecondition(what + ": outcome spaces differ");
  }
  const GofResult gof = ChiSquareGof(counts, probs, 20);
  if (!(gof.p_value >= 1e-4)) {
    return Status::FailedPrecondition(
        what + ": frequencies do not fit the exponential mechanism (chi2 " +
        std::to_string(gof.statistic) + ", dof " + std::to_string(gof.dof) +
        ", p " + std::to_string(gof.p_value) + ")");
  }
  return Status::Ok();
}

namespace {

// Unique visitors per (POI, bin): one vector of bin counts per POI.
std::map<uint64_t, std::vector<uint32_t>> VisitCounts(
    const trajldp::model::TimeDomain& time,
    std::span<const trajldp::model::Trajectory> released, int bin_minutes) {
  const int num_bins = 1440 / bin_minutes;
  std::map<uint64_t, std::vector<uint32_t>> counts;
  for (const auto& traj : released) {
    std::set<std::pair<uint64_t, int>> visits;
    for (const auto& pt : traj.points()) {
      const int bin = std::clamp(time.TimestepToMinute(pt.t) / bin_minutes, 0,
                                 num_bins - 1);
      visits.emplace(pt.poi, bin);
    }
    for (const auto& [poi, bin] : visits) {
      auto& bins = counts[poi];
      bins.resize(static_cast<size_t>(num_bins));
      ++bins[static_cast<size_t>(bin)];
    }
  }
  return counts;
}

}  // namespace

std::vector<trajldp::eval::Hotspot> TallyHotspots(
    const trajldp::model::TimeDomain& time,
    std::span<const trajldp::model::Trajectory> released, int bin_minutes,
    int eta) {
  std::vector<trajldp::eval::Hotspot> out;
  for (const auto& [poi, bins] : VisitCounts(time, released, bin_minutes)) {
    for (size_t b = 0; b < bins.size();) {
      if (static_cast<int>(bins[b]) < eta) {
        ++b;
        continue;
      }
      size_t e = b;
      int peak = 0;
      while (e < bins.size() && static_cast<int>(bins[e]) >= eta) {
        peak = std::max(peak, static_cast<int>(bins[e]));
        ++e;
      }
      out.push_back({poi, static_cast<int>(b) * bin_minutes,
                     static_cast<int>(e) * bin_minutes, peak});
      b = e;
    }
  }
  return out;
}

std::vector<std::vector<trajldp::analytics::WindowTopEntry>> TallyTopK(
    const trajldp::model::TimeDomain& time,
    std::span<const trajldp::model::Trajectory> released, int window_minutes,
    size_t k) {
  const auto counts = VisitCounts(time, released, window_minutes);
  std::vector<std::vector<trajldp::analytics::WindowTopEntry>> out(
      static_cast<size_t>(1440 / window_minutes));
  for (size_t w = 0; w < out.size(); ++w) {
    auto& window = out[w];
    for (const auto& [poi, bins] : counts) {
      if (bins[w] > 0) window.push_back({poi, bins[w]});
    }
    std::sort(window.begin(), window.end(), [](const auto& a, const auto& b) {
      return a.unique_visitors != b.unique_visitors
                 ? a.unique_visitors > b.unique_visitors
                 : a.entity < b.entity;
    });
    if (window.size() > k) window.resize(k);
  }
  return out;
}

bool SameRelease(const trajldp::core::FullRelease& a,
                 const trajldp::core::FullRelease& b) {
  return a.regions == b.regions && a.trajectory == b.trajectory &&
         a.poi_attempts == b.poi_attempts && a.smoothed == b.smoothed;
}

uint64_t ReleaseDigest(const trajldp::core::FullRelease& release) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(release.regions.size());
  for (const auto r : release.regions) mix(static_cast<uint64_t>(r));
  mix(release.trajectory.size());
  for (size_t i = 0; i < release.trajectory.size(); ++i) {
    mix(static_cast<uint64_t>(release.trajectory.point(i).poi));
    mix(static_cast<uint64_t>(release.trajectory.point(i).t));
  }
  mix(release.poi_attempts);
  mix(release.smoothed ? 1 : 0);
  return h;
}

}  // namespace ldpbench
