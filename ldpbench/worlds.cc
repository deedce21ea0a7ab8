#include "worlds.h"

#include <cmath>
#include <string>
#include <utility>

#include "geo/latlon.h"
#include "hierarchy/builtin_hierarchies.h"
#include "synth/taxi_foursquare.h"

namespace ldpbench {

namespace {

// The world seed of the repository's reproduction benches: the city is
// public data and stays fixed; only the users vary with --seed.
constexpr uint64_t kCityWorldSeed = 7;

}  // namespace

StatusOr<trajldp::eval::Dataset> MakeCity() {
  trajldp::eval::DatasetOptions options;
  options.num_pois = 2000;
  options.granularity_minutes = 10;
  options.speed_kmh = 8.0;
  // The dataset's own trajectories are not used; users come from --seed.
  options.num_trajectories = 1;
  options.seed = kCityWorldSeed;
  return trajldp::eval::MakeTaxiFoursquareDataset(options);
}

trajldp::core::NGramConfig CityConfig(const trajldp::eval::Dataset& city) {
  trajldp::core::NGramConfig config;
  config.n = 2;
  config.epsilon = 5.0;
  config.decomposition.grid_size = 4;
  config.decomposition.coarse_grids = {2, 1};
  config.decomposition.base_interval_minutes = 60;
  config.reachability = city.reachability;
  return config;
}

StatusOr<trajldp::model::TrajectorySet> CityTrajectories(
    const trajldp::eval::Dataset& city, uint64_t seed, size_t per_length) {
  trajldp::synth::TaxiFoursquareConfig config;
  config.min_len = kCityMinLen;
  config.max_len = kCityMaxLen;
  config.speed_kmh = city.reachability.speed_kmh;
  std::vector<trajldp::model::TrajectorySet> by_len(kCityLengths);
  // Lengths are uniform, so 1.25× the target per length almost always
  // suffices; draw again with a derived seed until every length is full.
  for (uint64_t draw = 0; draw < 64; ++draw) {
    bool full = true;
    for (const auto& group : by_len) full = full && group.size() >= per_length;
    if (full) break;
    config.seed = seed * 0x9E3779B97F4A7C15ULL + draw;
    config.num_trajectories =
        static_cast<size_t>(per_length * kCityLengths * 1.25) + 16;
    auto drawn = trajldp::synth::GenerateTaxiFoursquareTrajectories(
        city.db, city.time, config);
    if (!drawn.ok()) return drawn.status();
    trajldp::eval::FilterFeasible(city.db, city.time, city.reachability,
                                  &*drawn);
    for (auto& traj : *drawn) {
      const int len = static_cast<int>(traj.size());
      if (len < kCityMinLen || len > kCityMaxLen) continue;
      auto& group = by_len[len - kCityMinLen];
      if (group.size() < per_length) group.push_back(std::move(traj));
    }
  }
  trajldp::model::TrajectorySet out;
  out.reserve(per_length * kCityLengths);
  for (size_t i = 0; i < per_length; ++i) {
    for (auto& group : by_len) {
      if (group.size() <= i) {
        return Status::Internal("the generator did not reach " +
                                std::to_string(per_length) +
                                " trajectories of every length");
      }
      out.push_back(std::move(group[i]));
    }
  }
  return out;
}

StatusOr<std::vector<trajldp::region::RegionTrajectory>> ToRegions(
    const trajldp::region::StcDecomposition& decomp,
    const trajldp::model::TrajectorySet& trajectories) {
  std::vector<trajldp::region::RegionTrajectory> out;
  out.reserve(trajectories.size());
  for (const auto& traj : trajectories) {
    auto tau = decomp.ToRegionTrajectory(traj);
    if (!tau.ok()) return tau.status();
    out.push_back(std::move(*tau));
  }
  return out;
}

StatusOr<trajldp::model::PoiDatabase> MakeLatticeDb() {
  constexpr size_t kPois = 2000;
  trajldp::hierarchy::CategoryTree tree =
      trajldp::hierarchy::BuiltinCampus();
  const auto leaves = tree.Leaves();
  const trajldp::geo::LatLon origin{40.7, -74.0};
  const auto side = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(kPois))));
  std::vector<trajldp::model::Poi> pois(kPois);
  for (size_t i = 0; i < kPois; ++i) {
    pois[i].name = "lattice_" + std::to_string(i);
    pois[i].location =
        trajldp::geo::OffsetKm(origin, static_cast<double>(i % side),
                               static_cast<double>(i / side));
    pois[i].category = leaves[i % leaves.size()];
  }
  return trajldp::model::PoiDatabase::Create(std::move(pois), std::move(tree));
}

trajldp::core::NGramConfig LatticeConfig() {
  trajldp::core::NGramConfig config;
  config.n = 2;
  config.epsilon = 5.0;
  config.decomposition.grid_size = 5;
  config.decomposition.coarse_grids = {1};
  config.decomposition.base_interval_minutes = 1440;
  config.decomposition.merge.kappa = 1;
  config.reachability.speed_kmh = 8.0;
  config.reachability.reference_gap_minutes = 30;
  return config;
}

std::vector<trajldp::region::RegionTrajectory> LatticeUsers(size_t num_regions,
                                                            uint64_t seed,
                                                            size_t count,
                                                            size_t len) {
  trajldp::Rng rng(seed);
  std::vector<trajldp::region::RegionTrajectory> users(count);
  for (auto& tau : users) {
    tau.resize(len);
    for (auto& r : tau) {
      r = static_cast<trajldp::region::RegionId>(
          rng.UniformUint64(num_regions));
    }
  }
  return users;
}

}  // namespace ldpbench
