// Deterministic Internet generator.
//
// Builds a Topology from TopologyParams: AS-level structure (types, tiers,
// Gao-Rexford relationships, epoch-tagged peering), router-level expansion
// (cores, borders, access chains), the address plan, destination hosts (one
// per advertised prefix), vantage points and cloud providers.
//
// The same seed always yields the same Internet, byte for byte. Generation
// is one serial pass: it makes every RNG draw, ID assignment and address
// allocation in one fixed order and appends each router, host and host
// alias run to the topology as it creates them. Only router interfaces
// are grouped afterwards (a router gains them at several moments), by a
// stable counting sort; Topology::compile() then lays out the owner runs
// and freezes the result.
#pragma once

#include <memory>

#include "topology/params.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace rr::topo {

class Generator {
 public:
  explicit Generator(TopologyParams params) : params_(params) {}

  /// Generates the full topology. Call once. Builds into a mutable local
  /// Topology, freezes it (compile()), and hands out a const handle; debug
  /// builds assert that no mutation path runs after the freeze.
  [[nodiscard]] std::shared_ptr<const Topology> generate();

 private:
  struct AllocState;
  struct BuildPlan;

  void assign_types_and_tiers(Topology& topo, util::Rng& rng);
  void select_site_ases(Topology& topo, util::Rng& rng);
  void build_provider_links(Topology& topo, util::Rng& rng);
  void build_peering_links(Topology& topo, util::Rng& rng);
  void build_routers(Topology& topo, BuildPlan& plan, AllocState& alloc);
  void build_destinations(Topology& topo, BuildPlan& plan, AllocState& alloc,
                          util::Rng& rng);
  void place_vantage_points(Topology& topo, BuildPlan& plan,
                            AllocState& alloc, util::Rng& rng);

  /// Appends a host whose device also owns the `aliases` addresses after
  /// `address`, with its alias run.
  static HostId add_host(Topology& topo, AsId as, RouterId access,
                         net::IPv4Address address, int aliases);

  TopologyParams params_;

  // Site selections made early so that link construction can shape
  // connectivity around them (mega-colo peering, campus uplinks).
  std::vector<AsId> mega_colos_;
  std::vector<AsId> mlab_site_ases_;
  std::vector<AsId> plab_site_ases_;
};

/// Convenience: generate with default paper-scale parameters and a seed.
[[nodiscard]] std::shared_ptr<const Topology> generate_paper_topology(
    std::uint64_t seed = TopologyParams{}.seed);

/// Convenience: generate a small test topology.
[[nodiscard]] std::shared_ptr<const Topology> generate_test_topology(
    std::uint64_t seed = 7);

}  // namespace rr::topo
