// Testbed: the assembled measurement environment.
//
// Owns (or shares) a topology, a behaviour assignment, the routing oracle
// for one epoch, and a Network — everything a study phase needs to create
// probers and send packets. Construct one per epoch; topology and
// behaviours can be shared between epochs so Figure 2 compares the same
// world under different connectivity. The oracle precomputes paths from
// the hosts this epoch's studies send from (its VPs, the probe host and
// the cloud probe hosts) and answers any other source on demand.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "probe/prober.h"
#include "routing/oracle.h"
#include "sim/network.h"
#include "topology/generator.h"

namespace rr::measure {

struct TestbedConfig {
  topo::TopologyParams topo_params = topo::TopologyParams::paper_scale();
  sim::BehaviorParams behavior_params;
  sim::NetParams net_params;
  topo::Epoch epoch = topo::Epoch::k2016;
  /// Default worker-thread count for campaigns run on this testbed.
  /// 0 = resolve from RROPT_THREADS / hardware concurrency at use time;
  /// 1 = single-threaded. Results do not depend on this value.
  int threads = 0;
};

class Testbed {
 public:
  /// Generates a fresh world and wires everything up.
  explicit Testbed(const TestbedConfig& config);

  /// Reuses an existing world + behaviours (same devices, same policies)
  /// under a different epoch's connectivity.
  Testbed(std::shared_ptr<const topo::Topology> topology,
          std::shared_ptr<const sim::Behaviors> behaviors,
          const TestbedConfig& config);

  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return *topology_;
  }
  [[nodiscard]] std::shared_ptr<const topo::Topology> topology_ptr()
      const noexcept {
    return topology_;
  }
  [[nodiscard]] std::shared_ptr<const sim::Behaviors> behaviors_ptr()
      const noexcept {
    return behaviors_;
  }
  [[nodiscard]] const sim::Behaviors& behaviors() const noexcept {
    return *behaviors_;
  }
  [[nodiscard]] sim::Network& network() noexcept { return *network_; }
  [[nodiscard]] const sim::Network& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] const route::RoutingOracle& oracle() const noexcept {
    return *oracle_;
  }
  [[nodiscard]] topo::Epoch epoch() const noexcept { return config_.epoch; }
  [[nodiscard]] int threads() const noexcept { return config_.threads; }

  /// Vantage points active in this epoch, in a stable order (a view of
  /// the topology's precompiled per-epoch list).
  [[nodiscard]] std::span<const topo::VantagePoint* const> vps()
      const noexcept {
    return vps_;
  }

  /// Bytes held by the topology, the behaviour tables, the routing oracle
  /// and the network; the first two may be shared with another testbed.
  [[nodiscard]] std::size_t memory_bytes() const {
    return topology_->memory_bytes() + behaviors_->memory_bytes() +
           oracle_->memory_bytes() + network_->memory_bytes();
  }

  /// Creates a prober bound to a VP host.
  [[nodiscard]] probe::Prober make_prober(topo::HostId source,
                                          double pps = 20.0) {
    return probe::Prober{*network_, source, pps};
  }

 private:
  void init();

  TestbedConfig config_;
  std::shared_ptr<const topo::Topology> topology_;
  std::shared_ptr<const sim::Behaviors> behaviors_;
  std::unique_ptr<route::RoutingOracle> oracle_;
  std::unique_ptr<sim::Network> network_;
  std::span<const topo::VantagePoint* const> vps_;
};

}  // namespace rr::measure
